"""Finite antichain encodings of non-trivial upper sets, with mutation.

An upper set I in a poset carrying a compatible Z-action (shift by p,
satisfying x < x+p, shift-equivariance, and cofinality of orbits) is
encoded by the antichain J(I) = I cap (I^c + p), which picks exactly one
element per shift orbit.  The same code serves the rank-one group order,
the rank-two base order on H (shift s), and the fibered poset over a
rank-two J-class (shift p).
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Optional, Sequence

from .abgroup import GroupElement
from .errors import (InternalInvariantBroken, NotAntichain, NotMinimal,
                     ClassCountExceeded)
from .graded_order import GradedDegreeGroup


class GroupPoset:
    """A shifted poset inside G: fibers, one sample per fiber, and a shift.

    Whole-group form (over=None): the fibers are the cosets of G modulo the
    shift, which defaults to p; their number must be finite, which for the
    in-scope inputs means free rank one.  Fibered form (over=(split, base)):
    q^{-1}(J) inside a rank-two G, one shift orbit per element h of the base
    class J over H = G/Zp, with projection split.q and samples
    split.q.section(h).
    """

    def __init__(self, ctx: GradedDegreeGroup,
                 shift_element: Optional[GroupElement] = None,
                 over: Optional[tuple] = None):
        self.ctx = ctx
        self.shift_element = ctx.p if shift_element is None else shift_element
        self.theta_p = ctx.theta_val(self.shift_element)
        self.fiber_key = functools.cache(self._fiber_key)
        self.level = functools.cache(self._level)
        self.element = functools.cache(self._element)
        self.whole_group = over is None
        if over is None:
            reps, _, self._proj = ctx.coset_reps(self.shift_element)
            self._samples = {self._proj(r).coords: r for r in reps}
        else:
            split, base = over
            self._proj = split.q
            self._samples = {h.coords: split.q.section(h)
                             for h in base.elements}
        self.fibers = tuple(sorted(self._samples))
        self.sample_theta = {a: self.theta(s) for a, s in self._samples.items()}
        # the Prop-GJX local test is only valid on the whole group with
        # shift p = sum x_i; it reads _steps, the levels of s_a + x_i
        self.supports_local_check = (self.whole_group
                                     and self.shift_element == ctx.p)
        if self.supports_local_check:
            self._steps = {a: [self.level(s + x) for x in ctx.degrees]
                           for a, s in self._samples.items()}

    @functools.cached_property
    def gaps(self) -> dict:
        """gaps[a][b] = max{k : s_b + k*shift <= s_a}, searched down from the
        theta bound; the search ends since orbits are cofinal."""
        s, t = self._samples, self.sample_theta
        out = {a: {} for a in s}
        for a, b in itertools.product(s, repeat=2):
            out[a][b] = (t[a] - t[b]) // self.theta_p
            while not self.leq(self.shift(s[b], out[a][b]), s[a]):
                out[a][b] -= 1
        return out

    @functools.cached_property
    def sums(self) -> dict:
        """sums[a][c] = level(s_a + s_c): translating (a, k) by s_c lands on
        (b, k + j) for (b, j) = sums[a][c].  Whole-group form only."""
        if not self.whole_group:
            raise ValueError("translations by fiber samples need the whole "
                             "group")
        s = self._samples
        return {a: {c: self.level(s[a] + s[c]) for c in s} for a in s}

    def _level(self, e: GroupElement) -> Optional[tuple]:
        """(a, k) with e = s_a + k*shift, or None when e lies over no fiber
        of the poset; self.level caches it per e."""
        a = self.fiber_key(e)
        if a not in self._samples:
            return None
        return a, self.theta(e - self._samples[a]) // self.theta_p

    def _element(self, a, k: int) -> GroupElement:
        """s_a + k*shift, the element at level (a, k); self.element caches
        it per (a, k)."""
        return self.shift(self._samples[a], k)

    def leq(self, a: GroupElement, b: GroupElement) -> bool:
        return self.ctx.leq(a, b)

    def shift(self, a: GroupElement, n: int) -> GroupElement:
        return a + n * self.shift_element

    def _fiber_key(self, a: GroupElement):
        """The fiber a lies over; self.fiber_key caches it per a, so each
        element is projected once per poset."""
        return self._proj(a).coords

    def fiber_sample(self, key) -> GroupElement:
        return self._samples[key]

    def theta(self, a: GroupElement) -> int:
        return self.ctx.theta_val(a)

    def local_check(self, by_fiber: dict) -> bool:
        """g + x_i in J or J + p, for g in J and each degree, read off the
        levels _steps[a] of s_a + x_i; by_fiber maps fibers to members."""
        k = {a: self.level(g)[1] for a, g in by_fiber.items()}
        return all(k[b] <= k[a] + d <= k[b] + 1
                   for a in k for b, d in self._steps[a])


class AntichainRep:
    """One chosen element per fiber, pairwise satisfying x >= y + p nowhere."""

    # edges: (site, neighbour class) per downward mutation, set by _walk;
    # sites come in element order, as mutable_elements lists them
    __slots__ = ("poset", "elements", "by_fiber", "edges")

    def __init__(self, poset, elements: Iterable[GroupElement]):
        self.poset = poset
        self.elements = tuple(sorted(elements, key=lambda e: e.coords))
        self.by_fiber = {poset.fiber_key(e): e for e in self.elements}

    def key(self) -> tuple:
        return tuple(e.coords for e in self.elements)

    def __repr__(self):
        return f"AntichainRep{list(self.key())}"


def is_antichain_rep(poset, elements: Sequence[GroupElement]):
    """(ok, witness): completeness plus the antichain condition.

    On rank-one group posets with shift p the equivalent local condition of
    the J-characterization is cross-checked; a disagreement would falsify a
    theorem and raises InternalInvariantBroken.
    """
    elements = list(elements)
    seen = {}
    for e in elements:
        k = poset.fiber_key(e)
        if k in seen:
            return False, {"reason": "duplicate_fiber", "fiber": k,
                           "elements": [list(seen[k].coords), list(e.coords)]}
        seen[k] = e
    missing = [k for k in poset.fibers if k not in seen]
    if missing:
        return False, {"reason": "missing_fiber", "fiber": missing[0]}
    extra = [k for k in seen if k not in poset.gaps]
    if extra:
        return False, {"reason": "extra_fiber", "fiber": extra[0]}
    lv, gaps = [poset.level(e) for e in elements], poset.gaps
    hit = next(((x, y) for x, (a, kx) in zip(elements, lv)
                for y, (b, ky) in zip(elements, lv)
                if ky + 1 - kx <= gaps[a][b]), None)
    ok = hit is None
    witness = None if ok else {"reason": "antichain",
                               "greater": list(hit[0].coords),
                               "lesser": list(hit[1].coords)}
    if poset.supports_local_check and poset.local_check(seen) != ok:
        raise InternalInvariantBroken(
            "local J-condition disagrees with the antichain condition")
    return ok, witness


def checked(poset, elements: Iterable[GroupElement]) -> AntichainRep:
    ok, witness = is_antichain_rep(poset, list(elements))
    if not ok:
        raise NotAntichain("not a complete-representative antichain", **witness)
    return AntichainRep(poset, elements)


def _sites(rep: AntichainRep, up: bool) -> list[GroupElement]:
    """Members of J with no other member of J below them (up: above)."""
    gaps, lv = rep.poset.gaps, [rep.poset.level(e) for e in rep.elements]
    # member (b, j) <= member (a, k) iff j - k <= gaps[a][b]
    return [m for m, (a, k) in zip(rep.elements, lv)
            if not any((b, j) != (a, k)
                       and (k - j <= gaps[b][a] if up else j - k <= gaps[a][b])
                       for b, j in lv)]


def mutable_elements(rep: AntichainRep) -> list[GroupElement]:
    """Elements of J minimal in I(J): nothing of J lies strictly below."""
    return _sites(rep, False)


def upward_mutable_elements(rep: AntichainRep) -> list[GroupElement]:
    """Elements of J with nothing of J strictly above (inverse mutation sites)."""
    return _sites(rep, True)


def _mutate(rep: AntichainRep, m: GroupElement, direction: int,
            not_site: str, failed: str) -> AntichainRep:
    """Replace the site m of J by m + direction * shift."""
    if m not in _sites(rep, direction == -1):
        raise NotMinimal(not_site, element=list(m.coords))
    elements = ([e for e in rep.elements if e != m]
                + [rep.poset.shift(m, direction)])
    ok, witness = is_antichain_rep(rep.poset, elements)
    if not ok:
        raise InternalInvariantBroken(f"{failed}: {witness}")
    return AntichainRep(rep.poset, elements)


def mutate(rep: AntichainRep, m: GroupElement) -> AntichainRep:
    """Remove the minimal element m from I(J): replace m by m + p in J."""
    return _mutate(rep, m, 1, "element is not minimal in the upper set",
                   "mutation left the antichain family")


def mutate_up(rep: AntichainRep, m: GroupElement) -> AntichainRep:
    return _mutate(rep, m, -1,
                   "element is not maximal in the complement direction",
                   "inverse mutation failed")


def seed_slab(poset) -> AntichainRep:
    """The theta-slab representative family: theta in [0, theta(p)) per fiber.

    Always a complete-representative antichain: a violation x >= y + p would
    force theta(x) >= theta(y) + theta(p) >= theta(p), impossible inside the
    slab.  A slab failing the test is therefore an internal fault.
    """
    chosen = [poset.element(a, -(poset.sample_theta[a] // poset.theta_p))
              for a in poset.fibers]
    ok, witness = is_antichain_rep(poset, chosen)
    if not ok:
        raise InternalInvariantBroken(f"the theta slab is no antichain: "
                                      f"{witness}")
    return AntichainRep(poset, chosen)


def _translates(rep: AntichainRep, mode: str):
    """(key, levels) of the zp-canonical form of each translate of rep.

    mode "zp": rep itself; mode "full": rep + s_c for every fiber sample
    s_c, which stands for all translations modulo the shift.  Works on the
    members' levels: (a, k) moves to (b, k + j) for (b, j) = sums[a][c],
    and the slab shift by -n puts min theta = min(theta(s_b) + k*theta_p)
    into [0, theta_p).  Keys read the poset's (b, k) element cache.
    """
    poset = rep.poset
    levels = [poset.level(e) for e in rep.elements]
    if mode == "zp":
        candidates = [levels]
    elif mode == "full":
        sums = poset.sums
        candidates = ([(b, k + j) for (a, k) in levels
                       for b, j in [sums[a][c]]] for c in poset.fibers)
    else:
        raise ValueError(f"unknown canonical form mode {mode!r}")
    theta, theta_p = poset.sample_theta, poset.theta_p
    for members in candidates:
        n = min(theta[b] + k * theta_p for b, k in members) // theta_p
        members = [(b, k - n) for b, k in members]
        yield tuple(sorted(poset.element(*m).coords for m in members)), members


def canonical_form(rep: AntichainRep, mode: str = "zp") -> AntichainRep:
    """Deterministic orbit representative: the least key among _translates.

    mode "zp": translate by a multiple of the shift so min theta lands in
    [0, theta_p).  mode "full": additionally minimize over the translations
    by the fiber samples, i.e. all translations modulo the shift (the "up
    to translations" counting used for class reporting).  Only the winner
    is built as elements, and rep itself is returned when it is the winner.
    """
    key, members = min(_translates(rep, mode), key=lambda t: t[0])
    if key == rep.key():
        return rep
    return AntichainRep(rep.poset, [rep.poset.element(*m) for m in members])


def orbit_size(rep: AntichainRep, mode: str) -> int:
    """How many classes up to shifts rep's mode-class holds: the distinct
    keys among its translates (1 in zp mode)."""
    return len({key for key, _ in _translates(rep, mode)})


def _walk(start: AntichainRep, mode: str, max_classes: Optional[int] = None,
          in_target=None) -> tuple[dict, dict, Optional[tuple]]:
    """Mutation BFS over mode-canonical states: (seen, parents, goal).

    parents maps each key to (parent key, fiber key, +1 | -1), or None at
    start.  With in_target it stops at start, or after expanding the first
    state with a child in the target, whose last such child is the goal.
    Otherwise it closes the component and sets every state's edges.
    """
    seen = {start.key(): start}
    parents: dict = {start.key(): None}
    goal = start.key() if in_target is not None and in_target(start) else None
    frontier = [start]
    while frontier and goal is None:
        nxt = []
        for rep in frontier:
            # every admitted state, the start too, is expanded: none escapes
            if max_classes is not None and len(seen) > max_classes:
                raise ClassCountExceeded(
                    "class enumeration exceeded the ceiling",
                    ceiling=max_classes)
            moves = [(m, 1) for m in mutable_elements(rep)]
            moves += [(m, -1) for m in upward_mutable_elements(rep)]
            edges = []
            for m, direction in moves:
                c = canonical_form(mutate(rep, m) if direction == 1
                                   else mutate_up(rep, m), mode)
                k = c.key()
                if k not in seen:
                    seen[k] = c
                    parents[k] = (rep.key(), rep.poset.fiber_key(m), direction)
                    nxt.append(c)
                    if in_target is not None and in_target(c):
                        goal = k
                if direction == 1:
                    edges.append((m, seen[k]))
            if goal is not None:
                break
            if in_target is None:   # connect's start may be a listed class
                rep.edges = tuple(edges)
        frontier = nxt
    return seen, parents, goal


def enumerate_classes(poset, mode: str = "full",
                      max_classes: int = 10_000) -> list[AntichainRep]:
    """All antichain classes up to the chosen translations, by mutation BFS.

    Connectivity of the mutation graph is theorem-backed; the BFS closes the
    seed slab under mutations in both directions.
    """
    seen, _, _ = _walk(canonical_form(seed_slab(poset), mode), mode,
                       max_classes)
    return [seen[k] for k in sorted(seen)]


def connect(rep1: AntichainRep, rep2: AntichainRep,
            mode: str = "zp") -> list[tuple]:
    """Mutation moves taking rep1 to a translate of rep2.

    Returns [(fiber_key, +1 | -1), ...]; +1 is a downward mutation (remove a
    minimal element of the upper set).  The search walks shift-canonical
    states (whose fiber keys are shift-invariant, so the moves replay
    verbatim) and stops at a state in the target's mode-orbit.
    """
    if rep1.poset is not rep2.poset:
        raise NotAntichain("antichains live on different posets")
    target = canonical_form(rep2, mode).key()

    def in_target(rep: AntichainRep) -> bool:
        return canonical_form(rep, mode).key() == target

    start = canonical_form(rep1, "zp")
    _, parents, goal = _walk(start, "zp", in_target=in_target)
    if goal is None:
        raise InternalInvariantBroken("mutation graph is not connected")
    moves = []
    while parents[goal] is not None:
        goal, fiber, direction = parents[goal]
        moves.append((fiber, direction))
    moves.reverse()
    if not in_target(apply_moves(start, moves)):
        raise InternalInvariantBroken("replaying the mutation walk failed")
    return moves


def apply_moves(rep: AntichainRep, moves: Sequence[tuple]) -> AntichainRep:
    for fiber, direction in moves:
        m = rep.by_fiber[fiber]
        rep = mutate(rep, m) if direction == 1 else mutate_up(rep, m)
    return rep
