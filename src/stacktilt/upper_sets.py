"""Finite antichain encodings of non-trivial upper sets, with mutation.

An upper set I in a poset carrying a compatible Z-action (shift by p,
satisfying x < x+p, shift-equivariance, and cofinality of orbits) is
encoded by the antichain J(I) = I cap (I^c + p), which picks exactly one
element per shift orbit.  The same code serves the rank-one group order,
the rank-two base order on H (shift s), and the fibered poset over a
rank-two J-class (shift p).
"""

from __future__ import annotations

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
        if over is None:
            reps, _, self._proj = ctx.coset_reps(self.shift_element)
            self._samples = {self._proj(r).coords: r for r in reps}
        else:
            split, base = over
            self._proj = split.q
            self._samples = {h.coords: split.q.section(h)
                             for h in base.elements}
        self.fibers = tuple(sorted(self._samples))
        self.theta_p = ctx.theta_val(self.shift_element)
        # the Prop-GJX local test is only valid on the whole group with
        # shift p = sum x_i
        self.supports_local_check = (over is None
                                     and self.shift_element == ctx.p)

    def leq(self, a: GroupElement, b: GroupElement) -> bool:
        return self.ctx.leq(a, b)

    def shift(self, a: GroupElement, n: int) -> GroupElement:
        return a + n * self.shift_element

    def fiber_key(self, a: GroupElement):
        return self._proj(a).coords

    def fiber_sample(self, key) -> GroupElement:
        return self._samples[key]

    def theta(self, a: GroupElement) -> int:
        return self.ctx.theta_val(a)

    def local_check(self, rep: "AntichainRep") -> bool:
        """g + x_i in J or J + p, for every g in J and every degree."""
        for g in rep.elements:
            for x in self.ctx.degrees:
                h = g + x
                r = rep.by_fiber[self.fiber_key(h)]
                if h != r and h != self.shift(r, 1):
                    return False
        return True


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

    def __eq__(self, other):
        return (isinstance(other, AntichainRep)
                and self.poset is other.poset and self.key() == other.key())

    def __hash__(self):
        return hash((id(self.poset), self.key()))

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
    ok, witness = True, None
    for x in elements:
        for y in elements:
            if poset.leq(poset.shift(y, 1), x):
                ok, witness = False, {"reason": "antichain",
                                      "greater": list(x.coords),
                                      "lesser": list(y.coords)}
                break
        if not ok:
            break
    if poset.supports_local_check:
        rep = AntichainRep(poset, elements)
        if poset.local_check(rep) != ok:
            raise InternalInvariantBroken(
                "local J-condition disagrees with the antichain condition")
    return ok, witness


def checked(poset, elements: Iterable[GroupElement]) -> AntichainRep:
    ok, witness = is_antichain_rep(poset, list(elements))
    if not ok:
        raise NotAntichain("not a complete-representative antichain", **witness)
    return AntichainRep(poset, elements)


def mutable_elements(rep: AntichainRep) -> list[GroupElement]:
    """Elements of J minimal in I(J): nothing of J lies strictly below."""
    poset = rep.poset
    out = []
    for m in rep.elements:
        if not any(j != m and poset.leq(j, m) for j in rep.elements):
            out.append(m)
    return out


def upward_mutable_elements(rep: AntichainRep) -> list[GroupElement]:
    """Elements of J with nothing of J strictly above (inverse mutation sites)."""
    poset = rep.poset
    out = []
    for m in rep.elements:
        if not any(j != m and poset.leq(m, j) for j in rep.elements):
            out.append(m)
    return out


def mutate(rep: AntichainRep, m: GroupElement) -> AntichainRep:
    """Remove the minimal element m from I(J): replace m by m + p in J."""
    if m not in rep.elements or m not in mutable_elements(rep):
        raise NotMinimal("element is not minimal in the upper set",
                         element=list(m.coords))
    elements = [e for e in rep.elements if e != m] + [rep.poset.shift(m, 1)]
    ok, witness = is_antichain_rep(rep.poset, elements)
    if not ok:
        raise InternalInvariantBroken(f"mutation left the antichain family: {witness}")
    return AntichainRep(rep.poset, elements)


def mutate_up(rep: AntichainRep, m: GroupElement) -> AntichainRep:
    if m not in rep.elements or m not in upward_mutable_elements(rep):
        raise NotMinimal("element is not maximal in the complement direction",
                         element=list(m.coords))
    elements = [e for e in rep.elements if e != m] + [rep.poset.shift(m, -1)]
    ok, witness = is_antichain_rep(rep.poset, elements)
    if not ok:
        raise InternalInvariantBroken(f"inverse mutation failed: {witness}")
    return AntichainRep(rep.poset, elements)


def seed_slab(poset) -> AntichainRep:
    """The theta-slab representative family: theta in [0, theta(p)) per fiber.

    Always a complete-representative antichain: a violation x >= y + p would
    force theta(x) >= theta(y) + theta(p) >= theta(p), impossible inside the
    slab.
    """
    chosen = []
    for key in poset.fibers:
        e = poset.fiber_sample(key)
        n = poset.theta(e) // poset.theta_p
        chosen.append(poset.shift(e, -n))
    return checked(poset, chosen)


def _slab_shift(rep: AntichainRep) -> AntichainRep:
    poset = rep.poset
    lo = min(poset.theta(e) for e in rep.elements)
    k = -(lo // poset.theta_p)
    if k == 0:
        return rep
    return AntichainRep(poset, [poset.shift(e, k) for e in rep.elements])


def canonical_form(rep: AntichainRep, mode: str = "zp") -> AntichainRep:
    """Deterministic orbit representative.

    mode "zp": translate by a multiple of p so min theta lands in [0, theta_p).
    mode "full": additionally minimize over the translations by the fiber
    samples, i.e. all translations modulo the shift (the "up to
    translations" counting used for class reporting).
    """
    if mode == "zp":
        return _slab_shift(rep)
    if mode != "full":
        raise ValueError(f"unknown canonical form mode {mode!r}")
    poset = rep.poset
    best = None
    for t in map(poset.fiber_sample, poset.fibers):
        cand = _slab_shift(AntichainRep(
            poset, [e + t for e in rep.elements]))
        if best is None or cand.key() < best.key():
            best = cand
    return best


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
                    if max_classes is not None and len(seen) > max_classes:
                        raise ClassCountExceeded(
                            "class enumeration exceeded the ceiling",
                            ceiling=max_classes)
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
