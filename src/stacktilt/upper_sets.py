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
import math
import operator
from typing import Iterable, Optional, Sequence

from .abgroup import GroupElement
from .errors import (InternalInvariantBroken, NotAntichain, NotMinimal,
                     ClassCountExceeded)
from .graded_order import GradedDegreeGroup


class GroupPoset:
    """A shifted poset inside G: fibers, one sample per fiber, and a shift.

    Whole-group form (over=None): the fibers are the cosets of G modulo the
    shift, which defaults to p; their number must be finite, which for the
    in-scope inputs means free rank one.  Its translations are those by the
    fiber samples, all translations modulo the shift.  Fibered form
    (over=(split, base)): q^{-1}(J) inside a rank-two G, one shift orbit
    per element h of the base class J over H = G/Zp, with projection
    split.q and samples split.q.section(h).  Its translations are the lifts
    split.q.section(t) of the t in H fixing J setwise; such a t keeps J's
    theta multiset, so it is torsion, and tors(H) embeds in H/Zs, whose
    cosets H's coset_reps has capped at 256, so the search is bounded.

    The poset's classes up to shifts are integer points.  A class is the
    level vector k, over self.fibers, of its members s_a + k_a*shift; the
    classes are the integer points of k_a - k_b <= -gaps[a][b] modulo the
    all-ones vector, and the slab shift (min theta into [0, theta_p))
    picks one point per class.  Fiber a is a down site (its member is
    minimal in J) when k_a < k_b - gaps[a][b] for every b != a, an up site
    when k_a > k_b + gaps[b][a].  Raising k_a at a down site keeps every
    constraint, since the site test is the constraint on k_a + 1 and the
    others only loosen; lowering at an up site is the mirror case.  So no
    move is re-tested.
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
        self.over = over
        if over is None:
            reps, _, self._proj = ctx.coset_reps(self.shift_element)
            self._samples = {self._proj(r).coords: r for r in reps}
        else:
            split, base = over
            self._proj = split.q
            self._samples = {h.coords: split.q.section(h)
                             for h in base.elements}
        self.fibers = tuple(sorted(self._samples))
        self.index = {a: i for i, a in enumerate(self.fibers)}
        self.sample_theta = {a: self.theta(s) for a, s in self._samples.items()}

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
    def single_steps(self) -> dict:
        """single_steps[a][i] = level(s_a + x_i), by group arithmetic: the
        (fiber, level change) of the degree x_i out of fiber a.  Whole-group
        form only, where every element lies over a fiber; the fibered
        posets over H's classes read H's table."""
        degrees, level = self.ctx.degrees, self.level
        return {a: [level(s + x) for x in degrees]
                for a, s in self._samples.items()}

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

    # the site tables, built on first use: gaps[a][b] and its transpose,
    # with -inf on the diagonal taking b = a out of the site tests
    @functools.cached_property
    def _rows(self) -> list:
        fibers, gaps = self.fibers, self.gaps
        return [[-math.inf if a == b else gaps[a][b] for b in fibers]
                for a in fibers]

    @functools.cached_property
    def _cols(self) -> list:
        return list(zip(*self._rows))

    @functools.cached_property
    def _floor(self) -> list:
        return [self.sample_theta[a] // self.theta_p for a in self.fibers]

    def normal(self, k) -> tuple:
        # min over b of (theta(s_b) + k_b*theta_p) // theta_p
        n = min(map(operator.add, k, self._floor))
        return tuple([x - n for x in k]) if n else tuple(k)

    def down(self, k: tuple) -> list[int]:
        return [a for a, (x, row) in enumerate(zip(k, self._rows))
                if x < min(map(operator.sub, k, row))]

    def up(self, k: tuple) -> list[int]:
        return [a for a, (x, col) in enumerate(zip(k, self._cols))
                if x > max(map(operator.add, k, col))]

    def step(self, k: tuple, a: int, direction: int) -> tuple:
        k = list(k)
        k[a] += direction
        return self.normal(k)

    def point(self, rep: AntichainRep) -> tuple:
        """The normalised level vector of rep's members."""
        return self.normal([self.level(rep.by_fiber[a])[1]
                            for a in self.fibers])

    def offsets(self, t: GroupElement) -> list[tuple]:
        """The translation by t, as (source index, level offset) per target
        fiber: s_a + t = s_b + j*shift moves the member (a, k) to
        (b, k + j)."""
        moves = [None] * len(self.index)
        for a, i in self.index.items():
            over = self.level(self._samples[a] + t)
            if over is None:
                raise InternalInvariantBroken(
                    f"translation by {t.coords} leaves the poset's fibers")
            b, j = over
            moves[self.index[b]] = (i, j)
        return moves

    def translate(self, k: tuple, moves: list[tuple]) -> tuple:
        return self.normal([k[i] + j for i, j in moves])

    @functools.cached_property
    def _translations(self) -> list:
        """The offsets of each translation (see the class docstring), the
        identity included."""
        if self.whole_group:
            return [self.offsets(self._samples[c]) for c in self.fibers]
        split, base = self.over
        h_group, members = split.h_ctx.group, set(base.elements)
        free = (0,) * h_group.free_rank
        torsion = (h_group.from_coords(t + free) for t in itertools.product(
            *(range(o) for o in h_group.torsion_orders)))
        return [self.offsets(split.q.section(t)) for t in torsion
                if {h + t for h in base.elements} == members]

    def translates(self, k: tuple) -> list[tuple]:
        """The points of k's orbit under all translations."""
        return [self.translate(k, moves) for moves in self._translations]

    def orbit(self, k: tuple, mode: str) -> list[tuple]:
        """The points of k's class: its translates in "full" mode, k itself
        in "zp" mode."""
        if mode == "full":
            return self.translates(k)
        if mode == "zp":
            return [k]
        raise ValueError(f"unknown canonical form mode {mode!r}")

    def key(self, k: tuple) -> tuple:
        return tuple(sorted(self.element(a, x).coords
                            for a, x in zip(self.fibers, k)))

    def head(self, points) -> tuple:
        """min(points, key=self.key), keying only the points whose least
        member is least, as a key begins with its least member; a single
        point is its own head, unkeyed."""
        if len(points) == 1:
            return next(iter(points))
        element, fibers = self.element, self.fibers
        coords = operator.attrgetter("coords")
        least = [min(map(coords, map(element, fibers, k))) for k in points]
        low = min(least)
        return min((k for k, m in zip(points, least) if m == low),
                   key=self.key)

    def rep(self, k: tuple) -> AntichainRep:
        return AntichainRep(self, [self.element(a, x)
                                   for a, x in zip(self.fibers, k)])


class AntichainRep:
    """One chosen element per fiber, pairwise satisfying x >= y + p nowhere."""

    # edges: (site, neighbour class) per downward mutation, and orbit_len,
    # the classes up to shifts in the class, set by enumerate_classes;
    # sites come in element order, as mutable_elements lists them
    __slots__ = ("poset", "elements", "by_fiber", "edges", "orbit_len")

    def __init__(self, poset, elements: Iterable[GroupElement]):
        self.poset = poset
        self.elements = tuple(sorted(elements, key=lambda e: e.coords))
        self.by_fiber = {poset.fiber_key(e): e for e in self.elements}

    def key(self) -> tuple:
        return tuple(e.coords for e in self.elements)

    def __repr__(self):
        return f"AntichainRep{list(self.key())}"


def is_antichain_rep(poset, elements: Sequence[GroupElement]):
    """(ok, witness): completeness plus the antichain condition."""
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
    extra = [k for k in seen if k not in poset.index]
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
    return ok, witness


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
    slab = poset.rep([-f for f in poset._floor])
    ok, witness = is_antichain_rep(poset, slab.elements)
    if not ok:
        raise InternalInvariantBroken(f"the theta slab is no antichain: "
                                      f"{witness}")
    return slab


def canonical_form(rep: AntichainRep, mode: str) -> AntichainRep:
    """Deterministic orbit representative: the least key among the points
    of rep's class (GroupPoset.orbit), picked by GroupPoset.head, the rule
    enumerate_classes names its classes by.

    mode "zp": translate by a multiple of the shift so min theta lands in
    [0, theta_p).  mode "full": additionally minimize over the poset's
    translations (the "up to translations" counting used for class
    reporting).  rep itself is returned when it is the winner.
    """
    poset = rep.poset
    k = poset.head(poset.orbit(poset.point(rep), mode))
    return rep if poset.key(k) == rep.key() else poset.rep(k)


def check_closure(poset, steps: Iterable[tuple], message: str) -> None:
    """Raise InternalInvariantBroken(message) unless the cut-grading
    constraints of steps have the classes as their integer points.

    A step (a, b, t) says that a move out of the member over a lands over
    b at level k_a + t, in J or in J + shift: k_b - k_a <= t and
    k_a - k_b <= 1 - t.  The classes are the integer points of the closed
    system k_a - k_b <= -gaps[a][b], and two closed integer difference
    systems with the same integer points are equal (Mine, PADO 2001), so
    the Floyd-Warshall closure of the step constraints must be -gaps.
    """
    index = poset.index
    n = len(index)
    d = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for a, b, t in steps:
        i, j = index[a], index[b]
        d[j][i] = min(d[j][i], t)
        d[i][j] = min(d[i][j], 1 - t)
    for m in range(n):
        dm = d[m]
        for i in range(n):
            dim = d[i][m]
            if dim != math.inf:
                d[i] = [min(x, dim + y) for x, y in zip(d[i], dm)]
    gaps = poset.gaps
    if any(d[i][j] != -gaps[a][b] for a, i in index.items()
           for b, j in index.items()):
        raise InternalInvariantBroken(message)


def enumerate_classes(poset, mode: str,
                      max_classes: int = 10_000) -> list[AntichainRep]:
    """All antichain classes up to the chosen translations, sorted by key,
    each with its edges, (site, neighbour class) per downward mutation,
    and its orbit_len, the number of points (classes up to shifts) it
    holds.

    The classes up to shifts are the poset's level points (GroupPoset), a
    distributive lattice connected by the moves (Propp).  A class is the
    orbit of a point, GroupPoset.orbit: its translates in "full" mode, the
    point alone in "zp" mode, and the least key in it, GroupPoset.head,
    names the class, as canonical_form does.  A translation is an order
    automorphism commuting with the shift, so it maps the moves out of a
    point onto the moves out of its translate: the orbits of the
    neighbours of one point of an orbit are those of every point of it.
    The orbits thus form a connected quotient of the move graph, and a BFS
    from the theta slab that expands one point per orbit, its head, meets
    every class while testing sites at one point per class (isomorph-free
    generation, McKay 1998).  The head names the class, and its down
    moves, each walked in turn, are the class's edges.  In "zp" mode every
    orbit is one point, so the walk expands each point once and misses a
    point only where a site scan misses a move.  It stops once
    max_classes + 1 orbits are formed.  The walk reads only the gaps;
    where the classifiers build quivers, the arrow table's closure has
    checked them first.
    """
    # every point reached by a move, in BFS order; the first one of each
    # orbit forms the orbit, whose head is expanded
    class_of, heads = {}, []
    reached = [poset.point(seed_slab(poset))]
    for k in reached:
        if k in class_of:
            continue
        orbit = dict.fromkeys(poset.orbit(k, mode), len(heads))
        class_of.update(orbit)
        if len(heads) >= max_classes:   # this is orbit max_classes + 1
            raise ClassCountExceeded("class enumeration exceeded the ceiling",
                                     ceiling=max_classes)
        head = poset.head(orbit)
        down = {a: poset.step(head, a, 1) for a in poset.down(head)}
        heads.append((head, len(orbit), down))
        reached += down.values()
        reached += [poset.step(head, a, -1) for a in poset.up(head)]
    reps = [poset.rep(k) for k, _, _ in heads]
    for (_, size, down), rep in zip(heads, reps):
        sites = [(e, poset.index[poset.fiber_key(e)]) for e in rep.elements]
        rep.edges = tuple((e, reps[class_of[down[a]]]) for e, a in sites
                          if a in down)
        rep.orbit_len = size
    return sorted(reps, key=AntichainRep.key)


def connect(rep1: AntichainRep, rep2: AntichainRep,
            mode: str) -> list[tuple]:
    """Mutation moves taking rep1 to a translate of rep2.

    Returns [(fiber_key, +1 | -1), ...]; +1 is a downward mutation (remove a
    minimal element of the upper set).  A BFS over the poset's level points
    (fiber keys are shift-invariant, so the moves replay verbatim) from
    rep1's point: each point's down sites, then its up sites, each in the
    order of the members' coordinates.  It stops after expanding the first
    point with a new child in rep2's class, at the last such child.
    """
    if rep1.poset is not rep2.poset:
        raise NotAntichain("antichains live on different posets")
    poset = rep1.poset
    target = set(poset.orbit(poset.point(rep2), mode))
    start = poset.point(rep1)
    parents = {start: None}
    goal = start if start in target else None
    frontier = [start]
    while frontier and goal is None:
        nxt = []
        for k in frontier:
            for direction, sites in ((1, poset.down(k)), (-1, poset.up(k))):
                for a in sorted(sites, key=lambda a: poset.element(
                        poset.fibers[a], k[a]).coords):
                    c = poset.step(k, a, direction)
                    if c not in parents:
                        parents[c] = (k, a, direction)
                        nxt.append(c)
                        if c in target:
                            goal = c
            if goal is not None:
                break
        frontier = nxt
    if goal is None:
        raise InternalInvariantBroken("mutation graph is not connected")
    moves = []
    while parents[goal] is not None:
        goal, a, direction = parents[goal]
        moves.append((a, direction))
    moves.reverse()
    k = start
    for a, direction in moves:
        if a not in (poset.down(k) if direction == 1 else poset.up(k)):
            raise InternalInvariantBroken("replaying the mutation walk failed")
        k = poset.step(k, a, direction)
    if k not in target:
        raise InternalInvariantBroken("replaying the mutation walk failed")
    return [(poset.fibers[a], direction) for a, direction in moves]
