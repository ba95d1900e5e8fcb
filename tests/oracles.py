"""Brute-force reference implementations and helpers used only by the tests."""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from stacktilt import _intlinalg as la
from stacktilt import stacky_geom as sg
from stacktilt.abgroup import (FgAbelianGroup, GroupElement,
                               solve_combination)
from stacktilt.cuts import (CutDetector, LatticeQuotient, cut_from_detector,
                            cut_type, enumerate_detectors, is_admissible_type)
from stacktilt.errors import (InputError, InternalInvariantBroken,
                              NotAntichain, StacktiltError,
                              UnboundedContribution)
from stacktilt.graded_order import GradedDegreeGroup
from stacktilt.quiver import (Arrow, QuiverPresentation, Relation,
                              monomial_label)
from stacktilt import upper_sets as us
from stacktilt.tilting import _is_irreducible
from stacktilt.upper_sets import AntichainRep, is_antichain_rep

_SEARCH_CAP = 10_000


class TrivialUpperSet(StacktiltError):
    code = "TrivialUpperSet"


class NotACut(StacktiltError):
    code = "NotACut"


class NotAdmissible(StacktiltError):
    code = "NotAdmissible"


def checked(poset, elements: Iterable[GroupElement]) -> AntichainRep:
    """The AntichainRep of elements, which must pass is_antichain_rep."""
    ok, witness = is_antichain_rep(poset, list(elements))
    if not ok:
        raise NotAntichain("not a complete-representative antichain", **witness)
    return AntichainRep(poset, elements)


def enumerate_classes_window(poset, mode: str = "paper",
                             window: int = 4) -> list[AntichainRep]:
    """Brute-force oracle: all shift vectors in [-window, window]^fibers.

    Cross-check for upper_sets.enumerate_classes; the window is not a
    completeness proof.  Prefix pruning is sound because an antichain
    violation between two chosen elements dooms every extension.
    """
    base = [poset.fiber_sample(k) for k in poset.fibers]
    found: dict = {}

    def rec(i: int, chosen: list[GroupElement]) -> None:
        if i == len(base):
            ok, _ = is_antichain_rep(poset, chosen)
            if ok:
                c = canonical_form_elementwise(AntichainRep(poset, chosen),
                                               mode)
                found.setdefault(c.key(), c)
            return
        for n in range(-window, window + 1):
            e = poset.shift(base[i], n)
            bad = any(poset.ctx.leq(poset.shift(x, 1), e)
                      or poset.ctx.leq(poset.shift(e, 1), x) for x in chosen)
            if not bad:
                chosen.append(e)
                rec(i + 1, chosen)
                chosen.pop()

    rec(0, [])
    return [found[k] for k in sorted(found)]


def enumerate_classes_bfs(poset, mode: str = "paper") -> list[AntichainRep]:
    """upper_sets.enumerate_classes as a mutation BFS over AntichainReps.

    Closes the mode-canonical seed slab under mutations in both
    directions, testing every move (mutate) and computing a canonical form
    per move; each class's edges are its downward mutations, in
    mutable_elements order.  Reference for the level-space walk.
    """
    start = us.canonical_form(us.seed_slab(poset), mode)
    seen = {start.key(): start}
    frontier = [start]
    while frontier:
        nxt = []
        for rep in frontier:
            edges = []
            for m, move in ([(m, us.mutate) for m in us.mutable_elements(rep)]
                            + [(m, us.mutate_up)
                               for m in us.upward_mutable_elements(rep)]):
                c = us.canonical_form(move(rep, m), mode)
                if c.key() not in seen:
                    seen[c.key()] = c
                    nxt.append(c)
                if move is us.mutate:
                    edges.append((m, seen[c.key()]))
            rep.edges = tuple(edges)
        frontier = nxt
    return [seen[k] for k in sorted(seen)]


def admits_proper_superset(rep: AntichainRep, window: int = 3) -> bool:
    """Try to grow J by any shifted fiber element (must fail)."""
    poset = rep.poset
    for key in poset.fibers:
        base = rep.by_fiber[key]
        for n in range(-window, window + 1):
            cand = poset.shift(base, n)
            if cand == base:
                continue
            extended = list(rep.elements) + [cand]
            ok = not any(
                poset.ctx.leq(poset.shift(y, 1), x)
                for x, y in itertools.product(extended, repeat=2))
            if ok:
                return True
    return False


def is_antichain_rep_elementwise(poset, elements):
    """(ok, witness) of upper_sets.is_antichain_rep, asking the order about
    every pair instead of reading the poset's gap table (no cross-check)."""
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
    for x in elements:
        for y in elements:
            if poset.ctx.leq(poset.shift(y, 1), x):
                return False, {"reason": "antichain",
                               "greater": list(x.coords),
                               "lesser": list(y.coords)}
    return True, None


def mutable_elements_elementwise(rep: AntichainRep) -> list[GroupElement]:
    """Members of J with no other member of J below them, by the order."""
    return [m for m in rep.elements
            if not any(j != m and rep.poset.ctx.leq(j, m)
                       for j in rep.elements)]


def upward_mutable_elements_elementwise(rep: AntichainRep
                                        ) -> list[GroupElement]:
    """Members of J with no other member of J above them, by the order."""
    return [m for m in rep.elements
            if not any(j != m and rep.poset.ctx.leq(m, j)
                       for j in rep.elements)]


def _slab_shift_elementwise(rep: AntichainRep) -> AntichainRep:
    poset = rep.poset
    lo = min(poset.ctx.theta_val(e) for e in rep.elements)
    return AntichainRep(poset, [poset.shift(e, -(lo // poset.theta_p))
                                for e in rep.elements])


def _stabilizer_elementwise(split, base: AntichainRep) -> list:
    """The torsion elements t of H with base + t = base as sets, the
    identity included, found by adding t to every member."""
    h_group = split.h_ctx.group
    base_set = {e.coords for e in base.elements}
    stab = []
    for tors in itertools.product(*(range(o) for o in h_group.torsion_orders)):
        cand = h_group.from_coords(tors + (0,) * h_group.free_rank)
        if {(e + cand).coords for e in base.elements} == base_set:
            stab.append(cand)
    return stab


def _translates_elementwise(rep: AntichainRep) -> list[AntichainRep]:
    """rep moved by every translation of its poset, built as elements: the
    fiber samples on the whole group, the lifts of the base class's
    stabilizer on a fibered poset."""
    poset = rep.poset
    if poset.whole_group:
        moves = [poset.fiber_sample(c) for c in poset.fibers]
    else:
        split, base = poset.over
        moves = [split.q.section(t)
                 for t in _stabilizer_elementwise(split, base)]
    return [_slab_shift_elementwise(AntichainRep(
        poset, [e + t for e in rep.elements])) for t in moves]


def canonical_form_elementwise(rep: AntichainRep,
                               mode: str = "zp") -> AntichainRep:
    """upper_sets.canonical_form by group arithmetic: every translate is
    built as elements and slab-shifted by its own thetas, instead of moving
    member levels through the poset's sum table."""
    if mode == "zp":
        return _slab_shift_elementwise(rep)
    if mode != "paper":
        raise ValueError(f"unknown canonical form mode {mode!r}")
    return min(_translates_elementwise(rep), key=AntichainRep.key)


def orbit_size_elementwise(rep: AntichainRep, mode: str) -> int:
    """How many classes up to shifts rep's mode-class holds: the distinct
    zp canonical forms among its translates, built as elements (1 in zp
    mode).  The reference for the orbit_len that
    upper_sets.enumerate_classes records."""
    if mode == "zp":
        return 1
    return len({moved.key() for moved in _translates_elementwise(rep)})


def connect_elementwise(rep1: AntichainRep, rep2: AntichainRep,
                        mode: str = "zp") -> list[tuple]:
    """upper_sets.connect as a mutation BFS over AntichainReps.

    Each state is a zp canonical form built as elements; its moves are its
    mutable_elements, then its upward_mutable_elements, each tested by
    mutate or mutate_up.  The walk stops at start, or after expanding the
    first state with a new child in the target's mode-class, whose last
    such child is the goal.
    """
    def form(rep, mode):
        return canonical_form_elementwise(rep, mode).key()

    target = form(rep2, mode)
    start = _slab_shift_elementwise(rep1)
    parents: dict = {start.key(): None}
    goal = start.key() if form(start, mode) == target else None
    frontier = [start]
    while frontier and goal is None:
        nxt = []
        for rep in frontier:
            moves = [(m, 1) for m in us.mutable_elements(rep)]
            moves += [(m, -1) for m in us.upward_mutable_elements(rep)]
            for m, direction in moves:
                c = _slab_shift_elementwise(
                    us.mutate(rep, m) if direction == 1
                    else us.mutate_up(rep, m))
                if c.key() not in parents:
                    parents[c.key()] = (rep.key(), rep.poset.fiber_key(m),
                                        direction)
                    nxt.append(c)
                    if form(c, mode) == target:
                        goal = c.key()
            if goal is not None:
                break
        frontier = nxt
    if goal is None:
        raise InternalInvariantBroken("mutation graph is not connected")
    moves = []
    while parents[goal] is not None:
        goal, fiber, direction = parents[goal]
        moves.append((fiber, direction))
    moves.reverse()
    return moves


def apply_moves(rep: AntichainRep, moves) -> AntichainRep:
    """Replay (fiber key, +1 | -1) moves by mutate and mutate_up."""
    for fiber, direction in moves:
        m = rep.by_fiber[fiber]
        rep = us.mutate(rep, m) if direction == 1 else us.mutate_up(rep, m)
    return rep


def stabilizer_merged_count_elementwise(split, base: AntichainRep,
                                        inner: list) -> int:
    """tilting._stabilizer_merged_count by group arithmetic: every
    stabilizer translate of every inner class is built as elements and
    slab-shifted by its own thetas."""
    stab = _stabilizer_elementwise(split, base)
    known = {rep.key() for rep in inner}
    orbits = set()
    for rep in inner:
        orbit = {rep.key()}
        for t in stab:
            lift = split.q.section(t)
            orbit.add(_slab_shift_elementwise(AntichainRep(
                rep.poset, [e + lift for e in rep.elements])).key())
        if not orbit <= known:
            raise InternalInvariantBroken(
                "stabilizer translate left the class list")
        orbits.add(frozenset(orbit))
    return len(orbits)


def local_check_elementwise(poset, by_fiber: dict) -> bool:
    """The Prop-GJX local test by group arithmetic: g + x_i lies in J or in
    J + shift, for every member g and every degree x_i."""
    for g in by_fiber.values():
        for x in poset.ctx.degrees:
            h = g + x
            r = by_fiber[poset.fiber_key(h)]
            if h != r and h != poset.shift(r, 1):
                return False
    return True


def arrow_table_elementwise(poset: us.GroupPoset) -> dict:
    """tilting.arrow_table by group arithmetic on every searched vector,
    the reference for its integer search on the fibered posets.

    table[a] lists (b, t, c) for each exponent vector c minimal with
    s_a + deg c over the poset: s_a + deg c = s_b + t*shift, and no
    nonzero proper sub-vector of c lands over a fiber.  The search goes
    one degree at a time and admits c only when every c - e_j is open
    (lands over no fiber), all of which lie on the layer just done; an
    admitted c that lands is an entry and is not extended.  Each c is met
    once, from c - e_i with i its last nonzero index.  It stops at
    theta(c) <= max over b of theta(s_b) - theta(s_a) - gaps[b][a]*theta_p,
    the most any class's member over b rises above its member over a
    (k_b - k_a <= -gaps[b][a]).  On the whole group every vector lands, so
    the table is the n single steps per fiber.  Each entry is proved
    irreducible, and the entries' cut grading must close to the gaps.
    """
    ctx, gaps, theta = poset.ctx, poset.gaps, poset.sample_theta
    n = ctx.n
    steps = [(x, ctx.theta_val(x)) for x in ctx.degrees]
    table = {}
    for a in poset.fibers:
        bound = max(theta[b] - theta[a] - gaps[b][a] * poset.theta_p
                    for b in poset.fibers)
        found = []
        layer = {(0,) * n: (poset.fiber_sample(a), 0)}
        while layer:
            nxt = {}
            for b, (mid, t) in layer.items():
                last = max((j for j in range(n) if b[j]), default=0)
                for i in range(last, n):
                    x, tx = steps[i]
                    c = b[:i] + (b[i] + 1,) + b[i + 1:]
                    if t + tx > bound or any(
                            c[j] and c[:j] + (c[j] - 1,) + c[j + 1:]
                            not in layer for j in range(n)):
                        continue
                    h = mid + x
                    over = poset.level(h)
                    if over is None:
                        nxt[c] = (h, t + tx)
                    elif _is_irreducible(poset, a, c):
                        found.append((*over, c))
                    else:
                        raise InternalInvariantBroken(
                            f"arrow table met a reducible monomial {c} "
                            f"out of fiber {a}")
            layer = nxt
        table[a] = tuple(found)
    us.check_closure(poset, ((a, b, t) for a, entries in table.items()
                             for b, t, _ in entries))
    return table


def endomorphism_quiver_search(ctx, elements) -> QuiverPresentation:
    """The endomorphism quiver of any set, by a down-closed search out of
    every member and, in rank one, relations by group arithmetic.

    The per-class reference for tilting.arrow_table: a vector is open when
    no nonzero sub-vector of it lands on a member (the zero vector counts
    as open); a vector is admitted only when every c - e_j is open, and an
    admitted vector landing on a member is an arrow and is not extended.
    Each vector is met once, from c - e_i with i its last nonzero index.
    theta(x_i) > 0 and no member lies above the largest member theta, so
    the search ends.
    """
    members = {e.coords: e for e in elements}
    top = max(ctx.theta_val(e) for e in members.values())
    n = ctx.n
    steps = [(x, ctx.theta_val(x)) for x in ctx.degrees]
    arrows = []
    for g in members.values():
        level = {(0,) * n: (g, ctx.theta_val(g))}
        while level:
            nxt = {}
            for b, (mid, t) in level.items():
                last = max((j for j in range(n) if b[j]), default=0)
                for i in range(last, n):
                    x, tx = steps[i]
                    c = b[:i] + (b[i] + 1,) + b[i + 1:]
                    if t + tx > top or any(
                            c[j] and c[:j] + (c[j] - 1,) + c[j + 1:]
                            not in level for j in range(n)):
                        continue
                    h = mid + x
                    if h.coords in members:
                        arrows.append(Arrow(g.coords, h.coords,
                                            monomial_label(c)))
                    else:
                        nxt[c] = (h, t + tx)
            level = nxt
    relations = []
    if ctx.group.free_rank == 1:
        for g in members.values():
            for i, j in itertools.combinations(range(n), 2):
                gi = g + ctx.degrees[i]
                gj = g + ctx.degrees[j]
                gij = gi + ctx.degrees[j]
                if (gi.coords in members and gj.coords in members
                        and gij.coords in members):
                    relations.append(Relation(
                        source=g.coords, target=gij.coords,
                        path_a=(f"x{i + 1}", f"x{j + 1}"),
                        path_b=(f"x{j + 1}", f"x{i + 1}")))
    return QuiverPresentation(vertices=tuple(members), arrows=tuple(arrows),
                              relations=tuple(relations))


def endomorphism_quiver_bruteforce(ctx, elements) -> QuiverPresentation:
    """Vertices and arrows of the endomorphism quiver, without relations.

    Every monomial of every difference h - g, kept when it is nonzero and
    no monomial of a difference m - g, for a third member m, divides it:
    the enumerate-then-filter reference for the arrow searches.
    """
    members = {e.coords: e for e in elements}
    verts = sorted(members)
    monos = {(g, h): ctx.monomials(members[h] - members[g])
             for g, h in itertools.product(verts, repeat=2)}
    arrows = []
    for g, h in itertools.product(verts, repeat=2):
        divisors = [b for m in verts if m not in (g, h) for b in monos[g, m]]
        arrows += [Arrow(g, h, monomial_label(a)) for a in monos[g, h]
                   if any(a) and not any(map(_divides, divisors,
                                             itertools.repeat(a)))]
    return QuiverPresentation(vertices=tuple(members), arrows=tuple(arrows))


def _divides(b, a) -> bool:
    return all(map(operator.le, b, a))


_NODE_RE = re.compile(r"^\s*(\w+)\s*\[label=")
_EDGE_RE = re.compile(r"^\s*(\w+)\s*->\s*(\w+)\s*\[label=\"([^\"]*)\"\];")


def parse_dot(text: str) -> tuple[list[str], list[tuple[str, str, str]]]:
    """Minimal re-parser for emitted DOT (round-trip checks only)."""
    nodes, edges = [], []
    for line in text.splitlines():
        m = _EDGE_RE.match(line)
        if m:
            edges.append((m.group(1), m.group(2), m.group(3)))
            continue
        m = _NODE_RE.match(line)
        if m:
            nodes.append(m.group(1))
    return nodes, edges


def xa_complex(p: sg.StackyPolytope, support) -> tuple[tuple[int, ...], ...]:
    """Maximal faces of the boundary complex supported on a sign pattern T,
    by sets: the reference for the maximal faces the oracle lists."""
    t = frozenset(support)
    if not t <= set(range(p.n)):
        raise InputError("support must be a subset of the vertex indices")
    gens = {tuple(sorted(set(f) & t)) for f in p.facets}
    gens.discard(())
    maximal = [g for g in gens
               if not any(set(g) < set(h) for h in gens if h != g)]
    return tuple(sorted(maximal))


def euler_characteristic_boundary(p: sg.StackyPolytope) -> int:
    """Euler characteristic of the boundary complex, from homology dims."""
    profile = sg.reduced_homology(xa_complex(p, range(p.n)), p.d, None)
    return 1 + sum(((-1) ** k) * v for k, v in profile.dims if k >= 0)


def fiber_constraints(oracle: sg.CohomologyOracle, g: GroupElement,
                      support: frozenset) -> list:
    """The rows a_i >= 0 on the support and a_i <= -1 off it, for the
    fiber a = base + kernel^T y of g, its preimage base solved afresh."""
    p = oracle.polytope
    base = solve_combination(list(oracle.ctx.degrees), g)
    constraints = []
    for i in range(p.n):
        coeffs = tuple(oracle.kernel[k][i] for k in range(p.d))
        if i in support:
            constraints.append((coeffs, base[i]))
        else:
            constraints.append((tuple(-c for c in coeffs), -base[i] - 1))
    return constraints


def count_lattice_points(constraints: list[tuple[tuple[int, ...], int]],
                         nvars: int) -> int:
    """Integer points satisfying coeff . x + const >= 0 for every row,
    through the oracle's elimination with each const a plain integer."""
    eliminated = sg._eliminate(
        [(coeffs, (const,)) for coeffs, const in constraints], nvars)
    return sg._count_eliminated(eliminated, (1,))


def ext_dim(oracle: sg.CohomologyOracle, g: GroupElement, h: GroupElement,
            r: int, field: Optional[int]) -> int:
    """dim Ext^r(O(g), O(h)) = dim H^r of the twist h - g."""
    return oracle.cohomology_dim(h - g, r, field)


def cohomology_dim_scan(oracle: sg.CohomologyOracle, g: GroupElement, r: int,
                        field: Optional[int], profiles: dict) -> int:
    """CohomologyOracle.cohomology_dim by a plain scan, without its memos.

    Every one of the 2^n sign supports is visited, and each support with
    homology in degree d - r - 1 solves the twist afresh.  `profiles`
    carries homology profiles from call to call, keyed on
    (support, field); the caller owns it, so the oracle's memo is not used.
    """
    p = oracle.polytope
    total = 0
    for bits in itertools.product((0, 1), repeat=p.n):
        support = frozenset(i for i, b in enumerate(bits) if b)
        if (support, field) not in profiles:
            profiles[support, field] = sg.reduced_homology(
                xa_complex(p, support), p.d, field)
        dim = profiles[support, field].dim(p.d - r - 1)
        if dim == 0:
            continue
        try:
            total += dim * count_lattice_points(
                fiber_constraints(oracle, g, support), p.d)
        except sg._Unbounded:
            raise UnboundedContribution(
                "infinite fiber meets a homologically nontrivial support",
                support=sorted(support), r=r) from None
    return total


def mat_mul(a, b) -> list[list[int]]:
    """Plain integer matrix product."""
    if a and b:
        assert len(a[0]) == len(b)
    ncols = len(b[0]) if b else 0
    return [
        [sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(ncols)]
        for ra in a
    ]


def lattice_contains(basis, vec) -> bool:
    """Whether vec lies in the lattice spanned by basis (vectors in Z^n)."""
    if not basis:
        return all(x == 0 for x in vec)
    n = len(basis[0])
    a = [[b[i] for b in basis] for i in range(n)]  # columns = basis vectors
    return la.solve_integer(a, len(basis), list(vec)) is not None


def is_trivial(profile: sg.HomologyProfile) -> bool:
    """Whether every reduced homology group of the profile vanishes."""
    return all(v == 0 for _, v in profile.dims)


def determinant(m) -> int:
    """Determinant of a square integer matrix, by fraction-free elimination."""
    mat = [list(row) for row in m]
    n, sign, prev = len(mat), 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if mat[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                mat[r][c] = (mat[k][k] * mat[r][c]
                             - mat[r][k] * mat[k][c]) // prev
        prev = mat[k][k]
    return sign * prev if n else 1


def element_order(group: FgAbelianGroup, e: GroupElement) -> Optional[int]:
    """Order of e, or None when infinite."""
    if any(c != 0 for c in e.free_part()):
        return None
    n = 1
    for c, o in zip(e.torsion_part(), group.torsion_orders):
        n = math.lcm(n, o // math.gcd(o, c))
    return n


def arrow_multiset(qp: QuiverPresentation) -> dict:
    """{(source, target): sorted arrow labels} of a quiver."""
    out: dict = {}
    for a in qp.arrows:
        out.setdefault((a.source, a.target), []).append(a.label)
    return {k: sorted(v) for k, v in out.items()}


def i_contains(rep: AntichainRep, g: GroupElement) -> bool:
    """Membership of g in the upper set I(J)."""
    return any(rep.poset.ctx.leq(j, g) for j in rep.elements)


def j_of_upper(poset, generators) -> AntichainRep:
    """J(I) for the upper set I generated by the given minimal elements."""
    if not generators:
        raise TrivialUpperSet("an upper set needs at least one generator")

    def member(e: GroupElement) -> bool:
        return any(poset.ctx.leq(g, e) for g in generators)

    chosen = []
    for key in poset.fibers:
        e = poset.fiber_sample(key)
        steps = 0
        if member(e):
            while member(poset.shift(e, -1)):
                e = poset.shift(e, -1)
                steps += 1
                if steps > _SEARCH_CAP:
                    raise InternalInvariantBroken("membership walk did not stop")
        else:
            while not member(e):
                e = poset.shift(e, 1)
                steps += 1
                if steps > _SEARCH_CAP:
                    raise InternalInvariantBroken(
                        "orbit cofinality violated in membership walk")
        chosen.append(e)
    return checked(poset, chosen)


@dataclass
class GradedGroupOf:
    """G(B, gamma) with its degrees; order context present iff gamma > 0."""

    group: FgAbelianGroup
    degrees: tuple[GroupElement, ...]
    order: Optional[GradedDegreeGroup]


def group_of(lq: LatticeQuotient, gamma) -> GradedGroupOf:
    """The group generated by (gamma_i, alpha_i + B) inside Z + L/B.

    The inverse of cuts.data_of_group, for round-trip checks.
    """
    gamma = tuple(gamma)
    ok, reason = is_admissible_type(lq, gamma)
    if not ok:
        raise NotAdmissible(reason, type=list(gamma))
    rows_mod = []
    for t, order in enumerate(lq.group.torsion_orders):
        rows_mod.append(
            ([lq.alpha_images[i].coords[t] for i in range(lq.d + 1)], order))
    kernel = la.kernel_with_moduli([list(gamma)], rows_mod, lq.d + 1)
    group = FgAbelianGroup(lq.d + 1, kernel)
    unit = lambda i: [1 if k == i else 0 for k in range(lq.d + 1)]
    degrees = tuple(group.canonicalize(unit(i)) for i in range(lq.d + 1))
    if group.free_rank != 1:
        raise InternalInvariantBroken("G(B, gamma) must have free rank one")
    order = None
    if all(g > 0 for g in gamma):
        order = GradedDegreeGroup.build(group, list(degrees))
        if order.theta_val(order.p) <= 0:
            raise InternalInvariantBroken("p must be theta-positive")
    return GradedGroupOf(group=group, degrees=degrees, order=order)


def elementary_cycles(lq: LatticeQuotient) -> list[frozenset]:
    """All length-(d+1) cycles using each type exactly once, as arrow sets."""
    cycles = set()
    for v in lq.vertices:
        for perm in itertools.permutations(range(lq.d + 1)):
            cur = v
            arrows = []
            for i in perm:
                arrows.append((cur, i))
                cur = lq.targets[cur][i]
            assert cur == v
            cycles.add(frozenset(arrows))
    return sorted(cycles, key=sorted)


def enumerate_cuts_exact_cover(lq: LatticeQuotient) -> list[frozenset]:
    """All cuts of Q, by exact-cover backtracking over elementary cycles.

    The arrow-subset reference for cuts.enumerate_cuts: m * (d+1)!
    permutations are walked, so keep d small.
    """
    arrows = lq.all_arrows()
    index = {a: k for k, a in enumerate(arrows)}
    cycles = [sorted(index[a] for a in cyc) for cyc in elementary_cycles(lq)]
    state = [0] * len(arrows)  # 0 unknown, 1 in, -1 out
    cuts: list[frozenset] = []

    def rec(ci: int) -> None:
        if ci == len(cycles):
            cuts.append(frozenset(arrows[k] for k, s in enumerate(state)
                                  if s == 1))
            return
        cyc = cycles[ci]
        chosen = [k for k in cyc if state[k] == 1]
        if len(chosen) > 1:
            return
        if len(chosen) == 1:
            unknowns = [k for k in cyc if state[k] == 0]
            for k in unknowns:
                state[k] = -1
            rec(ci + 1)
            for k in unknowns:
                state[k] = 0
            return
        for pick in [k for k in cyc if state[k] == 0]:
            touched = []
            for k in cyc:
                if state[k] == 0:
                    state[k] = 1 if k == pick else -1
                    touched.append(k)
            rec(ci + 1)
            for k in touched:
                state[k] = 0

    rec(0)
    return sorted(cuts, key=sorted)


def search_all_cuts(lq: LatticeQuotient) -> list[frozenset]:
    """All cuts of Q, sorted: each type's detectors from the library search.

    cuts.enumerate_cuts only counts them; tests that need the cuts take
    them here and compare them with enumerate_cuts_exact_cover.
    """
    out = []
    for c in itertools.combinations_with_replacement(range(lq.d + 1), lq.m):
        gamma = tuple(c.count(i) for i in range(lq.d + 1))
        out += map(cut_from_detector, enumerate_detectors(lq, gamma))
    return sorted(out, key=sorted)


def enumerate_detectors_product(lq: LatticeQuotient,
                                gamma) -> list[CutDetector]:
    """All cut detectors of type gamma, over all 2^(m-1) candidate tables.

    Values along a spanning tree determine f up to one binary choice per
    tree edge; every candidate is then checked on all arrows.  The
    reference for cuts.enumerate_detectors, in the same order.
    """
    gamma = tuple(gamma)
    zero = lq.group.zero().coords
    tree = lq.tree
    m = lq.m
    out = []
    for choices in itertools.product((0, 1), repeat=len(tree)):
        table = {zero: 0}
        for (parent, child, i, sign), drop in zip(tree, choices):
            inc = gamma[i] - (m if drop else 0)
            table[child] = table[parent] + sign * inc
        if all(table[lq.targets[v][i]] - table[v]
               in (gamma[i], gamma[i] - m) for v, i in lq.all_arrows()):
            out.append(CutDetector(lq, gamma, table))
    return out


def detector_from_cut(lq: LatticeQuotient, cut: Iterable) -> CutDetector:
    """Path-summation potential of a cut; rejects non-cuts.

    A subset is a cut exactly when its type sums to m and the per-arrow
    increments gamma_i (off the cut) / gamma_i - m (on it) are the
    coboundary of a potential; both are checked here.
    """
    cut = frozenset(cut)
    arrows = set(lq.all_arrows())
    for a in cut:
        if a not in arrows:
            raise NotACut("unknown arrow in cut", arrow=[list(a[0]), a[1]])
    gamma = cut_type(lq, cut)
    if sum(gamma) != lq.m:
        raise NotACut(f"cut has {sum(gamma)} arrows, expected m = {lq.m}",
                      type=list(gamma))
    m = lq.m

    def inc(v: tuple, i: int) -> int:
        return gamma[i] - m if (v, i) in cut else gamma[i]

    table = {lq.group.zero().coords: 0}
    for parent, child, i, sign in lq.tree:
        source = parent if sign > 0 else child
        table[child] = table[parent] + sign * inc(source, i)
    for (v, i) in lq.all_arrows():
        if table[lq.targets[v][i]] - table[v] != inc(v, i):
            raise NotACut("path sums are inconsistent; not a cut",
                          source=list(v), type=i)
    det = CutDetector(lq, gamma, table)
    cut_from_detector(det)
    return det
