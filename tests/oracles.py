"""Brute-force reference implementations and helpers used only by the tests."""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Optional

from stacktilt import _intlinalg as la
from stacktilt import stacky_geom as sg
from stacktilt.abgroup import FgAbelianGroup, GroupElement
from stacktilt.cuts import LatticeQuotient, is_admissible_type
from stacktilt.errors import (InternalInvariantBroken, NotAdmissible,
                              TrivialUpperSet)
from stacktilt.graded_order import GradedDegreeGroup
from stacktilt.quiver import Arrow, QuiverPresentation, monomial_label
from stacktilt.tilting import _is_irreducible
from stacktilt.upper_sets import (AntichainRep, canonical_form, checked,
                                  is_antichain_rep)

_SEARCH_CAP = 10_000


def enumerate_classes_window(poset, mode: str = "full",
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
                c = canonical_form(AntichainRep(poset, chosen), mode)
                found.setdefault(c.key(), c)
            return
        for n in range(-window, window + 1):
            e = poset.shift(base[i], n)
            bad = any(
                poset.leq(poset.shift(x, 1), e) or poset.leq(poset.shift(e, 1), x)
                for x in chosen)
            if not bad:
                chosen.append(e)
                rec(i + 1, chosen)
                chosen.pop()

    rec(0, [])
    return [found[k] for k in sorted(found)]


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
                poset.leq(poset.shift(y, 1), x)
                for x, y in itertools.product(extended, repeat=2))
            if ok:
                return True
    return False


def endomorphism_quiver_bruteforce(ctx, elements) -> QuiverPresentation:
    """Vertices and arrows of the endomorphism quiver, without relations.

    Every monomial of every difference h - g, kept when it is nonzero and
    irreducible: the enumerate-then-filter reference for the arrow search.
    """
    members = {e.coords: e for e in elements}
    elems = [members[v] for v in sorted(members)]
    arrows = [Arrow(g.coords, h.coords, monomial_label(a))
              for g, h in itertools.product(elems, repeat=2)
              for a in ctx.monomials(h - g)
              if any(a) and _is_irreducible(ctx, members, g, a)]
    return QuiverPresentation(vertices=tuple(members), arrows=tuple(arrows))


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


def euler_characteristic_boundary(p: sg.StackyPolytope) -> int:
    """Euler characteristic of the boundary complex, from homology dims."""
    profile = sg.reduced_homology(sg.xa_complex(p, range(p.n)), p.d)
    return 1 + sum(((-1) ** k) * v for k, v in profile.dims if k >= 0)


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
    return any(rep.poset.leq(j, g) for j in rep.elements)


def j_of_upper(poset, generators) -> AntichainRep:
    """J(I) for the upper set I generated by the given minimal elements."""
    if not generators:
        raise TrivialUpperSet("an upper set needs at least one generator")

    def member(e: GroupElement) -> bool:
        return any(poset.leq(g, e) for g in generators)

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
