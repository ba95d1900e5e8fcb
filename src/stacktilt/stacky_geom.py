"""Stacky polytopes, Gale duality, and the simplicial-homology cohomology oracle.

A simplicial lattice polytope with the origin interior yields, by Gale
duality, the degree data of a graded group; line-bundle cohomology is
the sum over sign patterns of reduced homology of unions of closed
faces, weighted by exact lattice-point counts of the degree fibers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from . import _intlinalg as la
from .abgroup import (FgAbelianGroup, GroupElement, relation_kernel,
                      solve_combination)
from .errors import (InputError, InternalInvariantBroken, NotAVertex,
                     NotSimplicial, OriginNotInterior, UnboundedContribution)
from .graded_order import GradedDegreeGroup


@dataclass
class StackyPolytope:
    d: int
    vertices: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[int, ...], ...]          # sorted index tuples, 0-based

    @property
    def n(self) -> int:
        return len(self.vertices)


def parse_polytope(vertices: Sequence[Sequence[int]]) -> StackyPolytope:
    verts = tuple(tuple(int(c) for c in v) for v in vertices)
    if not verts:
        raise InputError("no vertices given")
    d = len(verts[0])
    if d < 1 or any(len(v) != d for v in verts):
        raise InputError("vertices must be nonempty integer d-vectors")
    n = len(verts)
    if n < d + 1:
        raise InputError(f"need at least d+1 = {d + 1} vertices, got {n}")
    if len(set(verts)) != n:
        raise InputError("duplicate vertices")
    facets = []
    for subset in itertools.combinations(range(n), d):
        base = verts[subset[0]]
        rows = [[verts[i][k] - base[k] for k in range(d)] for i in subset[1:]]
        kernel = la.integer_kernel(rows, d)
        if len(kernel) != 1:
            continue  # affinely dependent subset
        u = kernel[0]
        c = sum(u[k] * base[k] for k in range(d))
        values = [sum(u[k] * v[k] for k in range(d)) for v in verts]
        if not all(val <= c for val in values):
            if not all(val >= c for val in values):
                continue  # not a supporting hyperplane
            c, values = -c, [-val for val in values]
        on = tuple(sorted(i for i, val in enumerate(values) if val == c))
        if on != tuple(sorted(subset)):
            raise NotSimplicial(
                "a supporting hyperplane contains more than d vertices",
                hyperplane_vertices=[list(verts[i]) for i in on])
        if c <= 0:
            raise OriginNotInterior(
                "origin is not strictly inside a facet halfspace",
                facet=[list(verts[i]) for i in on], offset=c)
        if on not in facets:
            facets.append(on)
    if not facets:
        raise OriginNotInterior("hull is degenerate (no facets found)")
    covered = {i for f in facets for i in f}
    for i in range(n):
        if i not in covered:
            raise NotAVertex(f"point {list(verts[i])} is not a vertex of the hull",
                             index=i, point=list(verts[i]))
    return StackyPolytope(d=d, vertices=verts, facets=tuple(sorted(facets)))


def gale_dual(p: StackyPolytope) -> GradedDegreeGroup:
    """Degrees x_i = [e_i] in the cokernel of the vertex pairing."""
    relations = [[p.vertices[i][k] for i in range(p.n)] for k in range(p.d)]
    group = FgAbelianGroup(p.n, relations)
    degrees = [group.canonicalize([1 if j == i else 0 for j in range(p.n)])
               for i in range(p.n)]
    return GradedDegreeGroup.build(group, degrees)


def group_to_polytope(ctx: GradedDegreeGroup) -> StackyPolytope:
    """Inverse Gale construction: vertices from the degree relation lattice."""
    kernel = relation_kernel(list(ctx.degrees))
    d = len(kernel)
    if d != ctx.n - ctx.group.free_rank:
        raise InternalInvariantBroken("relation lattice has unexpected rank")
    vertices = [[kernel[k][i] for k in range(d)] for i in range(ctx.n)]
    return parse_polytope(vertices)


def xa_complex(p: StackyPolytope, support) -> tuple[tuple[int, ...], ...]:
    """Maximal faces of the boundary complex supported on a sign pattern T."""
    t = frozenset(support)
    if not t <= set(range(p.n)):
        raise InputError("support must be a subset of the vertex indices")
    gens = {tuple(sorted(set(f) & t)) for f in p.facets}
    gens.discard(())
    maximal = [g for g in gens
               if not any(set(g) < set(h) for h in gens if h != g)]
    return tuple(sorted(maximal))


@dataclass(frozen=True)
class HomologyProfile:
    dims: tuple[tuple[int, int], ...]  # (degree k, dim H~_k), k = -1..top

    def dim(self, k: int) -> int:
        return dict(self.dims).get(k, 0)


def _rank(rows: list[list[int]], p: Optional[int] = None) -> int:
    """Rank over Q, or over F_p when p is given, by fraction-free elimination.

    Over Q this is Bareiss's method: after each pivot every lower row is
    a row of minors of the input, so the division by the previous pivot
    is exact and the entries stay bounded by Hadamard's bound.  Over F_p
    the entries are reduced mod p instead and no division is needed.
    """
    mat = [row if p is None else [x % p for x in row] for row in rows]
    rank, prev = 0, 1
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        a = top[col]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col]
            if p is None:
                mat[r] = [(a * x - f * y) // prev
                          for x, y in zip(mat[r], top)]
            else:
                mat[r] = [(a * x - f * y) % p for x, y in zip(mat[r], top)]
        if p is None:
            prev = a
        rank += 1
    return rank


def reduced_homology(maximal_faces: Sequence[tuple[int, ...]],
                     ambient_dim: int,
                     field: Optional[int] = None) -> HomologyProfile:
    """Reduced simplicial homology dims in degrees -1..ambient_dim-1.

    The empty complex has H~_{-1} = 1; the augmentation map makes that
    convention automatic.
    """
    faces: set = set()
    for g in maximal_faces:
        for r in range(1, len(g) + 1):
            faces.update(itertools.combinations(g, r))
    by_dim: dict = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for k in by_dim:
        by_dim[k] = sorted(by_dim[k])

    def boundary_rank(k: int) -> int:
        # rank of C_k -> C_{k-1}
        if k == 0:
            return 1 if by_dim.get(0) else 0
        if k not in by_dim:
            return 0
        lower = {f: idx for idx, f in enumerate(by_dim[k - 1])}
        rows = []
        for f in by_dim[k]:
            row = [0] * len(lower)
            for drop in range(len(f)):
                sub = f[:drop] + f[drop + 1:]
                row[lower[sub]] = (-1) ** drop
            rows.append(row)
        return _rank(rows, field)

    dims = []
    top = ambient_dim - 1
    ranks = {k: boundary_rank(k) for k in range(0, top + 2)}
    n_minus1 = 1
    dims.append((-1, n_minus1 - ranks[0]))
    for k in range(0, top + 1):
        ck = len(by_dim.get(k, []))
        dims.append((k, ck - ranks[k] - ranks.get(k + 1, 0)))
    return HomologyProfile(dims=tuple(dims))


class _Unbounded(Exception):
    pass


def _count_lattice_points(constraints: list[tuple[tuple[int, ...], int]],
                          nvars: int) -> int:
    """Integer points satisfying coeff . x + const >= 0 for every row.

    Fourier-Motzkin elimination from the last variable down gives exact
    bounds per level; an unbounded level reached by a feasible prefix
    raises _Unbounded.
    """
    systems = [None] * (nvars + 1)
    systems[nvars] = list(constraints)
    for k in range(nvars, 0, -1):
        lows = [c for c in systems[k] if c[0][k - 1] > 0]
        ups = [c for c in systems[k] if c[0][k - 1] < 0]
        rest = [c for c in systems[k] if c[0][k - 1] == 0]
        combined = []
        for (cl, el) in lows:
            for (cu, eu) in ups:
                a, b = cl[k - 1], -cu[k - 1]
                coeffs = tuple(b * cl[j] + a * cu[j] for j in range(nvars))
                combined.append((coeffs, b * el + a * eu))
        systems[k - 1] = rest + combined
    count = 0
    x = [0] * nvars

    def rec(k: int) -> None:
        nonlocal count
        if k == nvars:
            count += 1
            return
        lo, hi = None, None
        for coeffs, const in systems[k + 1]:
            a = coeffs[k]
            if a == 0:
                continue
            val = sum(coeffs[j] * x[j] for j in range(k)) + const
            if a > 0:
                bound = -(val // a)
                lo = bound if lo is None else max(lo, bound)
            else:
                bound = val // -a
                hi = bound if hi is None else min(hi, bound)
        if lo is None or hi is None:
            raise _Unbounded()
        for v in range(lo, hi + 1):
            x[k] = v
            rec(k + 1)

    # level-0 system contains only constants; infeasible prefixes never recurse
    if any(const < 0 for coeffs, const in systems[0]):
        return 0
    rec(0)
    return count


class CohomologyOracle:
    """Line-bundle cohomology dims over a stacky polytope, exactly.

    H^r of the twist g is the sum over sign supports T of the number of
    exponent vectors in the fiber of g with that sign pattern, times
    dim H~_{d-r-1} of the support complex.
    """

    def __init__(self, polytope: StackyPolytope, ctx: GradedDegreeGroup):
        self.polytope = polytope
        self.ctx = ctx
        if self.ctx.n != polytope.n:
            raise InputError("degree count does not match the vertex count")
        for k in range(polytope.d):
            acc = self.ctx.group.zero()
            for i, x in enumerate(self.ctx.degrees):
                acc = acc + polytope.vertices[i][k] * x
            if not acc.is_zero():
                raise InputError(
                    "polytope rows are not relations of the degree data")
        self.kernel = relation_kernel(list(self.ctx.degrees))
        if len(self.kernel) != polytope.d:
            raise InternalInvariantBroken("fiber lattice has wrong rank")
        self._profiles: dict = {}

    def profile(self, support: frozenset,
                field: Optional[int] = None) -> HomologyProfile:
        key = (support, field)
        if key not in self._profiles:
            self._profiles[key] = reduced_homology(
                xa_complex(self.polytope, support), self.polytope.d, field)
        return self._profiles[key]

    def _fiber_count(self, g: GroupElement, support: frozenset) -> int:
        base = solve_combination(list(self.ctx.degrees), g)
        if base is None:
            raise InternalInvariantBroken("degrees fail to generate the group")
        d = self.polytope.d
        constraints = []
        for i in range(self.polytope.n):
            coeffs = tuple(self.kernel[k][i] for k in range(d))
            if i in support:
                constraints.append((coeffs, base[i]))          # a_i >= 0
            else:
                constraints.append((tuple(-c for c in coeffs),
                                    -base[i] - 1))             # a_i <= -1
        return _count_lattice_points(constraints, d)

    def cohomology_dim(self, g: GroupElement, r: int,
                       field: Optional[int] = None) -> int:
        if not 0 <= r <= self.polytope.d:
            raise InputError(f"cohomological degree r={r} outside 0..d")
        k = self.polytope.d - r - 1
        total = 0
        for bits in itertools.product((0, 1), repeat=self.polytope.n):
            support = frozenset(i for i, b in enumerate(bits) if b)
            dim = self.profile(support, field).dim(k)
            if dim == 0:
                continue
            try:
                total += dim * self._fiber_count(g, support)
            except _Unbounded:
                raise UnboundedContribution(
                    "infinite fiber meets a homologically nontrivial support",
                    support=sorted(support), r=r) from None
        return total

    def ext_dim(self, g: GroupElement, h: GroupElement, r: int,
                field: Optional[int] = None) -> int:
        """dim Ext^r(O(g), O(h)) = dim H^r of the twist h - g."""
        return self.cohomology_dim(h - g, r, field)

    def all_r(self, g: GroupElement, field: Optional[int] = None) -> dict:
        return {r: self.cohomology_dim(g, r, field)
                for r in range(self.polytope.d + 1)}
