"""Stacky polytopes, Gale duality, and the simplicial-homology cohomology oracle.

A simplicial lattice polytope with the origin interior yields, by Gale
duality, the degree data of a graded group; line-bundle cohomology is
the sum over sign patterns of reduced homology of unions of closed
faces, weighted by exact lattice-point counts of the degree fibers.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple, Optional, Sequence

from . import _intlinalg as la
from .abgroup import (FgAbelianGroup, GroupElement, relation_kernel,
                      solve_combination)
from .errors import (InputError, InternalInvariantBroken, NotAVertex,
                     NotSimplicial, OriginNotInterior, UnboundedContribution)
from .graded_order import GradedDegreeGroup


class StackyPolytope(NamedTuple):
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


class HomologyProfile(NamedTuple):
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
                     field: Optional[int]) -> HomologyProfile:
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


class _TooManySteps(Exception):
    pass


_MAX_PREFIX_STEPS = 1 << 20   # loop values of one fiber count: a few seconds
# vertices of an oracle's polytope: its support scan and the homology of
# its full support grow exponentially in n.  All r of a twist took about
# 1 s at n = 10 and 6 s at n = 11 on a 2-vCPU x86-64 host.
_MAX_VERTICES = 10


def check_vertex_count(n: int) -> None:
    """Refuse an oracle over more than _MAX_VERTICES vertices."""
    if n > _MAX_VERTICES:
        raise InputError(
            "polytope too large: the cohomology oracle scans 2^n sign "
            "supports and takes at most `bound` vertices",
            n=n, bound=_MAX_VERTICES)


def _eliminate(constraints: list[tuple[tuple[int, ...], tuple[int, ...]]],
               nvars: int) -> tuple[list, list]:
    """Fourier-Motzkin elimination of coeff . x + const >= 0, last
    variable first.

    Each const is an affine form, a tuple of integers that a count pairs
    with a point (1, c_1, ..., c_m); elimination combines the forms as it
    combines the rows.  Returns (constants, bounds): the forms of the rows
    left with no variable, and per variable k the rows that bound x_k
    given x_0..x_{k-1}, as (lower, upper) lists of (coeffs[:k], |coeff_k|,
    form).
    """
    rows = list(constraints)
    bounds = [None] * nvars
    for k in range(nvars - 1, -1, -1):
        lows = [c for c in rows if c[0][k] > 0]
        ups = [c for c in rows if c[0][k] < 0]
        bounds[k] = ([(cl[:k], cl[k], el) for cl, el in lows],
                     [(cu[:k], -cu[k], eu) for cu, eu in ups])
        combined = []
        for (cl, el) in lows:
            for (cu, eu) in ups:
                a, b = cl[k], -cu[k]
                coeffs = tuple(b * cl[j] + a * cu[j] for j in range(nvars))
                combined.append(
                    (coeffs, tuple(b * x + a * y for x, y in zip(el, eu))))
        rows = [c for c in rows if c[0][k] == 0] + combined
    return [form for _, form in rows], bounds


def _count_eliminated(eliminated: tuple[list, list],
                      point: tuple[int, ...]) -> int:
    """Integer points of _eliminate's rows, their forms paired with point.

    Exact bounds per level; an unbounded level reached by a feasible prefix
    raises _Unbounded.  The last variable is counted in closed form; loops
    over the others past _MAX_PREFIX_STEPS values raise _TooManySteps.
    """
    constants, bounds = eliminated
    nvars = len(bounds)
    # infeasible prefixes never recurse
    if any(sum(map(operator.mul, form, point)) < 0 for form in constants):
        return 0
    levels = [[[(c, a, sum(map(operator.mul, form, point)))
                for c, a, form in rows] for rows in level] for level in bounds]
    count = steps = 0
    x = [0] * nvars

    def rec(k: int) -> None:
        nonlocal count, steps
        lows, ups = levels[k]
        if not lows or not ups:
            raise _Unbounded()
        lo = max(-((sum(map(operator.mul, c, x)) + e) // a)
                 for c, a, e in lows)
        hi = min((sum(map(operator.mul, c, x)) + e) // a for c, a, e in ups)
        if k == nvars - 1:
            count += max(0, hi - lo + 1)
            return
        steps += max(0, hi - lo + 1)
        if steps > _MAX_PREFIX_STEPS:
            raise _TooManySteps()
        for v in range(lo, hi + 1):
            x[k] = v
            rec(k + 1)

    rec(0)
    return count


def _non_cone_supports(p: StackyPolytope) -> dict:
    """{T: T's maximal faces, sorted index tuples} over the supports T
    whose complex is not a cone, in sign-pattern order.

    T's maximal faces are those of {F & T} over the facets F, as bitmasks;
    when their AND is nonzero every face lies in one with that common
    vertex, so the complex is a cone and all of its reduced homology is 0.
    The empty T, whose complex is empty, is not a cone.  Vertex i is bit
    n - 1 - i, so that T's mask counts up in sign-pattern order.
    """
    n = p.n
    facets = [sum(1 << (n - 1 - i) for i in f) for f in p.facets]
    indices = [tuple(i for i in range(n) if t >> (n - 1 - i) & 1)
               for t in range(1 << n)]
    out = {}
    for t in range(1 << n):
        gens = {f & t for f in facets}
        gens.discard(0)
        maximal = [g for g in gens
                   if not any(g != h and g & h == g for h in gens)]
        if not (t and functools.reduce(operator.and_, maximal, -1)):
            out[frozenset(indices[t])] = tuple(sorted(indices[g]
                                                      for g in maximal))
    return out


class CohomologyOracle:
    """Line-bundle cohomology dims over a stacky polytope, exactly.

    H^r of the twist g is the sum over sign supports T of the number of
    exponent vectors in the fiber of g with that sign pattern, times
    dim H~_{d-r-1} of the support complex.

    An oracle does each piece of work once.  It refuses polytopes of more
    than _MAX_VERTICES vertices, as its support scan is exponential in n.
    It lists once the supports whose complex is not a cone, with their
    maximal faces (a cone has no reduced homology), and tables those with
    nonzero homology per (homological degree, field).  It solves one
    integer preimage b_j per canonical coordinate, so the twist c has the
    preimage sum c_j b_j, and runs the Fourier-Motzkin elimination of a
    support once, its constants affine forms in c.  A fiber count, which depends on neither r nor the
    field, is made once per (twist, support).
    """

    def __init__(self, polytope: StackyPolytope, ctx: GradedDegreeGroup):
        check_vertex_count(polytope.n)
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
        m = self.ctx.group.n_coords
        self._preimages = []   # b_j: sum_i b_j[i] x_i == e_j
        for j in range(m):
            base = solve_combination(
                list(self.ctx.degrees),
                self.ctx.group.from_coords([int(i == j) for i in range(m)]))
            if base is None:
                raise InternalInvariantBroken(
                    "degrees fail to generate the group")
            self._preimages.append(base)
        self._non_cones = _non_cone_supports(polytope)
        self._profiles: dict = {}
        self._supports: dict = {}   # (k, field) -> [(support, dim H~_k)]
        self._systems: dict = {}    # support -> _eliminate's rows
        self._counts: dict = {}     # (twist coords, support) -> count or None

    def profile(self, support: frozenset,
                field: Optional[int]) -> HomologyProfile:
        key = (support, field)
        if key not in self._profiles:
            self._profiles[key] = reduced_homology(
                self._non_cones[support], self.polytope.d, field)
        return self._profiles[key]

    def _nonzero_supports(self, k: int, field: Optional[int]) -> list:
        """(support, dim H~_k) with dim nonzero, in sign-pattern order."""
        key = (k, field)
        if key not in self._supports:
            table = []
            for support in self._non_cones:
                dim = self.profile(support, field).dim(k)
                if dim:
                    table.append((support, dim))
            self._supports[key] = table
        return self._supports[key]

    def _eliminated(self, support: frozenset) -> tuple[list, list]:
        """The support's rows, a_i >= 0 on it and a_i <= -1 off it for
        a = sum_j c_j b_j + kernel^T y, eliminated once over y."""
        if support not in self._systems:
            d = self.polytope.d
            constraints = []
            for i in range(self.polytope.n):
                coeffs = tuple(self.kernel[k][i] for k in range(d))
                base = tuple(b[i] for b in self._preimages)
                if i in support:
                    constraints.append((coeffs, (0,) + base))
                else:
                    constraints.append((tuple(-c for c in coeffs),
                                        (-1,) + tuple(-v for v in base)))
            self._systems[support] = _eliminate(constraints, d)
        return self._systems[support]

    def _fiber_count(self, coords: tuple[int, ...], support: frozenset) -> int:
        return _count_eliminated(self._eliminated(support), (1,) + coords)

    def cohomology_dim(self, g: GroupElement, r: int,
                       field: Optional[int]) -> int:
        if not 0 <= r <= self.polytope.d:
            raise InputError(f"cohomological degree r={r} outside 0..d")
        total = 0
        for support, dim in self._nonzero_supports(self.polytope.d - r - 1,
                                                   field):
            key = (g.coords, support)
            if key not in self._counts:
                try:
                    self._counts[key] = self._fiber_count(g.coords, support)
                except _Unbounded:
                    self._counts[key] = None
                except _TooManySteps:
                    raise InputError(
                        "twist too large: its fiber count would try more "
                        "than `bound` values of the first d - 1 coordinates",
                        support=sorted(support), bound=_MAX_PREFIX_STEPS)
            count = self._counts[key]
            if count is None:
                raise UnboundedContribution(
                    "infinite fiber meets a homologically nontrivial support",
                    support=sorted(support), r=r)
            total += dim * count
        return total

    def all_r(self, g: GroupElement, field: Optional[int]) -> dict:
        return {r: self.cohomology_dim(g, r, field)
                for r in range(self.polytope.d + 1)}
