"""Cuts of the quiver on L/B, cut detectors, and the bridge to graded groups.

L is the rank-d lattice of integer (d+1)-vectors summing to zero, with
the cyclic difference vectors alpha_0..alpha_d; a cofinite subgroup B
gives the finite quiver Q on L/B with one arrow of every type at every
vertex.  A cut meets each elementary cycle exactly once; cut detectors
are the equivalent integer potentials, and the preferred internal form:
both enumerations run one depth-first search over potentials.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from typing import Iterable, Sequence

from .abgroup import FgAbelianGroup, GroupElement, relation_kernel
from .errors import (InputError, InternalInvariantBroken, InvalidDetector,
                     NotBounding, NotCofinite)
from .graded_order import GradedDegreeGroup
from .quiver import Arrow, QuiverPresentation, commuting_squares
from .upper_sets import AntichainRep

# An arrow of Q is (source canonical coords, type i); its target is
# source + alpha_i.  Cuts are frozensets of arrows.


def alpha_coords(v: Sequence[int]) -> list[int]:
    """Coefficients c with v = sum c_j alpha_j (j = 1..d); requires sum(v)=0."""
    if sum(v) != 0:
        raise InputError("vector does not lie in L (coordinates must sum to 0)",
                         vector=list(v))
    d = len(v) - 1
    return [sum(v[i] for i in range(j, d + 1)) for j in range(1, d + 1)]


def l_vector(c: Sequence[int]) -> list[int]:
    """The L-vector sum c_j alpha_j for alpha-coordinates c."""
    d = len(c)
    v = [0] * (d + 1)
    for j, cj in enumerate(c, start=1):
        v[j] += cj
        v[j - 1] -= cj
    return v


class LatticeQuotient:
    def __init__(self, d: int, m: int, group: FgAbelianGroup,
                 b_gens_alpha: tuple[tuple[int, ...], ...],
                 alpha_images: tuple[GroupElement, ...]):
        self.d = d
        self.m = m
        self.group = group                  # L/B on the alpha_1..alpha_d basis
        self.b_gens_alpha = b_gens_alpha
        self.alpha_images = alpha_images    # images of alpha_0..alpha_d

    @cached_property
    def targets(self) -> dict[tuple, tuple[tuple, ...]]:
        """The quiver Q: targets[v][i] is v + alpha_i, built on first use."""
        return {e.coords: tuple((e + a).coords for a in self.alpha_images)
                for e in self.group.enumerate_finite()}

    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.targets))

    @cached_property
    def tree(self) -> list[tuple[tuple, tuple, int, int]]:
        """BFS spanning tree of the undirected Cayley graph from the zero
        vertex, built on first use.

        Edges are (parent, child, type, sign): sign +1 when child is
        parent + alpha_type, -1 when child is parent - alpha_type.
        """
        source = {(w, i): v for v, ws in self.targets.items()
                  for i, w in enumerate(ws)}
        zero = self.group.zero().coords
        tree = []
        seen = {zero}
        frontier = [zero]
        while frontier:
            nxt = []
            for v in frontier:
                for i, w in enumerate(self.targets[v]):
                    if w not in seen:
                        seen.add(w)
                        tree.append((v, w, i, +1))
                        nxt.append(w)
                    u = source[v, i]
                    if u not in seen:
                        seen.add(u)
                        tree.append((v, u, i, -1))
                        nxt.append(u)
            frontier = nxt
        return tree

    def all_arrows(self) -> list[tuple[tuple, int]]:
        return [(v, i) for v in self.vertices for i in range(self.d + 1)]


class CutDetector:
    """f: L/B -> Z with f(0) = 0 and arrow increments gamma_i or gamma_i - m."""

    def __init__(self, lq: LatticeQuotient, gamma: tuple[int, ...],
                 table: dict):
        self.lq = lq
        self.gamma = gamma
        self.table = table


def build_quotient(d: int, b_generators: Iterable[Sequence[int]]) -> LatticeQuotient:
    if d < 1:
        raise InputError("dimension d must be at least 1")
    gens_alpha = []
    for v in b_generators:
        if len(v) != d + 1:
            raise InputError("B generators must be (d+1)-vectors in L",
                             vector=list(v))
        gens_alpha.append(tuple(alpha_coords(v)))
    # fewer than d generators span a subgroup of lower rank; refused before
    # the Smith form, whose cost grows with d
    size = None
    if len(gens_alpha) >= d:
        group = FgAbelianGroup(d, list(gens_alpha))
        size = group.size()
    if size is None:
        raise NotCofinite("the subgroup B has infinite index in L")
    unit = lambda j: [1 if k == j else 0 for k in range(d)]
    images = [group.canonicalize(unit(j)) for j in range(d)]
    alpha0 = group.zero()
    for img in images:
        alpha0 = alpha0 - img
    return LatticeQuotient(d=d, m=size, group=group,
                           b_gens_alpha=tuple(gens_alpha),
                           alpha_images=tuple([alpha0] + images))


def is_admissible_type(lq: LatticeQuotient, gamma: Sequence[int]):
    """(ok, reason).  Sum condition plus the divisibility condition on B."""
    gamma = tuple(gamma)
    if len(gamma) != lq.d + 1 or any(g < 0 for g in gamma):
        return False, "type must be a nonnegative (d+1)-vector"
    try:
        if sum(gamma) != lq.m:
            return False, f"sum {sum(gamma)} != m = {lq.m}"
        for c in lq.b_gens_alpha:
            # B generator sum c_j alpha_j; gamma_0 has coefficient zero
            val = sum(cj * gamma[j] for j, cj in enumerate(c, start=1))
            if val % lq.m != 0:
                return False, (f"B generator {list(c)} pairs to {val}, "
                               f"not divisible by m = {lq.m}")
    except ValueError as exc:   # Python prints no int over 4300 digits
        raise InputError(f"the reason cannot be printed: {exc}") from None
    return True, None


def cut_type(lq: LatticeQuotient, cut: frozenset) -> tuple[int, ...]:
    gamma = [0] * (lq.d + 1)
    for (_, i) in cut:
        gamma[i] += 1
    return tuple(gamma)


def cut_from_detector(det: CutDetector) -> frozenset:
    """The arrows where det drops by gamma_i - m, once det is checked:
    f(0) = 0, a value at every vertex, and each arrow's increment in
    {gamma_i, gamma_i - m}, arrows in all_arrows order."""
    lq, table, gamma = det.lq, det.table, det.gamma
    if table.get(lq.group.zero().coords) != 0:
        raise InvalidDetector("detector must vanish at the zero vertex")
    if set(table) != set(lq.vertices):
        raise InvalidDetector("detector table does not cover L/B")
    cut = []
    for (v, i) in lq.all_arrows():
        inc = table[lq.targets[v][i]] - table[v]
        if inc == gamma[i] - lq.m:
            cut.append((v, i))
        elif inc != gamma[i]:
            raise InvalidDetector(
                "arrow increment outside {gamma_i, gamma_i - m}",
                source=list(v), type=i, increment=inc)
    cut = frozenset(cut)
    if cut_type(lq, cut) != gamma:
        raise InternalInvariantBroken("detector produced a cut of wrong type")
    return cut


def is_bounding(lq: LatticeQuotient, cut: frozenset) -> bool:
    """Acyclicity of Q with the cut removed, checked directly: peel the
    vertices with no arrow in until none is left (acyclic) or every one
    left has one (a cycle)."""
    out = {v: [w for i, w in enumerate(ws) if (v, i) not in cut]
           for v, ws in lq.targets.items()}
    indegree = Counter(w for ws in out.values() for w in ws)
    peeled = [v for v in out if indegree[v] == 0]
    for v in peeled:    # grows while it is read
        for w in out[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                peeled.append(w)
    acyclic = len(peeled) == len(out)
    strictly_positive = all(g > 0 for g in cut_type(lq, cut))
    if acyclic != strictly_positive:
        raise InternalInvariantBroken(
            "acyclicity disagrees with strict positivity of the type")
    return acyclic


def _detector_search(lq: LatticeQuotient, gamma: tuple, emit) -> int:
    """Call emit(values, cut) on every cut detector of type gamma, in order,
    and return how many there were.

    Depth-first over the drop bit of each edge of `lq.tree` in tree order,
    0 (increment gamma_i) before 1 (gamma_i - m), which is the order of
    all 2^(m-1) bit vectors.  Each arrow is checked once both of its ends
    have values, and a branch ends once a type i has more than gamma_i
    drops: a detector drops exactly gamma_i arrows of type i, as its
    increments along that type sum to zero.  values[k] is f at the k-th
    vertex reached (the zero vertex, then the tree children in order);
    emit sees the live lists.
    """
    m, tree = lq.m, lq.tree
    step = {lq.group.zero().coords: 0}
    for k, (_, child, _, _) in enumerate(tree, start=1):
        step[child] = k
    checks: list[list] = [[] for _ in range(len(tree) + 1)]
    for v, ws in lq.targets.items():
        for i, w in enumerate(ws):
            a, b = step[v], step[w]
            checks[max(a, b)].append((a, b, gamma[i], gamma[i] - m, i, (v, i)))
    edges = [(step[parent], sign * gamma[i], sign * (gamma[i] - m))
             for parent, _, i, sign in tree]
    values = [0] * (len(tree) + 1)
    drops = [0] * (lq.d + 1)
    cut: list = []
    found = 0

    def rec(k: int) -> None:
        nonlocal found
        mark = len(cut)
        for a, b, keep, drop, i, arrow in checks[k]:
            inc = values[b] - values[a]
            if inc == keep:
                continue
            if inc != drop or drops[i] >= gamma[i]:
                break
            drops[i] += 1
            cut.append(arrow)
        else:
            if k == len(tree):
                found += 1
                emit(values, cut)
            else:
                parent, keep, drop = edges[k]
                for inc in (keep, drop):
                    values[k + 1] = values[parent] + inc
                    rec(k + 1)
        while len(cut) > mark:
            drops[cut.pop()[1]] -= 1

    rec(0)
    return found


def enumerate_cuts(lq: LatticeQuotient) -> dict[tuple, int]:
    """{type: number of cuts of Q of that type}, for the types with cuts.

    The detector search runs once for every type.  A type is the multiset
    of the types of its m arrows, so there are C(m + d, d) of them.
    """
    counts: dict[tuple, int] = {}
    for c in itertools.combinations_with_replacement(range(lq.d + 1), lq.m):
        gamma = tuple(c.count(i) for i in range(lq.d + 1))
        found = count_detectors(lq, gamma)
        if found:
            counts[gamma] = found
    return counts


def count_detectors(lq: LatticeQuotient, gamma: Sequence[int]) -> int:
    """The number of cut detectors of the given type, none of them built."""
    return _detector_search(lq, tuple(gamma), lambda values, cut: None)


def enumerate_detectors(lq: LatticeQuotient,
                        gamma: Sequence[int]) -> list[CutDetector]:
    """All cut detectors of the given type, exhaustively."""
    gamma = tuple(gamma)
    order = [lq.group.zero().coords] + [child for _, child, _, _ in lq.tree]
    out: list[CutDetector] = []
    _detector_search(lq, gamma, lambda values, cut: out.append(
        CutDetector(lq, gamma, dict(zip(order, values)))))
    return out


def data_of_group(ctx: GradedDegreeGroup):
    """(LatticeQuotient, gamma) reconstructed from a rank-one graded group.

    B is the kernel of L -> G/Zp (alpha_i -> x_i + Zp); gamma_i is the
    rescaled free projection (m/m') theta(x_i).
    """
    if ctx.group.free_rank != 1:
        raise InputError("data_of_group needs a rank-one graded group")
    d = ctx.n - 1
    quot, proj = ctx.group.quotient_by([ctx.p])
    m = quot.size()
    qx = [proj(x) for x in ctx.degrees]
    basis = relation_kernel(qx[1:])
    lq = build_quotient(d, [l_vector(c) for c in basis])
    if lq.m != m:
        raise InternalInvariantBroken("L/B is not isomorphic to G/Zp")
    m_prime = ctx.theta_val(ctx.p)
    if m % m_prime != 0:
        raise InternalInvariantBroken("m is not a multiple of m' = theta(p)")
    scale = m // m_prime
    gamma = tuple(scale * ctx.theta_val(x) for x in ctx.degrees)
    ok, reason = is_admissible_type(lq, gamma)
    if not ok:
        raise InternalInvariantBroken(f"derived type not admissible: {reason}")
    return lq, gamma


def fiber_map(lq: LatticeQuotient, ctx: GradedDegreeGroup) -> dict:
    """Vertex coords of L/B -> coords of G/Zp, along alpha_i -> x_i + Zp."""
    _, proj = ctx.group.quotient_by([ctx.p])
    qx = [proj(x) for x in ctx.degrees]
    image = {lq.group.zero().coords: qx[0].group.zero()}
    for parent, child, i, sign in lq.tree:
        image[child] = image[parent] + sign * qx[i]
    out = {v: e.coords for v, e in image.items()}
    if len(set(out.values())) != lq.m:
        raise InternalInvariantBroken("L/B -> G/Zp is not bijective")
    return out


def cut_of_antichain(ctx: GradedDegreeGroup, rep: AntichainRep,
                     lq: LatticeQuotient, gamma: Sequence[int], psi: dict):
    """(cut, detector) of the antichain class, via f_J(x) = pi(g) - n*m.

    (lq, gamma) is the cut data of ctx, as data_of_group returns it, and
    psi is fiber_map(lq, ctx).  rep must hold one member per coset of G/Zp:
    its poset must order ctx with shift p, and its fibers must be psi's
    image.  Both are checked, since a shift of the same index as p can
    give fibers whose coordinates are psi's.
    """
    poset = rep.poset
    if (poset.ctx is not ctx or poset.shift_element != ctx.p
            or set(rep.by_fiber) != set(psi.values())):
        raise InputError("antichain does not represent G/Zp")
    j0 = rep.by_fiber[psi[lq.group.zero().coords]]
    tp = ctx.theta_val(ctx.p)
    n0, r0 = divmod(ctx.theta_val(j0), tp)
    if r0 != 0 or n0 * ctx.p != j0:
        raise InternalInvariantBroken("zero-fiber representative is not n*p")
    scale = lq.m // tp
    table = {v: scale * ctx.theta_val(rep.by_fiber[psi[v]]) - n0 * lq.m
             for v in lq.vertices}
    det = CutDetector(lq, tuple(gamma), table)
    return cut_from_detector(det), det


def algebra_presentation(lq: LatticeQuotient, cut: frozenset,
                         at: dict) -> QuiverPresentation:
    """Quiver with commutativity relations of the algebra attached to a cut,
    each vertex v of L/B named at[v] (at is one-to-one)."""
    if not is_bounding(lq, cut):
        raise NotBounding("algebra presentations need a bounding cut",
                          type=list(cut_type(lq, cut)))
    steps = {(at[v], i): at[w] for v, ws in lq.targets.items()
             for i, w in enumerate(ws) if (v, i) not in cut}
    return QuiverPresentation(
        vertices=tuple(at[v] for v in lq.vertices),
        arrows=tuple(Arrow(v, w, f"x{i + 1}")
                     for (v, i), w in steps.items()),
        relations=tuple(commuting_squares(steps, lq.d + 1)))
