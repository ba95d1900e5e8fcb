"""Cuts of the quiver on L/B, cut detectors, and the bridge to graded groups.

L is the rank-d lattice of integer (d+1)-vectors summing to zero, with
the cyclic difference vectors alpha_0..alpha_d; a cofinite subgroup B
gives the finite quiver Q on L/B with one arrow of every type at every
vertex.  A cut meets each elementary cycle exactly once; cut detectors
are the equivalent integer potentials, and the preferred internal form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .abgroup import FgAbelianGroup, GroupElement, relation_kernel
from .errors import (InputError, InternalInvariantBroken, InvalidDetector,
                     NotACut, NotBounding, NotCofinite)
from .graded_order import GradedDegreeGroup
from .quiver import Arrow, QuiverPresentation, Relation
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


@dataclass
class LatticeQuotient:
    d: int
    m: int
    group: FgAbelianGroup                 # L/B on the alpha_1..alpha_d basis
    b_gens_alpha: tuple[tuple[int, ...], ...]
    alpha_images: tuple[GroupElement, ...]  # images of alpha_0..alpha_d
    vertices: tuple[tuple[int, ...], ...]

    def vertex_element(self, coords) -> GroupElement:
        return self.group.from_coords(coords)

    def arrow_target(self, source: tuple, i: int) -> tuple:
        return (self.vertex_element(source) + self.alpha_images[i]).coords

    def all_arrows(self) -> list[tuple[tuple, int]]:
        return [(v, i) for v in self.vertices for i in range(self.d + 1)]

    def elementary_cycles(self) -> list[frozenset]:
        """All length-(d+1) cycles using each type exactly once, as arrow sets."""
        cycles = set()
        for v in self.vertices:
            for perm in itertools.permutations(range(self.d + 1)):
                cur = v
                arrows = []
                for i in perm:
                    arrows.append((cur, i))
                    cur = self.arrow_target(cur, i)
                assert cur == v
                cycles.add(frozenset(arrows))
        return sorted(cycles, key=sorted)


@dataclass
class CutDetector:
    """f: L/B -> Z with f(0) = 0 and arrow increments gamma_i or gamma_i - m."""

    lq: LatticeQuotient
    gamma: tuple[int, ...]
    table: dict

    def validate(self) -> None:
        zero = self.lq.group.zero().coords
        if self.table.get(zero) != 0:
            raise InvalidDetector("detector must vanish at the zero vertex")
        if set(self.table) != set(self.lq.vertices):
            raise InvalidDetector("detector table does not cover L/B")
        m = self.lq.m
        for (v, i) in self.lq.all_arrows():
            inc = self.table[self.lq.arrow_target(v, i)] - self.table[v]
            if inc not in (self.gamma[i], self.gamma[i] - m):
                raise InvalidDetector(
                    "arrow increment outside {gamma_i, gamma_i - m}",
                    source=list(v), type=i, increment=inc)

    def items(self):
        return sorted(self.table.items())


def build_quotient(d: int, b_generators: Iterable[Sequence[int]]) -> LatticeQuotient:
    if d < 1:
        raise InputError("dimension d must be at least 1")
    gens_alpha = []
    for v in b_generators:
        if len(v) != d + 1:
            raise InputError("B generators must be (d+1)-vectors in L",
                             vector=list(v))
        gens_alpha.append(tuple(alpha_coords(v)))
    group = FgAbelianGroup(d, list(gens_alpha))
    size = group.size()
    if size is None:
        raise NotCofinite("the subgroup B has infinite index in L")
    unit = lambda j: [1 if k == j else 0 for k in range(d)]
    images = [group.canonicalize(unit(j)) for j in range(d)]
    alpha0 = group.zero()
    for img in images:
        alpha0 = alpha0 - img
    vertices = tuple(sorted(e.coords for e in group.enumerate_finite()))
    return LatticeQuotient(d=d, m=size, group=group,
                           b_gens_alpha=tuple(gens_alpha),
                           alpha_images=tuple([alpha0] + images),
                           vertices=vertices)


def is_admissible_type(lq: LatticeQuotient, gamma: Sequence[int]):
    """(ok, reason).  Sum condition plus the divisibility condition on B."""
    gamma = tuple(gamma)
    if len(gamma) != lq.d + 1 or any(g < 0 for g in gamma):
        return False, "type must be a nonnegative (d+1)-vector"
    if sum(gamma) != lq.m:
        return False, f"sum {sum(gamma)} != m = {lq.m}"
    for c in lq.b_gens_alpha:
        # B generator sum c_j alpha_j; gamma_0 has coefficient zero
        val = sum(cj * gamma[j] for j, cj in enumerate(c, start=1))
        if val % lq.m != 0:
            return False, (f"B generator {list(c)} pairs to {val}, "
                           f"not divisible by m = {lq.m}")
    return True, None


def cut_type(lq: LatticeQuotient, cut: frozenset) -> tuple[int, ...]:
    gamma = [0] * (lq.d + 1)
    for (_, i) in cut:
        gamma[i] += 1
    return tuple(gamma)


def _spanning_tree(lq: LatticeQuotient) -> list[tuple[tuple, tuple, int, int]]:
    """BFS spanning tree of the undirected Cayley graph from the zero vertex.

    Edges are (parent, child, type, sign): sign +1 when child is
    parent + alpha_type, -1 when child is parent - alpha_type.
    """
    zero = lq.group.zero().coords
    tree = []
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(lq.d + 1):
                w = lq.arrow_target(v, i)
                if w not in seen:
                    seen.add(w)
                    tree.append((v, w, i, +1))
                    nxt.append(w)
                u = (lq.vertex_element(v) - lq.alpha_images[i]).coords
                if u not in seen:
                    seen.add(u)
                    tree.append((v, u, i, -1))
                    nxt.append(u)
        frontier = nxt
    return tree


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
    for parent, child, i, sign in _spanning_tree(lq):
        source = parent if sign > 0 else child
        table[child] = table[parent] + sign * inc(source, i)
    for (v, i) in lq.all_arrows():
        if table[lq.arrow_target(v, i)] - table[v] != inc(v, i):
            raise NotACut("path sums are inconsistent; not a cut",
                          source=list(v), type=i)
    det = CutDetector(lq, gamma, table)
    det.validate()
    return det


def cut_from_detector(det: CutDetector) -> frozenset:
    det.validate()
    m = det.lq.m
    cut = frozenset(
        (v, i) for (v, i) in det.lq.all_arrows()
        if det.table[det.lq.arrow_target(v, i)] - det.table[v]
        == det.gamma[i] - m)
    if cut_type(det.lq, cut) != det.gamma:
        raise InternalInvariantBroken("detector produced a cut of wrong type")
    return cut


def is_bounding(lq: LatticeQuotient, cut: frozenset) -> bool:
    """Acyclicity of Q with the cut removed (checked directly)."""
    out_edges: dict = {v: [] for v in lq.vertices}
    for (v, i) in lq.all_arrows():
        if (v, i) not in cut:
            out_edges[v].append(lq.arrow_target(v, i))
    color = {v: 0 for v in lq.vertices}  # 0 new, 1 active, 2 done
    acyclic = True
    for root in lq.vertices:
        if color[root] or not acyclic:
            continue
        stack = [(root, iter(out_edges[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            w = next(it, None)
            if w is None:
                color[v] = 2
                stack.pop()
            elif color[w] == 0:
                color[w] = 1
                stack.append((w, iter(out_edges[w])))
            elif color[w] == 1:
                acyclic = False
                break
    strictly_positive = all(g > 0 for g in cut_type(lq, cut))
    if acyclic != strictly_positive:
        raise InternalInvariantBroken(
            "acyclicity disagrees with strict positivity of the type")
    return acyclic


def enumerate_cuts(lq: LatticeQuotient) -> list[frozenset]:
    """All cuts of Q, by exact-cover backtracking over elementary cycles."""
    arrows = lq.all_arrows()
    index = {a: k for k, a in enumerate(arrows)}
    cycles = [sorted(index[a] for a in cyc) for cyc in lq.elementary_cycles()]
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


def enumerate_detectors(lq: LatticeQuotient,
                        gamma: Sequence[int]) -> list[CutDetector]:
    """All cut detectors of the given type, exhaustively.

    Values along a spanning tree determine f up to one binary choice per
    tree edge; every candidate is then checked on all arrows.
    """
    gamma = tuple(gamma)
    zero = lq.group.zero().coords
    tree = _spanning_tree(lq)
    m = lq.m
    out = []
    for choices in itertools.product((0, 1), repeat=len(tree)):
        table = {zero: 0}
        for (parent, child, i, sign), drop in zip(tree, choices):
            inc = gamma[i] - (m if drop else 0)
            table[child] = table[parent] + sign * inc
        ok = True
        for (v, i) in lq.all_arrows():
            inc = table[lq.arrow_target(v, i)] - table[v]
            if inc not in (gamma[i], gamma[i] - m):
                ok = False
                break
        if ok:
            out.append(CutDetector(lq, gamma, table))
    # distinct choice vectors can disagree only on tree increments, so
    # the resulting tables are pairwise distinct already
    return out


def data_of_group(ctx: GradedDegreeGroup):
    """(LatticeQuotient, gamma) reconstructed from a rank-one graded group.

    B is the kernel of L -> G/Zp (alpha_i -> x_i + Zp); gamma_i is the
    rescaled free projection (m/m') theta(x_i).
    """
    if ctx.group.free_rank != 1:
        raise InputError("data_of_group needs a rank-one graded group")
    if ctx.n < 2:
        raise InputError("need at least two degrees (d >= 1)")
    d = ctx.n - 1
    reps, quot, proj = ctx.coset_reps(ctx.p)
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
    _, _, proj = ctx.coset_reps(ctx.p)
    qx = [proj(x) for x in ctx.degrees]
    out = {}
    for v in lq.vertices:
        c = lq.group.section_vector(lq.vertex_element(v))
        img = qx[0].group.zero()
        for j, cj in enumerate(c, start=1):
            img = img + cj * qx[j]
        out[v] = img.coords
    if len(set(out.values())) != lq.m:
        raise InternalInvariantBroken("L/B -> G/Zp is not bijective")
    return out


def cut_of_antichain(ctx: GradedDegreeGroup, rep: AntichainRep,
                     lq: LatticeQuotient, gamma: Sequence[int]):
    """(cut, detector) of the antichain class, via f_J(x) = pi(g) - n*m.

    (lq, gamma) is the cut data of ctx, as data_of_group returns it.
    """
    reps, quot, proj = ctx.coset_reps(ctx.p)
    m = quot.size()
    by_fiber = {proj(g).coords: g for g in rep.elements}
    if set(by_fiber) != {proj(r).coords for r in reps}:
        raise InputError("antichain does not represent G/Zp")
    j0 = by_fiber[quot.zero().coords]
    tp = ctx.theta_val(ctx.p)
    n0, r0 = divmod(ctx.theta_val(j0), tp)
    if r0 != 0 or n0 * ctx.p != j0:
        raise InternalInvariantBroken("zero-fiber representative is not n*p")
    scale = m // tp
    psi = fiber_map(lq, ctx)
    table = {v: scale * ctx.theta_val(by_fiber[psi[v]]) - n0 * m
             for v in lq.vertices}
    det = CutDetector(lq, tuple(gamma), table)
    det.validate()
    return cut_from_detector(det), det


def algebra_presentation(lq: LatticeQuotient, cut: frozenset) -> QuiverPresentation:
    """Quiver with commutativity relations of the algebra attached to a cut."""
    if not is_bounding(lq, cut):
        raise NotBounding("algebra presentations need a bounding cut",
                          type=list(cut_type(lq, cut)))
    label = lambda i: f"x{i + 1}"
    arrows = []
    present = set()
    for (v, i) in lq.all_arrows():
        if (v, i) not in cut:
            arrows.append(Arrow(v, lq.arrow_target(v, i), label(i)))
            present.add((v, i))
    relations = []
    for v in lq.vertices:
        for i in range(lq.d + 1):
            for j in range(i + 1, lq.d + 1):
                vi = lq.arrow_target(v, i)
                vj = lq.arrow_target(v, j)
                if ((v, i) in present and (vi, j) in present
                        and (v, j) in present and (vj, i) in present):
                    relations.append(Relation(
                        source=v, target=lq.arrow_target(vi, j),
                        path_a=(label(i), label(j)),
                        path_b=(label(j), label(i))))
    return QuiverPresentation(vertices=lq.vertices, arrows=tuple(arrows),
                              relations=tuple(relations))
