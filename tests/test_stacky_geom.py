import random

import pytest

from oracles import euler_characteristic_boundary, is_trivial
from stacktilt import stacky_geom as sg
from stacktilt.errors import (InputError, NotAVertex, NotSimplicial,
                              OriginNotInterior)


P2_VERTICES = [[1, 0], [0, 1], [-1, -1]]
P1P1_VERTICES = [[1, 0], [-1, 0], [0, 1], [0, -1]]


def test_parse_polytope_examples():
    p2 = sg.parse_polytope(P2_VERTICES)
    assert len(p2.facets) == 3
    p1p1 = sg.parse_polytope(P1P1_VERTICES)
    assert len(p1p1.facets) == 4
    seg = sg.parse_polytope([[2], [-3]])
    assert len(seg.facets) == 2


def test_parse_polytope_errors():
    with pytest.raises(OriginNotInterior):
        sg.parse_polytope([[1], [3]])
    with pytest.raises(OriginNotInterior):
        sg.parse_polytope([[0, 1], [1, 0], [1, 1]])
    with pytest.raises(NotAVertex):
        sg.parse_polytope([[1, 0], [0, 1], [-1, -1], [0, 0]])
    with pytest.raises(NotSimplicial):
        sg.parse_polytope([[1, 0], [0, 1], [-1, -1], [-1, 0], [-1, 1],
                           [0, -1]][:5] + [[0, -1]])
    with pytest.raises(InputError):
        sg.parse_polytope([[1], [1], [-1]])
    with pytest.raises(InputError):
        sg.parse_polytope([[1]])


def test_gale_dual_examples(ctx_p1p1):
    ctx = sg.gale_dual(sg.parse_polytope(P2_VERTICES))
    assert ctx.group.free_rank == 1 and ctx.group.torsion_orders == ()
    assert sorted(abs(ctx.theta_val(x)) for x in ctx.degrees) == [1, 1, 1]

    ctx = sg.gale_dual(sg.parse_polytope(P1P1_VERTICES))
    assert ctx.group.free_rank == 2
    sp = ctx.sign_split()
    assert sp.h_ctx.group.torsion_orders == (2,)
    assert sp.h_ctx.theta_val(sp.s) == 2

    ctx = sg.gale_dual(sg.parse_polytope([[2], [-3]]))
    assert sorted(ctx.theta_val(x) for x in ctx.degrees) == [2, 3]


def test_group_to_polytope_round_trip(ctx_p23, ctx_p1p1, ctx_sigma1,
                                      ctx_stacky, ctx_zz2_d1, ctx_zz2_d2):
    for ctx in (ctx_p23, ctx_p1p1, ctx_sigma1, ctx_stacky, ctx_zz2_d1,
                ctx_zz2_d2):
        p = sg.group_to_polytope(ctx)
        assert p.n == ctx.n
        back = sg.gale_dual(p)
        assert (back.group.free_rank, back.group.torsion_orders) == \
            (ctx.group.free_rank, ctx.group.torsion_orders)


def test_xa_homology_profiles():
    p2 = sg.parse_polytope(P2_VERTICES)
    # full support: boundary of the simplex is a circle
    prof = sg.reduced_homology(sg.xa_complex(p2, range(3)), p2.d)
    assert prof.dim(1) == 1 and prof.dim(0) == 0 and prof.dim(-1) == 0
    # empty support
    prof = sg.reduced_homology(sg.xa_complex(p2, ()), p2.d)
    assert prof.dim(-1) == 1 and prof.dim(0) == 0
    # an edge is contractible
    prof = sg.reduced_homology(sg.xa_complex(p2, (0, 1)), p2.d)
    assert is_trivial(prof)
    # two antipodal vertices of the square: S^0
    p1p1 = sg.parse_polytope(P1P1_VERTICES)
    prof = sg.reduced_homology(sg.xa_complex(p1p1, (0, 1)), p1p1.d)
    assert prof.dim(0) == 1

    for p in (p2, p1p1):
        d = p.d
        full = sg.reduced_homology(sg.xa_complex(p, range(p.n)), d)
        assert full.dim(d - 1) == 1
        assert all(full.dim(k) == 0 for k in range(-1, d - 1))


def test_euler_characteristic():
    for verts in (P2_VERTICES, P1P1_VERTICES, [[2], [-3]]):
        p = sg.parse_polytope(verts)
        assert euler_characteristic_boundary(p) == 1 + (-1) ** (p.d - 1)


def test_cohomology_p1():
    p = sg.parse_polytope([[1], [-1]])
    oracle = sg.CohomologyOracle(p, sg.gale_dual(p))
    ctx = oracle.ctx
    two = ctx.group.canonicalize([0, 0]) + 2 * ctx.degrees[0]
    assert oracle.cohomology_dim(two, 0) == 3
    assert oracle.cohomology_dim(two, 1) == 0
    minus2 = -2 * ctx.degrees[0]
    assert oracle.cohomology_dim(minus2, 0) == 0
    assert oracle.cohomology_dim(minus2, 1) == 1
    assert oracle.all_r(minus2) == {0: 0, 1: 1}


def test_cohomology_p1p1_kunneth():
    p = sg.parse_polytope(P1P1_VERTICES)
    oracle = sg.CohomologyOracle(p, sg.gale_dual(p))
    ctx = oracle.ctx
    # O(-2, 0) in the bidegree of the first factor
    g = -2 * ctx.degrees[0]
    assert oracle.cohomology_dim(g, 1) == 1
    assert oracle.cohomology_dim(g, 0) == 0
    assert oracle.cohomology_dim(g, 2) == 0
    # O(-2,-2) has only H^2, of dimension 1
    g = -2 * ctx.degrees[0] - 2 * ctx.degrees[2]
    assert oracle.all_r(g) == {0: 0, 1: 0, 2: 1}


def test_ext_dim_examples(ctx_p23):
    oracle = sg.CohomologyOracle(sg.group_to_polytope(ctx_p23), ctx_p23)
    z = ctx_p23.group
    zero = z.zero()
    assert oracle.ext_dim(zero, zero, 0) == 1
    assert oracle.ext_dim(zero, z.canonicalize([6]), 0) == 2
    seg = sg.parse_polytope([[1], [-1]])
    p1 = sg.CohomologyOracle(seg, sg.gale_dual(seg))
    o1 = p1.ctx.degrees[0]
    assert p1.ext_dim(p1.ctx.group.zero(), o1, 0) == 2


def test_h0_agrees_with_hom_dim(ctx_p23, ctx_p1p1, ctx_zz2_d1):
    rng = random.Random(31)
    for ctx in (ctx_p23, ctx_p1p1, ctx_zz2_d1):
        oracle = sg.CohomologyOracle(sg.group_to_polytope(ctx), ctx)
        for _ in range(15):
            coords = [rng.randrange(o) for o in ctx.group.torsion_orders]
            coords += [rng.randint(-5, 5) for _ in range(ctx.group.free_rank)]
            g = ctx.group.from_coords(coords)
            assert oracle.cohomology_dim(g, 0) == ctx.hom_dim(g)


def test_serre_duality_samples(ctx_p23, ctx_p1p1):
    rng = random.Random(41)
    for ctx in (ctx_p23, ctx_p1p1):
        oracle = sg.CohomologyOracle(sg.group_to_polytope(ctx), ctx)
        d = oracle.polytope.d
        for _ in range(10):
            coords = [rng.randrange(o) for o in ctx.group.torsion_orders]
            coords += [rng.randint(-5, 5) for _ in range(ctx.group.free_rank)]
            g = ctx.group.from_coords(coords)
            for r in range(d + 1):
                assert oracle.cohomology_dim(g, r) == \
                    oracle.cohomology_dim(-ctx.p - g, d - r)


def test_field_independence(ctx_p23, ctx_p1p1):
    import itertools
    for ctx in (ctx_p23, ctx_p1p1):
        p = sg.group_to_polytope(ctx)
        for bits in itertools.product((0, 1), repeat=p.n):
            t = frozenset(i for i, b in enumerate(bits) if b)
            q = sg.reduced_homology(sg.xa_complex(p, t), p.d, None)
            for char in (2, 3):
                assert sg.reduced_homology(sg.xa_complex(p, t), p.d,
                                           char).dims == q.dims


def test_unbounded_detection():
    from stacktilt.stacky_geom import _Unbounded, _count_lattice_points
    # x >= 0 alone in one variable is unbounded
    with pytest.raises(_Unbounded):
        _count_lattice_points([((1,), 0)], 1)
    # empty region with a missing bound never reaches the unbounded level
    assert _count_lattice_points([((1,), 0), ((-1,), -2)], 1) == 0
    assert _count_lattice_points([((1,), 0), ((-1,), 3)], 1) == 4
    assert _count_lattice_points(
        [((1, 0), 0), ((-1, 0), 2), ((0, 1), 0), ((0, -1), 2),
         ((1, 1), -1)], 2) == 8
