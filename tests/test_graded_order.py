import itertools
import random

import pytest

from stacktilt.abgroup import FgAbelianGroup
from stacktilt.graded_order import GradedDegreeGroup
from stacktilt.errors import (DegenerateSplit, G1Violation, G2Violation,
                              G3Violation, UnsupportedRank)


def test_build_examples(z_group, ctx_p23, ctx_zz2_d1):
    assert ctx_p23.p.coords == (5,)
    assert ctx_zz2_d1.p.free_part() == (2,) and ctx_zz2_d1.p.torsion_part() == (1,)
    with pytest.raises(G3Violation) as err:
        GradedDegreeGroup.build(z_group, [z_group.canonicalize([1]),
                                          z_group.canonicalize([-1])])
    assert "witness" in err.value.details


def test_build_violations(z_group, zz2_group):
    with pytest.raises(G1Violation):
        GradedDegreeGroup.build(z_group, [z_group.zero(),
                                          z_group.canonicalize([1])])
    with pytest.raises(G2Violation):
        GradedDegreeGroup.build(z_group, [z_group.canonicalize([2]),
                                          z_group.canonicalize([4])])
    # torsion degree
    with pytest.raises(G3Violation):
        GradedDegreeGroup.build(zz2_group, [zz2_group.canonicalize([1, 0]),
                                            zz2_group.canonicalize([0, 1])])
    big = FgAbelianGroup(3, [])
    with pytest.raises(UnsupportedRank):
        GradedDegreeGroup.build(big, [big.canonicalize(v) for v in
                                      ([1, 0, 0], [0, 1, 0], [0, 0, 1])])


def test_find_theta_certificates():
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from stacktilt.graded_order import _find_theta

    vectors = st.lists(
        st.tuples(st.integers(-7, 7), st.integers(-7, 7)).filter(
            lambda u: u != (0, 0)),
        min_size=1, max_size=6)

    @settings(max_examples=400, deadline=None)
    @given(vectors)
    def check(us):
        theta, circuit = _find_theta(us, 2)
        if theta is not None:
            assert all(theta[0] * u[0] + theta[1] * u[1] > 0 for u in us)
        else:
            total = (sum(c * us[i][0] for i, c in circuit),
                     sum(c * us[i][1] for i, c in circuit))
            assert total == (0, 0)
            assert any(c != 0 for _, c in circuit)
            assert all(c >= 0 for _, c in circuit)

    check()


def test_rank2_g3_witness(z2_group):
    c = z2_group.canonicalize
    with pytest.raises(G3Violation) as err:
        GradedDegreeGroup.build(z2_group,
                                [c([1, 0]), c([-1, 1]), c([0, -1])])
    w = err.value.details["witness"]
    assert w != [0, 0]


def test_theta_positive_on_degrees(ctx_p23, ctx_p1p1, ctx_stacky, ctx_zz2_d2):
    for ctx in (ctx_p23, ctx_p1p1, ctx_stacky, ctx_zz2_d2):
        for x in ctx.degrees:
            assert ctx.theta_val(x) > 0
        assert ctx.theta_val(ctx.p) > 0


def test_leq_examples(ctx_p23, ctx_zz2_d1):
    z = ctx_p23.group
    assert not ctx_p23.leq(z.zero(), z.canonicalize([1]))
    assert ctx_p23.leq(z.zero(), z.canonicalize([5]))
    zz2 = ctx_zz2_d1.group
    assert ctx_zz2_d1.leq(zz2.zero(), zz2.canonicalize([1, 1]))
    assert not ctx_zz2_d1.leq(zz2.zero(), zz2.canonicalize([0, 1]))


def test_hom_dim_examples(ctx_p23):
    z = ctx_p23.group
    assert ctx_p23.hom_dim(z.canonicalize([6])) == 2
    assert ctx_p23.hom_dim(z.zero()) == 1
    assert ctx_p23.hom_dim(z.canonicalize([1])) == 0
    assert sorted(ctx_p23.monomials(z.canonicalize([6]))) == [(0, 2), (3, 0)]


def _sample(ctx, rng, count):
    nt = len(ctx.group.torsion_orders)
    out = []
    for _ in range(count):
        coords = [rng.randrange(o) for o in ctx.group.torsion_orders]
        coords += [rng.randint(-6, 6) for _ in range(ctx.group.free_rank)]
        out.append(ctx.group.from_coords(coords))
    return out


@pytest.mark.parametrize("name", ["p23", "zz2", "p1p1"])
def test_order_axioms(name, ctx_p23, ctx_zz2_d1, ctx_p1p1):
    ctx = {"p23": ctx_p23, "zz2": ctx_zz2_d1, "p1p1": ctx_p1p1}[name]
    rng = random.Random(17)
    sample = _sample(ctx, rng, 18)
    for g in sample:
        assert ctx.leq(g, g)
        # (A1)
        assert ctx.leq(g, g + ctx.p) and g != g + ctx.p
    for g, h in itertools.product(sample[:12], repeat=2):
        if ctx.leq(g, h) and ctx.leq(h, g):
            assert g == h
        # translation invariance
        t = sample[0]
        assert ctx.leq(g, h) == ctx.leq(g + t, h + t)
        # leq iff hom_dim >= 1
        assert ctx.leq(g, h) == (ctx.hom_dim(h - g) >= 1)
    for g, h, k in itertools.product(sample[:8], repeat=3):
        if ctx.leq(g, h) and ctx.leq(h, k):
            assert ctx.leq(g, k)
    # (A3): cofinality with a theta-derived bound
    tp = ctx.theta_val(ctx.p)
    for g, h in itertools.product(sample[:6], repeat=2):
        bound = (ctx.theta_val(h) - ctx.theta_val(g)) // tp + 2
        assert any(ctx.leq(h, g + n * ctx.p)
                   for n in range(0, max(bound, 1) + 25))


def test_monomial_convolution_p23(ctx_p23):
    # every product of monomials of degrees g and h is a monomial of g+h
    z = ctx_p23.group
    for a in range(0, 13):
        for b in range(0, 13):
            ga, gb = z.canonicalize([a]), z.canonicalize([b])
            prods = {tuple(x + y for x, y in zip(ma, mb))
                     for ma in ctx_p23.monomials(ga)
                     for mb in ctx_p23.monomials(gb)}
            target = set(ctx_p23.monomials(z.canonicalize([a + b])))
            assert prods <= target


def test_coset_reps(ctx_p23, ctx_zz2_d1, make_pd):
    reps, quot, proj = ctx_p23.coset_reps(ctx_p23.p)
    assert len(reps) == 5 and quot.size() == 5
    assert len(ctx_zz2_d1.coset_reps(ctx_zz2_d1.p)[0]) == 4
    pd1 = make_pd(1)
    assert len(pd1.coset_reps(pd1.p)[0]) == 2
    assert len({proj(r).coords for r in reps}) == len(reps)


def test_sign_split_examples(ctx_p1p1, ctx_sigma1, ctx_stacky):
    sp = ctx_p1p1.sign_split()
    assert (sp.l, sp.l_prime) == (2, 2)
    assert sp.h_ctx.group.free_rank == 1
    assert sp.h_ctx.group.torsion_orders == (2,)
    assert sp.h_ctx.theta_val(sp.s) == 2 and sp.s.torsion_part() == (0,)

    sp = ctx_sigma1.sign_split()
    assert sp.h_ctx.group.torsion_orders == ()
    assert sp.h_ctx.theta_val(sp.s) == 4

    sp = ctx_stacky.sign_split()
    assert sp.h_ctx.group.torsion_orders == ()
    assert sp.h_ctx.theta_val(sp.s) == 5
    assert sp.order == (0, 1, 2, 3)


def test_sign_split_degenerate(z2_group, ctx_p23):
    c = z2_group.canonicalize
    # a degree inside Zp: pi value 0
    ctx = GradedDegreeGroup.build(
        z2_group, [c([1, 0]), c([1, 0]), c([0, 1]), c([0, 1]), c([1, 1])])
    with pytest.raises(DegenerateSplit):
        ctx.sign_split()
    with pytest.raises(UnsupportedRank):
        ctx_p23.sign_split()
