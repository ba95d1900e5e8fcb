import random

import pytest

from oracles import element_order, group_of, lattice_contains
from stacktilt import cuts, upper_sets as us
from stacktilt.errors import (InputError, InvalidDetector, NotACut,
                              NotAdmissible, NotBounding, NotCofinite)


def test_build_quotient_examples():
    lq = cuts.build_quotient(1, [[5, -5]])
    assert lq.m == 5
    lq2 = cuts.build_quotient(2, [[-2, 2, 0], [0, -2, 2]])
    assert lq2.m == 4
    with pytest.raises(NotCofinite):
        cuts.build_quotient(1, [[0, 0]])
    with pytest.raises(InputError):
        cuts.build_quotient(1, [[1, 1]])
    # sum of all alpha images vanishes
    acc = lq2.group.zero()
    for img in lq2.alpha_images:
        acc = acc + img
    assert acc.is_zero()


def test_admissible_type_examples():
    lq = cuts.build_quotient(1, [[5, -5]])
    assert cuts.is_admissible_type(lq, (2, 3))[0]
    ok, reason = cuts.is_admissible_type(lq, (1, 3))
    assert not ok and "sum" in reason
    lq2 = cuts.build_quotient(2, [[-2, 2, 0], [0, -2, 2]])
    ok, reason = cuts.is_admissible_type(lq2, (2, 1, 1))
    assert not ok and "divisible" in reason


def test_detector_cut_round_trips():
    lq = cuts.build_quotient(1, [[5, -5]])
    all_cuts = cuts.enumerate_cuts(lq)
    assert len(all_cuts) == 2 ** 5  # one arrow per elementary 2-cycle pair
    by_type = {}
    for c in all_cuts:
        by_type.setdefault(cuts.cut_type(lq, c), []).append(c)
    for gamma, cs in by_type.items():
        dets = cuts.enumerate_detectors(lq, gamma)
        assert len(dets) == len(cs)
        assert {cuts.cut_from_detector(d) for d in dets} == set(cs)
        for det in dets:
            assert cuts.detector_from_cut(lq, cuts.cut_from_detector(det)).table \
                == det.table


def test_detector_round_trip_m12():
    lq = cuts.build_quotient(1, [[12, -12]])
    detectors = cuts.enumerate_detectors(lq, (5, 7))
    assert len(detectors) > 50
    for det in detectors[:60]:
        c = cuts.cut_from_detector(det)
        assert cuts.detector_from_cut(lq, c).table == det.table


def test_detector_example_m2():
    lq = cuts.build_quotient(1, [[2, -2]])
    det = cuts.CutDetector(lq, (1, 1), {(0,): 0, (1,): 1})
    det.validate()
    c = cuts.cut_from_detector(det)
    assert sorted(c) == [((1,), 0), ((1,), 1)]
    bad = cuts.CutDetector(lq, (1, 1), {(0,): 0, (1,): 5})
    with pytest.raises(InvalidDetector):
        bad.validate()


def test_not_a_cut():
    lq = cuts.build_quotient(1, [[2, -2]])
    # both arrows lie on the same elementary cycle 0 -> 1 -> 0
    with pytest.raises(NotACut):
        cuts.detector_from_cut(lq, {((0,), 0), ((1,), 1)})
    with pytest.raises(NotACut):
        cuts.detector_from_cut(lq, {((0,), 0)})


def test_path_independence_and_b_invariance():
    rng = random.Random(23)
    lq = cuts.build_quotient(2, [[-2, 2, 0], [0, -2, 2]])
    for cut in cuts.enumerate_cuts(lq)[:20]:
        det = cuts.detector_from_cut(lq, cut)
        gamma = cuts.cut_type(lq, cut)

        def f_of_path(start, types):
            val, cur = 0, start
            for i in types:
                val += gamma[i] - (lq.m if (cur, i) in cut else 0)
                cur = lq.arrow_target(cur, i)
            return val, cur

        for _ in range(10):
            start = rng.choice(lq.vertices)
            t1 = [rng.randrange(3) for _ in range(rng.randint(0, 6))]
            v1, end1 = f_of_path(start, t1)
            # second path to the same endpoint: append a full cycle
            t2 = t1 + [0, 1, 2]
            v2, end2 = f_of_path(start, t2)
            assert end1 == end2 and v1 == v2
            assert det.table[end1] - det.table[start] == v1


def test_f_vanishes_on_b_generators():
    # walking any B-generator as a forward path sums the increments to zero
    lq = cuts.build_quotient(2, [[-2, 2, 0], [0, -2, 2]])
    orders = [element_order(lq.group, lq.alpha_images[i]) for i in range(3)]
    for cut in cuts.enumerate_cuts(lq)[:12]:
        gamma = cuts.cut_type(lq, cut)
        for gen in lq.b_gens_alpha:
            total, cur = 0, lq.group.zero().coords
            for j, cj in enumerate(gen, start=1):
                steps = cj % (orders[j] * lq.m)
                for _ in range(steps):
                    total += gamma[j] - (lq.m if (cur, j) in cut else 0)
                    cur = lq.arrow_target(cur, j)
            assert cur == lq.group.zero().coords
            assert total == 0


def test_is_bounding_matches_positivity():
    for gens in ([[5, -5]],):
        lq = cuts.build_quotient(1, gens)
        for cut in cuts.enumerate_cuts(lq):
            gamma = cuts.cut_type(lq, cut)
            assert cuts.is_bounding(lq, cut) == all(g > 0 for g in gamma)


def test_group_of_examples():
    lq = cuts.build_quotient(1, [[5, -5]])
    res = group_of(lq, (2, 3))
    assert res.group.free_rank == 1 and res.group.torsion_orders == ()
    assert sorted(res.order.theta_val(x) for x in res.degrees) == [2, 3]
    res11 = group_of(cuts.build_quotient(1, [[2, -2]]), (1, 1))
    assert [res11.order.theta_val(x) for x in res11.degrees] == [1, 1]
    with pytest.raises(NotAdmissible):
        group_of(lq, (1, 3))
    # zero entry: group built, order unavailable
    res05 = group_of(lq, (0, 5))
    assert res05.order is None and res05.group.free_rank == 1


def test_data_of_group_examples(ctx_p23, ctx_zz2_d1, make_pd):
    lq, gamma = cuts.data_of_group(ctx_p23)
    assert (lq.m, gamma) == (5, (2, 3))
    lq, gamma = cuts.data_of_group(ctx_zz2_d1)
    assert (lq.m, gamma) == (4, (2, 2))
    lq, gamma = cuts.data_of_group(make_pd(1))
    assert (lq.m, gamma) == (2, (1, 1))


def _graded_iso(ctx1, ctx2):
    """Isomorphism test for rank-one graded groups via their (B, gamma)."""
    lq1, g1 = cuts.data_of_group(ctx1)
    lq2, g2 = cuts.data_of_group(ctx2)
    if g1 != g2 or lq1.m != lq2.m:
        return False
    b1 = [list(c) for c in lq1.b_gens_alpha]
    b2 = [list(c) for c in lq2.b_gens_alpha]
    return (all(lattice_contains(b1, v) for v in b2)
            and all(lattice_contains(b2, v) for v in b1))


def test_group_of_data_of_group_round_trip(ctx_p23, ctx_zz2_d1, ctx_zz2_d2,
                                           make_pd):
    for ctx in (ctx_p23, ctx_zz2_d1, ctx_zz2_d2, make_pd(2), make_pd(3)):
        lq, gamma = cuts.data_of_group(ctx)
        rebuilt = group_of(lq, gamma)
        assert _graded_iso(ctx, rebuilt.order)
        assert (rebuilt.group.free_rank, rebuilt.group.torsion_orders) == \
            (ctx.group.free_rank, ctx.group.torsion_orders)


def test_cut_of_antichain_examples(ctx_p23, make_pd):
    lq, gamma = cuts.data_of_group(ctx_p23)
    poset = us.GroupPoset(ctx_p23)
    z = ctx_p23.group
    j1 = us.checked(poset, [z.canonicalize([v]) for v in [0, 1, 2, 3, 4]])
    cut1, det1 = cuts.cut_of_antichain(ctx_p23, j1, lq, gamma)
    assert cuts.cut_type(lq, cut1) == gamma
    qp = cuts.algebra_presentation(lq, cut1)
    assert len(qp.vertices) == 5 and len(qp.arrows) == 5
    labels = sorted(a.label for a in qp.arrows)
    assert labels == ["x1", "x1", "x1", "x2", "x2"]
    # translation invariance of the cut
    j1p = us.AntichainRep(poset, [z.canonicalize([v + 5])
                                  for v in [0, 1, 2, 3, 4]])
    assert cuts.cut_of_antichain(ctx_p23, j1p, lq, gamma)[0] == cut1
    j2 = us.checked(poset, [z.canonicalize([v]) for v in [0, 2, 3, 4, 6]])
    assert cuts.cut_of_antichain(ctx_p23, j2, lq, gamma)[0] != cut1

    # P^1: J = {0, 1} gives a cut of type (1,1) on the double 2-cycle
    ctx1 = make_pd(1)
    lq1, gamma1 = cuts.data_of_group(ctx1)
    p1 = us.GroupPoset(ctx1)
    j = us.checked(p1, [ctx1.group.canonicalize([v]) for v in [0, 1]])
    cutp, _ = cuts.cut_of_antichain(ctx1, j, lq1, gamma1)
    assert cuts.cut_type(lq1, cutp) == (1, 1)


def test_cut_of_antichain_bijective_with_classes(ctx_p23, ctx_zz2_d1):
    # zp-classes map bijectively onto cuts of type gamma (small surjectivity)
    for ctx in (ctx_p23, ctx_zz2_d1):
        lq, gamma = cuts.data_of_group(ctx)
        poset = us.GroupPoset(ctx)
        reps = us.enumerate_classes(poset, "zp")
        images = {cuts.cut_of_antichain(ctx, r, lq, gamma)[0] for r in reps}
        assert len(images) == len(reps)
        exhaustive = {c for c in cuts.enumerate_cuts(lq)
                      if cuts.cut_type(lq, c) == gamma}
        assert images == exhaustive


def test_algebra_presentation_beilinson(make_pd):
    ctx = make_pd(2)
    lq, gamma = cuts.data_of_group(ctx)
    poset = us.GroupPoset(ctx)
    j = us.checked(poset, [ctx.group.canonicalize([v]) for v in [0, 1, 2]])
    cut, _ = cuts.cut_of_antichain(ctx, j, lq, gamma)
    qp = cuts.algebra_presentation(lq, cut)
    assert len(qp.vertices) == 3 and len(qp.arrows) == 6
    assert len(qp.relations) == 3
    non_bounding = next(c for c in cuts.enumerate_cuts(lq)
                        if 0 in cuts.cut_type(lq, c))
    with pytest.raises(NotBounding):
        cuts.algebra_presentation(lq, non_bounding)
