"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion must be green.  Criterion 4's P1xP1 counts are checked
against an enumeration that does not use stacktilt (see the README's
"P1xP1 counts" section).
"""

import itertools
import random
import time

from corpus import all_lattice_quotients
from oracles import (apply_moves, arrow_multiset, detector_from_cut,
                     enumerate_classes_window, enumerate_cuts_exact_cover,
                     group_of, j_of_upper)
from stacktilt import cuts, tilting, upper_sets as us
from stacktilt.stacky_geom import CohomologyOracle, group_to_polytope


def _report(criterion, ok, elapsed, note=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {note}" if note else ""
    print(f"[acceptance] criterion {criterion}: {status} "
          f"({elapsed:.2f}s){suffix}")


def _timed(criterion, limit, body):
    t0 = time.perf_counter()
    try:
        body()
    except AssertionError:
        _report(criterion, False, time.perf_counter() - t0)
        raise
    elapsed = time.perf_counter() - t0
    _report(criterion, True, elapsed)
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s"


def test_criterion_01_projective_spaces(make_pd):
    def body():
        for d in range(1, 5):
            classes = tilting.classify_rank1(make_pd(d))
            assert len(classes) == 1
            tc = classes[0]
            assert [e.coords[0] for e in tc.elements] == list(range(d + 1))
            pairs = arrow_multiset(tc.quiver)
            assert set(pairs) == {((k,), (k + 1,)) for k in range(d)}
            assert all(len(labels) == d + 1 for labels in pairs.values())
    _timed(1, 1.0, body)


def test_criterion_02_weighted_p23(ctx_p23):
    def body():
        classes = tilting.classify_rank1(ctx_p23)
        assert [[e.coords[0] for e in c.elements] for c in classes] == [
            [0, 1, 2, 3, 4], [0, 2, 3, 4, 6]]
        arrows = {(a.source[0], a.target[0], a.label)
                  for a in classes[0].quiver.arrows}
        assert arrows == {(0, 2, "x1"), (1, 3, "x1"), (2, 4, "x1"),
                          (0, 3, "x2"), (1, 4, "x2")}
        moves = us.connect(classes[0].rep, classes[1].rep, mode="full")
        assert len(moves) >= 1
        replay = apply_moves(us.canonical_form(classes[0].rep, "full"),
                             moves)
        assert us.canonical_form(replay, "full").key() \
            == classes[1].rep.key()
    _timed(2, 1.0, body)


def test_criterion_03_torsion_examples(ctx_zz2_d1, ctx_zz2_d2):
    def body():
        classes = tilting.classify_rank1(ctx_zz2_d1)
        assert len(classes) == 2
        assert all(len(c.elements) == 4 for c in classes)
        classes = tilting.classify_rank1(ctx_zz2_d2)
        assert len(classes) == 2
        assert all(len(c.elements) == 6 for c in classes)
    _timed(3, 1.0, body)


def test_criterion_04_p1p1_verified_content(ctx_p1p1):
    """Criterion 4's split data, base classes and the square shape."""
    def body():
        split = ctx_p1p1.sign_split()
        assert split.h_ctx.group.free_rank == 1
        assert split.h_ctx.group.torsion_orders == (2,)
        assert split.h_ctx.theta_val(split.s) == 2
        assert split.s.torsion_part() == (0,)
        res = tilting.classify_rank2(ctx_p1p1)
        assert len(res.groups) == 2
        assert all(len(tc.elements) == 4 for tc in res.classes)
        shapes = set()
        for tc in res.classes:
            base = min(tc.elements, key=lambda e: e.coords)
            shapes.add(tuple(sorted((e - base).coords for e in tc.elements)))
        assert ((0, 0), (0, 1), (1, 0), (1, 1)) in shapes
    _timed("4 (verified content)", 5.0, body)


def _p1p1_higher_cohomology(a, b):
    """dim H^1 + dim H^2 of O(a, b) on P1xP1, by Bott on P1 and Kunneth."""
    def h0(n):
        return max(n + 1, 0)

    def h1(n):
        return max(-n - 1, 0)
    return h1(a) * h0(b) + h0(a) * h1(b) + h1(a) * h1(b)


def _geometric(v, twists=range(4)):
    """h^{>0}(O(v + k(2, 2))) = 0 for every k in twists; O(2, 2) = -K."""
    return all(_p1p1_higher_cohomology(v[0] + 2 * k, v[1] + 2 * k) == 0
               for k in twists)


def _shape(points):
    """Normal form up to translation: differences from the least point."""
    base = min(points)
    return tuple(sorted((a - base[0], b - base[1]) for a, b in points))


def _p1p1_helix_shapes():
    """Shapes of the 2-tilting sets of line bundles on P1xP1, up to twist.

    Independent of stacktilt.  A tilting set S is d-tilting exactly when
    the helix it spans under twists by -K = O(2, 2) is geometric
    (Bondal-Polishchuk, Izv. 1993): h^{>0}(O(v + k(2, 2))) = 0 for every
    difference v of two members and every k >= 0.  Every S holding 0 is
    found in the window [-3, 3]^2: the conditions at k = 0 and k = 1 on v
    and -v force |v_i| <= 3 (checked below on a wider box), and from
    k = 3 on every twist is effective, so k <= 3 is enough.
    """
    box = range(-12, 13)
    assert all(max(abs(a), abs(b)) <= 3 for a in box for b in box
               if _geometric((a, b), (0, 1)) and _geometric((-a, -b), (0, 1)))
    span = range(-6, 7)
    good = {(a, b) for a in span for b in span if _geometric((a, b))}
    window = [(a, b) for a in range(-3, 4) for b in range(-3, 4)
              if (a, b) != (0, 0)]
    shapes = set()
    for rest in itertools.combinations(window, 3):
        s = ((0, 0),) + rest
        if all((u[0] - w[0], u[1] - w[1]) in good for u in s for w in s):
            shapes.add(_shape(s))
    return shapes


def test_criterion_04_p1p1_paper_counts(ctx_p1p1):
    """Criterion 4's P1xP1 counts, against an enumeration without stacktilt.

    There are three conventions: 9 classes up to shifts by p (inner
    counts [4, 5]), 7 up to translation (merged counts [2, 5]), and 5 up
    to translation and the factor swap.  The source example's 2 + 4 = 6
    leaves out C = {O, O(1,1), O(2,1), O(1,2)}, which is 2-tilting: its
    quiver is 0 -(4)-> 1, 1 -(2)-> 2, 1 -(2)-> 3 with two relations
    0 -> 2 and two 0 -> 3, so the simple at 0 has the projective
    resolution P0 <- P1^4 <- P2^2 + P3^2 and the global dimension is 2.
    For contrast, {O, O(1,0), O(3,1), O(4,1)} is tilting but the helix
    condition rejects it (h^1(O(-2, 1)) = 2 at k = 1); its quiver is
    0 -(2)-> 1 -(6)-> 2 -(2)-> 3, the simple at 0 has the resolution
    P0 <- P1^2 <- P2^4 <- P3^2, and the global dimension is 3.
    """
    t0 = time.perf_counter()
    res = tilting.classify_rank2(ctx_p1p1)
    reference = _p1p1_helix_shapes()
    shapes = {_shape([e.coords for e in tc.elements]) for tc in res.classes}
    counts = sorted(len(g.classes) for g in res.groups)
    merged = sorted(g.merged_class_count for g in res.groups)
    swapped = {min(sh, _shape([(b, a) for a, b in sh])) for sh in reference}
    c_shape = _shape([(0, 0), (1, 1), (2, 1), (1, 2)])
    c_groups = [g.merged_class_count for g in res.groups
                if c_shape in {_shape([e.coords for e in tc.elements])
                               for tc in g.classes}]
    ok = (shapes == reference and len(reference) == 7 and merged == [2, 5]
          and len(swapped) == 5 and c_groups == [5])
    counts_note = (f"{len(res.classes)} up to p-shifts {counts}, "
                   f"{sum(merged)} up to translation {merged}, "
                   f"{len(swapped)} up to translation and swap")
    _report("4 (paper counts)", ok, time.perf_counter() - t0,
            note=f"{counts_note}; reference {len(reference)} up to "
                 f"translation")
    assert len(reference) == 7, counts_note
    assert shapes == reference, (
        "classifier shapes up to translation differ from the Bott-Kunneth "
        f"helix enumeration ({counts_note})")
    assert merged == [2, 5] and sum(merged) == 7, counts_note
    assert len(swapped) == 5, counts_note
    assert c_groups == [5], (
        f"C = {{O, O(1,1), O(2,1), O(1,2)}} lies in groups {c_groups}")


def test_criterion_05_sigma1(ctx_sigma1):
    def body():
        split = ctx_sigma1.sign_split()
        assert split.h_ctx.group.torsion_orders == ()
        assert split.h_ctx.theta_val(split.s) == 4
        res = tilting.classify_rank2(ctx_sigma1)
        assert len(res.groups) == 1
        assert len(res.groups[0].base.elements) == 4
        assert len(res.groups[0].classes) == 4
        assert all(len(tc.elements) == 4 for tc in res.classes)
        composites = set()
        for tc in res.classes:
            composites |= {a.label for a in tc.quiver.arrows
                           if "*" in a.label}
        # the published composite labels (xw and yw in x,y,z,w naming)
        assert composites == {"x1*x4", "x2*x4"}
    _timed(5, 5.0, body)


def test_criterion_06_stacky_example(ctx_stacky):
    def body():
        split = ctx_stacky.sign_split()
        assert split.h_ctx.group.torsion_orders == ()
        assert split.h_ctx.theta_val(split.s) == 5
        res = tilting.classify_rank2(ctx_stacky)
        assert len(res.groups) == 1
        assert len(res.groups[0].base.elements) == 5
        assert len(res.groups[0].classes) == 5
        assert all(len(tc.elements) == 5 for tc in res.classes)
        composites = set()
        for tc in res.classes:
            composites |= {a.label for a in tc.quiver.arrows
                           if "*" in a.label}
        # xz- and xw-style composite labels live on this example
        assert {"x1*x3", "x1*x4"} <= composites
    _timed(6, 10.0, body)


def test_criterion_07_oracle_equivalence(make_pd, ctx_p23, ctx_zz2_d1,
                                         ctx_zz2_d2, ctx_p1p1, ctx_sigma1,
                                         ctx_stacky):
    def body():
        rank1 = [make_pd(d) for d in range(1, 5)]
        rank1 += [ctx_p23, ctx_zz2_d1, ctx_zz2_d2]
        all_classes = []
        for ctx in rank1:
            oracle = CohomologyOracle(group_to_polytope(ctx), ctx)
            for tc in tilting.classify_rank1(ctx):
                all_classes.append((oracle, tc))
        for ctx in (ctx_p1p1, ctx_sigma1, ctx_stacky):
            oracle = CohomologyOracle(group_to_polytope(ctx), ctx)
            for tc in tilting.classify_rank2(ctx).classes:
                all_classes.append((oracle, tc))
        for oracle, tc in all_classes:
            report = tilting.verify_class(oracle, tc.elements, None)
            assert report.ok, (tc.class_id, report.failures)
    _timed(7, 60.0, body)


def _positive_admissible_types(lq):
    m, d = lq.m, lq.d
    for split_points in itertools.combinations(range(1, m), d):
        parts = []
        prev = 0
        for s in split_points:
            parts.append(s - prev)
            prev = s
        parts.append(m - prev)
        gamma = tuple(parts)
        if cuts.is_admissible_type(lq, gamma)[0]:
            yield gamma


def test_criterion_08_bijection_suite():
    def body():
        for lq in all_lattice_quotients():
            all_cuts = enumerate_cuts_exact_cover(lq)
            by_type = {}
            for c in all_cuts:
                gamma_c = cuts.cut_type(lq, c)
                assert cuts.is_bounding(lq, c) == all(g > 0 for g in gamma_c)
                by_type.setdefault(gamma_c, []).append(c)
            for gamma in _positive_admissible_types(lq):
                cut_list = by_type.get(gamma, [])
                detectors = cuts.enumerate_detectors(lq, gamma)
                assert len(detectors) == len(cut_list)
                # f -> C -> f and C -> f -> C are identities
                assert {cuts.cut_from_detector(det) for det in detectors} \
                    == set(cut_list)
                for det in detectors:
                    back = detector_from_cut(lq, cuts.cut_from_detector(det))
                    assert back.table == det.table
                ctx = group_of(lq, gamma).order
                poset = us.GroupPoset(ctx)
                reps = us.enumerate_classes(poset, "zp")
                assert len(reps) == len(cut_list)
                # J -> I -> J is the identity on every class
                for rep in reps:
                    again = j_of_upper(poset, us.mutable_elements(rep))
                    assert again.key() == rep.key()
                # classes map bijectively onto the cuts of this type
                psi = cuts.fiber_map(lq, ctx)
                images = {cuts.cut_of_antichain(ctx, rep, lq, gamma, psi)[0]
                          for rep in reps}
                assert images == set(cut_list)
    _timed(8, 120.0, body)


def test_criterion_09_type_characterization():
    def body():
        for lq in all_lattice_quotients():
            realized = set(cuts.enumerate_cuts(lq))
            m, d = lq.m, lq.d
            for gamma in itertools.product(range(m + 1), repeat=d + 1):
                if sum(gamma) != m:
                    continue
                assert (gamma in realized) \
                    == cuts.is_admissible_type(lq, gamma)[0], (lq.b_gens_alpha,
                                                               gamma)
    _timed(9, 120.0, body)


def _random_element(ctx, rng, span=4):
    coords = [rng.randrange(o) for o in ctx.group.torsion_orders]
    coords += [rng.randint(-span, span) for _ in range(ctx.group.free_rank)]
    return ctx.group.from_coords(coords)


def test_criterion_10_property_suites(ctx_p23, ctx_zz2_d1, ctx_zz2_d2,
                                      ctx_p1p1, ctx_sigma1, ctx_stacky,
                                      make_pd):
    def body():
        rng = random.Random(2024)
        examples = [ctx_p23, ctx_zz2_d1, ctx_zz2_d2, ctx_p1p1, ctx_sigma1,
                    ctx_stacky]
        # Serre duality, 30 random twists per example stack
        for ctx in examples:
            oracle = CohomologyOracle(group_to_polytope(ctx), ctx)
            d = oracle.polytope.d
            for _ in range(30):
                g = _random_element(ctx, rng)
                for r in range(d + 1):
                    assert oracle.cohomology_dim(g, r, None) == \
                        oracle.cohomology_dim(-ctx.p - g, d - r, None)
        # intermediate-cohomology vanishing vs the quotient order
        # (the all-twists quantifier is checked on the window n in [-4, 4])
        for ctx in (ctx_p1p1, ctx_sigma1, ctx_stacky):
            oracle = CohomologyOracle(group_to_polytope(ctx), ctx)
            split = ctx.sign_split()
            h = split.h_ctx
            d = oracle.polytope.d
            for _ in range(25):
                g = _random_element(ctx, rng, span=3)
                qg = split.q(g)
                order_side = (not h.leq(split.s, qg)) and \
                    (not h.leq(qg, -split.s))
                homology_side = all(
                    oracle.cohomology_dim(g + n * ctx.p, r, None) == 0
                    for n in range(-4, 5) for r in range(1, d))
                assert order_side == homology_side, list(g.coords)
        # order axioms incl. (A1)-(A3) spot checks
        for ctx in (ctx_p23, ctx_zz2_d1, ctx_p1p1):
            sample = [_random_element(ctx, rng) for _ in range(10)]
            tp = ctx.theta_val(ctx.p)
            for g in sample:
                assert ctx.leq(g, g)
                assert ctx.leq(g, g + ctx.p) and g != g + ctx.p
            for g, k in itertools.product(sample, repeat=2):
                assert ctx.leq(g, k) == (ctx.hom_dim(k - g) >= 1)
                bound = (ctx.theta_val(k) - ctx.theta_val(g)) // tp + 2
                assert any(ctx.leq(k, g + n * ctx.p)
                           for n in range(0, max(bound, 1) + 25))
        # BFS enumeration agrees with the window-N=4 brute force
        for ctx in (ctx_p23, ctx_zz2_d1, ctx_zz2_d2, make_pd(2)):
            poset = us.GroupPoset(ctx)
            for mode in ("full", "zp"):
                assert [r.key() for r in us.enumerate_classes(poset, mode)] \
                    == [r.key() for r in
                        enumerate_classes_window(poset, mode, 4)]
        for ctx in (ctx_p1p1, ctx_sigma1, ctx_stacky):
            split = ctx.sign_split()
            h_poset = us.GroupPoset(split.h_ctx, shift_element=split.s)
            for base in us.enumerate_classes(h_poset, "full"):
                fp = us.GroupPoset(ctx, over=(split, base))
                assert [r.key() for r in us.enumerate_classes(fp, "zp")] \
                    == [r.key() for r in
                        enumerate_classes_window(fp, "zp", 4)]
    _timed(10, 120.0, body)
