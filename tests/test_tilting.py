import pytest

from oracles import (arrow_multiset, endomorphism_quiver_bruteforce,
                     enumerate_classes_window, i_contains, j_of_upper)
from stacktilt import tilting, upper_sets as us
from stacktilt.abgroup import direct_sum_group
from stacktilt.errors import NotMinimal
from stacktilt.graded_order import GradedDegreeGroup
from stacktilt.stacky_geom import CohomologyOracle, group_to_polytope


def test_classify_rank1_pd(make_pd):
    for d in (1, 2, 3, 4):
        classes = tilting.classify_rank1(make_pd(d))
        assert len(classes) == 1
        tc = classes[0]
        assert [e.coords[0] for e in tc.elements] == list(range(d + 1))
        pairs = arrow_multiset(tc.quiver)
        assert set(pairs) == {((k,), (k + 1,)) for k in range(d)}
        assert all(len(v) == d + 1 for v in pairs.values())


def test_classify_rank1_p23(ctx_p23):
    classes = tilting.classify_rank1(ctx_p23)
    assert [[e.coords[0] for e in c.elements] for c in classes] == [
        [0, 1, 2, 3, 4], [0, 2, 3, 4, 6]]
    first = classes[0].quiver
    arrows = {(a.source[0], a.target[0], a.label) for a in first.arrows}
    assert arrows == {(0, 2, "x1"), (1, 3, "x1"), (2, 4, "x1"),
                      (0, 3, "x2"), (1, 4, "x2")}
    # the two classes are connected by a mutation walk
    moves = us.connect(classes[0].rep, classes[1].rep, mode="full")
    assert len(moves) >= 1


def test_classify_rank1_torsion_examples(ctx_zz2_d1, ctx_zz2_d2):
    classes = tilting.classify_rank1(ctx_zz2_d1)
    assert len(classes) == 2 and all(len(c.elements) == 4 for c in classes)
    classes = tilting.classify_rank1(ctx_zz2_d2)
    assert len(classes) == 2 and all(len(c.elements) == 6 for c in classes)


def test_zz2_d2_first_quiver_shape(ctx_zz2_d2):
    # two rows of three vertices: double horizontal steps, single diagonals
    classes = tilting.classify_rank1(ctx_zz2_d2)
    quiver = classes[0].quiver
    assert len(quiver.vertices) == 6
    multis = sorted(len(v) for v in arrow_multiset(quiver).values())
    assert multis == [1, 1, 1, 1, 2, 2, 2, 2]
    assert len(quiver.relations) == 6


def test_classify_rank1_from_polytope():
    from stacktilt.stacky_geom import gale_dual, parse_polytope
    for d in (3, 4):
        vertices = [[1 if i == k else 0 for i in range(d)] for k in range(d)]
        vertices.append([-1] * d)
        ctx = gale_dual(parse_polytope(vertices))
        classes = tilting.classify_rank1(ctx)
        assert len(classes) == 1 and len(classes[0].elements) == d + 1


def test_classify_rank2_counts(ctx_p1p1, ctx_sigma1, ctx_stacky):
    res = tilting.classify_rank2(ctx_p1p1)
    assert len(res.groups) == 2
    assert sorted(len(g.classes) for g in res.groups) == [4, 5]
    assert sorted(g.merged_class_count for g in res.groups) == [2, 5]
    assert all(len(tc.elements) == 4 for tc in res.classes)

    res = tilting.classify_rank2(ctx_sigma1)
    assert len(res.groups) == 1
    assert [len(g.classes) for g in res.groups] == [4]
    assert all(len(tc.elements) == 4 for tc in res.classes)

    res = tilting.classify_rank2(ctx_stacky)
    assert len(res.groups) == 1
    assert [len(g.classes) for g in res.groups] == [5]
    assert all(len(tc.elements) == 5 for tc in res.classes)


def test_rank2_inner_enumeration_matches_window(ctx_p1p1, ctx_sigma1):
    for ctx in (ctx_p1p1, ctx_sigma1):
        split = ctx.sign_split()
        h_poset = us.GroupPoset(split.h_ctx, shift_element=split.s)
        for base in us.enumerate_classes(h_poset, "full"):
            fp = us.GroupPoset(ctx, over=(split, base))
            bfs = [r.key() for r in us.enumerate_classes(fp, "zp")]
            window = [r.key() for r in
                      enumerate_classes_window(fp, "zp", window=4)]
            assert bfs == window


def test_square_class_appears(ctx_p1p1):
    res = tilting.classify_rank2(ctx_p1p1)
    shapes = set()
    for tc in res.classes:
        base = min(tc.elements, key=lambda e: e.coords)
        shapes.add(tuple(sorted((e - base).coords for e in tc.elements)))
    assert ((0, 0), (0, 1), (1, 0), (1, 1)) in shapes


def test_endomorphism_quiver_examples(ctx_p23, ctx_sigma1):
    z = ctx_p23.group
    j = [z.canonicalize([v]) for v in [0, 1, 2, 3, 4]]
    qp = tilting.endomorphism_quiver(ctx_p23, j)
    assert len(qp.arrows) == 5
    singleton = tilting.endomorphism_quiver(ctx_p23, [z.zero()])
    assert singleton.arrows == ()
    res = tilting.classify_rank2(ctx_sigma1)
    composite_labels = set()
    for tc in res.classes:
        for a in tc.quiver.arrows:
            if "*" in a.label:
                composite_labels.add(a.label)
    assert composite_labels == {"x1*x4", "x2*x4"}


def _ctx(free_rank, torsion, degrees):
    group = direct_sum_group(free_rank, torsion)
    return GradedDegreeGroup.build(group, [group.canonicalize(list(v))
                                           for v in degrees])


def _one_class_per_base(ctx):
    """The seed class over every base class: no inner enumeration."""
    split = ctx.sign_split()
    h_poset = us.GroupPoset(split.h_ctx, shift_element=split.s)
    return [us.canonical_form(us.seed_slab(us.GroupPoset(
                ctx, over=(split, base))), "zp").elements
            for base in us.enumerate_classes(h_poset, "full")]


_P1P1 = [(1, 0)] * 2 + [(0, 1)] * 2
_BRUTEFORCE_GROUPS = {   # case: (free rank, torsion orders, degrees)
    "p23": (1, [], [(2,), (3,)]),
    "p345-zp": (1, [], [(3,), (4,), (5,)]),
    "zz2_b": (1, [2], [(1, 0), (2, 1), (3, 0)]),
    "zz3": (1, [3], [(1, 0), (1, 1), (1, 2)]),
    "p1p1": (2, [], _P1P1),
    "p1p2": (2, [], [(1, 0)] * 2 + [(0, 1)] * 3),
    "sigma1": (2, [], [(1, 0), (1, 0), (1, 1), (0, 1)]),
    "stacky": (2, [], [(1, -1), (1, 0), (1, 1), (0, 1)]),
    "p2p2-bases": (2, [], [(1, 0)] * 3 + [(0, 1)] * 3),
    "p1p1-powers": (2, [], _P1P1),
}


@pytest.mark.parametrize("case", list(_BRUTEFORCE_GROUPS))
def test_endomorphism_quiver_matches_bruteforce(case):
    """The arrow search meets exactly the irreducible monomials, in the
    order the enumerate-then-filter path emits them.  No tilting class of
    these inputs has an arrow with a squared variable, so p1p1-powers
    takes sets that are not tilting and have such arrows."""
    ctx = _ctx(*_BRUTEFORCE_GROUPS[case])
    mode = "zp" if case == "p345-zp" else "paper"
    if case == "p2p2-bases":
        sets = _one_class_per_base(ctx)
    elif case == "p1p1-powers":
        sets = [[ctx.group.from_coords(v) for v in vs] for vs in (
            [(0, 0), (2, 0), (0, 2), (2, 2)],
            [(0, 0), (1, 0), (3, 1), (1, 3)])]
    elif ctx.group.free_rank == 1:
        sets = [tc.elements for tc in tilting.classify_rank1(ctx, mode)]
    else:
        sets = [tc.elements for tc in tilting.classify_rank2(ctx, mode).classes]
    assert sets
    for elements in sets:
        fast = tilting.endomorphism_quiver(ctx, elements).to_json()
        slow = endomorphism_quiver_bruteforce(ctx, elements).to_json()
        assert fast["arrows"] and fast["arrows"] == slow["arrows"]
        assert fast["vertices"] == slow["vertices"]


def test_apr_mutate(make_pd, ctx_p23, ctx_p1p1):
    classes = tilting.classify_rank1(make_pd(1))
    tc = classes[0]
    new = tilting.apr_mutate(tc, tc.ctx.group.zero())
    assert [e.coords[0] for e in new.elements] == [1, 2]

    classes = tilting.classify_rank1(ctx_p23)
    first = classes[0]
    seen = {first.class_id}
    frontier = [first]
    while frontier:
        nxt = []
        for tc in frontier:
            for m in us.mutable_elements(tc.rep):
                child = tilting.apr_mutate(tc, m)
                canon = us.canonical_form(child.rep, "full")
                cid = tilting._class_id(1, canon.elements)
                if cid not in seen:
                    seen.add(cid)
                    nxt.append(child)
        frontier = nxt
    assert seen == {tc.class_id for tc in classes}

    with pytest.raises(NotMinimal):
        tilting.apr_mutate(classes[0], ctx_p23.group.canonicalize([2]))

    res = tilting.classify_rank2(ctx_p1p1)
    tc = res.groups[0].classes[0]
    m = us.mutable_elements(tc.rep)[0]
    child = tilting.apr_mutate(tc, m)
    assert child.rank == 2 and len(child.elements) == 4


def test_mutation_closure_rank2(ctx_p1p1):
    res = tilting.classify_rank2(ctx_p1p1)
    for grp in res.groups:
        start = grp.classes[0]
        seen = {us.canonical_form(start.rep, "zp").key()}
        frontier = [start]
        while frontier:
            nxt = []
            for tc in frontier:
                for m in us.mutable_elements(tc.rep):
                    child = tilting.apr_mutate(tc, m)
                    key = us.canonical_form(child.rep, "zp").key()
                    if key not in seen:
                        seen.add(key)
                        nxt.append(child)
                for m in us.upward_mutable_elements(tc.rep):
                    child_rep = us.mutate_up(tc.rep, m)
                    key = us.canonical_form(child_rep, "zp").key()
                    if key not in seen:
                        seen.add(key)
                        nxt.append(tilting.TiltingClass(
                            rank=2, ctx=tc.ctx, rep=child_rep,
                            quiver=tc.quiver, class_id="tmp",
                            base=tc.base, split=tc.split))
            frontier = nxt
        assert seen == {us.canonical_form(tc.rep, "zp").key()
                        for tc in grp.classes}


def test_component_of(make_pd, ctx_p23):
    # a line bundle is preprojective iff its degree lies in the upper set
    # I(J), preinjective otherwise
    ctx = make_pd(2)
    rep = j_of_upper(us.GroupPoset(ctx), [ctx.group.zero()])
    assert i_contains(rep, ctx.group.canonicalize([3]))
    assert not i_contains(rep, ctx.group.canonicalize([-1]))
    rep23 = j_of_upper(us.GroupPoset(ctx_p23), [ctx_p23.group.zero()])
    assert not i_contains(rep23, ctx_p23.group.canonicalize([1]))


def test_verify_class(make_pd, ctx_p1p1, ctx_p23):
    ctx = make_pd(2)
    oracle = CohomologyOracle(group_to_polytope(ctx), ctx)
    els = [ctx.group.canonicalize([v]) for v in (0, 1, 2)]
    report = tilting.verify_class(oracle, els)
    assert report.ok and len(report.checked) == 9 * 2
    assert report.thick_generation == "by theorem"

    oracle = CohomologyOracle(group_to_polytope(ctx_p1p1), ctx_p1p1)
    c = ctx_p1p1.group.canonicalize
    square = [c([0, 0]), c([1, 0]), c([0, 1]), c([1, 1])]
    assert tilting.verify_class(oracle, square).ok

    oracle = CohomologyOracle(group_to_polytope(ctx_p23), ctx_p23)
    z = ctx_p23.group
    broken = tilting.verify_class(oracle, [z.zero(), z.canonicalize([7])])
    assert not broken.ok
    assert any(r == 1 and dim > 0 for (_, _, r, dim) in broken.failures)
