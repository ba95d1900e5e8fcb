import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import corpus
from corpus import PAPER_ONLY, RANK1_ALL, RANK2_ALL
from oracles import (arrow_multiset, arrow_table_elementwise, checked,
                     endomorphism_quiver_bruteforce,
                     endomorphism_quiver_search, enumerate_classes_window,
                     i_contains, j_of_upper,
                     stabilizer_merged_count_elementwise)
from stacktilt import cuts, tilting, upper_sets as us
from stacktilt.abgroup import GroupHom
from stacktilt.errors import (ClassCountExceeded, InputError,
                              InternalInvariantBroken, NotMinimal)
from stacktilt.graded_order import GradedDegreeGroup
from stacktilt.quiver import QuiverPresentation
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


def test_classifiers_refuse_the_other_rank(ctx_p23, ctx_p1p1):
    with pytest.raises(InputError, match="rank-one"):
        tilting.classify_rank1(ctx_p1p1)
    with pytest.raises(InputError, match="rank-two"):
        tilting.classify_rank2(ctx_p23)


@pytest.mark.parametrize("name, ceiling", [("p1p2", 15), ("p2p2", 40)])
def test_rank2_ceiling_fires_before_any_quiver(monkeypatch, name, ceiling):
    """Every base class is walked before a quiver is built, so a ceiling
    the inner classes pass costs no quiver work."""
    built = []
    quiver = tilting.endomorphism_quiver

    def counted(table, rep):
        built.append(rep)
        return quiver(table, rep)

    monkeypatch.setattr(tilting, "endomorphism_quiver", counted)
    ctx = corpus.ctx(name)
    with pytest.raises(ClassCountExceeded):
        tilting.classify_rank2(ctx, "paper", ceiling)
    assert built == []
    result = tilting.classify_rank2(ctx, "paper")
    assert len(built) == len(result.classes) > ceiling


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
    poset = us.GroupPoset(ctx_p23)
    rep = checked(poset, [z.canonicalize([v]) for v in [0, 1, 2, 3, 4]])
    qp = tilting.endomorphism_quiver(tilting.arrow_table(poset), rep)
    assert len(qp.arrows) == 5
    singleton = endomorphism_quiver_search(ctx_p23, [z.zero()])
    assert singleton.arrows == ()
    res = tilting.classify_rank2(ctx_sigma1)
    composite_labels = set()
    for tc in res.classes:
        for a in tc.quiver.arrows:
            if "*" in a.label:
                composite_labels.add(a.label)
    assert composite_labels == {"x1*x4", "x2*x4"}


def test_a_vector_with_a_landing_sub_vector_is_reducible(ctx_p1p1):
    """On the fibered posets over the P1xP1 base classes, every table entry
    is irreducible, and an entry lengthened by any x_j is not: the entry is
    a proper sub-vector of it that lands over a fiber.  The second base
    class has entries of degree two, such as x1*x3."""
    split = ctx_p1p1.sign_split()
    h_poset = us.GroupPoset(split.h_ctx, shift_element=split.s)
    degrees = set()
    for base in us.enumerate_classes(h_poset, "full"):
        poset = us.GroupPoset(ctx_p1p1, over=(split, base))
        for a, entries in tilting.arrow_table(poset).items():
            for _, _, c in entries:
                degrees.add(sum(c))
                assert tilting._is_irreducible(poset, a, c)
                for j in range(ctx_p1p1.n):
                    longer = c[:j] + (c[j] + 1,) + c[j + 1:]
                    assert not tilting._is_irreducible(poset, a, longer)
    assert degrees == {1, 2}


def _assert_tables_agree(ctx, mode):
    """On H and on the fibered poset over every base class of the mode's
    walk of H, arrow_table gives the element search's entries, fiber by
    fiber and in its order."""
    split = ctx.sign_split()
    h_poset = us.GroupPoset(split.h_ctx, shift_element=split.s)
    bases = us.enumerate_classes(h_poset, tilting._translation(mode))
    for poset in [h_poset] + [us.GroupPoset(ctx, over=(split, base))
                              for base in bases]:
        assert tilting.arrow_table(poset) == arrow_table_elementwise(poset)
    return len(bases)


@pytest.mark.parametrize("name, mode", [
    *((name, "paper") for name in RANK2_ALL),
    *((name, "zp") for name in RANK2_ALL if name not in PAPER_ONLY)])
def test_arrow_table_matches_the_element_search(name, mode):
    """The zp walk of H lists many more base classes than the paper one."""
    assert _assert_tables_agree(corpus.ctx(name), mode)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(doc=corpus.products(), mode=st.sampled_from(["paper", "zp"]))
def test_arrow_table_matches_the_element_search_on_fuzzed_products(doc,
                                                                  mode):
    """27 distinct products, 869 base classes, about 5 s."""
    assert _assert_tables_agree(corpus.ctx(doc), mode)


def _one_class_per_base(ctx):
    """The seed class over every base class: no inner enumeration."""
    split = ctx.sign_split()
    h_poset = us.GroupPoset(split.h_ctx, shift_element=split.s)
    return [us.canonical_form(us.seed_slab(us.GroupPoset(
                ctx, over=(split, base))), "zp")
            for base in us.enumerate_classes(h_poset, "full")]


_QUIVER_CASES = {   # case: (input, mode); "-zp" marks zp mode
    **{name: (name, "paper") for name in RANK1_ALL + RANK2_ALL},
    "p345-zp": ("p345", "zp"),
    **{f"{name}-zp": (name, "zp") for name in RANK2_ALL
       if name not in PAPER_ONLY},
    "p2p2-bases": ("p2p2", None),
    "p1p1-powers": ("p1p1", None),
}


def _classes(ctx, mode="paper"):
    if ctx.group.free_rank == 1:
        return tilting.classify_rank1(ctx, mode)
    return tilting.classify_rank2(ctx, mode).classes


def _assert_oracles_agree(ctx, quivers):
    """Each (elements, quiver) pair: the per-class search gives the same
    presentation, and the enumerate-then-filter path the same arrows."""
    # the classes of one input repeat their differences h - g
    ctx.monomials = functools.cache(ctx.monomials)
    for elements, qp in quivers:
        assert endomorphism_quiver_search(ctx, elements) == qp
        slow = endomorphism_quiver_bruteforce(ctx, elements).to_json()
        assert qp.to_json()["arrows"] == slow["arrows"]
        assert qp.to_json()["vertices"] == slow["vertices"]


@pytest.mark.parametrize("case", list(_QUIVER_CASES))
def test_endomorphism_quiver_matches_bruteforce(case):
    """Every class's quiver, read off its poset's arrow table, is the one
    the per-class search and the enumerate-then-filter path find.
    p2p2-bases takes the seed class over each base class, read off the
    table of that base class's poset.  No tilting class of these inputs
    has an arrow with a squared variable, so p1p1-powers takes sets that
    are not tilting and have such arrows; only the per-class search serves
    those."""
    name, mode = _QUIVER_CASES[case]
    ctx = corpus.ctx(name)
    if case == "p2p2-bases":
        quivers = [(rep.elements, tilting.endomorphism_quiver(
                        tilting.arrow_table(rep.poset), rep))
                   for rep in _one_class_per_base(ctx)]
    elif case == "p1p1-powers":
        quivers = [(els, endomorphism_quiver_search(ctx, els)) for els in (
            [ctx.group.from_coords(v) for v in vs] for vs in (
                [(0, 0), (2, 0), (0, 2), (2, 2)],
                [(0, 0), (1, 0), (3, 1), (1, 3)]))]
    else:
        quivers = [(tc.elements, tc.quiver) for tc in _classes(ctx, mode)]
    assert quivers and all(qp.arrows for _, qp in quivers)
    _assert_oracles_agree(ctx, quivers)


@pytest.mark.parametrize("case", ["p23", "p1p2"])
def test_table_entry_off_the_cut_grading_is_caught(monkeypatch, case):
    """Every table entry out of a class member has offset e in {0, 1}: an
    entry whose level t is moved by 2 has e in {2, 3} for every class and
    must raise, in rank one and in rank two."""
    ctx = corpus.ctx(case)
    build = tilting.arrow_table

    def corrupted(poset):
        table = build(poset)
        a = poset.fibers[0]
        (b, t, c), *rest = table[a]
        table[a] = ((b, t + 2, c), *rest)
        return table

    monkeypatch.setattr(tilting, "arrow_table", corrupted)
    with pytest.raises(InternalInvariantBroken, match="cut grading"):
        _classes(ctx)


@pytest.mark.parametrize("case", ["p1p2-zp", "sigma1-zp", "stacky-zp",
                                  "z2-torsion"])
def test_a_class_one_level_off_is_refused_by_the_offset_check(case):
    """Every class with one member moved by one shift, up or down: the sets
    with a member above another plus p (top Ext S_(g-h-p) != 0) are
    refused by the quiver's offset check, and the others are classes and
    get quivers.  So no set that a top-Ext test would refuse gets one."""
    name, mode = _QUIVER_CASES[case]
    ctx = corpus.ctx(name)
    refused = 0
    for grp in tilting.classify_rank2(ctx, mode).groups:
        poset = grp.classes[0].rep.poset
        table = tilting.arrow_table(poset)
        members = range(len(poset.fibers))
        for tc, i, n in itertools.product(grp.classes, members, (-1, 1)):
            moved = list(tc.elements)
            moved[i] = poset.shift(moved[i], n)
            top_ext = any(ctx.hom_dim(g - h - ctx.p)
                          for g, h in itertools.product(moved, repeat=2))
            try:
                tilting.endomorphism_quiver(table, us.AntichainRep(poset,
                                                                   moved))
            except InternalInvariantBroken as err:
                assert "outside the cut grading" in str(err)
                assert top_ext
                refused += 1
            else:
                assert not top_ext
    assert refused


@pytest.mark.parametrize("case", ["p345", "p345-zp", "p1p2", "p2p2-zp",
                                  "z2-torsion"])
def test_arrow_search_runs_once_per_poset(monkeypatch, case):
    """One arrow table per classification in rank one; in rank two one
    for the base order H, then one per base class, each on its own poset.
    The classes only read them."""
    name, mode = _QUIVER_CASES[case]
    ctx = corpus.ctx(name)
    posets = []
    build = tilting.arrow_table

    def counted(poset):
        posets.append(poset)
        return build(poset)

    monkeypatch.setattr(tilting, "arrow_table", counted)
    if ctx.group.free_rank == 1:
        classes = tilting.classify_rank1(ctx, mode)
        assert len(posets) == 1
    else:
        result = tilting.classify_rank2(ctx, mode)
        classes = result.classes
        assert len(posets) == len(result.groups) + 1
        assert posets[0].shift_element == result.split.s
        for grp, poset in zip(result.groups, posets[1:]):
            assert all(tc.rep.poset is poset for tc in grp.classes)
    assert len(set(map(id, posets))) == len(posets) < len(classes)


def _rebuilt(qp, **changes):
    """qp built again with some of its vertices, arrows or relations
    replaced."""
    parts = {"vertices": qp.vertices, "arrows": qp.arrows,
             "relations": qp.relations}
    return QuiverPresentation(**{**parts, **changes})


def _retarget(qp, field, k):
    """qp with the target of its k-th arrow or relation moved elsewhere."""
    items = list(getattr(qp, field))
    item = items[k]
    other = next(v for v in qp.vertices
                 if v not in (item.source, item.target))
    items[k] = item._replace(target=other)
    return _rebuilt(qp, **{field: tuple(items)})


_PERTURBATIONS = {
    "retarget-arrow": lambda qp: _retarget(qp, "arrows", 0),
    "retarget-relation": lambda qp: _retarget(qp, "relations", 0),
    "drop-arrow": lambda qp: _rebuilt(qp, arrows=qp.arrows[1:]),
    "add-composite-arrow": lambda qp: _rebuilt(
        qp, arrows=qp.arrows + (qp.arrows[0]._replace(label="x1*x2"),)),
    "drop-relation": lambda qp: _rebuilt(qp, relations=qp.relations[1:]),
}


def test_certify_rank1_rejects_perturbed_quivers():
    """The rank-one certificate compares whole presentations: a quiver
    that differs from the cut's algebra in one arrow target, one relation
    target, one arrow or one relation is refused."""
    ctx = corpus.ctx("p345")
    cut_data = cuts.data_of_group(ctx)
    classes = tilting.classify_rank1(ctx, mode="zp")
    # the last class with relations, so a check of fewer classes misses it
    k = max(k for k, tc in enumerate(classes) if tc.quiver.relations)
    tc = classes[k]
    tilting._certify_rank1(ctx, classes, *cut_data)
    for name, perturb in _PERTURBATIONS.items():
        quiver = perturb(tc.quiver)
        assert quiver != tc.quiver, name
        perturbed = list(classes)
        perturbed[k] = tilting.TiltingClass(
            tc.rank, tc.ctx, tc.rep, quiver, tc.class_id, tc.table,
            tc.translation)
        with pytest.raises(InternalInvariantBroken):
            tilting._certify_rank1(ctx, perturbed, *cut_data)


@pytest.mark.parametrize("change, mode", [
    ("drop", "zp"), ("repeat", "zp"), ("repeat", "paper")])
def test_classify_rank1_checks_the_cut_bijection(ctx_p23, monkeypatch,
                                                 change, mode):
    """Classes map injectively to the cuts of type gamma, onto them in zp
    mode: a class list with one class dropped (zp) or one class listed
    twice is refused."""
    enumerate_classes = us.enumerate_classes

    def altered(*args):
        reps = enumerate_classes(*args)
        return reps[1:] if change == "drop" else reps + reps[:1]

    monkeypatch.setattr(us, "enumerate_classes", altered)
    with pytest.raises(InternalInvariantBroken):
        tilting.classify_rank1(ctx_p23, mode)


@pytest.mark.parametrize("mode, delta", [
    ("paper", 1), ("paper", -1), ("zp", 1)])
def test_an_orbit_size_off_by_one_misses_a_cut(ctx_zz2_d1, monkeypatch,
                                               mode, delta):
    """The completeness check sums the orbit sizes that enumerate_classes
    records (4 and 2 in paper mode here): one off by one is refused."""
    enumerate_classes = us.enumerate_classes

    def altered(*args):
        reps = enumerate_classes(*args)
        reps[-1].orbit_len += delta
        return reps

    monkeypatch.setattr(us, "enumerate_classes", altered)
    with pytest.raises(InternalInvariantBroken,
                       match="the classes miss a cut of type gamma"):
        tilting.classify_rank1(ctx_zz2_d1, mode)


def _merging_groups(name):
    """A paper classification, and its base classes whose stabilizer
    merges some inner classes."""
    result = tilting.classify_rank2(corpus.ctx(name), "paper")
    return result, [grp for grp in result.groups
                    if grp.merged_class_count < len(grp.classes)]


@pytest.mark.parametrize("name", ["z2-torsion", "z3-torsion", "p2p2"])
def test_stabilizer_count_matches_the_elementwise_count(name):
    result, merging = _merging_groups(name)
    assert merging
    for grp in result.groups:
        assert grp.merged_class_count == stabilizer_merged_count_elementwise(
            result.split, grp.base, [tc.rep for tc in grp.classes])


@pytest.mark.parametrize("name", RANK2_ALL)
def test_the_full_walk_over_each_base_finds_the_merged_classes(name):
    """A second route to merged_class_count: the full walk of each base
    class's poset forms one class per orbit of the translations fixing
    the base, and its orbits hold the zp classes, each once."""
    result = tilting.classify_rank2(corpus.ctx(name), "paper")
    for grp in result.groups:
        poset = grp.classes[0].rep.poset
        full = us.enumerate_classes(poset, "full")
        assert len(full) == grp.merged_class_count
        assert sum(rep.orbit_len for rep in full) == len(grp.classes)


def test_a_stabilizer_translate_off_the_class_list_is_caught():
    """Drop each inner class of a base class in turn: where a translate of
    another class was the dropped one, both counts refuse the list."""
    result, merging = _merging_groups("z2-torsion")
    split, grp = result.split, merging[0]
    inner = [tc.rep for tc in grp.classes]
    refused = 0
    for i in range(len(inner)):
        kept = inner[:i] + inner[i + 1:]
        try:
            expected = stabilizer_merged_count_elementwise(split, grp.base,
                                                           kept)
        except InternalInvariantBroken:
            refused += 1
            with pytest.raises(InternalInvariantBroken,
                               match="stabilizer translate left the class"):
                tilting._stabilizer_merged_count(kept)
        else:
            assert tilting._stabilizer_merged_count(kept) == expected
    assert refused


def test_a_stabilizer_lift_off_the_fibers_is_an_internal_fault(monkeypatch):
    """A lift over no fiber of the poset has no level; moving it past s
    (J and J + s are disjoint) must be refused as a fault, not crash.  A
    poset caches its translations, so a fresh one meets the moved lifts."""
    result, merging = _merging_groups("z2-torsion")
    split, grp = result.split, merging[0]
    poset = us.GroupPoset(grp.classes[0].ctx, over=(split, grp.base))
    inner = us.enumerate_classes(poset, "zp")
    section = GroupHom.section
    monkeypatch.setattr(GroupHom, "section",
                        lambda hom, h: section(hom, h + split.s))
    with pytest.raises(InternalInvariantBroken, match="leaves the poset"):
        tilting._stabilizer_merged_count(inner)


def test_certificates_run_once_per_classification(ctx_p23, monkeypatch):
    """psi is built once per rank-one classification or mutation, without
    listing cosets; H's closure runs once per rank-two classification,
    and nothing asks hom_dim."""
    calls = dict.fromkeys(("fiber_map", "certify2", "coset_reps",
                           "h_closure", "hom_dim"), 0)
    inside = []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return wrapper

    coset_reps, hom_dim = (GradedDegreeGroup.coset_reps,
                           GradedDegreeGroup.hom_dim)
    check_closure = us.check_closure

    def counted_coset_reps(self, shift):
        calls["coset_reps"] += "fiber_map" in inside
        return coset_reps(self, shift)

    def counted_closure(poset, steps, message):
        calls["h_closure"] += "certify2" in inside
        return check_closure(poset, steps, message)

    def counted_hom_dim(self, g):
        calls["hom_dim"] += 1
        return hom_dim(self, g)

    monkeypatch.setattr(cuts, "fiber_map", counted("fiber_map", cuts.fiber_map))
    monkeypatch.setattr(tilting, "_certify_rank2",
                        counted("certify2", tilting._certify_rank2))
    monkeypatch.setattr(GradedDegreeGroup, "coset_reps", counted_coset_reps)
    monkeypatch.setattr(us, "check_closure", counted_closure)
    monkeypatch.setattr(GradedDegreeGroup, "hom_dim", counted_hom_dim)

    for mode in ("paper", "zp"):
        calls["fiber_map"] = 0
        classes = tilting.classify_rank1(ctx_p23, mode)
        assert calls["fiber_map"] == 1
        tilting.apr_mutate(classes[0], us.mutable_elements(classes[0].rep)[0])
        assert calls["fiber_map"] == 2
    assert calls["coset_reps"] == 0

    for name in ("p1p2", "p2p2"):
        ctx = corpus.ctx(name)
        calls["certify2"] = calls["h_closure"] = 0
        result = tilting.classify_rank2(ctx)
        assert calls["certify2"] == calls["h_closure"] == 1
        tc = result.classes[0]
        tilting.apr_mutate(tc, us.mutable_elements(tc.rep)[0])
        assert calls["certify2"] == 1
        assert len(result.classes) > len(result.groups)
    assert calls["hom_dim"] == 0


@pytest.mark.parametrize("mode, classes", [("zp", 989), ("paper", 43)])
def test_two_presentations_per_rank1_class(monkeypatch, mode, classes):
    """Each class builds its endomorphism quiver and its cut's presentation,
    named by the members, and nothing else (P(5,7,11))."""
    built = []
    init = QuiverPresentation.__init__

    def counted(qp, *args, **kwargs):
        built.append(qp)
        init(qp, *args, **kwargs)
    monkeypatch.setattr(QuiverPresentation, "__init__", counted)
    found = tilting.classify_rank1(corpus.ctx("p5711"), mode)
    assert len(found) == classes and len(built) == 2 * classes


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
                            table=tc.table))
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
    report = tilting.verify_class(oracle, els, None)
    assert report.ok and len(report.checked) == 9 * 2
    assert report.thick_generation == "by theorem"

    oracle = CohomologyOracle(group_to_polytope(ctx_p1p1), ctx_p1p1)
    c = ctx_p1p1.group.canonicalize
    square = [c([0, 0]), c([1, 0]), c([0, 1]), c([1, 1])]
    assert tilting.verify_class(oracle, square, None).ok

    oracle = CohomologyOracle(group_to_polytope(ctx_p23), ctx_p23)
    z = ctx_p23.group
    broken = tilting.verify_class(oracle, [z.zero(), z.canonicalize([7])],
                                    None)
    assert not broken.ok
    assert any(r == 1 and dim > 0 for (_, _, r, dim) in broken.failures)
