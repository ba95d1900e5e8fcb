"""The gap table and level offsets against the order and the group.

`upper_sets` reads GroupPoset.gaps and GroupPoset.level where it once asked
the order about every pair of elements, and translates member levels by
the level offsets of each translation where it once added group elements;
`enumerate_classes` and `connect` walk level vectors.  The element-level
routines in oracles.py still ask `poset.leq` and add elements; here they
run on every point the level-space walk produces (every zp class), the mutation walks in
oracles.py must find the same classes, edges and moves, and a corrupted
table must be caught by the checks that do not read it.
"""

import collections
import functools
import itertools
import random

import pytest
from hypothesis import given, settings

import corpus
from corpus import RANK1, RANK1_ALL, RANK2, RANK2_ALL
from oracles import (apply_moves, canonical_form_elementwise, checked,
                     connect_elementwise, enumerate_classes_bfs,
                     is_antichain_rep_elementwise,
                     local_check_elementwise, mutable_elements_elementwise,
                     upward_mutable_elements_elementwise)
from stacktilt import tilting, upper_sets as us
from stacktilt.abgroup import GroupHom
from stacktilt.errors import (InternalInvariantBroken, NotAntichain,
                              StacktiltError)
from stacktilt.graded_order import GradedDegreeGroup

# z3-torsion's zp walks list 8,908 classes: only the scan count reads it,
# in paper mode
RANK2_WALKED = [name for name in RANK2_ALL if name != "z3-torsion"]
# parameter ids by corpus name: the labels this module has always printed,
# so that the names of its collected tests stay put
_ID = {"p2": "P2", "p23": "P(2,3)", "p345": "P(3,4,5)",
       "p4567": "P(4,5,6,7)", "p457": "P(4,5,7)", "p2357": "P(2,3,5,7)",
       "p5711": "P(5,7,11)", "p23571": "P(2,3,5,7,11)", "p1p1": "P1xP1",
       "p1p2": "P1xP2", "p1p3": "P1xP3", "p2p2": "P2xP2",
       "minus": "(1,0)2,(-1,1),(0,1)", "w12": "(1,0),(2,0),(0,1)2",
       "w12-second": "(1,0)2,(0,1),(0,2)", "w23": "(2,0),(3,0),(0,1)2",
       "diagonal": "(1,0)3,(0,1)2,(1,1)", "z2-torsion": "Z2+Z/2"}


def _posets(name):
    """(poset, modes): the whole-group poset of a rank-one input; of a
    rank-two input, H with shift s and the fibered poset over every base
    class up to s-shifts, each in both modes (the classifier walks the
    fibered posets in zp mode, and counts their full orbits)."""
    ctx = corpus.ctx(name)
    if ctx.group.free_rank == 1:
        return [(us.GroupPoset(ctx), ("full", "zp"))]
    split = ctx.sign_split()
    h_poset = us.GroupPoset(split.h_ctx, shift_element=split.s)
    return [(h_poset, ("full", "zp"))] + [
        (us.GroupPoset(ctx, over=(split, base)), ("full", "zp"))
        for base in us.enumerate_classes(h_poset, "zp")]


def _check_point(poset, k, counts):
    """Run the element-level routines on the poset's level point k: the
    antichain tests, both site scans, and each move."""
    rep = poset.rep(k)
    elements = list(rep.elements)
    assert (us.is_antichain_rep(poset, elements)
            == is_antichain_rep_elementwise(poset, elements)
            == (True, None))
    counts["states"] += 1
    if poset.whole_group and poset.shift_element == poset.ctx.p:
        assert local_check_elementwise(poset, rep.by_fiber)
        counts["local"] += 1
    for direction, sites, table_scan, reference in (
            (1, poset.down(k), us.mutable_elements,
             mutable_elements_elementwise),
            (-1, poset.up(k), us.upward_mutable_elements,
             upward_mutable_elements_elementwise)):
        at = {rep.by_fiber[poset.fibers[a]]: a for a in sites}
        assert (sorted(at, key=lambda e: e.coords)
                == table_scan(rep) == reference(rep))
        for m, a in at.items():
            moved = us.AntichainRep(poset, [
                poset.shift(e, direction) if e == m else e
                for e in elements])
            assert (poset.rep(poset.step(k, a, direction)).key()
                    == canonical_form_elementwise(moved).key())
        counts["sites"] += 1
    _perturb(poset, elements, counts)


def _perturb(poset, elements, counts):
    """On up to 12 fibers, also shift each member by -1 and +1: mostly
    sets that are no antichains, which the walk never produces."""
    if (not (poset.whole_group and poset.shift_element == poset.ctx.p)
            or len(poset.fibers) > 12):
        return
    for i, n in itertools.product(range(len(elements)), (-1, 1)):
        moved = list(elements)
        moved[i] = poset.shift(moved[i], n)
        by_fiber = {poset.fiber_key(e): e for e in moved}
        assert (local_check_elementwise(poset, by_fiber)
                == us.is_antichain_rep(poset, moved)[0]
                == is_antichain_rep_elementwise(poset, moved)[0])
        counts["perturbed"] += 1


@pytest.mark.parametrize("name", RANK1 + RANK2, ids=_ID.get)
def test_table_agrees_with_the_order_on_every_visited_state(name):
    """Every zp class is one point of the level space, so the zp classes
    of each poset are every point the walk visits."""
    counts = {"states": 0, "local": 0, "sites": 0, "perturbed": 0}
    for poset, _ in _posets(name):
        for rep in us.enumerate_classes(poset, "zp"):
            _check_point(poset, poset.point(rep), counts)
    assert counts["states"] and counts["sites"]
    assert bool(counts["local"]) == (name in RANK1)
    assert bool(counts["perturbed"]) == (name in RANK1 and name != "p4567")


@pytest.mark.parametrize("name", RANK1 + RANK2, ids=_ID.get)
def test_gaps_and_levels_against_the_order(name):
    for poset, _ in _posets(name):
        for a, b in itertools.product(poset.fibers, repeat=2):
            sa, sb = poset.fiber_sample(a), poset.fiber_sample(b)
            gap = poset.gaps[a][b]
            for k in range(gap - 3, gap + 4):
                e = poset.shift(sb, k)
                assert poset.leq(e, sa) == (k <= gap)
                assert poset.level(e) == (b, k)


def test_element_over_a_fiber_the_poset_lacks():
    """Such a set is no complete-representative family of q^{-1}(J): it is
    refused by fiber, before any level is read, wherever the element sits."""
    ctx = corpus.ctx("p1p2")
    split = ctx.sign_split()
    h_poset = us.GroupPoset(split.h_ctx, shift_element=split.s)
    base = us.enumerate_classes(h_poset, "full")[0]
    poset = us.GroupPoset(ctx, over=(split, base))
    rep = us.enumerate_classes(poset, "zp")[0]
    h = base.elements[0] + split.s      # same s-orbit as a member: not in J
    assert h.coords not in poset.fibers
    verdict = (False, {"reason": "extra_fiber", "fiber": h.coords})
    for k in range(-4, 5):
        extra = poset.shift(split.q.section(h), k)
        for elements in ([extra, *rep.elements], [*rep.elements, extra]):
            assert us.is_antichain_rep(poset, elements) == verdict
            with pytest.raises(NotAntichain) as err:
                checked(poset, elements)
            assert err.value.details == verdict[1]


BUILD_GAPS = us.GroupPoset.__dict__["gaps"].func
BUILD_STEPS = us.GroupPoset.__dict__["single_steps"].func


def _patch(monkeypatch, name, build):
    """Make the GroupPoset property name the cached result of
    build(poset)."""
    prop = functools.cached_property(build)
    prop.__set_name__(us.GroupPoset, name)
    monkeypatch.setattr(us.GroupPoset, name, prop)


def _corrupt(monkeypatch, applies, a, b, delta):
    """Shift gaps[fibers[a]][fibers[b]] by delta where applies(poset)."""
    def gaps(poset):
        table = BUILD_GAPS(poset)
        if applies(poset):
            table[poset.fibers[a]][poset.fibers[b]] += delta
        return table
    _patch(monkeypatch, "gaps", gaps)


CLOSURE = "the arrow table's cut grading disagrees with the gap table"


@pytest.mark.parametrize("mode, a, b, delta", [
    ("paper", 1, 2, 1), ("zp", 0, 2, -1), ("zp", 0, 1, 1)])
def test_corrupted_rank1_table_is_caught(monkeypatch, mode, a, b, delta):
    ctx = corpus.ctx("p23")
    tilting.classify_rank1(ctx, mode)
    _corrupt(monkeypatch, lambda poset: True, a, b, delta)
    with pytest.raises(InternalInvariantBroken, match=CLOSURE):
        tilting.classify_rank1(ctx, mode)


@pytest.mark.parametrize("mode", ["paper", "zp"])
def test_corrupted_inner_table_is_caught_by_rank2_certificate(monkeypatch,
                                                              mode):
    """A gap one too low lets sets that are no classes in.  The arrow
    table's closure refuses them at the first base class; without it, the
    quiver's offset check refuses the first such class."""
    ctx = corpus.ctx("p1p2")
    tilting.classify_rank2(ctx, mode)
    _corrupt(monkeypatch, lambda poset: poset.ctx is ctx, 0, 1, -1)
    with pytest.raises(InternalInvariantBroken,
                       match="cut grading disagrees with the gap table"):
        tilting.classify_rank2(ctx, mode)
    monkeypatch.setattr(us, "check_closure", lambda *args: None)
    with pytest.raises(InternalInvariantBroken,
                       match="outside the cut grading"):
        tilting.classify_rank2(ctx, mode)


def test_order_questions_come_from_the_table_only(monkeypatch):
    """P(5,7,11), 23 fibers: 529 gaps, each found by a short search."""
    leq = GradedDegreeGroup.leq
    calls = {"all": 0, "building": 0}
    building = []

    def counted_leq(self, g, h):
        calls["all"] += 1
        calls["building"] += bool(building)
        return leq(self, g, h)

    def gaps(poset):
        building.append(poset)
        try:
            return BUILD_GAPS(poset)
        finally:
            building.pop()

    _patch(monkeypatch, "gaps", gaps)
    monkeypatch.setattr(GradedDegreeGroup, "leq", counted_leq)
    classes = tilting.classify_rank1(corpus.ctx("p5711"), "paper")
    assert len(classes) == 43
    assert calls["all"] == calls["building"] <= 1000


def test_sites_of_a_set_with_two_members_over_one_fiber():
    poset = us.GroupPoset(corpus.ctx("p23"))
    z = poset.ctx.group
    rep = us.AntichainRep(poset, [z.canonicalize([v]) for v in range(6)])
    assert us.mutable_elements(rep) == mutable_elements_elementwise(rep)
    assert (us.upward_mutable_elements(rep)
            == upward_mutable_elements_elementwise(rep))


def _with_translates(poset, rep, rng, count=2):
    """rep and count translates of it, by random sums of degrees on a
    whole-group poset and by random multiples of the shift on a fibered
    one (other translations leave the fibers over the base class)."""
    out = [rep]
    for _ in range(count):
        if poset.whole_group:
            t = poset.ctx.group.zero()
            for x in poset.ctx.degrees:
                t = t + rng.randint(-6, 6) * x
        else:
            t = rng.randint(-6, 6) * poset.shift_element
        out.append(us.AntichainRep(poset, [e + t for e in rep.elements]))
    return out


def _assert_forms_agree(poset, modes, rng):
    for rep in us.enumerate_classes(poset, modes[0]):
        for moved in _with_translates(poset, rep, rng):
            for mode in modes:
                assert (us.canonical_form(moved, mode).key()
                        == canonical_form_elementwise(moved, mode).key())


@pytest.mark.parametrize("name", RANK1_ALL, ids=_ID.get)
def test_level_space_forms_on_the_rank1_corpus(name):
    _assert_forms_agree(us.GroupPoset(corpus.ctx(name)), ("full", "zp"),
                        random.Random(name))


@pytest.mark.parametrize("name", RANK2, ids=_ID.get)
def test_level_space_forms_on_base_and_inner_posets(name):
    rng = random.Random(name)
    for poset, modes in _posets(name):
        _assert_forms_agree(poset, modes, rng)


def test_full_forms_on_fibered_posets_match_the_elementwise_forms():
    """On a fibered poset, "full" is up to the lifts of the translations
    fixing the base class: the canonical form of every zp class over each
    base of Z^2 + Z/2, and of its shift translates, is the least of its
    translates by those lifts, built as elements.  Some base's lifts merge
    classes, so the forms are not all zp forms."""
    rng, merged = random.Random("z2-torsion"), 0
    for poset, _ in _posets("z2-torsion")[1:]:
        for rep in us.enumerate_classes(poset, "zp"):
            for moved in _with_translates(poset, rep, rng):
                form = us.canonical_form(moved, "full")
                assert form.key() == canonical_form_elementwise(
                    moved, "full").key()
                merged += form.key() != rep.key()
    assert merged


@pytest.mark.parametrize("name", ["p23", "p235", "p345", "zz2_b"],
                         ids=[f"degrees{i}" for i in range(4)])
def test_every_raised_gap_is_caught_or_harmless(monkeypatch, name):
    """A gap one too high makes the order too strict, which can only lose
    classes; one too low lets sets in that are no classes.  The arrow
    table's θ bound reads the gaps, but its entries come from the level
    map, so the closure of their cut grading must refuse every such
    entry before the walk, in both modes."""
    ctx = corpus.ctx(name)
    n = len(us.GroupPoset(ctx).fibers)
    expected = {mode: [(tc.rep.key(), tc.quiver)
                       for tc in tilting.classify_rank1(ctx, mode)]
                for mode in ("paper", "zp")}
    for mode in expected:
        caught = []
        for a, b, delta in itertools.product(range(n), range(n), (1, -1)):
            _corrupt(monkeypatch, lambda poset: True, a, b, delta)
            try:
                got = tilting.classify_rank1(ctx, mode)
            except InternalInvariantBroken as err:
                caught.append(str(err))
                continue
            assert ([(tc.rep.key(), tc.quiver) for tc in got]
                    == expected[mode]), (mode, a, b, delta)
        assert len(caught) == 2 * n * n
        assert all(msg == CLOSURE for msg in caught)


def test_full_canonical_forms_project_few_elements(monkeypatch):
    """P(5,7,11): the BFS computes 277 full canonical forms of 23 members,
    23 translates each.  Projecting every member of every translate took
    about 165,000 GroupHom calls; level space allows 5 per form and fiber."""
    calls = 0
    project = GroupHom.__call__

    def counted(self, e):
        nonlocal calls
        calls += 1
        return project(self, e)

    monkeypatch.setattr(GroupHom, "__call__", counted)
    classes = us.enumerate_classes(us.GroupPoset(corpus.ctx("p5711")),
                                   "full")
    assert len(classes) == 43
    assert calls < 32_000


def _count_scans(monkeypatch) -> collections.Counter:
    """Count the poset's translate and site scans, and the orbits
    every walk returns."""
    calls = collections.Counter()

    def counted(name):
        method = getattr(us.GroupPoset, name)

        def call(poset, *args):
            calls[name] += 1
            return method(poset, *args)
        monkeypatch.setattr(us.GroupPoset, name, call)

    for name in ("translates", "down", "up"):
        counted(name)
    walk = us.enumerate_classes

    def walked(*args):
        out = walk(*args)
        calls["orbits"] += len(out)
        return out
    monkeypatch.setattr(us, "enumerate_classes", walked)
    return calls


def _classify(name, mode):
    ctx = corpus.ctx(name)
    if ctx.group.free_rank == 1:
        return tilting.classify_rank1(ctx, mode)
    return tilting.classify_rank2(ctx, mode).classes


def test_paper_mode_tests_sites_at_one_point_per_class(monkeypatch):
    """P(5,7,11), paper mode: 43 classes of 989 points.  The orbit walk
    forms each orbit once and scans the sites of its head once in each
    direction; the head's down moves are the class's edges.  Expanding the
    first point reached and re-reading edges at the heads made 70 down
    scans; a walk over all 989 points makes 1,032."""
    calls = _count_scans(monkeypatch)
    classes = _classify("p5711", "paper")
    assert len(classes) == 43
    assert calls["translates"] == calls["down"] == calls["up"] == 43


def test_each_element_is_projected_once_per_poset(monkeypatch):
    """zp classify P(4,5,6,7): every mutation tests the new set and builds
    it, and each reads the members' fibers.  Projecting them in both took
    39,702 GroupHom calls; the per-poset fiber cache leaves one per
    element met."""
    calls = 0
    project = GroupHom.__call__

    def counted(self, e):
        nonlocal calls
        calls += 1
        return project(self, e)

    monkeypatch.setattr(GroupHom, "__call__", counted)
    classes = tilting.classify_rank1(corpus.ctx("p4567"), "zp")
    assert len(classes) > 100
    assert calls < 1000


def test_a_slab_that_fails_the_antichain_test_is_an_internal_fault(
        monkeypatch):
    """The theta slab is an antichain by theorem, so a slab refused by a
    corrupted table is no invalid input (NotAntichain, exit 2).  The arrow
    table's closure refuses this table first, so it is patched out."""
    ctx = corpus.ctx("p1p2")
    _corrupt(monkeypatch, lambda poset: not poset.whole_group, 0, 0, 1)
    monkeypatch.setattr(us, "check_closure", lambda *args: None)
    with pytest.raises(InternalInvariantBroken, match="theta slab"):
        tilting.classify_rank2(ctx, "paper")


@pytest.mark.parametrize("name", ["p23", "p345", "zz2_b"], ids=_ID.get)
def test_a_point_the_walk_misses_is_caught_by_the_cut_count(monkeypatch,
                                                            name):
    """Drop the last zp class and every move into it, as a site test
    that misses moves would: the other points and edges stay consistent,
    and only the count against the cuts of type gamma can notice."""
    ctx = corpus.ctx(name)
    poset = us.GroupPoset(ctx)
    points = [poset.point(rep)
              for rep in us.enumerate_classes(poset, "zp")]
    dropped = points[-1]
    down, up = us.GroupPoset.down, us.GroupPoset.up

    def missing(scan, direction):
        def sites(self, k):
            return [a for a in scan(self, k)
                    if self.step(k, a, direction) != dropped]
        return sites

    monkeypatch.setattr(us.GroupPoset, "down", missing(down, 1))
    monkeypatch.setattr(us.GroupPoset, "up", missing(up, -1))
    assert [poset.point(rep)
            for rep in us.enumerate_classes(poset, "zp")] == points[:-1]
    with pytest.raises(InternalInvariantBroken, match="miss a cut"):
        tilting.classify_rank1(ctx, "zp")


def _classes_and_edges(reps):
    return [(rep.key(), [(m.coords, n.key()) for m, n in rep.edges])
            for rep in reps]


@pytest.mark.parametrize("mode, name", [
    (mode, name) for name in RANK1_ALL + RANK2_ALL for mode in ("paper", "zp")
    if mode == "paper" or name in RANK1_ALL + RANK2_WALKED], ids=_ID.get)
def test_every_walk_scans_each_orbit_once_each_way(monkeypatch, name, mode):
    """A whole classification scans the sites of each orbit it walks once
    in each direction, in either mode: in zp mode, one down scan and one
    up scan per point.  Counts as pinned: P2xP2 paper 63 (66 down scans
    when edges were re-read at heads), P1xP3 paper 38 (40), P(5,7,11) zp
    989, Z^2 + Z/3 paper 917 (18 base classes and 899 inner ones).  In zp
    mode only rank two's merged count forms translates, once per inner
    class."""
    calls = _count_scans(monkeypatch)
    classes = _classify(name, mode)
    assert calls["down"] == calls["up"] == calls["orbits"]
    pinned = {("p2p2", "paper"): 63, ("p1p3", "paper"): 38,
              ("p5711", "zp"): 989, ("z3-torsion", "paper"): 917}
    assert calls["orbits"] == pinned.get((name, mode), calls["orbits"])
    if mode == "zp":
        rank2 = name in RANK2_ALL
        assert calls["translates"] == (len(classes) if rank2 else 0)


def _assert_modes_agree(poset, modes):
    """Each mode's walk has the keys and edges of the mutation BFS, and
    the zp classes grouped by their full canonical form are the paper
    classes, each holding orbit_len of them."""
    walks = {mode: us.enumerate_classes(poset, mode) for mode in modes}
    for mode, reps in walks.items():
        assert (_classes_and_edges(reps)
                == _classes_and_edges(enumerate_classes_bfs(poset, mode)))
    if "full" in walks:
        grouped = collections.Counter(us.canonical_form(rep, "full").key()
                                      for rep in walks["zp"])
        assert grouped == {rep.key(): rep.orbit_len for rep in walks["full"]}


@pytest.mark.parametrize("name", RANK1_ALL + RANK2_WALKED, ids=_ID.get)
def test_walk_matches_the_mutation_bfs(name):
    for poset, modes in _posets(name):
        _assert_modes_agree(poset, modes)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=corpus.documents())
def test_paper_mode_walks_the_orbits_of_the_zp_walk_on_fuzz_groups(doc):
    """The rank-one groups the CLI fuzz test draws (|G/Zp| <= 12), in both
    modes; drawn documents that are malformed or no valid input are
    skipped."""
    try:
        poset = us.GroupPoset(corpus.ctx(doc))
    except StacktiltError:
        return
    _assert_modes_agree(poset, ("full", "zp"))


@pytest.mark.parametrize("name", RANK2_WALKED + RANK1_ALL, ids=_ID.get)
def test_rank2_closure_certificate_holds_on_the_corpus(name, monkeypatch):
    """The arrow table's cut-grading constraints close to -gaps on the
    rank-one poset, and in rank two on the base order H (its single steps)
    and on every base class's poset, exactly once each and before the
    poset is walked; counted through the helper, so none is skipped."""
    events = []
    check_closure, enumerate_classes = us.check_closure, us.enumerate_classes

    def counted(poset, steps, message):
        events.append(("closure", poset))
        return check_closure(poset, steps, message)

    def walked(poset, *args):
        events.append(("walk", poset))
        return enumerate_classes(poset, *args)

    monkeypatch.setattr(us, "check_closure", counted)
    monkeypatch.setattr(us, "enumerate_classes", walked)
    ctx = corpus.ctx(name)
    if ctx.group.free_rank == 1:
        tilting.classify_rank1(ctx, "paper")
        posets = 1
    else:
        posets = len(tilting.classify_rank2(ctx, "paper").groups) + 1
    closed = [poset for event, poset in events if event == "closure"]
    assert len(closed) == len(set(map(id, closed))) == posets
    for poset in closed:
        assert events.index(("closure", poset)) < events.index(
            ("walk", poset))


def test_every_raised_inner_gap_is_caught(monkeypatch):
    """P1xP2, paper mode: a gap one too high in every fibered poset makes
    the order too strict.  Without the arrow table's closure, 9 of the 36
    entries lost classes silently ((0, 1) gave 7 of 16); now the closure
    refuses each before the walk, and each gap one too low as well."""
    ctx = corpus.ctx("p1p2")
    for a, b, delta in itertools.product(range(6), range(6), (1, -1)):
        _corrupt(monkeypatch, lambda poset: poset.ctx is ctx, a, b, delta)
        with pytest.raises(InternalInvariantBroken, match=CLOSURE):
            tilting.classify_rank2(ctx, "paper")


@pytest.mark.parametrize("name, mode", [
    ("p23", "paper"), ("p23", "zp"), ("p4567", "paper"), ("p4567", "zp"),
    ("p345", "zp"), ("zz2_b", "zp"), ("p1p2", "paper"), ("sigma1", "paper")],
    ids=_ID.get)
def test_connect_matches_the_elementwise_walk(name, mode):
    """The level-space walk reports the moves of the walk over
    AntichainReps, tie-break included, from the first class to the last
    (of the largest base class in rank two) and on three seeded pairs;
    the moves replay by mutate and mutate_up onto the target's class."""
    ctx = corpus.ctx(name)
    if ctx.group.free_rank == 1:
        groups = [tilting.classify_rank1(ctx, mode)]
    else:
        groups = [grp.classes
                  for grp in tilting.classify_rank2(ctx, mode).groups]
    rng = random.Random(f"{name}-{mode}")
    largest = max(groups, key=len)
    pairs = [(largest[0], largest[-1])]
    for group in (rng.choice(groups) for _ in range(3)):
        pairs.append((rng.choice(group), rng.choice(group)))
    for a, b in pairs:
        moves = us.connect(a.rep, b.rep, a.translation)
        assert moves == connect_elementwise(a.rep, b.rep, a.translation)
        end = apply_moves(canonical_form_elementwise(a.rep), moves)
        assert (canonical_form_elementwise(end, a.translation).key()
                == canonical_form_elementwise(b.rep, a.translation).key())


def _h_poset(ctx):
    split = ctx.sign_split()
    return us.GroupPoset(split.h_ctx, shift_element=split.s)


def test_a_mutation_off_the_walked_points_is_an_internal_fault(monkeypatch):
    """P1xP3: the base order's gap (fibers[1], fibers[0]) one too low once
    sent a class's down move to a point that neither the walk nor the
    translates of its points held.  The walk now expands each orbit at its
    head and walks every down move of it, so every edge lands on a walked
    orbit; the classifier refuses the corrupted gap as a fault before the
    walk, by the closure of H's arrow table."""
    ctx = corpus.ctx("p1p3")
    _corrupt(monkeypatch, lambda poset: poset.ctx is not ctx, 1, 0, -1)
    with pytest.raises(InternalInvariantBroken, match=CLOSURE):
        tilting.classify_rank2(ctx, "paper")


def test_closure_is_the_check_on_the_base_order(monkeypatch):
    """sigma1, paper mode: the base order's gap (fibers[1], fibers[0]) one
    too low lets in a base class that is not rigid, and the closure of
    H's arrow table refuses it.  With _certify_rank2 patched out the
    classification lists other classes.  (Some changes that let in such a
    class, as (0, 3) one too low does, list the same classes without the
    closure: the orbit walk expands no point whose move reaches it.)"""
    ctx = corpus.ctx("sigma1")
    expected = [tc.rep.key()
                for tc in tilting.classify_rank2(ctx, "paper").classes]
    _corrupt(monkeypatch, lambda poset: poset.ctx is not ctx, 1, 0, -1)
    with pytest.raises(InternalInvariantBroken, match=CLOSURE):
        tilting.classify_rank2(ctx, "paper")
    monkeypatch.setattr(tilting, "_certify_rank2", lambda *args: None)
    got = [tc.rep.key() for tc in tilting.classify_rank2(ctx, "paper").classes]
    assert got and got != expected


def _walks(monkeypatch):
    """The posets enumerate_classes walks, in order."""
    walked = []
    enumerate_classes = us.enumerate_classes

    def walk(poset, *args):
        walked.append(poset)
        return enumerate_classes(poset, *args)

    monkeypatch.setattr(us, "enumerate_classes", walk)
    return walked


@pytest.mark.parametrize("name", ["p1p1", "p1p2", "sigma1", "stacky"],
                         ids=_ID.get)
def test_every_base_gap_change_is_caught_before_the_base_walk(monkeypatch,
                                                              name):
    """zp mode: every single-entry ±1 change to H's gaps is refused by the
    closure of H's arrow table before H is walked.  Without it, some
    classifications lost or gained classes silently (P1xP2 with
    (fibers[0], fibers[1]) one higher listed 71 classes instead of 96)."""
    ctx = corpus.ctx(name)
    walked = _walks(monkeypatch)
    n = len(_h_poset(ctx).fibers)
    for a, b, delta in itertools.product(range(n), range(n), (1, -1)):
        _corrupt(monkeypatch, lambda poset: poset.ctx is not ctx, a, b, delta)
        with pytest.raises(InternalInvariantBroken, match=CLOSURE):
            tilting.classify_rank2(ctx, "zp")
    assert not walked


def _move_steps(steps, fibers, j, delta):
    """Move the level of the step x_j out of each of fibers by delta."""
    for a in fibers:
        b, t = steps[a][j]
        steps[a][j] = (b, t + delta)


def _after_the_closure(monkeypatch, move):
    """Apply move to H's single steps once H's closure has passed."""
    certify = tilting._certify_rank2

    def certified(h_poset):
        certify(h_poset)
        move(h_poset)

    monkeypatch.setattr(tilting, "_certify_rank2", certified)


@pytest.mark.parametrize("name", ["p1p1", "p1p2", "sigma1", "stacky"],
                         ids=_ID.get)
def test_every_base_single_step_change_is_caught_before_the_walks(
        monkeypatch, name):
    """Both modes: every single ±1 change to the level of one of H's
    single steps, the table the fibered search reads (a negative degree
    of G reads its step's inverse).  Made as the table is built, the
    closure of H's arrow table refuses it before any poset is walked.
    Made after that closure passed, the fibered search refuses it before
    any inner class is walked: the changed step no longer commutes with
    the others.  Without that check, 16 of the paper-mode changes were
    let through with other quivers (an entry missing whose constraint the
    fibered closure also drew from other entries), where paper mode
    searches fewer base classes than zp mode."""
    ctx = corpus.ctx(name)
    split = ctx.sign_split()
    assert split.l < ctx.n      # H's last degrees are negated ones of G
    walked = _walks(monkeypatch)
    n = len(_h_poset(ctx).fibers)
    for mode, a, j, delta in itertools.product(
            ("paper", "zp"), range(n), range(ctx.n), (1, -1)):
        walked.clear()

        def build(poset):
            steps = BUILD_STEPS(poset)
            _move_steps(steps, poset.fibers[a:a + 1], j, delta)
            return steps

        with monkeypatch.context() as patched:
            _patch(patched, "single_steps", build)
            with pytest.raises(InternalInvariantBroken, match=CLOSURE):
                tilting.classify_rank2(ctx, mode)
        assert not walked
        with monkeypatch.context() as patched:
            _after_the_closure(patched, lambda h_poset: _move_steps(
                h_poset.single_steps, h_poset.fibers[a:a + 1], j, delta))
            with pytest.raises(InternalInvariantBroken,
                               match="single steps do not commute"):
                tilting.classify_rank2(ctx, mode)
        assert all(poset.whole_group for poset in walked)


@pytest.mark.parametrize("name", ["p1p1", "p1p2", "sigma1", "stacky"],
                         ids=_ID.get)
def test_a_base_degree_one_level_off_is_caught_by_the_entries(monkeypatch,
                                                              name):
    """Both modes: one of H's degrees moved by ±1 on every fiber after
    H's closure passed.  Its steps still commute, so the fibered search
    reads an order that is consistent and wrong.  The re-derivation of
    each entry by group arithmetic refuses the first vector that lands
    falsely, before any inner class is walked.  (Without that check,
    _is_irreducible or the closure of the fibered table refuse every such
    change on the rank-two corpus.)"""
    ctx = corpus.ctx(name)
    walked = _walks(monkeypatch)
    for mode, j, delta in itertools.product(("paper", "zp"), range(ctx.n),
                                            (1, -1)):
        with monkeypatch.context() as patched:
            _after_the_closure(patched, lambda h_poset: _move_steps(
                h_poset.single_steps, h_poset.fibers, j, delta))
            with pytest.raises(InternalInvariantBroken,
                               match="does not land at level"):
                tilting.classify_rank2(ctx, mode)
        assert all(poset.whole_group for poset in walked)
