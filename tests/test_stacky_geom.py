import itertools
import json
import random

import pytest

import corpus
from oracles import (cohomology_dim_scan, count_lattice_points,
                     euler_characteristic_boundary, ext_dim,
                     fiber_constraints, is_trivial, xa_complex)
from stacktilt import stacky_geom as sg
from stacktilt import tilting
from stacktilt.errors import (InputError, NotAVertex, NotSimplicial,
                              OriginNotInterior, UnboundedContribution)
from stacktilt.graded_order import GradedDegreeGroup


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


def test_polytope_and_profile_read_as_before():
    p = sg.parse_polytope([[1, 0], [0, 1], [-1, -1]])
    assert (p.d, p.n, p.facets) == (2, 3, ((0, 1), (0, 2), (1, 2)))
    profile = sg.HomologyProfile(((-1, 0), (0, 2), (1, 1)))
    assert [profile.dim(k) for k in range(-1, 3)] == [0, 2, 1, 0]


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
    prof = sg.reduced_homology(xa_complex(p2, range(3)), p2.d, None)
    assert prof.dim(1) == 1 and prof.dim(0) == 0 and prof.dim(-1) == 0
    # empty support
    prof = sg.reduced_homology(xa_complex(p2, ()), p2.d, None)
    assert prof.dim(-1) == 1 and prof.dim(0) == 0
    # an edge is contractible
    prof = sg.reduced_homology(xa_complex(p2, (0, 1)), p2.d, None)
    assert is_trivial(prof)
    # two antipodal vertices of the square: S^0
    p1p1 = sg.parse_polytope(P1P1_VERTICES)
    prof = sg.reduced_homology(xa_complex(p1p1, (0, 1)), p1p1.d, None)
    assert prof.dim(0) == 1

    for p in (p2, p1p1):
        d = p.d
        full = sg.reduced_homology(xa_complex(p, range(p.n)), d, None)
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
    assert oracle.cohomology_dim(two, 0, None) == 3
    assert oracle.cohomology_dim(two, 1, None) == 0
    minus2 = -2 * ctx.degrees[0]
    assert oracle.cohomology_dim(minus2, 0, None) == 0
    assert oracle.cohomology_dim(minus2, 1, None) == 1
    assert oracle.all_r(minus2, None) == {0: 0, 1: 1}


def test_cohomology_p1p1_kunneth():
    p = sg.parse_polytope(P1P1_VERTICES)
    oracle = sg.CohomologyOracle(p, sg.gale_dual(p))
    ctx = oracle.ctx
    # O(-2, 0) in the bidegree of the first factor
    g = -2 * ctx.degrees[0]
    assert oracle.cohomology_dim(g, 1, None) == 1
    assert oracle.cohomology_dim(g, 0, None) == 0
    assert oracle.cohomology_dim(g, 2, None) == 0
    # O(-2,-2) has only H^2, of dimension 1
    g = -2 * ctx.degrees[0] - 2 * ctx.degrees[2]
    assert oracle.all_r(g, None) == {0: 0, 1: 0, 2: 1}


def test_ext_dim_examples(ctx_p23):
    oracle = sg.CohomologyOracle(sg.group_to_polytope(ctx_p23), ctx_p23)
    z = ctx_p23.group
    zero = z.zero()
    assert ext_dim(oracle, zero, zero, 0, None) == 1
    assert ext_dim(oracle, zero, z.canonicalize([6]), 0, None) == 2
    seg = sg.parse_polytope([[1], [-1]])
    p1 = sg.CohomologyOracle(seg, sg.gale_dual(seg))
    o1 = p1.ctx.degrees[0]
    assert ext_dim(p1, p1.ctx.group.zero(), o1, 0, None) == 2


def test_h0_agrees_with_hom_dim(ctx_p23, ctx_p1p1, ctx_zz2_d1):
    rng = random.Random(31)
    for ctx in (ctx_p23, ctx_p1p1, ctx_zz2_d1):
        oracle = sg.CohomologyOracle(sg.group_to_polytope(ctx), ctx)
        for _ in range(15):
            coords = [rng.randrange(o) for o in ctx.group.torsion_orders]
            coords += [rng.randint(-5, 5) for _ in range(ctx.group.free_rank)]
            g = ctx.group.from_coords(coords)
            assert oracle.cohomology_dim(g, 0, None) == ctx.hom_dim(g)


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
                assert oracle.cohomology_dim(g, r, None) == \
                    oracle.cohomology_dim(-ctx.p - g, d - r, None)


def test_field_independence(ctx_p23, ctx_p1p1):
    import itertools
    for ctx in (ctx_p23, ctx_p1p1):
        p = sg.group_to_polytope(ctx)
        for bits in itertools.product((0, 1), repeat=p.n):
            t = frozenset(i for i, b in enumerate(bits) if b)
            q = sg.reduced_homology(xa_complex(p, t), p.d, None)
            for char in (2, 3):
                assert sg.reduced_homology(xa_complex(p, t), p.d,
                                           char).dims == q.dims


def test_unbounded_detection():
    # x >= 0 alone in one variable is unbounded
    with pytest.raises(sg._Unbounded):
        count_lattice_points([((1,), 0)], 1)
    # empty region with a missing bound never reaches the unbounded level
    assert count_lattice_points([((1,), 0), ((-1,), -2)], 1) == 0
    assert count_lattice_points([((1,), 0), ((-1,), 3)], 1) == 4
    assert count_lattice_points(
        [((1, 0), 0), ((-1, 0), 2), ((0, 1), 0), ((0, -1), 2),
         ((1, 1), -1)], 2) == 8


def test_count_lattice_points_matches_box_scan():
    """The closed-form count of the last variable agrees with a scan of a
    box that holds the region, empty last ranges included."""
    rng = random.Random(53)
    for nvars in (1, 2, 3):
        for _ in range(40):
            box = [(tuple(s if j == i else 0 for j in range(nvars)), 4)
                   for i in range(nvars) for s in (1, -1)]
            extra = [(tuple(rng.randint(-3, 3) for _ in range(nvars)),
                      rng.randint(-4, 6)) for _ in range(rng.randint(0, 3))]
            rows = box + extra
            expected = sum(
                all(sum(c * v for c, v in zip(coeffs, x)) + const >= 0
                    for coeffs, const in rows)
                for x in itertools.product(range(-4, 5), repeat=nvars))
            assert count_lattice_points(rows, nvars) == expected


def test_h0_of_a_large_twist_on_p2():
    """h^0(O(40000)) on P2 is C(40002, 2); the last variable is counted in
    closed form, so the 40001 first-level values take well under a second."""
    p = sg.parse_polytope(P2_VERTICES)
    oracle = sg.CohomologyOracle(p, sg.gale_dual(p))
    g = 40000 * oracle.ctx.degrees[0]
    assert oracle.all_r(g, None) == {0: 800_060_001, 1: 0, 2: 0}


def test_fiber_count_guard(monkeypatch):
    """A fiber count refuses to loop over more than _MAX_PREFIX_STEPS values
    of its first d - 1 coordinates: h^0(O(t)) on P2 loops over t + 1."""
    p = sg.parse_polytope(P2_VERTICES)
    oracle = sg.CohomologyOracle(p, sg.gale_dual(p))
    x = oracle.ctx.degrees[0]
    with pytest.raises(InputError) as info:
        oracle.cohomology_dim(10 ** 12 * x, 0, None)
    assert info.value.details == {"support": [0, 1, 2],
                                  "bound": sg._MAX_PREFIX_STEPS}
    monkeypatch.setattr(sg, "_MAX_PREFIX_STEPS", 100)
    assert oracle.cohomology_dim(99 * x, 0, None) == 101 * 100 // 2
    with pytest.raises(InputError):
        oracle.cohomology_dim(100 * x, 0, None)


_SCAN_BOXES = {"p2p2": range(-4, 2), "stacky": range(-4, 3),   # free box
               "sigma1": range(-4, 3), "p23571": range(-31, 4),
               "zz2_b": range(-8, 4)}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UnboundedContribution as exc:
        return ("unbounded", exc.details)


@pytest.mark.parametrize("homology", ["exact", "scaled"])
@pytest.mark.parametrize("case", list(_SCAN_BOXES))
def test_cohomology_dim_matches_scan(case, homology, monkeypatch):
    """One shared oracle answers every (twist, r, field) of a box as the
    plain scan does, queried in shuffled order with the fields interleaved.
    These support complexes have no torsion, so their homology is the same
    over Q, F2 and F3; the scaled run multiplies each dim by the
    characteristic, so that a memo keyed without the field fails too.
    The oracle solves one preimage per canonical coordinate, in order."""
    ctx = corpus.ctx(case)
    group = ctx.group
    if homology == "scaled":
        exact = sg.reduced_homology

        def scaled(faces, ambient_dim, field):
            dims = exact(faces, ambient_dim, field).dims
            return sg.HomologyProfile(
                tuple((k, v * (field or 1)) for k, v in dims))
        monkeypatch.setattr(sg, "reduced_homology", scaled)
    solved = []
    solve = sg.solve_combination

    def counted_solve(degrees, g):
        solved.append(g.coords)
        return solve(degrees, g)
    monkeypatch.setattr(sg, "solve_combination", counted_solve)
    oracle = sg.CohomologyOracle(sg.group_to_polytope(ctx), ctx)
    twists = [group.from_coords(t + f) for t in itertools.product(
                  *(range(o) for o in group.torsion_orders))
              for f in itertools.product(_SCAN_BOXES[case],
                                         repeat=group.free_rank)]
    queries = [(g, r, field) for g in twists
               for r in range(oracle.polytope.d + 1) for field in (None, 2, 3)]
    random.Random(59).shuffle(queries)
    profiles: dict = {}
    for g, r, field in queries:
        assert _outcome(oracle.cohomology_dim, g, r, field) == \
            _outcome(cohomology_dim_scan, oracle, g, r, field, profiles), \
            (g.coords, r, field)
    m = group.n_coords
    assert solved == [tuple(int(i == j) for i in range(m)) for j in range(m)]


def test_verify_solves_each_twist_once(monkeypatch):
    """Verifying a stored P(2,3,5,7,11) set solves one preimage, that of
    the group's one canonical coordinate, forms each twist h - g once per
    pair for all r, and counts each fiber at most once."""
    stored = json.loads((corpus.PERFBENCH / "data" / "classes.json")
                        .read_text())["p23571"][0]
    ctx = corpus.ctx("p23571")
    elements = [ctx.group.from_coords(v) for v in stored]
    solves, counts, twists = [], [], []
    solve, count = sg.solve_combination, sg.CohomologyOracle._fiber_count
    dim = sg.CohomologyOracle.cohomology_dim

    def counted_solve(degrees, g):
        solves.append(g.coords)
        return solve(degrees, g)

    def counted_count(self, coords, support):
        counts.append((coords, support))
        return count(self, coords, support)

    def counted_dim(self, g, r, field):
        twists.append(g)
        return dim(self, g, r, field)
    monkeypatch.setattr(sg, "solve_combination", counted_solve)
    monkeypatch.setattr(sg.CohomologyOracle, "_fiber_count", counted_count)
    monkeypatch.setattr(sg.CohomologyOracle, "cohomology_dim", counted_dim)
    oracle = sg.CohomologyOracle(sg.group_to_polytope(ctx), ctx)
    report = tilting.verify_class(oracle, elements, None)
    assert report.ok and len(report.checked) == 4 * len(elements) ** 2
    assert solves == [(1,)]
    assert len(twists) == len(report.checked)
    assert len({id(g) for g in twists}) == len(elements) ** 2
    assert len(counts) == len(set(counts)) > 0


def test_unbounded_contribution_names_the_first_support(monkeypatch):
    """No fiber of these inputs is infinite, so every count is made to
    raise: each r reports the first nonzero support in sign-pattern order,
    as the scan does, also when the memoized outcome is asked again.  The
    oracle and the scan's count_lattice_points both count through
    _count_eliminated."""
    def unbounded(eliminated, point):
        raise sg._Unbounded()
    monkeypatch.setattr(sg, "_count_eliminated", unbounded)
    raised = 0
    for verts in (P1P1_VERTICES, P2_VERTICES):
        p = sg.parse_polytope(verts)
        oracle = sg.CohomologyOracle(p, sg.gale_dual(p))
        g = oracle.ctx.degrees[0]
        for field in (None, 2, None):
            for r in range(p.d + 1):
                expected = _outcome(cohomology_dim_scan, oracle, g, r, field,
                                    {})
                assert _outcome(oracle.cohomology_dim, g, r, field) == \
                    expected
                raised += expected != 0
    assert raised == 15   # every r but H^1 of P2, whose sum is empty


_CORPUS = ["p2", "p1p1", "p2p2", "p23571", "sigma1", "stacky", "zz2_d1",
           "zz2_d2", "zz2_b", "zz3"]


def _oracle(doc):
    ctx = corpus.ctx(doc)
    return sg.CohomologyOracle(sg.group_to_polytope(ctx), ctx)


def _supports(n):
    """Every sign support, in sign-pattern order."""
    return [frozenset(i for i, b in enumerate(bits) if b)
            for bits in itertools.product((0, 1), repeat=n)]


@pytest.mark.parametrize("case", _CORPUS)
def test_skipped_supports_have_no_homology(case):
    """Over Q, F2 and F3, every support the oracle skips as a cone has an
    all-zero profile, and the supports it tables per degree are those of
    the plain 2^n scan, in the same order."""
    oracle = _oracle(case)
    p = oracle.polytope
    supports = _supports(p.n)
    kept = set(oracle._non_cones)
    assert [t for t in supports if t in kept] == list(oracle._non_cones)
    for field in (None, 2, 3):
        profiles = {t: sg.reduced_homology(xa_complex(p, t), p.d, field)
                    for t in supports}
        assert all(is_trivial(profiles[t]) for t in supports if t not in kept)
        for k in range(-1, p.d):
            assert oracle._nonzero_supports(k, field) == [
                (t, profiles[t].dim(k)) for t in supports
                if profiles[t].dim(k)]


@pytest.mark.parametrize("case", _CORPUS)
def test_non_cone_faces_match_the_set_reference(case):
    """The support pass lists each non-cone support's maximal faces as the
    set-based xa_complex finds them."""
    oracle = _oracle(case)
    p = oracle.polytope
    for t, faces in oracle._non_cones.items():
        assert faces == xa_complex(p, t), (case, sorted(t))


def _count_outcome(fn, *args):
    try:
        return fn(*args)
    except sg._Unbounded:
        return "unbounded"
    except sg._TooManySteps:
        return "too many steps"


def test_eliminated_counts_match_fresh_constraints(monkeypatch):
    """A support's systems, eliminated once with the twist's coordinates
    left symbolic, count every twist of a box as count_lattice_points
    counts the rows built afresh from a preimage solved for that twist:
    the same count, the same _Unbounded (cone supports have infinite
    fibers) and the same guard, lowered here so that the box reaches it."""
    monkeypatch.setattr(sg, "_MAX_PREFIX_STEPS", 12)
    boxes = {"p2": range(-14, 15), "p1p1": range(-4, 5),
             "p2p2": range(-3, 3), "p23571": range(-31, 8),
             "stacky": range(-3, 3), "zz2_b": range(-8, 6),
             "zz3": range(-6, 6)}
    seen = set()
    for case, box in boxes.items():
        oracle = _oracle(case)
        group = oracle.ctx.group
        for t in itertools.product(*(range(o) for o in group.torsion_orders)):
            for f in itertools.product(box, repeat=group.free_rank):
                g = group.from_coords(t + f)
                for support in _supports(oracle.polytope.n):
                    outcome = _count_outcome(oracle._fiber_count, g.coords,
                                             support)
                    assert outcome == _count_outcome(
                        count_lattice_points,
                        fiber_constraints(oracle, g, support),
                        oracle.polytope.d), (case, g.coords, support)
                    seen.add(outcome if isinstance(outcome, str) else "count")
    assert seen == {"count", "unbounded", "too many steps"}


@pytest.mark.parametrize("case, computed, supports",
                         [("p2p2", 4, 64), ("p23571", 2, 32)])
def test_homology_only_of_non_cone_supports(case, computed, supports,
                                            monkeypatch):
    """Every H^r of a twist needs the homology of the non-cone supports
    only: 4 of P2xP2's 64 (the empty one, the two triangles and all six
    vertices) and 2 of P(2,3,5,7,11)'s 32 (the empty one and all five)."""
    calls = []
    exact = sg.reduced_homology

    def counted(faces, ambient_dim, field):
        calls.append(faces)
        return exact(faces, ambient_dim, field)
    monkeypatch.setattr(sg, "reduced_homology", counted)
    oracle = _oracle(case)
    oracle.all_r(oracle.ctx.degrees[0], None)
    assert 2 ** oracle.polytope.n == supports and len(calls) == computed


def test_oracle_refuses_more_than_max_vertices():
    """The support scan is exponential in n: P^9 (n = 10) is accepted and
    P^10 refused before any scan."""
    doc = {"group": {"free_rank": 1, "degrees": [[1]] * sg._MAX_VERTICES}}
    assert len(_oracle(doc)._non_cones) == 2
    doc["group"]["degrees"].append([1])
    with pytest.raises(InputError) as info:
        _oracle(doc)
    assert info.value.details == {"n": 11, "bound": 10}


def test_oracle_refuses_degrees_that_do_not_fit_the_polytope(
        z_group, ctx_p23):
    """P^2's polytope with the two degrees of P(2,3), and with the three
    degrees of P(1,2,3), of which its rows are no relations."""
    p2 = sg.parse_polytope(P2_VERTICES)
    with pytest.raises(InputError, match="vertex count"):
        sg.CohomologyOracle(p2, ctx_p23)
    p123 = GradedDegreeGroup.build(
        z_group, [z_group.canonicalize([w]) for w in (1, 2, 3)])
    with pytest.raises(InputError, match="not relations"):
        sg.CohomologyOracle(p2, p123)
