import pytest

from oracles import (admits_proper_superset, enumerate_classes_window,
                     i_contains, j_of_upper)
from stacktilt import upper_sets as us
from stacktilt.errors import NotAntichain, NotMinimal, TrivialUpperSet


def _poset(ctx):
    return us.GroupPoset(ctx)


def _mk(ctx, values):
    return [ctx.group.canonicalize([v] if isinstance(v, int) else list(v))
            for v in values]


def test_j_of_upper_examples(ctx_p23, make_pd):
    poset = _poset(ctx_p23)
    z = ctx_p23.group
    j = j_of_upper(poset, _mk(ctx_p23, [0, 1]))
    assert [e.coords[0] for e in j.elements] == [0, 1, 2, 3, 4]
    j0 = j_of_upper(poset, _mk(ctx_p23, [0]))
    assert [e.coords[0] for e in j0.elements] == [0, 2, 3, 4, 6]
    ctx = make_pd(3)
    jp = j_of_upper(_poset(ctx), [ctx.group.zero()])
    assert [e.coords[0] for e in jp.elements] == [0, 1, 2, 3]
    with pytest.raises(TrivialUpperSet):
        j_of_upper(poset, [])


def test_i_contains(ctx_p23):
    poset = _poset(ctx_p23)
    j1 = us.checked(poset, _mk(ctx_p23, [0, 1, 2, 3, 4]))
    z = ctx_p23.group
    assert i_contains(j1, z.canonicalize([7]))
    assert not i_contains(j1, z.canonicalize([-1]))
    j2 = us.checked(poset, _mk(ctx_p23, [0, 2, 3, 4, 6]))
    assert not i_contains(j2, z.canonicalize([1]))


def test_is_antichain_rep(ctx_p23):
    poset = _poset(ctx_p23)
    ok, wit = us.is_antichain_rep(poset, _mk(ctx_p23, [0, 1, 2, 3, 4]))
    assert ok and wit is None
    ok, wit = us.is_antichain_rep(poset, _mk(ctx_p23, [0, 1, 2, 3, 9]))
    assert not ok and wit["reason"] == "antichain"
    ok, wit = us.is_antichain_rep(poset, _mk(ctx_p23, [0, 1, 2, 3]))
    assert not ok and wit["reason"] == "missing_fiber"


def test_mutable_and_mutate(ctx_p23, make_pd):
    poset = _poset(ctx_p23)
    j1 = us.checked(poset, _mk(ctx_p23, [0, 1, 2, 3, 4]))
    assert sorted(e.coords[0] for e in us.mutable_elements(j1)) == [0, 1]
    j2 = us.checked(poset, _mk(ctx_p23, [0, 2, 3, 4, 6]))
    assert [e.coords[0] for e in us.mutable_elements(j2)] == [0]

    ctx1 = make_pd(1)
    p1 = _poset(ctx1)
    jp = us.checked(p1, _mk(ctx1, [0, 1]))
    assert [e.coords[0] for e in us.mutable_elements(jp)] == [0]
    mut = us.mutate(jp, ctx1.group.zero())
    assert [e.coords[0] for e in mut.elements] == [1, 2]

    m0 = us.mutate(j1, ctx_p23.group.zero())
    assert [e.coords[0] for e in m0.elements] == [1, 2, 3, 4, 5]
    with pytest.raises(NotMinimal):
        us.mutate(j1, ctx_p23.group.canonicalize([2]))


def test_mutate_inverse_identity(ctx_p23, ctx_zz2_d1):
    for ctx in (ctx_p23, ctx_zz2_d1):
        poset = _poset(ctx)
        rep = us.seed_slab(poset)
        for m in us.mutable_elements(rep):
            shifted = us.mutate(rep, m)
            back = us.mutate_up(shifted, poset.shift(m, 1))
            assert back.key() == rep.key()


def test_canonical_form(ctx_p23):
    poset = _poset(ctx_p23)
    rep = us.AntichainRep(poset, _mk(ctx_p23, [1, 2, 3, 4, 5]))
    assert [e.coords[0] for e in us.canonical_form(rep, "full").elements] \
        == [0, 1, 2, 3, 4]
    rep = us.AntichainRep(poset, _mk(ctx_p23, [5, 6, 7, 8, 9]))
    assert [e.coords[0] for e in us.canonical_form(rep, "zp").elements] \
        == [0, 1, 2, 3, 4]
    rep = us.AntichainRep(poset, _mk(ctx_p23, [0, 2, 3, 4, 6]))
    assert us.canonical_form(rep, "full").key() == rep.key()


def test_enumerate_classes_counts(ctx_p23, ctx_zz2_d1, make_pd):
    assert len(us.enumerate_classes(_poset(ctx_p23), "full")) == 2
    assert len(us.enumerate_classes(_poset(ctx_zz2_d1), "full")) == 2
    for d in (1, 2, 3):
        assert len(us.enumerate_classes(_poset(make_pd(d)), "full")) == 1


def test_enumerate_matches_window_oracle(ctx_p23, ctx_zz2_d1, ctx_zz2_d2,
                                         make_pd):
    for ctx in (ctx_p23, ctx_zz2_d1, ctx_zz2_d2, make_pd(2)):
        poset = _poset(ctx)
        for mode in ("full", "zp"):
            bfs = [r.key() for r in us.enumerate_classes(poset, mode)]
            window = [r.key() for r in
                      enumerate_classes_window(poset, mode, window=4)]
            assert bfs == window


def test_bijectivity_round_trips(ctx_p23, ctx_zz2_d1, ctx_zz2_d2, make_pd):
    # J(I(J)) == J on every enumerated class; I(J(I)) == I on generated uppers
    for ctx in (ctx_p23, ctx_zz2_d1, ctx_zz2_d2, make_pd(2)):
        poset = _poset(ctx)
        for rep in us.enumerate_classes(poset, "zp"):
            gens = us.mutable_elements(rep)
            again = j_of_upper(poset, gens)
            assert again.key() == rep.key()
    poset = _poset(ctx_p23)
    z = ctx_p23.group
    for gens in ([0], [0, 1], [0, 1, 5]):
        gen_els = _mk(ctx_p23, gens)
        j = j_of_upper(poset, gen_els)
        for v in range(-10, 15):
            e = z.canonicalize([v])
            in_i = any(ctx_p23.leq(g, e) for g in gen_els)
            assert i_contains(j, e) == in_i


def test_maximality_for_free(ctx_p23, ctx_zz2_d1):
    for ctx in (ctx_p23, ctx_zz2_d1):
        poset = _poset(ctx)
        for rep in us.enumerate_classes(poset, "zp"):
            assert len(rep.elements) == len(poset.fibers)
            assert not admits_proper_superset(rep, window=3)


def test_connect(ctx_p23, make_pd):
    poset = _poset(ctx_p23)
    j1 = us.checked(poset, _mk(ctx_p23, [0, 1, 2, 3, 4]))
    j2 = us.checked(poset, _mk(ctx_p23, [0, 2, 3, 4, 6]))
    assert us.connect(j1, j2, mode="full") == [((3,), -1)]
    assert us.connect(j2, j1, mode="full") == [((1,), -1)]
    assert us.connect(j1, j1, mode="full") == []
    ctx1 = make_pd(1)
    p1 = _poset(ctx1)
    a = us.checked(p1, _mk(ctx1, [0, 1]))
    b = us.checked(p1, _mk(ctx1, [1, 2]))
    moves = us.connect(a, b, mode="zp")
    assert len(moves) == 1 and moves[0][1] == 1


def test_checked_raises(ctx_p23):
    poset = _poset(ctx_p23)
    with pytest.raises(NotAntichain):
        us.checked(poset, _mk(ctx_p23, [0, 1, 2, 3, 9]))


def test_class_ceiling(ctx_p23):
    from stacktilt.errors import ClassCountExceeded
    with pytest.raises(ClassCountExceeded):
        us.enumerate_classes(_poset(ctx_p23), "zp", max_classes=3)
