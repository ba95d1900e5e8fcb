import random

import pytest

import corpus
from oracles import element_order, lattice_contains
from stacktilt import _intlinalg
from stacktilt.abgroup import (FgAbelianGroup, GroupHom, direct_sum_group,
                               relation_kernel, solve_combination)
from stacktilt.errors import (DimensionMismatch, EnumerateInfinite, InputError,
                              InternalInvariantBroken)


def test_from_presentation_examples():
    g = FgAbelianGroup(1, [[2]])
    to = g.canonicalize
    assert (g.free_rank, g.torsion_orders) == (0, (2,))
    assert to([3]).coords == (1,)

    g2 = FgAbelianGroup(2, [])
    assert (g2.free_rank, g2.torsion_orders) == (2, ())

    g3 = FgAbelianGroup(2, [[2, 0], [0, 3]])
    assert (g3.free_rank, g3.torsion_orders) == (0, (6,))


def test_canonicalize_examples(zz2_group):
    z2 = FgAbelianGroup(2, [])
    assert z2.canonicalize([5, -1]).coords == (5, -1)
    e = zz2_group.canonicalize([1, 3])
    assert e.torsion_part() == (1,) and e.free_part() == (1,)
    with pytest.raises(DimensionMismatch):
        zz2_group.canonicalize([1, 2, 3])


def test_canonicalize_constant_on_cosets():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        rels = [[rng.randint(-6, 6) for _ in range(n)]
                for _ in range(rng.randint(0, 4))]
        g = FgAbelianGroup(n, rels)
        v = [rng.randint(-9, 9) for _ in range(n)]
        e = g.canonicalize(v)
        # idempotent through the section
        assert g.canonicalize(g.section_vector(e)) == e
        for _ in range(5):
            w = list(v)
            for row in rels:
                c = rng.randint(-3, 3)
                w = [a + c * b for a, b in zip(w, row)]
            assert g.canonicalize(w) == e


def test_quotient_examples(z2_group, z_group):
    q, _ = z2_group.quotient_by([z2_group.canonicalize([2, 2])])
    assert (q.free_rank, q.torsion_orders) == (1, (2,))
    q2, _ = z2_group.quotient_by([z2_group.canonicalize([3, 2])])
    assert (q2.free_rank, q2.torsion_orders) == (1, ())
    q3, _ = z_group.quotient_by([z_group.canonicalize([5])])
    assert (q3.free_rank, q3.torsion_orders) == (0, (5,))


def test_quotient_kernel_is_exactly_subgroup():
    # projection kills exactly <S>, brute-forced on finite groups
    rng = random.Random(11)
    for _ in range(20):
        orders = [rng.choice([2, 3, 4, 5]) for _ in range(rng.randint(1, 3))]
        g = direct_sum_group(0, orders)
        if g.size() > 200:
            continue
        elements = g.enumerate_finite()
        sub = [rng.choice(elements) for _ in range(rng.randint(1, 2))]
        _, proj = g.quotient_by(sub)
        generated = {g.zero()}
        frontier = [g.zero()]
        while frontier:
            nxt = []
            for e in frontier:
                for s in sub:
                    for cand in (e + s, e - s):
                        if cand not in generated:
                            generated.add(cand)
                            nxt.append(cand)
            frontier = nxt
        for e in elements:
            assert (proj(e).is_zero()) == (e in generated)


def test_element_order(zz2_group):
    assert element_order(zz2_group, zz2_group.canonicalize([1, 0])) is None
    assert element_order(zz2_group, zz2_group.canonicalize([0, 1])) == 2
    z5 = FgAbelianGroup(1, [[5]])
    assert element_order(z5, z5.canonicalize([2])) == 5


def test_size_and_enumeration(zz2_group):
    z5 = FgAbelianGroup(1, [[5]])
    assert z5.size() == 5
    assert sorted(e.coords for e in z5.enumerate_finite()) == [
        (0,), (1,), (2,), (3,), (4,)]
    assert zz2_group.size() is None
    with pytest.raises(EnumerateInfinite):
        zz2_group.enumerate_finite()
    trivial = FgAbelianGroup(1, [[1]])
    assert trivial.size() == 1
    assert len(trivial.enumerate_finite()) == 1


def test_enumeration_matches_size():
    rng = random.Random(5)
    for _ in range(10):
        orders = [rng.choice([2, 3, 6]) for _ in range(rng.randint(0, 3))]
        g = direct_sum_group(0, orders)
        assert len(g.enumerate_finite()) == g.size()


def test_hom_order_validation(zz2_group, z_group):
    with pytest.raises(InputError):
        GroupHom(zz2_group, z_group, [z_group.canonicalize([1]),
                                      z_group.canonicalize([3])])


def test_quotient_section(z2_group):
    q, hom = z2_group.quotient_by([z2_group.canonicalize([2, 2])])
    for e in [q.from_coords([1, 0]), q.from_coords([0, 3]),
              q.from_coords([1, -2])]:
        assert hom(hom.section(e)) == e
    # a hom given by its images alone has no section
    plain = GroupHom(z2_group, q, [hom(z2_group.from_coords(v))
                                   for v in ([1, 0], [0, 1])])
    with pytest.raises(InputError, match="no section"):
        plain.section(q.from_coords([1, 0]))


def test_relation_kernel_and_solve(ctx_p23):
    degrees = list(ctx_p23.degrees)
    basis = relation_kernel(degrees)
    assert len(basis) == 1
    assert lattice_contains(basis, [3, -2])
    sol = solve_combination(degrees, ctx_p23.group.canonicalize([7]))
    assert sol is not None
    assert 2 * sol[0] + 3 * sol[1] == 7
    assert solve_combination([degrees[0]],
                             ctx_p23.group.canonicalize([3])) is None


# -- the element kernel ----------------------------------------------------

def _kernel_groups():
    """Groups with torsion: a non-diagonal relation, a direct sum, and
    random presentations (kept when they have torsion)."""
    groups = [FgAbelianGroup(2, [[2, 4]]), direct_sum_group(1, [2, 6]),
              direct_sum_group(2, [3]), FgAbelianGroup(3, [[4, 6, 2]])]
    rng = random.Random(26)
    while len(groups) < 14:
        n = rng.randint(1, 4)
        g = FgAbelianGroup(n, [[rng.randint(-8, 8) for _ in range(n)]
                               for _ in range(rng.randint(1, max(1, n - 1)))])
        if g.torsion_orders:
            groups.append(g)
    return groups


def _canonical(g, coords):
    """Canonical coordinates by hand: torsion slots (first) mod their
    orders, free slots as they are."""
    nt = len(g.torsion_orders)
    return (tuple(c % o for c, o in zip(coords, g.torsion_orders))
            + tuple(coords[nt:]))


@pytest.mark.parametrize("g", _kernel_groups(), ids=repr)
def test_element_ops_match_coordinatewise_from_coords(g):
    rng = random.Random(repr(g))
    k = g.n_coords
    for _ in range(40):
        u = [rng.randint(-30, 30) for _ in range(k)]
        v = [rng.randint(-30, 30) for _ in range(k)]
        a, b = g.from_coords(u), g.from_coords(v)
        assert a.coords == _canonical(g, u)
        for got, want in [
                (a + b, [x + y for x, y in zip(a.coords, b.coords)]),
                (a - b, [x - y for x, y in zip(a.coords, b.coords)]),
                (-a, [-x for x in a.coords])]:
            assert got == g.from_coords(want)
            assert got.coords == _canonical(g, want)
            assert g.canonicalize(g.section_vector(got)) == got
        for n in range(-4, 5):
            want = g.from_coords([n * x for x in a.coords])
            assert n * a == want and a * n == want
            assert want.coords == _canonical(g, [n * x for x in u])
        assert (a + b) - b == a and a + (-a) == g.zero()
        assert (0 * a).is_zero() and (a - b == a) == b.is_zero()


@pytest.mark.parametrize("g", _kernel_groups(), ids=repr)
def test_equal_elements_hash_equal(g):
    rng = random.Random(repr(g) + "hash")
    k = g.n_coords
    for _ in range(40):
        a = g.from_coords([rng.randint(-30, 30) for _ in range(k)])
        b = g.from_coords([rng.randint(-30, 30) for _ in range(k)])
        for x, y in [(a + b, b + a), ((a - b) + b, a),
                     (g.from_coords(list(a.coords)), a),
                     (2 * a, a + a), (-(-a), a)]:
            assert x == y and hash(x) == hash(y)
        assert len({a + b, b + a, (a - b) + b, a}) == (1 if b.is_zero()
                                                       else 2)


def test_equal_coordinates_in_two_groups_stay_unequal():
    g1, g2 = direct_sum_group(1, [2, 6]), direct_sum_group(1, [2, 6])
    a, b = g1.from_coords([1, 5, -3]), g2.from_coords([1, 5, -3])
    assert a.coords == b.coords and a != b
    assert len({a, b}) == 2 and {a: 1, b: 2}[a] == 1
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(DimensionMismatch):
            op(a, b)
    with pytest.raises(DimensionMismatch):
        a + FgAbelianGroup(3, []).from_coords([1, 5, -3])


def test_from_coords_checks_length():
    g = FgAbelianGroup(2, [[2, 4]])
    for coords in ([], [1], [1, 2, 3]):
        with pytest.raises(DimensionMismatch):
            g.from_coords(coords)


@pytest.mark.parametrize("g", _kernel_groups()[:8], ids=repr)
def test_hom_is_the_sum_of_scaled_images(g):
    rng = random.Random(repr(g) + "hom")
    k = g.n_coords
    sub = [g.from_coords([rng.randint(-5, 5) for _ in range(k)])]
    quot, proj = g.quotient_by(sub)
    assert proj(sub[0]).is_zero()
    for _ in range(30):
        a = g.from_coords([rng.randint(-30, 30) for _ in range(k)])
        b = g.from_coords([rng.randint(-30, 30) for _ in range(k)])
        want = quot.zero()
        for c, img in zip(a.coords, proj.images):
            want = want + c * img
        assert proj(a) == want
        assert proj(a + b) == proj(a) + proj(b)
        assert proj(proj.section(proj(a))) == proj(a)


def test_hom_images_must_lie_in_the_target(z_group):
    other = FgAbelianGroup(1, [])
    with pytest.raises(DimensionMismatch):
        GroupHom(z_group, z_group, [other.canonicalize([1])])


def test_theta_val_is_theta_on_the_free_part():
    """On the rank-two context G = Z^2 + Z/2 and on its base H = G/Zp
    (Z + Z/2 + Z/2), theta read off padded coordinates equals theta dotted
    with the free part."""
    ctx = corpus.ctx("z2-torsion")
    split = ctx.sign_split()
    assert split.h_ctx.group.torsion_orders
    rng = random.Random(7)
    for c in (ctx, split.h_ctx):
        k = c.group.n_coords
        elements = [c.p, *c.degrees] + [
            c.group.from_coords([rng.randint(-20, 20) for _ in range(k)])
            for _ in range(40)]
        for e in elements:
            assert c.theta_val(e) == sum(
                t * f for t, f in zip(c.theta, e.free_part()))
    assert split.h_ctx.theta_val(split.s) == 2


def test_torsion_slots_first_is_checked(monkeypatch):
    """The element kernel reduces the leading slots only; a Smith form that
    put a free slot first would be an internal fault, raised as one."""
    monkeypatch.setattr(_intlinalg, "diagonal", lambda d, n: [0, 2])
    with pytest.raises(InternalInvariantBroken):
        FgAbelianGroup(2, [[2, 0]])
