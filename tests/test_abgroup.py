import random

import pytest

from oracles import element_order, lattice_contains
from stacktilt.abgroup import (FgAbelianGroup, direct_sum_group,
                               relation_kernel, solve_combination)
from stacktilt.errors import DimensionMismatch, EnumerateInfinite, InputError


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
    from stacktilt.abgroup import GroupHom
    with pytest.raises(InputError):
        GroupHom(zz2_group, z_group, [z_group.canonicalize([1]),
                                      z_group.canonicalize([3])])


def test_quotient_section(z2_group):
    q, hom = z2_group.quotient_by([z2_group.canonicalize([2, 2])])
    for e in [q.from_coords([1, 0]), q.from_coords([0, 3]),
              q.from_coords([1, -2])]:
        assert hom(hom.section(e)) == e


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
