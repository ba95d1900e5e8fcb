import itertools

import pytest

from oracles import arrow_multiset, parse_dot
from stacktilt.quiver import (Arrow, QuiverPresentation, Relation,
                              monomial_label, to_dot)


def test_monomial_label():
    assert monomial_label((1, 0, 0)) == "x1"
    assert monomial_label((1, 0, 1)) == "x1*x3"
    assert monomial_label((2, 1)) == "x1^2*x2"
    assert monomial_label((0, 0)) == "1"


def test_dot_round_trip():
    qp = QuiverPresentation(
        vertices=((0,), (1,), (-2,)),
        arrows=(Arrow((0,), (1,), "x1"), Arrow((0,), (-2,), "x2"),
                Arrow((1,), (-2,), "x1*x2")))
    text = to_dot(qp, name="t")
    nodes, edges = parse_dot(text)
    assert len(nodes) == 3 and len(edges) == 3
    assert sorted(lbl for _, _, lbl in edges) == ["x1", "x1*x2", "x2"]
    # emission is deterministic
    assert text == to_dot(qp, name="t")


def test_arrow_multiset():
    qp = QuiverPresentation(
        vertices=((0,), (1,)),
        arrows=(Arrow((0,), (1,), "x1"), Arrow((0,), (1,), "x2")))
    assert arrow_multiset(qp) == {((0,), (1,)): ["x1", "x2"]}


def test_value_types_sort_compare_and_hash_as_before():
    """Arrows sort by (source, target, label) and relations by (source,
    target, path_a, path_b); a presentation is equal exactly when its
    sorted vertices, arrows and relations are, and is unhashable."""
    arrows = [Arrow((1,), (0,), "x1"), Arrow((0,), (2,), "x2"),
              Arrow((0,), (1,), "x2"), Arrow((0,), (1,), "x1")]
    assert sorted(arrows) == sorted(
        arrows, key=lambda a: (a.source, a.target, a.label))
    relations = [Relation((0,), (2,), ("x2", "x1"), ("x1", "x2")),
                 Relation((0,), (2,), ("x1", "x2"), ("x2", "x1")),
                 Relation((0,), (1,), ("x2", "x1"), ("x1", "x2"))]
    assert sorted(relations) == sorted(
        relations, key=lambda r: (r.source, r.target, r.path_a, r.path_b))
    vertices = ((0,), (1,), (2,))
    qp = QuiverPresentation(vertices, tuple(arrows), tuple(relations))
    for order in itertools.permutations(range(3)):
        assert qp == QuiverPresentation(
            tuple(vertices[i] for i in order),
            tuple(arrows[i] for i in order) + (arrows[3],),
            tuple(relations[i] for i in order))
    assert qp.arrows == tuple(sorted(arrows))
    assert qp != QuiverPresentation(vertices, tuple(arrows[1:]),
                                    tuple(relations))
    assert qp != QuiverPresentation(vertices, tuple(arrows), relations[1:])
    assert qp != QuiverPresentation(vertices[1:], tuple(arrows),
                                    tuple(relations))
    with pytest.raises(TypeError):
        hash(qp)
    assert Arrow((0,), (1,), "x1") != Relation((0,), (1,), "x1", "x2")
    assert Arrow((0,), (1,), "x1") not in set(relations)
