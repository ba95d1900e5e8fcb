from oracles import arrow_multiset, parse_dot
from stacktilt.quiver import Arrow, QuiverPresentation, monomial_label, to_dot


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
