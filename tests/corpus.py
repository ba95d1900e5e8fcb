"""The test inputs, each spelled once.

The benchmark's group documents are `perfbench/workloads.py`'s `DOCS`,
named here, not copied; every other named input is one CLI document
below.  The selections name what the cross-checks read: `RANK1` and
`RANK2` the element-level and corruption routes of `test_gap_table`,
`RANK1_ALL` and `RANK2_ALL` the walk-against-BFS, closure and quiver
routes (every benchmark stack and more).  `documents()` draws the
rank-one fuzz groups, `products()` the rank-two ones, and
`all_lattice_quotients()` lists the type-A~ lattices.
"""

import importlib.util
import math
import sys
from pathlib import Path

from hypothesis import strategies as st

from stacktilt import cli, cuts

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _group(free_rank, torsion, *degrees):
    return {"group": {"free_rank": free_rank, "torsion_orders": list(torsion),
                      "degrees": [list(v) for v in degrees]}}


DOCS = {
    **{name: doc for name, doc in workloads.DOCS.items() if "group" in doc},
    "p1": _group(1, (), (1,), (1,)),
    "p235": _group(1, (), (2,), (3,), (5,)),
    "minus": _group(2, (), (1, 0), (1, 0), (-1, 1), (0, 1)),
    "w12": _group(2, (), (1, 0), (2, 0), (0, 1), (0, 1)),
    "w12-second": _group(2, (), (1, 0), (1, 0), (0, 1), (0, 2)),
    "w23": _group(2, (), (2, 0), (3, 0), (0, 1), (0, 1)),
    "diagonal": _group(2, (), *[(1, 0)] * 3, *[(0, 1)] * 2, (1, 1)),
    "z2-torsion": _group(2, (2,), (1, 0, 0), (1, 0, 1), (0, 1, 0),
                         (0, 1, 1)),
    "z3-torsion": _group(2, (3,), (1, 0, 0), (1, 0, 1), (0, 1, 2),
                         (0, 1, 0)),
}

RANK1 = ["p23", "p345", "p4567", "zz2_d1", "zz2_d2", "zz2_b", "zz3"]
RANK1_ALL = RANK1 + ["p2", "p457", "p2357", "p5711", "p23571"]
RANK2 = ["p1p2", "p2p2", "sigma1", "stacky"]
RANK2_ALL = RANK2 + ["p1p1", "p1p3", "minus", "w12", "w12-second", "w23",
                     "diagonal", "z2-torsion", "z3-torsion"]
# zp mode lists 3,660 and 8,908 classes on these, too many for the suite
PAPER_ONLY = ["w23", "z3-torsion"]


def ctx(doc):
    """The graded group of a corpus name or a document, as the CLI
    builds it."""
    return cli._build_context(DOCS[doc] if isinstance(doc, str) else doc)[0]


MAX_QUOTIENT = 12
JUNK = st.sampled_from([1.5, "1", None, True, [], [1, 0, 0]])


@st.composite
def documents(draw):
    """Rank-one groups with at most three degrees of weight 1..5, torsion
    of order at most 3 and |G/Zp| <= MAX_QUOTIENT; one in five has a
    malformed entry."""
    torsion = draw(st.sampled_from([0, 2, 3]))
    budget = MAX_QUOTIENT // max(torsion, 1)
    weights = []
    for _ in range(draw(st.integers(1, 3))):
        if budget:
            weights.append(draw(st.integers(1, min(5, budget))))
            budget -= weights[-1]
    degrees = [[w] + ([draw(st.integers(0, torsion - 1))] if torsion else [])
               for w in weights]
    group = {"free_rank": 1, "degrees": degrees}
    if torsion:
        group["torsion_orders"] = [torsion]
    if draw(st.integers(0, 4)) == 0:   # one malformed entry
        where = draw(st.sampled_from(["entry", "degree", "free_rank",
                                      "torsion"]))
        if where == "entry":
            degrees[0][draw(st.integers(0, len(degrees[0]) - 1))] = draw(JUNK)
        elif where == "degree":
            degrees[draw(st.integers(0, len(degrees) - 1))] = draw(JUNK)
        elif where == "free_rank":
            group["free_rank"] = draw(JUNK)
        else:
            group["torsion_orders"] = [draw(JUNK)]
    return {"group": group}


def _axis(draw, most):
    """Two or three weights of 1..3, of gcd 1 and sum at most most (>= 2)."""
    count = draw(st.integers(2, min(3, most)))
    weights = []
    for left in reversed(range(count)):
        room = most - sum(weights) - left    # each weight left needs 1
        weights.append(draw(st.integers(1, min(3, room))))
    if math.gcd(*weights) != 1:
        weights[0] = 1
    return weights


def _tied(weights, parities):
    """The Z/2 values of an axis that vanish on every relation among its
    weights: none, or each weight's own parity."""
    return parities in ([0] * len(weights), [w % 2 for w in weights])


@st.composite
def products(draw):
    """Valid rank-two documents: weighted products such as w12 and w23,
    degrees (w, 0) and (0, v) with two or three weights of 1..3 per axis,
    each axis of gcd 1.  One in two adds a Z/2 coordinate, which the
    degrees generate when the parities on some axis are not _tied; a draw
    tied on both axes gets a parity flipped on the first axis.  |H/Zs|,
    with H = G/Zp and s the sum of one axis's degrees, is (sum of w) x
    (sum of v) x (2 with Z/2), at most MAX_QUOTIENT."""
    order = draw(st.sampled_from([1, 2]))
    first = _axis(draw, MAX_QUOTIENT // (2 * order))
    second = _axis(draw, MAX_QUOTIENT // (sum(first) * order))
    degrees = [[w, 0] for w in first] + [[0, v] for v in second]
    if order == 1:
        return _group(2, (), *degrees)
    parities = [[draw(st.integers(0, 1)) for _ in axis]
                for axis in (first, second)]
    if _tied(first, parities[0]) and _tied(second, parities[1]):
        # flipping x1 leaves the first axis tied only when its weights'
        # parities are (1, 0, ...), and then flipping x2 does not
        flipped = [1 - parities[0][0]] + parities[0][1:]
        parities[0][1 if _tied(first, flipped) else 0] ^= 1
    return _group(2, (2,), *(d + [t] for d, t in zip(
        degrees, parities[0] + parities[1])))


def all_lattice_quotients():
    """Every cofinite B with m <= 8, d <= 2 (Hermite normal forms)."""
    out = [cuts.build_quotient(1, [cuts.l_vector([m])]) for m in range(1, 9)]
    for m in range(1, 9):
        for a in range(1, m + 1):
            if m % a:
                continue
            for b in range(a):
                gens = [cuts.l_vector([a, 0]), cuts.l_vector([b, m // a])]
                out.append(cuts.build_quotient(2, gens))
    return out
