"""The benchmark's four workloads: seeded job lists and reference checks.

A job is one `stacktilt` command on one input document.  Its argv names
the document as "{input}"; the runner substitutes the path of the file it
writes.  Every job carries its expected exit code and a check that does not
come from the program under test (a known answer from the paper, an
independent formula such as Bott's, or a consistency rule of the report).
On top of that, run.py compares the stdout digest with the one pinned in
data/digests.json whenever the same command on the same document was
recorded there.

Why these workloads (measured on the seed commit with the traced run):

- rank1: `upper_sets` (antichain checks, canonical forms) and
  `graded_order.leq` dominate; the oracle and detector enumeration are
  idle.  Paper mode (few classes, canonical forms over all of G/Zp) and
  zp mode (many classes, cheap slab shift) use `upper_sets` in two ways.
- rank2: `graded_order.monomials` under `tilting.endomorphism_quiver`
  dominates; `upper_sets` is a small share, so this is the no-change
  control for work on the rank-one classifier.
- oracle: `stacky_geom` (cohomology, reduced homology, Smith solves)
  dominates and no classification runs.  `verify` asks many Ext groups of
  one oracle, `cohomology` one twist per oracle.
- cuts: `cuts.enumerate_detectors` (2^(m-1) candidate tables) dominates;
  it is the only workload that reaches detector and exhaustive cut
  enumeration in earnest.  The m = 26 lattice is left out: it does not
  finish in 20 s at the seed commit.

Each workload also runs a short tour (`_tour`): tiny commands that enter
the traced entry points its own jobs never reach, about 0.01 s of main
each.  A layer left idle would report a self time of exactly 0 on every
run, which is no measurement; with the tour it is a small measured time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Optional

DATA = Path(__file__).resolve().parent / "data"
DEFAULT_SEED = 0


def _rank1(*degrees) -> dict:
    return {"group": {"free_rank": 1, "torsion_orders": [],
                      "degrees": [[w] for w in degrees]}}


def _torsion(order: int, *degrees) -> dict:
    return {"group": {"free_rank": 1, "torsion_orders": [order],
                      "degrees": [list(v) for v in degrees]}}


def _rank2(*degrees) -> dict:
    return {"group": {"free_rank": 2, "torsion_orders": [],
                      "degrees": [list(v) for v in degrees]}}


def _product(a: int, b: int) -> dict:
    return _rank2(*([(1, 0)] * (a + 1) + [(0, 1)] * (b + 1)))


DOCS = {
    "p2": _rank1(1, 1, 1),
    "p23": _rank1(2, 3),
    "p345": _rank1(3, 4, 5),
    "p4567": _rank1(4, 5, 6, 7),
    "p5711": _rank1(5, 7, 11),
    "p23571": _rank1(2, 3, 5, 7, 11),
    "zz2_d1": _torsion(2, (1, 0), (1, 1)),
    "zz2_d2": _torsion(2, (1, 0), (1, 0), (1, 1)),
    "zz2_b": _torsion(2, (1, 0), (2, 1), (3, 0)),
    "zz3": _torsion(3, (1, 0), (1, 1), (1, 2)),
    "p1p1": _product(1, 1),
    "p1p2": _product(1, 2),
    "p1p3": _product(1, 3),
    "p2p2": _product(2, 2),
    "sigma1": _rank2((1, 0), (1, 0), (1, 1), (0, 1)),
    "stacky": _rank2((1, -1), (1, 0), (1, 1), (0, 1)),
    "p457": _rank1(4, 5, 7),
    "p2357": _rank1(2, 3, 5, 7),
    "lattice_m5": {"lattice": {"d": 1, "b_generators": [[5, -5]],
                               "gamma": [2, 3]}},
    "lattice_m5_bad": {"lattice": {"d": 1, "b_generators": [[5, -5]],
                                   "gamma": [1, 3]}},
    "lattice_m12": {"lattice": {"d": 2,
                                "b_generators": [[-2, 2, 0], [0, -6, 6]]}},
}


@dataclass
class Job:
    """One CLI command; `check` returns a failure message or None."""

    key: str
    doc: str
    argv: list
    expect_exit: Optional[int] = 0      # None: 0 or 1, as `ok` says
    check: Optional[Callable[[dict], Optional[str]]] = None
    pair: Optional[str] = None          # Serre-dual partner's key

    def digest_key(self) -> str:
        return json.dumps({"argv": self.argv, "doc": DOCS[self.doc]},
                          sort_keys=True)


# -- reference checks ---------------------------------------------------

def _rank1_classes(report: dict) -> list:
    return [sorted(c["line_bundles"]) for c in report["classes"]]


def _rank2_classes(report: dict) -> list:
    return [c for g in report["j_classes"] for c in g["classes"]]


def check_rank1(count=None, size=None, exact=None):
    """Class count, bundles per class (rank of K_0) and known classes."""
    def check(report):
        classes = _rank1_classes(report)
        if report["class_count"] != len(classes):
            return "class_count disagrees with the class list"
        if count is not None and len(classes) != count:
            return f"expected {count} classes, got {len(classes)}"
        if size is not None and any(len(c) != size for c in classes):
            return f"expected {size} line bundles per class"
        if len({c["id"] for c in report["classes"]}) != len(classes):
            return "class ids repeat"
        if exact is not None and sorted(classes) != sorted(exact):
            return f"expected classes {exact}, got {classes}"
        return None
    return check


def check_rank2(count=None, size=None):
    def check(report):
        classes = _rank2_classes(report)
        if report["total_classes"] != len(classes):
            return "total_classes disagrees with the class list"
        if count is not None and len(classes) != count:
            return f"expected {count} classes, got {len(classes)}"
        if size is not None and any(len(c["line_bundles"]) != size
                                    for c in classes):
            return f"expected {size} line bundles per class"
        return None
    return check


def check_walk(report):
    moves = report["moves"]
    if report["length"] != len(moves) or not moves:
        return "walk length disagrees with its moves"
    if any(m["direction"] not in (1, -1) for m in moves):
        return "a move has a direction other than +-1"
    return None


def check_verify(size, d, must_pass):
    """`checked` counts every (g, h, r); `ok` matches the failure list."""
    def check(report):
        entry, = report["classes"]
        if entry["checked"] != size * size * d:
            return f"checked {entry['checked']}, expected {size * size * d}"
        if report["ok"] != (not entry["failures"]) or entry["ok"] != report["ok"]:
            return "ok disagrees with the failure list"
        if must_pass and not report["ok"]:
            return "a classified tilting set failed verification"
        return None
    return check


def _h_pn(n: int, a: int) -> dict:
    """Bott: the cohomology of O(a) on P^n, as {degree: dimension}."""
    if a >= 0:
        return {0: comb(a + n, n)}
    if a <= -n - 1:
        return {n: comb(-a - 1, n)}
    return {}


def check_bott_kunneth(n1: int, n2: int, a: int, b: int):
    """H^r(P^n1 x P^n2, O(a, b)) from Bott's formula and Kunneth."""
    expect = {r: 0 for r in range(n1 + n2 + 1)}
    for i, x in _h_pn(n1, a).items():
        for j, y in _h_pn(n2, b).items():
            expect[i + j] += x * y

    def check(report):
        got = {int(r): v for r, v in report["dims"].items()}
        return None if got == expect else f"O({a},{b}): {got} != {expect}"
    return check


def check_cuts(m, admissible=True):
    """Every cut of a positive type is bounding; counts add up."""
    def check(report):
        if report["m"] != m:
            return f"|L/B| = {report['m']}, expected {m}"
        if "type" in report and report["admissible"] != admissible:
            return "admissibility of the type is wrong"
        if "cuts" in report:
            if report["cut_count"] != len(report["cuts"]):
                return "cut_count disagrees with the cut list"
            if not all(c["bounding"] for c in report["cuts"]):
                return "a cut of a positive type is not bounding"
        if "types" in report and report["cut_count"] != sum(
                t["cut_count"] for t in report["types"]):
            return "cut counts by type do not add up"
        return None
    return check


def check_serre(report: dict, other: dict) -> Optional[str]:
    """H^r(g) = H^{d-r}(-p-g) between the two jobs of a dual pair."""
    d = len(report["dims"]) - 1
    for r, v in report["dims"].items():
        if other["dims"][str(d - int(r))] != v:
            return f"Serre duality fails at r={r}"
    return None


# -- workloads ----------------------------------------------------------

def _tour(*names) -> list:
    """The tiny commands that enter the named layers, one job each."""
    jobs = {
        "stacky_geom": Job("tour verify p2", "p2",
                           ["verify", "{input}", "--set", "[[0], [1], [2]]"],
                           check=check_verify(3, 2, must_pass=True)),
        "upper_sets": Job("tour mutate p23", "p23",
                          ["mutate", "{input}", "--class", "0",
                           "--walk-to", "1"],
                          check=check_walk),
        "detectors": Job("tour cuts p23", "p23", ["cuts", "{input}"],
                         check=check_cuts(5)),
        "cuts": Job("tour cuts lattice m12", "lattice_m12",
                    ["cuts", "{input}"], check=check_cuts(12)),
    }
    return [jobs[name] for name in names]


def _rank1_jobs(rng) -> list:
    return [
        Job("classify p5711", "p5711", ["classify", "{input}"],
            check=check_rank1(count=43, size=23)),
        Job("classify p345 zp", "p345", ["classify", "{input}", "--mode", "zp"],
            check=check_rank1(count=48, size=12)),
        Job("mutate p4567", "p4567",
            ["mutate", "{input}", "--class", "0", "--walk-to", "3"],
            check=check_walk),
        Job("classify p23571", "p23571", ["classify", "{input}"],
            check=check_rank1(size=28)),
        # the paper's Z + Z/2 examples
        Job("classify zz2_d1", "zz2_d1", ["classify", "{input}"],
            check=check_rank1(count=2, size=4)),
        Job("classify zz2_d2", "zz2_d2", ["classify", "{input}"],
            check=check_rank1(count=2, size=6)),
        Job("classify zz2_b", "zz2_b", ["classify", "{input}"],
            check=check_rank1()),
        Job("classify zz3", "zz3", ["classify", "{input}"],
            check=check_rank1()),
        Job("classify p2", "p2", ["classify", "{input}"],
            check=check_rank1(count=1, size=3)),
        Job("classify p23", "p23", ["classify", "{input}"],
            check=check_rank1(exact=[[[0], [1], [2], [3], [4]],
                                     [[0], [2], [3], [4], [6]]])),
    ] + _tour("stacky_geom", "detectors", "cuts")


def _rank2_jobs(rng) -> list:
    return [
        Job("classify p2p2", "p2p2", ["classify", "{input}"],
            check=check_rank2(count=59, size=9)),
        Job("classify p1p3", "p1p3", ["classify", "{input}"],
            check=check_rank2(count=35, size=8)),
        Job("classify p1p2", "p1p2", ["classify", "{input}"],
            check=check_rank2(count=16, size=6)),
        # the known deviation from the paper's count: digest only
        Job("classify p1p1", "p1p1", ["classify", "{input}"],
            check=check_rank2(size=4)),
        Job("classify sigma1", "sigma1", ["classify", "{input}"],
            check=check_rank2(count=4, size=4)),
        Job("classify stacky", "stacky", ["classify", "{input}"],
            check=check_rank2(count=5)),
    ] + _tour("stacky_geom", "upper_sets", "detectors", "cuts")


def _field(rng) -> list:
    p = rng.choice([None, 2, 3, 5])
    return [] if p is None else ["--field", f"F{p}"]


def _oracle_jobs(rng) -> list:
    stored = json.loads((DATA / "classes.json").read_text())
    jobs = []
    # the P2xP2 sets alternate between Q and F_p; each P(2,3,5,7,11) set
    # is verified over both
    picks = [("p2p2", s, 4, i % 2 == 1)
             for i, s in enumerate(rng.sample(stored["p2p2"], 8))]
    picks += [("p23571", s, 4, over_fp)
              for s in stored["p23571"] for over_fp in (False, True)]
    for i, (doc, elements, d, over_fp) in enumerate(picks):
        flag = ["--field", f"F{rng.choice([2, 3, 5])}"] if over_fp else []
        jobs.append(Job(f"verify {doc} class {i}", doc,
                        ["verify", "{input}", "--set", json.dumps(elements)]
                        + flag,
                        check=check_verify(len(elements), d, must_pass=True)))
    for i in range(10):
        if i < 7:
            doc, size, d = "p2p2", 9, 4
            box = [(a, b) for a in range(-2, 4) for b in range(-2, 4)]
            elements = [list(e) for e in rng.sample(box, size)]
        else:
            doc, size, d = "p23571", 10, 4
            elements = [[x] for x in rng.sample(range(-5, 41), size)]
        jobs.append(Job(f"verify {doc} random {i}", doc,
                        ["verify", "{input}", "--set", json.dumps(elements)]
                        + _field(rng),
                        expect_exit=None,
                        check=check_verify(size, d, must_pass=False)))
    for i in range(10):
        a, b = rng.randint(-12, 12), rng.randint(-12, 12)
        twist = [a, 0, 0, b, 0, 0]
        jobs.append(Job(f"cohomology p2p2 #{i} O({a},{b})", "p2p2",
                        ["cohomology", "{input}", "--twist", json.dumps(twist),
                         "--all-r"] + _field(rng),
                        check=check_bott_kunneth(2, 2, a, b)))
    for i, (doc, n) in enumerate([("p5711", 3)] * 4 + [("stacky", 4)] * 4):
        twist = [rng.randint(-4, 4) for _ in range(n)]
        dual = [-1 - a for a in twist]
        keys = [f"cohomology {doc} #{i} {t}" for t in (twist, dual)]
        for me, other, t in [(0, 1, twist), (1, 0, dual)]:
            jobs.append(Job(keys[me], doc,
                            ["cohomology", "{input}", "--twist", json.dumps(t),
                             "--all-r"],
                            pair=keys[other]))
    return jobs + _tour("upper_sets", "detectors", "cuts")


def _cuts_jobs(rng) -> list:
    return [
        Job("cuts p457", "p457", ["cuts", "{input}"], check=check_cuts(16)),
        Job("cuts p2357", "p2357", ["cuts", "{input}"], check=check_cuts(17)),
        Job("cuts lattice m12", "lattice_m12", ["cuts", "{input}"],
            check=check_cuts(12)),
        Job("cuts lattice m5", "lattice_m5", ["cuts", "{input}"],
            check=check_cuts(5)),
        Job("cuts lattice m5 inadmissible", "lattice_m5_bad",
            ["cuts", "{input}"], check=check_cuts(5, admissible=False)),
    ] + _tour("stacky_geom", "upper_sets")


WORKLOADS = {
    "rank1": _rank1_jobs,
    "rank2": _rank2_jobs,
    "oracle": _oracle_jobs,
    "cuts": _cuts_jobs,
}


def build(name: str, seed: int) -> list:
    """The workload's jobs for this seed.  Only `oracle` draws its inputs
    from the seed; the runner reshuffles every workload's job order."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
