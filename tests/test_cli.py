import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import stacktilt
from corpus import DOCS
from oracles import enumerate_detectors_product, parse_dot
from stacktilt import cli, cuts, tilting, upper_sets as us
from stacktilt.cli import _build_context, _classify, _emit, _encode, main
from stacktilt.errors import InputError

P23 = DOCS["p23"]
P1P1_POLYTOPE = {"polytope": {"dim": 2, "vertices": [[1, 0], [-1, 0],
                                                     [0, 1], [0, -1]]}}
BAD_POLYTOPE = {"polytope": {"dim": 1, "vertices": [[1], [3]]}}


def _write(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _mutated_neighbors(tc):
    """The report's neighbours, by mutating and canonicalising afresh."""
    return [{"at": list(m.coords),
             "to": tilting._class_id(tc.rank, us.canonical_form(
                 us.mutate(tc.rep, m), tc.translation).elements)}
            for m in us.mutable_elements(tc.rep)]


def _check_neighbors(doc_in, mode, doc):
    """Each class's report neighbours are listed classes and equal the old
    mutate-and-canonicalise path."""
    entries = (doc["classes"] if doc["rank"] == 1 else
               [c for g in doc["j_classes"] for c in g["classes"]])
    ids = {c["id"] for c in entries}
    assert all(n["to"] in ids
               for c in entries for n in c["mutation_neighbors"])
    ctx, _ = _build_context(doc_in)
    classes, _ = _classify(ctx, mode, 10_000)
    assert ([(c["id"], c["mutation_neighbors"]) for c in entries]
            == [(tc.class_id, _mutated_neighbors(tc)) for tc in classes])


def test_classify_p23(tmp_path, capsys):
    path = _write(tmp_path, P23)
    code, doc = _run(capsys, ["classify", path])
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["rank"] == 1 and doc["class_count"] == 2
    bundles = [c["line_bundles"] for c in doc["classes"]]
    assert bundles == [[[0], [1], [2], [3], [4]], [[0], [2], [3], [4], [6]]]
    _check_neighbors(P23, "paper", doc)


@pytest.mark.parametrize("doc_in, mode", [
    (P23, "zp"), (DOCS["zz2_d1"], "paper"), (P1P1_POLYTOPE, "paper"),
], ids=["p23-zp", "zz2_d1", "p1p1"])
def test_classify_mutation_neighbors(tmp_path, capsys, doc_in, mode):
    path = _write(tmp_path, doc_in)
    code, doc = _run(capsys, ["classify", path, "--mode", mode])
    assert code == 0
    _check_neighbors(doc_in, mode, doc)


def test_classify_zp_mode(tmp_path, capsys):
    path = _write(tmp_path, P23)
    code, doc = _run(capsys, ["classify", path, "--mode", "zp"])
    assert code == 0
    # one class per cut of type (2,3): ten of them
    assert doc["class_count"] == 10


def test_classify_deterministic(tmp_path, capsys):
    path = _write(tmp_path, P23)
    code, _ = _run(capsys, ["classify", path])
    out1 = main(["classify", path]), capsys.readouterr().out
    out2 = main(["classify", path]), capsys.readouterr().out
    assert out1 == out2


def test_classify_p1p1_polytope(tmp_path, capsys):
    path = _write(tmp_path, P1P1_POLYTOPE)
    code, doc = _run(capsys, ["classify", path])
    assert code == 0
    assert doc["rank"] == 2
    assert doc["j_class_count"] == 2
    # faithful counts; the published example misses one inner class
    assert sorted(g["class_count"] for g in doc["j_classes"]) == [4, 5]
    assert sorted(g["merged_class_count"] for g in doc["j_classes"]) == [2, 5]
    assert doc["split"]["h_torsion_orders"] == [2]
    assert doc["split"]["s_free"] == 2


def test_classify_validation_error(tmp_path, capsys):
    path = _write(tmp_path, BAD_POLYTOPE)
    code, doc = _run(capsys, ["classify", path])
    assert code == 2
    assert doc["error"]["type"] == "OriginNotInterior"


def test_classify_malformed_inputs(tmp_path, capsys):
    code, doc = _run(capsys, ["classify", _write(tmp_path, {"group": {}})])
    assert code == 2 and doc["error"]["type"] == "InputError"
    code, doc = _run(capsys, ["classify", _write(tmp_path, {})])
    assert code == 2
    code, doc = _run(capsys, ["classify", str(tmp_path / "missing.json")])
    assert code == 2
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"group": "\xe9"}')
    code, doc = _run(capsys, ["classify", str(not_utf8)])
    assert code == 2 and doc["error"]["type"] == "InputError"


LATTICE = {"d": 1, "b_generators": [[5, -5]], "gamma": [2, 3]}


ONE_DEGREE = {"group": {"free_rank": 1, "degrees": [[1]]}}
TWO_DEGREES_RANK2 = {"group": {"free_rank": 2, "degrees": [[1, 0], [0, 1]]}}
TRIANGLE = [[1, 0], [0, 1], [-1, -1]]


# (document, argv, the fields the printed error object must hold); most
# rows are refused as InputErrors and name only that type
@pytest.mark.parametrize("doc, argv, error", [
    (doc, argv, {"type": "InputError"}) for doc, argv in [
    (P23, ["cohomology", "--twist", "[1,"]),
    (P23, ["mutate", "--class", "0", "--at", "[0"]),
    (P23, ["verify", "--set", "[[0]"]),
    ({"lattice": {"b_generators": [[5, -5]], "gamma": [2, 3]}}, ["cuts"]),
    ({"lattice": {**LATTICE, "gamma": ["a", 3]}}, ["cuts"]),
    ({"lattice": {**LATTICE, "gamma": [2.5, 2.5]}}, ["cuts"]),
    (P23, ["cohomology", "--twist", "[1, 0]", "--field", "Fx"]),
    ({**P23, "field": {"Fp": "q"}}, ["cohomology", "--twist", "[1, 0]"]),
    (5, ["classify"]),
    ({"polytope": []}, ["classify"]),
    ({"polytope": {"vertices": [["a"], [1]]}}, ["classify"]),
    ({"group": {"free_rank": 1, "degrees": [5, 2]}}, ["classify"]),
    ({"group": {**P23["group"], "free_rank": 1.5}}, ["classify"]),
    ({"lattice": {**LATTICE, "d": 1.9}}, ["cuts"]),
    (P23, ["cohomology", "--twist", "[1.5, 0]"]),
    (P23, ["cohomology", "--twist", "[true, 0]"]),
    (P23, ["mutate", "--class", "0", "--at", "[0.0]"]),
    (P23, ["verify", "--set", "[[0], 7]"]),
    (P23, ["cohomology", "--twist", "[1, 0]", "--field", "F4"]),
    ({**P23, "field": {"Fp": 6}}, ["cohomology", "--twist", "[1, 0]"]),
    (P23, ["verify", "--field", "F9"]),
    (P23, ["verify", "--set", "[[0], [1]]", "--class", "0"]),
    (P23, ["mutate", "--class", "-1", "--walk-to", "0"]),
    (DOCS["p2"],
     ["cohomology", "--twist", "[1000000000000, 0, 0]", "--r", "0"]),
    (P23, ["cohomology", "--twist", "[" + "9" * 4300 + ", 0]", "--r", "0"]),
    (P23, ["classify", "--max-classes", "-1"]),
    (P23, ["verify", "--set", "[]"]),
    (DOCS["zz2_d1"], ["verify", "--set", "[[1, 0], [3, 0]]"]),
    (P23, ["cohomology", "--twist", "[0, 0]", "--r", "2"]),
    (P23, ["mutate", "--class", "0", "--at", "[99]"]),
    (P23, ["verify", "--set", '{"a": 1}']),
    ({}, ["cuts"]),
    ({"polytope": {"dim": 3, "vertices": TRIANGLE}}, ["classify"]),
    ({"polytope": {"vertices": [[]]}}, ["classify"]),
    ({"group": {"free_rank": 1, "degrees": []}}, ["classify"]),
    ({"lattice": {**LATTICE, "d": 0}}, ["cuts"]),
    ({"lattice": {**LATTICE, "b_generators": [[5, -5, 0]]}}, ["cuts"]),
    ({"group": {"free_rank": -1, "degrees": [[1]]}}, ["classify"]),
    ({"group": {"free_rank": 1, "torsion_orders": [0],
                "degrees": [[1, 0], [1, 1]]}}, ["classify"]),
]] + [(ONE_DEGREE, argv, {"type": "InputError",
                          "message": "need at least two degrees (d >= 1)"})
      for argv in (["cohomology", "--twist", "[0]"],
                   ["verify", "--set", "[[0]]"])] + [
    (TWO_DEGREES_RANK2, argv,
     {"type": "InputError", "message": "need at least three degrees (d >= 1)"})
    for argv in (["classify"], ["cuts"], ["cohomology", "--twist", "[0, 0]"],
                 ["verify", "--set", "[[0, 0]]"],
                 ["mutate", "--class", "0", "--walk-to", "1"])] + [
    ({"group": {"free_rank": 0, "torsion_orders": [2], "degrees": [[1]]}},
     ["classify"], {"type": "G3Violation",
                    "message": "all degrees are torsion"}),
    ({"group": {"free_rank": 2, "degrees": [[1, 0], [1, 0], [0, 1]]}},
     ["classify"], {"type": "DegenerateSplit",
                    "details": {"positives": 2, "negatives": 1}}),
], ids=["twist-json", "at-json", "set-json", "lattice-no-d", "gamma-str",
        "gamma-float", "field-flag", "field-doc", "doc-number",
        "polytope-list", "vertex-str", "degree-number", "free-rank-float",
        "d-float", "twist-float",
        "twist-bool", "at-float", "set-entry", "F4", "Fp-6", "verify-F9",
        "set-and-class", "class-negative", "twist-fiber-too-large",
        "twist-coords-unprintable", "max-classes-negative", "set-empty",
        "set-repeated", "r-outside", "at-missing", "set-not-list",
        "cuts-no-input", "polytope-dim", "vertex-empty", "degrees-empty",
        "lattice-d-0", "b-generator-length", "free-rank-negative",
        "torsion-order-0", "one-degree-cohomology", "one-degree-verify-set",
        "two-degrees-rank2-classify", "two-degrees-rank2-cuts",
        "two-degrees-rank2-cohomology", "two-degrees-rank2-verify-set",
        "two-degrees-rank2-mutate", "all-torsion", "degenerate-split"])
def test_malformed_input_exits_2(tmp_path, capsys, doc, argv, error):
    path = _write(tmp_path, doc)
    code = main(argv[:1] + [path] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    printed = json.loads(captured.out)["error"]
    assert {key: printed[key] for key in error} == error
    assert "Traceback" not in captured.err


def test_negative_lattice_type_is_reported_inadmissible(tmp_path, capsys):
    path = _write(tmp_path, {"lattice": {**LATTICE, "gamma": [-1, 6]}})
    code, doc = _run(capsys, ["cuts", path])
    assert code == 0
    assert doc["admissible"] is False
    assert doc["reason"] == ("inadmissible: type must be a nonnegative "
                             "(d+1)-vector")


def test_verify_set_names_its_repeated_line_bundles(tmp_path, capsys):
    """On Z + Z/2 (torsion slot first) [1, 0] and [3, 0] are one line
    bundle; the details list each repeated one once, canonically."""
    path = _write(tmp_path, DOCS["zz2_d1"])
    code, doc = _run(capsys, ["verify", path, "--set",
                              "[[1, 0], [0, 1], [3, 0], [1, 1], [0, 1]]"])
    assert code == 2
    assert doc["error"]["message"] == ("--set names a line bundle more "
                                       "than once")
    assert doc["error"]["details"] == {"repeated": [[0, 1], [1, 0]]}


def test_classify_dot_output(tmp_path, capsys):
    path = _write(tmp_path, P23)
    dot_dir = tmp_path / "dots"
    code, doc = _run(capsys, ["classify", path, "--dot-dir", str(dot_dir)])
    assert code == 0
    files = sorted(dot_dir.glob("*.dot"))
    assert len(files) == 2
    for f, entry in zip(files, sorted(doc["classes"], key=lambda c: c["id"])):
        nodes, edges = parse_dot(f.read_text())
        assert len(nodes) == len(entry["quiver"]["vertices"])
        assert len(edges) == len(entry["quiver"]["arrows"])


def test_mutate_single_step(tmp_path, capsys):
    path = _write(tmp_path, DOCS["p1"])
    code, doc = _run(capsys, ["mutate", path, "--class", "0", "--at", "[0]"])
    assert code == 0
    assert doc["result"]["line_bundles"] == [[1], [2]]


def test_mutate_walk(tmp_path, capsys):
    path = _write(tmp_path, P23)
    code, doc = _run(capsys, ["mutate", path, "--class", "0",
                              "--walk-to", "1"])
    assert code == 0
    assert doc["length"] >= 1


def test_mutate_flags_checked_before_classifying(tmp_path, capsys,
                                                monkeypatch):
    def classify(*args, **kwargs):
        raise AssertionError("mutate classified before checking its flags")

    monkeypatch.setattr(tilting, "classify_rank1", classify)
    path = _write(tmp_path, P23)
    for flags in ([], ["--at", "[0]", "--walk-to", "1"]):
        code, doc = _run(capsys, ["mutate", path, "--class", "0"] + flags)
        assert code == 2 and doc["error"]["type"] == "InputError"
        assert "exactly one of --at or --walk-to" in doc["error"]["message"]


def test_mutate_not_minimal(tmp_path, capsys):
    path = _write(tmp_path, P23)
    code, doc = _run(capsys, ["mutate", path, "--class", "0", "--at", "[2]"])
    assert code == 2
    assert doc["error"]["type"] == "NotMinimal"


def test_cohomology_p1(tmp_path, capsys):
    p1 = {"polytope": {"dim": 1, "vertices": [[1], [-1]]}}
    path = _write(tmp_path, p1)
    code, doc = _run(capsys, ["cohomology", path, "--twist", "[2,0]",
                              "--all-r"])
    assert code == 0
    assert doc["dims"] == {"0": 3, "1": 0}
    code, doc = _run(capsys, ["cohomology", path, "--twist", "[-1,-1]",
                              "--all-r"])
    assert doc["dims"] == {"0": 0, "1": 1}
    code, doc = _run(capsys, ["cohomology", path, "--twist", "[-1,-1]",
                              "--all-r", "--field", "F2"])
    assert doc["dims"] == {"0": 0, "1": 1}


def test_cohomology_p1p1(tmp_path, capsys):
    path = _write(tmp_path, P1P1_POLYTOPE)
    code, doc = _run(capsys, ["cohomology", path, "--twist", "[-2,0,0,0]",
                              "--all-r"])
    assert code == 0
    assert doc["dims"] == {"0": 0, "1": 1, "2": 0}
    code, doc = _run(capsys, ["cohomology", path, "--twist", "[-2,0,0,0]",
                              "--r", "1"])
    assert code == 0 and doc["dims"] == {"1": 1}
    code, doc = _run(capsys, ["cohomology", path, "--twist", "[1,2]"])
    assert code == 2 and doc["error"]["type"] == "InputError"


def test_verify_ok_and_failure(tmp_path, capsys):
    path = _write(tmp_path, P23)
    code, doc = _run(capsys, ["verify", path])
    assert code == 0 and doc["ok"]
    assert all(entry["thick_generation"] == "by theorem"
               for entry in doc["classes"])
    code, doc = _run(capsys, ["verify", path, "--set", "[[0],[7]]"])
    assert code == 1 and not doc["ok"]
    failures = doc["classes"][0]["failures"]
    assert any(f["r"] == 1 for f in failures)


@pytest.mark.parametrize("argv", [
    ["cohomology", "{input}", "--twist", json.dumps([0] * 11), "--all-r"],
    ["verify", "{input}"]], ids=["cohomology", "verify"])
def test_oracle_refuses_p10_at_once(tmp_path, capsys, argv):
    """P^10 has n = 11 vertices, one past the oracle's bound; unguarded,
    its zero twist took about 30 s through `cohomology`.  `verify` is
    refused before it classifies."""
    path = _write(tmp_path, {"group": {"free_rank": 1,
                                       "degrees": [[1]] * 11}})
    start = time.perf_counter()
    code, doc = _run(capsys, [a.replace("{input}", path) for a in argv])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and doc["error"]["type"] == "InputError"
    assert doc["error"]["details"] == {"n": 11, "bound": 10}


# stdout SHA-256 of the vertex-bound refusal as the oracle printed it when
# it alone checked the bound, after the polytope (n = 120 took 11 to 15 s)
VERTEX_BOUND_DIGESTS = {
    11: "bf6c91750a06e0e94c718a8d7e49706c0abcf162dfca5ad8ddcd8de3b2283aff",
    120: "89c65aed59111773fbb91d4879f47d83bfd98a7b8a2ce16a2605fdebf0f981f0",
}


@pytest.mark.parametrize("argv", [
    ["cohomology", "{input}", "--twist", "{zeros}", "--all-r"],
    ["verify", "{input}", "--set", "[[0]]"]], ids=["cohomology", "verify"])
@pytest.mark.parametrize("n", sorted(VERTEX_BOUND_DIGESTS))
def test_vertex_bound_checked_before_the_polytope(tmp_path, capsys, argv, n):
    """A group of n weight-one degrees is refused before its polytope is
    derived, whose facet search solves an integer kernel of n - 2 rows for
    each of its n candidate facets."""
    path = _write(tmp_path, {"group": {"free_rank": 1,
                                       "degrees": [[1]] * n}})
    argv = [a.format(input=path, zeros=json.dumps([0] * n)) for a in argv]
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 0.1
    out = capsys.readouterr().out
    assert code == 2
    assert hashlib.sha256(out.encode()).hexdigest() == VERTEX_BOUND_DIGESTS[n]


def test_polytope_rank_refused_before_the_facet_search(tmp_path, capsys):
    """The d-dimensional cross-polytope has a Gale dual of free rank d;
    the facet search over its C(2d, d) vertex subsets took 38 s at
    d = 10.  The 3-cube is not simplicial, and its rank, 5, is what it
    reports."""
    cross = [[s * (j == i) for j in range(10)] for i in range(10)
             for s in (1, -1)]
    path = _write(tmp_path, {"polytope": {"vertices": cross}})
    start = time.perf_counter()
    code, doc = _run(capsys, ["classify", path])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and doc["error"]["type"] == "UnsupportedRank"
    assert doc["error"]["message"] == "free rank 10 not supported (only 1, 2)"
    cube = [list(v) for v in itertools.product((1, -1), repeat=3)]
    code, doc = _run(capsys, ["classify", _write(
        tmp_path, {"polytope": {"vertices": cube}}, "cube.json")])
    assert code == 2 and doc["error"]["type"] == "UnsupportedRank"
    assert doc["error"]["message"] == "free rank 5 not supported (only 1, 2)"


@pytest.mark.parametrize("command, doc_in, error", [
    ("cuts", {"lattice": {"d": 4000, "b_generators": []}}, "NotCofinite"),
    ("classify", {"group": {"free_rank": 4000, "degrees": [[1]]}},
     "UnsupportedRank"),
    # the rank wins over a zero degree and a zero torsion order
    ("classify", {"group": {"free_rank": 3, "degrees": [[0, 0, 0]]}},
     "UnsupportedRank"),
    ("classify", {"group": {"free_rank": 3, "torsion_orders": [0],
                            "degrees": [[1, 0, 0, 0]]}}, "UnsupportedRank"),
], ids=["lattice_d4000", "free_rank_4000", "zero_degree",
        "zero_torsion_order"])
def test_oversized_documents_refused_before_the_smith_form(
        tmp_path, capsys, command, doc_in, error):
    """Fewer B generators than d always leave infinite index, and a free
    rank above 2 is unsupported: both are refused before a Smith form of
    size d, which took 1.7-1.9 s at 4000."""
    path = _write(tmp_path, doc_in)
    start = time.perf_counter()
    code, doc = _run(capsys, [command, path])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and doc["error"]["type"] == error


@pytest.mark.parametrize("t, error", [(64, "G2Violation"),
                                      (65, "InputError"),
                                      (400, "InputError")])
def test_torsion_order_count_refused_before_the_smith_form(tmp_path, capsys,
                                                           t, error):
    """The Smith form of Z + (Z/2)^t is cubic in t (1.3 s at t = 400);
    more than 64 torsion orders are refused before it is built.  At the
    bound the document still reaches the check it failed before."""
    doc_in = {"group": {"free_rank": 1, "torsion_orders": [2] * t,
                        "degrees": [[1] + [0] * t]}}
    path = _write(tmp_path, doc_in)
    start = time.perf_counter()
    code, doc = _run(capsys, ["classify", path])
    assert time.perf_counter() - start < 0.1
    assert code == 2 and doc["error"]["type"] == error
    if error == "InputError":
        assert doc["error"]["details"] == {"count": t, "bound": 64}


def test_verify_single_class(tmp_path, capsys):
    path = _write(tmp_path, DOCS["p1"])
    code, doc = _run(capsys, ["verify", path, "--class", "0"])
    assert code == 0 and doc["ok"]


def test_cuts_from_lattice(tmp_path, capsys):
    doc_in = {"lattice": {"d": 1, "b_generators": [[5, -5]],
                          "gamma": [2, 3]}}
    code, doc = _run(capsys, ["cuts", _write(tmp_path, doc_in)])
    assert code == 0
    assert doc["admissible"] and doc["cut_count"] == 10
    assert all(entry["bounding"] for entry in doc["cuts"])
    doc_in["lattice"]["gamma"] = [1, 3]
    code, doc = _run(capsys, ["cuts", _write(tmp_path, doc_in, "b.json")])
    assert code == 0 and not doc["admissible"]
    assert "sum" in doc["reason"]
    doc_in = {"lattice": {"d": 2, "b_generators": [[-2, 2, 0], [0, -2, 2]],
                          "gamma": [2, 1, 1]}}
    code, doc = _run(capsys, ["cuts", _write(tmp_path, doc_in, "c.json")])
    assert code == 0 and not doc["admissible"]
    assert "divisible" in doc["reason"]


def test_cuts_from_group(tmp_path, capsys):
    code, doc = _run(capsys, ["cuts", _write(tmp_path, P23)])
    assert code == 0
    assert doc["m"] == 5 and doc["type"] == [2, 3] and doc["admissible"]


def test_cuts_detector_guard(tmp_path, capsys, monkeypatch):
    """P(5,7,11) has m = 23: 2^22 candidate tables of 69 arrows each."""
    def enumerate_detectors(*args):
        raise AssertionError("the guard let the enumeration start")

    monkeypatch.setattr(cuts, "enumerate_detectors", enumerate_detectors)
    code, doc = _run(capsys, ["cuts", _write(tmp_path, DOCS["p5711"])])
    assert code == 2 and doc["error"]["type"] == "InputError"
    assert doc["error"]["details"] == {"m": 23, "candidates_log2": 22}


def _cli_env():
    """This checkout's src on the path, and stdout block-buffered, as it is
    for a user whose output goes to a pipe."""
    src = Path(stacktilt.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(src)}


_PROBE = """\
import stacktilt


def test_probe():
    print("stacktilt at", stacktilt.__file__)
"""


def test_pythonpath_wins_over_the_checkout_under_pytest(tmp_path):
    """Under pytest, a stacktilt on PYTHONPATH is the one imported; the
    checkout's src serves only when no other imports, as conftest.py
    appends it last.  pyproject's pythonpath = ["src"] used to put the
    checkout's src first, so a run aimed at another tree tested this one."""
    root = Path(__file__).resolve().parents[1]
    package = Path(stacktilt.__file__).resolve().parent
    checkout, other = tmp_path / "checkout", tmp_path / "other"
    for tree in (checkout, other):
        shutil.copytree(package, tree / "src" / "stacktilt",
                        ignore=shutil.ignore_patterns("__pycache__"))
    (checkout / "tests").mkdir()
    shutil.copy(root / "pyproject.toml", checkout)
    shutil.copy(root / "tests" / "conftest.py", checkout / "tests")
    (checkout / "tests" / "test_probe.py").write_text(_PROBE)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for extra, tree in (({}, checkout),
                        ({"PYTHONPATH": str(other / "src")}, other)):
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-s",
             "-p", "no:cacheprovider"],
            cwd=checkout, env={**env, **extra}, capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        found = next(line.split("stacktilt at ", 1)[1]
                     for line in proc.stdout.splitlines()
                     if "stacktilt at " in line)
        assert Path(found).resolve() == (
            tree / "src" / "stacktilt" / "__init__.py").resolve()


def _run_cli(argv, timeout, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, "-m", "stacktilt.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout,
        env=_cli_env())


M8, M18 = 10 ** 8, 10 ** 18


@pytest.mark.parametrize("doc, m", [
    ({"lattice": {"d": 1, "b_generators": [[M8, -M8]]}}, None),
    ({"lattice": {"d": 1, "b_generators": [[M18, -M18]]}}, None),
    ({"lattice": {"d": 1, "b_generators": [[M8, -M8]],
                  "gamma": [1, M8 - 1]}}, M8),
    ({"lattice": {"d": 1, "b_generators": [[M18, -M18]],
                  "gamma": [1, M18 - 1]}}, M18),
    ({"group": {"free_rank": 1, "degrees": [[1], [M8]]}}, M8 + 1),
], ids=["lattice_1e8", "lattice_1e18", "typed_1e8", "typed_1e18",
        "group_1e8"])
def test_cuts_oversize_refused_before_enumeration(tmp_path, doc, m):
    """Both guards need only m and d, so no L/B or G/Zp is listed first."""
    proc = _run_cli(["cuts", _write(tmp_path, doc)], timeout=10)
    assert proc.returncode == 2
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "InputError"
    if m is not None:
        assert error["details"] == {"m": m, "candidates_log2": m - 1}


@pytest.mark.parametrize("argv", [
    ["classify"], ["mutate", "--class", "0", "--at", "[0]"], ["verify"]],
    ids=["classify", "mutate", "verify"])
@pytest.mark.parametrize("m", [10 ** 12, 10 ** 18], ids=["1e12", "1e18"])
def test_cosets_oversize_refused_before_listing(tmp_path, argv, m):
    """P(1, m) has m + 1 cosets of Zp; none is listed."""
    doc = {"group": {"free_rank": 1, "degrees": [[1], [m]]}}
    proc = _run_cli([argv[0], _write(tmp_path, doc), *argv[1:]], timeout=10)
    assert proc.returncode == 2
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "InputError"
    assert error["details"] == {"m": m + 1, "bound": 256}


@pytest.mark.parametrize("free_rank, degrees, m", [
    (1, [[1], [1], [255]], 257),
    (2, [[1, 0], [1, 0], [0, 1], [0, 128]], 258),
], ids=["P(1,1,255)", "P1xP(1,128)-H"])
def test_cosets_one_over_the_bound_exit_2_at_once(tmp_path, capsys,
                                                  free_rank, degrees, m):
    """256 cosets are listed (P(1,1,254)); P(1,1,255) has 257 cosets of Zp,
    and the base order H of P1 x P(1,128) has 258 of Zs, so both are
    refused before any gap table is learned."""
    ctx, _ = _build_context({"group": {"free_rank": 1,
                                       "degrees": [[1], [1], [254]]}})
    assert len(ctx.coset_reps(ctx.p)[0]) == 256
    path = _write(tmp_path, {"group": {"free_rank": free_rank,
                                       "degrees": degrees}})
    start = time.perf_counter()
    code = main(["classify", path])
    assert time.perf_counter() - start < 0.1
    error = json.loads(capsys.readouterr().out)["error"]
    assert [code, error["message"], error["details"]] == [
        2, "too many cosets to list", {"m": m, "bound": 256}]


@pytest.mark.parametrize("command", ["classify", "cuts"])
def test_unprintable_error_details_are_left_out(tmp_path, command):
    """Z + Z/a + Z/b with a, b of 4001 digits has about 10^8000 cosets of
    Zp, too many to list or to search for detectors; that count is the
    error's `m`, which Python cannot print, so the error keeps its type and
    drops its details."""
    big = 10 ** 4000
    doc = {"group": {"free_rank": 1, "torsion_orders": [big + 7, big + 9],
                     "degrees": [[1, 0, 0], [1, 1, 0], [1, 0, 1]]}}
    proc = _run_cli([command, _write(tmp_path, doc)], timeout=10)
    assert proc.returncode == 2 and proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "InputError" and error["details"] == {}
    assert "its details cannot be printed" in error["message"]


def test_verify_reaches_the_coset_bound_before_the_oracle(tmp_path):
    """Z + Z/a + Z/b with a, b of 2201 and 4300 digits: verify without
    --set classifies before it builds the oracle, so the coset bound
    refuses the group before the Smith forms on a and b run (3.8 s while
    the oracle came first); the bytes are those recorded then."""
    doc = {"group": {"free_rank": 1,
                     "torsion_orders": [10 ** 2200 + 7, 10 ** 4299 + 9],
                     "degrees": [[1, 0, 0], [1, 1, 0], [1, 0, 1]]}}
    start = time.perf_counter()
    proc = _run_cli(["verify", _write(tmp_path, doc)], timeout=60)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2 and proc.stderr == ""
    assert (hashlib.sha256(proc.stdout.encode()).hexdigest()
            == "5b81ffd2fecbe01f80ef7dd140d2c923"
               "e1764087fd89479ee68ead2ad88fa93a")


def test_cuts_refuses_a_group_before_building_its_cut_data(tmp_path, capsys,
                                                           monkeypatch):
    """The detector guard needs only m = |G/Zp| and d = n - 1, so a group
    whose search it refuses never reaches data_of_group and the Smith
    forms of L/B (0.5-0.7 s on this group while it came first); the bytes
    are those recorded then."""
    calls = []
    data_of_group = cuts.data_of_group

    def counted(ctx):
        calls.append(ctx)
        return data_of_group(ctx)

    monkeypatch.setattr(cuts, "data_of_group", counted)
    doc = {"group": {"free_rank": 1,
                     "torsion_orders": [10 ** 2200 + 7, 10 ** 4299 + 9],
                     "degrees": [[1, 0, 0], [1, 1, 0], [1, 0, 1]]}}
    code = main(["cuts", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 2 and calls == []
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "087d2835c6d91e846f498b3c0bcc6c4a"
               "b108c48e704796e9ac08639deac55027")


def test_closed_stdout_exits_2_without_traceback(tmp_path):
    """The P1xP3 report is 291 KB, more than a pipe holds, so the write
    fails once the reader has gone."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "stacktilt.cli", "classify",
         _write(tmp_path, DOCS["p1p3"])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and "Exception ignored" not in err
    assert json.loads(err)["error"]["type"] == "OutputClosed"


@pytest.mark.parametrize("argv", [["classify", "{p1_1e12}"],
                                  ["cuts", "--help"]],
                         ids=["input_error", "help"])
def test_closed_stdout_before_any_write(tmp_path, argv):
    """An error report or the help, to a pipe nobody reads, is refused the
    same way."""
    doc = {"group": {"free_rank": 1, "degrees": [[1], [10 ** 12]]}}
    path = _write(tmp_path, doc)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli([a.format(p1_1e12=path) for a in argv], timeout=10,
                        stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert json.loads(proc.stderr)["error"]["type"] == "OutputClosed"


@pytest.mark.parametrize("d, m", [(11, 3), (17, 2)])
def test_cuts_untyped_many_types(tmp_path, d, m):
    """36 arrows, so the guard passes, over C(m + d, d) types.

    B is generated by m*alpha_1 and alpha_2..alpha_d, so L/B is Z/m with
    a loop of every type but 0 and 1 at each vertex.  Walking all
    m * (d + 1)! orderings of the types, as an exact cover over
    elementary cycles does, takes far longer than the timeout.
    """
    gens = [cuts.l_vector([m] + [0] * (d - 1))] + [
        cuts.l_vector([int(k == j) for k in range(1, d + 1)])
        for j in range(2, d + 1)]
    lq = cuts.build_quotient(d, gens)
    assert lq.m * (lq.d + 1) == 36
    doc_in = {"lattice": {"d": d, "b_generators": gens}}
    proc = _run_cli(["cuts", _write(tmp_path, doc_in)], timeout=10)
    assert proc.returncode == 0
    counts = {tuple(t["type"]): t["cut_count"]
              for t in json.loads(proc.stdout)["types"]}
    # a type is the multiset of the types of its m arrows
    types = [tuple(c.count(i) for i in range(d + 1))
             for c in itertools.combinations_with_replacement(range(d + 1), m)]
    assert set(counts) <= set(types)
    for gamma in types:
        assert counts.get(gamma, 0) == len(
            enumerate_detectors_product(lq, gamma)), gamma


@pytest.mark.parametrize("argv", [
    ["classify", "{p23}", "--max-classes", "abc"],
    ["cohomology", "{p23}"],
    ["cohomology", "{p23}", "--twist", "[0,0]", "--r", "x"],
    ["verify", "{p23}", "--field"],
    ["frobnicate", "{p23}"],
    ["cuts"],
], ids=["max_classes_abc", "no_twist", "r_x", "field_no_value",
        "unknown_command", "cuts_no_input"])
def test_bad_command_line_exits_2_with_error(tmp_path, capsys, argv):
    path = _write(tmp_path, P23, "p23.json")
    code, doc = _run(capsys, [a.format(p23=path) for a in argv])
    assert code == 2
    assert set(doc) == {"schema_version", "error"}
    assert doc["error"]["type"] == "InputError"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cuts", "--help"])
    assert exc.value.code == 0
    assert "usage: stacktilt cuts" in capsys.readouterr().out


def test_max_classes_env(tmp_path, capsys):
    code, doc = _run(capsys, ["classify", _write(tmp_path, P23),
                              "--max-classes", "1"])
    assert code == 2 and doc["error"]["type"] == "ClassCountExceeded"
    code, doc = _run(capsys, ["classify", _write(tmp_path, P23, "b.json"),
                              "--max-classes", "50"])
    assert code == 0


@pytest.mark.parametrize("ceiling", ["0"])
def test_max_classes_below_one(tmp_path, capsys, ceiling):
    # P^2 has one class; a ceiling of 0 refuses even the first
    code, doc = _run(capsys, ["classify", _write(tmp_path, DOCS["p2"]),
                              "--max-classes", ceiling])
    assert code == 2 and doc["error"]["type"] == "ClassCountExceeded"
    assert doc["error"]["details"] == {"ceiling": int(ceiling)}


@pytest.mark.parametrize("command", ["classify", "mutate", "verify"])
def test_a_negative_max_classes_is_refused_by_name(tmp_path, capsys,
                                                   command):
    """A ceiling below 0, which every walk would overrun, is a bad command
    line in each command that classifies: argparse refuses it, naming the
    option, and the scan leaves it to argparse."""
    argv = [command, _write(tmp_path, DOCS["p2"]), "--max-classes", "-5"]
    if command == "mutate":
        argv += ["--class", "0", "--at", "[0]"]
    code, doc = _run(capsys, argv)
    assert code == 2 and doc["error"]["type"] == "InputError"
    assert "--max-classes" in doc["error"]["message"]
    assert cli._scan(argv) is None


def test_max_classes_bounds_rank2_total(tmp_path, capsys):
    path = _write(tmp_path, DOCS["p1p2"])
    code, doc = _run(capsys, ["classify", path, "--max-classes", "16"])
    assert code == 0 and doc["total_classes"] == 16
    code, doc = _run(capsys, ["classify", path, "--max-classes", "15"])
    assert code == 2
    assert doc["error"]["type"] == "ClassCountExceeded"
    assert doc["error"]["details"] == {"ceiling": 15}


@pytest.mark.parametrize("name, mode, count", [
    ("p5711", "paper", 43), ("p345", "zp", 48)],
    ids=["p5711-paper", "p345-zp"])
def test_max_classes_refuses_exactly_past_the_count(tmp_path, capsys, name,
                                                    mode, count):
    path = _write(tmp_path, DOCS[name])
    argv = ["classify", path, "--mode", mode, "--max-classes"]
    code, report = _run(capsys, argv + [str(count)])
    assert code == 0 and report["class_count"] == count
    code, report = _run(capsys, argv + [str(count - 1)])
    assert code == 2 and report["error"]["type"] == "ClassCountExceeded"
    assert report["error"]["details"] == {"ceiling": count - 1}


def test_paper_ceiling_stops_the_walk_at_the_next_orbit(tmp_path, capsys,
                                                        monkeypatch):
    """P(3,4,5) has 48 classes up to shifts, in 4 orbits of 12: at a
    ceiling of 3 the orbit walk forms the 4th orbit, once, and stops."""
    translates = us.GroupPoset.translates
    orbits = []

    def counted(poset, k):
        orbits.append(k)
        return translates(poset, k)

    monkeypatch.setattr(us.GroupPoset, "translates", counted)
    code, report = _run(capsys, ["classify", _write(tmp_path, DOCS["p345"]),
                                 "--max-classes", "3"])
    assert code == 2 and report["error"]["type"] == "ClassCountExceeded"
    assert report["error"]["details"] == {"ceiling": 3}
    assert len(orbits) == 4


def test_report_encoder_matches_json_dumps():
    doc = {"b": [[], {}, (1, -2), [True, False, None]], "a": "\u00e9\n\"",
           "c": {"z": 10 ** 40, "y": [{"x": ["\U0001f600"]}]},
           "d": [1.5, {1: "int key"}, {"n": {2: [3]}}]}
    assert _encode(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_report_with_an_unprintable_int_is_an_input_error():
    with pytest.raises(InputError, match="the report cannot be printed"):
        _emit({"twist_coords": [10 ** 5000]})


def test_cuts_enumerate_all_types(tmp_path, capsys):
    doc_in = {"lattice": {"d": 1, "b_generators": [[3, -3]]}}
    code, doc = _run(capsys, ["cuts", _write(tmp_path, doc_in)])
    assert code == 0
    realized = {tuple(t["type"]) for t in doc["types"]}
    assert all(t["admissible"] for t in doc["types"])
    assert sum(t["cut_count"] for t in doc["types"]) == doc["cut_count"]
    assert realized == {(0, 3), (1, 2), (2, 1), (3, 0)}


@pytest.mark.parametrize("name", ["p23", "p345", "p1p2"])
@pytest.mark.parametrize("mode", ["paper", "zp"])
def test_mutate_at_names_the_listed_neighbour(tmp_path, capsys, monkeypatch,
                                              name, mode):
    """For every class and every neighbour classify lists, mutate --at
    prints the neighbour's id as the result's id, and the mutated set
    (the site m replaced by m + p) as its line bundles.  The input is
    classified once; each mutate reuses that classification."""
    classified = {}

    def once(ctx, mode, max_classes):
        if mode not in classified:
            classified[mode] = _classify(ctx, mode, max_classes)
        return classified[mode]

    monkeypatch.setattr(cli, "_classify", once)
    path = _write(tmp_path, DOCS[name])
    code, doc = _run(capsys, ["classify", path, "--mode", mode])
    assert code == 0
    entries = (doc["classes"] if doc["rank"] == 1 else
               [c for g in doc["j_classes"] for c in g["classes"]])
    p = [sum(col) for col in zip(*DOCS[name]["group"]["degrees"])]
    edges = 0
    for entry in entries:
        for edge in entry["mutation_neighbors"]:
            code, out = _run(capsys, ["mutate", path, "--mode", mode,
                                      "--class", entry["id"],
                                      "--at", json.dumps(edge["at"])])
            assert code == 0 and out["result"]["id"] == edge["to"]
            moved = [[x + y for x, y in zip(v, p)] if v == edge["at"] else v
                     for v in entry["line_bundles"]]
            assert out["result"]["line_bundles"] == sorted(moved)
            edges += 1
    assert edges


def test_mutate_at_builds_each_arrow_table_once(tmp_path, capsys,
                                                monkeypatch):
    """P1xP2, paper mode: the classification builds the arrow tables of H
    and of its two base classes, and the mutation reads its class's
    checked table instead of building a fourth."""
    path = _write(tmp_path, DOCS["p1p2"])
    code, doc = _run(capsys, ["classify", path])
    assert code == 0 and doc["j_class_count"] == 2
    entry = doc["j_classes"][0]["classes"][0]
    edge = entry["mutation_neighbors"][0]
    built = []
    build = tilting.arrow_table

    def counted(poset):
        built.append(poset)
        return build(poset)

    monkeypatch.setattr(tilting, "arrow_table", counted)
    code, out = _run(capsys, ["mutate", path, "--class", entry["id"],
                              "--at", json.dumps(edge["at"])])
    assert code == 0 and out["result"]["id"] == edge["to"]
    assert len(built) == 3


def test_cuts_from_a_polytope_match_its_group(tmp_path, capsys):
    """The P^2 polytope and the group document of P^2 give the same cuts
    report; a rank-two polytope is refused as a rank-two group is."""
    p2_polytope = {"polytope": {"vertices": [[1, 0], [0, 1], [-1, -1]]}}
    outputs = []
    for name, doc_in in (("polytope.json", p2_polytope),
                         ("group.json", DOCS["p2"])):
        assert main(["cuts", _write(tmp_path, doc_in, name)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["cut_count"] == 3    # the zp classes
    code, doc = _run(capsys, ["cuts", _write(tmp_path, P1P1_POLYTOPE)])
    assert code == 2 and doc["error"]["type"] == "InputError"
    assert (doc["error"]["message"]
            == "cut systems come from rank-one graded groups")


def test_dot_dir_that_cannot_be_made_is_an_input_error(tmp_path, capsys):
    """--dot-dir naming a file, or a path under one, exits 2 with an
    InputError instead of a traceback."""
    path = _write(tmp_path, P23)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    for dot_dir in (taken, taken / "dots"):
        code, doc = _run(capsys, ["classify", path, "--dot-dir",
                                  str(dot_dir)])
        assert code == 2 and doc["error"]["type"] == "InputError"
        assert "cannot write DOT files" in doc["error"]["message"]


def test_walk_between_base_classes_is_an_input_error(tmp_path, capsys):
    """mutate --walk-to connects classes over one base class only: a
    target over another base exits 2 naming source and target."""
    path = _write(tmp_path, DOCS["p1p2"])
    code, doc = _run(capsys, ["classify", path])
    assert code == 0
    first, other = doc["j_classes"][0], doc["j_classes"][1]
    source, target = first["classes"][0]["id"], other["classes"][0]["id"]
    code, out = _run(capsys, ["mutate", path, "--class", source,
                              "--walk-to", target])
    assert code == 2 and out["error"]["type"] == "InputError"
    assert out["error"]["details"] == {"source": source, "target": target}


# -- the command table: _scan against argparse ---------------------------

VALUES = st.sampled_from(["x", "in.json", "0", "3", "-1", "-5", "paper",
                          "zp", "bad", "[0, 0]", "[[0], [7]]", "", " 7",
                          "1_0", "abc", "F3", "--mode", "classify"])
FLAGS = sorted({flag for _, _, options in cli._COMMANDS.values()
                for flag, _ in options})


def _value(draw, spec):
    """A value the option takes."""
    if "choices" in spec:
        return draw(st.sampled_from(spec["choices"]))
    if "type" in spec:
        return draw(st.sampled_from(["0", "3", "10000"]))
    return draw(st.sampled_from(["x", "[0, 0]", "[[0], [7]]", "F3"]))


@st.composite
def command_lines(draw):
    """A well-formed command line with up to two faults: a bad value or
    input, a foreign or repeated flag, an abbreviated flag, --flag=value,
    help or "--", a stray positional, a missing option or input, or a
    missing trailing value."""
    name = draw(st.sampled_from([*cli._COMMANDS, "frobnicate"]))
    options = dict(cli._COMMANDS[name][2]) if name in cli._COMMANDS else {}
    chosen = draw(st.lists(st.sampled_from(list(options) or ["-"]),
                           unique=True))
    pieces = [["x"]] + [
        [flag] if spec.get("action") == "store_true"
        else [flag, _value(draw, spec)]
        for flag, spec in options.items()
        if flag in chosen or spec.get("required")]
    truncate = False
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.integers(0, 7))
        i = draw(st.integers(0, len(pieces) - 1)) if pieces else 0
        piece = pieces[i] if pieces else ["x"]
        if fault == 0:
            pieces[i:i + 1] = [piece[:-1] + [draw(VALUES)]]
        elif fault == 1:
            pieces.append([draw(st.sampled_from(FLAGS)), draw(VALUES)])
        elif fault == 2 and piece[0][:2] == "--":
            cut = draw(st.integers(3, len(piece[0])))
            pieces[i:i + 1] = [[piece[0][:cut], *piece[1:]]]
        elif fault == 3:
            pieces[i:i + 1] = [["=".join(piece)]]
        elif fault == 4:
            pieces.append([draw(st.sampled_from(["-h", "--help", "--"]))])
        elif fault == 5:
            pieces.append([draw(VALUES)])
        elif fault == 6:
            del pieces[i:i + 1]
        else:
            truncate = True
    argv = [name] + [token for piece in draw(st.permutations(pieces))
                     for token in piece]
    return argv[:-1] if truncate else argv


def _argparse(argv):
    """vars(build_parser().parse_args(argv)), or None if it refuses."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except (InputError, SystemExit):
            return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
@example(argv=["classify", "x", "--mode", "zp", "--max-classes", "7",
               "--dot-dir", "d"])
@example(argv=["cohomology", "--all-r", "x", "--twist", "[0, 0]", "--r",
               "2", "--field", "F3"])
@example(argv=["mutate", "x", "--class", "0", "--at", "[1]", "--walk-to",
               "1"])
@example(argv=["cohomology", "x", "--twist", "[0]", "--r", "-1"])
@example(argv=["verify", "x", "--class", "-1"])
@example(argv=["verify", "x", "--max", "3"])
@example(argv=["classify", "x", "--mode", "bad"])
@example(argv=["classify", "x", "--max-classes", "1e3"])
@example(argv=["verify", "x", "--mode=zp"])
@example(argv=["classify", "x", "--mode", "zp", "--mode", "zp"])
@example(argv=["classify", "x", "--dot-dir"])
@example(argv=["cuts", "x", "--", "y"])
def test_scan_agrees_with_argparse(argv):
    """_scan gives argparse's namespace or leaves the line to argparse;
    it never accepts a line argparse refuses or answers with help."""
    scanned = cli._scan(argv)
    parsed = _argparse(argv)
    assert scanned is None or vars(scanned) == parsed


@pytest.mark.parametrize("argv", [
    ["classify", "x"],
    ["classify", "x", "--mode", "zp", "--max-classes", "7", "--dot-dir", "d"],
    ["cohomology", "--all-r", "x", "--twist", "[0, 0]", "--field", "F3"],
    ["mutate", "x", "--walk-to", "1", "--class", "0"],
    ["verify", "x", "--set", "[[0], [7]]"],
    ["cuts", "x"],
], ids=["classify", "classify_all", "cohomology", "mutate", "verify", "cuts"])
def test_scan_reads_canonical_lines(argv):
    assert vars(cli._scan(argv)) == _argparse(argv)


# SHA-256 of (stdout, stderr) at COLUMNS=80, recorded on Python 3.11 before
# the parser was built from the command table; argparse's layout differs
# between Python versions.
PARSER_TEXTS = {
    "--help": (
        "2fa07419a791df593f109a108d895e95b9f7995a101aaa5bbc8f1d36f262a6d5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "classify --help": (
        "2ae054076835f37a43b3255e3959958f07603c045163dbcf0376235c5862df00",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mutate --help": (
        "574f8fc6b5cb0c86f008284a842e0885e9cb24faea823a3fc870e5378b7c9948",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology --help": (
        "3f847bc11ab6619b97a4c24dda1dbdeeed13f866545e505042f2f8fe638b7bd7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --help": (
        "febc9d3fe0daeec174299ef4b9359678a109714e182732d5746ff3195fbc822a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cuts --help": (
        "de962a23b9688dc6df06a81c51e5aee1ba97bc91176cc364d742e84eb915d2bc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "classify x --mode bad": (
        "ccdc321b27681851be01f78f9cb86b525605228dc4b431fdd0b63869b09202da",
        "7f024f800e60419ace6c0e8845efec43ad7b20441f4c2bf50a234e5a9ec73936"),
    "cohomology x": (
        "55f8653e643c1afb787765341bb87680250e1591ec8100ebe52f44276283837c",
        "a01cf4bee4493799c6e4641990b1af51bdbe56e66435cb527161f25e084c735b"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's text was recorded on Python 3.11")
@pytest.mark.parametrize("line", list(PARSER_TEXTS))
def test_parser_texts_are_pinned(monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(line.split())
        except SystemExit as exc:
            code = exc.code
    assert code == (0 if "--help" in line else 2)
    assert (hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest()
            ) == PARSER_TEXTS[line]


_IMPORTS = """\
import contextlib, io, sys
from stacktilt.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, "argparse" in sys.modules)
"""


@pytest.mark.parametrize("argv, loaded", [(["classify", "{p23}"], "False"),
                                          (["cuts", "--help"], "True")],
                         ids=["canonical", "help"])
def test_argparse_is_loaded_only_for_help_and_errors(tmp_path, argv, loaded):
    """In a fresh interpreter, a canonical command line never imports
    argparse; --help does, and exits 0."""
    path = _write(tmp_path, P23)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS, *[a.format(p23=path) for a in argv]],
        capture_output=True, text=True, timeout=60, env=_cli_env())
    assert proc.stdout.split() == ["0", loaded], proc.stderr


_LOADED = """\
import contextlib, io, sys
from stacktilt.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv", [
    ["classify"], ["mutate", "--class", "0", "--walk-to", "1"],
    ["verify", "--set", "[[0], [1], [2], [3], [4]]"],
    ["cohomology", "--twist", "[-1, -1]", "--all-r"], ["cuts"]],
    ids=lambda argv: argv[0])
def test_commands_load_neither_dataclasses_nor_inspect(tmp_path, argv):
    """In a fresh interpreter, importing stacktilt and running a canonical
    command loads neither module: importing them took about 9 ms of every
    command's set-up, and the dataclass decorators about 10 ms more."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, argv[0], _write(tmp_path, P23),
         *argv[1:]],
        capture_output=True, text=True, timeout=60, env=_cli_env())
    assert proc.stdout.split() == ["0"], proc.stderr
