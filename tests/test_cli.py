import json

import pytest

from oracles import parse_dot
from stacktilt import cuts, tilting, upper_sets as us
from stacktilt.cli import _build_context, _classify, main

P23 = {"group": {"free_rank": 1, "torsion_orders": [], "degrees": [[2], [3]]}}
P1 = {"group": {"free_rank": 1, "torsion_orders": [], "degrees": [[1], [1]]}}
ZZ2_D1 = {"group": {"free_rank": 1, "torsion_orders": [2],
                    "degrees": [[1, 0], [1, 1]]}}
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
    (P23, "zp"), (ZZ2_D1, "paper"), (P1P1_POLYTOPE, "paper"),
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


LATTICE = {"d": 1, "b_generators": [[5, -5]], "gamma": [2, 3]}


@pytest.mark.parametrize("doc, argv", [
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
], ids=["twist-json", "at-json", "set-json", "lattice-no-d", "gamma-str",
        "gamma-float", "field-flag", "field-doc", "doc-number",
        "polytope-list", "vertex-str", "degree-number", "free-rank-float",
        "d-float", "twist-float",
        "twist-bool", "at-float", "set-entry", "F4", "Fp-6", "verify-F9",
        "set-and-class", "class-negative"])
def test_malformed_input_exits_2(tmp_path, capsys, doc, argv):
    path = _write(tmp_path, doc)
    code = main(argv[:1] + [path] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["type"] == "InputError"
    assert "Traceback" not in captured.err


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
    path = _write(tmp_path, P1)
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


def test_verify_single_class(tmp_path, capsys):
    path = _write(tmp_path, P1)
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
    p5711 = {"group": {"free_rank": 1, "torsion_orders": [],
                       "degrees": [[5], [7], [11]]}}
    code, doc = _run(capsys, ["cuts", _write(tmp_path, p5711)])
    assert code == 2 and doc["error"]["type"] == "InputError"
    assert doc["error"]["details"] == {"m": 23, "candidates": 2 ** 22}


def test_max_classes_env(tmp_path, capsys):
    code, doc = _run(capsys, ["classify", _write(tmp_path, P23),
                              "--max-classes", "1"])
    assert code == 2 and doc["error"]["type"] == "ClassCountExceeded"
    code, doc = _run(capsys, ["classify", _write(tmp_path, P23, "b.json"),
                              "--max-classes", "50"])
    assert code == 0


P1P2 = {"group": {"free_rank": 2, "torsion_orders": [],
                  "degrees": [[1, 0]] * 2 + [[0, 1]] * 3}}


def test_max_classes_bounds_rank2_total(tmp_path, capsys):
    path = _write(tmp_path, P1P2)
    code, doc = _run(capsys, ["classify", path, "--max-classes", "16"])
    assert code == 0 and doc["total_classes"] == 16
    code, doc = _run(capsys, ["classify", path, "--max-classes", "15"])
    assert code == 2
    assert doc["error"]["type"] == "ClassCountExceeded"
    assert doc["error"]["details"] == {"ceiling": 15}


def test_cuts_enumerate_all_types(tmp_path, capsys):
    doc_in = {"lattice": {"d": 1, "b_generators": [[3, -3]]}}
    code, doc = _run(capsys, ["cuts", _write(tmp_path, doc_in)])
    assert code == 0
    realized = {tuple(t["type"]) for t in doc["types"]}
    assert all(t["admissible"] for t in doc["types"])
    assert sum(t["cut_count"] for t in doc["types"]) == doc["cut_count"]
    assert realized == {(0, 3), (1, 2), (2, 1), (3, 0)}
