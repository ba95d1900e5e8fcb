"""Fuzz the CLI in-process over small documents and flags.

Every run must exit 0, 1 or 2, print exactly one JSON object on stdout,
and carry `error` exactly when it exits 2.  Documents are rank-one groups
with at most three degrees of weight 1..5 and torsion of order at most 3,
some with a malformed entry.  Only groups with |G/Zp| = (weight sum) x
(torsion order) <= 12 are drawn, so that the test stays within seconds:
classify and cuts grow exponentially with |G/Zp| (cuts on Z + Z/3 with
degrees (2, 2), (4, 0), (5, 1), where |G/Zp| = 33, does not finish in
20 s).  Rank-two classify is left out for the same reason.  The examples
are derandomized, so every run checks the same inputs.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from stacktilt.cli import main

MAX_QUOTIENT = 12
JUNK = st.sampled_from([1.5, "1", None, True, [], [1, 0, 0]])
TOKENS = st.sampled_from(["0", "0", "1", "1", "3", "-1", "x"])
FIELDS = st.sampled_from(["Q", "F2", "F3", "F4", "Fx", "F0"])


@st.composite
def documents(draw):
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


@st.composite
def _vector(draw, length):
    """Mostly a well-formed integer vector; else one too long, or junk."""
    kind = draw(st.integers(0, 5))
    if kind == 5:
        return draw(JUNK)
    if kind == 4:
        length += 1
    return draw(st.lists(st.integers(-4, 8), min_size=length,
                         max_size=length))


@st.composite
def commands(draw, n_degrees, n_coords):
    """argv after the input path, for one of the five commands."""
    command = draw(st.sampled_from(["classify", "mutate", "verify",
                                    "cohomology", "cuts"]))
    argv = [command]
    if command in ("classify", "mutate"):
        argv += ["--mode", draw(st.sampled_from(["paper", "zp"])),
                 "--max-classes", draw(st.sampled_from(["2", "10000"]))]
    if command == "mutate":
        argv += ["--class", draw(TOKENS)]
        walk = draw(st.sampled_from([True, False, None]))
        if walk is not False:
            argv += ["--walk-to", draw(TOKENS)]
        if walk is not True:
            argv += ["--at", json.dumps(draw(_vector(n_coords)))]
    elif command == "verify":
        vectors = draw(st.lists(_vector(n_coords), min_size=1, max_size=3))
        argv += ["--set", json.dumps(vectors)]
    elif command == "cohomology":
        argv += ["--twist", json.dumps(draw(_vector(n_degrees)))]
        argv += ["--all-r"] if draw(st.booleans()) else [
            "--r", str(draw(st.integers(-1, 3)))]
    if command in ("verify", "cohomology") and draw(st.booleans()):
        argv += ["--field", draw(FIELDS)]
    return argv


@st.composite
def cases(draw):
    doc = draw(documents())
    group = doc["group"]
    return doc, draw(commands(len(group["degrees"]),
                              1 + ("torsion_orders" in group)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=cases())
def test_cli_fuzz_exit_codes(tmp_path_factory, case):
    doc, argv = case
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv[:1] + [str(path)] + argv[1:])
    assert code in (0, 1, 2)
    report = json.loads(out.getvalue())
    assert isinstance(report, dict)
    assert ("error" in report) == (code == 2)
    assert code != 1 or argv[0] == "verify"
