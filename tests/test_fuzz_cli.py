"""Fuzz the CLI in-process over small documents and flags.

Every run must exit 0, 1 or 2, print exactly one JSON object on stdout,
and carry `error` exactly when it exits 2.  Documents
(`corpus.documents`) are rank-one groups with at most three degrees of
weight 1..5 and torsion of order at most 3, some with a malformed entry.
Only groups with |G/Zp| = (weight sum) x (torsion order) <= 12 are
drawn, so that the test stays within seconds: classify grows
exponentially with |G/Zp|.  `cuts` no longer does in practice, as its
detector search prunes each branch as soon as an arrow fails, but its
guard still refuses |G/Zp| > 24 at once (Z + Z/3 with degrees (2, 2),
(4, 0), (5, 1), where |G/Zp| = 33, exits 2 in milliseconds).  Rank-two
classify is left out for the same reason.  The examples are
derandomized, so every run checks the same inputs.

A second test feeds inputs that must all exit 2: integers over Python's
4300-digit limit in degrees and flags, a `cuts` type whose sum is over
it, torsion orders under it whose coset count is over it, and `cuts`
inputs with |L/B| up to 20,000.  It draws no parseable huge degree, as
classify on one would run for long.  A third reads the fuzzed command
lines through the command table's scan, as argparse reads them.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings, strategies as st

from corpus import JUNK, documents
from stacktilt import cli
from stacktilt.cli import main

TOKENS = st.sampled_from(["0", "0", "1", "1", "3", "-1", "x"])
FIELDS = st.sampled_from(["Q", "F2", "F3", "F4", "Fx", "F0"])


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


FLAGS = {flag for _, _, options in cli._COMMANDS.values()
         for flag, _ in options}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=cases())
def test_every_fuzzed_command_line_is_scanned(case):
    """These command lines take the scan, except those with a value that
    starts with "-" (--r -1, --class -1), which the scan leaves to
    argparse."""
    _, argv = case
    argv = argv[:1] + ["input.json"] + argv[1:]
    scanned = cli._scan(argv)
    if any(token[:1] == "-" and token not in FLAGS for token in argv[2:]):
        assert scanned is None
    else:
        assert scanned is not None
        assert vars(scanned) == vars(cli.build_parser().parse_args(argv))


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


# Small rank-one documents for the oversize flags: (degrees, coordinates).
SMALL = st.sampled_from([([[1], [1], [1]], 1), ([[2], [3]], 1),
                         ([[1, 0], [1, 1]], 2)])


def _repdigit(draw, low: int, high: int) -> str:
    """Decimal text of low..high equal nonzero digits."""
    return draw(st.sampled_from("123456789")) * draw(st.integers(low, high))


@st.composite
def huge_integers(draw):
    """JSON text of an integer over Python's 4300-digit int() limit."""
    digits = _repdigit(draw, 4301, 6000)
    return draw(st.sampled_from(["", "-"])) + digits


def _text_vector(draw, length, huge):
    """JSON text of an integer vector with huge at a drawn position."""
    parts = [str(draw(st.integers(-4, 8))) for _ in range(length)]
    parts[draw(st.integers(0, length - 1))] = huge
    return "[" + ", ".join(parts) + "]"


@st.composite
def oversize_cases(draw):
    """(document text, argv after the input path), all refused with exit 2.

    Huge integers go into a degree, --twist, --at, --set or --class;
    `derived` draws two torsion orders of 2200..4300 digits, each printable,
    whose 3ab cosets of Zp are not; `cuts` gets lattices and groups with
    m = |L/B| in 24..20,000, past both of its guards (typed:
    2^(m-1) m (d+1) > 2^24, untyped: m (d+1) > 36).
    """
    where = draw(st.sampled_from(["degree", "--twist", "--at", "--set",
                                  "--class", "derived", "lattice", "group"]))
    if where == "derived":
        orders = [int(_repdigit(draw, 2200, 4300)) for _ in range(2)]
        return _derived_doc(orders), draw(st.sampled_from([
            ["classify"], ["cuts"],
            ["mutate", "--class", "0", "--walk-to", "0"], ["verify"]]))
    degrees, n_coords = draw(SMALL)
    group = {"free_rank": 1, "degrees": degrees,
             "torsion_orders": [2] * (n_coords - 1)}
    if where == "degree":
        group = {**group, "degrees": degrees[:-1] + [["HUGE"]]}
        doc = json.dumps({"group": group}).replace('"HUGE"',
                                                    draw(huge_integers()))
        return doc, draw(st.sampled_from([
            ["classify"], ["verify"], ["cuts"],
            ["mutate", "--class", "0", "--walk-to", "0"],
            ["cohomology", "--twist", "[0, 0, 0]", "--r", "0"]]))
    doc = json.dumps({"group": group})
    if where == "--twist":
        return doc, ["cohomology", "--twist",
                     _text_vector(draw, len(degrees), draw(huge_integers()))]
    if where == "--at":
        return doc, ["mutate", "--class", "0", "--at",
                     _text_vector(draw, n_coords, draw(huge_integers()))]
    if where == "--set":
        return doc, ["verify", "--set",
                     "[" + _text_vector(draw, n_coords,
                                        draw(huge_integers())) + "]"]
    if where == "--class":
        token = draw(huge_integers()).lstrip("-")
        return doc, draw(st.sampled_from([
            ["verify", "--class", token],
            ["mutate", "--class", token, "--walk-to", "0"],
            ["mutate", "--class", "0", "--walk-to", token]]))
    m = draw(st.integers(24, 20_000))
    if where == "group":
        return json.dumps({"group": {"free_rank": 1,
                                     "degrees": [[1], [m - 1]]}}), ["cuts"]
    lattice = {"d": 1, "b_generators": [[m, -m]]}
    if draw(st.booleans()):
        a = draw(st.integers(0, m))
        lattice["gamma"] = [a, m - a]
    return json.dumps({"lattice": lattice}), ["cuts"]


def _derived_doc(orders) -> str:
    """A group of two torsion orders whose cosets of Zp number 3ab."""
    return json.dumps({"group": {"free_rank": 1, "torsion_orders": orders,
                                 "degrees": [[1, 0, 0], [1, 1, 0],
                                             [1, 0, 1]]}})


def _cuts_case(spec):
    return json.dumps(spec), ["cuts"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=oversize_cases())
@example(case=_cuts_case({"lattice": {"d": 1, "b_generators": [[20_000,
                                                                 -20_000]],
                                      "gamma": [1, 19_999]}}))
@example(case=_cuts_case({"lattice": {"d": 1, "b_generators": [[20_000,
                                                                 -20_000]]}}))
@example(case=_cuts_case({"group": {"free_rank": 1,
                                    "degrees": [[1], [20_000]]}}))
@example(case=_cuts_case({"lattice": {"d": 1, "b_generators": [[2, -2]],
                                      "gamma": [int("9" * 4300)] * 2}}))
@example(case=(_derived_doc([10 ** 4000 + 7, 10 ** 4000 + 9]),
               ["mutate", "--class", "0", "--walk-to", "0"]))
def test_cli_fuzz_oversize_inputs(tmp_path_factory, case):
    doc, argv = case
    path = tmp_path_factory.mktemp("oversize") / "input.json"
    path.write_text(doc, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv[:1] + [str(path)] + argv[1:])
    assert code == 2
    report = json.loads(out.getvalue())
    assert isinstance(report, dict) and "error" in report
