"""stacktilt command line: classify, mutate, cohomology, verify, cuts.

Input is a JSON document holding either a polytope or a group with
degrees; reports are JSON on stdout (sorted keys, so byte-identical
across runs), quivers optionally also as DOT files.  Exit codes:
0 success, 1 verification failure, 2 input/validation error (its
`error` object on stdout) or a stdout closed early (on stderr).

The commands and their options are declared once, in _COMMANDS.  A
well-formed command line is read straight from that table (_scan);
argparse is imported and its parser built only for --help and for a
command line it must reject, so it alone prints help, usage and errors.
"""

from __future__ import annotations

import json
import os
import sys
from json.encoder import encode_basestring_ascii
from math import isqrt
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from . import cuts as cuts_mod
from . import tilting
from . import upper_sets as us
from .abgroup import direct_sum_group
from .errors import InputError, OutputClosed, StacktiltError
from .graded_order import GradedDegreeGroup, check_free_rank
from .quiver import to_dot
from .stacky_geom import (CohomologyOracle, check_vertex_count, gale_dual,
                          group_to_polytope, parse_polytope)

SCHEMA_VERSION = 1
# the Smith form of Z + (Z/2)^t, cubic in t, takes about 5-8 ms at t = 64
# and 1.3 s at t = 400 (2-vCPU x86-64 host)
_MAX_TORSION_ORDERS = 64


def _encode(value, pad: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True), nested at pad.

    json falls back to its pure-Python encoder whenever indent is set;
    this one builds the same text with fewer calls per value.  Strings
    and ints go through json's own routines, any type but the JSON ones
    through json.dumps itself.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)   # ValueError past 4300 digits
    inner = pad + "  "
    if kind is list or kind is tuple:
        brackets, items = "[]", [_encode(v, inner) for v in value]
    elif kind is dict and all(type(k) is str for k in value):
        brackets, items = "{}", [
            f"{encode_basestring_ascii(k)}: {_encode(value[k], inner)}"
            for k in sorted(value)]
    elif value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    else:
        return json.dumps(value, indent=2,
                          sort_keys=True).replace("\n", "\n" + pad)
    if not items:
        return brackets
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{pad}{brackets[1]}")


def _emit(doc: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    try:
        text = _encode(doc)
    except ValueError as exc:   # Python prints no int over 4300 digits
        raise InputError(f"the report cannot be printed: {exc}") from None
    print(text)


def _int_vector(value, what: str) -> list:
    """value, checked to be a list of JSON integers (no bool, no float)."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise InputError(f"{what}: expected JSON integers", value=value)
    return value


def _json_flag(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:   # bad JSON, or an int over 4300 digits
        raise InputError(f"{what} is not valid JSON: {exc}") from None


def _parse_field(spec) -> Optional[int]:
    if spec is None or spec == "Q":
        return None
    p = None
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        p = spec["Fp"]
    elif isinstance(spec, str) and spec[:1] == "F" and spec[1:].isdecimal():
        p = int(spec[1:])
    if type(p) is not int:
        raise InputError(f"unrecognized field spec {spec!r}")
    if not 2 <= p < 2**31 or any(p % k == 0 for k in range(2, isqrt(p) + 1)):
        raise InputError("field characteristic must be a prime below 2^31",
                         characteristic=p)
    return p


def _load_document(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input file: {exc}") from None
    doc = _json_flag(text, "input")
    if not isinstance(doc, dict):
        raise InputError("input must be a JSON object")
    return doc


def _build_context(doc: dict):
    """(ctx, polytope) from an input document; the polytope may be derived."""
    has_polytope = "polytope" in doc
    has_group = "group" in doc
    if has_polytope == has_group:
        raise InputError("input needs exactly one of 'polytope' or 'group'")
    if has_polytope:
        spec = doc["polytope"]
        vertices = spec.get("vertices") if isinstance(spec, dict) else None
        if not isinstance(vertices, list) or not vertices:
            raise InputError("polytope.vertices must be a nonempty list")
        vertices = [_int_vector(v, "a polytope vertex") for v in vertices]
        if "dim" in spec and any(len(v) != spec["dim"] for v in vertices):
            raise InputError("vertex length disagrees with polytope.dim")
        d = len(vertices[0])
        if d and all(len(v) == d for v in vertices):
            # the Gale dual has free rank n - d; refused before
            # parse_polytope tries every d-subset of the vertices as a facet
            check_free_rank(len(vertices) - d)
        polytope = parse_polytope(vertices)
        return gale_dual(polytope), polytope
    spec = doc["group"]
    try:
        free_rank, = _int_vector([spec["free_rank"]], "group.free_rank")
        torsion = _int_vector(spec.get("torsion_orders", []),
                              "group.torsion_orders")
        degree_vecs = [_int_vector(v, "a group degree")
                       for v in spec["degrees"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed group spec: {exc}") from None
    if not degree_vecs:
        raise InputError("group.degrees must be nonempty")
    check_free_rank(free_rank)
    if len(torsion) > _MAX_TORSION_ORDERS:
        raise InputError("too many torsion orders: the group's Smith form "
                         "is cubic in their number, which may be at "
                         "most `bound`",
                         count=len(torsion), bound=_MAX_TORSION_ORDERS)
    group = direct_sum_group(free_rank, torsion)
    degrees = [group.canonicalize(list(v)) for v in degree_vecs]
    return GradedDegreeGroup.build(group, degrees), None


def _oracle_context(args, classify: bool = False):
    """(ctx, oracle, field, classes) of cohomology and verify.  The bounds
    come before the work they guard: the vertex bound before a group's
    polytope and its C(n, d) facet search, and with classify the classes,
    and so the coset bound, before the oracle's Smith forms."""
    doc = _load_document(args.input)
    ctx, polytope = _build_context(doc)
    check_vertex_count(ctx.n)
    field = _parse_field(args.field or doc.get("field"))
    classes = (_classify(ctx, args.mode, args.max_classes)[0] if classify
               else None)
    if polytope is None:
        polytope = group_to_polytope(ctx)
    return ctx, CohomologyOracle(polytope, ctx), field, classes


def _class_entries(classes) -> list:
    """The classes with their quivers and the downward edges of the
    enumeration, whose targets are classes of the same list."""
    ids = {tc.rep: tc.class_id for tc in classes}
    return [{"id": tc.class_id,
             "line_bundles": tc.degrees_json(),
             "quiver": tc.quiver.to_json(),
             "mutation_neighbors": [{"at": list(m.coords), "to": ids[n]}
                                    for m, n in tc.rep.edges]}
            for tc in classes]


def _rank1_report(classes, mode: str) -> dict:
    return {"rank": 1, "mode": mode, "class_count": len(classes),
            "classes": _class_entries(classes)}


def _rank2_report(result) -> dict:
    split = result.split
    h_group = split.h_ctx.group
    j_entries = []
    for grp in result.groups:
        j_entries.append({
            "id": grp.base_id,
            "elements": [list(e.coords) for e in grp.base.elements],
            "class_count": len(grp.classes),
            "merged_class_count": grp.merged_class_count,
            "classes": _class_entries(grp.classes),
        })
    return {
        "rank": 2,
        "split": {
            "order": list(split.order),
            "l": split.l,
            "l_prime": split.l_prime,
            "pi_values": list(split.pi_values),
            "h_free_rank": h_group.free_rank,
            "h_torsion_orders": list(h_group.torsion_orders),
            "s": list(split.s.coords),
            "s_free": split.h_ctx.theta_val(split.s),
        },
        "j_class_count": len(j_entries),
        "total_classes": sum(g["class_count"] for g in j_entries),
        "j_classes": j_entries,
    }


def _classify(ctx, mode: str, max_classes: int):
    """(classes, report): the report is built only when called."""
    if ctx.group.free_rank == 1:
        classes = tilting.classify_rank1(ctx, mode=mode,
                                         max_classes=max_classes)
        return classes, lambda: _rank1_report(classes, mode)
    result = tilting.classify_rank2(ctx, mode=mode, max_classes=max_classes)
    return result.classes, lambda: _rank2_report(result)


def _write_dots(classes, dot_dir: str) -> None:
    out = Path(dot_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for tc in classes:
            (out / f"{tc.class_id}.dot").write_text(
                to_dot(tc.quiver, name=tc.class_id), encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write DOT files: {exc}") from None


def _find_class(classes, token: str):
    for tc in classes:
        if tc.class_id == token:
            return tc
    # int() refuses over 4300 digits, and no index has 20
    if token.isdecimal() and len(token) < 20 and int(token) < len(classes):
        return classes[int(token)]
    raise InputError(f"no class {token!r} in the classification")


def cmd_classify(args) -> int:
    doc = _load_document(args.input)
    ctx, _ = _build_context(doc)
    classes, report = _classify(ctx, args.mode, args.max_classes)
    if args.dot_dir:
        _write_dots(classes, args.dot_dir)
    _emit({"command": "classify", **report()})
    return 0


def cmd_mutate(args) -> int:
    doc = _load_document(args.input)
    if (args.at is None) == (args.walk_to is None):
        raise InputError("mutate needs exactly one of --at or --walk-to")
    ctx, _ = _build_context(doc)
    classes, _ = _classify(ctx, args.mode, args.max_classes)
    tc = _find_class(classes, args.class_id)
    if args.at is not None:
        coords = tuple(_int_vector(_json_flag(args.at, "--at"), "--at"))
        m = next((e for e in tc.elements if e.coords == coords), None)
        if m is None:
            raise InputError(f"no line bundle with coordinates {list(coords)}",
                             class_id=tc.class_id)
        mutated = tilting.apr_mutate(tc, m)
        _emit({"command": "mutate", "from": tc.class_id,
               "at": list(coords),
               "result": {"id": mutated.class_id,
                          "line_bundles": mutated.degrees_json()}})
        return 0
    target = _find_class(classes, args.walk_to)
    if tc.rep.poset is not target.rep.poset:
        raise InputError("classes live over different base classes",
                         source=tc.class_id, target=target.class_id)
    moves = us.connect(tc.rep, target.rep, mode=tc.translation)
    _emit({"command": "mutate", "from": tc.class_id, "walk_to": target.class_id,
           "moves": [{"fiber": list(f), "direction": d} for f, d in moves],
           "length": len(moves)})
    return 0


def cmd_cohomology(args) -> int:
    ctx, oracle, field, _ = _oracle_context(args)
    exponents = _int_vector(_json_flag(args.twist, "--twist"), "--twist")
    if len(exponents) != ctx.n:
        raise InputError(
            f"--twist must be an integer vector of length {ctx.n} "
            "(coefficients over the degrees x1..xn)")
    g = ctx.group.zero()
    for a, x in zip(exponents, ctx.degrees):
        g = g + a * x
    if args.all_r:
        table = oracle.all_r(g, field)
    else:
        table = {args.r: oracle.cohomology_dim(g, args.r, field)}
    _emit({"command": "cohomology", "twist_exponents": exponents,
           "twist_coords": list(g.coords),
           "field": "Q" if field is None else f"F{field}",
           "dims": {str(r): v for r, v in sorted(table.items())}})
    return 0


def cmd_verify(args) -> int:
    ctx, oracle, field, classes = _oracle_context(
        args, classify=args.set is None)
    if args.set is not None:
        if args.class_id is not None:
            raise InputError("verify takes at most one of --set or --class")
        vectors = _json_flag(args.set, "--set")
        if not isinstance(vectors, list):
            raise InputError("--set must be a list of coordinate vectors")
        elements = [ctx.group.from_coords(_int_vector(v, "a --set vector"))
                    for v in vectors]
        if not elements:
            raise InputError("--set names no line bundle")
        repeated = sorted({e.coords for e in elements
                           if elements.count(e) > 1})
        if repeated:
            raise InputError("--set names a line bundle more than once",
                             repeated=[list(c) for c in repeated])
        sets = [("explicit", elements)]
    else:
        if args.class_id is not None:
            classes = [_find_class(classes, args.class_id)]
        sets = [(tc.class_id, tc.elements) for tc in classes]
    entries = [{"id": set_id, **tilting.verify_class(
                    oracle, elements, field=field).to_json()}
               for set_id, elements in sets]
    ok = all(entry["ok"] for entry in entries)
    _emit({"command": "verify", "ok": ok, "classes": entries})
    return 0 if ok else 1


def _check_detector_search(m: int, d: int) -> None:
    """Refuse a typed detector search by what the old product over all
    2^(m - 1) candidate tables of m * (d + 1) arrows each would cost.
    `cuts.enumerate_detectors` is a pruned depth-first search that builds
    no tables: it lists the 989 detectors of P(5,7,11), m = 23, in about
    0.01 s on a 2-vCPU Xeon host, an input this rule refuses.  The rule
    stays so that no exit code changes until a bound on the output
    replaces it (ROADMAP.md, "`cuts`: let the output bound the work").
    The detail is the log, printable at any m, and every m > 24 is
    refused before 2^(m - 1) is built."""
    if m > 24 or 2 ** (m - 1) * m * (d + 1) > 2 ** 24:
        raise InputError("too many candidate tables for detector "
                         "enumeration", m=m, candidates_log2=m - 1)


def cmd_cuts(args) -> int:
    doc = _load_document(args.input)
    if "lattice" in doc:
        spec = doc["lattice"]
        try:
            d, = _int_vector([spec["d"]], "lattice.d")
            b_gens = [_int_vector(v, "a B generator")
                      for v in spec["b_generators"]]
            gamma = (tuple(_int_vector(spec["gamma"], "lattice.gamma"))
                     if "gamma" in spec else None)
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed lattice spec: {exc}") from None
        lq = cuts_mod.build_quotient(d, b_gens)
    elif "group" in doc or "polytope" in doc:
        ctx, _ = _build_context(doc)
        if ctx.group.free_rank != 1:
            raise InputError("cut systems come from rank-one graded groups")
        # m = |G/Zp| and d = n - 1, checked before L/B is built
        _check_detector_search(ctx.group.quotient_by([ctx.p])[0].size(),
                               ctx.n - 1)
        lq, gamma = cuts_mod.data_of_group(ctx)
    else:
        raise InputError("cuts needs a 'lattice', 'group' or 'polytope' "
                         "input")
    report = {"command": "cuts", "d": lq.d, "m": lq.m,
              "b_generators_alpha": [list(c) for c in lq.b_gens_alpha]}
    if gamma is not None:
        ok, reason = cuts_mod.is_admissible_type(lq, gamma)
        report["type"] = list(gamma)
        report["admissible"] = ok
        if not ok:
            report["reason"] = f"inadmissible: {reason}"
            _emit(report)
            return 0
        _check_detector_search(lq.m, lq.d)
        detectors = cuts_mod.enumerate_detectors(lq, gamma)
        entries = []
        for det in detectors:
            cut = cuts_mod.cut_from_detector(det)
            entries.append({
                "detector": [[list(v), f]
                             for v, f in sorted(det.table.items())],
                "cut": sorted([list(v), i] for v, i in cut),
                "bounding": cuts_mod.is_bounding(lq, cut),
            })
        report["cut_count"] = len(entries)
        report["cuts"] = entries
        _emit(report)
        return 0
    if lq.m * (lq.d + 1) > 36:
        raise InputError("quiver too large for exhaustive cut enumeration")
    counts = cuts_mod.enumerate_cuts(lq)
    report["types"] = [
        {"type": list(t), "cut_count": n,
         "admissible": cuts_mod.is_admissible_type(lq, t)[0]}
        for t, n in sorted(counts.items())
    ]
    report["cut_count"] = sum(counts.values())
    _emit(report)
    return 0


def non_negative_int(token: str) -> int:
    """An int option refused below 0, a ceiling that no walk can keep."""
    if int(token) < 0:
        raise ValueError(token)
    return int(token)


_CLASSIFIES = (
    ("--mode", {"choices": ("paper", "zp"), "default": "paper",
                "help": "class counting: full translations (paper) "
                        "or shifts by p only"}),
    ("--max-classes", {"type": non_negative_int, "default": 10_000}),
)
_FIELD = ("--field", {"help": '"Q" or "F<p>"'})

# The five commands: name -> (help, handler, options).  Every command takes
# the input path as its one positional argument; an option is its flag and
# the keyword arguments argparse's add_argument takes for it (dest, default,
# type or choices, required, action, help).  build_parser and _scan both
# read this table.
_COMMANDS = {
    "classify": ("enumerate all tilting classes", cmd_classify, (
        *_CLASSIFIES,
        ("--dot-dir", {"help": "write one DOT file per class"}),
    )),
    "mutate": ("single mutation or a mutation walk", cmd_mutate, (
        *_CLASSIFIES,
        ("--class", {"dest": "class_id", "required": True,
                     "help": "class id or index from classify"}),
        ("--at", {"help": "coordinates of the line bundle to mutate at"}),
        ("--walk-to", {"help": "target class id or index"}),
    )),
    "cohomology": ("line bundle cohomology dimensions", cmd_cohomology, (
        ("--twist", {"required": True,
                     "help": "JSON exponent vector over the degrees x1..xn"}),
        ("--all-r", {"action": "store_true"}),
        ("--r", {"type": int, "default": 0}),
        _FIELD,
    )),
    "verify": ("Ext-vanishing report via the oracle", cmd_verify, (
        *_CLASSIFIES,
        ("--class", {"dest": "class_id"}),
        ("--set", {"help": "JSON list of canonical coordinate vectors "
                           "to verify instead of classified classes"}),
        _FIELD,
    )),
    "cuts": ("cut/detector enumeration for (B, gamma)", cmd_cuts, ()),
}


def build_parser():
    """The argparse parser of _COMMANDS; it reports a bad command line as
    an InputError, so main prints it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            raise InputError(message)

        def exit(self, status=0, message=None):
            sys.stdout.flush()   # after --help, inside main's try
            super().exit(status, message)

    parser = _Parser(
        prog="stacktilt",
        description="tilting bundles of line bundles on toric Fano stacks "
                    "of Picard rank one and two")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("input", help="path to the JSON input document")
        for flag, spec in options:
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


def _scan(argv) -> Optional[SimpleNamespace]:
    """build_parser().parse_args(argv) for a command line in canonical form,
    else None.

    Canonical: a command, one positional token and options spelled exactly
    as in _COMMANDS, each at most once, each value a token of its own that
    does not start with "-" and passes the option's type and choices, and
    every required option present.  Anything else (help, abbreviations,
    --flag=value, negative numbers, errors) is left to argparse, which
    alone prints help, usage and errors.
    """
    if not argv or any(type(token) is not str for token in argv):
        return None
    command = _COMMANDS.get(argv[0])
    if command is None:
        return None
    _, func, options = command
    specs = dict(options)
    found = {}
    positional = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            positional.append(token)
            continue
        spec = specs.get(token)
        if spec is None or token in found:
            return None
        if spec.get("action") == "store_true":
            found[token] = True
            continue
        value = next(tokens, None)
        if value is None or value[:1] == "-":
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except (TypeError, ValueError):
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        found[token] = value
    if len(positional) != 1 or any(spec.get("required") and flag not in found
                                   for flag, spec in options):
        return None
    args = SimpleNamespace(command=argv[0], input=positional[0], func=func)
    for flag, spec in options:
        default = False if spec.get("action") == "store_true" else None
        setattr(args, spec.get("dest", flag[2:].replace("-", "_")),
                found.get(flag, spec.get("default", default)))
    return args


def _error(exc: StacktiltError, file=None) -> None:
    """Print exc's error object, without details Python cannot print."""
    try:
        text = _encode({"schema_version": SCHEMA_VERSION,
                        "error": exc.to_json()})
    except ValueError as err:
        text = _encode({"schema_version": SCHEMA_VERSION, "error": {
            "type": exc.code, "details": {},
            "message": f"{exc} (its details cannot be printed: {err})"}})
    print(text, file=file)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = _scan(argv) or build_parser().parse_args(argv)
            code = args.func(args)
        except StacktiltError as exc:
            _error(exc)
            code = 2
        sys.stdout.flush()   # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _error(OutputClosed("stdout was closed before the report was "
                            "written"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
