"""stacktilt command line: classify, mutate, cohomology, verify, cuts.

Input is a JSON document holding either a polytope or a group with
degrees; reports are JSON on stdout (sorted keys, so byte-identical
across runs), quivers optionally also as DOT files.  Exit codes:
0 success, 1 verification failure, 2 input/validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import isqrt
from pathlib import Path
from typing import Optional

from . import cuts as cuts_mod
from . import tilting
from . import upper_sets as us
from .abgroup import direct_sum_group
from .errors import InputError, StacktiltError
from .graded_order import GradedDegreeGroup
from .quiver import to_dot
from .stacky_geom import (CohomologyOracle, StackyPolytope, gale_dual,
                          group_to_polytope, parse_polytope)

SCHEMA_VERSION = 1


def _emit(doc: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    print(json.dumps(doc, indent=2, sort_keys=True))


def _int_vector(value, what: str) -> list:
    """value, checked to be a list of JSON integers (no bool, no float)."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise InputError(f"{what}: expected JSON integers", value=value)
    return value


def _json_flag(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{flag} is not valid JSON: {exc}") from None


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
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from None
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
    group = direct_sum_group(free_rank, torsion)
    degrees = [group.canonicalize(list(v)) for v in degree_vecs]
    return GradedDegreeGroup.build(group, degrees), None


def _ensure_polytope(ctx, polytope) -> StackyPolytope:
    return polytope if polytope is not None else group_to_polytope(ctx)


def _class_entry(tc) -> dict:
    """A class with its quiver and the downward edges of the enumeration."""
    return {
        "id": tc.class_id,
        "line_bundles": tc.degrees_json(),
        "quiver": tc.quiver.to_json(),
        "mutation_neighbors": [{"at": list(m.coords),
                                "to": tilting._class_id(tc.rank, n.elements)}
                               for m, n in tc.rep.edges],
    }


def _rank1_report(classes, mode: str) -> dict:
    return {"rank": 1, "mode": mode, "class_count": len(classes),
            "classes": [_class_entry(tc) for tc in classes]}


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
            "classes": [_class_entry(tc) for tc in grp.classes],
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
    out.mkdir(parents=True, exist_ok=True)
    for tc in classes:
        (out / f"{tc.class_id}.dot").write_text(
            to_dot(tc.quiver, name=tc.class_id), encoding="utf-8")


def _find_class(classes, token: str):
    for tc in classes:
        if tc.class_id == token:
            return tc
    if token.isdecimal() and int(token) < len(classes):
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
    if tc.rank == 2 and (tc.base is not target.base):
        raise InputError("classes live over different base classes",
                         source=tc.class_id, target=target.class_id)
    moves = us.connect(tc.rep, target.rep, mode=tc.translation)
    _emit({"command": "mutate", "from": tc.class_id, "walk_to": target.class_id,
           "moves": [{"fiber": list(f), "direction": d} for f, d in moves],
           "length": len(moves)})
    return 0


def cmd_cohomology(args) -> int:
    doc = _load_document(args.input)
    ctx, polytope = _build_context(doc)
    polytope = _ensure_polytope(ctx, polytope)
    oracle = CohomologyOracle(polytope, ctx)
    field = _parse_field(args.field if args.field else doc.get("field"))
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
    doc = _load_document(args.input)
    ctx, polytope = _build_context(doc)
    polytope = _ensure_polytope(ctx, polytope)
    oracle = CohomologyOracle(polytope, ctx)
    field = _parse_field(args.field if args.field else doc.get("field"))
    entries = []
    ok = True
    if args.set is not None:
        if args.class_id is not None:
            raise InputError("verify takes at most one of --set or --class")
        vectors = _json_flag(args.set, "--set")
        if not isinstance(vectors, list):
            raise InputError("--set must be a list of coordinate vectors")
        elements = [ctx.group.from_coords(_int_vector(v, "a --set vector"))
                    for v in vectors]
        report = tilting.verify_class(oracle, elements, field=field)
        ok = report.ok
        entries.append({"id": "explicit", **report.to_json()})
    else:
        classes, _ = _classify(ctx, args.mode, args.max_classes)
        if args.class_id is not None:
            classes = [_find_class(classes, args.class_id)]
        for tc in classes:
            report = tilting.verify_class(oracle, tc.elements, field=field)
            ok = ok and report.ok
            entries.append({"id": tc.class_id, **report.to_json()})
    _emit({"command": "verify", "ok": ok, "classes": entries})
    return 0 if ok else 1


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
    elif "group" in doc:
        ctx, _ = _build_context(doc)
        if ctx.group.free_rank != 1:
            raise InputError("cut systems come from rank-one graded groups")
        lq, gamma = cuts_mod.data_of_group(ctx)
    else:
        raise InputError("cuts needs a 'lattice' or 'group' input")
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
        # one candidate table per choice along the m - 1 tree edges, each
        # checked on m * (d + 1) arrows
        candidates = 2 ** (lq.m - 1)
        if candidates * lq.m * (lq.d + 1) > 2 ** 24:
            raise InputError("too many candidate tables for detector "
                             "enumeration", m=lq.m, candidates=candidates)
        detectors = cuts_mod.enumerate_detectors(lq, gamma)
        entries = []
        for det in detectors:
            cut = cuts_mod.cut_from_detector(det)
            entries.append({
                "detector": [[list(v), f] for v, f in det.items()],
                "cut": sorted([list(v), i] for v, i in cut),
                "bounding": cuts_mod.is_bounding(lq, cut),
            })
        report["cut_count"] = len(entries)
        report["cuts"] = entries
        _emit(report)
        return 0
    if lq.m * (lq.d + 1) > 36:
        raise InputError("quiver too large for exhaustive cut enumeration")
    all_cuts = cuts_mod.enumerate_cuts(lq)
    by_type: dict = {}
    for cut in all_cuts:
        by_type.setdefault(cuts_mod.cut_type(lq, cut), []).append(cut)
    report["types"] = [
        {"type": list(t), "cut_count": len(cs),
         "admissible": cuts_mod.is_admissible_type(lq, t)[0]}
        for t, cs in sorted(by_type.items())
    ]
    report["cut_count"] = len(all_cuts)
    _emit(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacktilt",
        description="tilting bundles of line bundles on toric Fano stacks "
                    "of Picard rank one and two")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, classifies=True):
        p.add_argument("input", help="path to the JSON input document")
        if classifies:
            p.add_argument("--mode", choices=("paper", "zp"), default="paper",
                           help="class counting: full translations (paper) "
                                "or shifts by p only")
            p.add_argument("--max-classes", type=int, default=10_000)

    p = sub.add_parser("classify", help="enumerate all tilting classes")
    common(p)
    p.add_argument("--dot-dir", help="write one DOT file per class")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("mutate", help="single mutation or a mutation walk")
    common(p)
    p.add_argument("--class", dest="class_id", required=True,
                   help="class id or index from classify")
    p.add_argument("--at", help="coordinates of the line bundle to mutate at")
    p.add_argument("--walk-to", help="target class id or index")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("cohomology", help="line bundle cohomology dimensions")
    common(p, classifies=False)
    p.add_argument("--twist", required=True,
                   help="JSON exponent vector over the degrees x1..xn")
    p.add_argument("--all-r", action="store_true")
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--field", help='"Q" or "F<p>"')
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("verify", help="Ext-vanishing report via the oracle")
    common(p)
    p.add_argument("--class", dest="class_id")
    p.add_argument("--set", help="JSON list of canonical coordinate vectors "
                                 "to verify instead of classified classes")
    p.add_argument("--field", help='"Q" or "F<p>"')
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cuts", help="cut/detector enumeration for (B, gamma)")
    common(p, classifies=False)
    p.set_defaults(func=cmd_cuts)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StacktiltError as exc:
        print(json.dumps({"schema_version": SCHEMA_VERSION,
                          "error": exc.to_json()}, indent=2, sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())
