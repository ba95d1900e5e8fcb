"""Spans and counters around stacktilt's entry points, installed from outside.

The program is not edited: `install` replaces each listed function or
method, in every stacktilt namespace that binds it, with a wrapper.  A span
records (name, start, end, parent) in flat in-memory arrays; `summary`
folds them into per-name call counts, total and self times at exit.  A
span's self time is its duration minus the durations of its direct
children; spans nest strictly because the program is single-threaded.
Element-level calls (`from_coords`, profile lookups, irreducibility
tests, arrow lists) get counters only, as a span each would dominate
their cost; a counter may count only calls made directly inside one span.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (module, attribute path, span name).  Several entry points may share a
# name, as the two certification routines do.  Entry points that no metric
# names are wrapped too, so that their time is not booked to `cli.self_s`.
SPANS = [
    ("abgroup", "solve_combination", "abgroup.solve_combination"),
    ("abgroup", "relation_kernel", "abgroup.relation_kernel"),
    ("abgroup", "FgAbelianGroup.quotient_by", "abgroup.quotient_by"),
    ("_intlinalg", "smith", "_intlinalg.smith"),
    ("graded_order", "GradedDegreeGroup.leq", "graded_order.leq"),
    ("graded_order", "GradedDegreeGroup.hom_dim", "graded_order.hom_dim"),
    ("graded_order", "GradedDegreeGroup.monomials", "graded_order.monomials"),
    ("graded_order", "GradedDegreeGroup.coset_reps", "graded_order.coset_reps"),
    ("graded_order", "GradedDegreeGroup.sign_split", "graded_order.sign_split"),
    ("upper_sets", "enumerate_classes", "upper_sets.enumerate_classes"),
    ("upper_sets", "canonical_form", "upper_sets.canonical_form"),
    ("upper_sets", "is_antichain_rep", "upper_sets.is_antichain_rep"),
    ("upper_sets", "mutable_elements", "upper_sets.mutable_elements"),
    ("upper_sets", "upward_mutable_elements", "upper_sets.mutable_elements"),
    ("upper_sets", "mutate", "upper_sets.mutate"),
    ("upper_sets", "mutate_up", "upper_sets.mutate"),
    ("upper_sets", "connect", "upper_sets.connect"),
    ("tilting", "classify_rank1", "tilting.classify"),
    ("tilting", "classify_rank2", "tilting.classify"),
    ("tilting", "endomorphism_quiver", "tilting.endomorphism_quiver"),
    ("tilting", "_certify_rank1", "tilting.certify"),
    ("tilting", "_certify_rank2", "tilting.certify"),
    ("tilting", "_stabilizer_merged_count", "tilting.certify"),
    ("tilting", "apr_mutate", "tilting.apr_mutate"),
    ("tilting", "verify_class", "tilting.verify_class"),
    ("stacky_geom", "parse_polytope", "stacky_geom.polytope"),
    ("stacky_geom", "gale_dual", "stacky_geom.polytope"),
    ("stacky_geom", "group_to_polytope", "stacky_geom.polytope"),
    ("stacky_geom", "CohomologyOracle.__init__", "stacky_geom.oracle_init"),
    ("stacky_geom", "CohomologyOracle.cohomology_dim",
     "stacky_geom.cohomology_dim"),
    ("stacky_geom", "reduced_homology", "stacky_geom.reduced_homology"),
    ("stacky_geom", "CohomologyOracle._fiber_count", "stacky_geom.fiber_count"),
    ("cuts", "build_quotient", "cuts.build_quotient"),
    ("cuts", "data_of_group", "cuts.data_of_group"),
    ("cuts", "fiber_map", "cuts.fiber_map"),
    ("cuts", "is_admissible_type", "cuts.is_admissible_type"),
    ("cuts", "enumerate_detectors", "cuts.enumerate_detectors"),
    ("cuts", "enumerate_cuts", "cuts.enumerate_cuts"),
    ("cuts", "cut_from_detector", "cuts.cut_from_detector"),
    ("cuts", "is_bounding", "cuts.is_bounding"),
    ("cuts", "cut_of_antichain", "cuts.cut_of_antichain"),
    ("cuts", "algebra_presentation", "cuts.algebra_presentation"),
]

# (module, attribute path, counter name, innermost span or None for any).
# enumerate_detectors lists the arrows once per candidate table it checks.
COUNTERS = [
    ("abgroup", "FgAbelianGroup.from_coords", "abgroup.from_coords", None),
    ("stacky_geom", "CohomologyOracle.profile", "stacky_geom.profile", None),
    ("tilting", "_is_irreducible", "tilting.is_irreducible", None),
    ("cuts", "LatticeQuotient.all_arrows", "cuts.detector_candidates",
     "cuts.enumerate_detectors"),
]

ROOT = "cli"


class Tracer:
    """Spans of one job, kept in memory until `summary`."""

    def __init__(self):
        self.names: list = []
        self.name_id: dict = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list = []
        self.counts: dict = {}
        self.results: dict = {}   # result name -> summed over calls
        self.contexts: list = []  # GradedDegreeGroup instances
        self.oracles: list = []   # CohomologyOracle instances

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def span(self, name: str, fn, measures=()):
        nid = self._id(name)
        clock = time.perf_counter
        span_name, start, end, parent = (self.span_name, self.start,
                                         self.end, self.parent)
        stack = self.stack
        results = self.results

        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            for key, measure in measures:
                results[key] = results.get(key, 0) + measure(args, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn, inside=None):
        counts = self.counts
        counts[name] = 0
        want = None if inside is None else self._id(inside)
        span_name, stack = self.span_name, self.stack

        def wrapper(*args, **kwargs):
            if want is None or (stack and span_name[stack[-1]] == want):
                counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def run(self, fn, *args):
        """Call fn inside the root span."""
        return self.span(ROOT, fn)(*args)

    def summary(self) -> dict:
        """{name: [calls, total_s, self_s]} plus counters and memo sizes."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        spans: dict = {}
        bfs = (self.name_id.get("upper_sets.canonical_form"),
               self.name_id.get("upper_sets.enumerate_classes"))
        bfs_forms = 0   # canonical forms computed directly by the BFS
        for i in range(n):
            name = self.names[self.span_name[i]]
            row = spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
            p = self.parent[i]
            if p >= 0 and (self.span_name[i], self.span_name[p]) == bfs:
                bfs_forms += 1
        return {
            "bfs_canonical_forms": bfs_forms,
            "spans": spans,
            "counts": dict(self.counts),
            "results": dict(self.results),
            "count_memo_entries": sum(len(c._count_memo) for c in self.contexts),
            "profiles_entries": sum(len(o._profiles) for o in self.oracles),
        }


# span name -> [(result name, what to add up over each call's result)]
MEASURES = {
    "graded_order.monomials": [
        ("graded_order.monomials.vectors", lambda args, out: len(out))],
    "upper_sets.enumerate_classes": [
        ("upper_sets.classes_found", lambda args, out: len(out))],
    "tilting.endomorphism_quiver": [
        ("tilting.arrows", lambda args, out: len(out.arrows))],
    "tilting.verify_class": [
        ("tilting.ext_checks", lambda args, out: len(out.checked))],
    "cuts.enumerate_detectors": [
        ("cuts.detectors_found", lambda args, out: len(out))],
}


def _modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "stacktilt" or name.startswith("stacktilt.")]


def _replace(module_name: str, path: str, make) -> None:
    """Wrap module_name.path wherever a stacktilt namespace binds it."""
    module = importlib.import_module(f"stacktilt.{module_name}")
    *owner_path, attr = path.split(".")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr]
    wrapped = make(original)
    setattr(owner, attr, wrapped)
    if owner is module:
        for mod in _modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def install() -> Tracer:
    """Wrap every listed entry point; the tracer collects this process's spans."""
    tracer = Tracer()
    for module_name, path, name in SPANS:
        _replace(module_name, path,
                 lambda fn, name=name:
                 tracer.span(name, fn, MEASURES.get(name, ())))
    for module_name, path, name, inside in COUNTERS:
        _replace(module_name, path,
                 lambda fn, name=name, inside=inside:
                 tracer.counter(name, fn, inside))
    from stacktilt.graded_order import GradedDegreeGroup
    from stacktilt.stacky_geom import CohomologyOracle
    _keep_instances(GradedDegreeGroup, tracer.contexts)
    _keep_instances(CohomologyOracle, tracer.oracles)
    return tracer


def _keep_instances(cls, into: list) -> None:
    init = cls.__init__

    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        into.append(self)
    cls.__init__ = wrapper
