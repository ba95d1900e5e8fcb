"""Run one benchmark workload of the stacktilt CLI and print its metrics.

    python3 perfbench/run.py --workload rank1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout holding src/stacktilt.  Closed loop, one
client: the workload's jobs (see workloads.py) run one after another, each
as `stacktilt.cli.main(argv)` in a fresh interpreter (job.py), so no memo
carries from one command to the next, as for a user of the CLI.  The job
order is reshuffled every pass, and passes repeat until --seconds is
spent; every job runs at least once.  Times are per-job medians over the
passes, summed or maxed over jobs; set-up, the same import for every job,
is the median over all of the run's processes times the number of jobs.

The host is shared: its speed drifts by up to 2x over seconds to minutes,
and each vCPU drifts on its own.  So each job gauges the host while it
runs (job.py's probe loop), and its times are reported host-normalised,
as seconds on a host where the probe takes PROBE_REF_S: raw time times
the mean over the probes of (PROBE_REF_S / probe time) ** exponent.  On
the 2-vCPU x86-64 host the benchmark was built on, log time against log
probe time had slope 1.5 to 2.0 per job, 1.6 to 1.7 pooled, for the jobs
of over 0.5 s in rank1, rank2 and cuts (HOST_EXPONENT, used for time in
main), and 1.0 for the import (SETUP_EXPONENT, used for set-up).  Raw
times and factors are printed beside the result.

Every run of every job is checked: exit code, the pinned stdout digest
(data/digests.json) where the command was recorded, and the workload's
reference checks.  A failing job counts in `failed` and the run goes on.

--trace 0 prints the end-to-end metrics; --trace 1 runs every job both
plain and traced (tracing.py) and prints the per-layer metrics.  The last
line of stdout is the result object; the lines before it record the host
calibration loop and per-job figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "data" / "digests.json"
JOB_TIMEOUT_S = 120
PROBE_REF_S = 1e-4
HOST_EXPONENT = 1.65
SETUP_EXPONENT = 1.0

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "slowest_job_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
}

LAYERS = ["abgroup", "_intlinalg", "graded_order", "upper_sets", "tilting",
          "stacky_geom", "cuts", "cli"]

PER_LAYER = {
    "abgroup.from_coords.calls": "count",
    "abgroup.solve_combination.calls": "count",
    "abgroup.solve_combination.self_s": "s",
    "_intlinalg.smith.calls": "count",
    "_intlinalg.smith.self_s": "s",
    "graded_order.leq.calls": "count",
    "graded_order.leq.self_s": "s",
    "graded_order.monomials.calls": "count",
    "graded_order.monomials.self_s": "s",
    "graded_order.monomials.vectors": "count",
    "graded_order.hom_dim.calls": "count",
    "graded_order.count_memo.entries": "count",
    "upper_sets.enumerate_classes.calls": "count",
    "upper_sets.enumerate_classes.self_s": "s",
    "upper_sets.classes_found": "count",
    "upper_sets.canonical_form.calls": "count",
    "upper_sets.canonical_form.self_s": "s",
    "upper_sets.is_antichain_rep.calls": "count",
    "upper_sets.is_antichain_rep.self_s": "s",
    "upper_sets.mutate.calls": "count",
    "upper_sets.connect.self_s": "s",
    "upper_sets.bfs_yield": "ratio",
    "tilting.endomorphism_quiver.calls": "count",
    "tilting.endomorphism_quiver.self_s": "s",
    "tilting.arrow_yield": "ratio",
    "tilting.certify.self_s": "s",
    "tilting.verify_class.calls": "count",
    "tilting.ext_checks": "count",
    "stacky_geom.cohomology_dim.calls": "count",
    "stacky_geom.cohomology_dim.self_s": "s",
    "stacky_geom.supports_visited": "count",
    "stacky_geom.reduced_homology.calls": "count",
    "stacky_geom.reduced_homology.self_s": "s",
    "stacky_geom.profile_hit_ratio": "ratio",
    "stacky_geom.fiber_count.calls": "count",
    "stacky_geom.fiber_count.self_s": "s",
    "stacky_geom.oracle_init.self_s": "s",
    "stacky_geom.profiles.entries": "count",
    "cuts.enumerate_detectors.calls": "count",
    "cuts.enumerate_detectors.self_s": "s",
    "cuts.detector_candidates": "count",
    "cuts.detectors_found": "count",
    "cuts.detector_yield": "ratio",
    "cuts.enumerate_cuts.self_s": "s",
    "cuts.cut_of_antichain.self_s": "s",
    "cuts.algebra_presentation.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def warm_up() -> None:
    """Compile stacktilt's bytecode once, as an installed package has it."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import stacktilt.cli", str(SRC)],
                   check=True, timeout=JOB_TIMEOUT_S)


def host_factor(probes: list, exponent: float) -> float:
    """Scales a time measured while the probe took `probes` to the
    reference host: the mean of each probe's scale."""
    return sum((PROBE_REF_S / p) ** exponent for p in probes) / len(probes)


def run_job(job, input_path: Path, traced: bool) -> dict:
    """Run one job in a fresh interpreter; the job's own measurements."""
    argv = [a.replace("{input}", str(input_path)) for a in job.argv]
    spawn = time.perf_counter()
    spec = {"src": str(SRC), "argv": argv, "input": str(input_path),
            "spawn": spawn, "trace": traced}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "job.py"),
                               json.dumps(spec)],
                              capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {JOB_TIMEOUT_S} s",
                "elapsed": time.perf_counter() - spawn}
    elapsed = time.perf_counter() - spawn
    try:
        result = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return {"error": f"job process exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}",
                "elapsed": elapsed}
    result["elapsed"] = elapsed
    result["host_factor"] = host_factor(result.pop("probes"), HOST_EXPONENT)
    result["setup_factor"] = host_factor(result.pop("probes_setup"),
                                         SETUP_EXPONENT)
    return result


class Checker:
    """Checks every job result; remembers reports for the Serre pairs."""

    def __init__(self, digests: dict):
        self.digests = digests
        self.reports: dict = {}

    def __call__(self, job, result: dict):
        """A failure message, or None when the job passed every check."""
        if result.get("error"):
            return result["error"]
        code = result["exit"]
        if job.expect_exit is not None and code != job.expect_exit:
            return f"exit code {code}, expected {job.expect_exit}"
        stdout = result["stdout"]
        pinned = self.digests.get(digest_id(job))
        if pinned is not None:
            got = [code, sha256(stdout)]
            if got != [pinned["exit"], pinned["sha256"]]:
                return f"output {got} differs from the pinned {pinned}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        try:
            if job.expect_exit is None and code != (0 if report["ok"] else 1):
                return f"exit code {code} disagrees with ok={report['ok']}"
            problem = job.check(report) if job.check else None
            if problem is None and job.pair in self.reports:
                problem = workloads.check_serre(report,
                                                self.reports[job.pair])
        except (KeyError, TypeError, ValueError) as exc:
            return f"report lacks an expected field: {exc!r}"
        self.reports[job.key] = report
        return problem


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_id(job) -> str:
    """Names the command and document, whatever the seed that drew them."""
    return sha256(job.digest_key())


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 digests: dict, jobs=None) -> dict:
    """Run the jobs in passes for `seconds`; per-job samples and counts."""
    jobs = workloads.build(name, seed) if jobs is None else jobs
    check = Checker(digests)
    rng = random.Random(f"order:{name}:{seed}")
    plain = {j.key: [] for j in jobs}
    traced = {j.key: [] for j in jobs}
    cost: dict = {}
    attempted = failed = passes = 0
    failures = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        inputs = {}
        for job in jobs:
            path = Path(tmp) / f"{job.doc}.json"
            path.write_text(json.dumps(workloads.DOCS[job.doc]))
            inputs[job.key] = path
        deadline = time.perf_counter() + seconds
        done = False
        while not done:
            order = list(jobs)
            rng.shuffle(order)
            for job in order:
                if passes and time.perf_counter() + cost[job.key] > deadline:
                    done = True
                    break
                modes = [False] if not trace else (
                    [False, True] if passes % 2 == 0 else [True, False])
                spent = 0.0
                for mode in modes:
                    result = run_job(job, inputs[job.key], mode)
                    spent += result["elapsed"]
                    attempted += 1
                    problem = check(job, result)
                    if problem is not None:
                        failed += 1
                        failures.append(f"{job.key}: {problem}")
                    elif mode:
                        traced[job.key].append(result)
                    else:
                        plain[job.key].append(result)
                cost[job.key] = spent
            passes += 1
            done = done or time.perf_counter() >= deadline
    return {"plain": plain, "traced": traced, "passes": passes,
            "attempted": attempted, "failed": failed, "failures": failures}


def _per_job(samples: dict, field: str, host: bool = False) -> list:
    """Each job's median of `field`, host-normalised if `host`."""
    return [median(s[field] * (s["host_factor"] if host else 1.0)
                   for s in runs)
            for runs in samples.values() if runs]


def end_to_end(run: dict) -> dict:
    plain = run["plain"]
    setups = [r["setup_s"] * r["setup_factor"]
              for runs in plain.values() for r in runs]
    wall = _per_job(plain, "wall_s", host=True)
    values = {
        "wall_s": sum(wall),
        "cpu_s": sum(_per_job(plain, "cpu_s", host=True)),
        "slowest_job_s": max(wall, default=0.0),
        # every job imports the same package: pool all set-ups of the run
        "setup_s": len(plain) * median(setups) if setups else 0.0,
        "peak_rss_mb": max(_per_job(plain, "peak_rss_mb"), default=0.0),
        "ok_ratio": (run["attempted"] - run["failed"]) / run["attempted"],
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def _flatten(summary: dict) -> dict:
    """One traced job's figures under the per-layer metric names."""
    out = {}
    for name, (calls, _total, self_s) in summary["spans"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    counts = summary["counts"]
    out["abgroup.from_coords.calls"] = counts["abgroup.from_coords"]
    out["stacky_geom.supports_visited"] = counts["stacky_geom.profile"]
    out["tilting.monomials_examined"] = counts["tilting.is_irreducible"]
    out["cuts.detector_candidates"] = counts["cuts.detector_candidates"]
    out.update(summary["results"])
    out["upper_sets.bfs_canonical_forms"] = summary["bfs_canonical_forms"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            self_s for name, (_c, _t, self_s) in summary["spans"].items()
            if name == layer or name.startswith(layer + "."))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: dict) -> dict:
    jobs = [runs for runs in run["traced"].values() if runs]
    flat = [[_flatten(r["trace"]) for r in runs] for runs in jobs]
    keys = set().union(*(f.keys() for rows in flat for f in rows))
    total = {k: sum(median(f.get(k, 0) for f in rows) for rows in flat)
             for k in keys}
    v = {k: total.get(k, 0) for k in PER_LAYER}
    v["graded_order.count_memo.entries"] = max(
        (r["trace"]["count_memo_entries"] for runs in jobs for r in runs),
        default=0)
    v["stacky_geom.profiles.entries"] = max(
        (r["trace"]["profiles_entries"] for runs in jobs for r in runs),
        default=0)
    v["upper_sets.bfs_yield"] = _ratio(
        total.get("upper_sets.classes_found", 0),
        total.get("upper_sets.bfs_canonical_forms", 0))
    v["tilting.arrow_yield"] = _ratio(total.get("tilting.arrows", 0),
                                      total.get("tilting.monomials_examined", 0))
    lookups = total.get("stacky_geom.supports_visited", 0)
    v["stacky_geom.profile_hit_ratio"] = _ratio(
        lookups - total.get("stacky_geom.reduced_homology.calls", 0), lookups)
    v["cuts.detector_yield"] = _ratio(total.get("cuts.detectors_found", 0),
                                      total.get("cuts.detector_candidates", 0))
    traced_wall = sum(_per_job(run["traced"], "wall_s", host=True))
    v["trace.overhead_ratio"] = _ratio(
        traced_wall, sum(_per_job(run["plain"], "wall_s", host=True)))
    return {k: {"value": v[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def job_table(run: dict) -> dict:
    """Every job's raw samples and host factors, printed beside the result."""
    table = {}
    for key, runs in run["plain"].items():
        if runs:
            table[key] = {"wall_s": [r["wall_s"] for r in runs],
                          "setup_s": [r["setup_s"] for r in runs],
                          "host_factor": [r["host_factor"] for r in runs],
                          "setup_factor": [r["setup_factor"] for r in runs]}
    for key, runs in run["traced"].items():
        if runs:
            table.setdefault(key, {})["trace"] = runs[0]["trace"]["spans"]
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stacktilt" / "cli.py").is_file():
        print(f"no stacktilt sources under {SRC}", file=sys.stderr)
        return 2

    warm_up()
    calibration = [calibrate()]
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), load_digests())
    calibration.append(calibrate())
    for line in run["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": run["passes"], "calibration_s": calibration,
                      "jobs": job_table(run)}, sort_keys=True))
    metrics = per_layer(run) if args.trace else end_to_end(run)
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
