"""Fast self-test of the benchmark: one small job per workload.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is produced with its unit,
that each traced job's span self times add up to its traced wall time, and
that a corrupted pinned digest makes the run count a failure.  Exits 1 on
the first broken check.
"""

import json
import sys

import run
import tracing
import workloads

SMALL_JOBS = {
    "rank1": "classify p23",
    "rank2": "classify sigma1",
    "oracle": "cohomology p2p2 #0",   # its twist is drawn from the seed
    "cuts": "cuts lattice m5",
}


def small_job(name: str):
    prefix = SMALL_JOBS[name]
    return next(j for j in workloads.build(name, workloads.DEFAULT_SEED)
                if j.key == prefix or j.key.startswith(prefix + " "))


def check_names(declared: dict, produced: dict, kind: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in produced.items()}
    if want != got:
        raise AssertionError(f"{kind} metrics differ from BENCHMARK.json: "
                             f"{sorted(set(want.items()) ^ set(got.items()))}")


def check_spans(traced: dict) -> None:
    for key, samples in traced.items():
        for sample in samples:
            spans = sample["trace"]["spans"]
            self_sum = sum(row[2] for row in spans.values())
            root_total = spans[tracing.ROOT][1]
            if abs(self_sum - root_total) > 1e-6 * max(1.0, root_total):
                raise AssertionError(
                    f"{key}: self times sum to {self_sum}, root {root_total}")
            wall = sample["wall_s"]
            if not 0 <= wall - root_total <= 0.05 * wall + 0.005:
                raise AssertionError(
                    f"{key}: spans cover {root_total} s of {wall} s traced")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    digests = run.load_digests()
    for name in sorted(workloads.WORKLOADS):
        job = small_job(name)
        result = run.run_workload(name, workloads.DEFAULT_SEED, 0, True,
                                  digests, jobs=[job])
        if result["failed"]:
            raise AssertionError(f"{name}: {result['failures']}")
        check_names(declared["end_to_end"], run.end_to_end(result),
                    "end-to-end")
        check_names(declared["per_layer"], run.per_layer(result), "per-layer")
        check_spans(result["traced"])

        pin = run.digest_id(job)
        if pin not in digests:
            raise AssertionError(f"{name}: {job.key} has no pinned digest")
        corrupt = dict(digests)
        corrupt[pin] = dict(digests[pin], sha256="0" * 64)
        result = run.run_workload(name, workloads.DEFAULT_SEED, 0, False,
                                  corrupt, jobs=[job])
        if run.end_to_end(result)["ok_ratio"]["value"] >= 1:
            raise AssertionError(f"{name}: a corrupted digest went unnoticed")
        print(f"{name}: ok ({job.key})")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
