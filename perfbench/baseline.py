"""Run all four workloads over several seeds and record the baseline.

    python3 perfbench/baseline.py [--seeds 10] [--out perfbench/data/baseline.json]

Each round runs every workload once untraced (run.py, --seconds from
BENCHMARK.json), with seed = round number + 1.  The workload order
rotates from round to round, so a slow spell of a shared host does not
land on one workload.  After the rounds, one traced run per workload at
the default seed gives the per-layer numbers.  Prints, per workload and
end-to-end metric, the median and quartiles over the rounds with the
sample count and the quartile spread as a share of the median, and
writes everything to --out: with each run its elapsed time, calibration
loops, median host factor and raw (not host-normalised) wall time.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads


def run_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=run.ROOT)
    lines = proc.stdout.splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        print(f"{name} seed {seed}: {proc.stderr.strip()}", file=sys.stderr)
    jobs = info["jobs"].values()
    return {"seed": seed, "elapsed_s": time.perf_counter() - start,
            "calibration_s": info["calibration_s"],
            "host_factor": statistics.median(
                f for j in jobs for f in j.get("host_factor", [])),
            "raw_wall_s": sum(statistics.median(j["wall_s"])
                              for j in jobs if "wall_s" in j),
            "passes": info["passes"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path,
                        default=run.HERE / "data" / "baseline.json")
    args = parser.parse_args()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]

    runs = {name: [] for name in names}
    for i in range(args.seeds):
        shift = i % len(names)
        order = names[shift:] + names[:shift]
        for name in (order if i % 2 == 0 else order[::-1]):
            runs[name].append(run_once(name, i + 1, seconds, 0))

    out = {"host": {"python": platform.python_version(),
                    "machine": platform.machine(),
                    "cpus": len(os.sched_getaffinity(0))},
           "run_seconds": seconds, "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        traced = run_once(name, workloads.DEFAULT_SEED, seconds, 1)
        e2e = {k: summarize([r["metrics"][k] for r in runs[name]])
               for k in run.END_TO_END}
        out["workloads"][name] = {
            "why": w["why"],
            "jobs": [j.key for j in workloads.build(name, workloads.DEFAULT_SEED)],
            "seeds": [r["seed"] for r in runs[name]],
            "end_to_end": e2e,
            "per_layer": {"seed": traced["seed"], **traced["metrics"]},
            "runs": runs[name] + [traced],
        }
        print(f"{name}:")
        for k, s in e2e.items():
            print(f"  {k:14s} {s['median']:10.4f} {run.END_TO_END[k]:5s} "
                  f"[{s['q1']:.4f}, {s['q3']:.4f}] n={s['n']} "
                  f"spread={s['spread']:.3f}")
        layers = {k: traced["metrics"][f"{k}.self_s"] for k in run.LAYERS}
        print("  self_s by layer (traced): " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(layers.items(),
                                              key=lambda kv: -kv[1])))
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
