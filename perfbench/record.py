"""Pin each job's exit code and stdout digest for the default seed.

    python3 perfbench/record.py

Runs every job of every workload once at workloads.DEFAULT_SEED and writes
data/digests.json.  Run it only on a commit whose reports are known good:
it refuses to record when a job fails its reference checks.
"""

import json
import sys

import run
import workloads


def main() -> int:
    run.warm_up()
    pinned = {}
    for name in sorted(workloads.WORKLOADS):
        jobs = workloads.build(name, workloads.DEFAULT_SEED)
        result = run.run_workload(name, workloads.DEFAULT_SEED, 0, False, {},
                                  jobs=jobs)
        if result["failed"]:
            print("\n".join(result["failures"]), file=sys.stderr)
            return 1
        for job in jobs:
            sample = result["plain"][job.key][0]
            pinned[run.digest_id(job)] = {
                "job": job.key, "exit": sample["exit"],
                "sha256": run.sha256(sample["stdout"])}
    run.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} jobs in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
