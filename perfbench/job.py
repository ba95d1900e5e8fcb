"""One benchmark job: a single `stacktilt.cli.main(argv)` in this process.

Usage: python3 job.py SPEC_JSON, where SPEC_JSON holds "src" (the
directory to import stacktilt from), "argv", "input" (the document the
argv names), "spawn" (the parent's time.perf_counter() just before it
started this process; CLOCK_MONOTONIC is shared by all processes) and
"trace".  Prints one JSON object: the CLI's exit code and stdout, set-up
time (spawn until stacktilt is imported and the input is parsed), wall and
CPU time inside main, peak RSS, any escaped exception and, when traced,
the span summary.

The job also gauges the host's speed while it runs: every
PROBE_INTERVAL_S a timer signal runs a fixed pure-Python loop (about 0.1
ms, 1 % of the job) and records its duration.  "probes_setup" and
"probes" are the durations during set-up and during main; a main too
short to be probed takes those of the whole process.  In a traced job a
probe's time counts to the span it interrupts.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback

PROBE_INTERVAL_S = 0.01


class Probe:
    """Times a fixed loop on every timer signal: the host's speed now."""

    def __init__(self):
        self.samples: list = []
        signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, 1e-6, PROBE_INTERVAL_S)

    def __call__(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(1000):
            acc = (acc + i * i) % 1_000_003
        self.samples.append(time.perf_counter() - t0)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> None:
    spec = json.loads(sys.argv[1])
    probe = Probe()
    sys.path.insert(0, spec["src"])
    from stacktilt import cli
    with open(spec["input"], encoding="utf-8") as fh:
        json.load(fh)
    setup_s = time.perf_counter() - spec["spawn"]
    setup_probes = len(probe.samples)

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.install()
    out = io.StringIO()
    exit_code, error = None, None
    cpu0 = _cpu()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                exit_code = cli.main(spec["argv"])
            else:
                exit_code = tracer.run(cli.main, spec["argv"])
    except SystemExit as exc:
        error = f"SystemExit({exc.code!r})"
    except Exception:
        error = traceback.format_exc()
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu() - cpu0
    probe.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"exit": exit_code, "stdout": out.getvalue(), "error": error,
              "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": rss_kb / 1024.0,
              "probes_setup": probe.samples[:setup_probes] or probe.samples,
              "probes": probe.samples[setup_probes:] or probe.samples}
    if tracer is not None:
        result["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
