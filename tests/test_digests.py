"""Reports stay byte-identical: every benchmark job whose stdout digest is
pinned in perfbench/data/digests.json, run in process, prints the pinned
exit code and stdout, and passes the job's own reference check."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from stacktilt import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = json.loads((PERFBENCH / "data" / "digests.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


JOBS = {name: workloads.build(name, workloads.DEFAULT_SEED)
        for name in sorted(workloads.WORKLOADS)}
BY_KEY = {job.key: job for jobs in JOBS.values() for job in jobs}
# pin id (perfbench/run.py's digest_id) -> the first job with that pin
PINNED: dict = {}
for _job in (job for jobs in JOBS.values() for job in jobs):
    if _sha256(_job.digest_key()) in DIGESTS:
        PINNED.setdefault(_sha256(_job.digest_key()), _job)


def _run(job, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(workloads.DOCS[job.doc]), encoding="utf-8")
    code = cli.main([a.replace("{input}", str(path)) for a in job.argv])
    return code, capsys.readouterr().out


def test_every_workload_has_pinned_jobs():
    for name, jobs in JOBS.items():
        assert any(_sha256(job.digest_key()) in PINNED for job in jobs), name


@pytest.mark.parametrize("pin", sorted(PINNED, key=lambda p: PINNED[p].key),
                         ids=lambda pin: PINNED[pin].key)
def test_pinned_report(pin, tmp_path, capsys):
    job = PINNED[pin]
    code, stdout = _run(job, tmp_path, capsys)
    assert [code, _sha256(stdout)] == [DIGESTS[pin]["exit"],
                                       DIGESTS[pin]["sha256"]]
    report = json.loads(stdout)
    if job.expect_exit is None:
        assert code == (0 if report["ok"] else 1)
    if job.check is not None:
        assert job.check(report) is None
    if job.pair is not None:
        _, other = _run(BY_KEY[job.pair], tmp_path, capsys)
        assert workloads.check_serre(report, json.loads(other)) is None
