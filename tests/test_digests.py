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


def _group(free_rank, degrees):
    return {"group": {"free_rank": free_rank, "torsion_orders": [],
                      "degrees": [list(d) for d in degrees]}}


# `classify --mode zp` reports that no benchmark job prints: the rank-two
# ones walk the base order H in zp mode, and every input walks its inner
# or whole-group posets in zp mode.  (document, stdout SHA-256)
ZP_PINS = {
    "sigma1": (_group(2, [(1, 0), (1, 0), (1, 1), (0, 1)]),
               "06cb8cedc8ac2cb14825df5b4e313327685d43b794e5eae85a6993b622789f1b"),
    "stacky": (_group(2, [(1, -1), (1, 0), (1, 1), (0, 1)]),
               "749e8473155e539a6cd3c55368ade4f1456aedeba6ffbaad61823030d33b860d"),
    "P1xP2": (_group(2, [(1, 0)] * 2 + [(0, 1)] * 3),
              "9a69228ab48d7da039a1f024534226f59789f1310c9a7fa264985c52b67f8465"),
    "P2xP2": (_group(2, [(1, 0)] * 3 + [(0, 1)] * 3),
              "2ffb69d2ed5652924745ca202109ed5e64e9c819ec63189e8db244a123ae75f6"),
    "P(4,5,6,7)": (_group(1, [(4,), (5,), (6,), (7,)]),
                   "c70fa2f4ed002ff8913b4066eabf545f644473e674d89831ce83ac2c3847d008"),
}


@pytest.mark.parametrize("name", list(ZP_PINS))
def test_pinned_zp_report(name, tmp_path, capsys):
    doc, sha256 = ZP_PINS[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["classify", str(path), "--mode", "zp"])
    assert [code, _sha256(capsys.readouterr().out)] == [0, sha256]


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 1, 2])
def test_every_benchmark_command_line_is_scanned(seed):
    """Each job's command line is read from the command table, not by
    argparse, and reads as argparse would read it."""
    for name in workloads.WORKLOADS:
        for job in workloads.build(name, seed):
            argv = [a.replace("{input}", "input.json") for a in job.argv]
            scanned = cli._scan(argv)
            assert scanned is not None, argv
            assert vars(scanned) == vars(cli.build_parser().parse_args(argv))
