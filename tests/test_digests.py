"""Reports stay byte-identical: every benchmark job whose stdout digest is
pinned in perfbench/data/digests.json, run in process, prints the pinned
exit code and stdout, and passes the job's own reference check."""

import hashlib
import json

import pytest

from corpus import DOCS, PERFBENCH, RANK1_ALL, RANK2_ALL, workloads
from stacktilt import cli

DIGESTS = json.loads((PERFBENCH / "data" / "digests.json").read_text())
# parameter ids by corpus name: the labels this module has always printed,
# so that the names of its collected tests stay put
_ID = {"p1p2": "P1xP2", "p2p2": "P2xP2", "p345": "P(3,4,5)",
       "p4567": "P(4,5,6,7)", "p5711": "P(5,7,11)", "zz2_d1": "Z+Z/2"}


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


def _stdout(argv, doc, tmp_path, capsys):
    """Exit code and stdout of argv, with doc's file in place of
    "{input}"."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([a.replace("{input}", str(path)) for a in argv])
    return code, capsys.readouterr().out


def _run(job, tmp_path, capsys):
    return _stdout(job.argv, workloads.DOCS[job.doc], tmp_path, capsys)


def _classify(name, mode, tmp_path, capsys):
    """[exit code, stdout SHA-256] of classify on a corpus input."""
    code, out = _stdout(["classify", "{input}", "--mode", mode], DOCS[name],
                        tmp_path, capsys)
    return [code, _sha256(out)]


# benchmark group documents that no corpus selection names, and why
UNSELECTED: dict = {}


def test_every_benchmark_stack_is_in_a_selection():
    """The walk-against-BFS, closure and quiver routes read RANK1_ALL and
    RANK2_ALL, so they read every stack the benchmark serves but those
    UNSELECTED gives a reason for."""
    stacks = {name for name, doc in workloads.DOCS.items() if "group" in doc}
    assert stacks - set(RANK1_ALL + RANK2_ALL) == set(UNSELECTED)


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


# `classify --mode zp` reports that no benchmark job prints: the rank-two
# ones walk the base order H in zp mode, and every input walks its inner
# or whole-group posets in zp mode.  input -> stdout SHA-256
ZP_PINS = {
    "sigma1": "06cb8cedc8ac2cb14825df5b4e313327685d43b794e5eae85a6993b622789f1b",
    "stacky": "749e8473155e539a6cd3c55368ade4f1456aedeba6ffbaad61823030d33b860d",
    "p1p2": "9a69228ab48d7da039a1f024534226f59789f1310c9a7fa264985c52b67f8465",
    "p2p2": "2ffb69d2ed5652924745ca202109ed5e64e9c819ec63189e8db244a123ae75f6",
    "p4567": "c70fa2f4ed002ff8913b4066eabf545f644473e674d89831ce83ac2c3847d008",
}


@pytest.mark.parametrize("name", list(ZP_PINS), ids=_ID.get)
def test_pinned_zp_report(name, tmp_path, capsys):
    assert _classify(name, "zp", tmp_path, capsys) == [0, ZP_PINS[name]]


# Rank two with torsion, where canonical coordinates and the projection
# G -> H = G/Zp meet in the fibered posets: Z^2 + Z/2 (z2-torsion, 85
# classes in paper mode).  mode -> stdout SHA-256
TORSION_PINS = {
    "paper": "53ee18a78c1e413c7421892e024a2267234e4d9df0859b8ce43f4228098efb89",
    "zp": "b3ef901ba08925800a3969ba8a142b574da6c1a09686b3c0ffd877e8892e6536",
}


@pytest.mark.parametrize("mode", list(TORSION_PINS))
def test_pinned_rank2_torsion_report(mode, tmp_path, capsys):
    assert (_classify("z2-torsion", mode, tmp_path, capsys)
            == [0, TORSION_PINS[mode]])


# Z^2 + Z/3 (z3-torsion), paper mode (18 base classes, 899 classes): H =
# Z + Z/6, and its base classes have stabilizers of order 2, 3 and 6, the
# only one of order 6 among the inputs, so its merged counts read the most
# lifts.  Its zp report (8,908 classes) is left out.
Z3_PAPER_PIN = "46f2ef2f1abe702b4a1f33bca21f13ab0005e001c5176012b595758b6b446a70"


def test_pinned_rank2_order_three_stabilizer_report(tmp_path, capsys):
    assert (_classify("z3-torsion", "paper", tmp_path, capsys)
            == [0, Z3_PAPER_PIN])


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


# `mutate --at` reports, which no benchmark job prints: the first and the
# last class (paper mode) of each input, at up to two of its sites.  Rank
# one runs the cut certificate on the mutated class.
# input -> [(class index, site, stdout SHA-256)]
AT_PINS = {
    "p345": [
        (0, [0], "3a90ddbd5e278119bacf67f78c2c223c841bde02a67716ec7ac0770af5055630"),
        (0, [1], "6802ffb5f6158420ac67d90350d740d41a1b8f619b273e5c4424e7b680ec681a"),
        (3, [0], "db49b488c06522544adfce2003b4bbf40459d2a9be644959dd1e7b7ff10bfe20"),
    ],
    "p5711": [
        (0, [0], "de5a33897df3afe89c39241cb2f024625b1fac2d1f1df8a6b4e821212a3b4961"),
        (0, [1], "d784b715ceef74ada55443fdc2f2ae3f875b7717eb68dc44f2f5b5c6f3204990"),
        (42, [0], "9ba54cab385d0244f3871b89b70b4b2c9f9a37363c87467a70f62691c5fe5675"),
    ],
    "zz2_d1": [
        (0, [0, 0], "08ad16a5e35225f025deee358065433f80e3b5e11b2c859710a2bc8fa4644b03"),
        (1, [0, 0], "62f957602487391d13d5430e3f38f79b1d08150a9705388a0a3ac3b7045e9d68"),
        (1, [1, 0], "4790a520dd3c7754f7967cc1a4b107b1bcd5b3ff21881ead5b11be5ed638a2ef"),
    ],
    "p1p2": [
        (0, [0, 0], "ff62ed534e14657816def37875eed4fd948c6fb8ddcc7444425b4cdbd28f0186"),
        (0, [1, -1], "1bf7509321bb305f06b714c5bfe8431a5f8d82b3ceaa81292950d7698d0e1d42"),
        (15, [3, 1], "7636b0ecc0dab9fd148157e3788c509fb6fe73130057b0c5de24083e20f20bb4"),
    ],
}


@pytest.mark.parametrize("name", list(AT_PINS), ids=_ID.get)
def test_pinned_mutate_at_report(name, tmp_path, capsys):
    got = []
    for index, site, _ in AT_PINS[name]:
        code, out = _stdout(["mutate", "{input}", "--class", str(index),
                             "--at", json.dumps(site, separators=(",", ":"))],
                            DOCS[name], tmp_path, capsys)
        got.append((index, site, _sha256(out)))
        assert code == 0
    assert got == AT_PINS[name]
