"""The benchmark tracer's entry points exist, and its counters keep meaning.

The per-layer counters are read across changes, so a refactor that moved
the calls they count would redefine them quietly; the values of a traced
`cuts` job on P(2,3) are pinned here.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import corpus

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_entry_points_resolve():
    tracing = _load_tracing()
    entries = [(mod, path) for mod, path, _ in tracing.SPANS]
    entries += [(mod, path) for mod, path, _, _ in tracing.COUNTERS]
    missing = []
    for module_name, path in entries:
        # the same lookup as tracing._replace
        owner = importlib.import_module(f"stacktilt.{module_name}")
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, "__dict__", {}).get(attr)):
            missing.append(f"{module_name}.{path}")
    assert not missing, missing


def test_traced_cuts_counters(tmp_path):
    """P(2,3): m = 5, with 10 detectors of type (2, 3).

    cuts.detector_candidates counts `LatticeQuotient.all_arrows` calls made
    directly inside `enumerate_detectors`.  The detector search there
    checks each arrow once both of its ends have values and lists no
    arrows per table, so the counter reads 0; it read 16, one per
    candidate table, when every one of the 2^4 tables was checked whole.
    """
    doc = tmp_path / "p23.json"
    doc.write_text(json.dumps(corpus.DOCS["p23"]))
    spec = {"src": str(ROOT / "src"), "argv": ["cuts", str(doc)],
            "input": str(doc), "spawn": time.perf_counter(), "trace": True}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "job.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(proc.stdout)
    assert result["exit"] == 0 and result["error"] is None
    assert result["trace"]["counts"]["cuts.detector_candidates"] == 0
    assert result["trace"]["results"]["cuts.detectors_found"] == 10
