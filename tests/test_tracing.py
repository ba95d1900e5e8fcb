"""Every entry point the benchmark tracer wraps exists in the library."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
