"""The benchmark's tracer (``perfbench/tracing.py``) swaps module globals of
the package for timing wrappers, by name.  A renamed or removed function
breaks ``perfbench/run.py --trace 1`` only, so every name it patches is
checked here."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_patched_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracing.PATCHES
        if not callable(getattr(module, attr, None))
    ]
    assert tracing.PATCHES and not missing
