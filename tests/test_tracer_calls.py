"""Every call the benchmark's tracer (``perfbench/tracing.py``) wraps is made
by the benchmark's own workloads, through the module global its ``PATCHES``
entry names.  A call that moves to another module escapes its span without
an error, so each entry gets its own counter here and one round of every
workload must hit them all.  The round then goes through the benchmark's
own output checks, ``check_round`` and ``check_final``, which must find no
problem: they recompute the reported metrics and call the model directly."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_one_round_of_each_workload_calls_every_patched_name(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")

    calls = {}
    for module, attr, _ in tracing.PATCHES:
        key = f"{module.__name__}.{attr}"
        calls[key] = 0

        def counted(*args, _fn=getattr(module, attr), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        run = workload(1, str(workdir))
        run.setup()
        assert run.headline()[1] == 0, f"{name}: headline operations failed"
        run.featurize()
        run.check_round()
        run.check_final()
        assert run.problems == [], f"{name}: {run.problems}"

    assert [key for key, count in calls.items() if not count] == []
