"""The package names that the benchmark in ``perfbench/`` reads: the
span targets of ``perfbench/spans.py`` (wrapped under ``run.py --trace
1``) and ``tcasym.BACKEND`` (read into every run's environment block).
No other test imports them all, so a deletion that breaks the benchmark
would otherwise pass the suite."""

import importlib
import importlib.util
import os

import tcasym

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _load_spans():
    """``perfbench/spans.py`` loaded by path (it is not a package module)."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_targets_resolve():
    targets = _load_spans().TARGETS
    assert targets
    for modname, attr, _ in targets:
        assert modname.partition(".")[0] == "tcasym"
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)


def test_backend_constant():
    assert tcasym.BACKEND == "pure-python"
