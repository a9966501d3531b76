"""The package names that the benchmark in ``perfbench/`` reads: the
span targets of ``perfbench/spans.py`` (wrapped under ``run.py --trace
1``), ``tcasym.BACKEND`` (read into every run's environment block) and
``asym.classify_region`` (which checks the generated points).
No other test imports them all, so a deletion that breaks the benchmark
would otherwise pass the suite."""

import importlib
import importlib.util
import os

import pytest

import tcasym
from tcasym.asym import Params, classify_region, eval_asym

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


def test_classify_region_reads_strings_and_float_alpha():
    # the call of perfbench/test_perfbench.py: (re, im) strings, a float alpha
    assert classify_region(("1", "0.05"), 400, 1.0, Params(), 256) == "B"
    assert classify_region(("4", "0.05"), 400, 1.0, Params(), 256) == "D"
    assert classify_region(("2.05", "0.02"), 400, 1.0, Params(), 256) == "C"


# the traced layers each region's formula enters; a region that stopped
# calling one through its module name would leave that per-layer metric
# reading 0
LAYERS = ("auxfun.phi", "auxfun.d_func", "auxfun.h_factor")
REGION_LAYERS = {
    "A": ((1, 2), {"auxfun.phi", "auxfun.d_func"}),
    "B": ((1, "0.05"), {"auxfun.phi"}),
    "C": (("2.05", "0.02"), {"auxfun.h_factor"}),
    "D": ((4, "0.05"), {"auxfun.phi", "auxfun.d_func"}),
    "origin": (("0.05", "0.05"), {"auxfun.phi"}),
}


@pytest.mark.parametrize("tag", sorted(REGION_LAYERS))
def test_traced_layers_stay_live(tag):
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install([t for t in spans.TARGETS if t[0] + "." + t[1] in ("tcasym." + n for n in LAYERS)])
    try:
        z, expected = REGION_LAYERS[tag]
        res = eval_asym(400, 1, z, Params(), 256)
        names = {s[spans.NAME] for s in tracer.take()}
    finally:
        tracer.uninstall()
    assert res.region.tag == tag
    assert names == expected, (tag, names)
