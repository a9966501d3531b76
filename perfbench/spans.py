"""Span tracing installed from outside the package, and the statistics the
benchmark reports.

A traced run replaces every module attribute under ``tcasym`` that refers
to a traced function with a wrapper that records a span: name, start,
end, the index of the enclosing span, and an optional ``info`` value
taken from the arguments or the result. Patching every referring name
matters because the package imports functions by name:
``log_gamma_real`` is reached through ``exact``, ``asym`` and
``auxfun``, ``h_factor`` through ``asym`` and ``auxfun``. Spans stay in
memory and are analysed when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, INFO = range(5)


def _arg(i, name):
    return lambda args, kwargs, out: kwargs[name] if name in kwargs else args[i]


def _airy_side(args, kwargs, out):
    from tcasym.specfun import crossover_radius

    z, prec = args[0], args[1]
    return "series" if abs(complex(z)) <= crossover_radius(prec) else "asym"


# (module, attribute, info) for every traced function; the span name is
# "<module>.<attribute>" without the package prefix
TARGETS = (
    ("tcasym.exact", "eval_monic_rescaled", None),
    ("tcasym.exact", "eval_f", _arg(0, "n")),
    ("tcasym.exact", "log_leading_coeff", None),
    ("tcasym.exact", "ortho_matrix", _arg(2, "k_max")),
    ("tcasym.specfun", "log_gamma_real", None),
    ("tcasym.specfun", "log_gamma_complex", None),
    ("tcasym.specfun", "airy_quartet", _airy_side),
    ("tcasym.auxfun", "h_factor", _arg(1, "prec")),
    ("tcasym.auxfun", "d_func", None),
    ("tcasym.auxfun", "phi", None),
    ("tcasym.auxfun", "f_tilde_n", None),
    ("tcasym.asym", "eval_asym", lambda args, kwargs, out: out.region.tag),
    ("tcasym.mpnum", "logc_add", lambda args, kwargs, out: out[1]),
    ("tcasym.harness", "compare_point", lambda args, kwargs, out: "near-zero" in out.flags),
    ("tcasym.harness", "ortho_report", None),
    ("tcasym.cli", "main", None),
    ("tcasym.cli", "_compare_task", None),
)


class Tracer:
    """In-memory span recorder for one process (single-threaded)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self._sites = []

    def wrap(self, fn, name, info=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, out)
            return out

        return wrapper

    def install(self, targets=TARGETS):
        """Wrap each target at every ``tcasym`` module name that refers to it."""
        for modname, attr, info in targets:
            orig = getattr(importlib.import_module(modname), attr)
            wrapper = self.wrap(orig, modname.split(".", 1)[1] + "." + attr, info)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "tcasym":
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._sites.append((mod, key, orig, wrapper))
        self.set_active(True)

    def set_active(self, on):
        """Switch every installed site between its wrapper and the original."""
        for mod, key, orig, wrapper in self._sites:
            setattr(mod, key, wrapper if on else orig)

    def uninstall(self):
        self.set_active(False)
        self._sites.clear()

    def take(self):
        """Return the recorded spans and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(values, q):
    """Linearly interpolated q-th percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(spans):
    """Each span's duration minus the part of its interval that its direct
    children cover."""
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    own = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for j in kids[i]:  # children open in order, so their starts ascend
            lo, hi = max(spans[j][START], reach), min(spans[j][END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        own.append(s[END] - s[START] - covered)
    return own


def subtree_self_sums(spans):
    """Sum of self times over each span's subtree (itself and descendants).

    Spans are appended when they open, so a child follows its parent."""
    sums = self_times(spans)
    for i in range(len(spans) - 1, -1, -1):
        if spans[i][PARENT] >= 0:
            sums[spans[i][PARENT]] += sums[i]
    return sums


def additivity_error(spans, name):
    """Largest |subtree self-time sum - duration| over the spans ``name``;
    nonzero when a child leaves its parent's interval or children overlap."""
    sums = subtree_self_sums(spans)
    return max((abs(sums[i] - (s[END] - s[START])) for i, s in enumerate(spans) if s[NAME] == name),
               default=0.0)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

PER_LAYER = (
    # name, unit, better
    ("exact.share", "ratio", "lower"),
    ("exact.eval_f.us_per_step", "us", "lower"),
    ("exact.log_leading_coeff.calls_per_point", "calls/point", "lower"),
    ("exact.log_leading_coeff.ms", "ms", "lower"),
    ("exact.ortho_matrix.us_per_node", "us", "lower"),
    ("specfun.log_gamma_real.calls_per_point", "calls/point", "lower"),
    ("specfun.log_gamma_real.ms", "ms", "lower"),
    ("specfun.log_gamma_complex.calls_per_point", "calls/point", "lower"),
    ("specfun.log_gamma_complex.ms", "ms", "lower"),
    ("specfun.airy_quartet.series_ms", "ms", "lower"),
    ("specfun.airy_quartet.asym_ms", "ms", "lower"),
    ("specfun.airy_quartet.asym_share", "ratio", "lower"),
    ("auxfun.h_factor.cold_s", "s", "lower"),
    ("auxfun.h_factor.warm_us", "us", "lower"),
    ("auxfun.d_func.ms", "ms", "lower"),
    ("auxfun.phi.ms", "ms", "lower"),
    ("auxfun.f_tilde_n.self_ms", "ms", "lower"),
) + tuple(
    (f"asym.eval_asym.{tag}.{kind}", unit, "lower")
    for tag in ("A", "B", "C", "D", "origin")
    for kind, unit in (("self_ms", "ms"), ("share", "ratio"))
) + (
    ("mpnum.logc_add.cancel_ratio", "ratio", "lower"),
    ("harness.compare_point.self_ms", "ms", "lower"),
    ("harness.compare_point.near_zero_ratio", "ratio", "lower"),
    ("harness.ortho_report.self_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.worker.cold_s", "s", "lower"),
    ("cli.parallel_speedup", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(chunks, extra=None):
    """Per-layer numbers from traced span lists.

    ``chunks`` is a sequence of (pid, spans, is_setup) in recording order;
    each span list is self-contained (parents index into the same list).
    The first ``h_factor`` call at each precision in each process is its
    cold fill; set-up chunks count only towards that.
    Times marked ``ms`` are per top-level call (a ``compare_point`` or an
    ``ortho_report``), so the self times of all layers add up to the mean
    call duration. ``extra`` supplies the values measured outside the
    spans (speed-up, overhead, CLI main).
    """
    incl = defaultdict(float)
    own_t = defaultdict(float)
    count = defaultdict(int)
    steps = nodes = 0
    airy = {"series": [0, 0.0], "asym": [0, 0.0]}
    tags = defaultdict(float)
    cancels = near_zero = 0
    cold = defaultdict(float)  # pid -> cold h_factor seconds
    seen = set()
    warm = []
    top_total = cold_in_calls = 0.0
    for pid, spans, setup in chunks:
        own = self_times(spans)
        for s, o in zip(spans, own):
            name, dur = s[NAME], s[END] - s[START]
            if name == "auxfun.h_factor":
                key = (pid, s[INFO])
                if key not in seen:
                    seen.add(key)
                    cold[pid] += dur
                    if not setup:
                        cold_in_calls += dur
                    continue
                if not setup:
                    warm.append(dur)
            if setup:
                continue
            incl[name] += dur
            own_t[name] += o
            count[name] += 1
            if name == "exact.eval_f":
                steps += s[INFO]
            elif name == "exact.ortho_matrix":
                nodes += s[INFO] + 1
            elif name == "specfun.airy_quartet":
                airy[s[INFO]][0] += 1
                airy[s[INFO]][1] += dur
            elif name == "asym.eval_asym":
                tags[s[INFO]] += o
            elif name == "mpnum.logc_add":
                cancels += bool(s[INFO])
            elif name == "harness.compare_point":
                near_zero += bool(s[INFO])
            if name in ("harness.compare_point", "harness.ortho_report"):
                top_total += dur
    calls = count["harness.compare_point"] + count["harness.ortho_report"]
    top_total -= cold_in_calls  # shares are of warm work

    def per_call_ms(v):
        return 1e3 * _ratio(v, calls)

    m = {
        "exact.share": _ratio(incl["exact.eval_monic_rescaled"], top_total),
        "exact.eval_f.us_per_step": 1e6 * _ratio(incl["exact.eval_f"], steps),
        "exact.log_leading_coeff.calls_per_point": _ratio(count["exact.log_leading_coeff"], calls),
        "exact.log_leading_coeff.ms": per_call_ms(incl["exact.log_leading_coeff"]),
        "exact.ortho_matrix.us_per_node": 1e6 * _ratio(incl["exact.ortho_matrix"], nodes),
        "specfun.log_gamma_real.calls_per_point": _ratio(count["specfun.log_gamma_real"], calls),
        "specfun.log_gamma_real.ms": per_call_ms(incl["specfun.log_gamma_real"]),
        "specfun.log_gamma_complex.calls_per_point": _ratio(count["specfun.log_gamma_complex"], calls),
        "specfun.log_gamma_complex.ms": per_call_ms(incl["specfun.log_gamma_complex"]),
        "specfun.airy_quartet.series_ms": per_call_ms(airy["series"][1]),
        "specfun.airy_quartet.asym_ms": per_call_ms(airy["asym"][1]),
        "specfun.airy_quartet.asym_share": _ratio(airy["asym"][0], airy["asym"][0] + airy["series"][0]),
        "auxfun.h_factor.cold_s": statistics.median(cold.values()) if cold else 0.0,
        "auxfun.h_factor.warm_us": 1e6 * statistics.fmean(warm) if warm else 0.0,
        "auxfun.d_func.ms": per_call_ms(incl["auxfun.d_func"]),
        "auxfun.phi.ms": per_call_ms(incl["auxfun.phi"]),
        "auxfun.f_tilde_n.self_ms": per_call_ms(own_t["auxfun.f_tilde_n"]),
    }
    for tag in ("A", "B", "C", "D", "origin"):
        m[f"asym.eval_asym.{tag}.self_ms"] = per_call_ms(tags[tag])
        m[f"asym.eval_asym.{tag}.share"] = _ratio(tags[tag], top_total)
    m.update({
        "mpnum.logc_add.cancel_ratio": _ratio(cancels, count["mpnum.logc_add"]),
        "harness.compare_point.self_ms": per_call_ms(own_t["harness.compare_point"]),
        "harness.compare_point.near_zero_ratio": _ratio(near_zero, count["harness.compare_point"]),
        "harness.ortho_report.self_ms": per_call_ms(own_t["harness.ortho_report"]),
        "cli.main.self_ms": 0.0,
        "cli.worker.cold_s": 0.0,
        "cli.parallel_speedup": 0.0,
        "trace.overhead_ratio": 1.0,
    })
    m.update(extra or {})
    return m
