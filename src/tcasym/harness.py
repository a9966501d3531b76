"""Quantitative comparison of the exact and asymptotic evaluation paths.

Error metric: both paths produce LogComplex values, and
rel_err = |exp(log_asym - log_exact) - 1|, computed in log space, because
the raw values scale like exp(+-n log n) and direct subtraction would be
meaningless.  Records near zeros of the polynomial (where the oscillatory
two-term formulas cancel) are tagged "near-zero" and excluded from
convergence fits: relative error is ill-conditioned there.

Every report is a pure function of its inputs; re-running reproduces the
output bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath
from mpmath import mp
from mpmath.libmp import (fone, from_float, from_int, mpc_abs, mpc_exp, mpc_sub_mpf, mpf_add, mpf_log, mpf_lt,
                          mpf_pos, mpf_sub)
from mpmath.libmp import round_nearest as _RND

from . import asym, exact
from .asym import Params
from .mpnum import GUARD, ConfigError, LogComplex, bits_of, round_to, to_mpc, to_mpf, working
from .specfun import log_gamma_complex

NEAR_ZERO_HAIRCUT = math.log(1000.0)  # value 1000x below term scale => near-zero


class EvalRecord(NamedTuple):
    """One exact-vs-asymptotic comparison row."""

    n: int
    alpha: float
    z: complex
    region: str
    log_exact: LogComplex | None
    log_asym: LogComplex | None
    rel_err: float | None
    dropped_term_bound: float | None
    flags: tuple = ()
    error: str | None = None


def rel_err_log(log_exact: LogComplex, log_asym: LogComplex, prec):
    """|exp(log_asym - log_exact) - 1| evaluated at prec + GUARD bits and
    rounded to prec, by raw libmp calls."""
    bits = bits_of(prec)
    wp = bits + GUARD
    d = (mpf_sub(log_asym.log_mod._mpf_, log_exact.log_mod._mpf_, wp, _RND),
         mpf_sub(log_asym.phase._mpf_, log_exact.phase._mpf_, wp, _RND))
    v = mpc_abs(mpc_sub_mpf(mpc_exp(d, wp, _RND), fone, wp, _RND), wp, _RND)
    return mp.make_mpf(mpf_pos(v, bits, _RND))


def compare_point(n: int, alpha, z, params: Params = Params(), prec=256) -> EvalRecord:
    """Evaluate both paths at one point; failures are recorded, not raised."""
    bits = bits_of(prec)
    zc = to_mpc(z, bits)
    a = to_mpf(alpha, bits)  # rounded once; each path takes it unchanged
    flags = []
    log_exact = log_asym = None
    region = ""
    dropped = None
    errors = []
    try:
        log_exact = exact.eval_monic_rescaled(n, a, zc, bits)
    except Exception as e:  # per-row error column; sweeps never abort
        errors.append(f"exact:{type(e).__name__}:{e}")
    try:
        res = asym.eval_asym(n, a, zc, params, bits)
        log_asym = res.value
        region = res.region.tag
        dropped = float(res.dropped_term_bound)
        flags.extend(res.flags)
    except Exception as e:
        errors.append(f"asym:{type(e).__name__}:{e}")
    rel = None
    if log_exact is not None and log_asym is not None:
        if log_exact.is_zero() or log_asym.is_zero():
            flags.append("near-zero")
        else:
            rel = float(rel_err_log(log_exact, log_asym, bits))
            # magnitude far below the formula's term scale: zero of the
            # polynomial nearby, relative error ill-conditioned
            wp = bits + GUARD
            term = from_float(dropped if dropped is not None else float(log_asym.log_mod))
            scale = mpf_add(mpf_log(from_int(n), wp, _RND), term, wp, _RND)
            if mpf_lt(log_exact.log_mod._mpf_, mpf_sub(scale, from_float(NEAR_ZERO_HAIRCUT), wp, _RND)):
                flags.append("near-zero")
    return EvalRecord(
        n=n,
        alpha=float(a),
        z=complex(zc.real, zc.imag),
        region=region,
        log_exact=log_exact,
        log_asym=log_asym,
        rel_err=rel,
        dropped_term_bound=dropped,
        flags=tuple(flags),
        error=";".join(errors) if errors else None,
    )


class ConvergenceFit(NamedTuple):
    """Least-squares fit rel_err ~ C n^-p over a geometric n ladder."""

    z: complex
    region: str
    n_list: tuple
    rel_errs: tuple
    p: float
    c: float
    residual: float
    flags: tuple = ()


def convergence_fit(alpha, z, n_list, params: Params = Params(), prec=256) -> ConvergenceFit:
    """Fit the empirical convergence order at one point.

    Requires at least 4 strictly increasing degrees; raises
    :class:`ConfigError` on degenerate data (vanishing/failed rel_err).
    Records flagged near-zero are excluded; dropped-term-dominant records
    flag the fit instead of failing it.
    """
    n_list = tuple(int(n) for n in n_list)
    if len(n_list) < 4 or any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("n_list must be strictly increasing with length >= 4")
    recs = [compare_point(n, alpha, z, params, prec) for n in n_list]
    flags = []
    pts = []
    errs = []
    for r in recs:
        if r.error:
            raise ConfigError(f"degenerate fit: evaluation failed at n={r.n}: {r.error}")
        errs.append(r.rel_err)
        if "dropped-term-dominant" in r.flags:
            flags.append("dropped-term-dominant")
        if "near-zero" in r.flags:
            flags.append(f"near-zero@{r.n}")
            continue
        if r.rel_err is None or not math.isfinite(r.rel_err) or r.rel_err == 0:
            raise ConfigError(f"degenerate fit: rel_err={r.rel_err} at n={r.n}")
        pts.append((math.log(r.n), math.log(r.rel_err)))
    if len(pts) < 3:
        raise ConfigError("degenerate fit: fewer than 3 usable records after near-zero exclusion")
    import statistics  # the one use; kept off the package's import path

    xs, ys = zip(*pts)
    slope, intercept = statistics.linear_regression(xs, ys)
    resid = math.sqrt(statistics.fmean((y - (slope * x + intercept)) ** 2 for x, y in pts))
    region = recs[0].region
    return ConvergenceFit(
        z=recs[0].z,
        region=region,
        n_list=n_list,
        rel_errs=tuple(errs),
        p=-slope,
        c=math.exp(intercept),
        residual=resid,
        flags=tuple(dict.fromkeys(flags)),
    )


# ----------------------------------------------------------------------
# fixed-argument (Darboux-type) consistency
# ----------------------------------------------------------------------

class DarbouxRow(NamedTuple):
    n: int
    rel_err_formula: float
    rel_err_strip: float


class DarbouxReport(NamedTuple):
    alpha: float
    x: float
    rows: tuple
    formula_monotone: bool
    strip_monotone: bool


def _darboux_log_value(n, alpha, x, bits):
    """log of the fixed-argument leading form
    x^n n^(alpha - 1/x^2 - 1) e^(1/x^2) / Gamma(alpha - 1/x^2)."""
    with working(bits):
        a = to_mpf(alpha, bits)
        x = to_mpf(x, bits)
        s = a - 1 / (x * x)
        if s <= 0 and s == mpmath.floor(s):
            raise ConfigError(f"darboux form: Gamma pole at alpha - 1/x^2 = {s}")
        lg = log_gamma_complex(mpmath.mpc(s), bits)
        w = n * mpmath.log(mpmath.mpc(x)) + (s - 1) * mpmath.log(n) + 1 / (x * x) - lg
    return LogComplex.from_exponent(w, bits)


def darboux_check(alpha, x, n_list, prec=256, params: Params = Params()) -> DarbouxReport:
    """Fixed-x consistency: the classical fixed-argument form and the
    saturated-strip evaluator (mapped back through the leading coefficient)
    must both converge to the exact recurrence value as n grows.
    """
    bits = bits_of(prec)
    x = to_mpf(x, bits)
    if abs(x) <= 1:
        raise ConfigError("darboux_check requires |x| > 1")
    rows = []
    for n in n_list:
        ex = exact.eval_f(n, alpha, to_mpc(x, bits), bits)
        form = _darboux_log_value(n, alpha, x, bits)
        e1 = float(rel_err_log(ex, form, bits))
        with working(bits):
            zn = mpmath.sqrt(mpmath.mpf(n)) * x
        res = asym.eval_asym(n, alpha, zn, params, bits)
        lg = exact.log_leading_coeff(n, alpha, bits)
        with working(bits):
            mapped = LogComplex(res.value.log_mod + lg, res.value.phase)
        e2 = float(rel_err_log(ex, mapped, bits))
        rows.append(DarbouxRow(int(n), e1, e2))
    mono1 = all(rows[i + 1].rel_err_formula < rows[i].rel_err_formula for i in range(len(rows) - 1))
    mono2 = all(rows[i + 1].rel_err_strip < rows[i].rel_err_strip for i in range(len(rows) - 1))
    return DarbouxReport(float(to_mpf(alpha, bits)), float(x), tuple(rows), mono1, mono2)


# ----------------------------------------------------------------------
# default region sampling
# ----------------------------------------------------------------------

def region_grid(tag: str, n: int, alpha, params: Params = Params(), prec=256,
                nre: int = 20, nim: int = 10):
    """Default sampling grid for one region: nre x nim points interior to
    the region's first-quadrant footprint.

    Margins keep 2*eps away from every classifier boundary where the
    region is large enough, otherwise a fixed 30% of the extent (the
    small disks cannot afford an absolute 2*eps inset).  Interior
    sampling avoids artifacts of the rectangular classifier choice near
    the region corners.
    """
    bits = bits_of(prec)
    with working(bits):
        eps = to_mpf(params.eps, bits)
        delta = to_mpf(params.delta, bits)
        kn = params.k_edge(n, alpha, bits)

        def span(lo, hi):
            m = min(2 * eps, (hi - lo) * mpmath.mpf("0.3"))
            return lo + m, hi - m

        if tag == "B":
            r0, r1 = span(eps, 2 - eps)
            i0, i1 = span(mpmath.mpf(0), delta)
        elif tag == "D":
            r0, r1 = span(2 + eps, kn)
            i0, i1 = span(mpmath.mpf(0), delta)
        elif tag == "A":
            r0, r1 = span(mpmath.mpf(0), kn)
            i0, i1 = delta + eps, delta + 2 + eps
        elif tag == "C":
            # rectangle inscribed in the upper half-disk around 2
            h = eps * mpmath.mpf("0.7") / mpmath.sqrt(2)
            r0, r1 = 2 - h, 2 + h
            i0, i1 = h * mpmath.mpf("0.1"), h
        elif tag == "origin":
            h = eps * mpmath.mpf("0.7") / mpmath.sqrt(2)
            r0, r1 = h * mpmath.mpf("0.1"), h
            i0, i1 = h * mpmath.mpf("0.1"), h
        else:
            raise ConfigError(f"unknown region tag {tag!r}")
        pts = []
        for i in range(nre):
            re = r0 + (r1 - r0) * i / max(nre - 1, 1)
            for j in range(nim):
                im = i0 + (i1 - i0) * j / max(nim - 1, 1)
                pts.append(round_to(bits, mpmath.mpc(re, im)))
    return pts


# ----------------------------------------------------------------------
# cross-region consistency
# ----------------------------------------------------------------------

class InterfaceCheck(NamedTuple):
    pair: str
    max_log_ratio: float
    points: tuple


def _interface_points(name, n, alpha, params, bits):
    """10 sample points per shared region boundary, inset from corners."""
    with working(bits):
        eps = to_mpf(params.eps, bits)
        delta = to_mpf(params.delta, bits)
        kn = params.k_edge(n, alpha, bits)
        pts = []
        ts = [mpmath.mpf(2 * i + 1) / 20 for i in range(10)]
        if name == "origin/A":
            for t in ts:
                th = mpmath.pi / 2 * (mpmath.mpf("0.15") + mpmath.mpf("0.7") * t)
                pts.append(eps * mpmath.exp(1j * th))
        elif name == "origin/B":
            for t in ts:
                th = mpmath.pi / 2 * mpmath.mpf("0.12") * t
                pts.append(eps * mpmath.exp(1j * th))
        elif name == "B/A":
            for t in ts:
                pts.append(mpmath.mpc(eps + (2 - 2 * eps) * t, delta))
        elif name == "B/C":
            for t in ts:
                th = mpmath.pi / 2 * (1 + t)
                pts.append(2 + eps * mpmath.exp(1j * th))
        elif name == "C/D":
            for t in ts:
                th = mpmath.pi / 2 * t
                pts.append(2 + eps * mpmath.exp(1j * th))
        elif name == "C/A":
            for t in ts:
                th = mpmath.pi / 2 * (mpmath.mpf("0.6") + mpmath.mpf("0.8") * t)
                pts.append(2 + eps * mpmath.exp(1j * th))
        elif name == "D/A":
            for t in ts:
                pts.append(mpmath.mpc(2 + eps + (kn - 2 - 2 * eps) * t, delta))
        else:
            raise ConfigError(f"unknown interface {name}")
        return [round_to(bits, p) for p in pts]


INTERFACES = ("origin/A", "origin/B", "B/A", "B/C", "C/D", "C/A", "D/A")


def boundary_consistency(n: int, alpha, params: Params = Params(), prec=256,
                         interfaces=INTERFACES) -> tuple:
    """Max |log ratio| of adjacent region evaluators on shared boundaries.

    Both evaluators approximate the same function, so the log-ratio decays
    with n; an identical-pair control row comes out exactly zero.
    """
    bits = bits_of(prec)
    out = []
    for name in interfaces:
        ra, rb = name.split("/")
        worst = mpmath.mpf(0)
        pts = _interface_points(name, n, alpha, params, bits)
        for z in pts:
            va = asym._EVALUATORS[ra](n, alpha, z, bits).value
            vb = asym._EVALUATORS[rb](n, alpha, z, bits).value
            with working(bits):
                dphi = va.phase - vb.phase
                twopi = 2 * mpmath.pi
                dphi = dphi - twopi * mpmath.nint(dphi / twopi)
                r = abs(mpmath.mpc(va.log_mod - vb.log_mod, dphi))
                worst = max(worst, r)
        out.append(InterfaceCheck(name, float(worst), tuple(complex(p.real, p.imag) for p in pts)))
    return tuple(out)


# ----------------------------------------------------------------------
# orthogonality report
# ----------------------------------------------------------------------

class OrthoEntry(NamedTuple):
    m: int
    n: int
    value: float
    tail_bound: float
    target: float
    within_bound: bool
    exact_zero: bool


class OrthoReport(NamedTuple):
    alpha: float
    max_deg: int
    k_max: int
    entries: tuple

    @property
    def all_pass(self) -> bool:
        return all(e.within_bound for e in self.entries)


def ortho_report(alpha, max_deg: int, k_max: int, prec=128) -> OrthoReport:
    """Full (max_deg+1)^2 matrix of truncated orthogonality sums against
    h_n delta_mn, each judged against its own tail bound."""
    bits = bits_of(prec)
    if max_deg > 10:
        raise ConfigError("ortho_report supports max_deg <= 10")
    mat = exact.ortho_matrix(alpha, max_deg, k_max, bits)
    entries = []
    for m in range(max_deg + 1):
        for n in range(max_deg + 1):
            s = mat[(min(m, n), max(m, n))]
            with working(bits):
                target = exact.h_norm(n, alpha, bits) if m == n else mpmath.mpf(0)
                if s.exact_zero:
                    ok = s.value == 0
                else:
                    ok = abs(s.value - target) <= s.tail_bound
            entries.append(OrthoEntry(m, n, float(s.value), float(s.tail_bound),
                                      float(target), bool(ok), s.exact_zero))
    return OrthoReport(float(to_mpf(alpha, bits)), max_deg, k_max, tuple(entries))
