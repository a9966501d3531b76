"""Output checks, run outside the timed interval.

The reference for the exact path is a plain mpmath three-term recurrence
at twice the working precision, independent of the package's kernels and
of its log-gamma: mpmath's mpf exponent is unbounded, so no rescaling is
needed.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp

REL_ERR_CAP = 0.25  # loose: leading-order formulas, O(1/n) with alpha-dependent constants
REF_TOL = 1e-40  # exact path vs reference, relative, at 256 bits


class Tally:
    """Counts of attempted and failed checks, with the first failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def ref_log_monic(n: int, alpha, z, bits: int):
    """(log|v|, arg v) of v = f_n(alpha; z/sqrt(n)) / (leading coefficient)."""
    with mp.workprec(bits):
        a = mpmath.mpf(alpha)
        x = mpmath.mpc(mpmath.mpf(z[0]), mpmath.mpf(z[1])) / mpmath.sqrt(n)
        f_prev, f = mpmath.mpc(1), a * x
        for k in range(1, n):
            f_prev, f = f, ((k + a) * x * f - f_prev) / (k + 1)
        lead = mpmath.loggamma(n + a) - mpmath.loggamma(a) - mpmath.loggamma(n + 1)
        return mpmath.log(abs(f)) - lead, mpmath.arg(f)


def ref_rel_diff(n, alpha, z, log_exact, bits=256):
    """|exp(log_exact - reference) - 1| with the reference at 2*bits."""
    lm, ph = ref_log_monic(n, alpha, z, 2 * bits)
    with mp.workprec(2 * bits):
        d = mpmath.mpc(log_exact.log_mod - lm, log_exact.phase - ph)
        twopi = 2 * mpmath.pi
        d = mpmath.mpc(d.real, d.imag - twopi * mpmath.nint(d.imag / twopi))
        return float(abs(mpmath.exp(d) - 1))


def term_share(n, log_exact_mod, dropped_term_bound):
    """|exact value| as a share of the formula's term scale, at most 1.

    The scale is the one the harness's near-zero test uses: the dropped
    term's log-magnitude plus log n."""
    if log_exact_mod is None or dropped_term_bound is None:
        return 1.0
    return math.exp(min(0.0, float(log_exact_mod) - dropped_term_bound - math.log(n)))


def check_row(tally, tag, region, rel_err, share, flags, error, where):
    """The per-point checks shared by in-process records and CSV rows.

    The error cap applies to rel_err * share, the error against the term
    scale. Near a zero of the polynomial rel_err is ill-conditioned, and
    the harness flags "near-zero" only 1000x below the term scale: over
    ten seeds, real-axis B points 67x and 170x below it carried rel_err
    0.49 and 0.24 while the largest error against the term scale of any
    row was 0.07."""
    tally.check(not error, f"{where}: error {error}")
    tally.check(region == tag, f"{where}: region {region!r}, generated in {tag!r}")
    if "near-zero" not in flags:
        ok = rel_err is not None and math.isfinite(rel_err) and rel_err * share < REL_ERR_CAP
        tally.check(ok, f"{where}: rel_err {rel_err} at {share:.3g} of the term scale")
