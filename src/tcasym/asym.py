"""Region classification and region-wise asymptotic evaluation.

The rescaled monic polynomial is approximated by three closed-form
leading terms over the five regions of the closed first quadrant: the
band strip B and the origin disk share the two-term band formula, the
outer region A and the saturated strip D share one evaluator of the outer
formula (``eval_region_d``), both on the exponents of ``_exponents``, and
the turning-point disk C around 2 has the Airy form.  The full-plane
dispatcher reduces any nonzero z to the first quadrant through the parity
and reflection symmetries (exact negations), classifies it (exactly: each
region test is decided in integers by ``mpnum._sign``), dispatches, and
undoes the reduction on the LogComplex result, so the symmetries hold bit
for bit by construction.  No point is moved onto the axis.  Every value
has a principal phase, reduced mod 2 pi once at the evaluator's working
width (``_finish``).  Each evaluator checks its point and builds its one
geometry record (``_point``: the quantities of z that the formulas share,
each taken once) from (n, alpha, z, prec), whoever calls it.

The arithmetic is raw libmp calls (``mpf_*``/``mpc_*``, round to nearest)
at explicit widths, each the call that mpmath's operator or function
would make at that width; no precision context is entered.

Real arguments are evaluated as upper-half-plane boundary values, asserted
real (imaginary residual <= 1e-8 relative) with the phase snapped to 0 or
pi; only the band formula flags the snap (``real-snapped``).

Every result carries ``dropped_term_bound``: the log-magnitude of the
largest term the formula discards, so downstream error tables can
separate formula error from truncation error.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath
from mpmath import mp
from mpmath.libmp import (fhalf, fninf, fone, from_int, fzero, mpc_abs, mpc_add, mpc_add_mpf, mpc_div, mpc_div_mpf,
                          mpc_exp, mpc_log, mpc_mpf_div, mpc_mul, mpc_mul_int, mpc_mul_mpf, mpc_neg, mpc_sub, mpc_zero,
                          mpf_abs, mpf_add, mpf_atan2, mpf_div, mpf_gt, mpf_ln2, mpf_log, mpf_lt, mpf_mul, mpf_mul_int,
                          mpf_neg, mpf_nint, mpf_pi, mpf_pos, mpf_shift, mpf_sqrt, mpf_sub, round_ceiling, to_float,
                          to_int)
from mpmath.libmp import round_nearest as _RND

from .auxfun import (
    _d_width,
    _f_tilde_from_log_h,
    _geometry,
    _h_width,
    _half_log_twopi,
    _phi_width,
    d_func,
    h_factor,
    phi,
)
from .mpnum import (
    _TWO,
    GUARD,
    ConfigError,
    DomainError,
    LogComplex,
    _dyadic,
    _mag,
    _prod,
    _sign,
    _sq_diff,
    add_guarded,
    bits_of,
    fixed_mpc,
    require_finite,
    round_to,
    to_mpc,
    to_mpf,
    working,
)
from .specfun import _airy_rotated, log_gamma_real

REAL_SNAP_TOL = 1e-8  # relative imaginary residual allowed at real arguments


class _ParamFields(NamedTuple):
    """The fields of :class:`Params`, which checks them in a ``__new__``
    that a NamedTuple body may not define."""

    delta: float = 0.25
    eps: float = 0.15

    def k_edge(self, n: int, alpha, prec):
        """Right edge of the saturated strip: sqrt(n/alpha) + delta."""
        bits = bits_of(prec)
        with working(bits):
            v = mpmath.sqrt(n / to_mpf(alpha, bits)) + mpmath.mpf(self.delta)
        return round_to(bits, v)


class Params(_ParamFields):
    """Geometry of the region decomposition: strip height delta, disk radius eps."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0 < self.eps < self.delta):
            raise ConfigError(f"require 0 < eps < delta, got eps={self.eps}, delta={self.delta}")
        return self

    @classmethod
    def _make(cls, iterable):
        # the NamedTuple _make, which _replace calls, builds through tuple.__new__
        return cls(*iterable)

    def __reduce__(self):
        # pickle protocols 0 and 1 would rebuild through tuple.__new__
        return type(self), tuple(self)


class RegionLabel(NamedTuple):
    """Region tag plus the reflections the dispatcher applied."""

    tag: str
    negated: bool = False
    conjugated: bool = False


class AsymResult(NamedTuple):
    value: LogComplex
    region: RegionLabel
    dropped_term_bound: mpmath.mpf
    flags: tuple = ()


def classify_region(z, n: int, alpha, params: Params, prec=128) -> str:
    """Region tag for a point in the closed first quadrant, z and alpha
    rounded to ``prec`` bits.

    Ties resolve in the fixed order origin > C > B > D > A.  Each test is
    decided exactly on z, alpha, n and the doubles of ``params``:
    |z| < eps, |z - 2| <= eps, Im z <= delta, eps <= Re z <= 2 - eps, and
    2 + eps <= Re z <= sqrt(n/alpha) + delta.
    """
    bits = bits_of(prec)
    z, a = _checked(z, alpha, bits)
    if z.real < 0 or z.imag < 0:
        raise ConfigError("classify_region expects the closed first quadrant; use eval_asym for general z")
    return _region(z, n, a, params)


def _checked(z, alpha, bits):
    """(z, alpha) rounded to ``bits``; ConfigError unless both are finite
    and alpha > 0."""
    z, a = to_mpc(z, bits), to_mpf(alpha, bits)
    if not (mpmath.isfinite(a) and mpmath.isfinite(z)):
        raise ConfigError(f"alpha and z must be finite, got alpha={a}, z={z}")
    if not mpf_gt(a._mpf_, fzero):
        raise ConfigError(f"alpha must be > 0, got alpha={a}")
    return z, a


def _region(z, n, a, params):
    """``classify_region``'s tag of a finite first-quadrant z and alpha
    ``a``, each test the sign of a sum of exact dyadic terms."""
    x, y, a = _dyadic(z.real), _dyadic(z.imag), _dyadic(a)
    eps, delta = _dyadic(params.eps), _dyadic(params.delta)
    yy, ee = _prod(1, y, y), _prod(-1, eps, eps)
    if _sign(_prod(1, x, x), yy, ee) < 0:  # x^2 + y^2 < eps^2
        return "origin"
    if _sign(*_sq_diff(x, (2, 0)), yy, ee) <= 0:  # (x - 2)^2 + y^2 <= eps^2
        return "C"
    if _sign(y, _prod(-1, delta)) <= 0:
        if _sign(eps, _prod(-1, x)) <= 0 and _sign(x, eps, (-2, 0)) <= 0:
            return "B"
        # x <= sqrt(n/alpha) + delta: x - delta <= 0 or (x - delta)^2 alpha <= n
        if _sign((2, 0), eps, _prod(-1, x)) <= 0 and (
                _sign(x, _prod(-1, delta)) <= 0
                or _sign(*(_prod(1, t, a) for t in _sq_diff(x, delta)), (-n, 0)) <= 0):
            return "D"
    return "A"


# ----------------------------------------------------------------------
# shared assembly pieces
# ----------------------------------------------------------------------

def _point(n, alpha, z, bits, tag):
    """The geometry record (``auxfun._Geometry``) of z and alpha rounded to
    ``bits``, after the checks of ``eval_region_<tag>``.  Each field is
    taken at the width of its widest reader: u, w, z^2 and log(z-2) +
    log(z+2) at that of h_factor's closed form on the turning-point disk
    and of phi's elsewhere, so that h and phi see the bits they would
    compute themselves; n/z^2 and log n also at the D-function's width in
    the outer formula (tag "D", which serves A too) when that is wider."""
    name = f"eval_region_{tag.lower()}"
    z = to_mpc(z, bits)
    require_finite(z, name)
    zr = z._mpc_
    if tag == "B" and zr == mpc_zero:
        raise DomainError(f"{name}: z = 0 excluded")
    turning = tag == "C"
    if not turning and mpf_lt(zr[1], fzero):  # the formulas hold on the closed upper half-plane
        raise DomainError(f"{name} expects Im z >= 0; use eval_asym for the lower half")
    width = _h_width(zr, bits + 2 * GUARD) if turning else _phi_width(zr, bits + GUARD)
    s_width = max(width, _d_width(n, z, bits + GUARD) + GUARD + 8) if tag == "D" else width
    return _geometry(n, to_mpf(alpha, bits)._mpf_, zr, width, s_width, turning)


def _log_prefactor(n, g, bits, wp):
    """log of Gamma(alpha) e^{n/2} / (sqrt(2 pi) n^{n/2+alpha-1/2}) from the
    record g, raw at width ``wp``."""
    nh = mpf_shift(from_int(n), -1)  # n/2, exact
    t = mpf_add(log_gamma_real(mp.make_mpf(g.a), bits + GUARD)._mpf_, nh, wp, _RND)
    u = mpf_mul(mpf_sub(mpf_add(nh, g.a, wp, _RND), fhalf, wp, _RND), g.logn, wp, _RND)
    return mpf_sub(mpf_sub(t, u, wp, _RND), _half_log_twopi(wp)._mpf_, wp, _RND)


def _exponents(n, g, bits):
    """The exponents the band and outer formulas share, for the point of
    the record g, raw at width bits + GUARD + 8:
        wc = log prefactor + log (z^2-4)^(-1/4)  (product-principal factors),
        w1 = (2a-1/2) u - n phi - a pi i + pi i/2,
        w2 = -(2a-1/2) u + n phi + a pi i,
    u = Log((z + sqrt(z^2-4))/2).

    Returns (phi(z), the log-prefactor, wc, w1, w2)."""
    a, wp = g.a, bits + GUARD + 8
    p = mpf_sub(mpf_mul_int(a, 2, wp, _RND), fhalf, wp, _RND)
    phv = phi(mp.make_mpc(g.z), bits + GUARD, _geo=g)._mpc_
    pi = mpf_pi(wp, _RND)
    log_pref = _log_prefactor(n, g, bits, wp)
    wc = mpc_sub((log_pref, fzero), mpc_div_mpf(g.lw, from_int(4), wp, _RND), wp, _RND)
    t = mpc_sub(mpc_mul_mpf(g.u, p, wp, _RND), mpc_mul_int(phv, n, wp, _RND), wp, _RND)
    t = mpc_sub(t, mpc_mul_mpf((fzero, pi), a, wp, _RND), wp, _RND)
    w1 = mpc_add(t, (fzero, mpf_shift(pi, -1)), wp, _RND)
    w2 = mpc_neg(t)  # rounding is symmetric: -p u + n phi + a pi i, bit for bit
    return phv, log_pref, wc, w1, w2


def _finish(log_mod, phase, bits, wp, real):
    """An evaluator's value from the raw log-modulus and phase it formed at
    width ``wp``: the phase reduced mod 2 pi into (-pi, pi] there, each
    field rounded once to ``bits``, and a real z's phase, only rounding
    residue away from 0 or pi, snapped there (ArithmeticError beyond
    REAL_SNAP_TOL).  A log-modulus of -inf is the exact zero."""
    if log_mod == fninf:
        return LogComplex.zero()
    pi = mpf_pi(wp, _RND)
    if mpf_gt(mpf_abs(phase), pi):
        twopi = mpf_shift(pi, 1)
        k = to_int(mpf_div(mpf_sub(phase, pi, wp, _RND), twopi, wp, _RND), round_ceiling)
        phase = mpf_sub(phase, mpf_mul_int(twopi, k, wp, _RND), wp, _RND)
    pi = mpf_pi(bits, _RND)
    phase = mpf_pos(phase, bits, _RND)
    if not mpf_lt(mpf_abs(phase), pi):  # -pi, or past +-pi by a quotient rounded across an integer
        phase = pi
    if real:
        near = fzero if mpf_lt(mpf_abs(phase), mpf_shift(pi, -1)) else pi
        resid = abs(to_float(mpf_sub(near, mpf_abs(phase), 53, _RND)))
        if resid > REAL_SNAP_TOL:
            raise ArithmeticError(f"value expected real; imaginary residual {resid:.5g}")
        phase = near
    return LogComplex(mp.make_mpf(mpf_pos(log_mod, bits, _RND)), mp.make_mpf(phase))


# ----------------------------------------------------------------------
# region evaluators
# ----------------------------------------------------------------------

def eval_region_d(n: int, alpha, z, prec) -> AsymResult:
    """Outer-formula leading term, the one evaluator of the outer region A
    and the saturated strip D: exp(wc + w1) / D(z), with the band formula's
    exponents and the Gamma ratio D(z); relative accuracy O(1/n).

    The discarded correction is the band formula's second term
    exp(wc + w2), an absolute O(e^{n Re phi}); its log-magnitude is
    reported when it is larger than the relative O(1/n), and flagged
    (``dropped-term-dominant``) when it is not negligible against it, in
    A at small n as in D.
    """
    bits = bits_of(prec)
    g = _point(n, alpha, z, bits, "D")
    phv, log_pref, wc, w1, _ = _exponents(n, g, bits)
    dd = d_func(n, mp.make_mpf(g.a), mp.make_mpc(g.z), bits + GUARD, _geo=g)
    wp = bits + GUARD + 8
    w = mpc_sub(mpc_add(wc, w1, wp, _RND), (dd.log_mod._mpf_, dd.phase._mpf_), wp, _RND)
    value = _finish(*w, bits, wp, g.z[1] == fzero)
    wp = bits + GUARD
    n_re_phi = mpf_mul_int(phv[0], n, wp, _RND)
    drop_rel = mpf_sub(value.log_mod._mpf_, g.logn, wp, _RND)
    drop_abs = mpf_add(log_pref, n_re_phi, wp, _RND)
    dropped = drop_abs if mpf_gt(drop_abs, drop_rel) else drop_rel
    flags = ("dropped-term-dominant",) if mpf_gt(n_re_phi, mpf_neg(g.logn, wp, _RND)) else ()
    return AsymResult(value, RegionLabel("D"), mp.make_mpf(mpf_pos(dropped, bits, _RND)), flags)


def eval_region_b(n: int, alpha, z, prec) -> AsymResult:
    """Band-strip two-term oscillatory form, cancellation-guarded; the same
    formula serves the origin disk, where the nodes accumulate.

    The value is exp(wc) (exp(w1) + exp(w2)), formed as region C forms
    its value: the two terms are mpc values at the exponents' width, their
    sum m is taken under ``mpnum.add_guarded``'s rule at ``wide`` (flag
    ``cancel``), and wc + log |m| + i atan2(m) goes to ``_finish``.  An
    exactly real z is a boundary value from above, its phase snapped to 0
    or pi (``real-snapped``); the larger term over n is the dropped one.
    For odd n the value is O(|z|) at the origin, so below |z| = 2^-(GUARD/2)
    the terms are formed wider (``wide``) by the bits their sum cancels
    less GUARD/2, and the value and the dropped term rounded back to
    ``prec``; ``cancel`` then judges the loss against what is left at
    ``prec``, a sum below 2^-(wide - prec + prec//2) of its larger term.
    Valid on the closed upper half-plane minus 0; the lower half is served
    by the dispatcher through conjugation.
    """
    bits = bits_of(prec)
    z, alpha = to_mpc(z, bits), to_mpf(alpha, bits)
    wide = bits + (max(0, -_mag(z._mpc_) - GUARD // 2) if n % 2 and z != 0 else 0)
    g = _point(n, alpha, z, wide, "B")
    _, _, wc, w1, w2 = _exponents(n, g, wide)
    big = w2[0] if mpf_gt(w2[0], w1[0]) else w1[0]
    wp = wide + GUARD + 8
    m, cancelled = add_guarded(mpc_exp(w1, wp, _RND), mpc_exp(w2, wp, _RND), wide)
    log_m = mpf_log(mpc_abs(m, wp, _RND), wp, _RND)
    nonzero = m != mpc_zero
    if cancelled and wide > bits and nonzero:
        # the widening pays for wide - bits of the loss: judge what is left at bits
        left = mpf_mul_int(mpf_ln2(wp, _RND), wide - bits + bits // 2, wp, _RND)
        cancelled = mpf_gt(mpf_sub(big, log_m, wp, _RND), left)
    real = g.z[1] == fzero and nonzero
    phase = mpf_add(wc[1], mpf_atan2(m[1], m[0], wp, _RND), wp, _RND)
    value = _finish(mpf_add(wc[0], log_m, wp, _RND), phase, bits, wp, real)
    flags = ("cancel",) * cancelled + ("real-snapped",) * real
    dropped = mpf_sub(mpf_add(wc[0], big, wide + GUARD, _RND), g.logn, wide + GUARD, _RND)
    return AsymResult(value, RegionLabel("B"), mp.make_mpf(mpf_pos(dropped, bits, _RND)), flags)


def eval_region_c(n: int, alpha, z, prec) -> AsymResult:
    """Turning-point (Airy) form, stable through z = 2.

    The bracket pairs (e^(pu) -+ e^(-pu))(z^2-4)^(-1/4) ftilde^(-+1/4)
    are evaluated in the analytically reduced form
        2 sinh(p u)/w * (z+2)^(1/4) n^(-1/6) h^(-1/6)   and
        2 cosh(p u)   * (z+2)^(-1/4) n^(1/6) h^(1/6),
    with u = Log((z + w)/2), w = sqrt(z^2-4), and h the analytic cofactor
    of the turning-point map, so nothing blows up at the band edge.

    They multiply the Airy brackets Ai'(zeta) cos tau + Bi'(zeta) sin tau
    and Ai(zeta) cos tau + Bi(zeta) sin tau, zeta = ftilde_n(z) and
    tau = alpha pi - n pi/z^2, taken in the exponentially separated form
    of DLMF 9.2.11 (w = e^(2 pi i/3)):
        Ai  cos tau + Bi  sin tau = e^(i tau - pi i/3) Ai(w zeta)
                                    + e^(-i tau + pi i/3) Ai(conj(w) zeta),
        Ai' cos tau + Bi' sin tau = e^(i tau + pi i/3) Ai'(w zeta)
                                    + e^(-i tau - pi i/3) Ai'(conj(w) zeta).
    The four terms are complex values formed GUARD bits beyond the working
    width bits + GUARD + 8: e^(i tau) once, from Re tau reduced mod 2 pi
    and Im tau, times e^(+-i pi/3), and e^(-i tau) as its reciprocal; mpf
    exponents are unbounded, so no term overflows or loses its relative
    accuracy, however far the two of a bracket are apart.  The Airy values
    enter at that width (``specfun._airy_rotated``), and 2 sinh(pu),
    2 cosh(pu) come from one exponential, widened by the bits that
    e^(pu) - e^(-pu) cancels near z = 2.  The two brackets and the value
    are sums under ``mpnum.add_guarded``'s rule at the working width:
    ``cancel`` when any of the three loses more than half of that width,
    the exact zero below 2^-(width-4) of the larger term.  One log |m| and
    one atan2 give the value, log(|bracket a| + |bracket b|) the dropped
    term.  On the real axis the phase, only rounding residue away from 0
    or pi, is snapped there without the ``real-snapped`` flag.
    """
    bits = bits_of(prec)
    if n < 1:
        raise ConfigError("eval_region_c requires n >= 1")
    g = _point(n, alpha, z, bits, "C")
    z, a = g.z, g.a
    work, wp = bits + GUARD + 8, bits + 2 * GUARD + 8
    # one h and one log h at f_tilde_n's widths, for ftilde and h^(1/6)
    log_h = mpc_log(h_factor(mp.make_mpc(z), bits + 2 * GUARD, _geo=g)._mpc_, bits + 2 * GUARD, _RND)
    ft = _f_tilde_from_log_h(n, z, log_h, bits + GUARD)
    # rounded to bits + GUARD, the Airy values would set the phase's error
    # near the axis
    P, airy = _airy_rotated(mp.make_mpc(ft), bits + GUARD)
    ai_w, aid_w, ai_wb, aid_wb = (fixed_mpc(v, P, wp)._mpc_ for v in airy)
    p = mpf_sub(mpf_mul_int(a, 2, wp, _RND), fhalf, wp, _RND)
    if g.w == mpc_zero:
        s_fac, c_fac = (p, fzero), (_TWO, fzero)
    else:
        # 2 sinh and 2 cosh from one exponential; e - 1/e cancels to
        # 2 p u near z = 2, so it is formed wider by the bits lost
        pu = mpc_mul_mpf(g.u, p, wp, _RND)
        we = wp + (max(0, 1 - _mag(pu)) if pu != mpc_zero else 0)
        e = mpc_exp(pu, we, _RND)
        ei = mpc_mpf_div(fone, e, we, _RND)
        s_fac = mpc_div(mpc_sub(e, ei, we, _RND), g.w, we, _RND)
        c_fac = mpc_add(e, ei, we, _RND)
    # q = n^(1/6) h^(1/6) (z+2)^(-1/4), one exponential
    q = mpc_div_mpf(mpc_add_mpf(log_h, g.logn, wp, _RND), from_int(6), wp, _RND)
    q = mpc_exp(mpc_sub(q, mpc_div_mpf(mpc_log(mpc_add_mpf(z, _TWO, wp, _RND), wp, _RND), from_int(4), wp, _RND),
                        wp, _RND), wp, _RND)
    fac_a = mpc_div(s_fac, q, wp, _RND)
    fac_b = mpc_mul(c_fac, q, wp, _RND)
    pi = mpf_pi(wp, _RND)
    tau = mpc_sub((mpf_mul(a, pi, wp, _RND), fzero), mpc_mul_mpf(g.s, pi, wp, _RND), wp, _RND)
    # Re tau reaches n pi/4; reduced mod 2 pi, every term's phase
    # stays O(1) and keeps the absolute accuracy of the work width
    twopi = mpf_shift(pi, 1)
    k = mpf_nint(mpf_div(tau[0], twopi, wp, _RND), wp, _RND)
    re_tau = mpf_sub(tau[0], mpf_mul(twopi, k, wp, _RND), wp, _RND)
    et = mpc_exp((mpf_neg(tau[1]), re_tau), wp, _RND)  # e^(i tau)
    rot = (fhalf, mpf_shift(mpf_sqrt(from_int(3), wp, _RND), -1))  # e^(i pi/3)
    e_p, e_m = mpc_mul(et, rot, wp, _RND), mpc_div(et, rot, wp, _RND)  # e^(i (tau +- pi/3))
    s_a, cancel_a = add_guarded(mpc_mul(aid_w, e_p, wp, _RND), mpc_div(aid_wb, e_p, wp, _RND), work)
    s_b, cancel_b = add_guarded(mpc_mul(ai_w, e_m, wp, _RND), mpc_div(ai_wb, e_m, wp, _RND), work)
    br_a, br_b = mpc_mul(fac_a, s_a, wp, _RND), mpc_mul(fac_b, s_b, wp, _RND)
    m, cancel_m = add_guarded(br_a, br_b, work)
    # sqrt(pi) times the prefactor shared with the other regions
    log_pc = mpf_add(_log_prefactor(n, g, bits, wp), mpf_shift(mpf_log(pi, wp, _RND), -1), wp, _RND)
    log_m = mpf_add(log_pc, mpf_log(mpc_abs(m, wp, _RND), wp, _RND), wp, _RND)
    dropped = mpf_add(mpc_abs(br_a, wp, _RND), mpc_abs(br_b, wp, _RND), wp, _RND)
    dropped = mpf_sub(mpf_add(log_pc, mpf_log(dropped, wp, _RND), wp, _RND), g.logn, wp, _RND)
    value = _finish(log_m, mpf_atan2(m[1], m[0], wp, _RND), bits, wp, z[1] == fzero)
    flags = ("cancel",) if (cancel_a or cancel_b or cancel_m) else ()
    return AsymResult(value, RegionLabel("C"), mp.make_mpf(mpf_pos(dropped, bits, _RND)), flags)


_EVALUATORS = {
    "origin": eval_region_b,
    "A": eval_region_d,
    "B": eval_region_b,
    "C": eval_region_c,
    "D": eval_region_d,
}


def _locate(n, alpha, z, params, bits):
    """``locate``'s work: (z1, label, alpha at ``bits``)."""
    z, a = _checked(z, alpha, bits)
    if z == 0:
        raise DomainError("eval_asym: z = 0 excluded")
    if n < 1:
        raise ConfigError("eval_asym requires n >= 1")
    re, im = z._mpc_  # the reflections are raw negations, exact
    negated = mpf_lt(re, fzero)
    if negated:
        re, im = mpf_neg(re), mpf_neg(im)
    conjugated = mpf_lt(im, fzero)
    z1 = mp.make_mpc((re, mpf_neg(im) if conjugated else im))
    return z1, RegionLabel(_region(z1, n, a, params), negated, conjugated), a


def locate(n: int, alpha, z, params: Params = Params(), prec=256):
    """Validate a point and reduce it to the closed first quadrant.

    Returns (z1, label): z1 is z after parity (negated when Re z < 0) and
    then Schwarz conjugation (when Im < 0), both exact, and ``label``
    holds the region of z1 (``classify_region``, decided exactly) and the
    two reductions.  No point is moved: z1 is z up to the reflections, at
    every width.  Nothing is evaluated.
    """
    z1, label, _ = _locate(n, alpha, z, params, bits_of(prec))
    return z1, label


def eval_asym(n: int, alpha, z, params: Params = Params(), prec=256) -> AsymResult:
    """Full-plane asymptotic value of the rescaled monic polynomial.

    Reduces z to the closed first quadrant via parity and Schwarz
    conjugation, classifies (``locate``) and dispatches with the alpha and
    z1 rounded there, which the evaluator does not round again.  Undoing
    parity adds pi or -pi to the principal phase, rounded once, for odd n
    only; undoing conjugation negates it exactly, keeping pi at pi.  An
    exact zero stays ``LogComplex.zero()``.
    """
    bits = bits_of(prec)
    z1, label, a = _locate(n, alpha, z, params, bits)
    res = _EVALUATORS[label.tag](n, a, z1, bits)
    value = res.value
    if not value.is_zero():
        # parity first, then exact conjugation: each symmetry pair differs
        # by at most one identically rounded operation, bit for bit
        pi, t = mpf_pi(bits, _RND), value.phase._mpf_
        if label.negated and n % 2:  # t - pi for t > 0 unless that rounds to -pi, else t + pi
            s = mpf_sub(t, pi, bits, _RND)
            t = s if mpf_gt(t, fzero) and s != mpf_neg(pi) else mpf_add(t, pi, bits, _RND)
        if label.conjugated and t != pi:  # pi stays pi
            t = mpf_neg(t)
        value = LogComplex(value.log_mod, mp.make_mpf(t))
    return AsymResult(value, label, res.dropped_term_bound, res.flags)
