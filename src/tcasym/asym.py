"""Region classification and region-wise asymptotic evaluation.

The rescaled monic polynomial is approximated by three closed-form
leading terms over the five regions of the closed first quadrant: the
band strip B and the origin disk share the two-term band formula, the
outer region A and the saturated strip D share one evaluator of the outer
formula (``eval_region_d``), both on the exponents of ``_exponents``, and
the turning-point disk C around 2 has the Airy form.  The full-plane
dispatcher reduces any nonzero z to the first quadrant through the parity
and reflection symmetries, classifies it (exactly: each region test is an
inequality between polynomials in the dyadic inputs, decided in integers
by ``mpnum._sign``), dispatches, and undoes the reduction on the
LogComplex result, so the symmetries hold bit for bit by construction.
Every value has a principal phase, reduced mod 2 pi once at the
evaluator's working width (``_finish``) and never moved out of (-pi, pi].
Each evaluator checks its point and builds its one geometry record
(``_point``: the quantities of z that the formulas share, each taken
once) from (n, alpha, z, prec), whoever calls it; z and alpha rounded by
the dispatcher are not rounded again.

Real arguments are evaluated as upper-half-plane boundary values.  Every
region's value there is asserted real (imaginary residual <= 1e-8
relative) and its phase snapped to 0 or pi; only the band formula, which
combines two conjugate oscillatory terms into that real value, flags the
snap (``real-snapped``).

Every result carries ``dropped_term_bound``: the log-magnitude of the
largest term the formula discards, so downstream error tables can
separate formula error from truncation error.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath
from mpmath import mp
from mpmath.libmp import (fhalf, fninf, from_int, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_lt, mpf_mul,
                          mpf_mul_int, mpf_neg, mpf_pi, mpf_pos, mpf_shift, mpf_sub, round_ceiling, to_float, to_int)
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
    GUARD,
    ConfigError,
    DomainError,
    LogComplex,
    _dyadic,
    _prod,
    _sign,
    _sq_diff,
    add_guarded,
    bits_of,
    fixed_mpc,
    logc_add,
    near_cut,
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
    if a <= 0:
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
    if tag == "B" and z == 0:
        raise DomainError(f"{name}: z = 0 excluded")
    turning = tag == "C"
    if not turning and z.imag < 0:  # the formulas hold on the closed upper half-plane
        raise DomainError(f"{name} expects Im z >= 0; use eval_asym for the lower half")
    width = _h_width(z, bits + 2 * GUARD) if turning else _phi_width(z, bits + GUARD)
    s_width = width
    if tag == "D":
        s_width = max(width, _d_width(n, z, bits + GUARD) + GUARD + 8)
    return _geometry(n, to_mpf(alpha, bits), z, width, s_width, turning)


def _log_prefactor(n, g, bits, wp):
    """log of Gamma(alpha) e^{n/2} / (sqrt(2 pi) n^{n/2+alpha-1/2}) from the
    record g, at width ``wp`` by raw libmp calls, the ones the context's
    operators would make there."""
    nh = mpf_shift(from_int(n), -1)  # n/2, exact
    t = mpf_add(log_gamma_real(g.a, bits + GUARD)._mpf_, nh, wp, _RND)
    u = mpf_mul(mpf_sub(mpf_add(nh, g.a._mpf_, wp, _RND), fhalf, wp, _RND), g.logn._mpf_, wp, _RND)
    return mp.make_mpf(mpf_sub(mpf_sub(t, u, wp, _RND), _half_log_twopi(wp)._mpf_, wp, _RND))


def _exponents(n, g, bits):
    """The exponents the band and outer formulas share, for the point of
    the record g, at the caller's working width:
        wc = log prefactor + log (z^2-4)^(-1/4)  (product-principal factors),
        w1 = (2a-1/2) u - n phi - a pi i + pi i/2,
        w2 = -(2a-1/2) u + n phi + a pi i,
    u = Log((z + sqrt(z^2-4))/2).

    Returns (phi(z), the log-prefactor, wc, w1, w2)."""
    a, u = g.a, g.u
    with working(bits, GUARD + 8):
        p = 2 * a - mpmath.mpf(1) / 2
        phv = phi(g.z, bits + GUARD, _geo=g)
        ipi = mpmath.mpc(0, mpmath.pi)
        log_pref = _log_prefactor(n, g, bits, bits + GUARD + 8)
        wc = log_pref - g.lw / 4
        t = p * u - n * phv - a * ipi
        w1 = t + ipi / 2
        w2 = -t  # rounding is symmetric: -p u + n phi + a pi i, bit for bit
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
    dd = d_func(n, g.a, g.z, bits + GUARD, _geo=g)
    with working(bits, GUARD + 8):
        w = wc + w1 - mpmath.mpc(dd.log_mod, dd.phase)
    value = _finish(*w._mpc_, bits, bits + GUARD + 8, g.z.imag == 0)
    flags = ()
    with working(bits):
        logn = g.logn
        drop_rel = value.log_mod - logn
        drop_abs = log_pref + n * phv.real
        dropped = max(drop_rel, drop_abs)
        if n * phv.real > -logn:
            flags = ("dropped-term-dominant",)
    return AsymResult(value, RegionLabel("D"), round_to(bits, dropped), flags)


def eval_region_b(n: int, alpha, z, prec) -> AsymResult:
    """Band-strip two-term oscillatory form, cancellation-guarded; the same
    formula serves the origin disk, where the nodes accumulate.

    The value is exp(wc) (exp(w1) + exp(w2)), the two terms added through
    ``logc_add`` (flag ``cancel``); a real z snaps the value onto the axis
    (``real-snapped``), and the larger term over n is the dropped one.
    For odd n the value is O(|z|) at the origin, so below |z| = 2^-GUARD
    the terms are formed wider by the bits their sum cancels, and the
    value and the dropped term rounded back to ``prec``; ``cancel`` then
    judges the loss against what is left at ``prec``, a sum below
    2^-(wide - prec + prec//2) of its larger term.
    Valid on the closed upper half-plane minus 0; the lower half is served
    by the dispatcher through conjugation.
    """
    bits = bits_of(prec)
    z, alpha = to_mpc(z, bits), to_mpf(alpha, bits)
    wide = bits
    if n % 2 and z != 0:
        wide += max(0, -mpmath.mag(z) - GUARD)
    g = _point(n, alpha, z, wide, "B")
    _, _, wc, w1, w2 = _exponents(n, g, wide)
    t1, t2 = LogComplex.from_exponent(w1, wide), LogComplex.from_exponent(w2, wide)
    s, cancelled = logc_add(t1, t2, wide)
    if cancelled and wide > bits and not s.is_zero():
        # the widening pays for wide - bits of the loss: judge what is left at bits
        with working(wide):
            cancelled = max(t1.log_mod, t2.log_mod) - s.log_mod > (wide - bits + bits // 2) * mpmath.ln2
    real = g.z.imag == 0 and not s.is_zero()
    wr, wi = to_mpc(wc, wide)._mpc_
    value = _finish(mpf_add(wr, s.log_mod._mpf_, wide, _RND), mpf_add(wi, s.phase._mpf_, wide, _RND),
                    bits, wide, real)
    flags = ("cancel",) if cancelled else ()
    if real:
        flags += ("real-snapped",)
    with working(wide):
        dropped = wc.real + max(w1.real, w2.real) - g.logn
    return AsymResult(value, RegionLabel("B"), round_to(bits, dropped), flags)


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
    The four terms are mpc values, all formed GUARD bits beyond the
    working width bits + GUARD + 8: e^(i tau) once, from Re tau reduced
    mod 2 pi and Im tau, times e^(+-i pi/3), and e^(-i tau) as its
    reciprocal.  mpf exponents are unbounded, so e^(+-|Im tau|) cannot
    overflow, and each term keeps its relative accuracy however far the
    two of a bracket are apart.  The Airy values enter at that width
    (``specfun._airy_rotated``, not rounded to bits + GUARD first), and
    2 sinh(pu), 2 cosh(pu) come from one exponential, widened by the bits
    that e^(pu) - e^(-pu) cancels near z = 2.  The two brackets and the
    value are sums under ``logc_add``'s rule at the working width
    (``mpnum.add_guarded``): ``cancel`` is set when any of the three loses
    more than half of that width, and a sum below 2^-(width-4) of its
    larger term is the exact zero.  One log |m| and one atan2 give the
    value, and log(|bracket a| + |bracket b|) the dropped term.  On the
    real axis the value is real; its phase, which carries only rounding
    residue there, is snapped to 0 or pi without the ``real-snapped``
    flag of the band formula's boundary values.
    """
    bits = bits_of(prec)
    if n < 1:
        raise ConfigError("eval_region_c requires n >= 1")
    g = _point(n, alpha, z, bits, "C")
    z, a, u, w = g.z, g.a, g.u, g.w
    work = bits + GUARD + 8
    # one h and one log h at the widths f_tilde_n would use, shared by
    # ftilde and h^(1/6)
    h = h_factor(z, bits + 2 * GUARD, _geo=g)
    with mp.workprec(bits + 2 * GUARD):
        log_h = mpmath.log(h)
    ft = _f_tilde_from_log_h(n, z, log_h, bits + GUARD)
    # rounded to bits + GUARD, the Airy values would set the phase's error
    # near the axis
    P, airy = _airy_rotated(ft, bits + GUARD)
    ai_w, aid_w, ai_wb, aid_wb = (fixed_mpc(v, P, work + GUARD) for v in airy)
    with mp.workprec(work + GUARD):
        p = 2 * a - mpmath.mpf(1) / 2
        if w == 0:
            s_fac = mpmath.mpc(p)
            c_fac = mpmath.mpc(2)
        else:
            # 2 sinh and 2 cosh from one exponential; e - 1/e cancels to
            # 2 p u near z = 2, so it is formed wider by the bits lost
            pu = p * u
            with mp.workprec(work + GUARD + (max(0, 1 - mpmath.mag(pu)) if pu else 0)):
                e = mpmath.exp(pu)
                ei = 1 / e
                s_fac = (e - ei) / w
                c_fac = e + ei
        # q = n^(1/6) h^(1/6) (z+2)^(-1/4), one exponential
        q = mpmath.exp((g.logn + log_h) / 6 - mpmath.log(z + 2) / 4)
        fac_a = s_fac / q
        fac_b = c_fac * q
        tau = a * mpmath.pi - mpmath.pi * g.s
        # Re tau reaches n pi/4; reduced mod 2 pi, every term's phase
        # stays O(1) and keeps the absolute accuracy of the work width
        re_tau = tau.real - 2 * mpmath.pi * mpmath.nint(tau.real / (2 * mpmath.pi))
        et = mpmath.exp(mpmath.mpc(-tau.imag, re_tau))  # e^(i tau)
        rot = mpmath.mpc(0.5, mpmath.sqrt(3) / 2)  # e^(i pi/3)
        e_p, e_m = et * rot, et / rot  # e^(i (tau +- pi/3))
        s_a, cancel_a = add_guarded(aid_w * e_p, aid_wb / e_p, work)
        s_b, cancel_b = add_guarded(ai_w * e_m, ai_wb / e_m, work)
        br_a, br_b = fac_a * s_a, fac_b * s_b
        m, cancel_m = add_guarded(br_a, br_b, work)
        # sqrt(pi) times the prefactor shared with the other regions
        log_pc = _log_prefactor(n, g, bits, work + GUARD) + mpmath.log(mpmath.pi) / 2
        log_m, arg_m = log_pc + mpmath.log(abs(m)), mpmath.atan2(m.imag, m.real)
        dropped = log_pc + mpmath.log(abs(br_a) + abs(br_b)) - g.logn
    value = _finish(log_m._mpf_, arg_m._mpf_, bits, work + GUARD, z.imag == 0)
    flags = ("cancel",) if (cancel_a or cancel_b or cancel_m) else ()
    return AsymResult(value, RegionLabel("C"), round_to(bits, dropped), flags)


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
    with mp.workprec(bits):
        negated = z.real < 0
        z1 = -z if negated else z
        conjugated = z1.imag < 0
        if conjugated:
            z1 = mpmath.conj(z1)
    tag = _region(z1, n, a, params)
    if tag in ("B", "origin") and z1.real > 0 and z1.imag > 0 and near_cut(z1, -mpmath.inf, mpmath.inf, bits):
        z1 = to_mpc(z1.real, bits)
        tag = _region(z1, n, a, params)
    return z1, RegionLabel(tag, negated, conjugated), a


def locate(n: int, alpha, z, params: Params = Params(), prec=256):
    """Validate a point and reduce it to the closed first quadrant.

    Returns (z1, label): z1 is z after parity (negated when Re z < 0) and
    then Schwarz conjugation (when Im < 0), and ``label`` holds the region
    of z1 and the two reductions.  A band or origin-disk z1 with Re z1 > 0
    and 0 < Im z1 < 2^-(bits/2) min(1, |z1|), where the band formula would
    refuse it as on its cut, is snapped onto the axis (flagged real-snapped
    there); below |z1| = 1 the tolerance is relative, so a tiny z1 is not
    moved by O(|z1|).

    The region (``classify_region``) and the snap (``mpnum.near_cut``) are
    decided exactly.  Nothing is evaluated.
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
