"""Auxiliary functions feeding the region-wise asymptotic formulas.

Contents: the limiting zero density psi (band |x| <= 2, saturated
2/|x|^3 outside), the explicit derivative of the logarithmic potential,
the regularized phase functions phi-tilde / phi / phi-hat, the conformal
turning-point map (its cofactor h is the closed form in phi-tilde), the
Gamma-ratio D-functions with their algebraic E prefactors, and the
node-counting trio (theta, gamma, Pi).  The phases read
u = Log((z + sqrt(z^2-4))/2), the log of the inverse Joukowski map at
z/2 (``_u_of``).  u, w = sqrt(z^2-4), z^2, n/z^2 and log n come from a
raw ``_Geometry`` record: a region evaluator passes its point's record to
``phi``, ``h_factor`` and ``d_func`` as their private ``_geo``; without
it each builds one, as ``phi_tilde`` always does.  Near 2 the closed form
of phi-tilde cancels 1.5 log2(1/|z - 2|) bits, so h and phi-tilde
evaluate it that much wider (``_h_width``).  The record and
the functions the evaluators call make raw libmp calls at explicit widths.

Branch discipline: every power/log is a principal branch of an explicit
factor, chosen so each function is analytic exactly off its stated cut.
mpmath puts Arg on (-pi, pi], so evaluating *on* a cut yields the limit
from the upper half-plane.  The half-plane-specific functions (g_prime,
phi_tilde, phi, d_func) follow one rule: Im z < 0 takes the lower
formula, every other point the upper one, so a real z gets its limit
from above; the limit from below is its conjugate.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import mpmath
from mpmath import mp
from mpmath.libmp import (fhalf, fone, from_float, from_int, fzero, mpc_abs, mpc_add, mpc_add_mpf, mpc_conjugate,
                          mpc_div, mpc_div_mpf, mpc_exp, mpc_log, mpc_mpf_div, mpc_mul, mpc_mul_int, mpc_mul_mpf,
                          mpc_neg, mpc_pos, mpc_shift, mpc_sqrt, mpc_sub, mpc_sub_mpf, mpc_zero, mpf_acos, mpf_add,
                          mpf_div, mpf_ge, mpf_gt, mpf_log, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg, mpf_nint, mpf_pi,
                          mpf_pow, mpf_rdiv_int, mpf_shift, mpf_sqrt, mpf_sub)
from mpmath.libmp import round_nearest as _RND

from .mpnum import (
    GUARD,
    ConfigError,
    DomainError,
    LogComplex,
    _mag,
    _TWO,
    _w_root,
    bits_of,
    require_finite,
    require_off_cut,
    round_to,
    to_mpc,
    to_mpf,
    working,
)
from .specfun import log_gamma_complex, log_gamma_real

_INF = mpmath.inf


# ----------------------------------------------------------------------
# Density
# ----------------------------------------------------------------------

def density_psi(x, prec):
    """Limiting zero-counting density.

    Band |x| <= 2:  (1/pi) (4 atan(|x|/sqrt(4-x^2)) / |x|^3 - sqrt(4-x^2)/x^2);
    saturated |x| > 2:  2/|x|^3.  Even in x; continuous (value 1/4) at the
    band edge.  At x = 0 the band branch takes its finite limit 1/(3 pi).
    """
    bits = bits_of(prec)
    x = to_mpf(x, bits)
    with mp.workprec(bits):
        t = abs(x)
        sat = t > 2
        if sat:
            return 2 / (t * t * t)
    # the two 2/t^2 singular parts cancel; near 0 switch to the expansion
    if t < mpmath.ldexp(mpmath.mpf(1), -(bits // 5)):
        with working(bits):
            t2 = t * t
            v = (mpmath.mpf(1) / 3 + t2 / 40 + 3 * t2 * t2 / 896) / mpmath.pi
        return round_to(bits, v)
    with mp.workprec(2 * bits + GUARD):
        r = mpmath.sqrt((2 - t) * (2 + t))
        v = (4 * mpmath.atan2(t, r) / (t * t * t) - r / (t * t)) / mpmath.pi
    return round_to(bits, v)


# ----------------------------------------------------------------------
# Inverse Joukowski log (product-principal branches)
# ----------------------------------------------------------------------

def _u_of(z, wp):
    """(u, w) of a raw complex z, raw at width ``wp``: w = sqrt(z-2) sqrt(z+2)
    and u = Log((z + w)/2), so that cosh u = z/2 and sinh u = w/2.  On the
    closed first quadrant the log's argument never meets (-inf, 0], and a
    band z gets the upper limit."""
    w = _w_root(z, wp)
    return mpc_log(mpc_shift(mpc_add(z, w, wp, _RND), -1), wp, _RND), w


class _Geometry(NamedTuple):
    """The quantities of one point that the formulas read, raw.  ``z`` and
    ``a`` (alpha) are rounded to the evaluation width; the rest are taken
    once, at the widest width at which a reader takes them (``asym._point``):

    zz = z^2, s = n/z^2, logn = log n, (u, w) as in :func:`_u_of` (on the
    band 0 < x <= 2, their upper limits i acos(x/2), i sqrt(4 - x^2)), lw =
    log(z-2) + log(z+2) = 2 Log w (on the closed upper half-plane the
    arguments of the two square roots add up to an angle in [0, pi]),
    None on the turning-point disk, whose formula does not read it, and in
    a record of z alone (no n, a, s or logn either).
    """

    z: tuple
    a: tuple
    zz: tuple
    s: tuple
    logn: tuple
    u: tuple
    w: tuple
    lw: tuple | None


def _geometry(n, a, z, width: int, s_width: int = 0, turning: bool = False) -> _Geometry:
    """The record of the raw z and alpha ``a`` for degree n (of z alone if
    n is None): u, w, zz and lw rounded once at ``width``, s and logn at
    ``s_width`` (default ``width``).  ``turning`` marks the turning-point
    disk: there h needs the off-cut u and w even on the axis, and no lw."""
    re, im = z
    if not turning and im == fzero and mpf_gt(re, fzero) and not mpf_gt(re, _TWO):
        r = mpf_mul(mpf_sub(_TWO, re, width, _RND), mpf_add(re, _TWO, width, _RND), width, _RND)
        u, w = (fzero, mpf_acos(mpf_shift(re, -1), width, _RND)), (fzero, mpf_sqrt(r, width, _RND))
    else:
        u, w = _u_of(z, width)
    zz = mpc_mul(z, z, width, _RND)
    if n is None:
        return _Geometry(z, a, zz, None, None, u, w, None)
    lw = None if turning else mpc_mul_int(mpc_log(w, width, _RND), 2, width, _RND)
    s_width = s_width or width
    # from the rounded z^2 unless s needs more bits than it holds
    s = mpc_mpf_div(from_int(n), zz if s_width == width else mpc_mul(z, z, s_width, _RND), s_width, _RND)
    return _Geometry(z, a, zz, s, mpf_log(from_int(n), s_width, _RND), u, w, lw)


# ----------------------------------------------------------------------
# Phase functions
# ----------------------------------------------------------------------

def g_prime(z, prec):
    """Derivative of the logarithmic potential, explicit closed form.

    4/z^3 log((z + sqrt(z^2-4))/2) + sqrt(z^2-4)/z^2 -+ 2 pi i / z^3 on the
    upper/lower half-plane.  A real z takes the upper form, its limit from
    above, and the pole 0 raises.  At the branch points +-2 the form is
    finite, -pi i/4.
    """
    bits = bits_of(prec)
    z = to_mpc(z, bits)
    require_finite(z, "g_prime")
    if z == 0:
        raise DomainError("g_prime: pole at z = 0")
    with working(bits):
        el, w = map(mp.make_mpc, _u_of(z._mpc_, mp.prec))  # the upper limit on (-2, 2) by the Arg convention
        sgn = -1 if z.imag < 0 else 1
        z3 = z * z * z
        v = 4 * el / z3 + w / (z * z) - sgn * 2 * mpmath.pi * 1j / z3
    return round_to(bits, v)


def phi_tilde(z, prec):
    """Regularized phase, analytic on C \\ (-inf, 2]; real negative on (2, inf).

    Closed form (2/z^2 - 1) log((z + sqrt(z^2-4))/2) + sqrt(z^2-4)/(2z),
    taken at every z with Im z != 0 however close to the cut.  A real
    z = x in (0, 2] takes its limit from above: the same form with u and
    w at their upper limits i acos(x/2) and i sqrt(4 - x^2), purely
    imaginary.  A real z <= 0 raises.  The form, O(|t|^(3/2)) from
    O(|t|^(1/2)) terms, t = z - 2, is taken at :func:`_h_width`.
    """
    bits = bits_of(prec)
    z = to_mpc(z, bits)
    require_finite(z, "phi_tilde")
    return mp.make_mpc(_phi_tilde(z._mpc_, bits, None, _h_width(z._mpc_, bits)))


def _phi_tilde(z, bits, g, wp):
    """phi_tilde of a finite raw z, raw, rounded to ``bits``: the closed form
    at width ``wp`` from the record g of z, or from one of its own."""
    re, im = z
    if im == fzero and not mpf_gt(re, fzero):
        raise DomainError(f"phi_tilde: z={mp.make_mpc(z)} on the cut (-inf, 2]")
    g = g or _geometry(None, None, z, wp)
    if im != fzero or mpf_gt(re, _TWO):
        v = _phi_tilde_form(g, wp)
    else:  # the same form in the real z, z^2 and imaginary u, w of a band record
        c = mpf_sub(mpf_rdiv_int(2, g.zz[0], wp, _RND), fone, wp, _RND)
        v = mpc_add(mpc_mul_mpf(g.u, c, wp, _RND), mpc_div_mpf(g.w, mpf_mul_int(re, 2, wp, _RND), wp, _RND), wp, _RND)
    return mpc_pos(v, bits, _RND)


def _phi_tilde_form(g, wp):
    """(2/z^2 - 1) u + w/(2z), the closed form of phi_tilde, raw at width
    ``wp`` from the record g of z."""
    c = mpc_sub_mpf(mpc_mpf_div(_TWO, g.zz, wp, _RND), fone, wp, _RND)
    return mpc_add(mpc_mul(c, g.u, wp, _RND), mpc_div(g.w, mpc_mul_int(g.z, 2, wp, _RND), wp, _RND), wp, _RND)


def _phi_width(z, prec) -> int:
    """``phi(z, prec)``'s width for phi_tilde's closed form at the raw z, and
    for all its steps, widened by the bits phi_tilde ~ i pi/z^2 cancels to O(1)."""
    return prec + GUARD + (max(0, 2 - 2 * _mag(z) - GUARD) if z != mpc_zero else 0) + GUARD + 8


def phi(z, prec, _geo=None):
    """phi = phi_tilde -+ i pi / z^2 on the upper/lower half-plane; a real z
    takes the upper form, its limit from above.

    Bounded near the origin (the i pi/z^2 singularities cancel); purely
    imaginary on the band (0, 2].  ``_geo``: an evaluator's record of z
    (:class:`_Geometry`), read for phi_tilde.  Raw libmp calls throughout.
    """
    bits = bits_of(prec)
    z = to_mpc(z, bits)
    require_finite(z, "phi_tilde")  # phi takes its value, and its refusal, from phi_tilde
    z = z._mpc_
    fw = _phi_width(z, bits)
    pt = _phi_tilde(z, fw - GUARD - 8, _geo, fw)
    wp = fw - GUARD
    pi = mpf_pi(wp, _RND)
    ipi = (fzero, mpf_neg(pi) if mpf_lt(z[1], fzero) else pi)
    v = mpc_sub(pt, mpc_div(ipi, mpc_mul(z, z, wp, _RND), wp, _RND), wp, _RND)
    return mp.make_mpc(mpc_pos(v, bits, _RND))


def phi_hat(z, prec):
    """Phase regularized across the left saturated region: analytic on
    C \\ [-2, inf), equal to phi_tilde(-z) there, real negative on (-inf, -2)."""
    bits = bits_of(prec)
    z = to_mpc(z, bits)
    require_off_cut(z, -2, _INF, "phi_hat")
    return phi_tilde(mp.make_mpc(mpc_neg(z._mpc_)), bits)


# ----------------------------------------------------------------------
# Turning-point map
# ----------------------------------------------------------------------

F_TILDE_RADIUS = 0.5


def _h_width(z, prec) -> int:
    """``h_factor(z, prec)``'s width for phi_tilde's closed form at the raw
    z: ceil(1.5 max(0, -mag t)) bits over ``prec``, t = z - 2 (:func:`h_factor`)."""
    t = mpc_sub_mpf(z, _TWO, prec, _RND)
    extra = (3 * max(0, -_mag(t)) + 1) // 2 if t != mpc_zero else 0
    return prec + extra + GUARD + 8


def h_factor(z, prec, _geo=None):
    """h(z) = -(3/2) phi_tilde(z) (z-2)^(-3/2), with h(2) = 1: the analytic
    cofactor in the factorization of the turning-point map, on |z-2| < 0.5.

    The closed form, evaluated at the upper-half-plane image of z (the branch
    jumps of phi_tilde and of (z-2)^(3/2) cancel across the band, so this is
    the analytic continuation) and conjugated back; real on the real axis.
    phi_tilde = O(|t|^(3/2)), t = z - 2, is formed from O(|t|^(1/2)) terms,
    and u = Log((z + w)/2) is the log of 1 + O(|t|^(1/2)): together they
    lose up to 1.5 log2(1/|t|) bits, which the working width adds back.
    The form reads the record (:class:`_Geometry`) of the upper image at
    that width: ``_geo``, a record of z, if given and Im z >= 0.
    """
    bits = bits_of(prec)
    z = to_mpc(z, bits)
    require_finite(z, "h_factor")
    z = z._mpc_
    lower = mpf_lt(z[1], fzero)
    zu = mpc_conjugate(z, bits, _RND) if lower else z
    t = mpc_sub_mpf(zu, _TWO, bits, _RND)  # exact once Re z lies in (1.5, 2.5)
    if mpf_ge(mpc_abs(t, bits, _RND), from_float(F_TILDE_RADIUS)):
        raise DomainError(f"h_factor: |z-2| must be < {F_TILDE_RADIUS}")
    if t == mpc_zero:
        return mpmath.mpc(1)
    width = _h_width(zu, bits)
    g = _geo if _geo and not lower else _geometry(None, None, zu, width, turning=True)
    v = mpc_div(mpc_mul_mpf(_phi_tilde_form(g, width), from_float(-1.5), width, _RND),
                mpc_mul(t, mpc_sqrt(t, width, _RND), width, _RND), width, _RND)
    re, im = mpc_pos(v, bits, _RND)  # conjugation negates the rounded imaginary part
    return mp.make_mpc((re, fzero if z[1] == fzero else mpf_neg(im) if lower else im))


def f_tilde_n(n: int, z, prec):
    """The conformal map feeding the Airy functions: n^(2/3) (z-2) h(z)^(2/3).

    Analytic on |z-2| < 0.5, vanishing linearly at 2, positive on (2, 2.5).
    """
    bits = bits_of(prec)
    if n < 1:
        raise ConfigError("f_tilde_n requires n >= 1")
    z = to_mpc(z, bits)
    log_h = mpc_log(h_factor(z, bits + GUARD)._mpc_, bits + GUARD, _RND)
    return mp.make_mpc(_f_tilde_from_log_h(n, z._mpc_, log_h, bits))


def _f_tilde_from_log_h(n: int, z, log_h, bits: int):
    """n^(2/3) (z-2) h^(2/3) from the raw log h, h = h_factor(z), taken at
    ``bits + GUARD``; raw, rounded to ``bits``."""
    wp = bits + GUARD
    two_3 = mpf_div(_TWO, from_int(3), wp, _RND)
    v = mpc_mul_mpf(mpc_sub_mpf(z, _TWO, wp, _RND), mpf_pow(from_int(n, wp, _RND), two_3, wp, _RND), wp, _RND)
    v = mpc_mul(v, mpc_exp(mpc_mul_mpf(log_h, two_3, wp, _RND), wp, _RND), wp, _RND)
    return mpc_pos(v, bits, _RND)


# ----------------------------------------------------------------------
# D-functions (Gamma-ratio jump absorbers)
# ----------------------------------------------------------------------

@lru_cache(maxsize=8)
def _half_log_twopi(wp):
    """(log 2 pi)/2 at width ``wp``, formed as the context forms it there:
    pi doubled, its log, halved."""
    return mp.make_mpf(mpf_shift(mpf_log(mpf_shift(mpf_pi(wp, _RND), 1), wp, _RND), -1))


def _d_width(n: int, z, bits: int) -> int:
    """Working width of the D-functions: ``bits``, widened at tiny z.  Their
    exponents' terms grow like |s log s| <= 2**(mag s + 10), s = n/z^2,
    while the exponent stays O(1); past 2**GUARD the terms would cost the
    exponent its absolute accuracy, and s the fraction that sets the Gamma
    factor's phase, so the width grows by the excess."""
    return bits + max(0, n.bit_length() + 10 - 2 * _mag(z._mpc_) - GUARD) if z else bits


def _d_log(w, wb, bits) -> LogComplex:
    """exp(w) for a raw D-function exponent w computed at width ``wb``;
    when widened, its phase, of size |s|, is first reduced mod 2 pi at that
    width (wb + GUARD + 8), as no rounding to ``bits`` would keep it."""
    if wb > bits:
        wp = wb + GUARD + 8
        twopi = mpf_shift(mpf_pi(wp, _RND), 1)
        k = mpf_nint(mpf_div(w[1], twopi, wp, _RND), wp, _RND)
        w = mpc_sub(w, mpc_mul_mpf((fzero, twopi), k, wp, _RND), wp, _RND)
    return LogComplex.from_exponent(mp.make_mpc(w), bits)


def d_func(n: int, alpha, z, prec, _geo=None) -> LogComplex:
    """D(z): Gamma(alpha - n/z^2) e^(-n/z^2) (-n/z^2)^(n/z^2-alpha+1/2) / sqrt(2 pi),
    with -1/z^2 read as e^(+-i pi)/z^2 on the upper/lower half-plane; a real
    z takes the upper reading, its limit from above.  The phase is defined
    mod 2 pi: it steps by 2 pi k onto the negative axis, where alpha - n/z^2
    meets log Gamma's cut from below, while the value is continuous.
    s = n/z^2 and log n come from the record of (n, alpha, z)
    (:class:`_Geometry`): ``_geo`` if given, else one at the working width."""
    bits = bits_of(prec)
    z, a = to_mpc(z, bits), to_mpf(alpha, bits)
    require_finite(z, "d_func")
    if z == 0:
        raise DomainError("d_func: z = 0 excluded")
    wb = _d_width(n, z, bits)
    wp = wb + GUARD + 8
    g = _geo or _geometry(n, a._mpf_, z._mpc_, wp)
    s, ar = g.s, a._mpf_
    pi = mpf_pi(wp, _RND)
    ipi = (fzero, mpf_neg(pi) if z.imag < 0 else pi)
    two_log_z = mpc_mul_int(mpc_log(z._mpc_, wp, _RND), 2, wp, _RND)
    log_m = mpc_sub(mpc_add_mpf(ipi, g.logn, wp, _RND), two_log_z, wp, _RND)
    lg = log_gamma_complex(mp.make_mpc(mpc_sub((ar, fzero), s, wp, _RND)), wb + GUARD)._mpc_
    w = mpc_sub_mpf(mpc_sub(lg, s, wp, _RND), _half_log_twopi(wp)._mpf_, wp, _RND)
    w = mpc_add(w, mpc_mul(mpc_add_mpf(mpc_sub_mpf(s, ar, wp, _RND), fhalf, wp, _RND), log_m, wp, _RND), wp, _RND)
    return _d_log(w, wb, bits)


def d_tilde_func(n: int, alpha, z, prec) -> LogComplex:
    """D-tilde(z): analytic and nonzero on C \\ (-inf, 0]; -> 1 for large n."""
    bits = bits_of(prec)
    z = to_mpc(z, bits)
    require_off_cut(z, -_INF, 0, "d_tilde_func")
    return _d_reflected(n, alpha, z, 1, bits)


def d_hat_func(n: int, alpha, z, prec) -> LogComplex:
    """D-hat(z): analytic on C \\ [0, inf); branch via arg(-z) in (-pi, pi)."""
    bits = bits_of(prec)
    z = to_mpc(z, bits)
    require_off_cut(z, 0, _INF, "d_hat_func")
    return _d_reflected(n, alpha, z, -1, bits)


def _d_reflected(n: int, alpha, z, sign: int, bits: int) -> LogComplex:
    """D-tilde (sign 1) or D-hat (sign -1): the power (n/z^2)^(s-alpha+1/2),
    s = n/z^2, takes its log as log n - 2 Log(sign z); callers check the cut."""
    a = to_mpf(alpha, bits)
    wb = _d_width(n, z, bits)
    with working(wb, GUARD + 8):
        s = n / (z * z)
        log_p = mpmath.log(mpmath.mpf(n)) - 2 * mpmath.log(sign * z)
        w = _half_log_twopi(wb + GUARD + 8) - log_gamma_complex(1 + s - a, wb + GUARD) - s \
            + (s - a + mpmath.mpf(1) / 2) * log_p
    return _d_log(w._mpc_, wb, bits)


class DTriple(NamedTuple):
    """D, D-tilde, D-hat at a common (n, alpha, z), all as LogComplex."""

    d: LogComplex
    d_tilde: LogComplex
    d_hat: LogComplex


def d_triple(n: int, alpha, z, prec) -> DTriple:
    """All three D-functions; requires z off the real axis so every member
    is defined.  They satisfy
        D-tilde = D (1 - e^(-+ 2 i theta)),  D-hat = D (1 - e^(+- 2 i theta))
    on the upper/lower half-plane."""
    bits = bits_of(prec)
    z = to_mpc(z, bits)
    require_off_cut(z, -_INF, _INF, "d_triple")
    return DTriple(
        d_func(n, alpha, z, bits),
        d_tilde_func(n, alpha, z, bits),
        d_hat_func(n, alpha, z, bits),
    )


# ----------------------------------------------------------------------
# E-functions (algebraic prefactors)
# ----------------------------------------------------------------------

def _e_log(what, cuts, factors, alpha, z, prec) -> LogComplex:
    """sqrt(2 pi)/Gamma(alpha) f1^(1/2-alpha) f2^(1/2-alpha) as LogComplex,
    principal powers of f1, f2 = ``factors(z)``; z must lie off each cut
    in ``cuts`` unless alpha = 1/2, where both powers are 1 and are not
    formed (0 log 0 at +-2).  1/2 - alpha is formed in the working
    context, so that the bits do not depend on the ambient precision."""
    bits = bits_of(prec)
    z = to_mpc(z, bits)
    a = to_mpf(alpha, bits)
    require_finite(z, what)
    with working(bits, GUARD):
        w = _half_log_twopi(bits + GUARD) - log_gamma_real(a, bits + GUARD)
        if a != 0.5:
            for lo, hi in cuts:
                require_off_cut(z, lo, hi, what)
            f1, f2 = factors(z)
            w += (mpmath.mpf(1) / 2 - a) * (mpmath.log(f1) + mpmath.log(f2))
    return LogComplex.from_exponent(w, bits)


def e_func(alpha, z, prec) -> LogComplex:
    """E = sqrt(2 pi)/Gamma(alpha) (2-z)^(1/2-alpha) (z+2)^(1/2-alpha),
    principal factors; analytic off (-inf, -2) u (2, inf)."""
    return _e_log("e_func", ((-_INF, -2), (2, _INF)), lambda z: (2 - z, z + 2), alpha, z, prec)


def e_tilde_func(alpha, z, prec) -> LogComplex:
    """E-tilde = sqrt(2 pi)/Gamma(alpha) (z^2-4)^(1/2-alpha), cut (-inf, 2)."""
    return _e_log("e_tilde_func", ((-_INF, 2),), lambda z: (z - 2, z + 2), alpha, z, prec)


def e_hat_func(alpha, z, prec) -> LogComplex:
    """E-hat = sqrt(2 pi)/Gamma(alpha) (-z-2)^(1/2-alpha) (2-z)^(1/2-alpha),
    cut (-2, inf)."""
    return _e_log("e_hat_func", ((-2, _INF),), lambda z: (-z - 2, 2 - z), alpha, z, prec)


# ----------------------------------------------------------------------
# theta / gamma / Pi
# ----------------------------------------------------------------------

def theta_gamma_pi(n: int, alpha, z, prec):
    """theta = n pi / z^2 - pi alpha, gamma = -2 n pi / z^3, Pi = sin(theta)/gamma.

    Pi vanishes at every rescaled node sqrt(n)(k+alpha)^(-1/2), where the
    normalized slope [sin theta]'/gamma equals (-1)^k.  At tiny z, theta
    is formed at the D-functions' width (``_d_width``) and, as in
    ``_d_log``, reduced mod 2 pi there before its sine is taken.
    """
    bits = bits_of(prec)
    z = to_mpc(z, bits)
    if z == 0:
        raise DomainError("theta_gamma_pi: pole at z = 0")
    a = to_mpf(alpha, bits)
    wb = _d_width(n, z, bits)
    with working(wb, GUARD):
        th = n * mpmath.pi / (z * z) - mpmath.pi * a
        gz = -2 * n * mpmath.pi / (z * z * z)
        t = th - 2 * mpmath.pi * mpmath.nint(th.real / (2 * mpmath.pi)) if wb > bits else th
        pi_z = mpmath.sin(t) / gz
    return round_to(bits, th), round_to(bits, gz), round_to(bits, pi_z)
