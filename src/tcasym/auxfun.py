"""Auxiliary functions feeding the region-wise asymptotic formulas.

Contents: the limiting zero density psi (band |x| <= 2, saturated
2/|x|^3 outside), the explicit derivative of the logarithmic potential,
the regularized phase functions phi-tilde / phi / phi-hat, the conformal
turning-point map (its cofactor h is the closed form in phi-tilde, at a
width widened by the bits that form cancels near 2, with no cache), the
Gamma-ratio D-functions with their algebraic E prefactors, and the
node-counting trio (theta, gamma, Pi).  The phases read
u = Log((z + sqrt(z^2-4))/2), the log of the inverse Joukowski map at
z/2, from the helper ``_u_of``.  u, w = sqrt(z^2-4), z^2, n/z^2 and
log n come only from a ``_Geometry`` record: a region evaluator passes
its point's record to ``phi``, ``phi_tilde``, ``h_factor`` and ``d_func``
as their private ``_geo``, and without it each builds the same record at
the width it evaluates at, then runs the same body.

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
from mpmath.libmp import (fhalf, fzero, mpc_add, mpc_add_mpf, mpc_log, mpc_mul, mpc_mul_int, mpc_sub, mpc_sub_mpf,
                          mpf_log, mpf_neg, mpf_pi, mpf_shift)
from mpmath.libmp import round_nearest as _RND

from .mpnum import (
    GUARD,
    ConfigError,
    DomainError,
    LogComplex,
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

def _u_of(z):
    """(u, w): w = sqrt(z-2) sqrt(z+2) and u = Log((z + w)/2), so that
    cosh u = z/2 and sinh u = w/2, at the caller's working precision.  On
    the closed first quadrant the log's argument never meets (-inf, 0], and
    a band z gets the upper limit."""
    w = _w_root(z)
    return mpmath.log((z + w) / 2), w


def _band_u_w(x):
    """(u, w) at a band point 0 < x <= 2 as their upper limits
    i acos(x/2) and i sqrt(4 - x^2), at the caller's working precision."""
    return (mpmath.mpc(0, mpmath.acos(x / 2)),
            mpmath.mpc(0, mpmath.sqrt((2 - x) * (2 + x))))


class _Geometry(NamedTuple):
    """The quantities of one point that the formulas read.  ``z`` and
    ``a`` (alpha) are rounded to the evaluation width; the rest are taken
    once, at the widest width at which a reader takes them (``asym._point``):

    zz = z^2, s = n/z^2, logn = log n, (u, w) as in :func:`_u_of` (on the
    band 0 < x <= 2, their upper limits :func:`_band_u_w`), and lw =
    log(z-2) + log(z+2) = 2 Log w (on the closed upper half-plane the
    arguments of the two square roots add up to an angle in [0, pi]),
    None on the turning-point disk, whose formula does not read it, and in
    a record of z alone (no n, a, s or logn either).
    """

    z: mpmath.mpc
    a: mpmath.mpf
    zz: mpmath.mpc
    s: mpmath.mpc
    logn: mpmath.mpf
    u: mpmath.mpc
    w: mpmath.mpc
    lw: mpmath.mpc | None


def _geometry(n, a, z, width: int, s_width: int = 0, turning: bool = False) -> _Geometry:
    """The record of z and alpha ``a`` for degree n (of z alone if n is
    None): u, w, zz and lw rounded once at ``width``, s and logn at
    ``s_width`` (default ``width``).  ``turning`` marks the turning-point
    disk: there h needs the off-cut u and w even on the axis, and no lw."""
    with mp.workprec(width):
        if not turning and z.imag == 0 and 0 < z.real <= 2:
            u, w = _band_u_w(z.real)
        else:
            u, w = _u_of(z)
        zz = z * z
        lw = None if turning or n is None else 2 * mpmath.log(w)
    if n is None:
        return _Geometry(z, a, zz, None, None, u, w, None)
    s_width = s_width or width
    with mp.workprec(s_width):
        # from the rounded z^2 unless s needs more bits than it holds
        s = n / (zz if s_width == width else z * z)
        logn = mpmath.log(n)
    return _Geometry(z, a, zz, s, logn, u, w, lw)


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
        el, w = _u_of(z)  # the upper limit on (-2, 2) by the Arg convention
        sgn = -1 if z.imag < 0 else 1
        z3 = z * z * z
        v = 4 * el / z3 + w / (z * z) - sgn * 2 * mpmath.pi * 1j / z3
    return round_to(bits, v)


def phi_tilde(z, prec, _geo=None):
    """Regularized phase, analytic on C \\ (-inf, 2]; real negative on (2, inf).

    Closed form (2/z^2 - 1) log((z + sqrt(z^2-4))/2) + sqrt(z^2-4)/(2z),
    taken at every z with Im z != 0 however close to the cut.  A real
    z = x in (0, 2] takes its limit from above: the same form with u and
    w at their upper limits i acos(x/2) and i sqrt(4 - x^2), purely
    imaginary.  A real z <= 0 raises.  The form reads a record
    (:class:`_Geometry`) at the evaluation width: on the band its own
    record of x, elsewhere ``_geo`` if given, else its own record of z.
    """
    bits = bits_of(prec)
    z = to_mpc(z, bits)
    require_finite(z, "phi_tilde")
    if z.imag or z.real > 2:
        g = _geo or _geometry(None, None, z, bits + GUARD + 8)
    elif z.real > 0:
        # the record of x = Re z holds the band limits of u and w
        g = _geometry(None, None, z.real, bits + GUARD + 8)
    else:
        raise DomainError(f"phi_tilde: z={z} on the cut (-inf, 2]")
    with working(bits, GUARD + 8):
        v = _phi_tilde_form(g)
    return round_to(bits, v)


def _phi_tilde_form(g):
    """(2/z^2 - 1) u + w/(2z), the closed form of phi_tilde, from the
    record g of z at the caller's working precision (the record of a band
    point x, with the limits of u and w, gives the upper value on the cut)."""
    return (2 / g.zz - 1) * g.u + g.w / (2 * g.z)


def _phi_extra(z) -> int:
    """Bits by which ``phi`` widens phi_tilde: phi_tilde ~ i pi / z^2
    cancels to O(1) near the origin."""
    return max(0, 2 - 2 * mpmath.mag(z) - GUARD) if z else 0


def _phi_width(z, prec) -> int:
    """The width at which ``phi(z, prec)`` evaluates phi_tilde's closed form."""
    return prec + GUARD + _phi_extra(z) + GUARD + 8


def phi(z, prec, _geo=None):
    """phi = phi_tilde -+ i pi / z^2 on the upper/lower half-plane; a real z
    takes the upper form, its limit from above.

    Bounded near the origin (the i pi/z^2 singularities cancel); purely
    imaginary on the band (0, 2].  ``_geo``: an evaluator's record of z
    (:class:`_Geometry`), passed on to ``phi_tilde``.
    """
    bits = bits_of(prec)
    z = to_mpc(z, bits)
    # phi_tilde ~ i pi / z^2 cancels to O(1): widen both by the bits lost
    extra = _phi_extra(z)
    with working(bits, GUARD + 8 + extra):
        pt = phi_tilde(z, bits + GUARD + extra, _geo=_geo)
        sgn = -1 if z.imag < 0 else 1
        v = pt - sgn * mpmath.pi * 1j / (z * z)
    return to_mpc(v, bits)


def phi_hat(z, prec):
    """Phase regularized across the left saturated region: analytic on
    C \\ [-2, inf), equal to phi_tilde(-z) there, real negative on (-inf, -2)."""
    bits = bits_of(prec)
    z = to_mpc(z, bits)
    require_off_cut(z, -2, _INF, "phi_hat")
    with mp.workprec(bits):
        zn = -z
    return phi_tilde(zn, bits)


# ----------------------------------------------------------------------
# Turning-point map
# ----------------------------------------------------------------------

F_TILDE_RADIUS = 0.5


def _h_width(z, prec) -> int:
    """The width at which ``h_factor(z, prec)`` evaluates phi_tilde's closed
    form: ceil(1.5 max(0, -mag t)) bits over ``prec``, t = z - 2, see
    :func:`h_factor`."""
    with mp.workprec(prec):
        t = z - 2
    extra = (3 * max(0, -mpmath.mag(t)) + 1) // 2 if t else 0
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
    lower = z.imag < 0
    with mp.workprec(bits):
        zu = mpmath.conj(z) if lower else z
        t = zu - 2  # exact once Re z lies in (1.5, 2.5)
        outside = abs(t) >= F_TILDE_RADIUS
    if outside:
        raise DomainError(f"h_factor: |z-2| must be < {F_TILDE_RADIUS}")
    if t == 0:
        return mpmath.mpc(1)
    width = _h_width(zu, bits)
    g = _geo if _geo and not lower else _geometry(None, None, zu, width, turning=True)
    with mp.workprec(width):
        v = mpmath.mpf(-1.5) * _phi_tilde_form(g) / (t * mpmath.sqrt(t))
    with mp.workprec(bits):
        v = +v  # conj rounds only the imaginary part
        if z.imag == 0:
            return mpmath.mpc(v.real)
        return mpmath.conj(v) if lower else v


def f_tilde_n(n: int, z, prec):
    """The conformal map feeding the Airy functions: n^(2/3) (z-2) h(z)^(2/3).

    Analytic on |z-2| < 0.5, vanishing linearly at 2, positive on (2, 2.5).
    """
    bits = bits_of(prec)
    if n < 1:
        raise ConfigError("f_tilde_n requires n >= 1")
    z = to_mpc(z, bits)
    h = h_factor(z, bits + GUARD)
    with working(bits, GUARD):
        log_h = mpmath.log(h)
    return _f_tilde_from_log_h(n, z, log_h, bits)


def _f_tilde_from_log_h(n: int, z, log_h, bits: int):
    """n^(2/3) (z-2) h^(2/3) from log h, h = h_factor(z), taken at
    ``bits + GUARD``; rounded to ``bits``."""
    with working(bits, GUARD):
        v = mpmath.mpf(n) ** (mpmath.mpf(2) / 3) * (z - 2) * mpmath.exp(mpmath.mpf(2) / 3 * log_h)
    return to_mpc(v, bits)


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
    return bits + max(0, n.bit_length() + 10 - 2 * mpmath.mag(z) - GUARD) if z else bits


def _d_log(w, wb, bits) -> LogComplex:
    """exp(w) for a D-function exponent w computed at width ``wb``; when
    widened, its phase, of size |s|, is first reduced mod 2 pi at that
    width, as no rounding to ``bits`` would keep it."""
    if wb > bits:
        with working(wb, GUARD + 8):
            w -= 2j * mpmath.pi * mpmath.nint(w.imag / (2 * mpmath.pi))
    return LogComplex.from_exponent(w, bits)


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
    g = _geo or _geometry(n, a, z, wb + GUARD + 8)
    s, ar = g.s._mpc_, a._mpf_
    # raw libmp calls at wp, the ones the context's operators would make
    wp = wb + GUARD + 8
    pi = mpf_pi(wp, _RND)
    ipi = (fzero, mpf_neg(pi) if z.imag < 0 else pi)
    two_log_z = mpc_mul_int(mpc_log(z._mpc_, wp, _RND), 2, wp, _RND)
    log_m = mpc_sub(mpc_add_mpf(ipi, g.logn._mpf_, wp, _RND), two_log_z, wp, _RND)
    lg = log_gamma_complex(mp.make_mpc(mpc_sub((ar, fzero), s, wp, _RND)), wb + GUARD)._mpc_
    w = mpc_sub_mpf(mpc_sub(lg, s, wp, _RND), _half_log_twopi(wp)._mpf_, wp, _RND)
    w = mpc_add(w, mpc_mul(mpc_add_mpf(mpc_sub_mpf(s, ar, wp, _RND), fhalf, wp, _RND), log_m, wp, _RND), wp, _RND)
    return _d_log(mp.make_mpc(w), wb, bits)


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
    return _d_log(w, wb, bits)


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
