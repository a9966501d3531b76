"""Complex Airy quartet and complex log-gamma at configurable precision.

Both functions are implemented from first principles on top of mpnum's
arithmetic and validated in the test suite against independent oracles
(re-summed Maclaurin series at elevated precision, reflection/recurrence
identities, and a third-party library at spot points).

Airy: Maclaurin series inside a precision-dependent crossover radius;
outside, the standard large-argument expansions in zeta = (2/3) z^{3/2}
with sector-correct connection formulas.  Sector membership is decided by
Arg z in (-pi, pi] alone, so behavior on the Stokes rays arg z = +-2pi/3
is deterministic (no averaging).

log-gamma: one kernel, run on an mpf for real x > 0 and on an mpc
otherwise, at bits + 24 guard bits (plus the bit length of |Re z| for
complex z).  It shifts z by s to Re z >= 10 + p/8 (p the working width),
sums the Stirling series there with B_2j/(2j(2j-1)) taken from a table
rounded once per width (an ``lru_cache`` of 8 widths), stopping at the
first term below 2^-(p+4) (|partial sum| + 1) (the optimal truncation
error ~exp(-2 pi Re z) is far smaller), and subtracts one logarithm of
the product z (z+1) ... (z+s-1), multiplied out at p + s.bit_length() +
2 bits so that it is within 2^-(p+1) relative of the exact product; for
complex z the winding of that product is restored from a float sum of
the arguments of the factors.  Re z < 1/2 (z not real) goes through
the reflection formula, with the log-sin branch unwound so the result
is the branch of log Gamma continuous on C \\ (-inf, 0].  Every step
rounds once to nearest at p bits, so the working value is within about
(J + 4) 2^-p (|log Gamma(z+s)| + 1) of log Gamma(z), J <= p/5 the number
of Stirling terms taken.  The guard bits keep that below one unit in the
last place of the rounded result, except near the zeros z = 1, 2 of log
Gamma, where only this absolute bound holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp
from mpmath.libmp import from_rational

from .mpnum import (
    GUARD,
    DomainError,
    PoleError,
    bits_of,
    round_to,
    round_to_mpc,
    to_mpc,
)

_LN2 = math.log(2.0)


# ----------------------------------------------------------------------
# Bernoulli numbers (exact rationals, cached)
# ----------------------------------------------------------------------

_bernoulli_cache = [Fraction(1), Fraction(-1, 2)]


def bernoulli_fraction(m: int) -> Fraction:
    """B_m as an exact Fraction (B_1 = -1/2 convention)."""
    while len(_bernoulli_cache) <= m:
        k = len(_bernoulli_cache)
        if k % 2 == 1:
            _bernoulli_cache.append(Fraction(0))
            continue
        # sum_{j=0}^{k} C(k+1, j) B_j = 0
        acc = Fraction(0)
        for j in range(k):
            acc += math.comb(k + 1, j) * _bernoulli_cache[j]
        _bernoulli_cache.append(-acc / (k + 1))
    return _bernoulli_cache[m]


# ----------------------------------------------------------------------
# log-gamma
# ----------------------------------------------------------------------

def _stirling_threshold(bits: int) -> int:
    # Shift until Re z >= 10 + bits/8: keeps the optimal Stirling truncation
    # error ~exp(-2*pi*Re z) far below the target precision.
    return 10 + bits // 8


@lru_cache(maxsize=8)
def _stirling_table(prec: int):
    """log(2 pi)/2 and c_j = B_2j / (2j (2j-1)), j = 1, 2, ..., each
    rounded once to ``prec`` bits.

    The table runs to the first j with |c_j| t^(1-2j) < 2^-(prec+5), t the
    shift threshold at ``prec``: since |z| >= Re z >= t, the Stirling sum
    meets its stopping rule at or before that term.
    """
    lt = math.log2(_stirling_threshold(prec))
    coeffs = []
    j = 1
    while True:
        b = bernoulli_fraction(2 * j)
        c = b / ((2 * j) * (2 * j - 1))
        coeffs.append(mpmath.mpf(from_rational(c.numerator, c.denominator, prec, "n")))
        if math.log2(abs(c.numerator)) - math.log2(c.denominator) - (2 * j - 1) * lt < -(prec + 5):
            break
        j += 1
    with mp.workprec(prec):
        half_log_2pi = mpmath.log(2 * mpmath.pi) / 2
    return half_log_2pi, tuple(coeffs)


def _stirling_loggamma(z):
    """Stirling series at the current mp precision for an mpf or mpc z
    with Re z >= the shift threshold; terms are added until one falls
    below 2^-(prec+4) times |partial sum| + 1."""
    half_log_2pi, coeffs = _stirling_table(mp.prec)
    out = (z - mpmath.mpf(1) / 2) * mpmath.log(z) - z + half_log_2pi
    tol = mpmath.ldexp(abs(out) + 1, -(mp.prec + 4))
    inv = 1 / z
    inv_sq = inv * inv
    prev = mpmath.inf
    for c in coeffs:
        term = c * inv
        mag = abs(term)
        if mag < tol:
            out += term
            return out
        if mag > prev:
            # Series started diverging before reaching target accuracy;
            # the shift threshold is set so this cannot happen.
            break
        out += term
        prev = mag
        inv *= inv_sq
    raise ArithmeticError("Stirling series did not converge; argument shifted insufficiently")


def _loggamma_shifted(z):
    """log Gamma for an mpf z > 0 or an mpc z with Re z >= 1/2, at the
    caller's working precision p: Stirling at z + s, with s the shift to
    Re z >= 10 + p/8, minus log P for P = z (z+1) ... (z+s-1).

    P is multiplied out at p' = p + L + 2 bits, L = s.bit_length(): the
    s - 1 sums z + j and s - 1 products each round every component once
    to nearest, a relative error of at most 2^-p' each, so P is within
    2s 2^-p' < 2^-(p+1) relative of the exact product.  log P, rounded
    once to p bits, thus differs from sum_j log(z+j) (mod 2 pi i) by at
    most 2^-(p+1) plus that rounding.  For an mpc the principal Im log P
    is moved onto the sum of the arguments by 2 pi k, k rounded from the
    float sum of atan2(Im z, Re z + j); each of those lies in
    (-pi/2, pi/2) because Re(z+j) >= 1/2, so the sum is off by far less
    than the pi that would change k.
    """
    prec = mp.prec
    shift = int(max(0, math.ceil(_stirling_threshold(prec) - z.real)))
    w = _stirling_loggamma(z + shift)
    if shift == 0:
        return w
    with mp.workprec(prec + shift.bit_length() + 2):
        p = +z
        for j in range(1, shift):
            p *= z + j
    log_p = mpmath.log(p)
    if isinstance(z, mpmath.mpc):
        y, x = float(z.imag), float(z.real)
        args = math.fsum(math.atan2(y, x + j) for j in range(shift))
        k = round((args - float(log_p.imag)) / (2 * math.pi))
        if k:
            log_p += mpmath.mpc(0, 2 * k * mpmath.pi)
    return w - log_p


def _log_sin_pi(z):
    """Branch of log sin(pi z) that keeps log Gamma continuous off
    (-inf, 0], at the caller's working precision.

    For Im z >= 0: factor sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 pi i z});
    mirrored for Im z < 0.  Real z uses the upper-half limit.  The factor
    1 - e^{2 pi i z} only sees z minus its nearest integer k (an exact
    subtraction) and comes from expm1, so it keeps its relative accuracy
    as z approaches the pole at k.
    """
    ipi = mpmath.mpc(0, mpmath.pi)
    w = z - mpmath.nint(z.real)
    if z.imag >= 0:
        return -mpmath.log(2) + ipi / 2 - ipi * z + mpmath.log(-mpmath.expm1(2 * ipi * w))
    return -mpmath.log(2) - ipi / 2 + ipi * z + mpmath.log(-mpmath.expm1(-2 * ipi * w))


def log_gamma_complex(z, prec):
    """The branch of log Gamma continuous on C \\ (-inf, 0].

    Real z on the cut evaluates to the limit from the upper half-plane;
    real z > 0 runs the real kernel of :func:`log_gamma_real`, so the
    value is exactly real.  Raises :class:`PoleError` at non-positive
    integers.
    """
    bits = bits_of(prec)
    z = to_mpc(z, prec)
    if not mpmath.isfinite(z):
        raise DomainError(f"log_gamma_complex: argument must be finite, got z={z}")
    if z.imag == 0 and z.real > 0:
        return round_to_mpc(bits, _log_gamma_positive(z.real, bits))
    if z.imag == 0 and z.real == mpmath.floor(z.real):
        raise PoleError(f"log_gamma_complex: pole at z={z}")
    guard = GUARD + 8 + max(0, int(abs(z.real)).bit_length())
    with mp.workprec(bits + guard):
        if z.real >= mpmath.mpf(1) / 2:
            w = _loggamma_shifted(z)
        else:
            w = mpmath.log(mpmath.pi) - _log_sin_pi(z) - _loggamma_shifted(1 - z)
    return round_to(prec, w)


def _log_gamma_positive(x, bits):
    """log Gamma of an mpf x > 0 in real arithmetic, rounded to ``bits``."""
    with mp.workprec(bits + GUARD + 8):
        w = _loggamma_shifted(x)
    return round_to(bits, w)


def log_gamma_real(x, prec):
    """log Gamma for real x > 0 (mpf result)."""
    bits = bits_of(prec)
    with mp.workprec(bits + GUARD + 8):
        x = mpmath.mpf(x)
    if not mpmath.isfinite(x):
        raise DomainError(f"log_gamma_real: argument must be finite, got x={x}")
    if x <= 0:
        raise PoleError("log_gamma_real requires x > 0")
    return _log_gamma_positive(x, bits)


# ----------------------------------------------------------------------
# Airy functions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AiryQuartet:
    """Ai, Bi and their derivatives at a common argument."""

    ai: mpmath.mpc
    bi: mpmath.mpc
    ai_d: mpmath.mpc
    bi_d: mpmath.mpc


def crossover_radius(prec) -> float:
    """Series/asymptotics dispatch radius.

    The nominal radius 9*(bits/128)^(2/3) balances series length against
    asymptotic truncation, but the asymptotic series has an optimal-
    truncation floor ~exp(-2|zeta|), so the radius is raised where needed
    to keep at least bits/2 + 16 correct bits on the asymptotic side.
    """
    bits = bits_of(prec)
    nominal = 9.0 * (bits / 128.0) ** (2.0 / 3.0)
    zeta_min = (bits / 2 + 16) * _LN2 / 2.0
    floor = (1.5 * zeta_min) ** (2.0 / 3.0)
    return max(nominal, floor)


def _airy_series(z, bits):
    """Maclaurin evaluation of the quartet; valid for any z, used inside
    the crossover radius.  Works at elevated precision to absorb the
    exp(4/3 |z|^{3/2}) cancellation in the growing direction."""
    r = abs(z)
    guard = GUARD + 24 + int(1.93 * float(r) ** 1.5)
    with mp.workprec(bits + guard):
        z = +z
        third = mpmath.mpf(1) / 3
        g13 = mpmath.exp(_loggamma_shifted(third))
        g23 = mpmath.exp(_loggamma_shifted(2 * third))
        c1 = mpmath.mpf(3) ** (-mpmath.mpf(2) / 3) / g23     # Ai(0)
        c2 = -(mpmath.mpf(3) ** (-third)) / g13              # Ai'(0)
        sq3 = mpmath.sqrt(mpmath.mpf(3))

        z3 = z ** 3
        eps = mpmath.ldexp(mpmath.mpf(1), -(mp.prec + 4))

        # f, g and their termwise derivatives share the cube-power ladder:
        #   f  terms  a_k   = a_{k-1} z^3 / ((3k-1)(3k))
        #   g  terms  b_k   = b_{k-1} z^3 / ((3k)(3k+1))
        #   f' terms  a'_k  = a'_{k-1} z^3 / ((3k-3)(3k-1)),  a'_1 = z^2/2
        #   g' terms  b'_k  = b'_{k-1} z^3 / ((3k-2)(3k))
        af = mpmath.mpc(1)
        bg = mpmath.mpc(z)
        afd = z * z / 2
        bgd = mpmath.mpc(1)
        f, g, fd, gd = af, bg, afd, bgd
        k = 1
        maxmag = mpmath.mpf(1) + abs(z)
        while True:
            af = af * z3 / ((3 * k - 1) * (3 * k))
            bg = bg * z3 / ((3 * k) * (3 * k + 1))
            bgd = bgd * z3 / ((3 * k - 2) * (3 * k))
            if k >= 2:
                afd = afd * z3 / ((3 * k - 3) * (3 * k - 1))
                fd += afd
            f += af
            g += bg
            gd += bgd
            t = max(abs(af), abs(bg), abs(bgd), abs(afd))
            m = max(abs(f), abs(g), abs(fd), abs(gd), maxmag)
            if t < eps * m:
                break
            k += 1
            if k > 100000:
                raise ArithmeticError("airy series failed to converge")
        ai = c1 * f + c2 * g
        aid = c1 * fd + c2 * gd
        bi = sq3 * (c1 * f - c2 * g)
        bid = sq3 * (c1 * fd - c2 * gd)
    return ai, bi, aid, bid


_TWO_THIRDS_PI = 2.0943951023931953  # float gate only; exact compare uses mpf


def _airy_asym_principal(z):
    """Large-|z| expansion of (Ai, Ai') at current precision.

    Only called with |Arg z| <= 2pi/3 (plus rounding slack), where the
    principal expansion is the numerically correct representation.
    """
    zeta = mpmath.mpf(2) / 3 * mpmath.exp(mpmath.mpf(3) / 2 * mpmath.log(z))
    eps = mpmath.ldexp(mpmath.mpf(1), -(mp.prec + 4))
    inv = 1 / zeta
    sp = mpmath.mpc(1)   # sum (-1)^k u_k zeta^-k
    sq = mpmath.mpc(1)   # sum (-1)^k v_k zeta^-k
    u = mpmath.mpf(1)
    pw = mpmath.mpc(1)
    k = 1
    prev = mpmath.inf
    while True:
        u = u * (6 * k - 5) * (6 * k - 1) / (72 * k)
        v = u * (6 * k + 1) / (1 - 6 * k)
        pw = pw * inv
        tp = u * pw
        tq = v * pw
        mag = abs(tp)
        if mag > prev:
            break  # optimal truncation reached; floor controlled by dispatch radius
        sign = -1 if k % 2 else 1
        sp += sign * tp
        sq += sign * tq
        if mag < eps:
            break
        prev = mag
        k += 1
    zq = mpmath.exp(mpmath.log(z) / 4)  # principal z^(1/4)
    pref = mpmath.exp(-zeta) / (2 * mpmath.sqrt(mpmath.pi))
    ai = pref / zq * sp
    aid = -pref * zq * sq
    return ai, aid


def _airy_ai_any(z):
    """(Ai, Ai') for any z via the rotation identity outside |arg z| <= 2pi/3."""
    a = mpmath.atan2(z.imag, z.real)
    lim = 2 * mpmath.pi / 3
    if a <= lim and a >= -lim:
        return _airy_asym_principal(z)
    w = mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi / 3))     # omega
    wb = mpmath.conj(w)
    u_val = z * wb
    v_val = z * w
    ai_u, aid_u = _airy_asym_principal(u_val)
    ai_v, aid_v = _airy_asym_principal(v_val)
    # Ai(z) = -conj(w) Ai(z conj(w)) - w Ai(z w); chain rule for Ai'.
    ai = -wb * ai_u - w * ai_v
    aid = -w * aid_u - wb * aid_v
    return ai, aid


def airy_quartet(z, prec) -> AiryQuartet:
    """Ai, Bi, Ai', Bi' at a complex point, >= prec/2 correct bits each."""
    bits = bits_of(prec)
    z = to_mpc(z, prec)
    with mp.workprec(bits):
        small = abs(z) <= crossover_radius(bits)
    if small:
        with mp.workprec(bits + GUARD):
            vals = _airy_series(z, bits)
            ai, bi, aid, bid = (+v for v in vals)
    else:
        with mp.workprec(bits + GUARD + 16):
            z = +z
            ai, aid = _airy_ai_any(z)
            w = mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi / 3))
            wb = mpmath.conj(w)
            e6 = mpmath.exp(mpmath.mpc(0, mpmath.pi / 6))
            e56 = mpmath.exp(mpmath.mpc(0, 5 * mpmath.pi / 6))
            ai_p, aid_p = _airy_ai_any(z * w)
            ai_m, aid_m = _airy_ai_any(z * wb)
            bi = e6 * ai_p + mpmath.conj(e6) * ai_m
            bid = e56 * aid_p + mpmath.conj(e56) * aid_m
    return AiryQuartet(
        round_to_mpc(prec, ai),
        round_to_mpc(prec, bi),
        round_to_mpc(prec, aid),
        round_to_mpc(prec, bid),
    )


def airy_series_reference(z, prec, extra_factor: int = 4):
    """Independent check value: the quartet re-summed at ``extra_factor`` times
    the working precision.  Used by tests as the series-side oracle."""
    bits = bits_of(prec)
    z = to_mpc(z, bits * extra_factor)
    with mp.workprec(bits * extra_factor):
        ai, bi, aid, bid = _airy_series(z, bits * extra_factor)
    return AiryQuartet(
        round_to_mpc(prec, ai),
        round_to_mpc(prec, bi),
        round_to_mpc(prec, aid),
        round_to_mpc(prec, bid),
    )
