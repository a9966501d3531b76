"""Complex Airy functions and complex log-gamma at configurable precision.

Both are validated in the test suite against independent oracles
(mpmath's own Airy functions and log-gamma at elevated precision,
reflection/recurrence/connection identities, the Wronskian).

Airy: one kernel for every argument.  Ai and Ai' at z, w z and conj(w) z
(w = e^(2 pi i/3)) and Bi, Bi' at z are fixed combinations of four
Maclaurin sums 0F1(;b; z^3/9), b in {2/3, 4/3, 1/3, 5/3}, with Ai(0) and
Ai'(0) (cached for each band of 64 widths).  The sums run at
bits + GUARD + 24 + ceil(1.93 |z|^1.5) bits, which absorbs their worst
cancellation exp(4/3 |z|^1.5), so every value is accurate to the full
requested precision at every argument; there is no dispatch radius and
no sector choice.

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


@lru_cache(maxsize=8)
def _airy_at_zero(prec: int):
    """Ai(0) = 3^(-2/3)/Gamma(2/3) and Ai'(0) = -3^(-1/3)/Gamma(1/3),
    each rounded once to ``prec`` bits."""
    with mp.workprec(prec + GUARD):
        third = mpmath.mpf(1) / 3
        ai0 = mpmath.cbrt(3) ** -2 / mpmath.gamma(2 * third)
        aid0 = -1 / (mpmath.cbrt(3) * mpmath.gamma(third))
    return round_to(prec, ai0), round_to(prec, aid0)


def _airy_parts(z, bits):
    """The four Maclaurin parts of Ai at z, as (width, a, b, a', b') with

        a  = Ai(0) 0F1(;2/3; z^3/9),         b  = Ai'(0) z 0F1(;4/3; z^3/9),
        a' = Ai(0) (z^2/2) 0F1(;5/3; z^3/9), b' = Ai'(0) 0F1(;1/3; z^3/9).

    Every cube root of unity w leaves z^3 unchanged, so the same four sums
    give Ai(w z) = a + w b and Ai'(w z) = w^2 a' + b', and Bi(z) =
    sqrt(3) (a - b), Bi'(z) = sqrt(3) (a' - b').  The parts are summed
    (mpmath's ``hyp0f1`` on its series, exact rational parameters) and
    returned at width = bits + GUARD + 24 + ceil(1.93 |z|^1.5): the terms
    reach exp(2/3 |z|^1.5) while Ai(w z) can be as small as
    exp(-2/3 |z|^1.5), a cancellation of (4/3)|z|^1.5 / log 2 bits, which
    the width absorbs, so each combination above keeps bits + GUARD + 24
    bits relative to its own size.
    """
    width = bits + GUARD + 24 + math.ceil(1.93 * float(abs(z)) ** 1.5)
    # one cache entry serves a band of 64 widths
    ai0, aid0 = _airy_at_zero(-(-width // 64) * 64)
    with mp.workprec(width):
        x = z ** 3 / 9
        a = ai0 * mpmath.hyp0f1((2, 3), x, force_series=True)
        b = aid0 * z * mpmath.hyp0f1((4, 3), x, force_series=True)
        ad = ai0 * z * z / 2 * mpmath.hyp0f1((5, 3), x, force_series=True)
        bd = aid0 * mpmath.hyp0f1((1, 3), x, force_series=True)
    return width, a, b, ad, bd


def airy_quartet(z, prec) -> AiryQuartet:
    """Ai, Bi, Ai', Bi' at a complex point to full ``prec``-bit accuracy:
    each is assembled from the parts of :func:`_airy_parts` with about
    GUARD + 24 bits to spare, then rounded once."""
    bits = bits_of(prec)
    z = to_mpc(z, prec)
    width, a, b, ad, bd = _airy_parts(z, bits)
    with mp.workprec(width):
        sq3 = mpmath.sqrt(3)
        vals = (a + b, sq3 * (a - b), ad + bd, sq3 * (ad - bd))
    return AiryQuartet(*(round_to_mpc(prec, v) for v in vals))


def airy_rotated(z, prec):
    """(Ai(w z), Ai'(w z), Ai(conj(w) z), Ai'(conj(w) z)) for w = e^(2 pi i/3),
    rounded to ``prec`` bits, from the four sums of :func:`_airy_parts` at z
    (no rotated argument is ever formed).  For real z the two pairs are
    exact complex conjugates."""
    bits = bits_of(prec)
    z = to_mpc(z, prec)
    width, a, b, ad, bd = _airy_parts(z, bits)
    with mp.workprec(width):
        w = mpmath.mpc(-0.5, mpmath.sqrt(3) / 2)
        wb = mpmath.conj(w)
        vals = (a + w * b, wb * ad + bd, a + wb * b, w * ad + bd)
    return tuple(round_to_mpc(prec, v) for v in vals)


def airy_series_reference(z, prec, extra_factor: int = 4):
    """Independent check value for the tests: the quartet from mpmath's
    ``airyai``/``airybi`` at ``extra_factor`` times the working precision."""
    bits = bits_of(prec)
    wp = bits * extra_factor
    z = to_mpc(z, wp)
    with mp.workprec(wp):
        vals = (mpmath.airyai(z), mpmath.airybi(z), mpmath.airyai(z, 1), mpmath.airybi(z, 1))
    return AiryQuartet(*(round_to_mpc(prec, v) for v in vals))
