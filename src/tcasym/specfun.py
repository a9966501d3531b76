"""Complex Airy functions and complex log-gamma at configurable precision.

Both are validated in the test suite against independent oracles
(mpmath's own Airy functions and log-gamma at elevated precision,
reflection/recurrence/connection identities, the Wronskian).

Airy: one kernel for every argument.  Ai and Ai' at z, w z and conj(w) z
(w = e^(2 pi i/3)) and Bi, Bi' at z are fixed combinations of four
Maclaurin sums 0F1(;b; z^3/9), b in {2/3, 4/3, 1/3, 5/3}, with Ai(0) and
Ai'(0) (from Gamma(1/3) by the AGM, cached for each band of 64
widths).  The four sums run together in one fixed-point loop on
Python ints, in the format of ``tcasym.mpnum``: rectangular splitting
over the shared powers of z^3/3, with the integer coefficients of each
block in a bounded cache, a term count fixed up front from |z| and the
width, and a stated error.  The width is
bits + GUARD + 24 + ceil(1.93 |z|^1.5) bits, which absorbs their worst
cancellation exp(4/3 |z|^1.5), so every value is accurate to the full
requested precision at every argument; there is no dispatch radius and
no sector choice.  The combinations are formed in the same fixed point
and each value is rounded once.

log-gamma: one fixed-point kernel on Python ints (``_loggamma_shifted``),
for real x > 0 (the pair with im = 0) and for complex z, at working
width p = bits + 24 (plus the bit length of |Re z| for complex z).  It
shifts to u = z + s in the Stirling zone, forms (u - 1/2) log u - u +
(log 2 pi)/2 with one raw logarithm, sums the series by Horner in 1/u^2
from a term count fixed up front (the coefficients sit as integers per
width in an ``lru_cache`` of 8 widths, with (log 2 pi)/2, 2 pi and
log pi), and subtracts one raw logarithm of the shift product, its
factors multiplied in pairs.  Re z < 1/2 (z not real > 0) runs the same
kernel on 1 - z and divides sin(pi z), from one raw ``mpc_sin_pi``, into
the shift product before its logarithm, so the reflection formula costs
no third logarithm and no mpmath context.  Imaginary parts are restored
from float sums to the branch continuous on C \\ (-inf, 0], the upper
limit on the cut.  The result is within (J + 4) 2^-p (|log Gamma(u)| +
|Im z| + 1) of log Gamma(z), J <= p/5 (the kernel's docstring has the
terms), which the guard bits keep below one unit in the last place of
the result rounded to bits, except near the zeros of log Gamma, where
only this absolute bound holds.

Real arguments (``log_gamma_real``, and ``log_gamma_complex`` at real
z > 0) pass through one memo, an ``lru_cache`` of 256 entries keyed on
the exact mpf and the width, holding the value already rounded to that
width: a hit returns the cold run's bits.  It serves the traffic at
fixed (n, alpha) over many z, where log Gamma(alpha) and
log Gamma(n + alpha) repeat on every point.  Complex arguments are not
memoised; alpha - n/z^2 changes with every point.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import NamedTuple

import mpmath
from mpmath import mp
from mpmath.libmp import (fhalf, fzero, mpc_div, mpc_log, mpc_sin_pi, mpf_log, mpf_lt, mpf_neg, mpf_pi, mpf_shift,
                          to_float)

from .mpnum import (
    GUARD,
    DomainError,
    PoleError,
    bits_of,
    fixed_bits,
    fixed_mpc,
    fixed_raw,
    raw_fixed,
    round_to,
    to_mpc,
    to_mpf,
)

# ----------------------------------------------------------------------
# Bernoulli numbers (exact rationals, cached)
# ----------------------------------------------------------------------

_bernoulli_cache = [Fraction(1), Fraction(-1, 2)]


def bernoulli_fraction(m: int) -> Fraction:
    """B_m as an exact Fraction (B_1 = -1/2 convention).

    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)) from the tangent numbers T_j
    (tan x = sum T_j x^(2j-1) / (2j-1)!), all of T_1..T_N from one integer
    recurrence in O(N^2) multiply-adds (Brent and Zimmermann, Modern
    Computer Arithmetic, Algorithm TangentNumbers).  Each fill at least
    doubles the cache, from scratch.
    """
    have = len(_bernoulli_cache) // 2 - 1  # B_2, B_4, ..., B_2have are cached
    if m > 2 * have + 1:
        N = max(m // 2, 2 * have + 1)
        t = [math.factorial(k) for k in range(N)]  # t[j] becomes T_(j+1)
        for k in range(1, N):
            for j in range(k, N):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        for j in range(have + 1, N + 1):
            q = 4 ** j
            _bernoulli_cache.extend((Fraction((-1) ** (j - 1) * 2 * j * t[j - 1], q * (q - 1)), Fraction(0)))
    return _bernoulli_cache[m]


# ----------------------------------------------------------------------
# log-gamma
# ----------------------------------------------------------------------

def _stirling_threshold(bits: int) -> int:
    # Shift until Re z >= 10 + bits/8: keeps the optimal Stirling truncation
    # error ~exp(-2*pi*Re z) far below the target precision.
    return 10 + bits // 8


LOGGAMMA_GUARD = 32  # fraction bits of the log-gamma state beyond the working width
LOG_GUARD = 8  # bits of the kernel's two logarithms beyond its state


@lru_cache(maxsize=8)
def _stirling_table(p: int):
    """The log-gamma kernel's constants at working width ``p``: (log 2 pi)/2,
    2 pi, log pi and the Stirling coefficients c_j = B_2j / (2j (2j-1)), j = 1, 2,
    ..., as integers scaled by 2**P, P = p + LOGGAMMA_GUARD (each within
    one unit), and the running maxima of the floats
    -(log2|c_j| + p + 5)/(2j-1), from which :func:`_term_count` picks the
    term count J.

    The table runs to the first j with log2|c_j| - (2j-1) log2 t < -(p+5),
    t the shift threshold at ``p``: since |z| >= Re z >= t, the term count
    the kernel picks never exceeds it.
    """
    P = p + LOGGAMMA_GUARD
    lt = math.log2(_stirling_threshold(p))
    coeffs, cuts = [], []
    j = 1
    while True:
        b = bernoulli_fraction(2 * j)
        den = b.denominator * (2 * j) * (2 * j - 1)
        coeffs.append((b.numerator << P) // den)
        log2c = math.log2(abs(b.numerator)) - math.log2(den)
        # term j meets the stopping rule at |z| iff log2|z| > cut
        cut = (log2c + p + 5) / (2 * j - 1)
        cuts.append(max(-cut, cuts[-1]) if cuts else -cut)
        if cut < lt:
            break
        j += 1
    wp = P + LOG_GUARD
    pi = mpf_pi(wp)
    half_log_2pi = raw_fixed(mpf_log(mpf_shift(pi, 1), wp), P - 1)
    return half_log_2pi, raw_fixed(pi, P + 1), raw_fixed(mpf_log(pi, wp), P), tuple(coeffs), tuple(cuts)


def _term_count(cuts, m):
    """The first j with log2|c_j| - (2j-1) log2 m < -(p+5), from the
    running maxima ``cuts`` of -(log2|c_j| + p + 5)/(2j-1) in the table
    at width p; m >= t, so the table length caps it only as a guard."""
    return min(bisect_right(cuts, -math.log2(m)) + 1, len(cuts))


def _horner(coeffs, WR, WI, P):
    """c_1 + w (c_2 + w (... + w c_J)) for w = (WR + i WI) 2**-P, with
    ``coeffs`` = (c_J, ..., c_1) scaled by 2**P; each step's product is
    shifted down to 2**P (floor).  For real w the imaginary part stays 0
    and the loop skips it."""
    SR = SI = 0
    if WI:
        for c in coeffs:
            SR, SI = c + ((SR * WR - SI * WI) >> P), (SR * WI + SI * WR) >> P
    else:
        for c in coeffs:
            SR = c + ((SR * WR) >> P)
    return SR, SI


def _shift_product(ZR, ZI, s, P):
    """z (z+1) ... (z+s-1), s >= 1, as (re, im, e) scaled by 2**e.  The
    factors from z + 1 on are taken in pairs (z+j)(z+s-j) = A + j(s-j),
    A = z^2 + s z (floored once to 2**-P), j = 1, ..., (s-1)//2, after the
    middle factor z + s/2 when s is even, and multiplied out at P (floor);
    each factor and partial product has modulus >= 1 (Re z >= 1/2), so the
    product keeps within 2s units of 2**-P relative.  The last factor z is
    multiplied in exactly."""
    if s == 1:
        return ZR, ZI, P
    one = 1 << P
    AR = ((ZR * ZR - ZI * ZI) >> P) + s * ZR
    j0 = 1 + s % 2  # the first pair not taken up front
    if s % 2:
        QR, QI = AR + (s - 1) * one, ((ZR * ZI) >> (P - 1)) + s * ZI
    else:
        QR, QI = ZR + (s // 2) * one, ZI
    if ZI:
        AI = ((ZR * ZI) >> (P - 1)) + s * ZI
        for j in range(j0, (s + 1) // 2):
            FR = AR + j * (s - j) * one
            QR, QI = (QR * FR - QI * AI) >> P, (QR * AI + QI * FR) >> P
    else:
        for j in range(j0, (s + 1) // 2):
            QR = (QR * (AR + j * (s - j) * one)) >> P
    return QR * ZR - QI * ZI, QR * ZI + QI * ZR, 2 * P


def _loggamma_shifted(z, p):
    """log Gamma for an mpf z > 0 or a finite mpc z off the poles at working
    width ``p``, returned exactly as the kernel holds it (an mpf for an
    mpf z, else an mpc; no rounding).

    The state is pairs (re, im) of Python ints scaled by 2**P, P = p +
    LOGGAMMA_GUARD, raised so that z converts exactly and, below |Im z| =
    2^-GUARD, by the bits -log2 |Im z| - GUARD, so that Im log Gamma(z),
    about psi(Re z) Im z + k pi, keeps its own p bits; a real z is the
    pair with im = 0.  The kernel's argument v is z, or 1 - z (exact) for
    a complex z with Re z < 1/2.  With the shift s = max(0, t - floor(Re v))
    to u = v + s, Re u >= t = 10 + p/8,

        log Gamma(v) = (u - 1/2) log u - u + (log 2 pi)/2
                       + sum_{j=1..J} c_j u^(1-2j) - log(v (v+1) ... (v+s-1)),
        log Gamma(z) = log pi - log Gamma(1 - z) + log(1 / sin(pi z)).

    log u is one raw ``mpc_log`` at P + LOG_GUARD bits, and 1/u comes from
    one integer division.  J is fixed before the sum: the first j with
    log2|c_j| - (2j-1) log2 m < -(p+5), m the larger integer part of
    Re u, |Im u| (so m <= |u|); the optimal truncation error
    ~exp(-2 pi Re u) is far smaller.  The sum runs by Horner in
    w = 1/u^2 (S = c_J, then S = c_j + w S down to j = 1, times 1/u), so
    every partial sum stays of the size of its coefficient; forming the
    powers u^(1-2j) one by one at P would lose them below 2**-P while
    |c_j| grows past 2**160.  The shift product (:func:`_shift_product`),
    for Re z < 1/2 divided by sin(pi z) from one raw ``mpc_sin_pi`` at
    P + LOG_GUARD bits (the product is 1 for s = 0), goes through the
    second raw logarithm.  Its principal imaginary part is moved by 2 pi k
    onto the sum of the arguments of the factors, atan2(Im v, Re v + j),
    each in (-pi/2, pi/2) because Re(v+j) >= 1/2, less Im log sin(pi z)
    on the branch continuous off (-inf, 0]: sg (pi/2 - pi Re z) + a,
    sg = -1 below the axis and 1 on it (the upper limit), with
    a = arg(1 - e^(2 sg pi i z)) in (-pi/2, pi/2).  k comes from float
    sums that leave a out and take pi Re z as pi m + pi (Re z - m), m the
    nearest integer, so they are off by under pi/2 and k is exact.  The
    kernel runs on whichever of z, conj(z) gives Im v >= 0 and conjugates
    back, so conjugate arguments give conjugate results bit for bit.

    Error: every shift and division rounds down, a few units of 2**-P per
    Horner step and in the leading part, and 2s units relative in the
    paired product; truncating log u costs at most |u| units, and the two
    logarithms round within 2**-(P+8) (|u log u| + |log prod|).  For
    Re z < 1/2, log pi adds one unit, sin(pi z) is off by under
    (pi |Im z| + 2) 2**-(P+8) relative (pi Im z is rounded before its
    cosh and sinh), and the quotient by under 2**-(P+8) relative.  In all
    the result is within (3J + 3s + 16) 2**-P (|log Gamma(u)| + 1) +
    2**-(P+8) (|log prod| + pi |Im z| + 4) of log Gamma(z), far inside
    the (J + 4) 2**-p (|log Gamma(u)| + |Im z| + 1) the module promises.
    """
    is_complex = isinstance(z, mpmath.mpc)
    zr, zi = z._mpc_ if is_complex else (z._mpf_, fzero)
    reflect = is_complex and mpf_lt(zr, fhalf)
    conj = zi[0] == 1 if not reflect else zi[0] == 0 and zi[1] != 0
    if conj:
        zi = mpf_neg(zi)
    half_log_2pi, two_pi, log_pi, coeffs, cuts = _stirling_table(p)
    P = fixed_bits(p + LOGGAMMA_GUARD + (max(0, -GUARD - zi[2] - zi[3]) if zi[1] else 0), zr, zi)
    d = P - p - LOGGAMMA_GUARD
    one = 1 << P
    wp = P + LOG_GUARD
    ZR, ZI = raw_fixed(zr, P), raw_fixed(zi, P)
    if reflect:  # the kernel runs on v = 1 - z, Im v >= 0
        ZR, ZI = one - ZR, -ZI
    shift = max(0, _stirling_threshold(p) - (ZR >> P))
    UR = ZR + shift * one
    # leading part (u - 1/2) log u - u + (log 2 pi)/2
    lr, li = mpc_log((fixed_raw(UR, P), fixed_raw(ZI, P)), wp)
    LR, LI = raw_fixed(lr, P), raw_fixed(li, P)
    AR = UR - (one >> 1)
    out_r = ((AR * LR - ZI * LI) >> P) - UR + (half_log_2pi << d)
    out_i = ((AR * LI + ZI * LR) >> P) - ZI
    # Horner in w = 1/u^2 from the term count J, then times 1/u
    q = (1 << (4 * P)) // (UR * UR + ZI * ZI)
    IR, II = (UR * q) >> (2 * P), -((ZI * q) >> (2 * P))
    WR, WI = (IR * IR - II * II) >> P, (IR * II) >> (P - 1)
    J = _term_count(cuts, max(UR, ZI) >> P)
    C = coeffs[J - 1::-1] if not d else [c << d for c in coeffs[J - 1::-1]]
    SR, SI = _horner(C, WR, WI, P)
    out_r += (SR * IR - SI * II) >> P
    out_i += (SR * II + SI * IR) >> P
    if shift or reflect:
        QR, QI, e = _shift_product(ZR, ZI, shift, P) if shift else (one, 0, P)
        prod = (fixed_raw(QR, e), fixed_raw(QI, e))
        M = theta = 0  # Im log sin(pi z) is M pi + theta + a, a in (-pi/2, pi/2)
        if reflect:
            prod = mpc_div(prod, mpc_sin_pi((zr, zi), wp), wp)
            X = one - ZR  # Re z
            m = (X + (one >> 1)) >> P
            sg = 1 if zi == fzero else -1  # the upper limit on the axis
            M, theta = -sg * m, sg * (math.pi / 2 - math.pi * ((X - (m << P)) / one))
        lr, li = mpc_log(prod, wp)
        g = math.fsum(math.atan2(ZI / one, ZR / one + j) for j in range(shift)) - theta - to_float(li)
        k = (-M >> 1) + round(g / (2 * math.pi) + (M % 2) / 2)
        LR, LI = raw_fixed(lr, P), raw_fixed(li, P) + k * (two_pi << d)
        if reflect:
            out_r, out_i = (log_pi << d) - out_r + LR, LI - out_i
        else:
            out_r, out_i = out_r - LR, out_i - LI
    re = fixed_raw(out_r, P)
    if not is_complex:
        return mp.make_mpf(re)
    return mp.make_mpc((re, fixed_raw(-out_i if conj else out_i, P)))


def log_gamma_complex(z, prec):
    """The branch of log Gamma continuous on C \\ (-inf, 0].

    Real z on the cut evaluates to the limit from the upper half-plane;
    real z > 0 runs the real kernel of :func:`log_gamma_real`, so the
    value is exactly real.  Re z < 1/2 takes the reflection formula inside
    the kernel.  Raises :class:`PoleError` at non-positive integers.
    """
    bits = bits_of(prec)
    z = to_mpc(z, prec)
    zr, zi = z._mpc_
    if not all(t[1] or t == fzero for t in z._mpc_):  # libmp keeps inf and nan with mantissa 0
        raise DomainError(f"log_gamma_complex: argument must be finite, got z={z}")
    if zi == fzero:
        if zr[0] == 0 and zr[1]:
            return to_mpc(_log_gamma_positive(z.real, bits), bits)
        if not zr[1] or zr[2] >= 0:  # a non-positive integer
            raise PoleError(f"log_gamma_complex: pole at z={z}")
    p = bits + GUARD + 8 + max(0, zr[2] + zr[3])  # plus the bit length of floor |Re z|
    return round_to(bits, _loggamma_shifted(z, p))


@lru_cache(maxsize=256)
def _log_gamma_positive(x, bits):
    """log Gamma of an mpf x > 0 in real arithmetic, rounded to ``bits``.

    Memoised on (x, bits) in an ``lru_cache`` of 256 entries.  Two mpfs
    are equal exactly when their raw ``_mpf_`` tuples are, so the key is
    the exact argument and the width.  A compared point at fixed
    (n, alpha) asks for log Gamma(alpha) twice and log Gamma(n + alpha)
    once, and a sweep over z repeats both.  The real arguments
    alpha - n/z^2 > 0 that :func:`log_gamma_complex` sends here (real z
    past sqrt(n/alpha)) add one key each, which the LRU order drops first.
    An entry is the immutable mpf the kernel's value rounds to, so a hit
    is the cold run's value bit for bit.
    """
    return round_to(bits, _loggamma_shifted(x, bits + GUARD + 8))


def log_gamma_real(x, prec):
    """log Gamma for real x > 0 (mpf result)."""
    bits = bits_of(prec)
    x = to_mpf(x, bits + GUARD + 8)
    if not mpmath.isfinite(x):
        raise DomainError(f"log_gamma_real: argument must be finite, got x={x}")
    if x <= 0:
        raise PoleError("log_gamma_real requires x > 0")
    return _log_gamma_positive(x, bits)


# ----------------------------------------------------------------------
# Airy functions
# ----------------------------------------------------------------------

class AiryQuartet(NamedTuple):
    """Ai, Bi and their derivatives at a common argument."""

    ai: mpmath.mpc
    bi: mpmath.mpc
    ai_d: mpmath.mpc
    bi_d: mpmath.mpc


def _gamma_third(p):
    """Gamma(1/3) at width ``p`` from the AGM form of Gamma(1/3)^3 below, within
    2^-(p-3) relative: eleven roundings of 2^-p, the cube root dividing by 3."""
    with mp.workprec(p):
        k = (mpmath.sqrt(6) + mpmath.sqrt(2)) / 4
        return mpmath.cbrt(mpmath.cbrt(16) * mpmath.pi ** 2 / (mpmath.root(3, 4) * mpmath.agm(1, k)))


@lru_cache(maxsize=8)
def _airy_at_zero(prec: int):
    """Ai(0) = 3^(-1/6) Gamma(1/3)/(2 pi) and Ai'(0) = -3^(-1/3)/Gamma(1/3), rounded to ``prec``."""
    p = prec + GUARD + 32
    with mp.workprec(p):
        g = _gamma_third(p)
        c = mpmath.cbrt(3)
        ai0 = g / (2 * mpmath.pi * mpmath.sqrt(c))
        aid0 = -1 / (c * g)
    return round_to(prec, ai0), round_to(prec, aid0)


_AIRY_P = (2, 4, 5, 1)  # 3b for the four sums 0F1(;b; z^3/9), b = 2/3, 4/3, 5/3, 1/3


@lru_cache(maxsize=256)
def _airy_block(m, i):
    """The integer coefficients of block i (terms k = i m, ..., i m + m - 1)
    of the four Airy sums, in the order of ``_AIRY_P``: for each p, the
    products e_j = r(im+j+1) r(im+j+2) ... r(im+m), r(l) = l (p + 3l - 3),
    listed for j = m-1 down to 0.  The last, e_0, is the block's
    denominator D; term im+j of the sum is e_j/D times term im times X^j."""
    ls = range(i * m + m, i * m, -1)
    return tuple(tuple(accumulate([l * (p + 3 * l - 3) for l in ls], mul)) for p in _AIRY_P)


def _airy_term_count(y, P):
    """The term count N of the four sums at |z^3/9| = y and 2**-P: the
    first N with y <= (N+1)(N+1/3)/2 and y^N/(N! (1/3)_N) < 2**-(P+2).
    Past N the terms of every sum (b >= 1/3) fall at least by half per
    step, so the tail of each is below 2**-(P+1).  The first condition
    holds from some N on, and then the second as well, so a doubling and a
    bisection find N."""
    if y == 0:
        return 1
    ly, cut, lg = math.log(y), -(P + 2) * math.log(2), math.lgamma(1 / 3)

    def enough(N):
        return (2 * y <= (N + 1) * (N + 1 / 3)
                and N * ly - math.lgamma(N + 1) - math.lgamma(N + 1 / 3) + lg < cut)

    hi = 1
    while not enough(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return hi


def _airy_sums(z, P):
    """The four sums of ``_AIRY_P`` at X = z^3/3, term k of each being
    X^k / (k! prod_(j<k) (p + 3j)), for an mpc z that converts exactly at
    P fraction bits: (N, sums), N the term count of
    :func:`_airy_term_count` and each sum a pair (re, im) of integers
    scaled by 2**P.  X is formed from the exact z^3 with one floor.

    Rectangular splitting (Smith, Math. Comp. 52 (1989)): with blocks of
    m = isqrt(N) + 1 terms, the powers X^0 .. X^m are formed once and
    shared by the four sums, and from the top block down each sum takes

        S_i = (sum_j e_j X^j + X^m S_(i+1)) // D,

    m products of a power by an integer of ``_airy_block``, one full
    complex product and one division by D, so that S_0 is the sum.  Every
    product is shifted down to 2**P and every division floors.

    Error, in units u = 2**-P, with y = max(1/3, |z|^3/9),
    sigma_b = 0F1(;b; y) the sum of the moduli of the terms at y, and
    B = ceil(N/m) blocks: each power X^j (j <= m) is off by under
    2j max(1, |X|)^j; block by block, a power's error enters scaled by
    e_j/D <= 1, so the error grows to under (2m + 3) B sigma_b; the floor
    of X moves each sum by under 2N sigma_b; the tail beyond N is under
    2**-(P+1).  So each sum is within

        E_b = ((2m + 3) B + 2N + 1) 2**-P sigma_b,

    under 2**-(P-GUARD) sigma_b while (2m + 3) B + 2N + 1 < 2**GUARD: at
    the widths of :func:`_airy_parts`, up to |z| = 320 (N = 8327 at 272
    bits), the largest turning-point argument at n = 102400.  sigma_b
    grows like y^(1/4 - b/2) exp(2 sqrt y), and 2 sqrt y = (2/3)|z|^1.5 is
    the size the Airy width is set against."""
    zr, zi = z._mpc_
    ZR, ZI = raw_fixed(zr, P), raw_fixed(zi, P)
    QR, QI = ZR * ZR - ZI * ZI, 2 * ZR * ZI  # z^2 at 2P, exact
    XR = ((QR * ZR - QI * ZI) // 3) >> (2 * P)
    XI = ((QR * ZI + QI * ZR) // 3) >> (2 * P)
    N = _airy_term_count(math.hypot(to_float(zr), to_float(zi)) ** 3 / 9, P)
    m = math.isqrt(N) + 1
    one = 1 << P
    PR, PI = [one, XR], [0, XI]
    for _ in range(m - 1):
        pr, pi = PR[-1], PI[-1]
        PR.append((pr * XR - pi * XI) >> P)
        PI.append((pr * XI + pi * XR) >> P)
    MR, MI = PR.pop(), PI.pop()
    PR.reverse()  # X^(m-1), ..., X^0, the order of the block coefficients
    PI.reverse()
    blocks = [_airy_block(m, i) for i in range(-(-N // m))]
    sums = []
    for q in range(len(_AIRY_P)):
        SR = SI = 0
        for block in reversed(blocks):
            e = block[q]
            AR = sum(map(mul, e, PR)) + ((MR * SR - MI * SI) >> P)
            AI = sum(map(mul, e, PI)) + ((MR * SI + MI * SR) >> P)
            SR, SI = AR // e[-1], AI // e[-1]
        sums.append((SR, SI))
    return N, sums


def _airy_parts(z, bits):
    """The four Maclaurin parts of Ai at z, as (P, a, b, a', b'), each part
    a pair (re, im) of integers scaled by 2**P, with

        a  = Ai(0) 0F1(;2/3; z^3/9),         b  = Ai'(0) z 0F1(;4/3; z^3/9),
        a' = Ai(0) (z^2/2) 0F1(;5/3; z^3/9), b' = Ai'(0) 0F1(;1/3; z^3/9).

    Every cube root of unity w leaves z^3 unchanged, so the same four sums
    give Ai(w z) = a + w b and Ai'(w z) = w^2 a' + b', and Bi(z) =
    sqrt(3) (a - b), Bi'(z) = sqrt(3) (a' - b').  The terms reach
    exp(2/3 |z|^1.5) while Ai(w z) can be as small as exp(-2/3 |z|^1.5),
    a cancellation of (4/3)|z|^1.5 / log 2 bits, so the parts are formed
    to width = bits + GUARD + 24 + ceil(1.93 |z|^1.5) bits against the
    size of the terms, and each combination keeps about bits + GUARD + 24
    bits relative to its own size.

    The sums come from one fixed-point kernel (:func:`_airy_sums`) at
    P = width + GUARD fraction bits, raised so that z converts exactly,
    each within 2**-width of the sum of its terms' moduli (its
    docstring has the bound).  Ai(0), Ai'(0) (rounded at the band of 64
    widths above P, then cut to 2**-P), z and z^2/2 multiply in with a
    floor each, adding a few units of 2**-P.
    """
    width = bits + GUARD + 24 + math.ceil(1.93 * float(abs(z)) ** 1.5)
    zr, zi = z._mpc_
    P = fixed_bits(width + GUARD, zr, zi)
    # one cache entry serves a band of 64 widths
    ai0, aid0 = _airy_at_zero(-(-P // 64) * 64)
    _, ((AR, AI), (BR, BI), (CR, CI), (DR, DI)) = _airy_sums(z, P)
    ZR, ZI = raw_fixed(zr, P), raw_fixed(zi, P)
    QR, QI = (ZR * ZR - ZI * ZI) >> (P + 1), (ZR * ZI) >> P  # z^2/2
    A0, A1 = raw_fixed(ai0._mpf_, P), raw_fixed(aid0._mpf_, P)
    BR, BI = (ZR * BR - ZI * BI) >> P, (ZR * BI + ZI * BR) >> P  # z S
    CR, CI = (QR * CR - QI * CI) >> P, (QR * CI + QI * CR) >> P
    parts = ((A0, AR, AI), (A1, BR, BI), (A0, CR, CI), (A1, DR, DI))
    return (P,) + tuple((c * re >> P, c * im >> P) for c, re, im in parts)


def airy_quartet(z, prec) -> AiryQuartet:
    """Ai, Bi, Ai', Bi' at a complex point to full ``prec``-bit accuracy:
    each is assembled from the parts of :func:`_airy_parts` in their fixed
    point (sqrt 3 cut to 2**-P), then rounded once."""
    bits = bits_of(prec)
    z = to_mpc(z, prec)
    P, (aR, aI), (bR, bI), (cR, cI), (dR, dI) = _airy_parts(z, bits)
    r3 = math.isqrt(3 << (2 * P))
    vals = ((aR + bR, aI + bI), (r3 * (aR - bR) >> P, r3 * (aI - bI) >> P),
            (cR + dR, cI + dI), (r3 * (cR - dR) >> P, r3 * (cI - dI) >> P))
    return AiryQuartet(*(fixed_mpc(v, P, bits) for v in vals))


def _airy_rotated(z, bits):
    """:func:`airy_rotated`'s four values before rounding: (P, values), each
    value a pair (re, im) of integers scaled by 2**P, about
    bits + GUARD + 24 bits accurate against its own size."""
    P, (aR, aI), (bR, bI), (cR, cI), (dR, dI) = _airy_parts(z, bits)
    s = math.isqrt(3 << (2 * P)) >> 1
    bu, bv, cu, cv = s * bI >> P, s * bR >> P, s * cI >> P, s * cR >> P
    aR, aI = aR - (bR >> 1), aI - (bI >> 1)  # a - b/2
    dR, dI = dR - (cR >> 1), dI - (cI >> 1)  # b' - a'/2
    return P, ((aR - bu, aI + bv), (dR + cu, dI - cv), (aR + bu, aI - bv), (dR - cu, dI + cv))


def airy_rotated(z, prec):
    """(Ai(w z), Ai'(w z), Ai(conj(w) z), Ai'(conj(w) z)) for w = e^(2 pi i/3),
    rounded to ``prec`` bits, from the four parts of :func:`_airy_parts` at
    z in their fixed point (no rotated argument is ever formed).  With
    w = -1/2 + i s, s = sqrt(3)/2 cut to 2**-P, the products s b and s a'
    are formed once and enter the two pairs with opposite signs, so for
    real z the pairs are exact complex conjugates."""
    bits = bits_of(prec)
    P, vals = _airy_rotated(to_mpc(z, prec), bits)
    return tuple(fixed_mpc(v, P, bits) for v in vals)
