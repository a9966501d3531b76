"""Configurable-precision complex arithmetic with explicit branch-cut handling.

Values are mpmath ``mpf``/``mpc`` numbers.  Every operation takes the target
mantissa width in bits explicitly, computes with guard bits and rounds the
result back, so no hidden global precision state needs configuring and the
same call always produces the same bits.

Quantities scaling like ``exp(+-n log n)`` travel as :class:`LogComplex`
pairs ``(log_mod, phase)``.  Intermediates (``d_func``, the E-functions,
``from_exponent``) keep unreduced phases; results are principal, in
(-pi, pi].  Addition factors out the larger modulus and reports a
cancellation flag when the terms annihilate below ``2**(-bits/2)``
relative.  Every exponent becomes a LogComplex through
:meth:`LogComplex.from_exponent` alone, so all are rounded the same way.

Fixed point, shared by the three integer kernels (the complex recurrence
and the orthogonality sums of ``tcasym.exact``, log-gamma in
``tcasym.specfun``): v is the Python int v * 2**P.  P is raised until
every input converts exactly (:func:`fixed_bits`, :func:`raw_fixed`; a
logarithm taken a few bits beyond P is cut toward zero).  Every shift
and division of a kernel's state rounds down.  A result leaves exactly
(:func:`fixed_raw`) or rounded once to nearest (:func:`fixed_mpf`,
:func:`fixed_mpc`).
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath
from mpmath import mp
from mpmath.libmp import (from_man_exp, fzero, mpc_add, mpc_pos, mpf_add, mpf_gt, mpf_lt, mpf_mul, mpf_neg,
                          mpf_pos, mpf_shift, round_nearest)

DEFAULT_PREC = 256
MIN_PREC = 64

# Guard bits used inside elementary operations before rounding to the
# requested width.
GUARD = 16


class DomainError(ValueError):
    """Input on (or within tolerance of) a branch cut or excluded set."""


class PoleError(DomainError):
    """Evaluation at a pole."""


class ConfigError(ValueError):
    """Invalid parameter combination."""


def bits_of(prec) -> int:
    """Normalize a precision argument to a bit count (at least MIN_PREC)."""
    b = int(prec)
    if b < MIN_PREC:
        raise ConfigError(f"precision must be >= {MIN_PREC} bits, got {prec}")
    return b


def working(prec, guard: int = GUARD):
    """Context manager running the body at ``prec + guard`` bits."""
    return mp.workprec(bits_of(prec) + guard)


def to_mpf(x, prec) -> mpmath.mpf:
    """Round a real-valued input (int/float/str/mpf) to ``prec`` bits.  An
    mpf whose mantissa already fits comes back as it is; a longer one is
    rounded to nearest by one raw ``mpf_pos``, and any other input
    converts at ``prec`` bits without entering a context."""
    bits = bits_of(prec)
    if isinstance(x, mpmath.mpf):
        t = x._mpf_
        return x if t[3] <= bits else mp.make_mpf(mpf_pos(t, bits, round_nearest))
    return mpmath.mpf(x, prec=bits)


def to_mpc(z, prec) -> mpmath.mpc:
    """Round a complex-valued input to ``prec`` bits per component.  An mpc
    whose two mantissas already fit comes back as it is; a longer mpc, or
    an mpf, is rounded to nearest by one raw ``mpc_pos``/``mpf_pos``, and
    a pair converts part by part as :func:`to_mpf` does.  Other inputs
    convert inside the context (an mpc() conversion outside would round at
    the ambient precision)."""
    bits = bits_of(prec)
    if isinstance(z, mpmath.mpc):
        re, im = t = z._mpc_
        return z if re[3] <= bits and im[3] <= bits else mp.make_mpc(mpc_pos(t, bits, round_nearest))
    if isinstance(z, mpmath.mpf):
        return mp.make_mpc((mpf_pos(z._mpf_, bits, round_nearest), fzero))
    if type(z) in (tuple, list) and len(z) == 2:  # not a record, which is a tuple too
        return mp.make_mpc((to_mpf(z[0], bits)._mpf_, to_mpf(z[1], bits)._mpf_))
    with mp.workprec(bits):
        return mpmath.mpc(z)


def round_to(prec, x):
    """Re-round an mpf or mpc to ``prec`` bits, to nearest, by one raw
    ``mpf_pos``/``mpc_pos``."""
    bits = bits_of(prec)
    if isinstance(x, mpmath.mpc):
        return mp.make_mpc(mpc_pos(x._mpc_, bits, round_nearest))
    return mp.make_mpf(mpf_pos(x._mpf_, bits, round_nearest))


def fixed_bits(P, *raws):
    """The fraction bits P, raised so that each raw finite libmp value in
    ``raws`` converts to an integer exactly (P >= -exp)."""
    for t in raws:
        if t[1]:
            P = max(P, -t[2])
    return P


def raw_fixed(t, P):
    """The raw finite libmp value ``t`` as the integer t * 2**P, rounded
    toward zero (exact when P >= -exp)."""
    sign, man, exp, _ = t
    e = exp + P
    man = man << e if e >= 0 else man >> -e
    return -man if sign else man


def fixed_raw(v, P):
    """The integer v scaled by 2**-P as a raw mpf, exactly; trailing zero
    bits are shifted out first (libmp would strip them a byte at a time)."""
    tz = (v & -v).bit_length() - 1 if v else 0
    return from_man_exp(v >> tz, tz - P)


def fixed_mpf(v, P, bits):
    """The integer v scaled by 2**-P as an mpf, rounded once to nearest at
    ``bits``."""
    return mp.make_mpf(from_man_exp(v, -P, bits, round_nearest))


def fixed_mpc(v, P, bits):
    """The pair v = (re, im) of integers scaled by 2**-P as an mpc, each
    part rounded once to nearest at ``bits``."""
    return mp.make_mpc(tuple(from_man_exp(t, -P, bits, round_nearest) for t in v))


# ----------------------------------------------------------------------
# Exact comparisons
# ----------------------------------------------------------------------
#
# The region and cut tests compare polynomials in dyadic rationals (mpf
# coordinates, the double parameters, integer degrees and cut ends), so
# each is decided exactly: a value is the integer pair (m, e), m 2**e, and
# a test is the sign of a sum of such pairs.

def _dyadic(v):
    """(m, e) with v = m 2**e exactly, for an int, a finite float or a
    finite mpf (libmp stores inf and nan with mantissa 0: check first)."""
    if isinstance(v, int):
        return v, 0
    if isinstance(v, float):
        m, d = v.as_integer_ratio()
        return m, 1 - d.bit_length()
    sign, man, exp, _ = v._mpf_
    return (-int(man) if sign else int(man)), exp


def _prod(c, *factors):
    """The dyadic c f1 f2 ... of an integer c and dyadics ``factors``."""
    e = 0
    for m, f in factors:
        c *= m
        e += f
    return c, e


def _sq_diff(a, b):
    """(a - b)^2 of dyadics a, b as the three terms a^2, -2ab, b^2."""
    return [_prod(1, a, a), _prod(-2, a, b), _prod(1, b, b)]


def _sign(*terms) -> int:
    """The sign (-1, 0 or 1) of the exact sum of the dyadic ``terms``.

    Terms are added from the largest down.  Once the next term lies more
    than log2(count) + 1 bits below the lowest bit of a nonzero partial
    sum, the rest together cannot reach that bit and the partial sum
    decides, so no integer spans a wide exponent gap."""
    terms = sorted((t for t in terms if t[0]), key=lambda t: t[1] + t[0].bit_length(), reverse=True)
    gap = len(terms).bit_length() + 1
    acc = low = 0
    for m, e in terms:
        if acc and e + m.bit_length() + gap <= low:
            break
        if not acc:
            acc, low = m, e
        elif e < low:
            acc, low = (acc << (low - e)) + m, e
        else:
            acc += m << (e - low)
    return (acc > 0) - (acc < 0)


def near_cut(z, lo, hi, prec) -> bool:
    """Whether the mpc ``z`` lies on the real segment [lo, hi] (``lo`` may
    be -inf and ``hi`` +inf) or within 2**-(bits/2) * min(1, |z|) of it:
    relative to |z| below 1, so that a tiny z off the cut is not taken for
    a cut point.

    Decided exactly on z as it is: with d the distance to the segment and
    h = bits // 2, d = 0 or d^2 4^h < min(1, |z|^2).  A non-finite z
    raises :class:`DomainError`.
    """
    bits = bits_of(prec)
    if not mpmath.isfinite(z):
        raise DomainError(f"z={z} is not finite")
    x, y = z.real, z.imag
    end = lo if x < lo else hi if x > hi else None  # the end of [lo, hi] x lies beyond
    if end is None and not y:
        return True
    yd = _dyadic(y)
    d2 = [_prod(1, yd, yd)] + ([] if end is None else _sq_diff(_dyadic(x), _dyadic(end)))
    h2 = 2 * (bits // 2)
    d2 = [(m, e + h2) for m, e in d2]  # d^2 4^h
    if _sign(*d2, (-1, 0)) >= 0:
        return False
    xd = _dyadic(x)
    return _sign(*d2, _prod(-1, xd, xd), _prod(-1, yd, yd)) < 0


def require_finite(z, what: str):
    """Raise :class:`DomainError`, naming ``what``, unless ``z`` is finite."""
    if not mpmath.isfinite(z):
        raise DomainError(f"{what}: z={z} is not finite")


def require_off_cut(z, lo, hi, prec, what: str):
    """Raise :class:`DomainError`, naming ``what``, if ``z`` is not finite or
    is near the cut [lo, hi] (:func:`near_cut`)."""
    require_finite(z, what)
    if near_cut(z, lo, hi, prec):
        raise DomainError(f"{what}: z={z} lies on or too close to the cut [{lo}, {hi}]")


# ----------------------------------------------------------------------
# LogComplex
# ----------------------------------------------------------------------

class LogComplex(NamedTuple):
    """A complex value stored as exp(log_mod + i*phase).

    ``log_mod`` is the natural log of the modulus (``-inf`` encodes an exact
    zero); ``phase`` is in radians, principal in results.
    """

    log_mod: mpmath.mpf
    phase: mpmath.mpf

    @classmethod
    def zero(cls) -> "LogComplex":
        return cls(mpmath.mpf("-inf"), mpmath.mpf(0))

    @classmethod
    def from_exponent(cls, w, prec) -> "LogComplex":
        """Represent exp(w) for a complex or real exponent w: the one way to
        build a LogComplex from an exponent.  Each component is rounded once
        to ``prec`` bits, whatever the ambient precision."""
        w = to_mpc(w, prec)
        return cls(w.real, w.imag)

    def is_zero(self) -> bool:
        return mpmath.isinf(self.log_mod) and self.log_mod < 0

    def to_complex(self, prec) -> mpmath.mpc:
        """Materialize as an mpc (mpf exponents are unbounded, so no overflow)."""
        if self.is_zero():
            return to_mpc(0, prec)
        with working(prec):
            r = mpmath.exp(self.log_mod)
            v = mpmath.mpc(r * mpmath.cos(self.phase), r * mpmath.sin(self.phase))
        return round_to(prec, v)

    def conjugate(self) -> "LogComplex":
        # exact phase negation; mpmath's unary minus would round at the
        # caller's ambient precision
        return LogComplex(self.log_mod, mp.make_mpf(mpf_neg(self.phase._mpf_)))


def _norm2(t, wp):
    """|t|^2 of a raw complex t, as mpmath forms re*re + im*im at ``wp``."""
    re, im = t
    return mpf_add(mpf_mul(re, re, wp, round_nearest), mpf_mul(im, im, wp, round_nearest), wp, round_nearest)


def add_guarded(x, y, prec):
    """The cancellation rule of :func:`logc_add`, on two mpc values: returns
    ``(x + y, cancelled)``, the sum formed at ``prec`` + GUARD bits.
    Against the larger of |x|, |y|, a sum below 2**-(bits//2) is
    ``cancelled`` and one below 2**-(bits-4) is the exact zero (also
    cancelled).  Decided on squared moduli, so no square root is taken; a
    zero term leaves the other, not cancelled.  Raw libmp calls, each the
    one the context's operators would make at that width."""
    bits = bits_of(prec)
    wp = bits + GUARD
    s = mpc_add(x._mpc_, y._mpc_, wp, round_nearest)
    ns = _norm2(s, wp)
    nx, ny = _norm2(x._mpc_, wp), _norm2(y._mpc_, wp)
    big = ny if mpf_gt(ny, nx) else nx
    if mpf_lt(ns, mpf_shift(big, -2 * (bits - 4))):
        return mp.make_mpc((fzero, fzero)), True
    return mp.make_mpc(s), mpf_lt(ns, mpf_shift(big, -2 * (bits // 2)))


def logc_add(a: LogComplex, b: LogComplex, prec):
    """Cancellation-guarded addition.

    Returns ``(result, cancelled)`` by the rule of :func:`add_guarded` on
    1 + b/a (a the larger): ``cancelled`` is True when the relative
    residual is below ``2**-(bits//2)``, and terms that annihilate to below
    2**-(bits-4) (opposite values up to rounding of pi) snap to the exact
    zero.  No evaluator calls it (they sum mpc values with
    :func:`add_guarded`); the benchmark's span list still names it.
    """
    bits = bits_of(prec)
    if a.is_zero():
        return b, False
    if b.is_zero():
        return a, False
    if b.log_mod > a.log_mod:
        a, b = b, a
    with mp.workprec(bits + GUARD):
        d = b.log_mod - a.log_mod
        w, cancelled = add_guarded(mpmath.mpc(1), mpmath.exp(mpmath.mpc(d, b.phase - a.phase)), bits)
        if w == 0:
            return LogComplex.zero(), True
        lw = mpmath.log(abs(w))
        ph = a.phase + mpmath.atan2(w.imag, w.real)
        lm = a.log_mod + lw
    return LogComplex(round_to(prec, lm), round_to(prec, ph)), cancelled


# ----------------------------------------------------------------------
# Branch-cut-aware elementary functions
# ----------------------------------------------------------------------

def _w_root(z):
    """sqrt(z-2) sqrt(z+2), principal factors: analytic off [-2, 2], ~z at
    infinity; evaluated at the caller's working precision."""
    return mpmath.sqrt(z - 2) * mpmath.sqrt(z + 2)


def sqrt_zsq_minus4(z, prec) -> mpmath.mpc:
    """The branch of sqrt(z**2 - 4) analytic on C \\ [-2, 2] with value ~ z
    at infinity.

    Computed as sqrt(z-2)*sqrt(z+2) with principal square roots: the two
    cut contributions cancel on (-inf, -2), leaving exactly the segment
    [-2, 2] as the cut.  Points near the cut (:func:`near_cut`) raise
    :class:`DomainError` rather than silently picking a side.
    """
    z = to_mpc(z, prec)
    require_off_cut(z, -2, 2, prec, "sqrt_zsq_minus4")
    with working(prec):
        w = _w_root(z)
    return round_to(prec, w)
