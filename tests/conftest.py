import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import settings

from tcasym.mpnum import LogComplex, working


def rel_diff(a, b, prec=256):
    """Relative difference of two mpmath numbers at prec bits."""
    with working(prec):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        scale = max(abs(a), abs(b), mpmath.mpf(1e-300))
        return abs(a - b) / scale


def logc_rel_err(v_exact: LogComplex, v_other: LogComplex, prec=256):
    """|exp(log difference) - 1| between two LogComplex values."""
    with working(prec):
        d = mpmath.mpc(v_other.log_mod - v_exact.log_mod, v_other.phase - v_exact.phase)
        return abs(mpmath.exp(d) - 1)


def within_rounding(v: LogComplex, ref: LogComplex, bits):
    """Whether v, a value rounded to ``bits``, agrees with a wider ``ref``
    to one ulp at ``bits`` in log-modulus and to 2^-(bits-3) absolute in
    phase, mod 2 pi; an exact zero only with an exact zero."""
    if v.is_zero() or ref.is_zero():
        return v.is_zero() and ref.is_zero()
    with mpmath.workprec(2 * bits + 512):
        ulp = mpmath.ldexp(1, mpmath.mag(ref.log_mod) - bits)
        dp = v.phase - ref.phase
        dp -= 2 * mpmath.pi * mpmath.nint(dp / (2 * mpmath.pi))
        return abs(v.log_mod - ref.log_mod) <= ulp and abs(dp) <= mpmath.ldexp(1, 3 - bits)


def to_fraction(x):
    """A finite mpf as the exact Fraction it holds."""
    man, exp = x.man_exp
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def near_cut_fraction(z, lo, hi, bits):
    """``mpnum.near_cut`` in Fractions: d = 0 or d^2 4^(bits//2) <
    min(1, |z|^2), d the distance from z to [lo, hi]."""
    x, y = to_fraction(z.real), to_fraction(z.imag)
    lo, hi = (float(e) if mpmath.isinf(e) else Fraction(e) for e in (lo, hi))
    dx = lo - x if x < lo else x - hi if x > hi else 0
    d2 = dx * dx + y * y
    return d2 == 0 or d2 * 4 ** (bits // 2) < min(1, x * x + y * y)


@pytest.fixture
def rng():
    return random.Random(20260810)


def random_mpc(rng, re_range=(-4, 4), im_range=(-4, 4)):
    return mpmath.mpc(rng.uniform(*re_range), rng.uniform(*im_range))


# Property tests stay deterministic and short: fixed examples per test, no
# per-example deadline (a first call at a new width, such as a cold
# log-gamma coefficient cache, can be slow on a busy host), and no example
# database written into the working tree.
settings.register_profile("tcasym", derandomize=True, deadline=None, max_examples=25, database=None)
settings.load_profile("tcasym")
