"""The exact nodes as a large-n probe of region D.

At z = 2^m and n = (k + alpha) 4^m the point x = z/sqrt(n) = (k + alpha)^(-1/2)
is a node: with y = x^2 = 1/(k + alpha), the generating function
e^(w/x) (1 - x w)^(1/y - alpha) gives

    g_n(x) = x^-n sum_(j=0..k) (-1)^j C(k, j) y^j n!/(n-j)!,

a sum of k + 1 terms, exact in ``fractions`` at any n.  The monic value
is g_n Gamma(alpha)/Gamma(n + alpha) (``exact.eval_monic_rescaled``).
Every such point lies in region D, where the outer formula is exp(wc + w1)/D
and the band formula's second term exp(wc + w2) is what remains at a node.
n (exp(wc + w2)/exact - 1) tends to alpha^2 + 1/12 whatever k, with an
O(1/n) remainder: the gate is

    |n (asym/exact - 1) - (alpha^2 + 1/12)| <= C / n,

with C the constant of each (alpha, k) in ``_C``, measured at 192 bits
over m = 6..14: n times the left side falls monotonically in m, towards
77/144 = 0.5347 at (1/2, 0) and 1399.2 at (5, 20), and ``_C`` holds its
value at m = 6, rounded up to three significant digits.

The asymptotic side reads the private ``asym._point`` and
``asym._exponents``: at a node the outer formula's 1/D has a pole, so
``eval_asym`` cannot give exp(wc + w2) yet.
"""

from fractions import Fraction
from math import comb

import mpmath
import pytest

from tcasym import asym
from tcasym.asym import Params, classify_region
from tcasym.mpnum import working
from tcasym.specfun import log_gamma_real

BITS = 192
ALPHAS = ("0.5", "1", "2.5", "5")
KS = (0, 3, 20)
MS = range(6, 15)
_C = {
    ("0.5", 0): 0.536, ("0.5", 3): 4.17, ("0.5", 20): 24.8,
    ("1", 0): 3.18, ("1", 3): 12.5, ("1", 20): 65.0,
    ("2.5", 0): 47.5, ("2.5", 3): 87.2, ("2.5", 20): 312.0,
    ("5", 0): 498.0, ("5", 3): 634.0, ("5", 20): 1410.0,
}


def _node_sum(n, k, y):
    """sum_(j=0..k) (-1)^j C(k, j) y^j n!/(n-j)!, exactly."""
    total, falling = Fraction(0), 1
    for j in range(k + 1):
        total += (-1) ** j * comb(k, j) * y ** j * falling
        falling *= n - j
    return total


def _log_exact(n, a, k):
    """log of the monic value at the node (n, alpha = a, k), as an mpc:
    x^-n = (k + a)^(n/2), and the sum's sign (-1)^k as the phase -pi k."""
    s = _node_sum(n, k, 1 / (k + a))
    af = mpmath.mpf(a.numerator) / a.denominator
    lm = n / 2 * mpmath.log(k + af) + mpmath.log(abs(s.numerator)) - mpmath.log(s.denominator) \
        + log_gamma_real(af, BITS) - log_gamma_real(n + af, BITS)
    return mpmath.mpc(lm, -mpmath.pi * k if s < 0 else 0)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_second_term_at_nodes(alpha, k):
    a = Fraction(alpha)
    with working(BITS):
        c1 = (mpmath.mpf(a.numerator) / a.denominator) ** 2 + mpmath.mpf(1) / 12
    for m in MS:
        n = int((k + a) * 4 ** m)
        z = mpmath.ldexp(1, m)
        assert classify_region(z, n, alpha, Params(), BITS) == "D"
        g = asym._point(n, alpha, z, BITS, "D")
        _, _, wc, _, w2 = asym._exponents(n, g, BITS)
        wc, w2 = mpmath.mp.make_mpc(wc), mpmath.mp.make_mpc(w2)  # raw, like the whole record
        with working(BITS):
            v = n * mpmath.expm1(wc + w2 - _log_exact(n, a, k))
            assert abs(v.imag) < mpmath.mpf(2) ** -100, (alpha, k, m, v)
            assert n * abs(v.real - c1) <= _C[alpha, k], (alpha, k, m, v)
