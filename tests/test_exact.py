from math import isqrt

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_int, from_man_exp, mpf_exp, mpf_log

from tcasym import exact
from tcasym.mpnum import (
    ConfigError,
    DomainError,
    fixed_bits,
    fixed_raw,
    raw_fixed,
    round_to,
    to_mpc,
    to_mpf,
    working,
)

from conftest import logc_rel_err, rel_diff


def hand_recurrence(n, alpha, x, prec=300):
    """Independent oracle: plain recurrence without rescaling tricks."""
    with working(prec):
        alpha = mpmath.mpf(alpha)
        x = mpmath.mpc(x)
        fs = [mpmath.mpc(1), alpha * x]
        for k in range(1, n):
            fs.append(((k + alpha) * x * fs[k] - fs[k - 1]) / (k + 1))
        return fs[n]


class TestEvalF:
    def test_initial_values(self):
        assert exact.eval_f(0, 1, mpmath.mpc(3, 1), 128).log_mod == 0
        v = exact.eval_f(1, mpmath.mpf("1.5"), mpmath.mpc("0.25"), 128)
        with working(160):
            ref = mpmath.mpf("1.5") * mpmath.mpf("0.25")
            assert rel_diff(v.to_complex(160), ref, 128) < mpmath.mpf(2) ** -120

    def test_f2_closed_form(self):
        # one hand-applied step: f_2 = (a(a+1)x^2 - 1)/2
        a, x = mpmath.mpf("0.75"), mpmath.mpc("0.4", "0.3")
        v = exact.eval_f(2, a, x, 160)
        with working(200):
            ref = (a * (a + 1) * x * x - 1) / 2
        assert rel_diff(v.to_complex(200), ref, 160) < mpmath.mpf(2) ** -150

    def test_against_hand_recurrence(self):
        v = exact.eval_f(37, 1, mpmath.mpc("0.3", "0.1"), 192)
        ref = hand_recurrence(37, 1, mpmath.mpc("0.3", "0.1"))
        assert rel_diff(v.to_complex(250), ref, 192) < mpmath.mpf(2) ** -180

    @staticmethod
    def _bits(state):
        """The full-width state as exact libmp tuples, plus the scale."""
        p, c, s = state
        return (p.real._mpf_, p.imag._mpf_), (c.real._mpf_, c.imag._mpf_), s

    # (n, alpha, prec, |x| scale): small degrees, then degrees whose small
    # |x| makes the state renormalise many times at 256 bits; alpha 0.7
    # makes the (A t) >> P step round
    DEGREES = ((7, "1", 128, 1), (24, "1", 128, 1), (50, "1", 128, 1),
               (801, "0.7", 256, 0.05), (1200, "0.7", 256, 0.05))

    def test_parity_exact_in_arithmetic(self, rng):
        # f_n(-x) = (-1)^n f_n(x): every rounding in the kernel is odd, so
        # the state at -x is the parity image of the state at x bit for bit,
        # for complex x and, through the real-axis loop, for real x
        neg = mpmath.libmp.mpf_neg
        for n, alpha, prec, r in self.DEGREES:
            z = r * mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for x in (z, mpmath.mpc(z.real)):
                p1, c1, s1 = self._bits(exact.eval_f_raw(n, alpha, x, prec))
                p2, c2, s2 = self._bits(exact.eval_f_raw(n, alpha, -x, prec))
                assert s1 == s2 and (s1 != 0 or n < 800)
                odd_prev, odd_curr = (n - 1) % 2, n % 2
                assert p2 == tuple(neg(t) if odd_prev else t for t in p1)
                assert c2 == tuple(neg(t) if odd_curr else t for t in c1)

    def test_schwarz_exact_in_arithmetic(self, rng):
        neg = mpmath.libmp.mpf_neg
        for n, alpha, prec, r in self.DEGREES:
            z = r * mpmath.mpc(rng.uniform(-1, 1), rng.uniform(0.01, 1))
            p1, c1, s1 = self._bits(exact.eval_f_raw(n, alpha, z, prec))
            p2, c2, s2 = self._bits(exact.eval_f_raw(n, alpha, mpmath.conj(z), prec))
            assert s1 == s2 and (s1 != 0 or n < 800)
            assert p2 == (p1[0], neg(p1[1]))
            assert c2 == (c1[0], neg(c1[1]))

    def test_no_overflow_large_degree(self):
        v = exact.eval_monic_rescaled(1000, 1, mpmath.mpc(1, 1), 256)
        assert mpmath.isfinite(v.log_mod) and mpmath.isfinite(v.phase)

    def test_backward_stability_probe(self):
        # doubling precision moves the rescaled monic value by < 2^-100
        z = mpmath.mpc("1.3", "0.7")
        v1 = exact.eval_monic_rescaled(500, 1, z, 128)
        v2 = exact.eval_monic_rescaled(500, 1, z, 256)
        assert logc_rel_err(v2, v1, 256) < mpmath.mpf(2) ** -100

    def test_state_renormalized(self):
        # rescaling triggers when the state leaves [2^-16, 2^16]; the carried
        # mantissas therefore always stay inside the (slightly padded) band
        fp, fc, scale = exact.eval_f_raw(800, 1, mpmath.mpc("0.05", "0.02"), 128)
        with working(128):
            m = max(abs(fp), abs(fc))
        assert mpmath.ldexp(1, -17) <= m <= mpmath.ldexp(1, 17)
        assert scale != 0  # the true value is far outside the band

    @pytest.mark.parametrize("alpha,x", [
        ("nan", "0.5"), ("inf", "0.5"), ("1", ("nan", "0")), ("1", ("0.5", "inf")), ("1", ("-inf", "0.1")),
    ])
    def test_non_finite_rejected(self, alpha, x):
        # a special mpf has mantissa 0: converted to the integer state it
        # would enter silently as 0
        with pytest.raises(ConfigError):
            exact.eval_f_raw(5, alpha, to_mpc(x, 128), 128)
        with pytest.raises(ConfigError):
            exact.eval_f(5, alpha, to_mpc(x, 128), 128)

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            exact.eval_f(-1, 1, mpmath.mpc(1), 128)
        with pytest.raises(ConfigError):
            exact.eval_f(3, -2, mpmath.mpc(1), 128)
        with pytest.raises(ConfigError):
            exact.eval_monic_rescaled(0, 1, mpmath.mpc(1), 128)


def _unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# z = sqrt(n) x drawn from each of the five regions of the default Params
# (eps 0.15, delta 0.25); x is then rounded to the working precision
_REGION_Z = st.one_of(
    st.tuples(_unit(-0.1, 0.1), _unit(-0.1, 0.1)),       # origin
    st.tuples(_unit(0.2, 1.8), _unit(0.0, 0.2)),         # band strip B
    st.tuples(_unit(1.9, 2.1), _unit(-0.1, 0.1)),        # turning point C
    st.tuples(_unit(2.2, 3.0), _unit(0.0, 0.2)),         # saturated strip D
    st.tuples(_unit(-3.0, 3.0), _unit(0.3, 3.0)),        # outer region A
)


def four_product_kernel(n, alpha, x, bits):
    """Oracle for ``eval_f_raw``: the one-step form of its fixed-point
    recurrence, g_(k+1) = ((Y_k g_k) >> P) - k g_(k-1) with the running
    multiplier Y_k = k X + ((A X) >> P), its complex product written out as
    four big-int products, and the window check done by ``exact._renorm``
    every block.  The kernel's even/odd loop rounds differently, so the
    two agree to the kernel's margin, not bit for bit."""
    a, x = to_mpf(alpha, bits), to_mpc(x, bits)
    xr, xi = x.real, x.imag
    P = fixed_bits(bits + exact.FIXED_GUARD, a._mpf_, xr._mpf_, xi._mpf_)
    A, XR, XI = (abs(raw_fixed(v._mpf_, P)) for v in (a, xr, xi))
    YR, YI = A * XR >> P, A * XI >> P
    pr, pi, cr, ci, scale, k = 0, 0, 1 << P, 0, 0, 0
    while k < n:
        for j in range(k, min(k + exact.BLOCK_STEPS, n)):
            pr, pi, cr, ci = (cr, ci, ((YR * cr - YI * ci) >> P) - j * pr,
                              ((YR * ci + YI * cr) >> P) - j * pi)
            YR, YI = YR + XR, YI + XI
        k = j + 1
        (pr, pi, cr, ci), e = exact._renorm((pr, pi, cr, ci), P, exact.WINDOW_BITS)
        scale += e
    (pr, pi, cr, ci), e = exact._renorm((pr, pi, cr, ci), P, exact.RENORM_BITS)
    if xr < 0:
        pr, pi, cr, ci = (pr, pi, -cr, -ci) if n % 2 else (-pr, -pi, cr, ci)
    if (xr < 0) != (xi < 0):
        pi, ci = -pi, -ci
    return (mp.make_mpc((fixed_raw(pr, P), fixed_raw(pi, P))),
            mp.make_mpc((fixed_raw(cr, P), fixed_raw(ci, P))), scale + e)


def even_odd_kernel(n, alpha, x, bits):
    """Oracle for ``eval_f_raw``: its even/odd loop written plainly.  With
    y = x**2 floored to Q = P + s fraction bits (s in [0, P] lifting the
    larger part of y to about P significant bits),
    O_m = 2m E_m + ((A E_m) >> P) - 2m O_(m-1) and
    E_(m+1) = ((W_m O_m) >> Q) - (2m+1) E_m, W_m = (2m+1) Y + ((A Y) >> P),
    the complex product as four big-int products, the window check done by
    ``exact._renorm`` every four pairs, and g = (X O) >> P at the end.  The
    kernel's Gauss form, its small multiply for alpha E and its loop for
    real y must give this state bit for bit."""
    a, x = to_mpf(alpha, bits), to_mpc(x, bits)
    xr, xi = x.real, x.imag
    P = fixed_bits(bits + exact.FIXED_GUARD, a._mpf_, xr._mpf_, xi._mpf_)
    A, XR, XI = (abs(raw_fixed(v._mpf_, P)) for v in (a, xr, xi))
    YR, YI = XR * XR - XI * XI, 2 * XR * XI
    s = min(P, max(0, 2 * P - max(abs(YR).bit_length(), YI.bit_length())))
    Q = P + s
    YR, YI = YR >> (P - s), YI >> (P - s)

    def odd(j, qr, qi, er, ei):
        return (j * er + (A * er >> P) - j * qr, j * ei + (A * ei >> P) - j * qi)

    qr, qi, er, ei, scale, j = 0, 0, 1 << P, 0, 0, 0
    while j + 1 < n:
        for j in range(j, min(j + exact.BLOCK_STEPS, n - 1), 2):
            qr, qi = odd(j, qr, qi, er, ei)
            WR, WI = (j + 1) * YR + (A * YR >> P), (j + 1) * YI + (A * YI >> P)
            er, ei = (((WR * qr - WI * qi) >> Q) - (j + 1) * er,
                      ((WR * qi + WI * qr) >> Q) - (j + 1) * ei)
        j += 2
        (qr, qi, er, ei), e = exact._renorm((qr, qi, er, ei), P, exact.WINDOW_BITS)
        scale += e
    if n % 2:
        qr, qi = odd(n - 1, qr, qi, er, ei)
    gr, gi = (XR * qr - XI * qi) >> P, (XR * qi + XI * qr) >> P
    state = (er, ei, gr, gi) if n % 2 else (gr, gi, er, ei)
    (pr, pi, cr, ci), e = exact._renorm(state, P, exact.RENORM_BITS)
    if xr < 0:
        pr, pi, cr, ci = (pr, pi, -cr, -ci) if n % 2 else (-pr, -pi, cr, ci)
    if (xr < 0) != (xi < 0):
        pi, ci = -pi, -ci
    return (mp.make_mpc((fixed_raw(pr, P), fixed_raw(pi, P))),
            mp.make_mpc((fixed_raw(cr, P), fixed_raw(ci, P))), scale + e)


# x / sqrt(n) anywhere: the four open quadrants, the real axis (both
# signs) and the imaginary axis (the kernel's loop for real y), and 0
_AXIS_Z = st.one_of(
    st.tuples(_unit(-3.0, 3.0), _unit(-3.0, 3.0)),
    st.tuples(_unit(-3.0, 3.0), st.just(0.0)),
    st.tuples(st.just(0.0), _unit(-3.0, 3.0)),
    st.just((0.0, 0.0)),
)


class TestFixedPointKernel:
    """The integer kernel against a plain mpmath run of its recurrence for
    g_k = k! f_k at 2*bits+64."""

    @staticmethod
    def reference(n, alpha, x, bits):
        with mp.workprec(bits):
            gp, gc = mpmath.mpc(1), alpha * x
            for k in range(1, n):
                gp, gc = gc, (k + alpha) * x * gc - k * gp
            return gp, gc

    @given(n=st.integers(1, 2500), alpha=_unit(0.5, 2.5), z=_REGION_Z, bits=st.sampled_from([128, 256]))
    # tiny alpha and |x| with full mantissas: P must rise above bits + 64
    # for them to convert exactly
    @example(n=2499, alpha="3.3e-31", z=("1.7e-38", "-2.9e-39"), bits=128)
    @example(n=1, alpha="0.5", z=("3.1e-60", "0"), bits=256)
    # renormalising degrees in the band and at the turning point
    @example(n=1500, alpha=1.0, z=(1.0, 0.0), bits=256)
    @example(n=2500, alpha=0.5, z=(1.9, 0.1), bits=256)
    # the largest degree compared, in the band and at the turning point
    @example(n=6400, alpha=0.75, z=(1.2, 0.05), bits=256)
    @example(n=6400, alpha=1.0, z=(2.0, 0.05), bits=256)
    def test_state_matches_reference(self, n, alpha, z, bits):
        a = to_mpf(alpha, bits)
        with mp.workprec(bits):
            x = mpmath.mpc(mpmath.mpf(z[0]), mpmath.mpf(z[1])) / mpmath.sqrt(n)
        fp, fc, scale = exact.eval_f_raw(n, a, x, bits)
        rp, rc = self.reference(n, a, x, 2 * bits + 64)
        with mp.workprec(2 * bits + 64):
            two_s = mpmath.ldexp(1, scale)
            # relative to the larger of the pair: well defined near zeros of f_n
            err = max(abs(fp * two_s - rp), abs(fc * two_s - rc)) / max(abs(rp), abs(rc))
        assert err <= mpmath.ldexp(1, -bits)

    @settings(max_examples=120)
    @given(n=st.integers(0, 2500), alpha=_unit(0.5, 2.5), z=_AXIS_Z, bits=st.sampled_from([128, 256]))
    # tiny alpha and |x| with full mantissas raise P, off and on the real axis
    @example(n=2499, alpha="3.3e-31", z=("1.7e-38", "-2.9e-39"), bits=128)
    @example(n=2499, alpha="3.3e-31", z=("-1.7e-38", "0"), bits=128)
    @example(n=1, alpha="0.5", z=("3.1e-60", "0"), bits=256)
    # the largest degree compared, and the same degree on the axes
    @example(n=6400, alpha=0.75, z=(1.2, 0.05), bits=256)
    @example(n=6400, alpha=1.0, z=(2.0, 0.05), bits=256)
    @example(n=6400, alpha=0.75, z=(-1.2, 0.0), bits=256)
    @example(n=6400, alpha=1.0, z=(0.0, 2.0), bits=256)
    # alpha = 2 has more trailing zeros than P (its small multiply is by 1,
    # shifted up); a full 256-bit mantissa makes it a wide one
    @example(n=2401, alpha=2.0, z=(0.5, 0.3), bits=128)
    @example(n=1999, alpha="1.2345678901234567890123456789012345678901234567890123456789",
             z=(1.3, 0.02), bits=256)
    # block edges: n = 8, 16 and 1496 end on a full block of four pairs,
    # n = 9, 17 and 1497 add the last odd step to it, and n = 15 and 1503
    # end on a block of three pairs, run by the loop; y complex, real (on the
    # real axis) and negative (on the imaginary axis)
    @example(n=8, alpha=0.5, z=(1.1, 0.4), bits=128)
    @example(n=9, alpha=1.0, z=(1.5, 0.0), bits=256)
    @example(n=15, alpha=0.75, z=(-0.9, 0.6), bits=128)
    @example(n=15, alpha=2.0, z=(0.0, 1.2), bits=256)
    @example(n=16, alpha=1.5, z=(0.0, -2.2), bits=128)
    @example(n=17, alpha=1.25, z=(-2.2, 0.0), bits=256)
    @example(n=1496, alpha="1.2345678901234567890123456789012345678901234567890123456789012345678901234567",
             z=(1.3, 0.02), bits=256)
    @example(n=1497, alpha=0.5, z=(1.9, 0.0), bits=256)
    @example(n=1503, alpha=2.0, z=(-1.7, 0.3), bits=256)
    @example(n=1503, alpha=0.75, z=(0.0, 1.7), bits=256)
    def test_state_is_even_odd_state(self, n, alpha, z, bits):
        a = to_mpf(alpha, bits)
        with mp.workprec(bits):
            x = mpmath.mpc(mpmath.mpf(z[0]), mpmath.mpf(z[1])) / mpmath.sqrt(max(n, 1))

        def tuples(state):
            p, c, s = state
            return p.real._mpf_, p.imag._mpf_, c.real._mpf_, c.imag._mpf_, s

        assert tuples(exact.eval_f_raw(n, a, x, bits)) == tuples(even_odd_kernel(n, a, x, bits))

    @settings(max_examples=120)
    @given(n=st.integers(0, 2500), alpha=_unit(0.5, 2.5), z=_AXIS_Z, bits=st.sampled_from([128, 256]))
    # tiny alpha and |x| with full mantissas raise P, off and on the real axis
    @example(n=2499, alpha="3.3e-31", z=("1.7e-38", "-2.9e-39"), bits=128)
    @example(n=2499, alpha="3.3e-31", z=("-1.7e-38", "0"), bits=128)
    @example(n=1, alpha="0.5", z=("3.1e-60", "0"), bits=256)
    # the largest degree compared, and the same degree on the axes
    @example(n=6400, alpha=0.75, z=(1.2, 0.05), bits=256)
    @example(n=6400, alpha=1.0, z=(2.0, 0.05), bits=256)
    @example(n=6400, alpha=0.75, z=(-1.2, 0.0), bits=256)
    @example(n=6400, alpha=1.0, z=(0.0, 2.0), bits=256)
    def test_state_within_margin_of_four_product_state(self, n, alpha, z, bits):
        # the one-step form rounds (k+alpha) x g_k where the kernel rounds
        # alpha E, y and (2m+1+alpha) y O; both stay 48 bits below 2^-bits
        a = to_mpf(alpha, bits)
        with mp.workprec(bits):
            x = mpmath.mpc(mpmath.mpf(z[0]), mpmath.mpf(z[1])) / mpmath.sqrt(max(n, 1))
        fp, fc, scale = exact.eval_f_raw(n, a, x, bits)
        rp, rc, rscale = four_product_kernel(n, a, x, bits)
        with mp.workprec(2 * bits + 256):
            two_s = mpmath.ldexp(1, scale - rscale)
            err = max(abs(fp * two_s - rp), abs(fc * two_s - rc)) / max(abs(rp), abs(rc))
        assert err <= mpmath.ldexp(1, -(bits + 48))

    @pytest.mark.parametrize("bits", [128, 256])
    @pytest.mark.parametrize("n, alpha, z", [
        (n, alpha, z)
        for n, alpha in ((300, "0.5"), (1500, "1.234"), (2500, "2.5"), (6400, "0.75"))
        # origin, band strip B, turning point C, saturated strip D, outer A
        for z in ((0.05, 0.05), (1.0, 0.05), (2.05, 0.02), (2.6, 0.1), (1.0, 2.0))
    ] + [(2499, "3.3e-31", ("1.7e-38", "-2.9e-39")),
          # x about 3e-4 on the real axis at odd n: g_n = x O is formed last
          (1601, "1.0", (0.012, 0.0))])
    def test_state_within_margin_of_wider_run(self, n, alpha, z, bits):
        # the kernel's own rounding stays 48 bits below 2^-bits: the state
        # against the same kernel on the same x and alpha at bits + 128
        a = to_mpf(alpha, bits)
        with mp.workprec(bits):
            x = mpmath.mpc(mpmath.mpf(z[0]), mpmath.mpf(z[1])) / mpmath.sqrt(n)
        fp, fc, scale = exact.eval_f_raw(n, a, x, bits)
        rp, rc, rscale = exact.eval_f_raw(n, a, x, bits + 128)
        with mp.workprec(2 * bits + 256):
            two_s = mpmath.ldexp(1, scale - rscale)
            err = max(abs(fp * two_s - rp), abs(fc * two_s - rc)) / max(abs(rp), abs(rc))
        assert err <= mpmath.ldexp(1, -(bits + 48))

    @given(n=st.integers(1, 2500), alpha=_unit(0.5, 2.5), z=_REGION_Z, bits=st.sampled_from([128, 256]))
    @example(n=6400, alpha=0.75, z=(1.2, 0.05), bits=256)
    @example(n=6400, alpha=2.5, z=(3.0, 3.0), bits=128)
    def test_state_in_final_window(self, n, alpha, z, bits):
        # between checks the state may roam over [P-64, P+48] and beyond;
        # the last renormalisation puts the largest bit length of the four
        # ints back into [P-16, P+16], i.e. its exponent relative to 2^-P
        a = to_mpf(alpha, bits)
        with mp.workprec(bits):
            x = mpmath.mpc(mpmath.mpf(z[0]), mpmath.mpf(z[1])) / mpmath.sqrt(n)
        fp, fc, _ = exact.eval_f_raw(n, a, x, bits)
        m = max(t[2] + t[3] for v in (fp, fc) for t in (v.real._mpf_, v.imag._mpf_) if t[1])
        assert -exact.RENORM_BITS <= m <= exact.RENORM_BITS

    @given(n=st.integers(1, 2500), alpha=_unit(0.5, 2.5), z=_REGION_Z, bits=st.sampled_from([128, 256]))
    @example(n=6400, alpha=0.75, z=(1.2, 0.05), bits=256)
    def test_monic_is_f_over_leading_coeff(self, n, alpha, z, bits):
        # eval_monic_rescaled drops the n! of g_n = n! f_n against the one in
        # gamma_n; the long way round through f_n agrees to the rounding
        a = to_mpf(alpha, bits)
        zc = to_mpc(z, bits)
        v = exact.eval_monic_rescaled(n, a, zc, bits)
        with working(bits):
            x = round_to(bits, zc / mpmath.sqrt(n))
        f = exact.eval_f(n, a, x, bits)
        lg = exact.log_leading_coeff(n, a, bits)
        assert v.is_zero() == f.is_zero() and v.phase == f.phase
        if v.is_zero():
            return
        with mp.workprec(bits + 64):
            tol = mpmath.ldexp(1, -(bits - 8)) * max(1, abs(v.log_mod))
            assert abs(v.log_mod - (f.log_mod - lg)) <= tol

    def test_tiny_inputs_raise_fraction_bits(self):
        bits = 128
        a = to_mpf("3.3e-31", bits)
        x = to_mpc(("1.7e-40", "-2.9e-41"), bits)
        raws = a._mpf_, x.real._mpf_, x.imag._mpf_
        P = fixed_bits(bits + exact.FIXED_GUARD, *raws)
        assert P > bits + exact.FIXED_GUARD
        for t in raws:
            assert fixed_raw(raw_fixed(t, P), P) == t
        # f_0 = 1 and f_1 = alpha x to the state's 2^-P resolution
        fp, fc, scale = exact.eval_f_raw(1, a, x, bits)
        assert scale == 0 and fp == 1
        with mp.workprec(3 * P):
            assert abs(fc - a * x) <= mpmath.ldexp(2, -P)


class TestLeadingCoeff:
    def test_small_degrees(self):
        # gamma_0 = 1, gamma_1 = alpha, gamma_2 = alpha(alpha+1)/2
        a = mpmath.mpf("1.25")
        assert abs(exact.log_leading_coeff(0, a, 128)) < mpmath.mpf(2) ** -110
        with working(160):
            assert rel_diff(exact.log_leading_coeff(1, a, 128), mpmath.log(a), 128) < mpmath.mpf(2) ** -110
            ref2 = mpmath.log(a * (a + 1) / 2)
        assert rel_diff(exact.log_leading_coeff(2, a, 128), ref2, 128) < mpmath.mpf(2) ** -110

    def test_monic_degree_one(self):
        # pi_1(n^(-1/2) z) = n^(-1/2) alpha z / gamma_1 = n^(-1/2) z
        v = exact.eval_monic_rescaled(1, mpmath.mpf("2.5"), mpmath.mpc(3, 1), 128)
        with working(160):
            ref = mpmath.mpc(3, 1) / mpmath.sqrt(mpmath.mpf(1))
        assert rel_diff(v.to_complex(160), ref, 128) < mpmath.mpf(2) ** -110


class TestWeight:
    def test_positive_on_reals(self):
        for x in ("0.5", "1", "2"):
            v = exact.weight_wd(1, mpmath.mpf(x), 128)
            assert mpmath.isfinite(v.log_mod)
            assert abs(v.phase) < mpmath.mpf(2) ** -100  # positive value

    def test_even_in_x(self):
        a = mpmath.mpf("0.8")
        v1 = exact.weight_wd(a, mpmath.mpf("1.3"), 128)
        v2 = exact.weight_wd(a, mpmath.mpf("-1.3"), 128)
        assert v1.log_mod - v2.log_mod == 0

    def test_unit_value(self):
        # alpha = 1, x = 1: 1^(-1) e^0 / Gamma(1) = 1
        v = exact.weight_wd(1, 1, 128)
        assert abs(v.log_mod) < mpmath.mpf(2) ** -110 and abs(v.phase) < mpmath.mpf(2) ** -110

    def test_imaginary_axis_rejected(self):
        with pytest.raises(DomainError):
            exact.weight_wd(1, mpmath.mpc(0, 2), 128)

    @pytest.mark.parametrize("z", [("nan", 1), (1, "inf"), ("-inf", "nan")])
    def test_non_finite_rejected(self, z):
        z = to_mpc(z, 128)
        with pytest.raises(DomainError) as err:
            exact.weight_wd(1, z, 128)
        assert str(err.value) == f"weight_wd: z={z} is not finite"

    @settings(max_examples=60)
    @given(y=st.floats(-1e3, 1e3).filter(lambda y: abs(y) >= 1e-30), k=st.integers(0, 1100),
           side=st.sampled_from([-1, 0, 1]), bits=st.sampled_from([128, 256]))
    @example(y=2.0, k=0, side=0, bits=128)
    @example(y=0.5, k=65, side=1, bits=128)  # inside the old tolerance 2^-64 |z|
    @example(y=-1e-30, k=1100, side=-1, bits=256)
    def test_axis_rule_is_exact(self, y, k, side, bits):
        # the imaginary axis is the cut: Re z = 0 raises, and a point
        # 2^-k min(1, |y|) off it, however close, evaluates
        with mp.workprec(bits):
            y = to_mpf(y, bits)
            x = side * mpmath.ldexp(min(1, abs(y)), -k)
        z = to_mpc((x, y), bits)
        if side == 0:
            with pytest.raises(DomainError, match="imaginary axis"):
                exact.weight_wd(1, z, bits)
        else:
            v = exact.weight_wd(1, z, bits)
            assert mpmath.isfinite(v.log_mod) and mpmath.isfinite(v.phase)

    @pytest.mark.parametrize("alpha, x", [(2, 1), (3, 1), (3, -1), (5, "0.5")])
    def test_zero_at_gamma_poles(self, alpha, x):
        # 1/Gamma(1/x^2 + 1 - alpha) vanishes where 1/x^2 + 1 - alpha = 0, -1, ...
        assert exact.weight_wd(alpha, mpmath.mpf(x), 128).is_zero()

    def test_sign_for_alpha_above_one(self):
        # alpha = 3, x = 0.9: Gamma(1/0.81 - 2) < 0, so w_d = -0.64403...
        # (mpmath's gamma at 256 bits), phase pi
        x = to_mpf("0.9", 128)
        v = exact.weight_wd(3, x, 128)
        with working(256):
            s = 1 / (x * x)
            ref = s ** (s - 4) * mpmath.exp(3 - s) / mpmath.gamma(s - 2)
            assert mpmath.mpf("-0.64404") < ref < mpmath.mpf("-0.64403")
            assert abs(v.phase - mpmath.pi) < mpmath.ldexp(1, -120)
        assert rel_diff(v.to_complex(128), ref, 128) < mpmath.mpf(2) ** -120

    @pytest.mark.parametrize("alpha", ["1", "0.6", "2.5"])
    def test_interpolates_masses_at_nodes(self, alpha):
        # at x_k = (k+alpha)^(-1/2) the continuous weight reproduces the
        # discrete jump (k+alpha)^(k-1) e^-k / k! exactly
        a = mpmath.mpf(alpha)
        for nm in exact.iter_nodes_masses(a, 12, 160):
            wv = exact.weight_wd(a, nm.x, 160)
            with working(200):
                diff = abs(wv.to_complex(200) - nm.mass) / nm.mass
            assert diff < mpmath.mpf(2) ** -140


class TestNodesMasses:
    def test_first_node(self):
        nm = list(exact.iter_nodes_masses(mpmath.mpf("2.0"), 0, 128))[0]
        with working(160):
            assert rel_diff(nm.x, 1 / mpmath.sqrt(mpmath.mpf(2)), 128) < mpmath.mpf(2) ** -110
            assert rel_diff(nm.mass, mpmath.mpf(1) / 2, 128) < mpmath.mpf(2) ** -110

    def test_alpha_one_k_one(self):
        nm = list(exact.iter_nodes_masses(1, 1, 128))[1]
        with working(160):
            assert rel_diff(nm.x, 1 / mpmath.sqrt(mpmath.mpf(2)), 128) < mpmath.mpf(2) ** -110
            assert rel_diff(nm.mass, mpmath.exp(mpmath.mpf(-1)), 128) < mpmath.mpf(2) ** -110

    def test_monotone_nodes(self):
        nodes = list(exact.iter_nodes_masses(1, 50, 128))
        xs = [nm.x for nm in nodes]
        assert all(xs[i] > xs[i + 1] for i in range(len(xs) - 1))
        assert all(nm.mass > 0 for nm in nodes)

    def test_stirling_mass_limit(self):
        # mass_k * k^(3/2) -> e^alpha / sqrt(2 pi) from below
        a = mpmath.mpf("1.5")
        with working(160):
            lim = mpmath.exp(a) / mpmath.sqrt(2 * mpmath.pi)
            prev_gap = None
            for k in (100, 1000, 10000):
                nm = list(exact.iter_nodes_masses(a, k, 128))[-1]
                val = nm.mass * mpmath.mpf(k) ** mpmath.mpf("1.5")
                gap = lim - val
                assert gap > 0
                if prev_gap is not None:
                    assert gap < prev_gap
                prev_gap = gap


def pair_sum(m, n, alpha, k_max, prec):
    """The (m, n) orthogonality sum, read off ``ortho_matrix``."""
    return exact.ortho_matrix(alpha, max(m, n), k_max, prec)[(min(m, n), max(m, n))]


class TestOrtho:
    def test_k_max_zero_rejected(self):
        with pytest.raises(ConfigError, match="k_max must be >= 1"):
            exact.ortho_matrix(1, 2, 0, 128)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ConfigError) as err:
            exact.ortho_matrix(1, -1, 50, 128)
        assert str(err.value) == "max_deg must be >= 0"
        with pytest.raises(ConfigError) as err:
            list(exact.iter_nodes_masses(1, -1, 128))
        assert str(err.value) == "k_max must be >= 0"

    @pytest.mark.parametrize("alpha", ["inf", "-inf", "nan"])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ConfigError):
            exact.ortho_matrix(alpha, 2, 50, 128)
        with pytest.raises(ConfigError):
            list(exact.iter_nodes_masses(alpha, 2, 128))
        with pytest.raises(ConfigError):
            exact.h_norm(2, alpha, 128)

    @pytest.mark.parametrize("args", [(1, 2, "inf", 0, 128), (1, 2, -3, -5, 128)])
    def test_odd_pair_validated(self, args):
        # an odd pair's exact zero is returned only after alpha and k_max pass
        with pytest.raises(ConfigError):
            pair_sum(*args)

    def test_odd_pairs_exact_zero(self):
        s = pair_sum(1, 2, 1, 500, 128)
        assert s.exact_zero and s.value == 0 and s.tail_bound == 0

    def test_diagonal_converges_to_h(self):
        s = pair_sum(0, 0, 1, 20000, 128)
        with working(160):
            target = 2 * mpmath.e
            assert abs(s.value - target) <= s.tail_bound
        s2 = pair_sum(2, 2, 1, 20000, 128)
        h2 = exact.h_norm(2, 1, 128)
        assert abs(s2.value - h2) <= s2.tail_bound

    def test_offdiag_within_tail(self):
        s = pair_sum(0, 2, 1, 20000, 128)
        assert abs(s.value) <= s.tail_bound

    def test_tail_decays_like_sqrt(self):
        errs = []
        with working(160):
            target = 2 * mpmath.e
            for k in (2000, 8000, 32000):
                s = pair_sum(0, 0, 1, k, 128)
                errs.append((abs(s.value - target), s.tail_bound))
        for err, tail in errs:
            assert err <= tail
        # quadrupling k halves both the error and the bound (~k^-1/2)
        assert errs[1][0] / errs[0][0] < 0.7
        assert errs[2][0] / errs[1][0] < 0.7
        assert abs(errs[1][1] / errs[0][1] - 0.5) < 0.05

    def test_offdiag_decays_at_tail_rate(self):
        # even off-diagonal sums tend to 0 at the k^-1/2 rate their
        # reported bound promises
        errs = []
        for k in (2000, 8000, 32000):
            s = pair_sum(0, 2, 1, k, 128)
            assert abs(s.value) <= s.tail_bound
            errs.append((abs(s.value), s.tail_bound))
        assert errs[1][0] / errs[0][0] < 0.7 and errs[2][0] / errs[1][0] < 0.7
        assert abs(errs[1][1] / errs[0][1] - 0.5) < 0.05

    def test_h_norm_values(self):
        with working(160):
            assert rel_diff(exact.h_norm(0, 1, 128), 2 * mpmath.e, 128) < mpmath.mpf(2) ** -110
            assert rel_diff(exact.h_norm(1, 1, 128), mpmath.e, 128) < mpmath.mpf(2) ** -110


def mpmath_pair_sums(a, max_deg, k_max, wp):
    """The even orthogonality sums by a plain mpmath loop at ``wp`` bits:
    nodes and masses from mpmath's log, sqrt and exp, and the real
    recurrence in mpmath (the loop the fixed-point kernel replaced)."""
    pairs = [(m, n) for m in range(max_deg + 1) for n in range(m, max_deg + 1) if (m + n) % 2 == 0]
    with mp.workprec(wp):
        acc = dict.fromkeys(pairs, mpmath.mpf(0))
        log_fact = mpmath.mpf(0)
        for k in range(k_max + 1):
            s = k + a
            if k > 0:
                log_fact += mpmath.log(k)
            mass = mpmath.exp((k - 1) * mpmath.log(s) - k - log_fact)
            x = 1 / mpmath.sqrt(s)
            f = [mpmath.mpf(1), a * x]
            for j in range(1, max_deg):
                f.append(((j + a) * (x * f[j]) - f[j - 1]) / (j + 1))
            for m, n in pairs:
                acc[(m, n)] += f[m] * f[n] * mass
        return {p: 2 * v for p, v in acc.items()}


class TestOrthoKernel:
    """The fixed-point orthogonality kernel and its node/mass generator."""

    @given(alpha=_unit(0.5, 2.5), k_max=st.integers(1, 2000), max_deg=st.integers(0, 6),
           bits=st.sampled_from([128, 192]))
    # more nodes than the strategy draws: the mass error grows with k
    @example(alpha=0.7, k_max=5000, max_deg=4, bits=128)
    def test_sums_match_reference(self, alpha, k_max, max_deg, bits):
        a = to_mpf(alpha, bits)
        mat = exact.ortho_matrix(a, max_deg, k_max, bits)
        ref = mpmath_pair_sums(a, max_deg, k_max, 2 * bits + 64)
        for p, r in ref.items():
            with mp.workprec(2 * bits + 64):
                err = abs(mat[p].value - r) / abs(r)
            assert err <= mpmath.ldexp(1, -(bits - 4)), (p, err)

    @settings(max_examples=6)
    @given(alpha=st.floats(-30, 6).map(lambda e: 10 ** e), k_max=st.integers(1, 3000),
           max_deg=st.integers(0, 10), bits=st.sampled_from([64, 128, 192]))
    # node 0, x_0 = alpha^(-1/2) with mass 1/alpha, dominates at tiny alpha
    @example(alpha=1e-30, k_max=500, max_deg=4, bits=128)
    @example(alpha=1e-20, k_max=500, max_deg=4, bits=128)
    @example(alpha=1e-15, k_max=500, max_deg=4, bits=128)
    @example(alpha=1e-30, k_max=300, max_deg=10, bits=192)
    @example(alpha=1e6, k_max=3000, max_deg=10, bits=64)
    def test_sums_and_bounds_over_alpha_range(self, alpha, k_max, max_deg, bits):
        # the reference recurrence cancels about log2(1/alpha) bits a step
        # at node 0, so its width grows with max_deg log2(1/alpha); a run
        # 128 bits wider must agree with it far below the tested error
        a = to_mpf(alpha, bits)
        wp = 2 * bits + 64 + max_deg * max(0, -int(mpmath.floor(mpmath.log(a, 2))))
        ref, wider = (mpmath_pair_sums(a, max_deg, k_max, w) for w in (wp, wp + 128))
        mat = exact.ortho_matrix(a, max_deg, k_max, bits)
        with mp.workprec(wp + 128):
            for p, r in wider.items():
                assert abs(ref[p] - r) <= mpmath.ldexp(abs(r), -(bits + 32)), p
                s = mat[p]
                err = abs(s.value - r)
                assert err <= mpmath.ldexp(abs(r), -(bits - 4)), (p, err / abs(r))
                # err_bound covers the sum before its rounding to nearest,
                # which adds at most half an ulp, below |value| 2**-bits
                assert err <= s.err_bound + mpmath.ldexp(abs(s.value), -bits), (p, err, s.err_bound)

    @given(alpha=_unit(0.5, 2.5))
    def test_err_bound_tight_on_workload_range(self, alpha):
        for s in exact.ortho_matrix(alpha, 4, 500, 128).values():
            if s.exact_zero:
                assert s.err_bound == 0
            else:
                assert 0 < s.err_bound < mpmath.ldexp(abs(s.value), -(128 + 8)), (s.m, s.n)

    def test_err_bound_useful_at_tiny_alpha(self):
        # node 0 holds nearly all of each moment at alpha << 1, and its mass
        # is one floor: the relative mass error is charged to the rest only
        for s in exact.ortho_matrix("1e-30", 4, 500, 128).values():
            if not s.exact_zero:
                assert s.err_bound < abs(s.value) * mpmath.mpf("1e-5"), (s.m, s.n)

    @given(alpha=st.floats(-30, 1.7).map(lambda e: 10 ** e), k_max=st.integers(1, 5000),
           max_deg=st.integers(0, 10), bits=st.sampled_from([64, 128, 256]))
    @example(alpha=1e-30, k_max=500, max_deg=4, bits=128)
    @example(alpha=50, k_max=1, max_deg=10, bits=64)
    @example(alpha=1.5, k_max=5000, max_deg=10, bits=256)
    def test_tail_samples_within_one_unit(self, alpha, k_max, max_deg, bits):
        # the nine tail-bound samples from the exact coefficients G_j,
        # against the recurrence in mpmath with 64 bits below the unit
        # 2**-P and above the largest |f_j|
        a = to_mpf(alpha, bits)
        P = exact._node_bits(bits, a, k_max)
        A = raw_fixed(a._mpf_, P)
        G = exact._g_coeffs(A, max_deg, P)
        X = exact._fixed_node(A, k_max, P)
        rows = exact._tail_samples(G, X, P)
        assert len(rows) == 9
        for i, F in enumerate(rows):
            Xi = X * i >> 3
            assert len(F) == max_deg + 1
            with mp.workprec(64 + max(abs(v) for v in F).bit_length()):
                x = mpmath.ldexp(Xi, -P)
                f = [mpmath.mpf(1), a * x]
                for j in range(1, max_deg):
                    f.append(((j + a) * x * f[j] - f[j - 1]) / (j + 1))
                for j, v in enumerate(F):
                    assert abs(v - mpmath.ldexp(f[j], P)) < 1, (i, j)

    def test_nodes_masses_are_the_summed_ones(self, monkeypatch):
        # the generator's output as ortho_matrix sees it, with its P
        seen = []
        generator = exact._fixed_nodes_masses

        def recording(A, k_max, P):
            for item in generator(A, k_max, P):
                seen.append((P, A, item))
                yield item

        monkeypatch.setattr(exact, "_fixed_nodes_masses", recording)
        exact.ortho_matrix("1.5", 4, 300, 128)
        monkeypatch.undo()
        nodes = list(exact.iter_nodes_masses("1.5", 300, 128))
        assert len(seen) == len(nodes) == 301
        for nm, (P, A, (k, M)) in zip(nodes, seen):
            X = isqrt_node(A, k, P)
            assert nm.k == k
            assert nm.x._mpf_ == round_to(128, mp.make_mpf(from_man_exp(X, -P)))._mpf_
            assert nm.mass._mpf_ == round_to(128, mp.make_mpf(from_man_exp(M, -P)))._mpf_


def log_exp_generator(A, k_max, P):
    """Independent oracle: the mass generator as a logarithm and an
    exponential per node, raw ``mpf_log``/``mpf_exp`` at P + 8 bits, with
    the exponent (k-1) log s - k - log k! summed on integers scaled by 2**P."""
    wp = P + 8
    log_fact = 0
    for k in range(k_max + 1):
        S = (k << P) + A
        log_s = raw_fixed(mpf_log(fixed_raw(S, P), wp), P)
        if k > 1:
            log_fact += raw_fixed(mpf_log(from_int(k), wp), P)
        e = (k - 1) * log_s - (k << P) - log_fact
        yield k, raw_fixed(mpf_exp(fixed_raw(e, P), wp), P)


def isqrt_node(A, k, P):
    """The oracle's node: 2**P / sqrt(k + alpha) rounded down, on integers."""
    return isqrt((1 << (3 * P)) // ((k << P) + A))


def _dyadic(lo_exp, hi):
    """alpha = m 2**e, m odd below 2**12, from 2**lo_exp up to ``hi``."""
    return st.builds(lambda m, e: mpmath.ldexp(2 * m + 1, e),
                     st.integers(0, 2 ** 11 - 1), st.integers(lo_exp - 12, 20)) \
        .filter(lambda a: mpmath.ldexp(1, lo_exp) <= a <= hi)


class TestNodeMassGenerator:
    """``_fixed_nodes_masses`` against independent oracles."""

    @settings(max_examples=4)
    @given(alpha=_dyadic(-100, 10 ** 6), k_max=st.integers(1, 3000), bits=st.integers(64, 256))
    @example(alpha=mpmath.ldexp(1, -100), k_max=3000, bits=64)
    @example(alpha=mpmath.mpf(10 ** 6), k_max=3000, bits=256)
    def test_within_stated_bound(self, alpha, k_max, bits):
        # |M - 2**P mass_k| < 9k 2**-(P+8) 2**P mass_k + 1, mass_k from
        # loggamma at P + 64 bits (its own error is far below 2**-(P+8))
        a = to_mpf(alpha, bits)
        assert a == alpha
        P = exact._node_bits(bits, a, k_max)
        A = raw_fixed(a._mpf_, P)
        with mp.workprec(P + 64):
            scale = mpmath.ldexp(1, P)
            for k, M in exact._fixed_nodes_masses(A, k_max, P):
                s = k + a
                true = mpmath.exp((k - 1) * mpmath.log(s) - k - mpmath.loggamma(k + 1)) * scale
                slack = (9 * k * mpmath.ldexp(1, -(P + 8)) + mpmath.ldexp(1, -(P + 56))) * true + 1
                assert abs(M - true) < slack, (k, M, true)
                assert exact._fixed_node(A, k, P) == isqrt_node(A, k, P)

    # the grid that rounded values of the two generators must agree on:
    # nodes, pair sums and tail bounds, over moderate, tiny and large alpha
    GRID = [(a, 3000, 5000, 7, 128) for a in ("1", "0.5", "1.5", "2.3", "0.731", "2.4999")] \
        + [(a, 3000, 3000, 4, 192) for a in ("1", "0.5", "1.5", "2.3", "0.731", "2.4999")] \
        + [(a, 3000, 3000, 4, b) for a in ("1e-30", "1e6", "0.000123") for b in (128, 192)] \
        + [("7.25", 3000, 3000, 4, 64), pytest.param("1", 100000, 0, 0, 128, marks=pytest.mark.slow)]

    @pytest.mark.parametrize("alpha, k_nodes, k_sums, max_deg, bits", GRID)
    def test_rounded_values_match_log_exp_oracle(self, monkeypatch, alpha, k_nodes, k_sums, max_deg, bits):
        def rounded():
            nodes = [(nm.x._mpf_, nm.mass._mpf_) for nm in exact.iter_nodes_masses(alpha, k_nodes, bits)]
            sums = {} if not k_sums else {
                p: (s.value._mpf_, s.tail_bound._mpf_)
                for p, s in exact.ortho_matrix(alpha, max_deg, k_sums, bits).items()}
            return nodes, sums

        new = rounded()
        monkeypatch.setattr(exact, "_fixed_nodes_masses", log_exp_generator)
        monkeypatch.setattr(exact, "_fixed_node", isqrt_node)
        assert rounded() == new

    def test_no_per_node_transcendental(self, monkeypatch):
        # every raw libmp function exact imports, counted: one mpf_exp per
        # generator run is allowed, one per node is not
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        patched = [name for name, fn in vars(exact).items()
                   if name.startswith(("mpf_", "mpc_")) and callable(fn)]
        assert {"mpf_exp", "mpf_log"} <= set(patched)
        for name in patched:
            monkeypatch.setattr(exact, name, counted(name, getattr(exact, name)))
        for a in ("1", "0.731", "1e-30"):
            calls.clear()
            list(exact.iter_nodes_masses(a, 2000, 128))
            assert len(calls) <= 1, calls
            calls.clear()
            exact.ortho_matrix(a, 4, 2000, 128)
            assert len(calls) <= 1, calls


class TestGoldenBits:
    """Exact mantissa/exponent tuples of both fixed-point kernels.

    The eval_f_raw states are the complex kernel's full-width integer
    state of g_k = k! f_k (P = bits + 64 fraction bits), each within
    2^-(bits+48) of the same kernel run at P + 128 with alpha rounded to
    bits (2^-189.2, 2^-312.3 and, on the real axis, 2^-315.5), recorded
    with the even/odd loop on y = x^2; the one-step loop they replaced
    read 2^-189.2, 2^-313.9 and 2^-314.0.
    The ortho sum is the moment kernel's rational rounded to 128 bits, and
    its tail bound comes from the samples of f_4 taken from G_4.
    Any change to the operation order, the rounding or the working
    precision moves bits.
    """

    RAW = [
        ((60, "1", ("0.3", "0.2"), 128),
         ((1, 109328478986638937329709300123013245968240262209191455853, -191, 187),
          (0, 62242461632920767049241216395922479860252671048958617483, -192, 186)),
         ((1, 4332237924050418437091647973599879675489120393732902696385, -192, 192),
          (1, 1023772910054546113494146052464035080593098356470247618635, -191, 190)),
         191),
        ((600, "0.75", ("0.05", "-0.0125"), 256),
         ((1, 17515043823497842943734985114704723490962787791386976586064393444803381036645951544381022889581,
           -318, 314),
          (0, 7144629683173572992943046523689904447666858485595075886622454667311234443418771820355286350351,
           -319, 312)),
         ((1, 113813030808484164342587805738361729253783036813200249725617163335581193810911486434219455281935,
           -317, 316),
          (0, 119565907600425718886043902127122535398883184312404380201920889651349949382819179342172621845607,
           -316, 316)),
         2436),
        # real x < 0: the loop for real y and the parity mapping
        ((900, "0.7", ("-0.045", "0"), 256),
         ((1, 2838542752458434446202112346864935444142550062792311183737910578066558462239993066443466338891,
           -317, 311), (0, 0, 0, 0)),
         ((0, 1644951938374967561082761152591055293995243989304837711217031054234484889450472740228660471199671,
           -320, 320), (0, 0, 0, 0)),
         3768),
    ]

    @pytest.mark.parametrize("args,prev,curr,scale", RAW, ids=["n60-128bit", "n600-256bit", "n900-256bit-real"])
    def test_eval_f_raw(self, args, prev, curr, scale):
        n, alpha, x, prec = args
        p, c, s = exact.eval_f_raw(n, alpha, to_mpc(x, prec), prec)
        assert (p.real._mpf_, p.imag._mpf_) == prev
        assert (c.real._mpf_, c.imag._mpf_) == curr
        assert s == scale

    def test_ortho_pair_sum(self):
        s = exact.ortho_matrix("1.5", 4, 300, 128)[(4, 4)]
        # the value is the 512-bit sum correctly rounded to 128 bits
        assert s.value._mpf_ == (0, 335740166672954924149686840923567923485, -132, 128)
        assert s.tail_bound._mpf_ == (0, 281009235413652135176438007779960229525, -133, 128)
