from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp

from tcasym.exact import NodeMass
from tcasym.mpnum import (
    GUARD,
    ConfigError,
    DomainError,
    LogComplex,
    _sign,
    _w_root,
    add_guarded,
    bits_of,
    fixed_bits,
    fixed_mpf,
    fixed_raw,
    logc_add,
    raw_fixed,
    round_to,
    sqrt_zsq_minus4,
    to_mpc,
    to_mpf,
    working,
)
from tcasym.specfun import AiryQuartet

from conftest import rel_diff


class TestPrecision:
    def test_bits_floor(self):
        for b in (16, 63):
            with pytest.raises(ConfigError):
                bits_of(b)
        assert bits_of(64) == 64
        assert bits_of(192) == 192


class TestFixedPoint:
    """The fixed-point format of the integer kernels: a raw mpf converts to
    an int at P = fixed_bits(...) fraction bits and back without loss, and
    an int leaves rounded once to nearest."""

    @given(man=st.integers(-(1 << 300), 1 << 300), exp=st.integers(-3000, 3000),
           P0=st.integers(0, 400))
    @example(man=3, exp=-3000, P0=128)  # tiny: P rises to 3000
    @example(man=-((1 << 300) - 1), exp=2500, P0=64)  # huge and negative
    @example(man=0, exp=0, P0=64)
    def test_round_trip_exact(self, man, exp, P0):
        t = from_man_exp(man, exp)
        P = fixed_bits(P0, t)
        assert P >= P0 and (not man or P >= -t[2])
        assert fixed_raw(raw_fixed(t, P), P) == t

    @given(v=st.integers(-(1 << 700), 1 << 700), P=st.integers(0, 800),
           bits=st.integers(64, 320))
    @example(v=(1 << 200) + 1, P=100, bits=64)  # below half an ulp: rounds down
    @example(v=3 << 64, P=3, bits=64)  # exactly representable
    def test_fixed_mpf_correctly_rounded(self, v, P, bits):
        assert fixed_mpf(v, P, bits) == mpmath.fdiv(v, 1 << P, prec=bits, rounding="n")


class TestSqrtZsqMinus4:
    def test_real_point(self):
        v = sqrt_zsq_minus4(3, 128)
        with working(160):
            ref = mpmath.sqrt(mpmath.mpf(5))
        assert rel_diff(v, ref, 128) < mpmath.mpf(2) ** -120

    def test_imaginary_axis_branch(self):
        # continuity from large |z| down the imaginary axis fixes the sign:
        # value ~ z at infinity, so on i*(0, inf) the value is i*sqrt(y^2+4)
        v = sqrt_zsq_minus4(mpmath.mpc(0, 1), 128)
        with working(160):
            ref = mpmath.mpc(0, mpmath.sqrt(mpmath.mpf(5)))
        assert rel_diff(v, ref, 128) < mpmath.mpf(2) ** -120
        # oracle: walk the branch along the imaginary axis from far away
        prev = sqrt_zsq_minus4(mpmath.mpc(0, 100), 128)
        for y in (50, 20, 10, 5, 2, 1):
            cur = sqrt_zsq_minus4(mpmath.mpc(0, y), 128)
            assert abs(cur - prev) < abs(prev)  # no branch flip
            prev = cur

    def test_normalization_at_infinity(self):
        z = mpmath.mpc(10) ** 6
        v = sqrt_zsq_minus4(z, 128)
        assert abs(v / z - 1) < 1e-11

    def test_square_recovers(self, rng):
        for _ in range(50):
            z = mpmath.mpc(rng.uniform(-5, 5), rng.choice([1, -1]) * rng.uniform(0.01, 5))
            v = sqrt_zsq_minus4(z, 192)
            with working(192):
                assert rel_diff(v * v, z * z - 4, 192) < mpmath.mpf(2) ** -(192 - 8)

    def test_schwarz(self, rng):
        for _ in range(20):
            z = mpmath.mpc(rng.uniform(-5, 5), rng.uniform(0.01, 5))
            a = sqrt_zsq_minus4(z, 128)
            b = sqrt_zsq_minus4(mpmath.conj(z), 128)
            # exact comparisons: sums of opposite values avoid re-rounding
            assert a.real - b.real == 0 and a.imag + b.imag == 0

    @pytest.mark.parametrize("z", [0, 1, -2, 2, 1.999, mpmath.mpc(0.5, 0)])
    def test_cut_rejected(self, z):
        with pytest.raises(DomainError, match="lies on the cut"):
            sqrt_zsq_minus4(z, 128)

    @pytest.mark.parametrize("bits", [128, 256, 320])
    def test_close_to_cut_evaluates(self, bits):
        # 1e-30 above or below the cut: the value of that side, about
        # +-i sqrt(3.75), to rounding against a run 256 bits wider
        for y in ("1e-30", "-1e-30"):
            z = to_mpc(("0.5", y), bits)
            v = sqrt_zsq_minus4(z, bits)
            ref = mp.make_mpc(_w_root(z._mpc_, bits + 256 + GUARD))
            assert rel_diff(v, ref, bits + 256) <= mpmath.ldexp(1, 1 - bits)
            assert (v.imag > 0) == (z.imag > 0)

    @pytest.mark.parametrize("z", [("nan", 0), ("nan", "nan"), ("inf", 0)])
    def test_non_finite_rejected(self, z):
        # refused as not finite, not reported as a cut point (nan, 0) or
        # evaluated to nan or inf + nan i
        with pytest.raises(DomainError, match="is not finite"):
            sqrt_zsq_minus4(to_mpc(z, 128), 128)

    def test_one_sided_limits(self):
        # the product of principal roots behind sqrt_zsq_minus4 (and behind
        # u in auxfun) gives a band point its upper-half-plane limit
        # +i sqrt(4-x^2); a point just below the band sees the conjugate
        up = mp.make_mpc(_w_root(mpmath.mpc(1)._mpc_, 128 + GUARD))
        below = mp.make_mpc(_w_root(mpmath.mpc(1, "-1e-30")._mpc_, 128 + GUARD))
        with working(160):
            ref = mpmath.sqrt(mpmath.mpf(3))
            assert up.real == 0 and abs(up.imag - ref) < mpmath.mpf(2) ** -125
            assert abs(below + up) < 1e-25
        # off the cut it is the branch ~z on both rays: the two cut
        # contributions cancel on (-inf, -2)
        for x in (3, -3):
            v = mp.make_mpc(_w_root(mpmath.mpc(x)._mpc_, 128 + GUARD))
            with working(160):
                ref = mpmath.sign(x) * mpmath.sqrt(mpmath.mpf(5))
            assert v.imag == 0 and rel_diff(v, ref, 128) < mpmath.mpf(2) ** -120

_TERMS = st.lists(st.tuples(st.integers(-2 ** 80, 2 ** 80), st.integers(-3000, 3000)), max_size=5)


class TestExactSign:
    @settings(max_examples=200)
    @given(terms=_TERMS, cancelled=st.integers(0, 5), rest=_TERMS)
    @example(terms=[(1, 2000)], cancelled=1, rest=[(-1, -3000), (1, -2999)])
    @example(terms=[(3, 0), (1, -1)], cancelled=0, rest=[(-7, -1), (1, -3000)])
    @example(terms=[(1, 0)], cancelled=0, rest=[(-1, -2)] * 4)  # four terms below reach 2^0
    def test_matches_fraction(self, terms, cancelled, rest):
        # the sign of a sum of terms m 2^e, some of which cancel exactly,
        # with exponents thousands of bits apart
        terms = terms + [(-m, e) for m, e in terms[:cancelled]] + rest
        total = sum(Fraction(m) * Fraction(2) ** e for m, e in terms)
        assert _sign(*terms) == (total > 0) - (total < 0)
        assert _sign(*reversed(terms)) == _sign(*terms)


class TestAddGuarded:
    """Region C's sums of mpc terms follow ``logc_add``'s zero and
    ``cancel`` rule.  Brackets x + y are built with y = -x (1 - 2^-k) for a
    loss of k bits, at C's working width for 256 bits."""

    WORK = 256 + 24

    @staticmethod
    def _pair(k):
        with working(2 * TestAddGuarded.WORK):
            x = mpmath.mpc(3, 4) * mpmath.exp(mpmath.mpc(5, 0.7))
            y = -x * (1 - mpmath.ldexp(1, -k)) if k else -x
        return x, y

    @staticmethod
    def _logc(v):
        with working(2 * TestAddGuarded.WORK):
            return LogComplex(mpmath.log(abs(v)), mpmath.arg(v))

    def _both(self, x, y):
        s, cancelled = add_guarded(x._mpc_, y._mpc_, self.WORK)
        s = mp.make_mpc(s)
        v, logc_cancelled = logc_add(self._logc(x), self._logc(y), self.WORK)
        assert cancelled == logc_cancelled
        assert (s == 0) == v.is_zero()
        return s, cancelled

    def test_exact_annihilation(self):
        s, cancelled = self._both(*self._pair(0))
        assert s == 0 and cancelled

    @pytest.mark.parametrize("k, cancelled", [(WORK // 2 - 1, False), (WORK // 2 + 1, True)])
    def test_cancel_threshold(self, k, cancelled):
        # a loss just below and just above half the working width
        s, flag = self._both(*self._pair(k))
        assert flag is cancelled and s != 0
        with working(self.WORK):
            x, _ = self._pair(k)
            assert rel_diff(abs(s), mpmath.ldexp(abs(x), -k), self.WORK) < mpmath.ldexp(1, -(self.WORK - k - 8))

    @pytest.mark.parametrize("k, zero", [(WORK - 5, False), (WORK - 3, True)])
    def test_zero_threshold(self, k, zero):
        # a residual just above and just below 2^-(work-4) of the larger term
        s, flag = self._both(*self._pair(k))
        assert flag and (s == 0) is zero

    def test_zero_term_leaves_the_other(self):
        x = to_mpc(self._pair(0)[0], self.WORK)
        zero = mpmath.mpc(0)._mpc_
        assert add_guarded(x._mpc_, zero, self.WORK) == (x._mpc_, False)
        assert add_guarded(zero, zero, self.WORK) == (zero, False)

    def test_far_apart_terms(self):
        # terms e^(+-200) apart, as the two of a bracket far from the axis
        with working(self.WORK):
            x = mpmath.exp(mpmath.mpc(200, 1))
            y = mpmath.exp(mpmath.mpc(-200, 2))
        s, flag = self._both(x, y)
        assert not flag and s == x


class TestLogComplexOps:
    def test_add_exact_cancellation(self):
        with working(128):
            a = LogComplex(mpmath.mpf(3), mpmath.mpf(0))
            b = LogComplex(mpmath.mpf(3), +mpmath.pi)
        v, cancelled = logc_add(a, b, 128)
        assert cancelled
        assert v.is_zero()

    def test_add_flag_threshold(self):
        # residual just above/below 2^-64 at 128 bits
        with working(160):
            tiny = mpmath.ldexp(mpmath.mpf(1), -80)
            a = LogComplex(mpmath.mpf(0), mpmath.mpf(0))
            b = LogComplex(mpmath.log(1 - tiny), +mpmath.pi)
        v, cancelled = logc_add(a, b, 128)
        assert cancelled  # residual ~2^-80 < 2^-64
        with working(160):
            big = mpmath.ldexp(mpmath.mpf(1), -20)
            c = LogComplex(mpmath.log(1 - big), +mpmath.pi)
        v2, cancelled2 = logc_add(a, c, 128)
        assert not cancelled2
        with working(160):
            ref = mpmath.log(mpmath.ldexp(mpmath.mpf(1), -20))
        assert rel_diff(v2.log_mod, ref, 128) < 1e-30

    def test_add_against_complex_arithmetic(self, rng):
        for _ in range(40):
            za = mpmath.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            zb = mpmath.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if za == 0 or zb == 0 or za + zb == 0:
                continue
            with working(192):
                a = LogComplex.from_exponent(mpmath.log(za), 192)
                b = LogComplex.from_exponent(mpmath.log(zb), 192)
            v, _ = logc_add(a, b, 192)
            assert rel_diff(v.to_complex(192), za + zb, 192) < mpmath.mpf(2) ** -(192 - 12)

    def test_zero_handling(self):
        z = LogComplex.zero()
        one = LogComplex.from_exponent(0, 128)
        assert logc_add(z, one, 128)[0] == one
        assert logc_add(one, z, 128) == (one, False)
        v = z.to_complex(128)
        assert v == 0 and isinstance(v, mpmath.mpc)

    def test_from_to_complex_roundtrip(self, rng):
        for _ in range(20):
            z = mpmath.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if z == 0:
                continue
            with working(192):
                v = LogComplex.from_exponent(mpmath.log(z), 192)
            assert rel_diff(v.to_complex(192), z, 192) < mpmath.mpf(2) ** -(192 - 8)


def _bits(v):
    return (v.real._mpf_, v.imag._mpf_) if isinstance(v, mpmath.mpc) else v._mpf_


_SPECIALS = (mpmath.mpf(0), mpmath.inf, -mpmath.inf, mpmath.nan)


@st.composite
def _near_width(draw):
    """(bits, x, y): a width in 64 ... 1024 and two parts, each a special
    value or an mpf whose mantissa has bits - 1, bits or bits + 1 bits."""
    bits = draw(st.integers(64, 1024))

    def part():
        if draw(st.integers(0, 4)) == 0:
            return draw(st.sampled_from(_SPECIALS))
        w = bits + draw(st.sampled_from([-1, 0, 1]))
        man = draw(st.integers(2 ** (w - 1), 2 ** w - 1)) | 1  # odd: exactly w bits
        return mp.make_mpf(from_man_exp(draw(st.sampled_from([1, -1])) * man, draw(st.integers(-1100, 1100))))

    return bits, part(), part()


_WIDE = mp.make_mpf(from_man_exp(2 ** 128 + 1, -128))  # 129 bits


class TestRounding:
    """``to_mpf`` and ``to_mpc`` give the bits of a conversion run in its
    own context at the target width, and return an input whose mantissas
    already fit as the same object."""

    @given(case=_near_width())
    @example(case=(128, _WIDE, mpmath.mpf(1)))  # an mpc with only its real part wide
    @example(case=(128, mpmath.mpf(1), _WIDE))  # ... and with only its imaginary part wide
    @example(case=(64, mpmath.nan, -mpmath.inf))
    def test_matches_context_path(self, case):
        bits, x, y = case
        z = mp.make_mpc((x._mpf_, y._mpf_))
        with mp.workprec(bits):
            want_x, want_z = mpmath.mpf(x), mpmath.mpc(z)
        got_x, got_z = to_mpf(x, bits), to_mpc(z, bits)
        assert got_x._mpf_ == want_x._mpf_
        assert got_z._mpc_ == want_z._mpc_
        assert (got_x is x) == (x._mpf_[3] <= bits)
        assert (got_z is z) == (x._mpf_[3] <= bits and y._mpf_[3] <= bits)

    @pytest.mark.parametrize("record", [
        LogComplex(mpmath.mpf(1), mpmath.mpf(2)),
        NodeMass(3, mpmath.mpf(1), mpmath.mpf(2)),
        AiryQuartet(*[mpmath.mpc(1, 2)] * 4),
    ], ids=lambda r: type(r).__name__)
    def test_record_is_not_a_number(self, record):
        # records are tuples, and to_mpc reads a tuple of two as (re, im):
        # only a plain one is a point
        for convert in (to_mpf, to_mpc):
            with pytest.raises(TypeError, match="cannot create mpf"):
                convert(record, 64)
        assert to_mpc((1, 2), 64) == mpmath.mpc(1, 2)


class TestFromExponent:
    """``LogComplex.from_exponent`` is the one exponent-to-LogComplex
    constructor: each component rounded once to the target width, whatever
    the ambient precision, exactly as the hand-built form rounds it."""

    @given(re=st.floats(-1e4, 1e4), im=st.floats(-1e4, 1e4), real=st.booleans(),
           b=st.sampled_from([64, 128, 192, 256, 288]), extra=st.integers(1, 300),
           ambient=st.sampled_from([53, 500]))
    @example(re=2.5, im=0.0, real=True, b=128, extra=64, ambient=500)
    @example(re=-7.0, im=3.0, real=False, b=256, extra=1, ambient=53)
    def test_matches_hand_built(self, re, im, real, b, extra, ambient):
        # times pi at a width above b, so the mantissas need rounding
        with mp.workprec(b + extra):
            w = mpmath.mpf(re) * mpmath.pi if real else mpmath.mpc(re, im) * mpmath.pi
        with mp.workprec(ambient):
            got = LogComplex.from_exponent(w, b)
            want = LogComplex(round_to(b, w.real), round_to(b, w.imag))
        assert (got.log_mod._mpf_, got.phase._mpf_) == (want.log_mod._mpf_, want.phase._mpf_)

    @given(re=st.floats(-1e4, 1e4), im=st.floats(-1e4, 1e4),
           b=st.sampled_from([64, 128, 256]), extra=st.integers(1, 300),
           ambient=st.sampled_from([53, 500]))
    def test_to_mpc_rounds_like_round_to(self, re, im, b, extra, ambient):
        with mp.workprec(b + extra):
            v = mpmath.mpc(re, im) * mpmath.e
        with mp.workprec(ambient):
            assert _bits(to_mpc(v, b)) == _bits(round_to(b, v))

    def test_minus_inf_is_zero(self):
        with mp.workprec(300):
            w = mpmath.mpc(mpmath.mpf("-inf"), mpmath.pi)
        v = LogComplex.from_exponent(w, 128)
        assert v.is_zero()
        assert v.phase._mpf_ == round_to(128, w.imag)._mpf_

