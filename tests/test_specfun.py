import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcasym import specfun
from tcasym.asym import Params
from tcasym.harness import compare_point
from mpmath.libmp import mpc_log, mpf_neg
from tcasym.mpnum import GUARD, DomainError, PoleError, bits_of, fixed_bits, round_to, to_mpc, to_mpf, working
from tcasym.specfun import (
    _AIRY_P,
    LOGGAMMA_GUARD,
    AiryQuartet,
    _airy_at_zero,
    _airy_sums,
    _airy_term_count,
    _log_gamma_positive,
    _shift_product,
    _stirling_table,
    _stirling_threshold,
    _term_count,
    airy_quartet,
    bernoulli_fraction,
    log_gamma_complex,
    log_gamma_real,
)

from conftest import rel_diff


def airy_series_reference(z, prec, extra_factor: int = 4):
    """Independent check value: the quartet from mpmath's ``airyai``/``airybi``
    at ``extra_factor`` times the working precision."""
    bits = bits_of(prec)
    wp = bits * extra_factor
    z = to_mpc(z, wp)
    with mpmath.mp.workprec(wp):
        vals = (mpmath.airyai(z), mpmath.airybi(z), mpmath.airyai(z, 1), mpmath.airybi(z, 1))
    return AiryQuartet(*(to_mpc(v, prec) for v in vals))


def bernoulli_by_binomial_sums(m_max):
    """B_0..B_m_max by sum_{j<=k} C(k+1, j) B_j = 0, in Fractions."""
    b = [Fraction(1)]
    for k in range(1, m_max + 1):
        if k % 2 == 1 and k > 1:
            b.append(Fraction(0))
            continue
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli_fraction(0) == 1
        assert bernoulli_fraction(1) == Fraction(-1, 2)
        assert bernoulli_fraction(2) == Fraction(1, 6)
        assert bernoulli_fraction(3) == 0
        assert bernoulli_fraction(12) == Fraction(-691, 2730)

    def test_matches_binomial_recurrence(self):
        # the tangent-number values against the defining recurrence, exactly
        assert [bernoulli_fraction(m) for m in range(421)] == bernoulli_by_binomial_sums(420)


class TestLogGamma:
    def test_gamma_one(self):
        v = log_gamma_complex(1, 128)
        assert abs(v) < mpmath.mpf(2) ** -120

    def test_factorial(self):
        v = log_gamma_complex(5, 128)
        with working(160):
            ref = mpmath.log(mpmath.mpf(24))
        assert rel_diff(v, ref, 128) < mpmath.mpf(2) ** -118

    def test_half_reflection_oracle(self):
        # Gamma(1/2) = sqrt(pi), via the reflection identity at s = 1/2:
        # Gamma(s) Gamma(1-s) = pi / sin(pi s) => Gamma(1/2)^2 = pi
        v = log_gamma_complex(mpmath.mpf(1) / 2, 128)
        with working(160):
            ref = mpmath.log(mpmath.pi) / 2
        assert rel_diff(v, ref, 128) < mpmath.mpf(2) ** -118

    def test_recurrence_property(self, rng):
        for _ in range(25):
            z = mpmath.mpc(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if abs(z.imag) < 0.05:
                continue
            a = log_gamma_complex(z, 192)
            b = log_gamma_complex(z + 1, 192)
            with working(192):
                resid = abs(b - a - mpmath.log(z))
                scale = max(1, abs(b))
            assert resid / scale < mpmath.mpf(2) ** -(192 - 16)

    def test_schwarz(self, rng):
        for _ in range(15):
            z = mpmath.mpc(rng.uniform(-8, 8), rng.uniform(0.05, 6))
            a = log_gamma_complex(z, 128)
            b = log_gamma_complex(mpmath.conj(z), 128)
            assert a.real - b.real == 0 and a.imag + b.imag == 0

    def test_against_library(self, rng):
        # independent implementation cross-check at spot points
        pts = [mpmath.mpc(2, 3), mpmath.mpc(-5.3, 0.2), mpmath.mpc(-5.3, -0.2),
               mpmath.mpc(0.5, 0), mpmath.mpc(12, -40), mpmath.mpc(-30.2, 1e-3),
               mpmath.mpc(-0.5, 0)]
        for z in pts:
            mine = log_gamma_complex(z, 192)
            with working(256):
                ref = mpmath.loggamma(z)
                scale = max(1, abs(ref))
                assert abs(mine - ref) / scale < mpmath.mpf(2) ** -(192 - 12)

    def test_real_path_matches_complex(self):
        for x in ("0.75", "3.5", "1234.25"):
            a = log_gamma_real(mpmath.mpf(x), 160)
            b = log_gamma_complex(mpmath.mpf(x), 160)
            assert abs(a - b.real) <= abs(mpmath.ldexp(a, -150))

    @pytest.mark.parametrize("z", [0, -1, -7])
    def test_poles(self, z):
        with pytest.raises(PoleError):
            log_gamma_complex(z, 128)
        with pytest.raises(PoleError):
            log_gamma_real(0, 128)


# Exact results of a plainer operation order (one logarithm per shift
# step, each Bernoulli ratio converted per term, complex arithmetic for
# real arguments); the kernel reproduces them bit for bit.
_GOLDEN_REAL_272 = {
    "0.5": (0, 4343420193829569392098331731921355054434608873418998304977693505935337479117155667, -272, 272),
    "2.3": (0, 4680297775926785641292656231754521402701406638929046671387655833613334387499259109, -274, 272),
    "1601": (0, 4728496002877564112077170469778469433885977209225642939560520802679855247356036321, -258, 272),
    "1600.7": (0, 2363735414570980111268773711374796937849365653140709414475278749007102736000861573, -257, 271),
}
_GOLDEN_COMPLEX_288 = {
    (-10.07, 0.739): (
        (1, 61071661736974053110904862759580399834699283251841791493965671872853616963098474716195, -281, 285),
        (1, 489044627595750311692685189867927665837145416430960688614785403475196942298535479467351, -283, 288)),
    (-33.6, 64.9): (
        (1, 118878409505131753930255956531699411260123529215069557753531765767207705761474615027353, -278, 286),
        (0, 279293851104211047485847476158378675584542057885457398398778094685267792267063149825887, -280, 288)),
}


# Recorded at 272 bits before log-gamma moved to the fixed-point kernel,
# for arguments the workloads use: alpha, n + alpha and n + 1 (the leading
# coefficient), and alpha - n/z^2 at a region-A point (n = 100, z = 1+2i:
# the shifted branch) and a region-D point (z = 4+0.05i: the reflection
# branch), formed at 280 bits as d_func forms it.
_GOLDEN_ALPHA_272 = {
    "0.5": (0, 4343420193829569392098331731921355054434608873418998304977693505935337479117155667, -272, 272),
    "1.37": (1, 7121426753133621905353878381429428367513800712368086430320464008807501966482492321, -275, 272),
    "2.5": (0, 1080165149643098788490951375317281641765615959425499292207007114527978026467984445, -271, 270),
}
_GOLDEN_SHIFTED_272 = {
    (100, "1.37"): (0, 338525876019525303881384673503445708544363406082024141845931748916763302552675663, -259, 268),
    (100, "1"): (0, 336945137867643814628045740542453802142239451752274557891626873912107808203761027, -259, 268),
    (1600, "1.37"): (0, 2364880209843741459413073526561943065034914766687543838250101934447144699524913219, -257, 271),
    (2000, "1.37"): (0, 6118146827200738143440801600812987387663273948009466193318254346700446769824423279, -258, 272),
    (2000, "1"): (0, 6116844184437936085152250336742254752848894309110917741761757748040330350035327591, -258, 272),
}
_GOLDEN_D_ARG_272 = {
    (1, 2): (
        (0, 5469148298903433893591771143567440254777060089758616587974403647286675982257927311, -268, 272),
        (0, 5160163661478864121599349747762402073991722511311723467894330295385457882295689237, -266, 272)),
    (4, 0.05): (
        (1, 7445947877805564322677562272980044540160474593200533769527041868460666401306241355, -270, 272),
        (1, 4302325640946111491272494944530728322200256007176389251855345136813674410404497097, -267, 272)),
}


def _complex_threshold(x, bits):
    """Shift threshold log_gamma_complex uses at real part x."""
    return _stirling_threshold(bits + GUARD + 8 + int(abs(x)).bit_length())


class TestLogGammaKernel:
    @pytest.mark.parametrize("x", sorted(_GOLDEN_REAL_272))
    def test_golden_real(self, x):
        assert log_gamma_real(mpmath.mpf(x), 272)._mpf_ == _GOLDEN_REAL_272[x]

    @pytest.mark.parametrize("z", sorted(_GOLDEN_COMPLEX_288))
    def test_golden_complex(self, z):
        v = log_gamma_complex(mpmath.mpc(*z), 288)
        assert (v.real._mpf_, v.imag._mpf_) == _GOLDEN_COMPLEX_288[z]

    @pytest.mark.parametrize("a", sorted(_GOLDEN_ALPHA_272))
    def test_golden_alpha(self, a):
        assert log_gamma_real(mpmath.mpf(a), 272)._mpf_ == _GOLDEN_ALPHA_272[a]

    @pytest.mark.parametrize("n, a", sorted(_GOLDEN_SHIFTED_272))
    def test_golden_n_plus_alpha(self, n, a):
        with working(272, 0):
            x = mpmath.mpf(n) + mpmath.mpf(a)
        assert log_gamma_real(x, 272)._mpf_ == _GOLDEN_SHIFTED_272[(n, a)]

    @pytest.mark.parametrize("z", sorted(_GOLDEN_D_ARG_272))
    def test_golden_d_function_argument(self, z):
        with working(256, GUARD + 8):
            zz = mpmath.mpc(*z)
            arg = 1 - 100 / (zz * zz)
        v = log_gamma_complex(arg, 272)
        assert (v.real._mpf_, v.imag._mpf_) == _GOLDEN_D_ARG_272[z]

    @pytest.mark.parametrize("x", [1, 2])
    def test_exact_zeros(self, x):
        # log Gamma(1) = log Gamma(2) = 0: what remains is the rounding of
        # a difference of two ~130-sized values at 296 bits
        assert abs(log_gamma_real(x, 272)) < mpmath.mpf(2) ** -280

    @given(x=st.floats(1e-6, 4000), bits=st.sampled_from([128, 192, 256, 288]))
    @example(x=0.25, bits=256)
    @example(x=46.5, bits=272)
    @example(x=47.5, bits=272)
    # 1024 bits: the shift runs to u ~ 141 with J ~ 200 terms whose
    # coefficients pass 2^1800 (the threshold is 141 at this width)
    @example(x=0.5, bits=1024)
    @example(x=1.37, bits=1024)
    @example(x=2.5, bits=1024)
    @example(x=140.5, bits=1024)
    @example(x=141.5, bits=1024)
    def test_real_against_library(self, x, bits):
        v = log_gamma_real(mpmath.mpf(x), bits)
        with working(2 * bits):
            ref = mpmath.loggamma(mpmath.mpf(x))
            assert abs(v - ref) <= mpmath.ldexp(max(1, abs(ref)), -(bits - 2))

    @given(re=st.floats(-60, 60), im=st.floats(-400, 400), bits=st.sampled_from([128, 192, 256, 288]))
    @example(re=0.75, im=300.0, bits=192)
    @example(re=-40.5, im=-0.125, bits=256)
    @example(re=0.0, im=7.85e-76, bits=128)
    @example(re=-5.0, im=-1e-30, bits=192)
    @example(re=1.37, im=0.5, bits=1024)
    @example(re=0.75, im=-300.0, bits=1024)
    @example(re=-40.5, im=0.125, bits=1024)
    @example(re=140.5, im=2.0, bits=1024)
    def test_complex_against_library(self, re, im, bits):
        z = mpmath.mpc(re, im)
        if im == 0 and re <= 0 and re == int(re):
            return
        v = log_gamma_complex(z, bits)
        with working(2 * bits):
            ref = mpmath.loggamma(z)
            assert abs(v - ref) <= mpmath.ldexp(max(1, abs(ref)), -(bits - 8))

    @given(x=st.floats(0, 4000, exclude_min=True), bits=st.sampled_from([128, 192, 256, 272, 288]))
    @example(x=0.3, bits=256)
    @example(x=1601.0, bits=272)
    def test_real_path_bitwise_complex(self, x, bits):
        # same kernel on an mpf and on an mpc with zero imaginary part
        a = log_gamma_real(mpmath.mpf(x), bits)
        b = log_gamma_complex(mpmath.mpf(x), bits)
        assert b.imag == 0
        assert a == b.real

    @given(re=st.floats(-60, 80), im=st.floats(-400, 400), bits=st.sampled_from([128, 192, 288]))
    # z and z + 1 on the two sides of Re z = 1/2, and reflected both
    @example(re=0.25, im=2.0, bits=192)
    @example(re=-0.25, im=-1e-80, bits=256)
    @example(re=-0.75, im=0.0, bits=128)
    @example(re=-40.5, im=300.0, bits=288)
    @example(re=0.75, im=300.0, bits=192)
    @example(re=0.75, im=-300.0, bits=288)
    @example(re=1.0, im=150.0, bits=128)
    @example(re=_complex_threshold(36.5, 192) - 0.5, im=250.0, bits=192)
    @example(re=_complex_threshold(36.5, 192) + 0.5, im=250.0, bits=192)
    def test_recurrence_residual(self, re, im, bits):
        # log Gamma(z+1) - log Gamma(z) - log z = 0 with no 2 pi i k left
        # over: the shift product for large |Im z| winds many times around
        # the origin, and the branch of its logarithm has to be restored
        # (z + 1 is formed at the test width, where it is exact: at the
        # ambient 53 bits it would round, and the identity would measure
        # that rounding, not the kernel)
        if im == 0 and re <= 0 and re == int(re):
            return
        z = mpmath.mpc(re, im)
        a = log_gamma_complex(z, bits)
        with working(bits):
            zp = z + 1
        b = log_gamma_complex(zp, bits)
        with working(bits):
            resid = abs(b - a - mpmath.log(z))
            scale = max(1, abs(a), abs(b))  # near a pole a is far larger than b
        assert resid / scale < mpmath.mpf(2) ** -(bits - 8)

    def test_shift_product_in_pairs(self):
        # (z+j)(z+s-j) = z^2 + s z + j(s-j): the paired product is the plain
        # one, to the few units of 2^-P its floors cost
        P = 80
        for s in range(1, 12):
            for zr, zi in ((Fraction(3, 2), 0), (Fraction(3, 4), Fraction(-7, 2))):
                z = complex(zr, zi)
                QR, QI, e = _shift_product(int(zr * 2 ** P), int(zi * 2 ** P), s, P)
                want = math.prod(z + j for j in range(s))
                assert abs(complex(QR / 2 ** e, QI / 2 ** e) - want) <= 2 * s * 2.0 ** -P * 4 * abs(want)

    def test_shift_product_winds(self):
        # the example above really does wrap: the arguments of z + j sum
        # to many turns before the Stirling threshold is reached
        import math
        t = _complex_threshold(0.75, 192)
        turns = sum(math.atan2(300.0, 0.75 + j) for j in range(t)) / (2 * math.pi)
        assert turns > 5

    def test_table_cache_bounded(self):
        assert _stirling_table.cache_info().maxsize == 8
        for p in range(100, 120):
            _stirling_table(p)
        assert _stirling_table.cache_info().currsize <= 8

    def test_table_covers_threshold(self):
        # the integer table holds c_j 2^P to within one unit and reaches the
        # first coefficient that meets the stopping rule at |z| = t, the
        # smallest modulus the Stirling sum sees, and no further
        for p in (88, 152, 296, 536):
            coeffs, cuts = _stirling_table(p)[-2:]
            P = p + LOGGAMMA_GUARD
            t = _stirling_threshold(p)
            exact = [bernoulli_fraction(2 * j) / ((2 * j) * (2 * j - 1))
                     for j in range(1, len(coeffs) + 1)]
            assert all(abs(cj - c * 2 ** P) < 1 for cj, c in zip(coeffs, exact))
            met = [abs(c) / Fraction(t) ** (2 * j - 1) < Fraction(1, 2 ** (p + 5))
                   for j, c in enumerate(exact, 1)]
            assert met[-1] and not any(met[:-1])
            assert _term_count(cuts, t) == len(coeffs)

    @pytest.mark.parametrize("p", [152, 296])
    def test_term_count_rule(self, p):
        # J is the first j with log2|c_j| - (2j-1) log2 m < -(p+5)
        coeffs, cuts = _stirling_table(p)[-2:]
        for m in list(range(_stirling_threshold(p), 200)) + [500, 2000, 10 ** 6]:
            def met(j):
                c = bernoulli_fraction(2 * j) / ((2 * j) * (2 * j - 1))
                return math.log2(abs(c)) - (2 * j - 1) * math.log2(m) < -(p + 5)
            first = next(j for j in range(1, len(coeffs) + 1) if met(j))
            assert _term_count(cuts, m) == first

    @pytest.mark.parametrize("arg", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, arg):
        with pytest.raises(DomainError, match="finite"):
            log_gamma_real(mpmath.mpf(arg), 128)
        with pytest.raises(DomainError, match="finite"):
            log_gamma_complex(mpmath.mpc(1, arg), 128)
        with pytest.raises(DomainError, match="finite"):
            log_gamma_complex(mpmath.mpc(arg, 0), 128)


def _near_pole(k, e, sign):
    """-k moved by sign max(1, k) 10^-e, formed exactly enough at 512 bits."""
    with working(512, 0):
        return -mpmath.mpf(k) + sign * max(1, k) * mpmath.mpf(10) ** -e


class TestLogGammaReflection:
    """Re z < 1/2, where the kernel runs on 1 - z and divides sin(pi z) into
    its shift product: against mpmath's log-gamma at twice the width, from
    the D arguments near -400 to 1e-30 relative of a pole, and conjugate
    arguments give conjugate values bit for bit."""

    _RE = st.one_of(st.floats(-500, 0.5, exclude_max=True),
                    st.builds(_near_pole, st.integers(0, 500), st.integers(6, 30), st.sampled_from([-1, 1])))
    _IM = st.one_of(st.sampled_from([0.0, 1e-80, -1e-80]),
                    st.builds(lambda t, sign: sign * 10.0 ** t, st.floats(-12, 4), st.sampled_from([-1, 1])))

    @settings(max_examples=150)
    @given(re=_RE, im=_IM, bits=st.sampled_from([128, 256]))
    @example(re=_near_pole(40, 30, 1), im=0.0, bits=256)
    @example(re=_near_pole(7, 30, -1), im=1e-80, bits=128)
    @example(re=_near_pole(0, 30, -1), im=0.0, bits=128)
    @example(re=-399.7, im=-1e4, bits=256)
    @example(re=0.49, im=1e-80, bits=256)
    def test_against_library(self, re, im, bits):
        with working(bits, 0):
            z = mpmath.mpc(re, im)
        if im == 0 and z.real == int(z.real):
            return
        v = log_gamma_complex(z, bits)
        with working(2 * bits, 0):
            ref = mpmath.loggamma(z)
            assert abs(v - ref) <= mpmath.ldexp(max(1, abs(ref)), -(bits - 8)), (z, v, ref)
        if im:  # conjugated exactly (mpmath.conj rounds at the ambient width)
            w = log_gamma_complex(mpmath.mp.make_mpc((z.real._mpf_, mpf_neg(z.imag._mpf_))), bits)
            assert w.real._mpf_ == v.real._mpf_ and w.imag._mpf_ == mpf_neg(v.imag._mpf_)

    def test_two_raw_logarithms_and_no_mpmath_function(self, monkeypatch):
        # the reflection runs in the kernel: its raw mpc_log (log u and
        # log(prod / sin(pi z))) twice, and nothing of mpmath's namespace
        # but its types, and no precision context
        logs, names, contexts = [], [], []

        class Watched:
            def __getattr__(self, name):
                names.append(name)
                return getattr(mpmath, name)

        def counted(*args):
            logs.append(args)
            return mpc_log(*args)

        workprec = mpmath.mp.workprec
        monkeypatch.setattr(specfun, "mpc_log", counted)
        monkeypatch.setattr(specfun, "mpmath", Watched())
        monkeypatch.setattr(mpmath.mp, "workprec", lambda *a, **k: contexts.append(a) or workprec(*a, **k))
        for z, shifted in (((-5.25, 0.125), True), ((-0.3, 0), True), ((-400.5, 12), False), ((0.2, -3), True)):
            arg = to_mpc(z, 256)
            specfun._stirling_table(256 + GUARD + 8 + 9)  # a cold table takes logs of its own
            logs.clear()
            log_gamma_complex(arg, 256)
            assert len(logs) == 2, (z, len(logs))
            assert shifted == (specfun._stirling_threshold(256 + GUARD + 8) > 1 - z[0])
        assert set(names) <= {"mpc", "mpf"}, names
        assert contexts == []


class TestLogGammaSmallImaginary:
    """Im log Gamma(x + iy) is about y psi(x) + k pi for small y, so below
    |y| = 1 it keeps ``bits`` relative only if the kernel's fraction bits
    grow with -log2 |y|: against mpmath's log-gamma at twice the width,
    relative, wherever |psi(x)| >= 2^-8 (near a zero of psi the imaginary
    part is smaller still)."""

    @settings(max_examples=150)
    @given(x=st.floats(-50, 50), m=st.integers(1, 2 ** 20 - 1), k=st.integers(0, 300),
           sign=st.sampled_from([-1, 1]), bits=st.sampled_from([128, 256]))
    @example(x=1.3, m=1, k=266, sign=1, bits=256)  # 1.3 + 8.5e-81 i
    @example(x=0.4619, m=1, k=266, sign=1, bits=256)  # psi(0.4619) = -2.0
    @example(x=1.3, m=1, k=100, sign=-1, bits=256)  # 1.3 - 7.9e-31 i
    @example(x=-7.3, m=1, k=266, sign=1, bits=128)
    def test_imaginary_part_relative(self, x, m, k, sign, bits):
        if x <= 0 and x == int(x):  # Re z at a pole: psi(x) is infinite there
            return
        z = to_mpc((x, math.ldexp(sign * m, -k)), bits)
        v = log_gamma_complex(z, bits)
        with working(2 * bits, 0):
            if abs(mpmath.digamma(z.real)) < mpmath.ldexp(1, -8):
                return
            ref = mpmath.loggamma(z)
            assert abs(v.imag - ref.imag) <= mpmath.ldexp(abs(ref.imag), -(bits - 8)), (z, v, ref)


# compare_point inputs at two (n, alpha) pairs over points in every region,
# none on the real axis: a real z past sqrt(n/alpha) would add a real
# log-gamma argument of its own
_MEMO_Z = [(1, 2), (1, 0.05), (2.05, 0.02), (4, 0.05), (0.05, 0.05),
           (-1, -2), (1.5, 1), (0.5, 1.5), (3, 2), (-1.9, 0.1)]
_MEMO_INPUTS = [(n, a, z) for n, a in ((40, "0.5"), (90, "1.37")) for z in _MEMO_Z[:6]]


def _compare(n, a, z, bits=256):
    return compare_point(n, to_mpf(a, bits), to_mpc(z, bits), Params(), bits)


@pytest.fixture
def real_kernel_runs(monkeypatch):
    """Counts the kernel runs on real arguments, the ones the memo serves
    (complex arguments run the kernel on every call).  The Airy constants
    take Gamma(1/3) from the AGM, so a cold band of Airy widths adds no
    run and the counts do not depend on what an earlier test cached."""
    runs = []
    kernel = specfun._loggamma_shifted

    def counting(z, p):
        if isinstance(z, mpmath.mpf):
            runs.append((z, p))
        return kernel(z, p)

    monkeypatch.setattr(specfun, "_loggamma_shifted", counting)
    _log_gamma_positive.cache_clear()
    return runs


class TestLogGammaMemo:
    def test_memo_bounded(self):
        assert _log_gamma_positive.cache_info().maxsize == 256
        for k in range(300):
            log_gamma_real(mpmath.mpf(1000 + k), 64)
        assert _log_gamma_positive.cache_info().currsize <= 256

    @pytest.mark.parametrize("bits", [128, 256, 272, 1056])
    @pytest.mark.parametrize("x", ["0.731", "1.37", "47.5", "1601.25"])
    def test_hit_equals_cold_run(self, x, bits):
        arg = to_mpf(x, bits)  # log_gamma_complex rounds its argument to bits
        cold = _log_gamma_positive.__wrapped__(arg, bits)
        _log_gamma_positive.cache_clear()
        first = log_gamma_real(arg, bits)
        assert _log_gamma_positive.cache_info().hits == 0
        again = log_gamma_real(arg, bits)
        via_complex = log_gamma_complex(arg, bits)
        assert _log_gamma_positive.cache_info().hits == 2
        assert first._mpf_ == again._mpf_ == via_complex.real._mpf_ == cold._mpf_

    def test_width_is_part_of_the_key(self):
        _log_gamma_positive.cache_clear()
        x = mpmath.mpf("0.75")
        a, b = log_gamma_real(x, 128), log_gamma_real(x, 256)
        info = _log_gamma_positive.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert a._mpf_ != b._mpf_ and abs(a - b) < mpmath.mpf(2) ** -120

    def test_two_kernel_runs_per_n_alpha(self, real_kernel_runs):
        # log Gamma(alpha) (exact denominator and asymptotic prefactor) and
        # log Gamma(n + alpha) (exact denominator); every other call hits
        for z in _MEMO_Z:
            _compare(400, "0.75", z)
        assert len(real_kernel_runs) == 2
        _compare(401, "0.75", _MEMO_Z[0])
        assert len(real_kernel_runs) == 3  # log Gamma(alpha) is still held
        _compare(401, "1.25", _MEMO_Z[1])
        assert len(real_kernel_runs) == 5

    @settings(max_examples=8)
    @given(order=st.permutations(range(len(_MEMO_INPUTS))),
           other=st.lists(st.booleans(), min_size=len(_MEMO_INPUTS), max_size=len(_MEMO_INPUTS)))
    def test_records_independent_of_memo_state(self, order, other):
        # each record is the one a cleared memo gives in input order,
        # whatever ran before it at this or another width
        _log_gamma_positive.cache_clear()
        expected = [_compare(*t) for t in _MEMO_INPUTS]
        _log_gamma_positive.cache_clear()
        for i, first in zip(order, other):
            if first:
                _compare(*_MEMO_INPUTS[i], bits=192)
            assert _compare(*_MEMO_INPUTS[i]) == expected[i]


def _airy_kernel_width(z, bits):
    """The width and P at which ``_airy_parts`` runs the sums for z at
    ``bits``."""
    width = bits + GUARD + 24 + math.ceil(1.93 * float(abs(z)) ** 1.5)
    P = fixed_bits(width + GUARD, *z._mpc_)
    return width, P


def _enough(y, N, P):
    """The term-count rule of ``_airy_term_count`` in mpmath at 128 bits."""
    with mpmath.workprec(128):
        y = mpmath.mpf(y)
        return (2 * y <= (N + 1) * (N + mpmath.mpf(1) / 3)
                and y ** N / (mpmath.factorial(N) * mpmath.rf(mpmath.mpf(1) / 3, N)) < mpmath.mpf(2) ** -(P + 2))


class TestAirySums:
    @settings(max_examples=12)
    @given(r=st.floats(0, 50), theta=st.floats(-3.1416, 3.1416), bits=st.sampled_from([64, 128, 272]))
    @example(r=50, theta=0, bits=272)  # the edge of the n = 6400 disk, real
    @example(r=49.5, theta=2.1, bits=128)  # near arg z^3 = 0, the other cube roots
    @example(r=31, theta=1.0472, bits=128)  # z^3 on the negative axis: the sums cancel
    @example(r=0, theta=0, bits=64)
    @example(r=1e-30, theta=0.3, bits=64)
    def test_against_hyp0f1(self, r, theta, bits):
        # each sum is within its stated bound E_b of 0F1(;b; z^3/9) taken
        # by mpmath 64 bits beyond the kernel's P (at least width + 64),
        # and the bound is under 2^-width sigma_b; N is the first term
        # count that meets the rule
        z = to_mpc(mpmath.mpc(r * math.cos(theta), r * math.sin(theta)), 64)
        width, P = _airy_kernel_width(z, bits)
        N, sums = _airy_sums(z, P)
        y = float(abs(z)) ** 3 / 9
        assert _enough(y, N, P) and (N == 1 or not _enough(y, N - 1, P))
        m = math.isqrt(N) + 1
        B = -(-N // m)
        with mpmath.workprec(P + 64):
            x = z ** 3 / 9
            ym = max(mpmath.mpf(1) / 3, abs(z) ** 3 / 9)
            for p, (re, im) in zip(_AIRY_P, sums):
                b = mpmath.mpf(p) / 3
                sigma = mpmath.hyp0f1(b, ym)
                bound = ((2 * m + 3) * B + 2 * N + 1) * mpmath.ldexp(sigma, -P)
                got = mpmath.mpc(mpmath.ldexp(re, -P), mpmath.ldexp(im, -P))
                assert abs(got - mpmath.hyp0f1(b, x)) <= bound
                assert bound <= mpmath.ldexp(sigma, -width)

    def test_bound_holds_to_the_largest_disk(self):
        # the factor of the bound stays under 2^GUARD up to |z| = 320, the
        # edge of the turning-point disk at n = 102400
        for r in (1, 10, 50, 100, 200, 320):
            _, P = _airy_kernel_width(mpmath.mpc(r), 272)
            N = _airy_term_count(r ** 3 / 9, P)
            m = math.isqrt(N) + 1
            assert (2 * m + 3) * -(-N // m) + 2 * N + 1 < 2 ** GUARD
        assert N == 8327

    def test_real_argument_stays_real(self):
        # for real z every sum is real, so the rotated pairs are exact
        # conjugates
        _, sums = _airy_sums(to_mpc(-7.25, 64), 400)
        assert all(im == 0 for _, im in sums)
        ai_w, aid_w, ai_wb, aid_wb = specfun.airy_rotated(-7.25, 128)
        for u, v in ((ai_w, ai_wb), (aid_w, aid_wb)):
            assert u.real == v.real and u.imag + v.imag == 0 and u.imag != 0


class TestAiryQuartet:
    def test_value_at_zero(self):
        # Ai(0) = 3^(-2/3)/Gamma(2/3), Bi(0) = 3^(-1/6)/Gamma(2/3),
        # against the mpmath oracle at 4x precision
        q = airy_quartet(0, 128)
        ref = airy_series_reference(0, 128)
        for got, want in ((q.ai, ref.ai), (q.bi, ref.bi), (q.ai_d, ref.ai_d), (q.bi_d, ref.bi_d)):
            assert rel_diff(got, want, 128) < mpmath.mpf(2) ** -120
        with working(192):
            third = mpmath.mpf(1) / 3
            ai0 = mpmath.mpf(3) ** (-2 * third) / mpmath.exp(log_gamma_real(2 * third, 192))
            bi0 = mpmath.mpf(3) ** (-third / 2) / mpmath.exp(log_gamma_real(2 * third, 192))
        assert rel_diff(q.ai, ai0, 128) < mpmath.mpf(2) ** -118
        assert rel_diff(q.bi, bi0, 128) < mpmath.mpf(2) ** -118

    def test_zero_values_cache_bounded(self):
        assert _airy_at_zero.cache_info().maxsize == 8

    @pytest.mark.parametrize("p", [64, 200, 512])
    def test_gamma_third_within_stated_bound(self, p):
        g = specfun._gamma_third(p)
        with mpmath.workprec(2 * p):
            assert abs(g / mpmath.gamma(mpmath.mpf(1) / 3) - 1) < mpmath.mpf(2) ** -(p - 3)

    def test_cold_zero_values_run_no_log_gamma_kernel(self, monkeypatch):
        runs = []
        monkeypatch.setattr(specfun, "_loggamma_shifted", lambda z, p: runs.append(z))
        _airy_at_zero.cache_clear()
        _airy_at_zero(5120)  # the Stirling table at this width took seconds
        assert runs == []

    @pytest.mark.parametrize("prec", [64, 320, 384, 1024, 2112])
    def test_zero_values_match_gamma_route(self, prec):
        # the AGM route gives the bits of mpmath.gamma at 2/3 and 1/3
        with mpmath.workprec(prec + GUARD):
            third = mpmath.mpf(1) / 3
            ai0 = mpmath.cbrt(3) ** -2 / mpmath.gamma(2 * third)
            aid0 = -1 / (mpmath.cbrt(3) * mpmath.gamma(third))
        assert _airy_at_zero(prec) == (round_to(prec, ai0), round_to(prec, aid0))

    def test_series_oracle_inside_radius(self, rng):
        for _ in range(10):
            z = mpmath.mpc(rng.uniform(-8, 8), rng.uniform(-8, 8))
            q = airy_quartet(z, 128)
            ref = airy_series_reference(z, 128)
            for got, want in ((q.ai, ref.ai), (q.bi, ref.bi), (q.ai_d, ref.ai_d), (q.bi_d, ref.bi_d)):
                assert rel_diff(got, want, 128) < mpmath.mpf(2) ** -96

    def test_rotation_identity(self):
        # Ai(z) + w Ai(w z) + w^2 Ai(w^2 z) = 0 with w = e^{2 pi i/3}
        with working(160):
            z = mpmath.mpc(1, 1)
            w = mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi / 3))
            q0 = airy_quartet(z, 128)
            q1 = airy_quartet(w * z, 128)
            q2 = airy_quartet(w * w * z, 128)
            resid = abs(q0.ai + w * q1.ai + w * w * q2.ai)
            resid_d = abs(q0.ai_d + w * w * q1.ai_d + w * q2.ai_d)
        assert resid < mpmath.mpf(10) ** -20
        assert resid_d < mpmath.mpf(10) ** -20

    def test_wronskian_scaled(self, rng):
        # products reach e^{2|zeta|}; residual judged against their scale
        worst = mpmath.mpf(0)
        with working(256):
            for _ in range(100):
                z = mpmath.mpc(rng.uniform(-20, 20), rng.uniform(-20, 20))
                q = airy_quartet(z, 128)
                p1, p2 = q.ai * q.bi_d, q.ai_d * q.bi
                scale = max(1 / mpmath.pi, abs(p1) + abs(p2))
                worst = max(worst, abs(p1 - p2 - 1 / mpmath.pi) / scale)
        assert worst < mpmath.mpf(2) ** -64

    def test_wronskian_absolute_small_z(self, rng):
        worst = mpmath.mpf(0)
        with working(256):
            for _ in range(50):
                z = mpmath.mpc(rng.uniform(-5, 5), rng.uniform(-5, 5))
                q = airy_quartet(z, 128)
                worst = max(worst, abs(q.ai * q.bi_d - q.ai_d * q.bi - 1 / mpmath.pi) * mpmath.pi)
        assert worst < mpmath.mpf(10) ** -20

    def test_annulus_all_sectors(self):
        # radii 11 and 13 at 12 angles against the oracle, to full precision
        with working(160):
            for rad in (11, 13):
                for k in range(12):
                    th = 2 * mpmath.pi * k / 12 + mpmath.mpf("0.1")
                    z = rad * mpmath.exp(mpmath.mpc(0, th))
                    q = airy_quartet(z, 128)
                    ref = airy_series_reference(z, 128)
                    for got, want in ((q.ai, ref.ai), (q.bi, ref.bi),
                                      (q.ai_d, ref.ai_d), (q.bi_d, ref.bi_d)):
                        assert rel_diff(got, want, 128) < mpmath.mpf(2) ** -120

    def test_stokes_ray_deterministic(self):
        # a point on arg z = 2pi/3, where Ai changes its asymptotic form
        with working(160):
            z = 15 * mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi / 3))
        a = airy_quartet(z, 128)
        b = airy_quartet(z, 128)
        assert a.ai == b.ai and a.bi == b.bi
        ref = airy_series_reference(z, 128)
        for got, want in ((a.ai, ref.ai), (a.bi, ref.bi), (a.ai_d, ref.ai_d), (a.bi_d, ref.bi_d)):
            assert rel_diff(got, want, 128) < mpmath.mpf(2) ** -120

    def test_against_library_spot(self, rng):
        for _ in range(12):
            z = mpmath.mpc(rng.uniform(-25, 25), rng.uniform(-25, 25))
            q = airy_quartet(z, 160)
            with working(220):
                refs = (mpmath.airyai(z), mpmath.airybi(z),
                        mpmath.airyai(z, 1), mpmath.airybi(z, 1))
            for got, want in zip((q.ai, q.bi, q.ai_d, q.bi_d), refs):
                assert rel_diff(got, want, 160) < mpmath.mpf(2) ** -152

    @given(r=st.floats(0, 40), theta=st.floats(-3.1416, 3.1416), prec=st.sampled_from([128, 192, 256]))
    @example(r=40, theta=0, prec=256)
    @example(r=40, theta=3.1416, prec=128)
    @example(r=33, theta=2.0944, prec=192)
    @example(r=0, theta=0, prec=128)
    def test_connection_and_wronskian_full_precision(self, r, theta, prec):
        # DLMF 9.2.11, Ai(z e^(-+2pi i/3)) = e^(-+pi i/3) (Ai(z) +- i Bi(z)) / 2,
        # its derivative, and Ai Bi' - Ai' Bi = 1/pi, each within
        # 2^-(prec-8) of the scale of its terms.  The rotated argument is
        # rounded to prec bits; a first-order Taylor step with the
        # quartet's own Ai' (and Ai'' = z Ai) carries the value back to
        # the exact rotation.
        tol = mpmath.mpf(2) ** -(prec - 8)
        z = mpmath.mpc(r * math.cos(theta), r * math.sin(theta))
        q = airy_quartet(z, prec)
        with working(prec + 64):
            for s in (1, -1):
                zr = z * mpmath.exp(mpmath.mpc(0, -s * 2 * mpmath.pi / 3))
                qr = airy_quartet(zr, prec)
                with working(prec, 0):
                    zh = +zr
                d = zh - zr
                lhs = qr.ai - qr.ai_d * d
                lhs_d = qr.ai_d - zh * qr.ai * d
                rhs = mpmath.exp(mpmath.mpc(0, -s * mpmath.pi / 3)) / 2 * (q.ai + s * 1j * q.bi)
                rhs_d = mpmath.exp(mpmath.mpc(0, s * mpmath.pi / 3)) / 2 * (q.ai_d + s * 1j * q.bi_d)
                assert abs(lhs - rhs) <= tol * max(abs(lhs), abs(q.ai) + abs(q.bi))
                assert abs(lhs_d - rhs_d) <= tol * max(abs(lhs_d), abs(q.ai_d) + abs(q.bi_d))
            p1, p2 = q.ai * q.bi_d, q.ai_d * q.bi
            assert abs(p1 - p2 - 1 / mpmath.pi) <= tol * (abs(p1) + abs(p2))

    def test_schwarz(self, rng):
        for _ in range(10):
            z = mpmath.mpc(rng.uniform(-15, 15), rng.uniform(0.1, 15))
            a = airy_quartet(z, 128)
            b = airy_quartet(mpmath.conj(z), 128)
            for u, v in ((a.ai, b.ai), (a.bi, b.bi), (a.ai_d, b.ai_d), (a.bi_d, b.bi_d)):
                with working(160):
                    assert abs(u - mpmath.conj(v)) <= mpmath.ldexp(abs(u), -110)
