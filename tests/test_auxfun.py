import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp

from tcasym import auxfun
from tcasym.auxfun import (
    d_func,
    d_hat_func,
    d_tilde_func,
    d_triple,
    density_psi,
    e_func,
    e_hat_func,
    e_tilde_func,
    f_tilde_n,
    g_prime,
    h_factor,
    phi,
    phi_hat,
    phi_tilde,
    theta_gamma_pi,
)
from tcasym.exact import weight_wd
from tcasym.mpnum import GUARD, ConfigError, DomainError, PoleError, round_to, sqrt_zsq_minus4, to_mpc, working
from tcasym.specfun import log_gamma_real

from conftest import rel_diff


def _h_closed_form(z):
    """-(3/2) phi_tilde(z) (z-2)^(-3/2): the analytic cofactor of the
    turning-point map, at the ambient precision.  Valid off the real segment
    left of 2 (the two branch jumps cancel, so this continues analytically
    across the band)."""
    w = auxfun._w_root(z)
    el = mpmath.log((z + w) / 2)
    pt = (2 / (z * z) - 1) * el + w / (2 * z)
    return mpmath.mpf(-1.5) * pt * mpmath.exp(mpmath.mpf(-1.5) * mpmath.log(z - 2))


class TestDensity:
    def test_saturated_value_exact(self):
        with working(128, 0):
            assert density_psi(3, 128) == mpmath.mpf(2) / 27

    def test_band_edge_continuity(self):
        with working(256):
            band = density_psi(mpmath.mpf(2), 256)
            sat = density_psi(mpmath.mpf("2.000000000001"), 256)
            assert abs(band - mpmath.mpf(1) / 4) < 1e-12
            assert abs(band - sat) < 1e-11

    def test_zero_limit(self):
        with working(256):
            lim = density_psi(0, 256)
            assert rel_diff(lim, 1 / (3 * mpmath.pi), 256) < 1e-60

    def test_series_branch_continuity(self):
        # values straddling the small-|x| switchover agree
        with working(256):
            a = density_psi(mpmath.mpf(2) ** -52, 256)
            b = density_psi(mpmath.mpf(2) ** -50, 256)
            lim = density_psi(0, 256)
            assert abs(a - lim) < 1e-30 and abs(b - lim) < 1e-29

    def test_normalization(self):
        # adaptive quadrature over the band + exact saturated tail 1/2
        with mp.workprec(100):
            band = mpmath.quad(lambda s: density_psi(s, 100), [-2, -1, 0, 1, 2])
            total = band + mpmath.mpf(1) / 2
            assert abs(total - 1) < 1e-8

    def test_below_constraint_inside_band(self):
        with working(128):
            for x in ("0.3", "0.9", "1.5", "1.9"):
                t = mpmath.mpf(x)
                assert density_psi(t, 128) < 2 / t ** 3

    def test_even(self):
        assert density_psi(mpmath.mpf("1.2"), 128) == density_psi(mpmath.mpf("-1.2"), 128)


class TestGPrime:
    def test_boundary_jump_matches_density(self):
        # lim g'(x + i eps) = -i pi psi(x), approached linearly in eps
        x = mpmath.mpf(1)
        with working(192):
            target = -mpmath.pi * 1j * density_psi(x, 192)
            gaps = []
            for k in (4, 8, 16):
                eps = mpmath.ldexp(1, -k)
                gaps.append(abs(g_prime(mpmath.mpc(x, eps), 192) - target))
            assert gaps[2] < gaps[1] < gaps[0]
            assert gaps[2] / gaps[1] < 0.6  # ~linear in eps
            alpha_free = g_prime(x, 192)
            assert abs(alpha_free - target) < mpmath.mpf(2) ** -180

    def test_saturated_boundary(self):
        # on (2, inf) the value at x is its limit from above, which carries
        # the upper -2 pi i/x^3 term as its whole imaginary part
        x = mpmath.mpf(3)
        up = g_prime(x, 160)
        near = g_prime(mpmath.mpc(x, mpmath.ldexp(1, -100)), 160)
        with working(160):
            assert abs(up - near) < mpmath.mpf(2) ** -98
            assert rel_diff(up.imag, -2 * mpmath.pi / 27, 160) < mpmath.mpf(2) ** -140

    def test_schwarz(self, rng):
        for _ in range(10):
            z = mpmath.mpc(rng.uniform(-4, 4), rng.uniform(0.05, 3))
            a = g_prime(z, 128)
            b = g_prime(mpmath.conj(z), 128)
            assert a.real - b.real == 0 and a.imag + b.imag == 0

    def test_real_axis_takes_upper_limit(self):
        # a real z takes the upper formula: its limit from above, here
        # -i pi psi(1) in the band
        x = mpmath.mpf(1)
        v = g_prime(x, 128)
        with working(128):
            near = g_prime(mpmath.mpc(x, mpmath.ldexp(1, -60)), 128)
            assert v.imag < 0 and abs(v - near) < mpmath.mpf(2) ** -58

    def test_pole_raises(self):
        # the pole 0 is the one excluded point of the axis
        with pytest.raises(DomainError):
            g_prime(0, 128)

    @pytest.mark.parametrize("x", [2, -2, pytest.param("2.00000000000000000000001", id="2+1e-23")])
    @pytest.mark.parametrize("half", ["upper", "lower"])
    def test_branch_points_finite_on_either_side(self, x, half):
        # g' is finite at the branch points +-2 (-pi i/4 from above) and
        # 1e-23 from 2, inside the cut tolerance 2^-64 at 128 bits: the
        # real-axis closed form 4 acosh(x/2)/x^3 + sqrt(x^2-4)/x^2 - 2 pi i/x^3
        # at twice the width is the value at x, the limit from above; the
        # lower formula at x - i 2^-200 lies within O(2^-100) of its
        # conjugate, the limit from below
        x = to_mpc(x, 128).real
        if half == "upper":
            v, tol = g_prime(x, 128), mpmath.mpf(2) ** -124
        else:
            with mp.workprec(128):
                v = mpmath.conj(g_prime(mpmath.mpc(x, -mpmath.ldexp(1, -200)), 128))
            tol = mpmath.mpf(2) ** -90
        with working(256):
            ref = 4 * mpmath.acosh(x / 2) / x ** 3 + mpmath.sqrt(x * x - 4) / x ** 2 - 2j * mpmath.pi / x ** 3
            assert abs(v - ref) < tol, (x, half, v)
            if abs(x) == 2:
                assert abs(v + mpmath.pi * 1j / 4) < tol


class TestPhiTilde:
    def test_limit_at_band_edge(self):
        with working(160):
            vals = [abs(phi_tilde(2 + mpmath.ldexp(1, -k), 160)) for k in (4, 8, 12)]
            assert vals[2] < vals[1] < vals[0]
            assert vals[2] < 1e-4

    def test_negative_on_saturated_axis(self):
        for x in ("2.5", "3", "10"):
            v = phi_tilde(mpmath.mpf(x), 128)
            assert v.imag == 0 and v.real < 0

    def test_lagrange_multiplier(self):
        with working(256):
            z = mpmath.mpf(10) ** 6
            l_val = 2 * (mpmath.log(z) + phi_tilde(z, 256))
            assert abs(l_val - 1) < 1e-6

    def test_cut_rejected(self):
        # a band point takes its value from above, and the closed form just
        # above it tends to that value, |phi_tilde'(1)| = 5.92, down to
        # rounding; the rest of the cut raises
        with working(128):
            band = phi_tilde(mpmath.mpf(1), 128)
            assert band.real == 0
            gaps = [abs(phi_tilde(mpmath.mpc(1, mpmath.ldexp(1, -k)), 128) - band) for k in (60, 70, 200)]
            for k, gap in zip((60, 70, 200), gaps):
                assert gap < 6 * mpmath.ldexp(1, -k) + mpmath.ldexp(1, -125), (k, gap)
            assert gaps[0] > gaps[1] > gaps[2]
        with pytest.raises(DomainError):
            phi_tilde(mpmath.mpf(-5), 128)

    @pytest.mark.parametrize("z", [-1, 0])
    def test_bad_boundary_request_rejected(self, z):
        # the band (0, 2] has boundary values; at Re z <= 0 the axis is cut
        with pytest.raises(DomainError) as err:
            phi_tilde(mpmath.mpf(z), 128)
        assert str(err.value) == f"phi_tilde: z={to_mpc(z, 128)} on the cut (-inf, 2]"

    def test_band_boundary_value_pure_imaginary(self):
        # the value from above; the one from below is its conjugate, taken
        # at the value's width (mpmath.conj rounds to the context's)
        v = phi_tilde(mpmath.mpf(1), 160)
        assert v.real == 0 and v.imag > 0
        with mp.workprec(160):
            w = mpmath.conj(v)
        assert w.imag + v.imag == 0 and w.imag < 0

    @given(bits=st.integers(64, 1024), conj=st.booleans(),
           extra=st.integers(0, 200), edge=st.sampled_from([0, 2]), t=st.floats(-30, 0))
    @example(bits=64, conj=False, extra=0, edge=0, t=-30)
    @example(bits=1024, conj=True, extra=200, edge=2, t=-30)
    def test_band_value_matches_band_formula(self, bits, conj, extra, edge, t):
        # the closed form with the band limits of u and w, against the
        # purely imaginary band formula +-i [(2/x^2 - 1) acos(x/2) +
        # sqrt(4 - x^2)/(2x)], bit for bit at the same widths (the value
        # from above, or its conjugate, the one from below); x from 1e-30
        # to 2 - 1e-30
        with mp.workprec(4 * bits):
            d = mpmath.mpf(10) ** t
            x = to_mpc(d if edge == 0 else 2 - d, bits).real
        with mp.workprec(bits + extra + GUARD + 8):
            b = (2 / (x * x) - 1) * mpmath.acos(x / 2) + mpmath.sqrt((2 - x) * (2 + x)) / (2 * x)
        b = round_to(bits + extra, b)
        v = phi_tilde(x, bits + extra)
        if conj:
            with mp.workprec(bits + extra):
                v = mpmath.conj(v)
        # a difference of 0 is exact where a unary minus would round
        assert v.real == 0 and (v.imag + b == 0 if conj else v.imag - b == 0)

    def test_schwarz(self, rng):
        for _ in range(10):
            z = mpmath.mpc(rng.uniform(-1, 5), rng.uniform(0.05, 3))
            a = phi_tilde(z, 128)
            b = phi_tilde(mpmath.conj(z), 128)
            assert a.real - b.real == 0 and a.imag + b.imag == 0


class TestPhiConnection:
    def test_phi_negative_real_part_in_band(self):
        v = phi(mpmath.mpc(1, mpmath.mpf("0.001")), 192)
        assert v.real < 0

    def test_phi_hat_real_on_left_saturated(self):
        v = phi_hat(mpmath.mpf(-3), 160)
        assert v.imag == 0 and v.real < 0

    def test_connection_formula(self, rng):
        # phi_hat(z) - phi(z) +- (1/z^2 - 1) pi i = 0 on the upper/lower half
        for _ in range(20):
            z = mpmath.mpc(rng.uniform(-4, -0.2), rng.choice([1, -1]) * rng.uniform(0.05, 3))
            ph = phi_hat(z, 192)
            p = phi(z, 192)
            with working(192):
                sgn = 1 if z.imag > 0 else -1
                resid = abs(ph - p + sgn * (1 / (z * z) - 1) * mpmath.pi * 1j)
                assert resid < mpmath.mpf(10) ** -20

    def test_phi_schwarz(self, rng):
        for _ in range(10):
            z = mpmath.mpc(rng.uniform(-3, 3), rng.uniform(0.05, 3))
            a = phi(z, 128)
            b = phi(mpmath.conj(z), 128)
            assert a.real - b.real == 0 and a.imag + b.imag == 0

    def test_quadrature_oracle(self):
        # independent route: the potential integral against the density,
        # log|phi contribution| = l/2 - integral of log|z-s| psi(s) ds
        z = mpmath.mpc(1, 1)
        with mp.workprec(80):
            def integrand(s):
                return mpmath.log(abs(z - s)) * density_psi(s, 80)
            g_re = mpmath.quad(integrand, [-mpmath.inf, -2, -1, 0, 1, 2, mpmath.inf])
            phi_re = mpmath.mpf(1) / 2 - g_re
            closed = phi(z, 128).real
            assert abs(phi_re - closed) < 1e-8


# The value below each real point, as the functions returned it when they
# still took a side: raw libmp tuples at 128 bits, recorded before that
# option was removed.  D is at n = 100, alpha = 1.37.
_LOWER_LIMITS = {
    ("g_prime", "1"): (
        (1, 30389171365745529248414374847961013543, -270, 125),
        (0, 246598748566234698276557341472759401801, -129, 128)),
    ("g_prime", "3"): (
        (0, 66530864861337853271134720120616494219, -127, 126),
        (0, 158374605046661740423656351579536412341, -129, 127)),
    ("g_prime", "-1.5"): (
        (1, 202427525969046284070783425617374145073, -281, 128),
        (0, 283908383595208653698298990513690882437, -129, 128)),
    ("phi_tilde", "0.5"): (
        (0, 0, 0, 0),
        (1, 118708611475508426927352943785173316051, -123, 127)),
    ("phi_tilde", "1"): (
        (0, 0, 0, 0),
        (1, 162759008892104789334328561684931001271, -126, 127)),
    ("phi", "1"): (
        (0, 0, 0, 0),
        (0, 208996274248273795261183063211073389109, -127, 128)),
    ("phi", "3"): (
        (1, 255806406118478604001558101733257062091, -129, 128),
        (0, 237561907569992610635484527369304618511, -129, 128)),
    ("d_func", "1"): (
        (1, 207809477200846092079908333142397958207, -128, 128),
        (1, 206842415391398302493592258139220174117, -118, 128)),
    ("d_func", "5"): (
        (1, 59244756415814253187056949678363836265, -126, 126),
        (1, 102392894067472596318435010741910435963, -122, 127)),
    ("d_func", "9"): (
        (1, 24057997921770431568394672232428735771, -127, 125),
        (1, 97433376813081691556470251294660630343, -126, 127)),
}
_SIDED_CALLS = {
    "g_prime": lambda z: g_prime(z, 128),
    "phi_tilde": lambda z: phi_tilde(z, 128),
    "phi": lambda z: phi(z, 128),
    "d_func": lambda z: d_func(100, "1.37", z, 128),
}


def _exponent_gap(v, w):
    """|v - w| for mpc values; for LogComplex values the distance of their
    exponents, the phase difference taken mod 2 pi."""
    if isinstance(v, mpmath.mpc):
        return abs(v - w)
    dph = w.phase - v.phase
    return abs(mpmath.mpc(w.log_mod - v.log_mod, dph - 2 * mpmath.pi * mpmath.nint(dph / (2 * mpmath.pi))))


@pytest.mark.parametrize("name, x", sorted(_LOWER_LIMITS), ids=[f"{f}@{x}" for f, x in sorted(_LOWER_LIMITS)])
def test_real_axis_takes_limit_from_above(name, x):
    # at a real x each half-plane-specific function returns its limit from
    # above: the gap to x + i 2^-k shrinks in step with 2^-k; its conjugate
    # is the limit from below
    f = _SIDED_CALLS[name]
    v = f(mpmath.mpf(x))
    with working(128):
        gaps = [_exponent_gap(v, f(mpmath.mpc(x, mpmath.ldexp(1, -k)))) for k in (20, 40, 60)]
        for a, b in zip(gaps, gaps[1:]):
            assert 2 ** -21 < b / a < 2 ** -19, (gaps, name, x)
    lo_re, lo_im = _LOWER_LIMITS[name, x]
    if isinstance(v, mpmath.mpc):
        with mp.workprec(128):
            assert mpmath.conj(v)._mpc_ == (lo_re, lo_im)
    else:
        # the modulus bit for bit; the phase up to the 2 pi k by which the
        # upper limit of log Gamma(alpha - n/x^2) leaves the real axis
        c = v.conjugate()
        assert c.log_mod._mpf_ == lo_re
        with working(256):
            turns = (mp.make_mpf(lo_im) - c.phase) / (2 * mpmath.pi)
            assert abs(turns - mpmath.nint(turns)) < mpmath.mpf(2) ** -100


class TestTurningPointMap:
    def test_positive_right_of_edge(self):
        v = f_tilde_n(100, mpmath.mpf("2.05"), 160)
        assert v.imag == 0 and v.real > 0

    def test_degree_zero_rejected(self):
        with pytest.raises(ConfigError) as err:
            f_tilde_n(0, mpmath.mpf("2.05"), 128)
        assert str(err.value) == "f_tilde_n requires n >= 1"

    def test_linearization(self):
        with working(192):
            for h in ("0.01", "0.0001"):
                z = 2 + mpmath.mpf(h)
                v = f_tilde_n(100, z, 192)
                ratio = v / (mpmath.mpf(100) ** (mpmath.mpf(2) / 3) * (z - 2))
                assert abs(ratio - 1) < 3 * mpmath.mpf(h)

    def test_schwarz(self, rng):
        for _ in range(10):
            z = mpmath.mpc(2 + rng.uniform(-0.3, 0.3), rng.uniform(0.01, 0.3))
            a = f_tilde_n(50, z, 128)
            b = f_tilde_n(50, mpmath.conj(z), 128)
            assert a.real - b.real == 0 and a.imag + b.imag == 0

    def test_series_matches_closed_form(self, rng):
        # h_factor against the raw ratio at a wider ambient width, off the band segment
        for _ in range(15):
            z = mpmath.mpc(2 + rng.uniform(-0.4, 0.4), rng.choice([1, -1]) * rng.uniform(0.02, 0.3))
            hs = h_factor(z, 192)
            with working(256):
                hc = _h_closed_form(mpmath.mpc(z))
                assert abs(hs - hc) < mpmath.mpf(2) ** -180

    def test_analytic_at_turning_point(self):
        # Cauchy-Riemann residual of the map on a small circle around 2
        n = 50
        with working(192):
            h = mpmath.ldexp(mpmath.mpf(1), -24)
            worst = mpmath.mpf(0)
            for k in range(8):
                z0 = 2 + mpmath.mpf("0.05") * mpmath.exp(2j * mpmath.pi * (k + mpmath.mpf(1) / 2) / 8)
                dx = (f_tilde_n(n, z0 + h, 192) - f_tilde_n(n, z0 - h, 192)) / (2 * h)
                dy = (f_tilde_n(n, z0 + 1j * h, 192) - f_tilde_n(n, z0 - 1j * h, 192)) / (2j * h)
                worst = max(worst, abs(dx - dy) / max(1, abs(dx)))
            assert worst < 1e-8

    def test_disk_bound(self):
        with pytest.raises(DomainError):
            f_tilde_n(100, mpmath.mpc("2.6", 0), 128)


def _h_rel_err(z, bits):
    """Relative error of h_factor at ``bits`` against the closed form at bits+64."""
    hs = h_factor(z, bits)
    with working(bits + 64, 0):
        hc = _h_closed_form(mpmath.mpc(z))
        return abs(hs - hc) / abs(hc)


_WIDTHS = st.sampled_from([128, 192, 256, 288])
_RADII = st.floats(0, 0.49)


def _disk_point(r, theta):
    return mpmath.mpc(2 + r * mpmath.cos(theta), r * mpmath.sin(theta))


class TestHSeries:
    @pytest.mark.parametrize("bits", [128, 192, 256, 288])
    def test_accurate_at_disk_edge(self, bits, rng):
        # |z-2| in [0.4, 0.49], the far side of the disk from the cancellation at 2
        for _ in range(6):
            theta = rng.choice([1, -1]) * rng.uniform(0.05, 3.09)
            z = _disk_point(rng.uniform(0.4, 0.49), theta)
            assert _h_rel_err(z, bits) <= mpmath.ldexp(1, -(bits - 4))

    def test_leading_coefficients(self):
        # by hand, to O(t^2), with F = arccosh(1 + t/2)/sqrt(t) = 1 - t/24 + 3t^2/640
        # and S = sqrt(1 + t/4): 2F + (2+t)S = 4 + 7t/6 + 19t^2/160 and
        # (2+t)^-2 = (1 - t + 3t^2/4)/4 give phi_tilde = sqrt(t) (-2t/3 + 29t^2/60),
        # so h = 1 - 29t/40 + O(t^2), and |c_k| <= (3k + 7) 2^-k bounds the rest
        # by 4|t|^2.  This close to 2 the closed form cancels about
        # 1.5 log2(1/|t|) bits, which h_factor's widened width must restore
        with working(256, 0):
            for t in (2**-100, -2**-100, 2**-200, -2**-200, 2**-100 * 1j):
                t = mpmath.mpc(t)
                err = abs(h_factor(2 + t, 256) - (1 - 29 * t / 40))
                assert err <= 4 * abs(t) ** 2 + mpmath.ldexp(1, -252), t

    @given(r=_RADII, theta=st.floats(-3.1, 3.1), bits=_WIDTHS)
    def test_schwarz_bit_for_bit(self, r, theta, bits):
        z = _disk_point(r, theta)
        a, b = h_factor(z, bits), h_factor(mpmath.conj(z), bits)
        assert a.real - b.real == 0 and a.imag + b.imag == 0

    @given(x=st.floats(1.5, 2.5, exclude_min=True, exclude_max=True), bits=_WIDTHS)
    def test_real_on_real_axis(self, x, bits):
        assert h_factor(mpmath.mpc(x, 0), bits).imag == 0

    @given(r=_RADII, theta=st.floats(0.05, 3.09), sign=st.sampled_from([1, -1]), bits=_WIDTHS)
    def test_matches_closed_form(self, r, theta, sign, bits):
        z = _disk_point(max(r, 1e-3), sign * theta)
        assert _h_rel_err(z, bits) <= mpmath.ldexp(1, -(bits - 4))


class TestDFunctions:
    def test_identities_random(self, rng):
        worst = mpmath.mpf(0)
        with working(320):
            for _ in range(50):
                z = mpmath.mpc(rng.uniform(-4, 4), rng.choice([1, -1]) * rng.uniform(0.05, 3))
                n = rng.choice([20, 50, 137])
                a = rng.choice([1, mpmath.mpf("0.35"), mpmath.mpf("2.5")])
                t = d_triple(n, a, z, 128)
                th, _, _ = theta_gamma_pi(n, a, z, 320)
                sgn = 1 if z.imag > 0 else -1
                d = t.d.to_complex(320)
                dt = t.d_tilde.to_complex(320)
                dh = t.d_hat.to_complex(320)
                worst = max(worst, abs(dt - d * (1 - mpmath.exp(-sgn * 2j * th))) / abs(dt))
                worst = max(worst, abs(dh - d * (1 - mpmath.exp(sgn * 2j * th))) / abs(dh))
        assert worst < mpmath.mpf(10) ** -20

    def test_tends_to_one(self):
        # max |D-tilde - 1| on a compact halves when n doubles
        vals = []
        with working(192):
            for n in (200, 400):
                mx = mpmath.mpf(0)
                for k in range(8):
                    z = 1 + 1j + mpmath.mpf("0.1") * mpmath.exp(2j * mpmath.pi * k / 8)
                    mx = max(mx, abs(d_tilde_func(n, 1, z, 192).to_complex(192) - 1))
                vals.append(mx)
        assert 0.3 < vals[1] / vals[0] < 0.8

    def test_large_z_form(self):
        # D approaches Gamma(alpha)/sqrt(2 pi) n^(1/2-alpha) (-z^2)^(alpha-1/2)
        n, a = 50, mpmath.mpf("0.75")
        errs = []
        with working(192):
            for r in (50, 500):
                z = mpmath.mpc(r, mpmath.mpf("0.5"))
                dv = d_func(n, a, z, 192).to_complex(192)
                # Gamma(alpha)/sqrt(2 pi) (n / -z^2)^(1/2-alpha) with the
                # same branch convention as the D-function itself
                log_m = mpmath.log(n) + mpmath.pi * 1j - 2 * mpmath.log(z)
                ref = (mpmath.exp(log_gamma_real(a, 192)) / mpmath.sqrt(2 * mpmath.pi)
                       * mpmath.exp((mpmath.mpf(1) / 2 - a) * log_m))
                errs.append(abs(dv / ref - 1))
        assert errs[1] < errs[0] and errs[1] < 0.01

    def test_pole_detection(self):
        # exact hit: alpha - n/z^2 = 1 - 50/25 = -1 at z = 5
        with pytest.raises(PoleError):
            d_func(50, 1, mpmath.mpf(5), 128)

    def test_real_axis_guard(self):
        with pytest.raises(DomainError):
            d_func(50, 1, 0, 128)
        with pytest.raises(DomainError):
            d_triple(50, 1, mpmath.mpc(1.5, 0), 128)
        with pytest.raises(DomainError):
            d_tilde_func(50, 1, mpmath.mpf(-2), 128)
        with pytest.raises(DomainError):
            d_hat_func(50, 1, mpmath.mpf(2), 128)
        # allowed: d_tilde on (0, inf), d_hat on (-inf, 0)
        d_tilde_func(50, 1, mpmath.mpf("2.5"), 128)
        d_hat_func(50, 1, mpmath.mpf("-2.5"), 128)


def _close_logc(v, w, tol):
    """Each part of LogComplex v within tol * max(1, |w|) of w's."""
    scale = max(1, abs(w.log_mod), abs(w.phase))
    return abs(v.log_mod - w.log_mod) <= tol * scale and abs(v.phase - w.phase) <= tol * scale


class TestTinyZ:
    """The cut tests scale with |z| below 1 (2^-(bits/2) min(1, |z|)), so a
    tiny z far off a cut relative to its size evaluates; the D-functions
    widen themselves there, their exponents' terms growing like |s log s|,
    s = n/z^2."""

    TINY = mpmath.mpf("1e-45")

    def test_points_evaluate_as_at_1024_bits(self):
        tol = mpmath.ldexp(1, -240)
        y = to_mpc(mpmath.mpc(0, self.TINY), 256)
        w = to_mpc(mpmath.mpc(self.TINY, self.TINY), 256)
        with mp.workprec(1100):
            assert _close_logc(d_tilde_func(50, 1, y, 256), d_tilde_func(50, 1, y, 1024), tol)
            v, ref = phi_hat(y, 256), phi_hat(y, 1024)
            assert abs(v - ref) <= tol * abs(ref)
            for v, ref in zip(d_triple(50, 1, w, 256), d_triple(50, 1, w, 1024)):
                assert _close_logc(v, ref, tol)

    @pytest.mark.parametrize("turn", ["0.5", "-0.5", "0.25", "-0.25"])
    def test_d_identity(self, turn):
        # the selftest identity D-tilde = D (1 - e^(-+2 i theta)) at |z| = 1e-45
        # on the right half-plane, where D-tilde stays O(1); theta = n pi/z^2
        # - pi alpha is of size 1e92, so the test forms it at 1500 bits
        with mp.workprec(256):
            z = self.TINY * mpmath.expjpi(mpmath.mpf(turn))
        t = d_triple(50, 1, z, 256)
        with working(1500):
            th = 50 * mpmath.pi / (z * z) - mpmath.pi
            sgn = 1 if z.imag > 0 else -1
            d, dt = t.d.to_complex(1500), t.d_tilde.to_complex(1500)
            assert abs(dt - d * (1 - mpmath.exp(-sgn * 2j * th))) <= mpmath.ldexp(abs(dt), -200)

    def test_scaled_tolerance_still_raises(self):
        # within 2^-128 |z| of the cut at 256 bits: raised; 2^-120 |z| off: evaluated
        near, off = mpmath.ldexp(self.TINY, -140), mpmath.ldexp(self.TINY, -120)
        cases = [
            (lambda z: d_tilde_func(50, 1, z, 256), -self.TINY),
            (lambda z: d_hat_func(50, 1, z, 256), self.TINY),
            (lambda z: phi_hat(z, 256), self.TINY),
            (lambda z: d_triple(50, 1, z, 256), self.TINY),
            (lambda z: e_tilde_func(mpmath.mpf("0.8"), z, 256), self.TINY),
            (lambda z: e_hat_func(mpmath.mpf("0.8"), z, 256), self.TINY),
            (lambda z: sqrt_zsq_minus4(z, 256), self.TINY),
        ]
        for f, x in cases:
            for eps in (0, near, -near):
                with pytest.raises(DomainError):
                    f(to_mpc(mpmath.mpc(x, eps), 256))
            f(to_mpc(mpmath.mpc(x, off), 256))
        with pytest.raises(DomainError):
            d_tilde_func(50, 1, 0, 256)


class TestEFunctions:
    def test_constant_at_half(self):
        # exponent vanishes at alpha = 1/2: E = sqrt(2 pi)/Gamma(1/2) = sqrt(2)
        with working(160):
            for z in (mpmath.mpc(0, 0), mpmath.mpc(5, 1), mpmath.mpc(-7, -2)):
                v = e_func(mpmath.mpf("0.5"), z, 160)
                assert rel_diff(v.to_complex(160), mpmath.sqrt(mpmath.mpf(2)), 160) < mpmath.mpf(2) ** -140

    def test_value_at_origin(self):
        a = mpmath.mpf("1.25")
        v = e_func(a, 0, 160)
        with working(192):
            ref = mpmath.sqrt(2 * mpmath.pi) / mpmath.exp(log_gamma_real(a, 192)) \
                * mpmath.mpf(4) ** (mpmath.mpf(1) / 2 - a)
        assert rel_diff(v.to_complex(192), ref, 160) < mpmath.mpf(2) ** -140

    def test_e_tilde_relation_upper(self):
        # E = E-tilde e^{-pi i (1/2 - alpha)} on the upper half-plane
        a = mpmath.mpf("0.8")
        z = mpmath.mpc(3, 1)
        ev = e_func(a, z, 192).to_complex(256)
        et = e_tilde_func(a, z, 192).to_complex(256)
        with working(256):
            resid = abs(ev - et * mpmath.exp(-mpmath.pi * 1j * (mpmath.mpf(1) / 2 - a)))
            assert resid / abs(ev) < mpmath.mpf(2) ** -180

    @pytest.mark.parametrize("z", ["1.3+0.4j", "1.3-0.4j", "1.3+0.7j"])
    def test_decimal_alpha_against_800_bits(self, z):
        # 1/2 - alpha is not exact for alpha = 0.731; each value must keep
        # its working width, whatever the ambient precision
        z = mpmath.mpmathify(z)
        with mp.workprec(800):
            a = mpmath.mpf("0.731")
            c = mpmath.log(mpmath.sqrt(2 * mpmath.pi)) - mpmath.loggamma(a)
            p = mpmath.mpf(1) / 2 - a
            refs = (c + p * (mpmath.log(2 - z) + mpmath.log(z + 2)),
                    c + p * (mpmath.log(z - 2) + mpmath.log(z + 2)),
                    c + p * (mpmath.log(-z - 2) + mpmath.log(2 - z)))
        for fn, ref in zip((e_func, e_tilde_func, e_hat_func), refs):
            v = fn("0.731", to_mpc(z, 256), 256)
            with mp.workprec(800):
                assert abs(mpmath.mpc(v.log_mod, v.phase) - ref) < mpmath.ldexp(1, -250), fn.__name__

    def test_family_and_cuts(self):
        for fn in (e_func, e_tilde_func, e_hat_func):
            assert mpmath.isfinite(fn(1, mpmath.mpc(1, 1), 160).log_mod)
        with pytest.raises(DomainError):
            e_func(1, mpmath.mpf(3), 128)
        with pytest.raises(DomainError):
            e_tilde_func(1, mpmath.mpf(1), 128)
        with pytest.raises(DomainError):
            e_hat_func(1, mpmath.mpf(0), 128)
        # within-domain real points
        e_func(1, mpmath.mpf(1), 128)
        e_tilde_func(1, mpmath.mpf(3), 128)
        e_hat_func(1, mpmath.mpf(-3), 128)


class TestThetaGammaPi:
    def test_nodes_are_zeros(self):
        n, a = 100, mpmath.mpf(1)
        with working(192):
            for k in (0, 3, 10):
                xk = mpmath.sqrt(mpmath.mpf(n) / (k + a))
                th, gz, piz = theta_gamma_pi(n, a, xk, 192)
                assert abs(piz) < mpmath.ldexp(abs(1 / gz), -170)

    def test_slope_alternation(self):
        # [sin theta]'(X_k)/gamma = cos(theta(X_k)) = (-1)^k
        n, a, k = 100, mpmath.mpf(1), 3
        with working(192):
            xk = mpmath.sqrt(mpmath.mpf(n) / (k + a))
            th, gz, _ = theta_gamma_pi(n, a, xk, 192)
            slope = mpmath.cos(th)
            assert abs(slope - (-1) ** k) < mpmath.mpf(2) ** -160

    def test_real_for_real(self):
        th, gz, piz = theta_gamma_pi(60, 1, mpmath.mpf("1.7"), 128)
        assert th.imag == 0 and gz.imag == 0 and piz.imag == 0

    def test_pole_at_zero(self):
        with pytest.raises(DomainError):
            theta_gamma_pi(10, 1, 0, 128)

    @pytest.mark.parametrize("z", [mpmath.mpc(0, "1e-45"), mpmath.mpc("1e-45", 0)])
    def test_tiny_z_as_at_1500_bits(self, z):
        # theta is of size 1.6e92 there: at bits + GUARD its sine would be noise
        z = to_mpc(z, 256)
        _, _, piz = theta_gamma_pi(50, 1, z, 256)
        _, _, ref = theta_gamma_pi(50, 1, z, 1500)
        with mp.workprec(1600):
            assert abs(piz - ref) <= mpmath.ldexp(abs(ref), -240)

    @pytest.mark.parametrize("z", ["1.7", "0.9+0.4j", "-2.5+0.01j", "0.6-1.2j"])
    def test_plain_formula_where_not_widened(self, z):
        # where _d_width adds nothing, the values are the formula's at bits + GUARD
        n, a, bits = 60, mpmath.mpf("1.25"), 256
        z = to_mpc(mpmath.mpmathify(z), bits)
        assert auxfun._d_width(n, z, bits) == bits
        with working(bits):
            th = n * mpmath.pi / (z * z) - mpmath.pi * a
            gz = -2 * n * mpmath.pi / (z * z * z)
            want = th, gz, mpmath.sin(th) / gz
        assert theta_gamma_pi(n, a, z, bits) == tuple(round_to(bits, v) for v in want)


class TestUOf:
    """``_u_of``, the u = Log((z + w)/2), w = sqrt(z^2-4), that every
    asymptotic formula reads, on the closed first quadrant the dispatcher
    reduces to, band points (their upper limit) included."""

    @given(x=st.floats(0, 8), y=st.one_of(st.just(0.0), st.floats(0, 8)),
           bits=st.sampled_from([64, 128, 200, 256]))
    @example(x=0.0, y=0.0, bits=200)  # u = i pi/2
    @example(x=2.0, y=0.0, bits=200)  # band edge: u = w = 0
    @example(x=1.0, y=0.0, bits=200)  # band: u = i pi/3
    @example(x=1e6, y=3e5, bits=128)
    def test_cosh_sinh_and_range(self, x, y, bits):
        z = mpmath.mpc(x, y)
        with mp.workprec(bits):
            u, w = auxfun._u_of(z)
            assert 0 <= u.imag <= mpmath.pi / 2
            assert u.real >= -mpmath.ldexp(1, -(bits - 8))
        with mp.workprec(bits + 64):
            tol = mpmath.ldexp(max(1, abs(z)), -(bits - 8))
            assert abs(mpmath.cosh(u) - z / 2) <= tol
            assert abs(mpmath.sinh(u) - w / 2) <= tol

    def test_log2_pin(self):
        # (z + w)/2 = 2 at z = 5/2, where w = 3/2
        with mp.workprec(128):
            u, w = auxfun._u_of(mpmath.mpc("2.5"))
        assert u.imag == 0 and w.imag == 0
        with working(160):
            assert rel_diff(u.real, mpmath.log(2), 128) < mpmath.mpf(2) ** -120
            assert rel_diff(w.real, mpmath.mpf("1.5"), 128) < mpmath.mpf(2) ** -120


# Every public function that runs a cut test, called at a non-finite z:
# each names itself before the test, so the refusal says who refused.
# phi takes its value, and so its refusal, from phi_tilde.
_CUT_TESTERS = [
    ("sqrt_zsq_minus4", "sqrt_zsq_minus4", lambda z: sqrt_zsq_minus4(z, 128)),
    ("phi_tilde", "phi_tilde", lambda z: phi_tilde(z, 128)),
    ("phi", "phi_tilde", lambda z: phi(z, 128)),
    ("phi_hat", "phi_hat", lambda z: phi_hat(z, 128)),
    ("d_tilde_func", "d_tilde_func", lambda z: d_tilde_func(50, 1, z, 128)),
    ("d_hat_func", "d_hat_func", lambda z: d_hat_func(50, 1, z, 128)),
    ("d_triple", "d_triple", lambda z: d_triple(50, 1, z, 128)),
    ("e_func", "e_func", lambda z: e_func(2, z, 128)),
    ("e_tilde_func", "e_tilde_func", lambda z: e_tilde_func(2, z, 128)),
    ("e_hat_func", "e_hat_func", lambda z: e_hat_func(2, z, 128)),
    ("weight_wd", "weight_wd", lambda z: weight_wd(1, z, 128)),
]


# off the cuts too: Re z > 2 lies off phi_tilde's cut
_NON_FINITE = [("nan", 1), ("-inf", 1), (1, "nan"), ("nan", 0), (3, "nan"), ("inf", 1), (3, "inf")]


@pytest.mark.parametrize("name, refuser, call", _CUT_TESTERS, ids=[c[0] for c in _CUT_TESTERS])
@pytest.mark.parametrize("z", _NON_FINITE)
def test_non_finite_refusal_names_function(name, refuser, call, z):
    z = to_mpc(z, 128)
    with pytest.raises(DomainError) as err:
        call(z)
    assert str(err.value) == f"{refuser}: z={z} is not finite"


# the half-plane-specific functions that run no cut test refuse the same way
@pytest.mark.parametrize("name", ["g_prime", "d_func"])
@pytest.mark.parametrize("z", _NON_FINITE)
def test_non_finite_refusal_without_cut_test(name, z):
    z = to_mpc(z, 128)
    with pytest.raises(DomainError) as err:
        _SIDED_CALLS[name](z)
    assert str(err.value) == f"{name}: z={z} is not finite"
