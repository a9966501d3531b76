import math
import pickle
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from tcasym import asym, exact
from tcasym.asym import (
    Params,
    classify_region,
    eval_asym,
    eval_region_b,
    eval_region_c,
    eval_region_d,
    locate,
)
from tcasym.harness import compare_point, region_grid
from tcasym.mpnum import ConfigError, DomainError, LogComplex, to_mpc, to_mpf, working

from conftest import logc_rel_err, to_fraction, within_rounding

PARAMS = Params()


def compare(n, alpha, z, prec=256, params=PARAMS):
    ex = exact.eval_monic_rescaled(n, alpha, z, prec)
    ay = eval_asym(n, alpha, z, params, prec)
    return logc_rel_err(ex, ay.value, prec), ay


class TestClassifier:
    def test_examples(self):
        assert classify_region(mpmath.mpc(0, 3), 400, 1, PARAMS) == "A"
        assert classify_region(mpmath.mpc(1, 0.01), 400, 1, Params(0.25, 0.15)) == "B"
        assert classify_region(mpmath.mpc(2, 0), 400, 1, PARAMS) == "C"
        assert classify_region(mpmath.mpc(0.05, 0.05), 400, 1, PARAMS) == "origin"
        assert classify_region(mpmath.mpc(4, 0.05), 400, 1, PARAMS) == "D"

    def test_tie_order(self):
        # boundary |z| = eps belongs to C/B side per origin > C > B order
        eps = PARAMS.eps
        assert classify_region(mpmath.mpc(2 + eps, 0), 400, 1, PARAMS) == "C"
        assert classify_region(mpmath.mpc(eps, 0), 400, 1, PARAMS) == "B"

    def test_saturated_edge(self):
        # beyond k_n the strip ends and the outer region takes over
        kn = PARAMS.k_edge(400, 1, 128)
        assert classify_region(kn + mpmath.mpf("0.5"), 400, 1, PARAMS) == "A"
        assert classify_region(kn - mpmath.mpf("0.5"), 400, 1, PARAMS) == "D"

    def test_gap_column_is_outer(self):
        # between the turning-point disk and the strips, but outside both
        z = mpmath.mpc(2, 0.2)
        assert abs(z - 2) > PARAMS.eps and z.imag < PARAMS.delta
        assert classify_region(z, 400, 1, PARAMS) == "A"

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            Params(delta=0.1, eps=0.2)
        with pytest.raises(ConfigError):
            Params(delta=0.25, eps=0.25)
        with pytest.raises(ConfigError):
            Params(0.1, 0.2)
        with pytest.raises(ConfigError):
            Params(eps=0.3)
        with pytest.raises(ConfigError):
            Params._make([0.1, 0.2])
        with pytest.raises(ConfigError):
            Params()._replace(eps=0.3)
        assert Params()._replace(eps=0.1) == Params(0.25, 0.1)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_checks_params(self, protocol):
        # a record built past the check cannot come back through a pickle,
        # at protocols 0 and 1 either, where copyreg would rebuild it
        # through tuple.__new__
        assert pickle.loads(pickle.dumps(Params(0.3, 0.2), protocol)) == Params(0.3, 0.2)
        assert type(pickle.loads(pickle.dumps(Params(), protocol))) is Params
        with pytest.raises(ConfigError):
            pickle.loads(pickle.dumps(tuple.__new__(Params, (0.1, 0.2)), protocol))


POINTS = {
    "A": mpmath.mpc(1, 2),
    "B": mpmath.mpc(1, "0.05"),
    "C": mpmath.mpc("2.05", "0.02"),
    "D": mpmath.mpc(4, "0.05"),
    "origin": mpmath.mpc("0.05", "0.05"),
}


class TestRegionEvaluators:
    @pytest.mark.parametrize("tag", list(POINTS))
    def test_first_order_convergence(self, tag):
        # rel_err halves (within [0.3, 0.8]) each time n doubles
        errs = []
        for n in (100, 200, 400, 800):
            e, ay = compare(n, 1, POINTS[tag])
            assert ay.region.tag == tag
            errs.append(e)
        for i in range(len(errs) - 1):
            ratio = errs[i + 1] / errs[i]
            assert 0.3 < ratio < 0.8, (tag, [float(x) for x in errs])

    @pytest.mark.parametrize("alpha", ["0.2", "0.5", "1.7", "3.0"])
    def test_first_order_convergence_alpha_sweep(self, alpha):
        # branch choices depend on alpha (exponents 2a-1/2, 1/2-a change
        # sign across the sweep); the halving ratio must survive all of it
        a = mpmath.mpf(alpha)
        for tag, z in POINTS.items():
            e200, _ = compare(200, a, z)
            e400, _ = compare(400, a, z)
            assert 0.3 < e400 / e200 < 0.8, (alpha, tag, float(e200), float(e400))

    def test_quadrants_against_exact(self):
        # dispatcher reductions validated against the exact path evaluated
        # at the actual (unreduced) points
        errs = []
        for z in (mpmath.mpc("1.2", "0.7"), mpmath.mpc("1.2", "-0.7"),
                  mpmath.mpc("-1.2", "0.7"), mpmath.mpc("-1.2", "-0.7")):
            e, ay = compare(300, 1, z)
            errs.append(float(e))
            assert e < 1e-3
        assert max(errs) - min(errs) < 1e-15

    def test_turning_point_exactly(self):
        errs = []
        for n in (100, 200, 400):
            e, ay = compare(n, 1, mpmath.mpc(2, 0))
            assert ay.region.tag == "C"
            assert mpmath.isfinite(ay.value.log_mod)
            errs.append(e)
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.1

    def test_turning_point_limit_structure(self):
        # at z = 2 the bracket pair collapses to
        #   (2a-1/2) sqrt(2) n^(-1/6) [Ai'(0)cos + Bi'(0)sin]
        #   + sqrt(2) n^(1/6)        [Ai(0)cos + Bi(0)sin]
        # independently assembled here and compared at n = 10^4
        from tcasym.specfun import airy_quartet, log_gamma_real
        n, alpha, bits = 10000, mpmath.mpf(1), 256
        v = eval_region_c(n, alpha, mpmath.mpc(2, 0), bits)
        with mp.workprec(bits + 16):
            p = 2 * alpha - mpmath.mpf(1) / 2
            q0 = airy_quartet(0, bits)
            tau = alpha * mpmath.pi - n * mpmath.pi / 4
            ct, st = mpmath.cos(tau), mpmath.sin(tau)
            n6 = mpmath.mpf(n) ** (mpmath.mpf(1) / 6)
            sq2 = mpmath.sqrt(mpmath.mpf(2))
            bracket = (p * sq2 / n6 * (q0.ai_d * ct + q0.bi_d * st)
                       + 2 * n6 / sq2 * (q0.ai * ct + q0.bi * st))
            log_pc = (log_gamma_real(alpha, bits) + mpmath.mpf(n) / 2
                      - (mpmath.mpf(n) / 2 + alpha - mpmath.mpf(1) / 2) * mpmath.log(n)
                      - mpmath.log(2) / 2)
            ref = log_pc + mpmath.log(abs(bracket))
            assert abs(v.value.log_mod - ref) < 1e-6

    def test_real_axis_values_are_real(self):
        for z in (mpmath.mpc(1, 0), mpmath.mpc("0.08", 0), mpmath.mpc("0.5", 0)):
            ay = eval_asym(400, 1, z, PARAMS, 192)
            assert "real-snapped" in ay.flags
            w = ay.value.phase
            assert w == 0 or w == mp.make_mpf(mpmath.libmp.mpf_pi(192, "n"))

    def test_oscillation_sign_pattern(self):
        # sign of the strip form tracks the exact polynomial between zeros
        n = 200
        agree = checked = 0
        with working(192):
            for i in range(20):
                x = mpmath.mpf("0.5") + i * mpmath.mpf("0.05")
                ex = exact.eval_monic_rescaled(n, 1, mpmath.mpc(x, 0), 192)
                ay = eval_asym(n, 1, mpmath.mpc(x, 0), PARAMS, 192)
                if "cancel" in ay.flags or "near-zero" in ay.flags:
                    continue
                # exclude points too close to a zero for sign stability
                if logc_rel_err(ex, ay.value, 192) > 0.5:
                    continue
                checked += 1
                sign_exact = mpmath.cos(ex.phase) > 0
                sign_asym = mpmath.cos(ay.value.phase) > 0
                agree += sign_exact == sign_asym
        assert checked >= 15 and agree == checked

    def test_dropped_term_bookkeeping(self):
        # just right of the turning-point disk at small n the discarded
        # exponential is not negligible and must be flagged
        z = mpmath.mpc("2.16", 0)
        ay = eval_region_d(100, 1, z, 192)
        assert "dropped-term-dominant" in ay.flags
        # n=800 at exactly z=4 hits a rescaled node (n/z^2 = 50 integer),
        # a true pole of the prefactor; step off the axis
        ay2 = eval_region_d(800, 1, mpmath.mpc(4, "0.05"), 192)
        assert "dropped-term-dominant" not in ay2.flags
        assert ay2.dropped_term_bound < ay2.value.log_mod

    def test_outer_region_flags_dominant_dropped_term(self):
        # A runs D's evaluator and its dropped-term rule: at small n the
        # discarded e^(n Re phi) term can outweigh the relative O(1/n) in
        # A too, and is then reported and flagged
        ay = eval_asym(2, "1.37", mpmath.mpc("-0.859449", "0.255439"), PARAMS, 256)
        assert ay.region.tag == "A"
        assert "dropped-term-dominant" in ay.flags
        with working(256):
            assert ay.dropped_term_bound > ay.value.log_mod - mpmath.log(2)

    def test_c_region_no_blowup_grid(self):
        # uniform boundedness through the turning point on a dense grid
        n = 100
        worst = -mpmath.inf
        with working(128):
            for i in range(25):
                for j in range(25):
                    z = mpmath.mpc(2 - PARAMS.eps + 2 * PARAMS.eps * i / 24,
                                   PARAMS.eps * j / 24)
                    if abs(z - 2) > PARAMS.eps:
                        continue
                    v = eval_region_c(n, 1, z, 128)
                    assert mpmath.isfinite(v.value.log_mod)
                    worst = max(worst, abs(v.value.log_mod))
        assert mpmath.isfinite(worst)

    def test_c_region_one_h_evaluation(self, monkeypatch):
        # h feeds both ftilde and the h^(1/6) factors: one evaluation, at
        # the width ftilde needs, serves both
        from tcasym import asym, auxfun
        calls = []
        orig = auxfun.h_factor

        def counting(z, prec, **kw):
            calls.append(prec)
            return orig(z, prec, **kw)

        monkeypatch.setattr(asym, "h_factor", counting)
        monkeypatch.setattr(auxfun, "h_factor", counting)
        ay = eval_region_c(400, 1, mpmath.mpc("2.03", "0.04"), 256)
        assert ay.region.tag == "C" and mpmath.isfinite(ay.value.log_mod)
        assert calls == [256 + 32]
        calls.clear()
        eval_asym(400, 1, mpmath.mpc("2.03", "-0.04"), PARAMS, 256)
        assert calls == [256 + 32]

    @pytest.mark.parametrize("tag", list(POINTS))
    def test_one_u_per_point(self, monkeypatch, tag):
        # u = Log((z + w)/2) is taken at most once per point, into the
        # geometry record
        from tcasym import auxfun
        calls = []
        orig_u = auxfun._u_of

        def counting_u(z):
            calls.append("u")
            return orig_u(z)

        monkeypatch.setattr(auxfun, "_u_of", counting_u)
        for z in (POINTS[tag], -POINTS[tag], mpmath.conj(POINTS[tag])):
            calls.clear()
            ay = eval_asym(400, 1, z, PARAMS, 256)
            assert ay.region.tag == tag
            assert calls in ([], ["u"]), (tag, calls)

    @pytest.mark.parametrize("tag, z", [("C", ("2.03", "0.04")), ("D", ("4", "0.05")), ("A", ("1", "2"))])
    def test_one_prefactor_per_point(self, monkeypatch, tag, z):
        # the prefactor's log Gamma(alpha) is evaluated once per point
        from tcasym import asym
        calls = []
        orig = asym.log_gamma_real

        def counting(x, prec):
            calls.append(prec)
            return orig(x, prec)

        monkeypatch.setattr(asym, "log_gamma_real", counting)
        ay = eval_asym(400, 1, mpmath.mpc(*z), PARAMS, 256)
        assert ay.region.tag == tag
        assert calls == [256 + 16]

    def test_cancellation_flag_near_zero(self):
        # bisect on the sign of the real-snapped two-term value down to a
        # zero of the formula; there the two terms annihilate and the sum
        # must carry the cancellation flag (at x = 0.93321363... it is the
        # exact zero, which is not snapped).  Midpoints are formed at 200
        # bits and rounded to 128 inside to_mpc (an mpc() call outside a
        # context would round them to 53 bits and never get close enough)
        def evaluate(x):
            res = eval_region_b(200, 1, to_mpc((x, 0), 128), 128)
            return res, mpmath.cos(res.value.phase) > 0

        # one interval in the band strip, one in the origin disk
        for lo, hi in (("0.9", "0.96"), ("0.05", "0.1")):
            with mp.workprec(200):
                lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
            (res_lo, pos_lo), (res_hi, pos_hi) = evaluate(lo), evaluate(hi)
            assert pos_lo != pos_hi
            assert res_lo.flags == res_hi.flags == ("real-snapped",)
            for _ in range(140):
                with mp.workprec(200):
                    mid = (lo + hi) / 2
                res, pos = evaluate(mid)
                assert ("real-snapped" in res.flags) != res.value.is_zero(), mid
                if pos == pos_lo:
                    lo = mid
                else:
                    hi = mid
            assert "cancel" in res.flags, (lo, hi)

    @pytest.mark.parametrize("evaluator, z", [
        (eval_region_d, (1, -2)),  # the A point: A and D share one evaluator
        (eval_region_b, (1, -0.05)),
        (eval_region_d, (4, -0.05)),
    ])
    def test_lower_half_rejected(self, evaluator, z):
        # the region formulas hold on the closed upper half-plane; below it
        # they would return the wrong branch (about pi off in phase)
        with pytest.raises(DomainError, match="Im z >= 0"):
            evaluator(100, 1, mpmath.mpc(*z), 128)
        evaluator(100, 1, mpmath.mpc(z[0], -z[1]), 128)

    def test_band_formula_rejects_zero(self):
        with pytest.raises(DomainError, match="z = 0 excluded"):
            eval_region_b(100, 1, 0, 128)

    def test_origin_conjugation_matches_direct(self):
        z = mpmath.mpc("0.05", "-0.03")
        ay = eval_asym(300, 1, z, PARAMS, 192)
        assert ay.region.tag == "origin" and ay.region.conjugated
        direct = eval_region_b(300, 1, mpmath.conj(z), 192)
        assert ay.value.log_mod == direct.value.log_mod
        assert ay.value.phase + direct.value.phase == 0


# ----------------------------------------------------------------------
# points on and near the region edges and close to the real axis
# ----------------------------------------------------------------------

EDGE_KINDS = ("origin", "C", "im", "re_eps", "re_2m", "re_2p", "k", "cut", "cut_phi")


def _edge_point(kind, rel, t, n, alpha, params, bits):
    """(x, y) in doubles, first quadrant, at relative distance ``rel`` from
    one edge of the region decomposition (``kind``), ``t`` in [0, 1]
    placing it along that edge.  "cut" and "cut_phi" are the heights
    2^-(bits/2) min(1, |z|) and 2^-((bits+32)/2) min(1, |z|) above the
    real axis."""
    eps, delta = float(params.eps), float(params.delta)
    k = math.sqrt(n / alpha) + delta
    if kind == "origin":
        r, th = eps * (1 + rel), t * math.pi / 2
        return r * math.cos(th), r * math.sin(th)
    if kind == "C":
        r, th = eps * (1 + rel), t * math.pi
        return 2 + r * math.cos(th), r * math.sin(th)
    if kind == "im":
        return t * (k + 1), delta * (1 + rel)
    if kind in ("re_eps", "re_2m", "re_2p", "k"):
        x = {"re_eps": eps, "re_2m": 2 - eps, "re_2p": 2 + eps, "k": k}[kind]
        return x * (1 + rel), t * delta
    x = 0.05 + 2 * t
    half = bits // 2 if kind == "cut" else (bits + 32) // 2
    return x, math.ldexp(min(1.0, x), -half) * (1 + rel)


PARAMS_VARIANTS = (PARAMS, Params(0.5, 0.3), Params(1e-3, 1e-4), Params(3, 2.5), Params(1e-30, 1e-31))


@st.composite
def _placements(draw):
    """(n, alpha, z, params, bits) over all four quadrants: a point of a box,
    or one within 2^-30 ... 2^-60 relative of an edge or a near-axis height."""
    params = draw(st.sampled_from(PARAMS_VARIANTS))
    n = draw(st.integers(1, 6400))
    alpha = 10.0 ** draw(st.floats(-6, 6))
    bits = draw(st.sampled_from([128, 256]))
    kind = draw(st.sampled_from(("box",) + EDGE_KINDS))
    if kind == "box":
        x, y = draw(st.floats(0, 6)), draw(st.floats(0, 6))
    else:
        rel = draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** -draw(st.integers(30, 60))
        x, y = _edge_point(kind, rel, draw(st.floats(0, 1)), n, alpha, params, bits)
    x = -x if draw(st.booleans()) else x
    y = -y if draw(st.booleans()) else y
    return n, alpha, (x, y), params, bits


def _fraction_locate(n, alpha, z, params, bits):
    """``locate`` in Fractions: the same validation, reductions and region
    inequalities, each evaluated exactly on the rounded inputs."""
    z, a = to_mpc(z, bits), to_mpf(alpha, bits)
    if not (mpmath.isfinite(z) and mpmath.isfinite(a)) or a <= 0:
        raise ConfigError
    if z == 0:
        raise DomainError
    if n < 1:
        raise ConfigError
    negated = z.real < 0
    conjugated = z.imag > 0 if negated else z.imag < 0
    x, y, a = abs(to_fraction(z.real)), abs(to_fraction(z.imag)), to_fraction(a)
    eps, delta = Fraction(params.eps), Fraction(params.delta)

    def tag(y):
        if x * x + y * y < eps * eps:
            return "origin"
        if (x - 2) ** 2 + y * y <= eps * eps:
            return "C"
        if y <= delta:
            if eps <= x <= 2 - eps:
                return "B"
            if 2 + eps <= x and (x <= delta or (x - delta) ** 2 * a <= n):
                return "D"
        return "A"

    return (x, y), asym.RegionLabel(tag(y), negated, conjugated)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ConfigError, DomainError) as e:
        return type(e)


# exactly on each edge of Params(): |z| = eps, |z-2| = eps, Im z = delta,
# Re z in {eps, 2-eps, 2+eps}; the k edge depends on the width
with mp.workprec(512):
    _EPS, _DELTA = mpmath.mpf(PARAMS.eps), mpmath.mpf(PARAMS.delta)
    EDGES = (mpmath.mpc(0, _EPS), mpmath.mpc(2, _EPS), mpmath.mpc(1, _DELTA),
             mpmath.mpc(_EPS, "0.1"), mpmath.mpc(2 - _EPS, "0.1"), mpmath.mpc(2 + _EPS, "0.1"))


def _k_edge_point(bits):
    return mpmath.mpc(PARAMS.k_edge(300, "1.3", bits), "0.1")


def _at_height(bits, half, ulps):
    """1 + i 2^-half moved by ``ulps`` units in the last place at ``bits``."""
    with mp.workprec(2 * bits):
        y = mpmath.ldexp(1, -half)
        y += ulps * mpmath.ldexp(1, -half - bits + (1 if ulps > 0 else 0))
    return mpmath.mpc(1, y)


def _placement_examples(f):
    for bits in (128, 256):
        for z in EDGES + (_k_edge_point(bits),):
            f = example(case=(300, "1.3", z, PARAMS, bits))(f)
        for ulps in (-1, 0, 1):
            f = example(case=(300, "1.3", _at_height(bits, bits // 2, ulps), PARAMS, bits))(f)
            # the same at (bits + 32)/2, in region A
            f = example(case=(300, "1.3", _at_height(bits, (bits + 32) // 2, ulps),
                              Params(1e-30, 1e-31), bits))(f)
    for z in (("1e-400", "1e-400"), ("1e400", "1"), ("-1e-400", "0")):
        f = example(case=(300, "1.3", z, PARAMS, 256))(f)
    f = example(case=(300, "1e-400", (1, 1), PARAMS, 256))(f)
    f = example(case=(300, "1.3", (1, "1e-80"), PARAMS, 4096))(f)
    for params in PARAMS_VARIANTS[1:]:
        f = example(case=(300, "1.3", mpmath.mpc(params.eps, 0), params, 128))(f)
        f = example(case=(300, "1.3", mpmath.mpc(2, params.eps), params, 128))(f)
    return f


class TestExactPlacement:
    """``locate`` decides the region exactly and moves no point: its label
    and its reduced point equal those of a Fraction evaluation of the same
    inequalities, on every edge, close to the real axis and off them."""

    @settings(max_examples=300)
    @given(case=_placements())
    @_placement_examples
    # |z - 2| exceeds eps by about y^2/(2 eps) = 7e-441: D, where rounding
    # |z - 2| to the working width gave eps and C
    @example(case=(59, 1.0, (4.5, 1.86e-220), Params(3, 2.5), 256))
    # exactly on the right edge of D: (x - delta)^2 alpha = n
    @example(case=(16, 1.0, (4.25, 0.1), PARAMS, 128))
    def test_matches_fraction(self, case):
        got = _outcome(locate, *case)
        ref = _outcome(_fraction_locate, *case)
        if isinstance(ref, type):
            assert got is ref, case
            return
        z1, label = got
        assert label == ref[1], case
        assert (to_fraction(z1.real), to_fraction(z1.imag)) == ref[0], case


class TestGeometryRecord:
    """Each field of the per-point record is taken at the width of its
    widest reader, so phi and h read from it the bits they compute
    without it."""

    @given(case=_placements())
    @example(case=(400, 1.0, ("2.0000000001", "1e-12"), PARAMS, 256))  # h widened by 1.5 mag t
    @example(case=(400, 1.0, ("1e-10", "3e-11"), PARAMS, 256))  # phi widened near 0
    @example(case=(400, 1.0, ("0.5", "0"), PARAMS, 128))  # band boundary value
    @example(case=(6400, 1.0, ("0.003", "0.0015"), Params(1e-3, 1e-4), 256))  # D-function wider than phi
    @example(case=(1, 1.0, (3.0, 0.0), Params(3, 2.5), 128))  # C disk wider than h's: both calls raise
    def test_phi_and_h_bits_unchanged(self, case):
        from tcasym.auxfun import h_factor, phi
        n, alpha, z, params, bits = case
        try:
            z1, label, a = asym._locate(n, alpha, z, params, bits)
        except (ConfigError, DomainError):
            return
        g = asym._point(n, a, z1, bits, label.tag)
        if label.tag == "C":  # h at the width eval_region_c takes it
            ref = _outcome(h_factor, z1, bits + 32)
            v = _outcome(lambda: h_factor(z1, bits + 32, _geo=g))
        else:
            ref = _outcome(phi, z1, bits + 16)
            v = _outcome(lambda: phi(z1, bits + 16, _geo=g))
        if isinstance(ref, type):
            assert v is ref
        else:
            assert (v.real._mpf_, v.imag._mpf_) == (ref.real._mpf_, ref.imag._mpf_), case


def _parity_pair(p, q, n):
    """The phases p, q of z and -z, at the ambient width: equal for even n;
    for odd n one is the other plus or minus pi, rounded once."""
    if n % 2 == 0:
        return p == q
    pi = +mpmath.pi
    return q in (p + pi, p - pi) or p in (q + pi, q - pi)


def _conj_phase(p):
    """The phase of conj(z) from the phase p of z: exact negation, and pi
    stays pi."""
    return p if p == +mpmath.pi else -p


class TestDispatcher:
    def test_symmetries_bitwise(self, rng):
        for _ in range(100):
            z = mpmath.mpc(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(z) < 1e-3:
                continue
            n = rng.choice([57, 200])
            a1 = eval_asym(n, 1, z, PARAMS, 192)
            a2 = eval_asym(n, 1, -z, PARAMS, 192)
            a3 = eval_asym(n, 1, mpmath.conj(z), PARAMS, 192)
            a4 = eval_asym(n, 1, -mpmath.conj(z), PARAMS, 192)
            with mp.workprec(192):
                assert a2.value.log_mod == a1.value.log_mod
                assert _parity_pair(a1.value.phase, a2.value.phase, n)
                assert a3.value.log_mod == a1.value.log_mod
                assert a3.value.phase == _conj_phase(a1.value.phase)
                # composition
                assert a4.value.log_mod == a1.value.log_mod
                assert _parity_pair(_conj_phase(a1.value.phase), a4.value.phase, n)

    @given(n=st.integers(1, 1600), alpha=st.floats(0.3, 2.5),
           kind=st.sampled_from(EDGE_KINDS[:7]), k=st.integers(2, 60),
           sign=st.sampled_from([-1.0, 1.0]), t=st.floats(0, 1))
    @example(n=200, alpha=1.0, kind="C", k=60, sign=1.0, t=0.5)  # 2^-60 inside C
    @example(n=57, alpha=2.5, kind="k", k=3, sign=-1.0, t=0.3)  # D
    def test_symmetries_bitwise_near_edges(self, n, alpha, kind, k, sign, t):
        # the record is built after the reductions, so the four reflections
        # of a point agree bit for bit in every region, including points
        # within 2^-60 of an edge
        x, y = _edge_point(kind, sign * 2.0 ** -k, t, n, alpha, PARAMS, 192)
        z = mpmath.mpc(x, y)
        if z == 0:
            return
        outs = [_outcome(eval_asym, n, alpha, v, PARAMS, 192)
                for v in (z, -z, mpmath.conj(z), -mpmath.conj(z))]
        if isinstance(outs[0], type):
            assert all(o is outs[0] for o in outs), (z, outs)
            return
        a1, a2, a3, a4 = outs
        assert a1.region.tag == a2.region.tag == a3.region.tag == a4.region.tag
        with mp.workprec(192):
            assert a2.value.log_mod == a3.value.log_mod == a4.value.log_mod == a1.value.log_mod
            assert _parity_pair(a1.value.phase, a2.value.phase, n)
            # on the axis conj(z) is z itself: no reflection to check
            cc = _conj_phase(a1.value.phase) if y else a1.value.phase
            assert a3.value.phase == cc
            assert _parity_pair(cc, a4.value.phase, n)
            assert a1.dropped_term_bound == a2.dropped_term_bound == a3.dropped_term_bound == a4.dropped_term_bound

    def test_routes(self):
        assert eval_asym(100, 1, mpmath.mpc(0, 3), PARAMS, 128).region.tag == "A"
        assert eval_asym(100, 1, mpmath.mpc(-1, -0.05), PARAMS, 128).region == \
            eval_asym(100, 1, mpmath.mpc(-1, -0.05), PARAMS, 128).region
        lab = eval_asym(100, 1, mpmath.mpc(-1, -0.05), PARAMS, 128).region
        assert lab.tag == "B" and lab.negated and not lab.conjugated

    def test_band_formula_serves_origin(self):
        # three evaluators over five regions: band (B and the origin),
        # outer (A and D) and Airy (C)
        assert asym._EVALUATORS["origin"] is asym._EVALUATORS["B"] is eval_region_b
        assert asym._EVALUATORS["A"] is asym._EVALUATORS["D"] is eval_region_d
        assert len(set(asym._EVALUATORS.values())) == 3

    def test_locate_matches_dispatch(self):
        for z in (mpmath.mpc("-0.05", "-0.02"), mpmath.mpc(1, "-0.05"), mpmath.mpc("-2.05", "0.02"),
                  mpmath.mpc(4, "0.05"), mpmath.mpc(-1, 2)):
            z1, label = locate(100, 1, z, PARAMS, 128)
            assert z1.real >= 0 and z1.imag >= 0
            assert label == eval_asym(100, 1, z, PARAMS, 128).region
            assert label.tag == classify_region(z1, 100, 1, PARAMS, 128)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            eval_asym(100, 1, 0, PARAMS, 128)

    @pytest.mark.parametrize("alpha, z", [
        (1, mpmath.mpc("nan", 0)),
        (1, mpmath.mpc(1, "nan")),
        (1, mpmath.mpc("-inf", 1)),
        ("nan", mpmath.mpc(1, 1)),
        ("inf", mpmath.mpc(1, 1)),
    ])
    def test_non_finite_rejected(self, alpha, z):
        # rejected before dispatch, naming the input
        with pytest.raises(ConfigError, match="must be finite"):
            eval_asym(100, alpha, z, PARAMS, 128)

    @pytest.mark.parametrize("call, message", [
        (lambda: classify_region(mpmath.mpc(-1, 1), 100, 1, PARAMS),
         "classify_region expects the closed first quadrant; use eval_asym for general z"),
        (lambda: classify_region(mpmath.mpc(1, -1), 100, 1, PARAMS),
         "classify_region expects the closed first quadrant; use eval_asym for general z"),
        (lambda: eval_region_c(0, 1, mpmath.mpc("2.05", "0.02"), 128), "eval_region_c requires n >= 1"),
        (lambda: eval_asym(0, 1, mpmath.mpc(1, 2), PARAMS, 128), "eval_asym requires n >= 1"),
    ], ids=["classify-left", "classify-below", "region-c-n0", "eval-asym-n0"])
    def test_bad_arguments_rejected(self, call, message):
        with pytest.raises(ConfigError) as err:
            call()
        assert str(err.value) == message

    @pytest.mark.parametrize("alpha", [0, -1.5])
    def test_non_positive_alpha_rejected(self, alpha):
        # rejected before dispatch, as on the exact path
        with pytest.raises(ConfigError, match="alpha must be > 0"):
            eval_asym(100, alpha, mpmath.mpc(1, 2), PARAMS, 128)

    def test_rerun_identical(self):
        a = eval_asym(123, 1, mpmath.mpc("0.7", "0.3"), PARAMS, 160)
        b = eval_asym(123, 1, mpmath.mpc("0.7", "0.3"), PARAMS, 160)
        assert a.value.log_mod == b.value.log_mod and a.value.phase == b.value.phase
        assert a.dropped_term_bound == b.dropped_term_bound


def _matches(v, ref, bits):
    """v agrees with ref to 2^-(bits-24) max(1, |log_mod|) in log-modulus
    and in phase (mod 2 pi)."""
    tol = mpmath.ldexp(1, -(bits - 24)) * max(1, abs(ref.log_mod))
    with working(4 * bits):
        dp = v.phase - ref.phase
        dp -= 2 * mpmath.pi * mpmath.nint(dp / (2 * mpmath.pi))
        return abs(v.log_mod - ref.log_mod) <= tol and abs(dp) <= tol


class TestBandFormulaOriginDisk:
    """The band formula keeps its precision across the origin disk, down
    to |z| = 1e-3 and up to n = 6400, at every arg z; the 1024-bit
    reference is taken at the point the 256-bit call evaluates (z rounded
    to 256 bits, ``locate``)."""

    @given(log_r=st.floats(-3, math.log10(0.149)),
           theta=st.one_of(st.just(0.0), st.floats(1e-300, math.pi / 2)),
           n=st.integers(50, 6400), alpha=st.floats(0.5, 2.5))
    # nearly real: Im z far below 2^-128 |z|
    @example(log_r=-1, theta=1e-50, n=400, alpha=1.0)
    @example(log_r=-1, theta=1.7e-74, n=50, alpha=1.0)
    def test_256_bits_against_1024(self, log_r, theta, n, alpha):
        r = 10 ** log_r
        z = (r * math.cos(theta), r * math.sin(theta))
        v = eval_asym(n, alpha, z, PARAMS, 256)
        assert v.region.tag == "origin"
        z1, _ = locate(n, alpha, z, PARAMS, 256)
        ref = eval_asym(n, alpha, z1, PARAMS, 1024)
        if "cancel" not in v.flags + ref.flags:
            assert _matches(v.value, ref.value, 256), (z, n, alpha)

    @pytest.mark.parametrize("on_axis", [False, True])
    @pytest.mark.parametrize("r", ["1e-40", "1e-80", "1e-300"])
    @pytest.mark.parametrize("n", [1, 3, 101, 401])
    def test_odd_degree_tiny_z_not_cancelled(self, n, r, on_axis):
        # for odd n the two terms cancel to O(|z|), and the sum is formed
        # wider by that loss: it keeps about bits - 16 bits and is not
        # flagged (below |z| = 2^-(bits-16) it was, and the test above
        # skipped it), at 256 bits and in the 1024-bit reference
        z = (r, "0" if on_axis else r)
        v = eval_asym(n, 1.5, z, PARAMS, 256)
        assert v.region.tag == "origin" and "cancel" not in v.flags
        ref = eval_asym(n, 1.5, locate(n, 1.5, z, PARAMS, 256)[0], PARAMS, 1024)
        assert "cancel" not in ref.flags
        assert _matches(v.value, ref.value, 256)


@st.composite
def _band_formula_points(draw):
    """(n, alpha, z, bits): a band-strip or origin-disk point in any
    quadrant, exact in doubles; on the axis, nearly real (arg z down to
    1e-300) or not, and in the disk down to |z| = 1e-80."""
    n = draw(st.integers(1, 2000))
    alpha = draw(st.floats(0.5, 2.5))
    bits = draw(st.sampled_from([128, 256]))
    if draw(st.booleans()):
        r = 10 ** draw(st.floats(-80, math.log10(0.149)))
        theta = draw(st.one_of(st.just(0.0), st.floats(1e-300, 1e-2), st.floats(0, math.pi / 2)))
        x, y = r * math.cos(theta), r * math.sin(theta)
    else:
        x = draw(st.floats(PARAMS.eps, 2 - PARAMS.eps))
        y = draw(st.one_of(st.just(0.0), st.floats(1e-300, 1e-2), st.floats(0, PARAMS.delta)))
    x = -x if draw(st.booleans()) else x
    y = -y if draw(st.booleans()) else y
    return n, alpha, (x, y), bits


class TestBandFormulaAccuracy:
    """The band formula's value, in the band strip and the origin disk, is
    its value at bits + 256 rounded: one ulp in log-modulus and 2^-(bits-3)
    in phase, though the unreduced phase is thousands of radians."""

    @settings(max_examples=60)
    @given(case=_band_formula_points())
    @example(case=(1852, 1.341, (1.633673, -0.009289), 256))  # phase 82 ulps off when summed in log form
    @example(case=(1467, 0.764, (-0.40803, 0.030554), 128))
    @example(case=(401, 1.5, (1e-80, 1e-80), 256))  # odd n: the terms cancel to O(|z|)
    @example(case=(1, 1.5, (-1e-80, 0.0), 128))
    @example(case=(400, 1.0, (1.0, 1e-45), 256))  # B, Im z far below 2^-128
    @example(case=(50, 1.0, (0.0, 1e-45), 256))  # on the imaginary axis
    def test_against_wider_run(self, case):
        n, alpha, z, bits = case
        v = eval_asym(n, alpha, z, PARAMS, bits)
        assert v.region.tag in ("B", "origin"), case
        ref = eval_asym(n, alpha, z, PARAMS, bits + 256)
        if "cancel" not in v.flags + ref.flags:
            assert within_rounding(v.value, ref.value, bits), case


class TestRealAxisOuterRegions:
    """Regions A and D at a real point: the value is asserted real and its
    phase is exactly 0 or pi, at both widths, as in regions B and C."""

    @given(n=st.integers(2, 1600), alpha=st.floats(0.3, 2.5), x=st.floats(2.16, 80),
           bits=st.sampled_from([128, 256]))
    @example(n=2, alpha=1.0, x=2.2, bits=256)  # A: phase 5.8e-83 before the snap
    @example(n=200, alpha=1.0, x=4.0, bits=256)  # D: 12 pi plus a residue before
    def test_phase_zero_or_pi(self, n, alpha, x, bits):
        v = eval_asym(n, alpha, (x, 0), PARAMS, bits)
        assert v.region.tag in ("A", "D")
        assert "real-snapped" not in v.flags
        with mp.workprec(bits):
            assert v.value.phase == 0 or v.value.phase == +mpmath.pi, (n, alpha, x)


class TestPrincipalPhase:
    """Every asymptotic value has its phase in (-pi, pi], the exact path's
    convention, in all five regions and four quadrants; where both paths
    are good, the two phases differ mod 2 pi by no more than the row's
    rel_err allows."""

    @settings(max_examples=60)
    @given(n=st.integers(1, 1600), alpha=st.floats(0.3, 2.5), kind=st.sampled_from(EDGE_KINDS[:7]),
           k=st.integers(1, 60), sign=st.sampled_from([-1.0, 1.0]), t=st.floats(0, 1),
           flip_re=st.booleans(), flip_im=st.booleans(), bits=st.sampled_from([128, 256]))
    @example(n=1601, alpha=1.3, kind="k", k=3, sign=-1.0, t=0.3, flip_re=True, flip_im=False, bits=256)  # D
    @example(n=400, alpha=1.3, kind="re_eps", k=1, sign=1.0, t=0.0, flip_re=True, flip_im=True, bits=128)  # B axis
    def test_principal_and_close_to_exact(self, n, alpha, kind, k, sign, t, flip_re, flip_im, bits):
        x, y = _edge_point(kind, sign * 2.0 ** -k, t, n, alpha, PARAMS, bits)
        rec = compare_point(n, alpha, (-x if flip_re else x, -y if flip_im else y), PARAMS, bits)
        if rec.log_asym is None:
            return
        with mp.workprec(bits):
            assert -mpmath.pi < rec.log_asym.phase <= mpmath.pi, rec
        if rec.error or rec.rel_err is None or rec.rel_err >= 0.5 or {"near-zero", "cancel"} & set(rec.flags):
            return
        with mp.workprec(2 * bits):
            d = rec.log_asym.phase - rec.log_exact.phase
            d -= 2 * mpmath.pi * mpmath.nint(d / (2 * mpmath.pi))
            assert abs(d) <= 1.01 * rec.rel_err + mpmath.ldexp(1, -(bits - 8)), rec

    @pytest.mark.parametrize("n", [101, 400])
    @pytest.mark.parametrize("x", ["2.3", "4.1"])
    def test_near_axis_reflections(self, n, x):
        # D at x + i 2^-300: the evaluator's phase is within half an ulp of
        # 0 (n = 101, x = 2.3), of -pi (n = 400, x = 2.3) or of pi at 256
        # bits, where the rounding, a half turn or a conjugation could
        # leave (-pi, pi]
        z = mpmath.mpc(x, mpmath.ldexp(1, -300))
        for v in (z, -z, mpmath.conj(z), -mpmath.conj(z)):
            phase = eval_asym(n, "1.3", v, PARAMS, 256).value.phase
            with mp.workprec(256):
                assert -mpmath.pi < phase <= mpmath.pi, (n, v, phase)


class TestSnapReal:
    """``asym._finish`` at a real z: a phase within REAL_SNAP_TOL of a
    multiple of pi snaps to 0 or pi, and a larger residual is an error, not
    a value."""

    @pytest.mark.parametrize("k", [-3, -1, 0, 1, 2, 6])
    @pytest.mark.parametrize("off", [-1, 1])
    def test_residual_below_tolerance_snaps(self, k, off):
        with mp.workprec(160):
            phase = k * mpmath.pi + off * asym.REAL_SNAP_TOL / 2
        with mp.workprec(128):
            want = mpmath.mpf(0) if k % 2 == 0 else +mpmath.pi
        v = asym._finish(mpmath.mpf("0.5")._mpf_, phase._mpf_, 128, 160, True)
        assert v.log_mod == mpmath.mpf("0.5") and v.phase == want

    @pytest.mark.parametrize("k", [0, 1, -1, 4])
    @pytest.mark.parametrize("off", [-1, 1])
    def test_residual_above_tolerance_raises(self, k, off):
        with mp.workprec(160):
            phase = k * mpmath.pi + off * asym.REAL_SNAP_TOL * 2
        with pytest.raises(ArithmeticError, match="imaginary residual"):
            asym._finish(mpmath.mpf("0.5")._mpf_, phase._mpf_, 128, 160, True)


class TestRegionCLargeDegree:
    """Region C where |Im tau|, tau = alpha pi - n pi/z^2, is in the
    hundreds: Ai cos tau and Bi sin tau are each about e^|Im tau| times
    the bracket, so the brackets must be summed in separated form."""

    @pytest.mark.parametrize("n", [3200, 6400])
    def test_default_grid_against_1024_bits(self, n):
        # the top row of the default grid (largest Im z, largest |Im tau|)
        pts = region_grid("C", n, 1, nre=8, nim=5)[4::5]
        assert len(pts) == 8
        for z in pts:
            v = eval_region_c(n, 1, z, 256)
            assert not v.value.is_zero(), z
            if "cancel" not in v.flags:
                ref = eval_region_c(n, 1, z, 1024)
                assert _matches(v.value, ref.value, 256), z

    def test_pinned_point(self):
        # an exact zero with no flag before the separated form
        z = mpmath.mpc("1.92575", "0.07425")
        v = eval_region_c(6400, 1, z, 256)
        ref = eval_region_c(6400, 1, z, 640)
        assert not v.value.is_zero()
        assert _matches(v.value, ref.value, 256)
