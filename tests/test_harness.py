import math

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tcasym import asym, exact, harness
from tcasym.mpnum import ConfigError, to_mpc, to_mpf

from conftest import within_rounding


class TestComparePoint:
    def test_outer_point(self):
        rec = harness.compare_point(200, 1, mpmath.mpc(1, 2))
        assert rec.region == "A" and rec.error is None
        assert rec.rel_err < 0.05

    def test_parity_invariance(self):
        a = harness.compare_point(200, 1, mpmath.mpc(1, 2))
        b = harness.compare_point(200, 1, mpmath.mpc(-1, -2))
        assert a.rel_err == b.rel_err

    def test_degree_one_defined(self):
        rec = harness.compare_point(1, 1, mpmath.mpc(1, 1))
        assert rec.rel_err is not None and rec.error is None

    def test_error_recorded_not_raised(self):
        rec = harness.compare_point(100, 1, mpmath.mpc(0, 0))
        assert rec.error is not None and "asym" in rec.error
        # a non-finite point is an error row, not a NaN exact value
        rec = harness.compare_point(100, 1, mpmath.mpc("nan", 0))
        assert "exact:ConfigError" in rec.error and rec.log_exact is None
        assert "asym:ConfigError" in rec.error and rec.log_asym is None
        # alpha <= 0 is refused by both paths before any evaluation
        for alpha in (0, -1.5):
            rec = harness.compare_point(100, alpha, mpmath.mpc(1, 2))
            assert "exact:ConfigError" in rec.error and "asym:ConfigError" in rec.error

    def test_alpha_rounded_once(self, monkeypatch):
        # a string alpha, as perfbench passes it, is rounded to 256 bits once
        # and that one mpf goes to both paths; the record does not depend on
        # whether the caller rounded it first
        seen = []

        def spy(f):
            def wrapped(n, alpha, *args):
                seen.append(alpha)
                return f(n, alpha, *args)
            return wrapped

        monkeypatch.setattr(exact, "eval_monic_rescaled", spy(exact.eval_monic_rescaled))
        monkeypatch.setattr(asym, "eval_asym", spy(asym.eval_asym))
        alpha = "1.2345678901234567890123456789012345678901234567890123456789012345678901234567890"
        z = mpmath.mpc("2.05", "0.02")
        rec = harness.compare_point(1500, alpha, z)
        assert len(seen) == 2 and type(seen[0]) is mpmath.mpf and seen[1] is seen[0]
        assert seen[0] == to_mpf(alpha, 256)
        assert rec.error is None and rec.region == "C"
        assert harness.compare_point(1500, to_mpf(alpha, 256), z) == rec

    @given(log_r=st.floats(-3, math.log10(1.8)), log_theta=st.floats(-300, -2),
           quadrant=st.sampled_from([(1, 1), (-1, 1), (1, -1), (-1, -1)]),
           n=st.integers(2, 2000), alpha=st.floats(0.5, 2.5))
    def test_near_axis_no_error_rows(self, log_r, log_theta, quadrant, n, alpha):
        # origin disk and band, arg z down to 1e-300
        r, theta = 10 ** log_r, 10 ** log_theta
        z = (quadrant[0] * r * math.cos(theta), quadrant[1] * r * math.sin(theta))
        rec = harness.compare_point(n, alpha, z)
        assert rec.error is None, (z, n, alpha)
        assert rec.region in ("origin", "B")

    @given(log_r=st.floats(-3, math.log10(1.8)), log_theta=st.floats(-300, -2),
           quadrant=st.sampled_from([(1, 1), (-1, 1), (1, -1), (-1, -1)]),
           n=st.integers(2, 2000), alpha=st.floats(0.5, 2.5))
    # about 0.05 + 1e-40 i: its phase, -6.011e-39, is no rounding residue
    @example(log_r=math.log10(0.05), log_theta=math.log10(2e-39), quadrant=(1, 1), n=400, alpha=1.0)
    def test_near_axis_width_independent(self, log_r, log_theta, quadrant, n, alpha):
        # the same nearly real point, exact in doubles, at three widths: every
        # width evaluates it where it is, so each value is the 320-bit one
        # rounded, whatever its distance to the axis
        r, theta = 10 ** log_r, 10 ** log_theta
        z = (quadrant[0] * r * math.cos(theta), quadrant[1] * r * math.sin(theta))
        recs = {bits: harness.compare_point(n, alpha, z, prec=bits) for bits in (128, 256, 320)}
        for bits, rec in recs.items():
            assert rec.error is None and rec.region in ("origin", "B"), (bits, z, n, alpha)
        if "cancel" in recs[320].flags:
            return
        for bits in (128, 256):
            assert within_rounding(recs[bits].log_asym, recs[320].log_asym, bits), (bits, z, n, alpha)

    def test_tiny_z_off_axis_not_snapped(self):
        # Im z = 1e-50 is below 2^-128 but not below 2^-128 |z|: the point is
        # off the cut relative to its size and must not be moved onto the
        # axis, which changed |z| by O(1) relative and gave rel_err 0.7071
        rec = harness.compare_point(101, 1.5, (1e-50, 1e-50), prec=256)
        ref = harness.compare_point(101, 1.5, (1e-50, 1e-50), prec=768)
        assert rec.error is None and rec.region == "origin" and "real-snapped" not in rec.flags
        assert rec.rel_err == pytest.approx(ref.rel_err, rel=1e-12)
        assert rec.rel_err == pytest.approx(0.005278971619283551, rel=1e-12)

    @pytest.mark.parametrize("x", ["1e-50", "1e-100", "1e-300"])
    def test_origin_tiny_real_z_keeps_phase(self, x):
        # phi_tilde and i pi/z^2 cancel to O(1) as z -> 0: at 256 bits the
        # rel_err must match a 768-bit evaluation, not drift to O(1)
        rec = harness.compare_point(400, 1, (x, 0), prec=256)
        ref = harness.compare_point(400, 1, (x, 0), prec=768)
        assert rec.error is None and rec.region == "origin"
        assert rec.rel_err == pytest.approx(ref.rel_err, rel=1e-12)
        assert rec.rel_err == pytest.approx(4.1675e-4, rel=1e-4)

    @pytest.mark.parametrize("on_axis", [False, True])
    @pytest.mark.parametrize("n", [101, 401])
    @pytest.mark.parametrize("bits", [128, 256])
    def test_odd_degree_tiny_z(self, bits, n, on_axis):
        # for odd n the value is O(z) at the origin, and the band formula's
        # two terms cancel to O(|z|); once that was wider than the working
        # width, rel_err grew like 1/|z| (353 at |z| = 1e-80 and 256 bits)
        def rel_err(r):
            rec = harness.compare_point(n, 1.5, (r, "0" if on_axis else r), prec=bits)
            assert rec.error is None and rec.region == "origin"
            return rec.rel_err

        ref = rel_err("1e-20")
        for r in ("1e-80", "1e-300"):
            assert rel_err(r) == pytest.approx(ref, rel=1e-12), r

    # the set-up points of the benchmark, one per region, at n = 150, alpha = 1
    _SETUP = (("1", "2"), ("1", "0.05"), ("2.05", "0.02"), ("4", "0.05"), ("0.05", "0.05"))

    def test_precision_contexts_counted(self, monkeypatch):
        # the rounding helpers, the per-point glue, the reflections and the
        # whole asymptotic path (geometry record, phi, h, the exponents and
        # the three evaluators) make raw libmp calls at explicit widths:
        # warm, the five points enter no mp.workprec context (156 at first,
        # then 37 with the asymptotic path still in the context)
        for z in self._SETUP:
            harness.compare_point(150, "1", z, prec=256)
        entered = []
        workprec = mpmath.mp.workprec
        monkeypatch.setattr(mpmath.mp, "workprec", lambda *a, **k: entered.append(a) or workprec(*a, **k))
        for z in self._SETUP:
            harness.compare_point(150, "1", z, prec=256)
        assert entered == []

    def test_determinism(self):
        a = harness.compare_point(150, 1, mpmath.mpc("0.3", "0.9"), prec=160)
        b = harness.compare_point(150, 1, mpmath.mpc("0.3", "0.9"), prec=160)
        assert a._asdict() == b._asdict()


class TestConvergenceFit:
    def test_outer_region_order_one(self):
        fit = harness.convergence_fit(1, mpmath.mpc(1, 2), [100, 200, 400, 800])
        assert fit.region == "A"
        assert 0.8 <= fit.p <= 1.2
        assert fit.residual < 0.1

    def test_turning_region_order_one(self):
        fit = harness.convergence_fit(1, mpmath.mpc("2.05", "0.02"), [100, 200, 400, 800])
        assert fit.region == "C" and 0.8 <= fit.p <= 1.2

    def test_dropped_term_flagged_not_failed(self):
        fit = harness.convergence_fit(1, mpmath.mpc("2.16", "0.01"), [100, 200, 400, 800])
        assert "dropped-term-dominant" in fit.flags

    def test_short_ladder_rejected(self):
        with pytest.raises(ConfigError):
            harness.convergence_fit(1, mpmath.mpc(1, 2), [100, 200, 400])

    @pytest.mark.parametrize("n_list", [[100, 100, 100, 100], [100, 200, 200, 400], [800, 400, 200, 100]])
    def test_repeated_or_decreasing_degrees_rejected(self, n_list):
        # a repeated degree would fit an "order" to fewer distinct points
        with pytest.raises(ConfigError, match="strictly increasing"):
            harness.convergence_fit(1, mpmath.mpc(1, 2), n_list)

    def test_matches_closed_form_least_squares(self):
        n_list = (100, 200, 400, 800)
        fit = harness.convergence_fit(1, mpmath.mpc(1, 2), n_list)
        assert not any(f.startswith("near-zero") for f in fit.flags)
        xs = [math.log(n) for n in n_list]
        ys = [math.log(e) for e in fit.rel_errs]
        k = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxx = sum(x * x for x in xs)
        sxy = sum(x * y for x, y in zip(xs, ys))
        slope = (k * sxy - sx * sy) / (k * sxx - sx * sx)
        intercept = (sy - slope * sx) / k
        resid = math.sqrt(sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys)) / k)
        assert fit.p == pytest.approx(-slope, abs=1e-12)
        assert fit.c == pytest.approx(math.exp(intercept), rel=1e-12)
        assert fit.residual == pytest.approx(resid, abs=1e-12)

    def test_degenerate_data_rejected(self):
        with pytest.raises(ConfigError):
            harness.convergence_fit(1, mpmath.mpc(0, 0), [100, 200, 400, 800])

    @pytest.mark.parametrize("rel_errs, flagged, message", [
        ([0.1, 0.05, 0.0, 0.01], (), "degenerate fit: rel_err=0.0 at n=400"),
        ([0.1, None, 0.02, 0.01], (), "degenerate fit: rel_err=None at n=200"),
        ([0.1, 0.05, 0.02, 0.01], (200, 800),
         "degenerate fit: fewer than 3 usable records after near-zero exclusion"),
    ])
    def test_unusable_records_rejected(self, monkeypatch, rel_errs, flagged, message):
        # records a real point rarely yields: a vanishing or missing
        # rel_err, and too many near-zero records to fit
        errs = dict(zip((100, 200, 400, 800), rel_errs))

        def record(n, alpha, z, params, prec):
            flags = ("near-zero",) if n in flagged else ()
            return harness.EvalRecord(n, 1.0, complex(1, 2), "A", None, None, errs[n], None, flags)

        monkeypatch.setattr(harness, "compare_point", record)
        with pytest.raises(ConfigError) as err:
            harness.convergence_fit(1, mpmath.mpc(1, 2), [100, 200, 400, 800])
        assert str(err.value) == message


class TestDarboux:
    def test_monotone_decrease(self):
        rep = harness.darboux_check(1, mpmath.mpf("1.5"), [100, 200, 400])
        assert rep.formula_monotone and rep.strip_monotone

    def test_negative_argument_parity(self):
        a = harness.darboux_check(1, mpmath.mpf("1.5"), [100, 200])
        b = harness.darboux_check(1, mpmath.mpf("-1.5"), [100, 200])
        for ra, rb in zip(a.rows, b.rows):
            assert abs(ra.rel_err_formula - rb.rel_err_formula) < 1e-12

    def test_exact_path_at_full_width(self):
        # 1.3 is not a binary fraction: the exact path must see the same
        # 256-bit x as the formula, not its 53-bit rounding
        x = to_mpf("1.3", 256)
        rep = harness.darboux_check(1, "1.3", [100, 400], 256)
        for row in rep.rows:
            ex = exact.eval_f(row.n, 1, to_mpc(x, 256), 256)
            form = harness._darboux_log_value(row.n, 1, x, 256)
            assert row.rel_err_formula == float(harness.rel_err_log(ex, form, 256))

    def test_gamma_pole_rejected(self):
        # alpha - 1/x^2 = 0 exactly at alpha = 1/4, x = 2
        with pytest.raises(ConfigError):
            harness.darboux_check(mpmath.mpf("0.25"), mpmath.mpf(2), [100, 200])

    def test_inside_unit_interval_rejected(self):
        with pytest.raises(ConfigError):
            harness.darboux_check(1, mpmath.mpf("0.9"), [100, 200])


class TestBoundaryConsistency:
    def test_unknown_interface_rejected(self):
        with pytest.raises(ConfigError) as err:
            harness.boundary_consistency(100, 1, prec=128, interfaces=("A/X",))
        assert str(err.value) == "unknown interface A/X"

    def test_structure_and_decay(self):
        r400 = harness.boundary_consistency(400, 1, prec=192)
        r800 = harness.boundary_consistency(800, 1, prec=192)
        by_name4 = {c.pair: c.max_log_ratio for c in r400}
        by_name8 = {c.pair: c.max_log_ratio for c in r800}
        assert set(by_name4) == set(harness.INTERFACES)
        floor = 1e-40
        for name in by_name4:
            assert by_name8[name] <= max(by_name4[name], floor)
            if by_name4[name] > floor:
                assert by_name8[name] < by_name4[name]

    def test_identical_pair_zero(self):
        # A and D run one evaluator, and the origin disk runs the band
        # formula itself
        checks = harness.boundary_consistency(400, 1, prec=160, interfaces=("D/A", "origin/B"))
        assert [c.max_log_ratio for c in checks] == [0.0, 0.0]

    def test_points_count(self):
        checks = harness.boundary_consistency(200, 1, prec=128, interfaces=("B/A",))
        assert len(checks[0].points) == 10


class TestRegionGrids:
    @pytest.mark.parametrize("tag", ["origin", "B", "C", "D", "A"])
    def test_default_grid_interior_and_sane(self, tag):
        # every default-grid point classifies into its own region and both
        # paths agree to the usual leading-order accuracy at n = 200
        pts = harness.region_grid(tag, 200, 1, prec=128, nre=5, nim=3)
        recs = [harness.compare_point(200, 1, z, prec=128) for z in pts]
        assert len(recs) == 15
        assert all(r.region == tag for r in recs)
        assert all(r.error is None for r in recs)
        worst = max(r.rel_err for r in recs if r.rel_err is not None)
        assert worst < 0.02

    def test_full_shape(self):
        pts = harness.region_grid("B", 200, 1, prec=128)
        assert len(pts) == 200  # 20 x 10 default

    def test_unknown_region(self):
        with pytest.raises(ConfigError):
            harness.region_grid("Q", 200, 1, prec=128)


class TestOrthoReport:
    def test_matrix_passes(self):
        rep = harness.ortho_report(1, 4, 10000, 128)
        assert rep.all_pass
        assert len(rep.entries) == 25
        for e in rep.entries:
            if (e.m + e.n) % 2 == 1:
                assert e.exact_zero and e.value == 0.0
            elif e.m == e.n:
                assert e.target > 0
                assert abs(e.value - e.target) <= e.tail_bound

    def test_max_deg_capped(self):
        with pytest.raises(ConfigError):
            harness.ortho_report(1, 11, 100, 128)

    def test_non_finite_alpha_rejected(self):
        # inf > 0 holds, so a sign check alone would let inf through
        with pytest.raises(ConfigError, match="finite"):
            harness.ortho_report("inf", 2, 50, 128)
