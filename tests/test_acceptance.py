"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

All tolerances are pinned here; the criteria are property-based because
the underlying approximation theorems carry unquantified constants, so
rates and bounds are verified empirically at fixed, pre-registered
points.
"""

import math
import random
import statistics
import time

import mpmath
import pytest
from mpmath import mp

from tcasym import asym, harness
from tcasym.asym import Params
from tcasym.auxfun import d_triple, density_psi, phi, phi_hat, phi_tilde, theta_gamma_pi
from tcasym.mpnum import working
from tcasym.specfun import airy_quartet

PARAMS = Params()
REGION_POINTS = {
    "A": mpmath.mpc(1, 2),
    "B": mpmath.mpc(1, "0.05"),
    "C": mpmath.mpc("2.05", "0.02"),
    "D": mpmath.mpc(4, "0.05"),
    "origin": mpmath.mpc("0.05", "0.05"),
}
N_LADDER = (100, 200, 400, 800)


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


@pytest.fixture(scope="module")
def convergence_tables():
    """Criterion-4 table at 256 bits and its 128-bit re-computation."""
    tables = {}
    for bits in (256, 128):
        tables[bits] = {
            tag: [harness.compare_point(n, 1, z, PARAMS, bits) for n in N_LADDER]
            for tag, z in REGION_POINTS.items()
        }
    return tables


def test_criterion_1_orthogonality():
    t0 = time.time()
    rep = harness.ortho_report(1, 4, 10 ** 5, 128)
    elapsed = time.time() - t0
    ok = rep.all_pass and elapsed <= 120
    for e in rep.entries:
        if (e.m + e.n) % 2 == 1:
            ok &= e.exact_zero and e.value == 0.0
    _report(1, "orthogonality matrix vs tail bounds", ok, f"{elapsed:.1f}s at 128 bits")


def test_criterion_2_constants():
    with working(256):
        z = mpmath.mpf(10) ** 6
        l_err = abs(2 * (mpmath.log(z) + phi_tilde(z, 256)) - 1)
        band_edge = abs(density_psi(mpmath.mpf(2), 256) - mpmath.mpf(1) / 4)
    with mp.workprec(128):
        psi_exact = density_psi(3, 128) == mpmath.mpf(2) / 27
    with mp.workprec(100):
        integral = mpmath.quad(lambda s: density_psi(s, 100), [-2, -1, 0, 1, 2]) + mpmath.mpf(1) / 2
        int_err = abs(integral - 1)
    ok = l_err < 1e-6 and psi_exact and band_edge < 1e-12 and int_err < 1e-8
    _report(2, "normalization constant and density values", ok,
            f"l_err={mpmath.nstr(l_err, 3)}, int_err={mpmath.nstr(int_err, 3)}")


def test_criterion_3_identity_suite():
    rng = random.Random(31415)
    worst_d = mpmath.mpf(0)
    worst_conn = mpmath.mpf(0)
    with working(320):
        for _ in range(50):
            z = mpmath.mpc(rng.uniform(-4, 4), rng.choice([1, -1]) * rng.uniform(0.05, 3))
            n = rng.choice([20, 50, 137])
            t = d_triple(n, 1, z, 128)
            th, _, _ = theta_gamma_pi(n, 1, z, 320)
            sgn = 1 if z.imag > 0 else -1
            d = t.d.to_complex(320)
            dt = t.d_tilde.to_complex(320)
            dh = t.d_hat.to_complex(320)
            worst_d = max(worst_d, abs(dt - d * (1 - mpmath.exp(-sgn * 2j * th))) / abs(dt))
            worst_d = max(worst_d, abs(dh - d * (1 - mpmath.exp(sgn * 2j * th))) / abs(dh))
            # connection formulas tying the three phase functions together
            p = phi(z, 128)
            pt = phi_tilde(z, 128) if z.real > 0 or abs(z.imag) > 0 else None
            worst_conn = max(worst_conn, abs(phi_tilde(z, 128) - p - sgn * mpmath.pi * 1j / (z * z))
                             / max(1, abs(p)))
            if z.real < -0.05:
                worst_conn = max(worst_conn,
                                 abs(phi_hat(z, 128) - p + sgn * (1 / (z * z) - 1) * mpmath.pi * 1j)
                                 / max(1, abs(p)))
        # Airy connection identity and Wronskian
        w = mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi / 3))
        zz = mpmath.mpc(1, 1)
        q0, q1, q2 = (airy_quartet(c * zz, 128) for c in (1, w, w * w))
        airy_resid = abs(q0.ai + w * q1.ai + w * w * q2.ai)
        worst_wr = mpmath.mpf(0)
        for _ in range(20):
            zw = mpmath.mpc(rng.uniform(-5, 5), rng.uniform(-5, 5))
            q = airy_quartet(zw, 128)
            worst_wr = max(worst_wr, abs(q.ai * q.bi_d - q.ai_d * q.bi - 1 / mpmath.pi) * mpmath.pi)
    tol = mpmath.mpf(10) ** -20
    ok = worst_d < tol and worst_conn < tol and airy_resid < tol and worst_wr < tol
    _report(3, "D-function / connection / Airy / Wronskian identities", ok,
            f"worst={mpmath.nstr(max(worst_d, worst_conn, airy_resid, worst_wr), 3)}")


def test_criterion_4_convergence_order(convergence_tables):
    t0 = time.time()
    ok = True
    details = []
    for tag, recs in convergence_tables[256].items():
        xs = [math.log(n) for n in N_LADDER]
        ys = [math.log(r.rel_err) for r in recs]
        slope, _ = statistics.linear_regression(xs, ys)
        p = -slope
        details.append(f"{tag}:p={p:.3f}")
        ok &= 0.8 <= p <= 1.2
    elapsed = time.time() - t0
    _report(4, "empirical convergence order ~1/n in all five regions", ok,
            ", ".join(details))


def test_criterion_5_turning_point():
    errs = []
    for n in N_LADDER:
        rec = harness.compare_point(n, 1, mpmath.mpc(2, 0), PARAMS, 256)
        assert rec.error is None and rec.region == "C"
        errs.append(rec.rel_err)
    ok = all(mpmath.isfinite(mpmath.mpf(e)) for e in errs)
    ok &= errs[2] <= 0.1  # n = 400
    ok &= all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    _report(5, "finite and convergent through the turning point z=2", ok,
            "errs=" + ",".join(f"{e:.2e}" for e in errs))


def test_criterion_6_fixed_argument_limit():
    rep = harness.darboux_check(1, mpmath.mpf("1.5"), N_LADDER, 256)
    ok = rep.formula_monotone
    _report(6, "fixed-x classical form converges monotonically", ok,
            "errs=" + ",".join(f"{r.rel_err_formula:.2e}" for r in rep.rows))


def test_criterion_7_symmetry_suite():
    rng = random.Random(27182)
    ok = True
    count = 0
    while count < 100:
        z = mpmath.mpc(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z) < 1e-3:
            continue
        count += 1
        n = rng.choice([57, 200])
        a1 = asym.eval_asym(n, 1, z, PARAMS, 192)
        a2 = asym.eval_asym(n, 1, -z, PARAMS, 192)
        a3 = asym.eval_asym(n, 1, mpmath.conj(z), PARAMS, 192)
        p1, p2, p3 = a1.value.phase, a2.value.phase, a3.value.phase
        with mp.workprec(192):
            pi = +mpmath.pi
            ok &= a2.value.log_mod == a1.value.log_mod
            # parity: equal phases for even n, a half turn rounded once for odd n
            ok &= (p2 == p1 if n % 2 == 0 else p2 in (p1 + pi, p1 - pi) or p1 in (p2 + pi, p2 - pi))
            # conjugation: exact negation, and pi stays pi
            ok &= a3.value.log_mod == a1.value.log_mod
            ok &= p3 == (pi if p1 == pi else -p1)
    _report(7, "parity and conjugation bit-for-bit through the dispatcher", ok)


def test_criterion_8_cross_region():
    r400 = harness.boundary_consistency(400, 1, PARAMS, 256)
    r800 = harness.boundary_consistency(800, 1, PARAMS, 256)
    floor = 1e-40  # identical-formula interfaces sit at rounding level
    ok = True
    details = []
    for c4, c8 in zip(r400, r800):
        assert c4.pair == c8.pair
        details.append(f"{c4.pair}:{c4.max_log_ratio:.1e}->{c8.max_log_ratio:.1e}")
        if c4.max_log_ratio > floor:
            ok &= c8.max_log_ratio < c4.max_log_ratio
        else:
            ok &= c8.max_log_ratio <= floor
    _report(8, "adjacent evaluators agree better as n grows", ok, "; ".join(details))


def test_criterion_9_precision_robustness(convergence_tables):
    worst = 0.0
    ok = True
    for tag in REGION_POINTS:
        for r256, r128 in zip(convergence_tables[256][tag], convergence_tables[128][tag]):
            d = abs(r256.rel_err - r128.rel_err)
            worst = max(worst, d)
            ok &= d < 1e-20
    _report(9, "rel_err identical at 128 vs 256 bits (measures asymptotics, not arithmetic)",
            ok, f"worst diff={worst:.2e}")
