"""Every public function of the numerical modules returns the same bits
whatever mpmath's ambient precision: each call runs once inside
``mp.workprec(1000)`` and once inside ``mp.workprec(53)``, with the
log-gamma and Airy caches emptied before each, and the raw ``_mpf_``
tuples of the two results must be identical.

The inputs are built once at import, at mpmath's default 53 bits: an
input built inside a context would itself differ between the two runs.
alpha is passed as the string "0.731", which rounds to a value with more
significant bits than 53, so that a step taken at the ambient precision
rather than at the working width shows in the result."""

import inspect
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from tcasym import asym, auxfun, exact, harness, specfun
from tcasym.asym import Params
from tcasym.mpnum import LogComplex

A = "0.731"
X = mpmath.mpf("0.9")
Z = mpmath.mpc("1.3", "0.4")
Z_A = mpmath.mpc(1, 2)
Z_B = mpmath.mpc(1, "0.05")
Z_C = mpmath.mpc("2.1", "0.05")
Z_D = mpmath.mpc(4, "0.05")
X_D = mpmath.mpf(4)
LC = (LogComplex(mpmath.mpf("0.3"), mpmath.mpf("1.1")), LogComplex(mpmath.mpf("0.31"), mpmath.mpf("1.09")))
PARAMS = Params()
BITS = 128
MODULES = {mod.__name__.rpartition(".")[2]: mod for mod in (auxfun, asym, exact, harness, specfun)}

# each case keyed by the test id it runs under: "module.function", and
# "module.function@point" for a further point of a function, such as the
# outer-region point of the evaluator that A and D share

CALLS = {
    "auxfun.density_psi": lambda: auxfun.density_psi(X, BITS),
    "auxfun.g_prime": lambda: auxfun.g_prime(Z, BITS),
    "auxfun.g_prime@axis": lambda: auxfun.g_prime(1, BITS),
    "auxfun.phi_tilde": lambda: auxfun.phi_tilde(Z, BITS),
    "auxfun.phi_tilde@band": lambda: auxfun.phi_tilde(X, BITS),
    "auxfun.phi": lambda: auxfun.phi(Z, BITS),
    "auxfun.phi@band": lambda: auxfun.phi(X, BITS),
    "auxfun.phi_hat": lambda: auxfun.phi_hat(Z, BITS),
    "auxfun.h_factor": lambda: auxfun.h_factor(Z_C, BITS),
    "auxfun.f_tilde_n": lambda: auxfun.f_tilde_n(100, Z_C, BITS),
    "auxfun.d_func": lambda: auxfun.d_func(100, A, Z, BITS),
    "auxfun.d_func@axis": lambda: auxfun.d_func(100, A, X_D, BITS),
    "auxfun.d_tilde_func": lambda: auxfun.d_tilde_func(100, A, Z, BITS),
    "auxfun.d_hat_func": lambda: auxfun.d_hat_func(100, A, Z, BITS),
    "auxfun.d_triple": lambda: auxfun.d_triple(100, A, Z, BITS),
    "auxfun.e_func": lambda: auxfun.e_func(A, Z, BITS),
    "auxfun.e_tilde_func": lambda: auxfun.e_tilde_func(A, Z, BITS),
    "auxfun.e_hat_func": lambda: auxfun.e_hat_func(A, Z, BITS),
    "auxfun.theta_gamma_pi": lambda: auxfun.theta_gamma_pi(100, A, Z, BITS),
    "asym.classify_region": lambda: asym.classify_region(Z, 100, A, PARAMS, BITS),
    "asym.eval_region_b": lambda: asym.eval_region_b(100, A, Z_B, BITS),
    "asym.eval_region_c": lambda: asym.eval_region_c(100, A, Z_C, BITS),
    "asym.eval_region_d": lambda: asym.eval_region_d(100, A, Z_D, BITS),
    "asym.eval_region_d@A": lambda: asym.eval_region_d(100, A, Z_A, BITS),
    "asym.locate": lambda: asym.locate(100, A, Z, PARAMS, BITS),
    "asym.eval_asym": lambda: asym.eval_asym(100, A, Z, PARAMS, BITS),
    "exact.eval_f_raw": lambda: exact.eval_f_raw(60, A, Z, BITS),
    "exact.eval_f": lambda: exact.eval_f(60, A, Z, BITS),
    "exact.log_leading_coeff": lambda: exact.log_leading_coeff(60, A, BITS),
    "exact.eval_monic_rescaled": lambda: exact.eval_monic_rescaled(60, A, Z, BITS),
    "exact.weight_wd": lambda: exact.weight_wd(A, Z, BITS),
    "exact.iter_nodes_masses": lambda: list(exact.iter_nodes_masses(A, 50, BITS)),
    "exact.ortho_matrix": lambda: exact.ortho_matrix(A, 4, 200, BITS),
    "exact.h_norm": lambda: exact.h_norm(3, A, BITS),
    "harness.rel_err_log": lambda: harness.rel_err_log(*LC, BITS),
    "harness.compare_point": lambda: harness.compare_point(100, A, Z, PARAMS, BITS),
    "harness.convergence_fit": lambda: harness.convergence_fit(A, Z, [25, 50, 100, 200], PARAMS, BITS),
    "harness.darboux_check": lambda: harness.darboux_check(A, mpmath.mpf("1.5"), [20, 40], BITS),
    "harness.region_grid": lambda: harness.region_grid("B", 100, A, PARAMS, BITS, 3, 2),
    "harness.boundary_consistency": lambda: harness.boundary_consistency(100, A, PARAMS, BITS, ("B/C",)),
    "harness.ortho_report": lambda: harness.ortho_report(A, 2, 100, BITS),
    "specfun.bernoulli_fraction": lambda: specfun.bernoulli_fraction(10),
    "specfun.log_gamma_complex": lambda: specfun.log_gamma_complex(Z, BITS),
    "specfun.log_gamma_real": lambda: specfun.log_gamma_real(X, BITS),
    "specfun.airy_quartet": lambda: specfun.airy_quartet(Z, BITS),
    "specfun.airy_rotated": lambda: specfun.airy_rotated(Z, BITS),
}


def _function(case):
    """The function a case of ``CALLS`` runs: the key up to any "@", which
    names the point of a function with more than one case."""
    modname, _, name = case.partition("@")[0].partition(".")
    return getattr(MODULES[modname], name)


def _public_functions():
    out = set()
    for mod in MODULES.values():
        for name, f in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(f) and f.__module__ == mod.__name__:
                out.add(f)
    return out


def _raw(v):
    """A result as nested tuples of raw libmp tuples and plain values."""
    if isinstance(v, mpmath.mpf):
        return v._mpf_
    if isinstance(v, mpmath.mpc):
        return v._mpc_
    if hasattr(v, "_fields"):  # a record: a tuple, named so that its type is compared too
        return (type(v).__name__,) + tuple(_raw(x) for x in v)
    if isinstance(v, (tuple, list)):
        return tuple(_raw(x) for x in v)
    if isinstance(v, dict):
        return tuple((k, _raw(x)) for k, x in sorted(v.items()))
    assert v is None or isinstance(v, (bool, int, float, complex, str, Fraction)), type(v)
    return v


def _cold():
    for cached in (specfun._stirling_table, specfun._log_gamma_positive, specfun._airy_at_zero,
                   auxfun._half_log_twopi):
        cached.cache_clear()


def test_every_public_function_listed():
    assert _public_functions() == {_function(case) for case in CALLS}


@pytest.mark.parametrize("case", sorted(CALLS))
def test_bits_independent_of_ambient_precision(case):
    results = []
    for ambient in (1000, 53):
        _cold()
        with mp.workprec(ambient):
            results.append(_raw(CALLS[case]()))
    assert results[0] == results[1]
