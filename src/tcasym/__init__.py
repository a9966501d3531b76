"""tcasym: dual-path numerical engine for the Tricomi-Carlitz polynomials.

Two independent evaluation paths for the rescaled monic polynomials:

* an exact path (``tcasym.exact``): the three-term recurrence in
  configurable-precision arithmetic with log-scale renormalization, plus
  the discrete orthogonality machinery (``iter_nodes_masses`` for the
  nodes and masses, ``ortho_matrix`` for every pair sum up to a degree,
  with its tail and error bounds);
* an asymptotic path (``tcasym.asym``): region-wise uniform leading-order
  formulas covering the whole plane, including an Airy-type form through
  the turning point at the band edge; the band formula also serves the
  disk at the origin where the orthogonality nodes accumulate.

``tcasym.harness`` quantifies agreement between the two paths
(single-point records, convergence-order fits, cross-region consistency,
fixed-argument limit checks, orthogonality reports, per-region sampling
grids); ``tcasym.cli`` exposes everything on the command line.  The names
re-exported below are the ones these layers, the acceptance suite and the
benchmark use.

The package is pure Python on top of mpmath, with no compiled code: the
complex recurrence, the orthogonality sums with their node/mass
generator, and log-gamma run in one fixed-point Python-int format
(``tcasym.mpnum``), everything else in mpmath, each loop with one fixed
operation order, so results are reproducible bit for bit.  ``BACKEND``
names that single implementation.
"""

from .asym import AsymResult, Params, RegionLabel, classify_region, eval_asym
from .exact import (
    NodeMass,
    OrthoSum,
    eval_f,
    eval_monic_rescaled,
    h_norm,
    log_leading_coeff,
    ortho_matrix,
    weight_wd,
)
from .harness import (
    ConvergenceFit,
    EvalRecord,
    boundary_consistency,
    compare_point,
    convergence_fit,
    darboux_check,
    ortho_report,
    region_grid,
)
from .mpnum import (
    DEFAULT_PREC,
    ConfigError,
    DomainError,
    LogComplex,
    PoleError,
    logc_add,
    sqrt_zsq_minus4,
)
from .specfun import AiryQuartet, airy_quartet, log_gamma_complex

BACKEND = "pure-python"
__version__ = "0.1.0"
