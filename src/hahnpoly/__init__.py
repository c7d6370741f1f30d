"""Hahn discrete orthogonal polynomials on 0..N: evaluation, weighted
projection, the associated self-adjoint difference operator, and
coefficient-decay diagnostics, with a continuum Legendre reference and an
exact rational oracle for testing.
"""

__version__ = "0.1.0"

from .discrete_calculus import (
    GridFunction,
    backward_diff,
    forward_diff,
    l_disk_apply,
    l_disk_power,
    sbp_residual,
)
from .expansion import (
    CoefficientVector,
    DecayEntry,
    IntervalMap,
    decay_report,
    eval_expansion,
    inner_product,
    project,
)
from .hahn import (
    HahnParams,
    hahn_eval_all,
    hahn_eval_recurrence,
    hahn_eval_series,
    norm_sq_closed,
    normalized_grid_matrix,
    weight_table,
)
from .legendre_ref import (
    QuadratureRule,
    gauss_legendre_rule,
    legendre_coeffs,
    legendre_eval,
)
from .specfun import binomial_weight, terminating_3f2

__all__ = [
    "__version__",
    "CoefficientVector",
    "DecayEntry",
    "GridFunction",
    "HahnParams",
    "IntervalMap",
    "QuadratureRule",
    "backward_diff",
    "decay_report",
    "eval_expansion",
    "forward_diff",
    "gauss_legendre_rule",
    "hahn_eval_all",
    "hahn_eval_recurrence",
    "hahn_eval_series",
    "inner_product",
    "l_disk_apply",
    "l_disk_power",
    "legendre_coeffs",
    "legendre_eval",
    "binomial_weight",
    "norm_sq_closed",
    "normalized_grid_matrix",
    "project",
    "sbp_residual",
    "terminating_3f2",
    "weight_table",
]
