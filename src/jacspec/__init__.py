"""jacspec: spectra of positive-definite infinite Jacobi matrices with
trace-class inverse, located as zeros of the characteristic entire function
F(z) = 1 - z sum_n w_n(0) P_n(z) and cross-validated against truncated-matrix
eigenvalues and the Al-Salam--Carlitz II closed form.
"""

__version__ = "0.1.0"

from .charfn import CharFnEvaluator, CharFnValue, charfn_ratio
from .errors import AssumptionViolation, ConvergenceError
from .qseries import (QParams, phi1_closed_form_check, qbinomial_check,
                      qgauss_check, qpoch_inf, spectrum_product_reference)
from .second_kind import (SecondKindTable, TraceInverse, kappa_sequence,
                          second_kind_values, trace_inverse)
from .sources import ASC2Source, CoefficientSource, TableSource
from .spectrum import (SpectrumResult, TruncatedTridiagonal, find_spectrum,
                       sturm_counts, sturm_eigenvalues)
from .verify import CheckResult, run_suite, w_factorization_check

__all__ = [
    "ASC2Source",
    "AssumptionViolation",
    "CharFnEvaluator",
    "CharFnValue",
    "CheckResult",
    "CoefficientSource",
    "ConvergenceError",
    "QParams",
    "SecondKindTable",
    "SpectrumResult",
    "TableSource",
    "TraceInverse",
    "TruncatedTridiagonal",
    "charfn_ratio",
    "find_spectrum",
    "kappa_sequence",
    "phi1_closed_form_check",
    "qbinomial_check",
    "qgauss_check",
    "qpoch_inf",
    "run_suite",
    "second_kind_values",
    "spectrum_product_reference",
    "sturm_counts",
    "sturm_eigenvalues",
    "trace_inverse",
    "w_factorization_check",
]
