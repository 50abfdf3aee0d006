"""q-series toolkit: the Al-Salam--Carlitz II parameters, the infinite
q-Pochhammer product, basic hypergeometric sums with numerical checks of the
classical summation identities the spectral pipeline relies on, and the
closed-form characteristic function of the shifted ASC-II matrix.

The ASC-II polynomial and second-kind closed forms that only tests compare
against live in tests/asc2_reference.py; the W W^T + I factorization check
is verify.w_factorization_check."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolation

# Per-factor truncation threshold for infinite q-Pochhammer products.
_POCH_FACTOR_EPS = 2.0 ** -60


@dataclass(frozen=True)
class QParams:
    """Parameters (q, a) of an Al-Salam--Carlitz II family, 0 < q < 1, a > 0."""

    q: float
    a: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"a must be positive and finite, got {self.a}")

    @property
    def certified_regime(self) -> bool:
        """True when 0 < a <= q, the regime where the spectral pipeline applies."""
        return self.a <= self.q

    @property
    def indeterminate(self) -> bool:
        """True when q < a < 1/q (moment problem has many solutions)."""
        return self.q < self.a < 1.0 / self.q


def require_certified_regime(params: QParams) -> None:
    """Reject parameters outside 0 < a <= q for spectral use.

    The boundary a = q is allowed; anything above is rejected outright.
    """
    if not params.certified_regime:
        raise AssumptionViolation(
            f"spectral pipeline requires 0 < a <= q; got a={params.a}, q={params.q}"
            + (" (indeterminate regime)" if params.indeterminate else "")
        )


def qpoch_inf(x, q: float):
    """Infinite product (x; q)_inf with a recorded truncation bound.

    Returns (value, abs_bound); the bound covers the dropped factors via
    |prod_{j>=J}(1 - x q^j) - 1| <= exp(sum |x| q^j) - 1.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    ax = abs(x)
    p = 1.0 if not isinstance(x, complex) else 1.0 + 0.0j
    qj = 1.0
    j = 0
    while ax * qj >= _POCH_FACTOR_EPS:
        p *= 1.0 - x * qj
        qj *= q
        j += 1
        if j > 100_000:  # unreachable for q < 1; defensive
            break
    tail_sum = ax * qj / (1.0 - q)
    bound = abs(p) * math.expm1(tail_sum)
    return p, bound


# ---------------------------------------------------------------------------
# Basic hypergeometric sums and identity checks
# ---------------------------------------------------------------------------

def phi1(a, b, c, q: float, z, atol: float = 1e-15, max_terms: int = 100_000):
    """2phi1(a, b; c; q, z) by direct summation.

    Stops once ten consecutive terms fall below atol * (1 - r), r being the
    observed term-magnitude ratio.  Raises on a vanishing denominator factor.
    """
    term = 1.0 + 0.0j if any(isinstance(v, complex) for v in (a, b, c, z)) else 1.0
    total = term
    qj = 1.0
    r_hat = abs(q)
    small_run = 0
    for l in range(max_terms):
        denom = (1.0 - c * qj) * (1.0 - q * qj)
        if denom == 0:
            raise ZeroDivisionError(f"2phi1 denominator vanishes at term {l + 1}")
        prev = abs(term)
        term = term * (1.0 - a * qj) * (1.0 - b * qj) * z / denom
        total += term
        qj *= q
        if prev > 0:
            r_hat = max(abs(term) / prev, abs(q))
        if r_hat < 1.0 and abs(term) < atol * (1.0 - r_hat):
            small_run += 1
            if small_run >= 10:
                break
        else:
            small_run = 0
    return total


def phi1_unit_argument(a, c, q: float, atol: float = 1e-15):
    """2phi1(a, q; qc; q, q): the b = q case collapses to sum (a;q)_l q^l / (qc;q)_l."""
    return phi1(a, q, q * c, q, q, atol=atol)


def phi1_closed_form_check(a, c, q: float, atol: float = 1e-15):
    """Compare 2phi1(a, q; qc; q, q) against ((1-c)/(a-c)) (1 - (a;q)_inf/(c;q)_inf).

    Returns (lhs, rhs, gap).  At the removable singularity a = c the right side
    is evaluated by its analytic limit (1-c) sum_j q^j / (1 - c q^j).
    """
    for k in range(64):
        if abs(c - q ** (-k)) <= 1e-13 * max(1.0, abs(c)):
            raise ValueError("c must avoid {1, 1/q, 1/q^2, ...}")
    lhs = phi1_unit_argument(a, c, q, atol=atol)
    if abs(a - c) <= 1e-12 * max(1.0, abs(c)):
        s = 0.0 if not isinstance(c, complex) else 0.0 + 0.0j
        qj = 1.0
        while abs(qj) >= _POCH_FACTOR_EPS:
            s += qj / (1.0 - c * qj)
            qj *= q
        rhs = (1.0 - c) * s
    else:
        rhs = (1.0 - c) / (a - c) * (1.0 - qpoch_inf(a, q)[0] / qpoch_inf(c, q)[0])
    return lhs, rhs, abs(lhs - rhs)


def qgauss_check(a, b, c, q: float, atol: float = 1e-15):
    """q-Gauss summation: 2phi1(a, b; c; q, c/(ab)) against its product form.

    Requires |c/(ab)| < 1 for convergence.  Returns (lhs, rhs, gap).
    """
    z = c / (a * b)
    if not abs(z) < 1.0:
        raise ValueError(f"q-Gauss requires |c/(ab)| < 1, got {abs(z)}")
    lhs = phi1(a, b, c, q, z, atol=atol)
    rhs = (
        qpoch_inf(c / a, q)[0]
        * qpoch_inf(c / b, q)[0]
        / (qpoch_inf(c, q)[0] * qpoch_inf(z, q)[0])
    )
    return lhs, rhs, abs(lhs - rhs)


def qbinomial_check(u, z, q: float, atol: float = 1e-15, max_terms: int = 100_000):
    """q-binomial theorem: sum_l ((u;q)_l/(q;q)_l) z^l against (uz;q)_inf/(z;q)_inf.

    Requires |z| < 1.  Returns (lhs, rhs, gap).
    """
    if not abs(z) < 1.0:
        raise ValueError(f"q-binomial requires |z| < 1, got {abs(z)}")
    term = 1.0 + 0.0j if any(isinstance(v, complex) for v in (u, z)) else 1.0
    total = term
    qj = 1.0
    small_run = 0
    r_hat = abs(z)
    for l in range(max_terms):
        term = term * (1.0 - u * qj) * z / (1.0 - q * qj)
        total += term
        qj *= q
        if r_hat < 1.0 and abs(term) < atol * (1.0 - r_hat):
            small_run += 1
            if small_run >= 10:
                break
        else:
            small_run = 0
    rhs = qpoch_inf(u * z, q)[0] / qpoch_inf(z, q)[0]
    return total, rhs, abs(total - rhs)


def spectrum_product_reference(z, q: float, shift: float = 0.0):
    """Closed-form characteristic function of a shifted ASC-II matrix.

    With eigenvalues {q^-n - shift} the eigenvalue product telescopes into
    (z + shift; q)_inf / (shift; q)_inf.

    z may also be a 1-D numpy array of real points: the result is then a list
    with the value at every point, bit for bit, from one denominator.
    """
    den, _ = qpoch_inf(shift, q)
    if isinstance(z, np.ndarray):
        return [qpoch_inf(x + shift, q)[0] / den for x in z.tolist()]
    num, _ = qpoch_inf(z + shift, q)
    return num / den
