"""q-series toolkit: Pochhammer symbols, basic hypergeometric sums, the
Al-Salam--Carlitz II polynomial family and its closed-form evaluations, plus
numerical checks of the classical summation identities the spectral pipeline
relies on."""

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


def qpoch(x, q: float, n: int | None = None):
    """q-Pochhammer symbol (x; q)_n = prod_{j<n} (1 - x q^j).

    ``n=None`` (or math.inf) gives the infinite product, truncated once the
    per-factor correction |x| q^j drops below 2^-60.
    """
    if n is None or n == math.inf:
        return qpoch_inf(x, q)[0]
    if n < 0:
        raise ValueError("n must be nonnegative")
    return qpoch_seq(x, q, n)[n]


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


def qpoch_seq(x, q: float, n_max: int) -> list:
    """Prefix list [(x;q)_0, ..., (x;q)_{n_max}]."""
    out = [1.0 if not isinstance(x, complex) else 1.0 + 0.0j]
    qj = 1.0
    for _ in range(n_max):
        out.append(out[-1] * (1.0 - x * qj))
        qj *= q
    return out


# ---------------------------------------------------------------------------
# Al-Salam--Carlitz II polynomials and their closed forms
# ---------------------------------------------------------------------------

def asc2_v(params: QParams, x, n: int):
    """The n-th Al-Salam--Carlitz II polynomial V_n^{(a)}(x; q).

    Evaluated from the explicit finite sum
        V_n = (-a)^n q^{-n(n-1)/2} (q;q)_n sum_k (x;q)_k a^{-k} / ((q;q)_{n-k} (q;q)_k).
    The raw values grow roughly like q^{-n^2/2}; beyond n ~ 40 (q = 0.5) the
    result overflows to inf in float64.  Use asc2_orthonormal for a stable
    normalized value.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    q, a = params.q, params.a
    qq = qpoch_seq(q, q, n)
    xq = qpoch_seq(x, q, n)
    s = 0.0 if not isinstance(x, complex) else 0.0 + 0.0j
    for k in range(n + 1):
        s += xq[k] * a ** (-k) / (qq[n - k] * qq[k])
    # prefactor (-a)^n q^{-n(n-1)/2} (q;q)_n via logs so overflow is honest inf
    log_pref = n * math.log(a) - 0.5 * n * (n - 1) * math.log(q) + math.log(qq[n])
    sign = -1.0 if n % 2 else 1.0
    try:
        pref = sign * math.exp(log_pref)
    except OverflowError:
        pref = sign * math.inf
    return pref * s


def asc2_orthonormal(params: QParams, x, n: int):
    """Orthonormal polynomial value P_n(x) of the ASC-II family.

    Same finite sum as asc2_v but with the normalizing factor
    q^{n^2/2} a^{-n/2} / sqrt((q;q)_n) folded in, which keeps every
    intermediate at a moderate scale.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    q, a = params.q, params.a
    qq = qpoch_seq(q, q, n)
    xq = qpoch_seq(x, q, n)
    # P_n(x) = (-1)^n (qa)^{n/2} sqrt((q;q)_n) sum_k (x;q)_k a^{-k}/((q;q)_{n-k}(q;q)_k)
    s = 0.0 if not isinstance(x, complex) else 0.0 + 0.0j
    half = 0.5 * n
    for k in range(n + 1):
        w = math.exp(half * (math.log(q) + math.log(a)) - k * math.log(a))
        s += xq[k] * w / (qq[n - k] * qq[k])
    sign = -1.0 if n % 2 else 1.0
    return sign * math.sqrt(qq[n]) * s


def orthonormal_at_family_point(params: QParams, n: int) -> float:
    """Closed form P_n(a) = (-1)^n (q/a)^{n/2} / sqrt((q;q)_n)."""
    q, a = params.q, params.a
    sign = -1.0 if n % 2 else 1.0
    return sign * (q / a) ** (0.5 * n) / math.sqrt(qpoch(q, q, n))


def _family_series_tails(params: QParams, n_max: int) -> list[float]:
    """Backward-accumulated tails T_n = sum_{j>=n} (q;q)_j a^j, n = 0..n_max.

    Positive terms, so the backward pass loses no relative precision.  The
    starting index is pushed deep enough that the dropped remainder is below
    1e-30 relative to the smallest requested tail.
    """
    q, a = params.q, params.a
    extra = max(40, int(math.ceil(-30.0 * math.log(10.0) / math.log(a))) if a < 1 else 40)
    top = n_max + extra
    qq = qpoch_seq(q, q, top + 1)
    tails = [0.0] * (top + 2)
    for j in range(top, -1, -1):
        tails[j] = tails[j + 1] + qq[j] * a ** j
    return tails[: n_max + 1]


def weyl_at_family_point(params: QParams) -> float:
    """Weyl function value at x = a: w(a) = sum_j (q;q)_j a^j (requires a < 1)."""
    if params.a >= 1.0:
        raise ValueError("closed form requires a < 1")
    return _family_series_tails(params, 0)[0]


def second_kind_at_family_point(params: QParams, n: int) -> float:
    """Closed form w_n(a) = (-1)^n (q/a)^{n/2}/sqrt((q;q)_n) sum_{j>=n}(q;q)_j a^j."""
    if params.a >= 1.0:
        raise ValueError("closed form requires a < 1")
    q, a = params.q, params.a
    tail = _family_series_tails(params, n)[n]
    sign = -1.0 if n % 2 else 1.0
    return sign * (q / a) ** (0.5 * n) / math.sqrt(qpoch(q, q, n)) * tail


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


def asc2_series_vs_product(params: QParams, z, atol: float = 1e-13):
    """Evaluate 1 - (z - a) sum_n w_n(a) P_n(z) against (z;q)_inf / (a;q)_inf.

    Both sides of the ASC-II characteristic-function identity, valid for
    0 < a <= q.  Returns (series_side, product_side, gap, tail_bound) where
    tail_bound covers the series truncation.
    """
    require_certified_regime(params)
    q, a = params.q, params.a
    # generous term horizon: terms decay like q^n after the transient
    n_cap = max(80, int(60 + 8 * abs(z)))
    while True:
        tails = _family_series_tails(params, n_cap)
        qq = qpoch_seq(q, q, n_cap + 1)
        total = 0.0 if not isinstance(z, complex) else 0.0 + 0.0j
        tail_bound = None
        small_run = 0
        prev_mag = None
        r_hat = q
        for n in range(n_cap + 1):
            sign = -1.0 if n % 2 else 1.0
            wn = sign * (q / a) ** (0.5 * n) / math.sqrt(qq[n]) * tails[n]
            t = wn * asc2_orthonormal(params, z, n)
            total += t
            mag = abs(t)
            if prev_mag is not None and prev_mag > 0:
                r_hat = max(min(mag / prev_mag, 0.99), q)
            prev_mag = mag
            if mag < atol * (1.0 - r_hat):
                small_run += 1
                if small_run >= 5:
                    tail_bound = mag * r_hat / (1.0 - r_hat) + 5 * atol
                    break
            else:
                small_run = 0
        if tail_bound is not None:
            break
        n_cap *= 2
        if n_cap > 20_000:
            raise AssumptionViolation("series side failed to converge")
    series = 1.0 - (z - a) * total
    product = qpoch_inf(z, q)[0] / qpoch_inf(a, q)[0]
    gap = abs(series - product)
    return series, product, gap, abs(z - a) * tail_bound


def w_factorization_check(params: QParams, n: int) -> float:
    """Max entry gap of the factorization J = W W^T + I over the leading n x n block.

    W is lower bidiagonal with W_kk = sqrt(a) q^{-k/2} and
    W_{k+1,k} = q^{-(k+1)/2} sqrt(1 - q^{k+1}).
    """
    if n < 2:
        raise ValueError("block size must be at least 2")
    q, a = params.q, params.a
    w = np.zeros((n, n))
    for k in range(n):
        w[k, k] = math.sqrt(a) * q ** (-0.5 * k)
        if k + 1 < n:
            w[k + 1, k] = q ** (-0.5 * (k + 1)) * math.sqrt(1.0 - q ** (k + 1))
    jmat = np.zeros((n, n))
    for k in range(n):
        jmat[k, k] = (a + 1.0) * q ** (-k)
        if k + 1 < n:
            alpha = math.sqrt(a * q ** (-2 * k - 1) * (1.0 - q ** (k + 1)))
            jmat[k, k + 1] = alpha
            jmat[k + 1, k] = alpha
    resid = w @ w.T + np.eye(n) - jmat
    # scale relative to the largest matrix entry so the gap is meaningful for any q
    return float(np.max(np.abs(resid)) / np.max(np.abs(jmat)))


def spectrum_product_reference(z, q: float, shift: float = 0.0):
    """Closed-form characteristic function of a shifted ASC-II matrix.

    With eigenvalues {q^-n - shift} the eigenvalue product telescopes into
    (z + shift; q)_inf / (shift; q)_inf.
    """
    num, _ = qpoch_inf(z + shift, q)
    den, _ = qpoch_inf(shift, q)
    return num / den
