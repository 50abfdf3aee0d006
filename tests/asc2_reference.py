"""Closed-form references for the Al-Salam--Carlitz II (ASC-II) example
that the tests compare the package against: the orthonormal polynomials
P_n(x) from their explicit finite sum, P_n(a) and w_n(a) at the family
point, the trace of the inverse, both sides of the series/product identity
1 - (z - a) sum_n w_n(a) P_n(z) = (z;q)_inf / (a;q)_inf, the Hadamard
product over known eigenvalues, and the dense W W^T + I product.  No code in
jacspec calls them.
"""

from __future__ import annotations

import math

from jacspec import AssumptionViolation, CharFnValue, QParams, qpoch_inf
from jacspec.qseries import require_certified_regime
from jacspec.verify import _mp_context


def qpoch_seq(x, q: float, n_max: int) -> list:
    """Prefix list [(x;q)_0, ..., (x;q)_{n_max}]."""
    out = [1.0 if not isinstance(x, complex) else 1.0 + 0.0j]
    qj = 1.0
    for _ in range(n_max):
        out.append(out[-1] * (1.0 - x * qj))
        qj *= q
    return out


def asc2_orthonormal(params: QParams, x, n: int):
    """Orthonormal polynomial value P_n(x) of the ASC-II family.

    The explicit finite sum of V_n^{(a)}(x; q),
        V_n = (-a)^n q^{-n(n-1)/2} (q;q)_n sum_k (x;q)_k a^{-k} / ((q;q)_{n-k} (q;q)_k),
    with the normalizing factor q^{n^2/2} a^{-n/2} / sqrt((q;q)_n) folded
    in, which keeps every intermediate at a moderate scale.
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
    return sign * (q / a) ** (0.5 * n) / math.sqrt(qpoch_seq(q, q, n)[n])


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


def second_kind_at_family_point(params: QParams, n: int) -> float:
    """Closed form w_n(a) = (-1)^n (q/a)^{n/2}/sqrt((q;q)_n) sum_{j>=n}(q;q)_j a^j."""
    if params.a >= 1.0:
        raise ValueError("closed form requires a < 1")
    q, a = params.q, params.a
    tail = _family_series_tails(params, n)[n]
    sign = -1.0 if n % 2 else 1.0
    return sign * (q / a) ** (0.5 * n) / math.sqrt(qpoch_seq(q, q, n)[n]) * tail


def trace_reference(q: float, shift: float) -> float:
    """tr (J - shift)^{-1} = sum_n 1/(q^-n - shift) over the ASC-II
    eigenvalues q^-n (any a), as mpmath's nsum at 30 digits."""
    ctx = _mp_context(30)
    q = ctx.mpf(q)
    return float(ctx.nsum(lambda n: 1 / (q ** -n - shift), [0, ctx.inf]))


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


def hadamard_product(eigs, z, *, tail_ratio: float | None = None) -> CharFnValue:
    """prod_n (1 - z / lambda_n) over the supplied eigenvalues with a tail bound.

    The omitted factors are controlled through the geometric estimate of
    sum 1/lambda beyond the last eigenvalue; if no ratio can be inferred
    (fewer than two eigenvalues and no tail_ratio given) the value is exact
    over the given factors but flagged uncertified.
    """
    eigs = list(eigs)
    if not eigs:
        raise ValueError("need at least one eigenvalue")
    if any(e <= 0 for e in eigs):
        raise ValueError("eigenvalues must be positive")
    if any(b <= a for a, b in zip(eigs, eigs[1:])):
        raise ValueError("eigenvalues must be strictly increasing")
    value = 1.0 if not isinstance(z, complex) else 1.0 + 0.0j
    for lam in eigs:
        value *= 1.0 - z / lam
    if tail_ratio is None and len(eigs) >= 2:
        window = [eigs[i] / eigs[i + 1] for i in range(max(0, len(eigs) - 4),
                                                       len(eigs) - 1)]
        tail_ratio = max(window)
    if tail_ratio is None or not tail_ratio < 1.0:
        return CharFnValue(z=z, value=value, tail_bound=math.inf,
                           method="hadamard_product", terms_used=len(eigs),
                           certified=False)
    tail_inv_sum = (1.0 / eigs[-1]) * tail_ratio / (1.0 - tail_ratio)
    bound = abs(value) * math.expm1(abs(z) * tail_inv_sum)
    return CharFnValue(z=z, value=value, tail_bound=bound,
                       method="hadamard_product", terms_used=len(eigs),
                       certified=True)


def dense_w_factorization_gap(params: QParams, n: int, digits: int = 0) -> float:
    """verify.w_factorization_check over every entry of the n x n block:
    the full product W W^T + I, zeros off the band included."""
    if n < 2:
        raise ValueError("block size must be at least 2")
    ctx = _mp_context(digits)
    q, a = ctx.mpf(params.q), ctx.mpf(params.a)

    def w(m, k):  # W[m][k]
        if k == m:
            return ctx.sqrt(a) * q ** (-ctx.mpf(m) / 2)
        if k == m - 1:
            return q ** (-ctx.mpf(m) / 2) * ctx.sqrt(1 - q ** m)
        return ctx.mpf(0)

    worst = ctx.mpf(0)
    for m in range(n):
        for k in range(n):
            acc = ctx.mpf(1) if m == k else ctx.mpf(0)
            for j in range(min(m, k) + 1):
                acc += w(m, j) * w(k, j)
            if m == k:
                acc -= (a + 1) * q ** (-k)
            elif abs(m - k) == 1:
                mk = min(m, k)
                acc -= ctx.sqrt(a * q ** (-2 * mk - 1) * (1 - q ** (mk + 1)))
            worst = max(worst, abs(acc))
    return float(worst / ((a + 1) * q ** (-(n - 1))))
