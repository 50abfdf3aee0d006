"""Invariant verification suite.

Runs the structural identities behind the spectral pipeline on a configured
source and reports measured maxima: recurrence residuals, the cross identity
for associated polynomials against forward substitution, the Green-block right
inverse, the resolvent-style reconstruction of P_*(x) from P_*(0), two-route
agreement for the second-kind functions, the kappa positivity and
monotonicity pattern, the per-term growth bound, trace reconciliation against
located eigenvalues, and the W W^T + I factorization of the ASC-II family.

The four pure-recurrence identities (recurrence, Wronskian, Green, resolvent)
and the W factorization run in mpmath only: at the requested precision when
it is above 16 decimal digits, otherwise at 53 bits, float64's mantissa.
Their maxima therefore shrink with the precision, which separates genuine
identity failures from round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import recurrence, second_kind
from .errors import AssumptionViolation, ConvergenceError
from .qseries import QParams
from .recurrence import log_table, plain_values
from .sources import ASC2Source, CoefficientSource, TableSource
from .spectrum import TruncatedTridiagonal, find_spectrum, sturm_counts

_REAL_ZS = (0.0, 0.4, -1.0, 2.7)
_COMPLEX_Z = complex(1.3, 0.7)
_TAIL_MAX_TERMS = 10000
# last index n of the recurrence, positivity, sign-pattern and kappa checks
_N_MAX = 40
_TWO_ROUTE_N_MAX = 30
_PER_TERM_N_MAX = 60
# largest m of the Wronskian pairs (m, n); sizes of the Green, resolvent and
# W blocks; eigenvalues in the trace reconciliation
_WRONSKIAN_M_MAX = 12
_GREEN_BLOCK = 12
_W_BLOCK = 10
_TRACE_K = 12
# correct digits a cross-identity Green entry must keep (see _green)
_GREEN_DIGITS = 12
_RECURRENCE_THRESHOLD = 1e-12
_IDENTITY_THRESHOLD = 1e-10  # Wronskian, Green, resolvent, two-route
_TRACE_THRESHOLD = 1e-6
_W_THRESHOLD = 1e-12


@dataclass
class CheckResult:
    name: str
    passed: bool
    skipped: bool
    max_residual: float
    threshold: float
    note: str = ""

    @property
    def status(self) -> str:
        return "skip" if self.skipped else ("pass" if self.passed else "FAIL")


def _result(name, residual, threshold, note=""):
    return CheckResult(name=name, passed=residual <= threshold, skipped=False,
                       max_residual=residual, threshold=threshold, note=note)


def _skip(name, threshold, note):
    return CheckResult(name=name, passed=True, skipped=True,
                       max_residual=math.nan, threshold=threshold, note=note)


def _mp_context(digits):
    """mpmath context at ``digits`` decimal digits above 16, else 53 bits."""
    import mpmath
    ctx = mpmath.mp.clone()
    if digits > 16:
        ctx.dps = digits
    else:
        ctx.prec = 53
    return ctx


def _mp_coeffs(src, n_max, ctx):
    """Shifted coefficient lists (alphas, betas) as mpmath values."""
    if isinstance(src, ASC2Source):
        q, a, sh = ctx.mpf(src.q), ctx.mpf(src.a), ctx.mpf(src.shift)
        alphas = [ctx.sqrt(a * q ** (-2 * n - 1) * (1 - q ** (n + 1)))
                  for n in range(n_max + 1)]
        betas = [(a + 1) * q ** (-n) - sh for n in range(n_max + 1)]
        return alphas, betas
    alphas = [ctx.mpf(src.alpha(n)) for n in range(n_max + 1)]
    betas = [ctx.mpf(src.beta(n)) - ctx.mpf(src.shift) for n in range(n_max + 1)]
    return alphas, betas


def _n_cap(src, want):
    cap = src.max_pair_index
    return want if cap is None else min(want, cap)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_coefficient_positivity(src) -> CheckResult:
    # every off-diagonal of the largest block a table determines
    count = _N_MAX + 1
    if isinstance(src, TableSource):
        count = min(count, src.max_truncation - 1)
    violations = [n for n in range(count) if not src.alpha(n) > 0.0]
    if not violations:
        return _result("coefficient_positivity", 0.0, 0.0)
    worst = max(-src.alpha(n) for n in violations)
    # any violation fails, including an exact zero; keep the magnitude visible
    return _result("coefficient_positivity", 1.0 + worst, 0.0,
                   f"nonpositive off-diagonal at n in {violations}")


def check_recurrence(src, digits=0) -> CheckResult:
    n_stop = _n_cap(src, _N_MAX)
    if n_stop < 1:
        return _skip("recurrence_residual", _RECURRENCE_THRESHOLD,
                     "table too short: no index n >= 1")
    zs = list(_REAL_ZS) + [_COMPLEX_Z]
    worst = 0.0
    ctx = _mp_context(digits)
    alphas, betas = _mp_coeffs(src, n_stop, ctx)
    for z in zs:
        zc = ctx.mpc(z) if isinstance(z, complex) else ctx.mpf(z)
        for second in (False, True):
            vals = plain_values(alphas, betas, zc, n_stop + 1,
                                second_kind=second)
            for n in range(1, n_stop + 1):
                t1 = alphas[n] * vals[n + 1]
                t2 = (betas[n] - zc) * vals[n]
                t3 = alphas[n - 1] * vals[n - 1]
                den = abs(t1) + abs(t2) + abs(t3)
                if den > 0:
                    worst = max(worst, float(abs(t1 + t2 + t3) / den))
    return _result("recurrence_residual", worst, _RECURRENCE_THRESHOLD,
                   f"n <= {n_stop}, {len(zs)} evaluation points")


def check_wronskian(src, digits=0) -> CheckResult:
    m_stop = _n_cap(src, _WRONSKIAN_M_MAX)
    if m_stop < 1:
        return _skip("wronskian_identity", _IDENTITY_THRESHOLD,
                     "table too short: no pair m > n")
    worst = 0.0
    ctx = _mp_context(digits)
    alphas, betas = _mp_coeffs(src, m_stop, ctx)
    for z in (0.0, -0.7, 0.4):
        zc = ctx.mpf(z)
        p = plain_values(alphas, betas, zc, m_stop)
        qv = plain_values(alphas, betas, zc, m_stop, second_kind=True)
        for n in range(m_stop):
            fwd = plain_values(alphas[n:], betas[n:], zc, m_stop - n,
                               second_kind=True)
            for m in range(n + 1, m_stop + 1):
                cross = qv[m] * p[n] - p[m] * qv[n]
                den = abs(qv[m] * p[n]) + abs(p[m] * qv[n]) + abs(fwd[m - n])
                if den > 0:
                    worst = max(worst, float(abs(cross - fwd[m - n]) / den))
    return _result("wronskian_identity", worst, _IDENTITY_THRESHOLD,
                   f"m <= {m_stop}")


def _green(alphas, betas, n_block, ctx):
    """(P_*(0), G): P_0(0) .. P_{n_block}(0) and the n_block x n_block Green
    block G[m][n] = Q_m^(n)(0), zero for m <= n.

    Entries come from the cross identity Q_m(0) P_n(0) - P_m(0) Q_n(0).  Its
    two products cancel more and more with the indices, so an entry left
    with fewer than _GREEN_DIGITS correct digits at the working precision is
    recomputed by forward substitution from Q_n^(n) = 0, Q_{n+1}^(n) =
    1/alpha_n.
    """
    zero = ctx.mpf(0)
    p = plain_values(alphas, betas, zero, n_block)
    qv = plain_values(alphas, betas, zero, n_block, second_kind=True)
    guard = 10 ** _GREEN_DIGITS * ctx.eps
    g = [[zero] * n_block for _ in range(n_block)]
    for n in range(n_block - 1):
        fwd = None
        for m in range(n + 1, n_block):
            t1, t2 = qv[m] * p[n], p[m] * qv[n]
            g[m][n] = t1 - t2
            if abs(g[m][n]) < guard * (abs(t1) + abs(t2)):
                if fwd is None:
                    fwd = plain_values(alphas[n:], betas[n:], zero,
                                       n_block - 1 - n, second_kind=True)
                g[m][n] = fwd[m - n]
    return p, g


def check_green_identity(src, digits=0) -> CheckResult:
    n_block = _n_cap(src, _GREEN_BLOCK - 1) + 1
    if n_block < 2:
        return _skip("green_identity", _IDENTITY_THRESHOLD,
                     "table too short: no 2 x 2 block")
    ctx = _mp_context(digits)
    alphas, betas = _mp_coeffs(src, n_block - 1, ctx)
    _, g = _green(alphas, betas, n_block, ctx)
    worst = 0.0
    for m in range(n_block - 1):  # the boundary row is excluded
        for n in range(n_block):
            acc = betas[m] * g[m][n]
            scale = abs(acc)
            if m > 0:
                acc += alphas[m - 1] * g[m - 1][n]
                scale += abs(alphas[m - 1] * g[m - 1][n])
            acc += alphas[m] * g[m + 1][n]
            scale += abs(alphas[m] * g[m + 1][n])
            target = 1 if m == n else 0
            worst = max(worst, float(abs(acc - target) / max(scale, 1)))
    return _result("green_identity", worst, _IDENTITY_THRESHOLD,
                   f"N = {n_block}")


def check_resolvent_identity(src, gamma=None, digits=0) -> CheckResult:
    n_block = _n_cap(src, _GREEN_BLOCK - 1) + 1
    if n_block < 2:
        return _skip("resolvent_identity", _IDENTITY_THRESHOLD,
                     "table too short: no 2 x 2 block")
    xs = [0.0, 0.1]
    if gamma is not None:
        xs.append(0.3 * gamma)
    ctx = _mp_context(digits)
    alphas, betas = _mp_coeffs(src, n_block - 1, ctx)
    p0, g = _green(alphas, betas, n_block, ctx)
    worst = 0.0
    for x in xs:
        xv = ctx.mpf(x)
        px = plain_values(alphas, betas, xv, n_block)
        for n in range(n_block):
            # row n of (I - x G) P_*(x) - P_*(0)
            acc = px[n] - p0[n]
            scale = abs(px[n]) + abs(p0[n])
            for kk in range(n):
                acc -= xv * g[n][kk] * px[kk]
                scale += abs(xv * g[n][kk] * px[kk])
            if scale > 0:
                worst = max(worst, float(abs(acc) / scale))
    return _result("resolvent_identity", worst, _IDENTITY_THRESHOLD,
                   f"N = {n_block}")


def check_two_route_second_kind(src, gamma, max_terms=20000) -> CheckResult:
    n_max = _TWO_ROUTE_N_MAX
    if src.is_finite:
        return _skip("second_kind_two_route", _IDENTITY_THRESHOLD,
                     "requires an unbounded coefficient family")
    zs = [0.0, -1.0, 0.3 * gamma]
    worst = 0.0
    for z in zs:
        table = second_kind.second_kind_values(src, z, n_max + 1, gamma=gamma,
                                               atol=1e-13, max_terms=max_terms)
        w0 = table.values[0]
        p = recurrence.values(src, z, n_max)
        qv = recurrence.values(src, z, n_max, second_kind=True)
        for n in range(n_max + 1):
            alt = w0 * p[n] + qv[n]
            den = abs(w0 * p[n]) + abs(qv[n]) + abs(table.values[n])
            if den > 0:
                worst = max(worst, abs(table.values[n] - alt) / den)
    return _result("second_kind_two_route", worst, _IDENTITY_THRESHOLD, f"n <= {n_max}")


def check_sign_patterns(src) -> CheckResult:
    n_stop = _n_cap(src, _N_MAX)
    if n_stop < 1:
        return _skip("sign_patterns", 0.0,
                     "table too short: no index n >= 1")
    logs_p, sgn_p = log_table(src, 0.0, n_stop)
    logs_q, sgn_q = log_table(src, 0.0, n_stop, second_kind=True)
    bad = 0
    for n in range(n_stop + 1):
        want = -1.0 if n % 2 else 1.0
        if sgn_p[n] != want or logs_p[n] == -math.inf:
            bad += 1
        if n >= 1 and (sgn_q[n] != -want or logs_q[n] == -math.inf):
            bad += 1
    return _result("sign_patterns", float(bad), 0.0, f"n <= {n_stop}")


def check_kappa_monotonic(src, max_terms=20000) -> CheckResult:
    n_max = _N_MAX
    if src.is_finite:
        return _skip("kappa_positivity_monotonic", 0.0,
                     "requires an unbounded coefficient family")
    try:
        seq = second_kind.kappa_sequence(src, n_max + 1, max_terms=max_terms)
    except AssumptionViolation as exc:
        return CheckResult(name="kappa_positivity_monotonic", passed=False,
                           skipped=False, max_residual=math.inf, threshold=0.0,
                           note=str(exc))
    logs_p, _ = log_table(src, 0.0, n_max + 1)
    ratio_logs = [math.log(k) - 2.0 * logs_p[n] for n, k in enumerate(seq.kappas)]
    worst = 0.0
    for i in range(len(ratio_logs) - 1):
        worst = max(worst, ratio_logs[i + 1] - ratio_logs[i])
    # strict decrease means every successive log difference is negative
    return _result("kappa_positivity_monotonic", max(worst, 0.0), 0.0,
                   f"n <= {n_max}")


def check_per_term_bound(src, max_terms=20000) -> CheckResult:
    n_max = _PER_TERM_N_MAX
    if src.is_finite:
        return _skip("per_term_growth_bound", 0.0,
                     "requires an unbounded coefficient family")
    seq = second_kind.kappa_sequence(src, n_max + 1, max_terms=max_terms)
    # log w_n(0) = log kappa_n - log|P_n(0)|; entry n_max of a table one
    # longer comes from the same iterate as the kappa engine's
    logs_0, _ = log_table(src, 0.0, n_max + 1)
    worst = 0.0
    for z in (-2.0, -0.5, 1.0, 3.0, complex(0.8, 1.1)):
        logs_z, _ = log_table(src, z, n_max)
        for n in range(n_max + 1):
            log_kappa = math.log(seq.kappas[n])
            lhs = (log_kappa - logs_0[n]) + logs_z[n]
            rhs = abs(z) * seq.total_upper + log_kappa
            worst = max(worst, lhs - rhs)
    # report the worst log excess as a multiplicative overshoot
    return _result("per_term_growth_bound", math.expm1(max(worst, 0.0)), 1e-10,
                   f"n <= {n_max}")


def check_trace_reconciliation(src, max_terms=20000) -> CheckResult:
    if src.is_finite:
        return _skip("trace_reconciliation", _TRACE_THRESHOLD,
                     "requires an unbounded coefficient family")
    try:
        tr = second_kind.trace_inverse(src, 1e-8, max_terms=max_terms)
    except ConvergenceError as exc:
        return CheckResult(name="trace_reconciliation", passed=False,
                           skipped=False, max_residual=math.inf,
                           threshold=_TRACE_THRESHOLD, note=str(exc))
    res = find_spectrum(src, _TRACE_K, 1e-10, confirm="oracle")
    inv = [1.0 / lam for lam in res.eigenvalues]
    tail, model = _inverse_tail(res.eigenvalues)
    gap = abs(tr.value - (math.fsum(inv) + tail))
    return _result("trace_reconciliation", gap, _TRACE_THRESHOLD,
                   f"{_TRACE_K} eigenvalues + {model} tail")


def _inverse_tail(lams) -> tuple[float, str]:
    """sum 1/lambda_m over the eigenvalues beyond the last of ``lams``.

    Fits lambda_n = C rho^-n - s to the last three values (exact for the
    shifted ASC-II spectrum q^-n - shift) and sums 1/(C rho^-m - s) over the
    continuation.  A degenerate fit falls back to the plain geometric tail of
    the last two values, which is the s = 0 case of the same model.
    """
    if len(lams) >= 3:
        x0, x1, x2 = lams[-3:]
        den = x0 + x2 - 2.0 * x1
        s = (x1 * x1 - x0 * x2) / den if den > 0.0 else math.nan
        rho = (x0 + s) / (x1 + s) if x1 + s > 0.0 else math.nan
        if 0.0 < rho < 1.0 and x2 > 0.0 and x2 + s > 0.0:
            terms = []
            c = x2 + s
            for _ in range(_TAIL_MAX_TERMS):
                c /= rho
                terms.append(1.0 / (c - s))
                if terms[-1] <= 1e-18 * terms[0]:
                    return math.fsum(terms), "shifted geometric"
    inv_last, inv_prev = 1.0 / lams[-1], 1.0 / lams[-2]
    ratio = inv_last / inv_prev
    tail = inv_last * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    return tail, "geometric"


def w_factorization_check(params: QParams, n: int, digits: int = 0) -> float:
    """Max entry gap of the factorization J = W W^T + I over the leading
    n x n block of the ASC-II matrix, relative to its largest entry
    (a + 1) q^-(n-1), in mpmath at ``digits`` (_mp_context).

    W is lower bidiagonal with W_kk = sqrt(a) q^{-k/2} and
    W_{k+1,k} = q^{-(k+1)/2} sqrt(1 - q^{k+1}).
    """
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


def check_w_factorization(src, digits=0) -> CheckResult:
    if not isinstance(src, ASC2Source):
        return _skip("w_factorization", _W_THRESHOLD,
                     "defined for the ASC-II family only")
    gap = w_factorization_check(QParams(src.q, src.a), _W_BLOCK, digits)
    return _result("w_factorization", gap, _W_THRESHOLD, f"N = {_W_BLOCK}")


def run_suite(src: CoefficientSource, *, gamma: float | None = None,
              precision_digits: int = 0, max_terms: int = 20000) -> list[CheckResult]:
    """Run every applicable check and return the per-check results.

    A gamma above the spectrum of an infinite source raises
    AssumptionViolation: the smallest root of the 24 x 24 truncation bounds
    lambda_1 from above, so a Sturm count > 0 just below gamma proves it.
    The margin, 1e-12 of |gamma| + |shift|, covers the rounding of the
    shifted entries.
    """
    if gamma is None and isinstance(src, ASC2Source):
        gamma = src.natural_gamma
    if gamma is not None and not src.is_finite:
        t = TruncatedTridiagonal.from_source(src, 24)
        below = gamma - 1e-12 * (abs(gamma) + abs(src.shift))
        if int(sturm_counts(t, [below])[0]) > 0:
            raise AssumptionViolation(
                f"gamma {gamma!r} is above the smallest eigenvalue of the "
                "24 x 24 truncation, an upper bound of lambda_1; gamma must "
                "be a lower bound of the spectrum")
    digits = precision_digits if precision_digits and precision_digits > 16 else 0
    out = [
        check_coefficient_positivity(src),
        check_recurrence(src, digits=digits),
        check_wronskian(src, digits=digits),
        check_green_identity(src, digits=digits),
        check_resolvent_identity(src, gamma=gamma, digits=digits),
    ]
    pd_ok = out[0].passed
    if pd_ok:
        out.append(check_sign_patterns(src))
        if gamma is not None and not src.is_finite:
            out.append(check_two_route_second_kind(src, gamma,
                                                   max_terms=max_terms))
        else:
            out.append(_skip("second_kind_two_route", _IDENTITY_THRESHOLD,
                             "needs gamma and an unbounded family"))
        out.append(check_kappa_monotonic(src, max_terms=max_terms))
        out.append(check_per_term_bound(src, max_terms=max_terms))
        out.append(check_trace_reconciliation(src, max_terms=max_terms))
    else:
        note = "skipped: coefficient positivity failed"
        for name in ("sign_patterns", "second_kind_two_route",
                     "kappa_positivity_monotonic", "per_term_growth_bound",
                     "trace_reconciliation"):
            out.append(_skip(name, 0.0, note))
    out.append(check_w_factorization(src, digits=digits))
    return out
