"""Invariant verification suite.

Runs the structural identities behind the spectral pipeline on a configured
source and reports measured maxima: the float64 recurrence kernels against a
decimal column, the cross identity for associated polynomials against forward
substitution, the Green-block right inverse, the resolvent-style
reconstruction of P_*(x) from P_*(0), two-route agreement for the second-kind
functions, the kappa positivity and monotonicity pattern and F's per-term
bound on one CharFnEvaluator's table, trace reconciliation against the
leading block's trace, and the W W^T + I factorization of the ASC-II family.

The recurrence row compares the float64 kernels (log_table's _scaled_iter
and the grid path _scaled_columns) with one column of P_n per point in the
standard library's decimal arithmetic, so its maximum is float64 rounding at
every precision.  The Wronskian, Green and resolvent identities and the W
factorization run in decimal only, at the requested number of significant
decimal digits and at least 17, the digits that tell any two float64 values
apart.  Their maxima therefore shrink with the precision, which separates
genuine identity failures from round-off.  Floats enter decimal exactly
(Decimal(x)), and every check runs its arithmetic in a copy of its precision's
one context (decimal.localcontext), never in the thread's own.

Rows that step the float64 recurrence (recurrence, sign patterns, two-route)
stop below the first coefficient pair at the 2^900 horizon and say so in
their note.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import charfn, recurrence, second_kind
from .errors import AssumptionViolation, ConvergenceError
from .qseries import QParams
from .recurrence import log_table, plain_values
from .sources import ASC2Source, CoefficientSource, TableSource
# find_spectrum is unused here: perfbench hooks it here
from .spectrum import _gate_block, find_spectrum, sturm_counts  # noqa: F401

_REAL_ZS = (0.0, 0.4, -1.0, 2.7)
_COMPLEX_Z = complex(1.3, 0.7)
# last index n of the recurrence, positivity, sign-pattern and kappa checks
_N_MAX = 40
_TWO_ROUTE_N_MAX = 30
# coefficient pairs the two-route tail series reads past n_max: it stops at
# j >= n_max + 2, where its terms read pair j + 2, and sums back from at most
# the last index below the horizon (second_kind._sum_tops).  The stop search
# starts at j = 5 whatever n_max, so no n_max below 3 reads less
_TWO_ROUTE_PAD = 5
_TWO_ROUTE_N_MIN = 3
_PER_TERM_N_MAX = 60
# largest m of the Wronskian pairs (m, n); sizes of the Green, resolvent and
# W blocks
_WRONSKIAN_M_MAX = 12
_GREEN_BLOCK = 12
_W_BLOCK = 10
# correct digits a cross-identity Green entry must keep, and at least two
# thirds of the working digits (see _green)
_GREEN_DIGITS = 12
_RECURRENCE_THRESHOLD = 1e-12
_IDENTITY_THRESHOLD = 1e-10  # Wronskian, Green, resolvent, two-route
_TRACE_THRESHOLD = 1e-6
_W_THRESHOLD = 1e-12
_LN10 = math.log(10.0)
_KAPPA_ROWS = (("kappa_positivity_monotonic", 0.0), ("per_term_growth_bound", 0.0),
               ("trace_reconciliation", _TRACE_THRESHOLD))


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


def _fail(name, threshold, note):
    return CheckResult(name=name, passed=False, skipped=False,
                       max_residual=math.inf, threshold=threshold, note=note)


def _readable(src, count):
    """How many of the coefficient pairs 0 .. count - 1 lie below the 2^900
    horizon, read through src's one coefficient reader."""
    read = recurrence._coeff_reader(src)
    for n in range(count):
        try:
            read(n)
        except ConvergenceError:
            return n
    return count


def _upto(n, capped):
    """A row's index range, marked where the coefficient horizon cut it."""
    return f"n <= {n}" + (" (coefficient horizon)" if capped else "")


@functools.cache
def _mp_context(digits):
    """The decimal context of the extended-precision checks: ``digits``
    significant digits, at least 17; one per value for the process, which
    the checks copy (decimal.localcontext) and never change."""
    import decimal
    return decimal.Context(prec=max(digits, 17))


class _Complex:
    """A complex decimal number with the operations plain_values and
    _step_residual apply to it, in the current decimal context: sums and
    products with decimals, ints and itself, and division by a real."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    def __add__(self, other):
        if isinstance(other, _Complex):
            return _Complex(self.re + other.re, self.im + other.im)
        return _Complex(self.re + other, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Complex):
            return _Complex(self.re - other.re, self.im - other.im)
        return _Complex(self.re - other, self.im)

    def __rsub__(self, other):
        return _Complex(other - self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, _Complex):
            return _Complex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)
        return _Complex(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __truediv__(self, real):
        return _Complex(self.re / real, self.im / real)

    def __abs__(self):
        return (self.re * self.re + self.im * self.im).sqrt()

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _decimal(x):
    """A float or complex as a decimal or _Complex, exactly."""
    from decimal import Decimal
    if isinstance(x, complex):
        return _Complex(Decimal(x.real), Decimal(x.imag))
    return Decimal(x)


def _mp_coeffs(src, n_max, ctx):
    """Shifted coefficient lists (alphas, betas) as decimal values in ctx."""
    from decimal import Decimal, localcontext
    with localcontext(ctx):
        if isinstance(src, ASC2Source):
            q, a, sh = Decimal(src.q), Decimal(src.a), Decimal(src.shift)
            alphas = [(a * q ** (-2 * n - 1) * (1 - q ** (n + 1))).sqrt()
                      for n in range(n_max + 1)]
            betas = [(a + 1) * q ** (-n) - sh for n in range(n_max + 1)]
            return alphas, betas
        alphas = [Decimal(src.alpha(n)) for n in range(n_max + 1)]
        betas = [Decimal(src.beta(n)) - Decimal(src.shift)
                 for n in range(n_max + 1)]
        return alphas, betas


def _n_cap(src, want):
    cap = src.max_pair_index
    return want if cap is None else min(want, cap)


def _mp_tables(src, digits):
    """The decimal identity checks' (ctx, alphas, betas, green): _mp_coeffs
    to n = _n_cap(src, _N_MAX) and _green's block, ([], []) below 2 x 2.

    The recurrence divides by each alpha_n, so both lists stop before the
    first alpha_n = 0 (a coefficient_positivity failure), and the checks
    see the shorter table."""
    ctx = _mp_context(digits)
    alphas, betas = _mp_coeffs(src, _n_cap(src, _N_MAX), ctx)
    usable = next((n for n, a in enumerate(alphas) if a == 0), len(alphas))
    alphas, betas = alphas[:usable], betas[:usable]
    n_block = min(_GREEN_BLOCK, len(alphas))
    green = _green(alphas, betas, n_block, ctx) if n_block >= 2 else ([], [])
    return ctx, alphas, betas, green


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


def _log_gap(column, logs, phases):
    """Largest gap between a decimal column and a float64 one (ln|X_n| and
    sign or phase, as log_table gives them), in ln|X_n| or in sign or phase
    (a sign mismatch reads 2); inf where one side alone is zero.  Runs in
    the current decimal context."""
    worst = 0.0
    for v, lf, pf in zip(column, logs, phases):
        if not v or lf == -math.inf:
            if v or lf > -math.inf:
                return math.inf
            continue
        mag = abs(v)
        e = mag.adjusted()  # mag = m 10^e, 1 <= m < 10
        pv = complex(v / mag) if isinstance(pf, complex) else (1.0 if v > 0 else -1.0)
        worst = max(worst, abs(math.log(float(mag.scaleb(-e))) + e * _LN10 - lf),
                    abs(pv - pf))
    return worst


def _step_residual(alphas, betas, zc, logs, phases):
    """Largest relative residual of a float64 column in the decimal
    recurrence: |X_0 - 1|, then |a_n X_{n+1} + (b_n - z) X_n + a_{n-1}
    X_{n-1}| over the sum of the three magnitudes.  Runs in the current
    decimal context."""
    from decimal import Decimal
    xs = [_decimal(ph) * Decimal(lg).exp() if lg > -math.inf else Decimal(0)
          for lg, ph in zip(logs, phases)]
    worst = float(abs(xs[0] - 1))
    for n in range(len(xs) - 1):
        terms = [alphas[n] * xs[n + 1], (betas[n] - zc) * xs[n]]
        if n:
            terms.append(alphas[n - 1] * xs[n - 1])
        den = sum(abs(t) for t in terms)
        if den > 0:
            worst = max(worst, float(abs(sum(terms)) / den))
    return worst


def check_recurrence(src, ctx, alphas, betas) -> CheckResult:
    """The float64 kernels against one decimal column P_0 .. P_n per point
    (plain_values, the complex point on _Complex): log_table (_scaled_iter)
    at all five points and _scaled_columns, the grid path, at the four real
    ones.  Near a zero of some P_n, or near an eigenvalue, where P_n(z)
    follows the recessive solution, the gap measures conditioning rather
    than the kernel, so a column whose gap passes the threshold is judged by
    its residual in the decimal recurrence instead, which a correct kernel
    keeps at rounding level at any z."""
    from decimal import localcontext
    import numpy as np
    # _scaled_columns reads pair n before it yields P_n
    n_stop = _readable(src, len(alphas)) - 1
    capped = n_stop < len(alphas) - 1
    if n_stop < 1:
        return _skip("recurrence_residual", _RECURRENCE_THRESHOLD,
                     "no index n >= 1 below the coefficient horizon" if capped
                     else "table too short: no index n >= 1")
    grid = []
    for n, u, ls in recurrence._scaled_columns(recurrence._coeff_reader(src),
                                               np.array(_REAL_ZS)):
        grid.append((u, ls))
        if n == n_stop:
            break
    u, ls = (np.array(x) for x in zip(*grid))
    with np.errstate(divide="ignore"):
        grid_logs = np.where(u != 0, ls + np.log(np.abs(u)), -math.inf)
    zs = list(_REAL_ZS) + [_COMPLEX_Z]
    worst = 0.0
    with localcontext(ctx):
        for i, z in enumerate(zs):
            zc = _decimal(z)
            column = plain_values(alphas, betas, zc, n_stop)
            floats = [log_table(src, z, n_stop)]
            if i < len(_REAL_ZS):
                floats.append((grid_logs[:, i].tolist(), np.sign(u[:, i]).tolist()))
            for logs, phases in floats:
                gap = _log_gap(column, logs, phases)
                if not gap <= _RECURRENCE_THRESHOLD:
                    gap = _step_residual(alphas, betas, zc, logs, phases)
                worst = max(worst, gap)
    return _result("recurrence_residual", worst, _RECURRENCE_THRESHOLD,
                   f"{_upto(n_stop, capped)}, {len(zs)} evaluation points")


def check_wronskian(ctx, alphas, betas) -> CheckResult:
    m_stop = min(_WRONSKIAN_M_MAX, len(alphas) - 1)
    if m_stop < 1:
        return _skip("wronskian_identity", _IDENTITY_THRESHOLD,
                     "table too short: no pair m > n")
    from decimal import Decimal, localcontext
    worst = 0.0
    with localcontext(ctx):
        for z in (0.0, -0.7, 0.4):
            zc = Decimal(z)
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
    with fewer than _GREEN_DIGITS correct digits, or than two thirds of the
    working digits, is recomputed by forward substitution from Q_n^(n) = 0,
    Q_{n+1}^(n) = 1/alpha_n.  The share keeps the Green row's maximum
    shrinking with the precision: 12 digits alone would keep an entry with
    12 correct digits of 60.
    """
    from decimal import Decimal, localcontext
    with localcontext(ctx):
        zero = Decimal(0)
        p = plain_values(alphas, betas, zero, n_block)
        qv = plain_values(alphas, betas, zero, n_block, second_kind=True)
        # 10^(1 - prec) is the gap between 1 and the next decimal
        keep = max(_GREEN_DIGITS, 2 * ctx.prec // 3)
        guard = Decimal(1).scaleb(keep + 1 - ctx.prec)
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


def check_green_identity(ctx, alphas, betas, green) -> CheckResult:
    from decimal import localcontext
    g = green[1]
    if len(g) < 2:
        return _skip("green_identity", _IDENTITY_THRESHOLD,
                     "table too short: no 2 x 2 block")
    worst = 0.0
    with localcontext(ctx):
        for m in range(len(g) - 1):  # the boundary row is excluded
            for n in range(len(g)):
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
                   f"N = {len(g)}")


def check_resolvent_identity(ctx, alphas, betas, green,
                             gamma=None) -> CheckResult:
    p0, g = green
    n_block = len(g)
    if n_block < 2:
        return _skip("resolvent_identity", _IDENTITY_THRESHOLD,
                     "table too short: no 2 x 2 block")
    xs = [0.0, 0.1]
    if gamma is not None:
        xs.append(0.3 * gamma)
    from decimal import Decimal, localcontext
    worst = 0.0
    with localcontext(ctx):
        for x in xs:
            xv = Decimal(x)
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
    if src.is_finite:
        return _skip("second_kind_two_route", _IDENTITY_THRESHOLD,
                     "requires an unbounded coefficient family")
    reach = _readable(src, _TWO_ROUTE_N_MAX + _TWO_ROUTE_PAD)
    n_max = min(_TWO_ROUTE_N_MAX, reach - _TWO_ROUTE_PAD)
    if n_max < _TWO_ROUTE_N_MIN:
        return _skip("second_kind_two_route", _IDENTITY_THRESHOLD,
                     f"the coefficient horizon at n = {reach} leaves no index")
    zs = [0.0, -1.0, 0.3 * gamma]
    try:
        tables = [second_kind.second_kind_values(src, z, n_max + 1, gamma=gamma,
                                                 atol=1e-13, max_terms=max_terms)
                  for z in zs]
    except ConvergenceError as exc:
        return _fail("second_kind_two_route", _IDENTITY_THRESHOLD, str(exc))
    worst = 0.0
    for z, table in zip(zs, tables):
        w0 = table.values[0]
        p = recurrence.values(src, z, n_max)
        qv = recurrence.values(src, z, n_max, second_kind=True)
        for n in range(n_max + 1):
            alt = w0 * p[n] + qv[n]
            den = abs(w0 * p[n]) + abs(qv[n]) + abs(table.values[n])
            if den > 0:
                worst = max(worst, abs(table.values[n] - alt) / den)
    return _result("second_kind_two_route", worst, _IDENTITY_THRESHOLD,
                   _upto(n_max, n_max < _TWO_ROUTE_N_MAX))


def check_sign_patterns(src) -> CheckResult:
    n_table = _n_cap(src, _N_MAX)
    n_stop = _readable(src, n_table)  # log_table reads pairs 0 .. n_stop - 1
    capped = n_stop < n_table
    if n_stop < 1:
        return _skip("sign_patterns", 0.0,
                     "no index n >= 1 below the coefficient horizon" if capped
                     else "table too short: no index n >= 1")
    logs_p, sgn_p = log_table(src, 0.0, n_stop)
    logs_q, sgn_q = log_table(src, 0.0, n_stop, second_kind=True)
    bad = 0
    for n in range(n_stop + 1):
        want = -1.0 if n % 2 else 1.0
        if sgn_p[n] != want or logs_p[n] == -math.inf:
            bad += 1
        if n >= 1 and (sgn_q[n] != -want or logs_q[n] == -math.inf):
            bad += 1
    return _result("sign_patterns", float(bad), 0.0, _upto(n_stop, capped))


def check_kappa_monotonic(ev) -> CheckResult:
    try:
        ev._table.grow(_N_MAX + 1)  # stops at the table's capacity
    except AssumptionViolation as exc:
        return _fail("kappa_positivity_monotonic", 0.0, str(exc))
    eng = ev._table.engine
    kappas = ev._table.kappas[:_N_MAX + 1]
    if not kappas:
        return _skip("kappa_positivity_monotonic", 0.0, eng._horizon
                     or "no kappa table builds within the term budget")
    logs_p = eng.log_p  # log|P_n(0)| of the build's own recurrence
    ratio_logs = [math.log(k) - 2.0 * logs_p[n] for n, k in enumerate(kappas)]
    # strict decrease means every successive log difference is negative
    worst = max((b - a for a, b in zip(ratio_logs, ratio_logs[1:])), default=0.0)
    return _result("kappa_positivity_monotonic", max(worst, 0.0), 0.0,
                   f"n <= {len(kappas) - 1}")


def check_per_term_bound(ev) -> CheckResult:
    """|w_n(0) P_n(z)| <= kappa_n U(R), R the power of two above |z|: the
    per-term bound of F's certificate, on the terms eval sums and the
    majorant U(R) >= F(-R) it plans with (charfn)."""
    ev._table.grow(_PER_TERM_N_MAX + 1)  # stops at the table's capacity
    kappas = ev._table.kappas[:_PER_TERM_N_MAX + 1]
    zs = (-2.0, -0.5, 1.0, 3.0, complex(0.8, 1.1))
    us = [ev._majorant(charfn._radius(abs(z))) for z in zs]
    if math.inf in us:
        return _skip("per_term_growth_bound", 1e-10,
                     f"U(R) is infinite at {us.count(math.inf)} of {len(zs)} "
                     "points: no kappa tail of the table gives F a majorant")
    worst = max(abs(t) / k / u for z, u in zip(zs, us)
                for t, k in zip(ev._terms(z, len(kappas)), kappas))
    # report the worst ratio |term| / (kappa_n U(R)) above 1 as an overshoot
    return _result("per_term_growth_bound", max(worst - 1.0, 0.0), 1e-10,
                   f"n <= {len(kappas) - 1}")


def _block_trace(alphas, betas):
    """tr T^{-1} of the tridiagonal block (diagonal betas, off-diagonal alphas):
    sum 1/(d_n + e_n - beta_n), d and e its pivots from the top and from the
    bottom (Meurant 1992), with e_n - beta_n = -alpha_n^2 / e_{n+1}.  Runs
    in the current decimal context."""
    tops = [betas[0]]
    for a, b in zip(alphas, betas[1:]):
        tops.append(b - a * a / tops[-1])
    total, bottom = 1 / tops[-1], betas[-1]
    for n in range(len(alphas) - 1, -1, -1):
        drop = alphas[n] ** 2 / bottom
        total += 1 / (tops[n] - drop)
        bottom = betas[n] - drop
    return total


def check_trace_reconciliation(ev, ctx) -> CheckResult:
    """trace_inverse on the evaluator's table, its value plus its tail bound,
    against tr J_M^{-1} <= tr J^{-1}, M twice its term count, in ctx: a gap
    of the kappa tail beyond M, with no model of the spectrum."""
    from decimal import localcontext
    try:
        tr = second_kind.trace_inverse(ev.src, 1e-8, table=ev._table)
    except ConvergenceError as exc:
        return _fail("trace_reconciliation", _TRACE_THRESHOLD, str(exc))
    m = 2 * tr.terms
    alphas, betas = _mp_coeffs(ev.src, m - 1, ctx)
    with localcontext(ctx):
        block = float(_block_trace(alphas[:-1], betas))
    gap = abs(tr.value + tr.tail_bound - block)
    return _result("trace_reconciliation", gap, _TRACE_THRESHOLD,
                   f"{tr.terms} kappa terms, {m} x {m} block")


def w_factorization_check(params: QParams, n: int, digits: int = 0) -> float:
    """Max entry gap of the factorization J = W W^T + I over the leading
    n x n block of the ASC-II matrix, relative to its largest entry
    (a + 1) q^-(n-1), in decimal arithmetic at ``digits`` significant
    digits, at least 17 (_mp_context).

    W is lower bidiagonal with W_kk = sqrt(a) q^{-k/2} and
    W_{k+1,k} = q^{-(k+1)/2} sqrt(1 - q^{k+1}), so W W^T + I is tridiagonal
    like J and only the band is compared; its entry above the diagonal is
    the product below it in the other order, the same decimal number.
    """
    from decimal import Decimal, localcontext
    if n < 2:
        raise ValueError("block size must be at least 2")
    ctx = _mp_context(digits)
    alphas, betas = _mp_coeffs(ASC2Source(params.q, params.a), n - 1, ctx)
    with localcontext(ctx):
        q, a = Decimal(params.q), Decimal(params.a)
        root = q.sqrt()
        half = [root ** -k for k in range(n)]  # q^{-k/2}
        diag = [a.sqrt() * h for h in half]  # W_kk
        sub = [h * (1 - q ** k).sqrt() for k, h in enumerate(half)]  # W_{k,k-1}
        worst = max(abs((1 + sub[k] * sub[k]) + diag[k] * diag[k] - betas[k])
                    for k in range(n))
        worst = max(worst, *(abs(sub[k] * diag[k - 1] - alphas[k - 1])
                             for k in range(1, n)))
        return float(worst / betas[n - 1])


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
    AssumptionViolation: the smallest root of a leading truncation (the
    block of spectrum._gate_block, 24 x 24 unless the source grows too fast)
    bounds lambda_1 from above, so a Sturm count > 0 just below gamma proves
    it.  The margin, 1e-12 of |gamma| + |shift|, covers the rounding of the
    shifted entries.
    """
    if gamma is None:
        gamma = src.natural_gamma
    if gamma is not None and not src.is_finite:
        t = _gate_block(src)
        below = gamma - 1e-12 * (abs(gamma) + abs(src.shift))
        if int(sturm_counts(t, [below])[0]) > 0:
            raise AssumptionViolation(
                f"gamma {gamma!r} is above the smallest eigenvalue of the "
                f"{t.size} x {t.size} truncation, an upper bound of lambda_1; "
                "gamma must be a lower bound of the spectrum")
    ctx, alphas, betas, green = _mp_tables(src, precision_digits)
    out = [
        check_coefficient_positivity(src),
        check_recurrence(src, ctx, alphas, betas),
        check_wronskian(ctx, alphas, betas),
        check_green_identity(ctx, alphas, betas, green),
        check_resolvent_identity(ctx, alphas, betas, green, gamma=gamma),
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
        if src.is_finite:
            out += [_skip(name, threshold, "requires an unbounded coefficient family")
                    for name, threshold in _KAPPA_ROWS]
        else:  # the evaluator's kappa table serves the three kappa checks
            ev = charfn.CharFnEvaluator(src, max_terms)
            out.append(check_kappa_monotonic(ev))
            if out[-1].max_residual != math.inf:
                out += [check_per_term_bound(ev), check_trace_reconciliation(ev, ctx)]
            else:  # a build met P_n(0) = 0 or kappa_n <= 0: there is no table
                out += [_skip(name, threshold, "skipped: kappa positivity failed")
                        for name, threshold in _KAPPA_ROWS[1:]]
    else:
        note = "skipped: coefficient positivity failed"
        for name in ("sign_patterns", "second_kind_two_route",
                     "kappa_positivity_monotonic", "per_term_growth_bound",
                     "trace_reconciliation"):
            out.append(_skip(name, 0.0, note))
    out.append(check_w_factorization(src, digits=precision_digits))
    return out
