"""Characteristic entire function F(z) = 1 - z sum_n w_n(0) P_n(z).

Two independent evaluation methods are provided: the certified partial sum
(truncation error bounded through the per-term estimate
|w_n(0) P_n(z)| <= exp(|z| S) kappa_n with S an upper estimate of sum kappa)
and the heuristic ratio limit P_n(z)/P_n(0) -> F(z).  A Hadamard product over
known eigenvalues rounds out the cross-checking toolkit; the ASC-II closed
form is qseries.spectrum_product_reference.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AssumptionViolation, ConvergenceError
from .recurrence import _coeff_reader, _phase, _scaled_columns, _scaled_iter
from .second_kind import _RATIO_CAP, _RATIO_WINDOW, TailSeriesEngine, kappa_sequence
from .sources import CoefficientSource, require_infinite

# conservative working-precision constant for the summation noise estimate
_NOISE_EPS = 6e-15
# certified_sign divides atol by _SIGN_ATOL_STEP per round, down to _SIGN_ATOL_MIN
_SIGN_ATOL_MIN = 1e-280
_SIGN_ATOL_STEP = 100.0
# eval_grid steps its columns in blocks whose term matrix (terms x columns
# float64) stays within this many bytes
_GRID_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class CharFnValue:
    """One evaluation of the characteristic function.

    tail_bound is the certified truncation error for the partial-sum method
    and a successive-difference heuristic for the ratio method;
    noise_estimate approximates the floating-point summation error, which the
    truncation certificate does not cover.
    """

    z: float | complex
    value: float | complex
    tail_bound: float
    method: str
    terms_used: int
    certified: bool
    noise_estimate: float = 0.0

    def sign_certified(self) -> int:
        """+1/-1 when the real value's sign is beyond both error terms, else 0."""
        v = self.value.real if isinstance(self.value, complex) else self.value
        if self.certified and abs(v) > self.tail_bound + self.noise_estimate:
            return 1 if v > 0 else -1
        return 0


class _Plan(NamedTuple):
    """Term plan of one z != 0, with the kappa-derived tables its terms use:
    the lists published when it was made (later growth publishes new ones)."""

    n_terms: int
    log_bound: float
    certified: bool
    log_w0: list[float]
    sgn_w0: list[float]


class CharFnEvaluator:
    """Shared-state evaluator: one kappa table serves many z evaluations.

    Table growth is serialized by a lock and published prefixes are never
    mutated, so evaluations may run from worker threads.  The smallest kappa
    count that failed to build is remembered, so the table capacity is probed
    once per evaluator rather than once per term plan.
    """

    def __init__(self, src: CoefficientSource, max_terms: int = 20000):
        require_infinite(src, "characteristic function evaluation")
        self.src = src
        self.max_terms = max_terms
        self._engine = TailSeriesEngine(src, 0.0)
        self._grow_lock = threading.Lock()
        self._kappa: list[float] = []
        self._log_w0: list[float] = []
        self._sgn_w0: list[float] = []
        self._sum_upper: float | None = None
        # smallest kappa count whose build failed (budget, coefficient
        # horizon or no stable decay window); larger counts fail as well
        self._failed_count: int | None = None

    # -- kappa table management -------------------------------------------

    def _grow(self, count: int) -> bool:
        """Extend the kappa table to ``count`` entries; False when the budget,
        the coefficient horizon or the decay window does not allow it."""
        if count > self.max_terms:
            return False
        if count <= len(self._kappa):
            return True
        with self._grow_lock:
            if count <= len(self._kappa):
                return True
            if self._failed_count is not None and count >= self._failed_count:
                return False
            try:
                seq = kappa_sequence(self.src, count, max_terms=self.max_terms,
                                     engine=self._engine)
            except ConvergenceError:
                self._failed_count = count
                return False
            lp = self._engine.log_p
            sp = self._engine.sgn_p
            log_w0 = [math.log(k) - lp[n] for n, k in enumerate(seq.kappas)]
            sgn_w0 = [sp[n] for n in range(count)]
            # publish each table with a single reference swap
            self._log_w0 = log_w0
            self._sgn_w0 = sgn_w0
            self._kappa = seq.kappas
            if self._sum_upper is None:
                self._sum_upper = seq.total_upper
            return True

    @property
    def kappa_sum_upper(self) -> float:
        """Certified-style upper estimate S for sum kappa_n."""
        if self._sum_upper is None:
            for base in (64, 32, 16, 8):
                if self._grow(base):
                    break
            if self._sum_upper is None:
                raise ConvergenceError(
                    "kappa table cannot reach a stable decay window"
                )
        return self._sum_upper

    def _tail_upper(self, n_terms: int) -> float | None:
        """Upper estimate of sum_{k>=n_terms} kappa_k from the observed decay.

        None when the table cannot be grown that far (budget or coefficient
        horizon); inf when it grew but the decay window is not below the cap.
        """
        if not self._grow(n_terms + _RATIO_WINDOW + 1):
            return None
        k = self._kappa
        window = [k[i + 1] / k[i] for i in range(n_terms - 1,
                                                 n_terms + _RATIO_WINDOW - 1)]
        r = max(window)
        if r >= _RATIO_CAP:
            return math.inf
        return k[n_terms] / (1.0 - r)

    def _achievable_terms(self, failed: int) -> int:
        """Largest kappa count that can actually be built, by bisection."""
        lo = len(self._kappa)
        hi = failed
        while hi - lo > 8:
            mid = (lo + hi) // 2
            if self._grow(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def plan_terms(self, z_abs: float, atol: float):
        """Smallest grown term count whose certified bound meets atol.

        Returns (n_terms, log_bound); n_terms is None when neither the term
        budget nor the coefficient horizon allows reaching atol, in which case
        log_bound reports the best achievable bound.
        """
        s_up = self.kappa_sum_upper
        log_target = math.log(atol)
        n = 16
        best = math.inf
        ceiling = self.max_terms - _RATIO_WINDOW - 1
        while True:
            if n > ceiling:
                n = ceiling
            if n < 4:
                return None, best
            t = self._tail_upper(n)
            if t is None:
                # budget or horizon hit; shrink the ceiling and retry there
                ceiling = min(ceiling,
                              self._achievable_terms(n + _RATIO_WINDOW + 1)
                              - _RATIO_WINDOW - 1)
                if ceiling < 4:
                    return None, best
                n = ceiling
                continue
            if 0.0 < t < math.inf:
                log_bound = math.log(z_abs) + z_abs * s_up + math.log(t) \
                    if z_abs > 0 else -math.inf
                best = min(best, log_bound)
                if log_bound <= log_target:
                    return n, log_bound
            if n >= ceiling:
                return None, best
            n = min(2 * n, ceiling)

    # -- evaluation ---------------------------------------------------------

    def _plan(self, z_abs: float, atol: float) -> _Plan:
        """plan_terms, or the grown table for an uncertified point."""
        n_terms, log_bound = self.plan_terms(z_abs, atol)
        certified = n_terms is not None
        if not certified:
            n_terms = min(self.max_terms, max(len(self._kappa), 64))
            self._grow(n_terms)
            n_terms = len(self._kappa)
        return _Plan(n_terms, log_bound, certified, self._log_w0, self._sgn_w0)

    def eval(self, z, atol: float = 1e-12) -> CharFnValue:
        """Certified partial-sum evaluation of F(z)."""
        if z == 0:
            return _at_origin(z, "partial_sum", True)
        plan = self._plan(abs(z), atol)
        n_terms, log_w0, sgn_w0 = plan.n_terms, plan.log_w0, plan.sgn_w0
        is_c = isinstance(z, complex)
        terms = []
        max_term = 0.0
        it = _scaled_iter(self.src, z)
        for n, u, v, ls, _ in it:
            if n >= n_terms:
                break
            if u == 0:
                terms.append(0.0 if not is_c else 0.0 + 0.0j)
                continue
            lt = log_w0[n] + ls + math.log(abs(u))
            t = sgn_w0[n] * _phase(u) * (math.exp(lt) if lt < 709 else math.inf)
            terms.append(t)
            max_term = max(max_term, abs(t))
        if is_c:
            total = complex(math.fsum(t.real for t in terms),
                            math.fsum(t.imag for t in terms))
        else:
            total = math.fsum(terms)
        return _partial_sum_value(z, plan, total, max_term)

    def eval_grid(self, zs, atol: float = 1e-12) -> list[CharFnValue]:
        """eval at every real z of zs, bit for bit, through one column-wise
        recurrence per block of points.

        The term plans run in grid order, so each point sees the kappa table
        eval would have seen in a loop over zs.  Points are then stepped
        together through _scaled_columns, sorted by term count, in blocks
        whose term matrix stays within _GRID_BLOCK_BYTES.  Each term takes
        math.log and math.exp per element (numpy's differ in the last ulp)
        and each sum math.fsum over the terms in index order, as in eval.
        """
        zs = [float(z) for z in zs]
        plans = [None if z == 0 else self._plan(abs(z), atol) for z in zs]
        out = [_at_origin(z, "partial_sum", True) if p is None else None
               for z, p in zip(zs, plans)]
        order = sorted((j for j, p in enumerate(plans) if p is not None),
                       key=lambda j: -plans[j].n_terms)
        if not order:
            return out
        width = max(1, _GRID_BLOCK_BYTES // (8 * max(plans[order[0]].n_terms, 1)))
        read = _coeff_reader(self.src)
        for start in range(0, len(order), width):
            block = order[start:start + width]
            sums = _grid_sums(read, [zs[j] for j in block],
                              [plans[j] for j in block])
            for j, (total, max_term) in zip(block, sums):
                out[j] = _partial_sum_value(zs[j], plans[j], total, max_term)
        return out

    def certified_sign(self, x: float, atol: float):
        """Certified sign of F(x), tightening atol until the sign resolves.

        Returns (sign, CharFnValue); sign 0 means the sign could not be
        certified within the budget (value too close to zero).  Tightening
        stops once |value| + tail_bound <= noise_estimate: the summation noise,
        which no tighter atol reduces, then already covers the value.
        """
        a = atol
        while True:
            val = self.eval(x, a)
            s = val.sign_certified()
            if s != 0:
                return s, val
            if not val.certified or a <= _SIGN_ATOL_MIN:
                return 0, val
            v = abs(val.value)
            if v + val.tail_bound <= val.noise_estimate:
                return 0, val
            # aim well below the magnitude we need to resolve
            a = max(min(a / _SIGN_ATOL_STEP, v / 10.0), _SIGN_ATOL_MIN)


def _at_origin(z, method: str, certified: bool) -> CharFnValue:
    """F(0) = 1 exactly."""
    return CharFnValue(z=z, value=1.0, tail_bound=0.0, method=method,
                       terms_used=0, certified=certified)


def _partial_sum_value(z, plan: _Plan, total, max_term: float) -> CharFnValue:
    """CharFnValue of the partial sum `total` of a planned evaluation."""
    tail_bound = math.exp(plan.log_bound) if plan.log_bound < 709 else math.inf
    value = 1.0 - z * total
    noise = _NOISE_EPS * math.sqrt(max(plan.n_terms, 1)) * (
        1.0 + abs(z) * max_term + abs(value)
    )
    return CharFnValue(z=z, value=value, tail_bound=tail_bound,
                       method="partial_sum", terms_used=plan.n_terms,
                       certified=plan.certified, noise_estimate=noise)


def _grid_sums(read, zs: list[float],
               plans: list[_Plan]) -> list[tuple[float, float]]:
    """(sum of the terms, largest |term|) of every point of a block, as eval
    forms them.

    The terms w_n(0) P_n(z) fill an (n_terms, points) matrix, freed on
    return.  plans are sorted by descending term count, so the points still
    summing at index n are a prefix of the block.
    """
    counts = [p.n_terms for p in plans]
    n_top = counts[0]
    tables = list({id(p.log_w0): p for p in plans}.values())  # one per table
    slot = {id(p.log_w0): i for i, p in enumerate(tables)}
    col_table = np.array([slot[id(p.log_w0)] for p in plans])

    def by_index(lists):  # (n_top, tables) array, zero-padded
        return np.array([lst[:n_top] + [0.0] * (n_top - len(lst))
                         for lst in lists]).T
    log_w0 = by_index([p.log_w0 for p in tables])
    sgn_w0 = by_index([p.sgn_w0 for p in tables])

    terms = np.zeros((n_top, len(zs)))
    k = len(zs)
    for n, u, ls in _scaled_columns(read, np.array(zs)):
        if n >= n_top:
            break
        while counts[k - 1] <= n:
            k -= 1
        u = u[:k]
        cols = col_table[:k]
        mag = np.abs(u)
        zero = mag == 0.0  # eval takes these terms as 0
        has_zero = zero.any()
        if has_zero:
            mag[zero] = 1.0
        lt = (log_w0[n, cols] + ls[:k]) + np.fromiter(
            map(math.log, mag.tolist()), float, k)
        over = lt >= 709.0  # eval takes these terms as inf
        has_over = over.any()
        if has_over:
            lt[over] = 0.0
        exp_lt = np.fromiter(map(math.exp, lt.tolist()), float, k)
        if has_over:
            exp_lt[over] = math.inf
        t = sgn_w0[n, cols] * np.copysign(1.0, u) * exp_lt
        if has_zero:
            t[zero] = 0.0
        terms[n, :k] = t
    sums = []
    for c, count in enumerate(counts):
        col = terms[:count, c]
        sums.append((math.fsum(col.tolist()),
                     float(np.max(np.abs(col), initial=0.0))))
    return sums


def charfn_ratio(src: CoefficientSource, z, n_max: int = 200):
    """F(z) as the ratio limit P_n(z)/P_n(0) at n = n_max.

    The recorded tail_bound is the difference of the last two iterates, an
    empirical convergence indicator only; the result is never marked
    certified.  Signals a violated positivity assumption if P_n(0) = 0.

    z may also be a 1-D numpy array of real points: the result is then a list
    with the scalar result of every point, bit for bit, from one column-wise
    recurrence over the grid and a z = 0 column beside it.
    """
    if isinstance(z, np.ndarray):
        return _ratio_grid(src, z.tolist(), n_max)
    if z == 0:
        return _at_origin(z, "ratio_limit", False)
    require_infinite(src, "ratio-limit evaluation")
    it_z = _scaled_iter(src, z)
    it_0 = _scaled_iter(src, 0.0)
    zero = 0.0 + 0.0j if isinstance(z, complex) else 0.0
    prev = None
    cur = None
    for (n, uz, vz, lz, _), (_, u0, v0, l0, _) in zip(it_z, it_0):
        if u0 == 0:
            raise _zero_at_origin(n)
        prev = cur
        cur = _ratio_iterate(uz, lz, u0, l0, zero)
        if n == n_max:
            break
    return _ratio_value(z, cur, prev, n_max)


def _ratio_grid(src, zs: list, n_max: int) -> list[CharFnValue]:
    if all(z == 0 for z in zs):
        return [_at_origin(z, "ratio_limit", False) for z in zs]
    require_infinite(src, "ratio-limit evaluation")
    rows = []  # (u, log_scale) at n_max - 1 and n_max
    for n, u, ls in _scaled_columns(_coeff_reader(src), np.array(zs + [0.0])):
        if u[-1] == 0:
            raise _zero_at_origin(n)
        if n >= n_max - 1:
            rows.append((u.tolist(), ls.tolist()))
        if n == n_max:
            break
    iterates = [[_ratio_iterate(uz, lz, u[-1], ls[-1], 0.0)
                 for uz, lz in zip(u, ls)] for u, ls in rows]
    prevs = iterates[0] if len(iterates) == 2 else [None] * len(zs)
    return [_at_origin(z, "ratio_limit", False) if z == 0
            else _ratio_value(z, cur, prev, n_max)
            for z, cur, prev in zip(zs, iterates[-1], prevs)]


def _zero_at_origin(n: int) -> AssumptionViolation:
    return AssumptionViolation(f"P_{n}(0) = 0: source cannot be positive definite")


def _ratio_iterate(uz, lz, u0, l0, zero):
    """P_n(z)/P_n(0) from the scaled values of both columns."""
    if uz == 0:
        return zero
    scale = lz - l0
    return (uz / u0) * math.exp(scale) if scale < 709 else math.inf * (uz / u0)


def _ratio_value(z, cur, prev, n_max: int) -> CharFnValue:
    diff = abs(cur - prev) if prev is not None else math.inf
    noise = _NOISE_EPS * math.sqrt(max(n_max, 1)) * (1.0 + abs(cur))
    return CharFnValue(z=z, value=cur, tail_bound=diff, method="ratio_limit",
                       terms_used=n_max, certified=False, noise_estimate=noise)


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

