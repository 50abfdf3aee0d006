"""Characteristic entire function F(z) = 1 - z sum_n w_n(0) P_n(z).

Two independent evaluation methods are provided: the certified partial sum
(truncation error bounded through the per-term estimate
|w_n(0) P_n(z)| <= exp(|z| S) kappa_n with S an upper estimate of sum kappa)
and the heuristic ratio limit P_n(z)/P_n(0) -> F(z).  The ASC-II closed form
is qseries.spectrum_product_reference.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import second_kind
from .errors import ConvergenceError
from .recurrence import _LN2, _coeff_reader, _scaled_columns, _scaled_iter
from .second_kind import (_RATIO_CAP, _RATIO_WINDOW, TailSeriesEngine,
                          _zero_at_origin, kappa_sequence)
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
    """Term plan of one z != 0."""

    n_terms: int
    log_bound: float
    certified: bool


class CharFnEvaluator:
    """Shared-state evaluator: one kappa table serves many z evaluations.

    The table is append-only: growth is serialized by a lock, and every
    build is a kappa_sequence call on one z = 0 engine, which holds the
    table (engine.kappas) and computes only the entries past it (the first
    build's total_upper is kappa_sum_upper), so an entry never changes once
    published, and eval(z) depends neither on earlier evaluations nor on
    thread timing.  The capacity starts at max_terms; the first build that
    fails (budget, coefficient horizon or no stable decay window) fixes it
    once, at the largest count that builds, and grows the table to it.

    The tail-series engine's _coeff_reader also serves eval and eval_grid,
    so each coefficient index is read from the source once per evaluator.
    """

    def __init__(self, src: CoefficientSource, max_terms: int = 20000):
        require_infinite(src, "characteristic function evaluation")
        self.src = src
        self.max_terms = max_terms
        self._engine = TailSeriesEngine(src, 0.0)
        self._read = self._engine.read
        self._grow_lock = threading.Lock()
        # w_n(0) = _w0_mant[n] * 2**_w0_exp[n], the mantissa signed, for the
        # kappa_n of self._engine.kappas; len(_w0_mant) is the table size
        self._w0_mant: list[float] = []
        self._w0_exp: list[int] = []
        self._sum_upper: float | None = None
        self._capacity = max_terms  # lowered once, by the first failed build
        # _tail_upper(n) by n, None included: fixed once computed, since the
        # table only grows and the capacity only falls
        self._tails: dict[int, float | None] = {}

    # -- kappa table management -------------------------------------------

    def _grow(self, count: int) -> bool:
        """Extend the kappa table to ``count`` entries; False beyond the
        capacity, which the first failed build fixes."""
        if count > self._capacity:
            return False
        if count <= len(self._w0_mant):
            return True
        with self._grow_lock:
            if count > self._capacity:
                return False
            if count <= len(self._w0_mant) or self._build(count):
                return True
            # the first failure fixes the capacity, and the table grows to it
            capacity = second_kind._kappa_capacity(self._engine, count,
                                                   self.max_terms)
            if capacity > len(self._w0_mant):
                self._build(capacity)
            self._capacity = capacity
            return False

    def _build(self, count: int) -> bool:
        """Extend the table to ``count`` entries through kappa_sequence on
        the engine, which computes only the new ones; False where the build
        fails.  The caller holds the lock."""
        start = len(self._w0_mant)
        try:
            seq = kappa_sequence(self.src, count, max_terms=self.max_terms,
                                 engine=self._engine)
        except ConvergenceError:
            return False
        if start == 0:
            self._sum_upper = seq.total_upper
        lp, sp = self._engine.log_p, self._engine.sgn_p
        for n, k in enumerate(seq.kappas[start:], start):
            lw = math.log(k) - lp[n]  # log |w_n(0)|
            e = math.floor(lw / _LN2)
            self._w0_exp.append(e)
            # _w0_mant is appended last: its length is what readers check
            self._w0_mant.append(sp[n] * math.exp(lw - e * _LN2))
        return True

    @property
    def kappa_sum_upper(self) -> float:
        """Certified-style upper estimate S for sum kappa_n."""
        if self._sum_upper is None:
            # a failed first build fixes the capacity and builds up to it
            self._grow(min(64, self._capacity))
            if self._sum_upper is None:
                raise ConvergenceError(
                    "kappa table cannot reach a stable decay window"
                )
        return self._sum_upper

    def _tail_upper(self, n_terms: int) -> float | None:
        """Upper estimate of sum_{k>=n_terms} kappa_k from the observed decay.

        None when the table cannot be grown that far (budget or coefficient
        horizon); inf when it grew but the decay window is not below the cap.
        Memoized per n_terms.
        """
        if n_terms in self._tails:
            return self._tails[n_terms]
        t = None
        if self._grow(n_terms + _RATIO_WINDOW + 1):
            k = self._engine.kappas
            r = max(k[i + 1] / k[i] for i in range(n_terms - 1,
                                                   n_terms + _RATIO_WINDOW - 1))
            t = math.inf if r >= _RATIO_CAP else k[n_terms] / (1.0 - r)
        self._tails[n_terms] = t
        return t

    def plan_terms(self, z_abs: float, atol: float):
        """Smallest grown term count whose certified bound meets atol.

        Returns (n_terms, log_bound); n_terms is None when neither the term
        budget nor the coefficient horizon allows reaching atol, in which case
        log_bound reports the best achievable bound (inf when no kappa table
        can be built at all).  n_terms is None only once the table has
        reached its capacity.
        """
        if not 0.0 < atol < math.inf:
            raise ValueError(f"atol must be finite and positive, got {atol!r}")
        if not 0.0 <= z_abs < math.inf:
            raise ValueError(f"z must be finite, got |z| = {z_abs!r}")
        try:
            s_up = self.kappa_sum_upper
        except ConvergenceError:
            return None, math.inf
        log_target = math.log(atol)
        n = 16
        best = math.inf
        while True:
            ceiling = self._capacity - _RATIO_WINDOW - 1
            if n > ceiling:
                n = ceiling
            if n < 4:
                return None, best
            t = self._tail_upper(n)
            if t is None:
                continue  # the failed build has lowered the capacity
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
        """plan_terms, or the whole table (then at capacity) for an
        uncertified point."""
        n_terms, log_bound = self.plan_terms(z_abs, atol)
        certified = n_terms is not None
        return _Plan(n_terms if certified else len(self._w0_mant), log_bound,
                     certified)

    def eval(self, z, atol: float = 1e-12) -> CharFnValue:
        """Certified partial-sum evaluation of F(z)."""
        if z == 0:
            return _at_origin(z, "partial_sum", True)
        plan = self._plan(abs(z), atol)
        n_terms, mant, exps = plan.n_terms, self._w0_mant, self._w0_exp
        is_c = isinstance(z, complex)
        scale = _ldexp_complex if is_c else _ldexp_inf
        terms = []
        max_term = 0.0
        for n, u, v, ls, _ in _scaled_iter(self._read, z):
            if n >= n_terms:
                break
            # ls sums whole rescale exponents times ln 2, each rounded once;
            # their error is far below ln 2 / 2, so rounding recovers the sum
            t = scale(mant[n] * u, exps[n] + round(ls / _LN2))
            terms.append(t)
            max_term = max(max_term, abs(t))
        if is_c:
            total = complex(_fsum_inf([t.real for t in terms]),
                            _fsum_inf([t.imag for t in terms]))
        else:
            total = _fsum_inf(terms)
        return _partial_sum_value(z, plan, total, max_term)

    def eval_grid(self, zs, atol: float = 1e-12) -> list[CharFnValue]:
        """eval at every real z of zs, bit for bit, through one column-wise
        recurrence per block of points.

        Every point reads the one append-only kappa table, so each result
        equals eval's at that point whatever was evaluated before.  Points
        are stepped together through _scaled_columns, sorted by term count,
        in blocks whose term matrix stays within _GRID_BLOCK_BYTES.  Each
        term is formed as in eval, by one multiply and one ldexp (exact up
        to the float range, where it becomes a signed inf), and each sum is
        _fsum_inf over the terms in index order.
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
        for start in range(0, len(order), width):
            block = order[start:start + width]
            sums = _grid_sums(self._read, [zs[j] for j in block],
                              [plans[j].n_terms for j in block],
                              self._w0_mant, self._w0_exp)
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


def _ldexp_inf(x: float, e: int) -> float:
    """x * 2**e, or inf of the sign of x beyond the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _ldexp_complex(x: complex, e: int) -> complex:
    """_ldexp_inf of each part of x."""
    return complex(_ldexp_inf(x.real, e), _ldexp_inf(x.imag, e))


def _fsum_inf(xs: list[float]) -> float:
    """math.fsum, or the signed inf of a sum beyond the float range (where
    fsum raises), from the sum of the terms scaled by 2**-64; nan when terms
    of both signs are beyond it (fsum's "-inf + inf")."""
    try:
        return math.fsum(xs)
    except OverflowError:
        return _ldexp_inf(math.fsum([math.ldexp(x, -64) for x in xs]), 64)
    except ValueError:
        return math.nan


def _grid_sums(read, zs: list[float], counts: list[int], mant: list[float],
               exps: list[int]) -> list[tuple[float, float]]:
    """(sum of the terms, largest |term|) of every point of a block, with
    each term w_n(0) P_n(z) = ldexp(mant[n] u, exps[n] + round(ls / ln 2))
    formed as eval forms it.

    The terms fill an (n_terms, points) matrix, freed on return.  counts
    (the term count of each point) descend, so the points still summing at
    index n are a prefix of the block.
    """
    n_top = counts[0]
    terms = np.zeros((n_top, len(zs)))
    k = len(zs)
    ls_seen, ls_exp = None, None
    with np.errstate(over="ignore"):  # an overflowing term is a signed inf
        for n, u, ls in _scaled_columns(read, np.array(zs)):
            if n >= n_top:
                break
            while counts[k - 1] <= n:
                k -= 1
            if ls is not ls_seen:  # _scaled_columns replaces ls on a rescale
                ls_seen, ls_exp = ls, np.rint(ls / _LN2).astype(np.int64)
            np.ldexp(mant[n] * u[:k], exps[n] + ls_exp[:k], out=terms[n, :k])
    sums = []
    for c, count in enumerate(counts):
        col = terms[:count, c]
        sums.append((_fsum_inf(col.tolist()),
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
    read = _coeff_reader(src)
    it_z = _scaled_iter(read, z)
    it_0 = _scaled_iter(read, 0.0)
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
