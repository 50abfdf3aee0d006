"""Characteristic entire function F(z) = 1 - z sum_n w_n(0) P_n(z).

Two independent evaluation methods are provided: the certified partial sum
and the heuristic ratio limit P_n(z)/P_n(0) -> F(z).  The ASC-II closed form
is qseries.spectrum_product_reference.

The partial sum's truncation error is bounded through the majorant F(-|z|):
each term factors as w_n(0) P_n(z) = kappa_n g_n(z), g_n(z) = prod_j
(1 - z/x_{n,j}) over the positive zeros of P_n, which decrease in n to the
eigenvalues, so |g_n(z)| <= g_n(-|z|) <= F(-|z|) and

    |F(z) - F_N(z)| <= |z| T_N F(-|z|),    T_N >= sum_{n>=N} kappa_n.

F(-r) grows with r, and F(-R) <= F_M(-R) / (1 - R T_M) wherever R T_M < 1,
where every term of F_M(-R) is positive; CharFnEvaluator._majorant gives this
bound once per power-of-two radius R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .recurrence import _LN2, _coeff_reader, _scaled_columns, _scaled_iter
# unused here (second_kind grows the table): perfbench hooks kappa_sequence here
from .second_kind import (KappaTable, _zero_at_origin,  # noqa: F401
                          kappa_sequence)
from .sources import CoefficientSource, require_infinite

# conservative working-precision constant for the summation noise estimate
_NOISE_EPS = 6e-15
# relative pad of the majorant's partial sum F_M(-R) for the rounding of its
# terms, all positive: each is formed from a stable forward recurrence and a
# kappa entry known to 1e-15, far below this pad up to the 2^900 horizon
_MAJORANT_PAD = 1e-6
# certified_sign divides atol by _SIGN_ATOL_STEP per round, down to _SIGN_ATOL_MIN
_SIGN_ATOL_MIN = 1e-280
_SIGN_ATOL_STEP = 100.0
# bytes of a _grid block, points x largest term count float64 (its buffer
# holds the sum of its counts, no more): 800 points of 262 terms are one block
_GRID_BLOCK_BYTES = 1 << 22


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
    """Term plan of one z (CharFnEvaluator._search)."""

    n_terms: int
    log_bound: float
    certified: bool

    @property
    def tail_bound(self) -> float:
        return math.exp(self.log_bound) if self.log_bound < 709 else math.inf


class CharFnEvaluator:
    """Shared-state evaluator: one kappa table serves many z evaluations.

    The table, with its capacity and ladder, is a second_kind.KappaTable,
    whose entries never change once published, so eval(z) depends neither
    on earlier evaluations nor on thread timing.  The evaluator keeps what
    depends on R or on atol; its plans walk the table's ladder from the
    first rung (KappaTable.first).
    """

    def __init__(self, src: CoefficientSource, max_terms: int = 20000):
        require_infinite(src, "characteristic function evaluation")
        self.src = src
        self.max_terms = max_terms
        self._table = KappaTable(src, max_terms)
        # (_majorant(R), the count an uncertified plan at R reads) by R
        self._majorants: dict[float, tuple[float, int]] = {}

    def _majorant(self, radius: float) -> float:
        """U(R) >= F(-R), hence >= |g_n(z)| for every n and |z| <= R.

        U(R) = F_M(-R) (1 + pad) / (1 - R T_M), with M the first count of
        the ladder whose tail has R T_M <= 1/2 and F_M(-R) formed as eval
        forms its partial sums; inf when no count within the capacity
        qualifies (past the float range, R = inf, none does), or where
        F_M(-R) leaves the float range: its terms are all positive, so that
        settles U(R) for every larger M too.  Memoized per radius with the
        count an uncertified plan at R reads, M or else the whole table
        (KappaTable.first), so it depends on src, max_terms and R only.
        """
        if radius in self._majorants:
            return self._majorants[radius][0]
        table = self._table
        i, stop = table.first(lambda rung: radius * rung[1] <= 0.5)
        u = math.inf
        if stop is None:
            stop, t, _ = table.rungs[i]
            f_m = 1.0 + radius * _fsum_inf(self._terms(-radius, stop))
            u = f_m * (1.0 + _MAJORANT_PAD) / (1.0 - radius * t)
        self._majorants[radius] = u, stop
        return u

    def plan_terms(self, z_abs: float, atol: float):
        """Smallest ladder count N whose bound |z| T_N U(R) meets atol, R the
        power of two above |z| (_majorant).

        Returns (n_terms, log_bound); n_terms is None when U(R) is infinite
        or no count within the term budget and the coefficient horizon
        reaches atol, in which case log_bound reports the best achievable
        bound (inf when there is no U(R)).  n_terms is None only once the
        ladder has reached the table's capacity, or where F_M(-R) overflows
        (_search).
        """
        plan = self._search(z_abs, atol)
        return (plan.n_terms if plan.certified else None), plan.log_bound

    def _search(self, z_abs: float, atol: float) -> _Plan:
        """plan_terms as a _Plan, where an uncertified plan's count is the
        whole table, then at its capacity, or the count M at which
        _majorant's F_M(-R) overflowed (KappaTable.first).  Where the walk
        stops depends on z_abs and atol only, not on the rungs walked
        before."""
        if not 0.0 < atol < math.inf:
            raise ValueError(f"atol must be finite and positive, got {atol!r}")
        if not 0.0 <= z_abs < math.inf:
            raise ValueError(f"z must be finite, got |z| = {z_abs!r}")
        log_scale = -math.inf
        if z_abs > 0:
            radius = _radius(z_abs)
            u = self._majorant(radius)
            if u == math.inf:
                return _Plan(self._majorants[radius][1], math.inf, False)
            log_scale = math.log(z_abs) + math.log(u)
        log_target = math.log(atol)
        table = self._table
        i, stop = table.first(lambda rung: log_scale + rung[2] <= log_target)
        walked = table.rungs[:i + 1]
        if stop is None:
            return _Plan(walked[i][0], log_scale + walked[i][2], True)
        best = min((log_scale + rung[2] for rung in walked), default=math.inf)
        return _Plan(stop, best, False)

    # -- evaluation ---------------------------------------------------------

    def eval(self, z, atol: float = 1e-12) -> CharFnValue:
        """Certified partial-sum evaluation of F(z)."""
        if z == 0:
            return _at_origin(z, "partial_sum", True)
        plan = self._search(abs(z), atol)
        terms = self._terms(z, plan.n_terms)
        max_term = max((abs(t) for t in terms), default=0.0)
        if isinstance(z, complex):
            total = complex(_fsum_inf([t.real for t in terms]),
                            _fsum_inf([t.imag for t in terms]))
        else:
            total = _fsum_inf(terms)
        value = 1.0 - z * total
        noise = _NOISE_EPS * math.sqrt(max(plan.n_terms, 1)) * (
            1.0 + abs(z) * max_term + abs(value))
        return CharFnValue(z=z, value=value, tail_bound=plan.tail_bound,
                           method="partial_sum", terms_used=plan.n_terms,
                           certified=plan.certified, noise_estimate=noise)

    def _terms(self, z, n_terms: int) -> list:
        """The first n_terms terms w_n(0) P_n(z) of F's sum, each formed by
        one multiply and one ldexp (a signed inf beyond the float range)."""
        mant, exps = self._table.w0_mant, self._table.w0_exp
        scale = _ldexp_complex if isinstance(z, complex) else _ldexp_inf
        terms = []
        for n, u, v, ls in _scaled_iter(_coeff_reader(self.src), z):
            if n >= n_terms:
                break
            # ls sums whole rescale exponents times ln 2, each rounded once;
            # their error is far below ln 2 / 2, so rounding recovers the sum
            terms.append(scale(mant[n] * u, exps[n] + round(ls / _LN2)))
        return terms

    def _grid(self, zs: list[float], atol: float, n_max: int):
        """The columns of the charfn report over the real points zs:
        (values, plans, ratios), where values[j] and plans[j] are the value
        and term plan of eval(zs[j], atol) and ratios[j] the value of
        charfn_ratio(src, zs[j], n_max), each bit for bit.

        Every point reads the one append-only kappa table, so each result
        equals eval's at that point whatever was evaluated before.  The
        points are stepped sorted by descending term count, in blocks whose
        terms stay within _GRID_BLOCK_BYTES, one column-wise recurrence per
        block (_sweep).
        """
        plans = [self._search(abs(z), atol) if z != 0
                 else _Plan(0, -math.inf, True) for z in zs]
        live = sorted((j for j, z in enumerate(zs) if z != 0),
                      key=lambda j: -plans[j].n_terms)
        values, ratios = [1.0] * len(zs), [1.0] * len(zs)
        top = plans[live[0]].n_terms if live else 0
        width = max(1, _GRID_BLOCK_BYTES // (8 * max(top, 1)))
        read, table = _coeff_reader(self.src), self._table
        for start in range(0, len(live), width):
            block = live[start:start + width]
            sums, block_ratios = _sweep(read, [zs[j] for j in block],
                                        [plans[j].n_terms for j in block],
                                        table.w0_mant, table.w0_exp, n_max)
            for j, total, ratio in zip(block, sums, block_ratios):
                values[j], ratios[j] = 1.0 - zs[j] * total, ratio
        return values, plans, ratios

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


def _radius(z_abs: float) -> float:
    """R, the power of two above |z|, whose majorant U(R) bounds F(-|z|)."""
    return _ldexp_inf(1.0, math.frexp(z_abs)[1])


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
    of both signs are beyond it (fsum's "-inf + inf"), which the scaled sum
    can meet after an intermediate overflow of the first."""
    try:
        try:
            return math.fsum(xs)
        except OverflowError:
            return _ldexp_inf(math.fsum([math.ldexp(x, -64) for x in xs]), 64)
    except ValueError:
        return math.nan


def _sweep(read, zs: list[float], counts: list[int], mant: list[float],
           exps: list[int], n_max: int):
    """(sums, ratios) of one block of points whose counts descend, so the
    points still summing at index n are a prefix of the block.

    sums[c] is the sum of the counts[c] terms w_n(0) P_n(z) = ldexp(mant[n]
    u, exps[n] + round(ls / ln 2)), formed as eval forms them, and ratios[c]
    is P_n(z)/P_n(0) at n_max, formed as charfn_ratio forms it.  The block's
    points and one z = 0 column after them are stepped once, to the larger
    of counts[0] and n_max; the terms fill one buffer of sum(counts) floats,
    freed on return.  Raises at the first P_n(0) = 0 up to n_max, as
    charfn_ratio does.
    """
    n_top = counts[0]
    # point c's terms fill terms[start[c]:start[c + 1]], index by index
    start = np.concatenate(([0], np.cumsum(counts)))
    terms = np.zeros(start[-1])
    k = len(zs)
    ls_seen, ls_exp = None, None
    # an overflowing term is a signed inf; past about 1e307 the column
    # recurrence meets inf - inf, and those points are nan, as eval's are
    with np.errstate(over="ignore", invalid="ignore"):
        for n, u, ls in _scaled_columns(read, np.array(zs + [0.0])):
            if n <= n_max:
                if u[-1] == 0:
                    raise _zero_at_origin(n)
                if n == n_max:
                    row_u, row_ls = u.tolist(), ls.tolist()
            if n >= n_top:
                if n < n_max:
                    continue  # the ratio steps on without terms
                break
            while counts[k - 1] <= n:
                k -= 1
            if ls is not ls_seen:  # _scaled_columns replaces ls on a rescale
                ls_seen, ls_exp = ls, np.rint(ls / _LN2).astype(np.int64)
            terms[start[:k] + n] = np.ldexp(mant[n] * u[:k], exps[n] + ls_exp[:k])
    bounds = start.tolist()
    sums = [_fsum_inf(terms[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
    return sums, [_ratio_iterate(uz, lz, row_u[-1], row_ls[-1], 0.0)
                  for uz, lz in zip(row_u[:-1], row_ls)]


def charfn_ratio(src: CoefficientSource, z, n_max: int = 200):
    """F(z) as the ratio limit P_n(z)/P_n(0) at n = n_max.

    The recorded tail_bound is the difference of the last two iterates, an
    empirical convergence indicator only; the result is never marked
    certified.  Signals a violated positivity assumption if P_n(0) = 0, and
    raises ValueError for a negative n_max, which no step would meet.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max!r}")
    if z == 0:
        return _at_origin(z, "ratio_limit", False)
    require_infinite(src, "ratio-limit evaluation")
    read = _coeff_reader(src)
    it_z = _scaled_iter(read, z)
    it_0 = _scaled_iter(read, 0.0)
    zero = 0.0 + 0.0j if isinstance(z, complex) else 0.0
    prev = None
    cur = None
    for (n, uz, vz, lz), (_, u0, v0, l0) in zip(it_z, it_0):
        if u0 == 0:
            raise _zero_at_origin(n)
        prev = cur
        cur = _ratio_iterate(uz, lz, u0, l0, zero)
        if n == n_max:
            break
    return _ratio_value(z, cur, prev, n_max)


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
