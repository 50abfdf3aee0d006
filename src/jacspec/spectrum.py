"""Spectrum location: certified zeros of the characteristic function,
cross-checked against truncated-matrix eigenvalues.

The truncation oracle uses Sturm sign-count bisection on the leading N x N
block; its eigenvalues are the roots of P_N and decrease monotonically to the
operator eigenvalues as N grows.  find_spectrum brackets each eigenvalue with
a two-size truncation ladder, confirms a certified sign change of the
characteristic function inside the bracket, and bisects.  Where the certified
evaluation is infeasible within the term budget (the exp(|z| S) factor in the
tail certificate grows with the eigenvalue), the oracle value is reported with
explicit provenance instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .charfn import CharFnEvaluator
from .errors import AssumptionViolation
from .qseries import QParams, require_certified_regime
from .sources import ASC2Source, CoefficientSource, require_infinite

_LADDER_STABILIZE = 0.01  # rung-to-rung stabilization as a fraction of tol
_LADDER_ULPS = 8.0  # ... but never below this many ulp of the eigenvalue
_OFFDIAG_LIMIT = math.sqrt(np.finfo(float).max)
_MAX_WIDEN = 6
_SWEEP_POINTS = 256  # midpoints per Sturm sweep; a pass costs ~1 shift's time


@dataclass(frozen=True)
class TruncatedTridiagonal:
    """Leading N x N block of the shifted Jacobi matrix (finite section)."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if len(self.offdiag) != len(self.diag) - 1:
            raise ValueError("offdiag must be one entry shorter than diag")

    @property
    def size(self) -> int:
        return len(self.diag)

    @classmethod
    def from_source(cls, src: CoefficientSource, n: int) -> "TruncatedTridiagonal":
        if n < 1:
            raise ValueError("truncation size must be positive")
        diag = np.array([src.beta(i) - src.shift for i in range(n)], dtype=float)
        off = np.array([src.alpha(i) for i in range(n - 1)], dtype=float)
        # the Sturm pivots use offdiag**2, so that must stay finite as well
        if not (np.all(np.isfinite(diag))
                and np.all(np.abs(off) < _OFFDIAG_LIMIT)):
            raise ValueError(
                f"entries of the {n} x {n} truncation leave the float range"
            )
        return cls(diag=diag, offdiag=off)


def _pivmin(off2: np.ndarray) -> float:
    """Smallest pivot magnitude the Sturm count keeps, given offdiag**2."""
    big = float(off2.max()) if off2.size else 1.0
    return max(1.0, big) * 5e-308


def sturm_counts(t: TruncatedTridiagonal, xs) -> np.ndarray:
    """Number of eigenvalues of the block below each shift in xs.

    Counts negative pivots of the LDL^T factorization of T - x I; zero pivots
    are replaced by -pivmin (LAPACK convention), which both breaks ties
    deterministically and keeps the next division finite.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    diag = t.diag
    off2 = t.offdiag ** 2
    pivmin = _pivmin(off2)
    d = diag[0] - xs
    d = np.where(np.abs(d) < pivmin, -pivmin, d)
    count = (d < 0).astype(np.int64)
    for i in range(1, t.size):
        d = (diag[i] - xs) - off2[i - 1] / d
        d = np.where(np.abs(d) < pivmin, -pivmin, d)
        count += d < 0
    return count


def sturm_eigenvalues(t: TruncatedTridiagonal, k: int, tol: float = 1e-10,
                      max_iter: int = 3000) -> np.ndarray:
    """The k smallest eigenvalues of the block, each within tol (or a few ulp).

    Bisection on the Sturm count, all k brackets in lockstep.  A sweep costs
    one vectorized pivot pass whatever the number of shifts (up to a few
    hundred), so each sweep counts the whole depth-D tree of midpoints below
    every live bracket and then replays the D bisection steps from those
    counts.  The tree holds exactly the floats one-step bisection would
    visit, so the roots equal its roots bit for bit; max_iter still counts
    bisection steps, not sweeps.

    Raises ValueError when the pivot floor exceeds tol: the clamped pivots
    would then move the roots by more than the tolerance.
    """
    if k < 0 or k > t.size:
        raise ValueError(f"need 0 <= k <= N, got k={k}, N={t.size}")
    if k == 0:
        return np.empty(0)
    pivmin = _pivmin(t.offdiag ** 2)
    if pivmin > tol:
        raise ValueError(
            f"pivot floor {pivmin:.3g} of the {t.size} x {t.size} truncation "
            f"exceeds the bisection tolerance {tol:.3g}"
        )
    radius = np.zeros(t.size)
    if t.size > 1:
        a = np.abs(t.offdiag)
        radius[:-1] += a
        radius[1:] += a
    lo = np.full(k, float(np.min(t.diag - radius)))
    hi = np.full(k, float(np.max(t.diag + radius)))
    targets = np.arange(1, k + 1)
    live = np.arange(k)
    steps = 0
    while live.size and steps < max_iter:
        m = live.size
        depth = min(max(1, (_SWEEP_POINTS // m + 1).bit_length() - 1),
                    max_iter - steps)
        # level j of the tree: the 2**j midpoints of each bracket, in order
        levels = []
        a, b = lo[live, None], hi[live, None]
        for _ in range(depth):
            mid = 0.5 * (a + b)
            levels.append(mid)
            a = np.stack([a, mid], axis=2).reshape(m, -1)
            b = np.stack([mid, b], axis=2).reshape(m, -1)
        counts = sturm_counts(t, np.concatenate(levels, axis=1).ravel())
        counts = counts.reshape(m, -1)
        rows = np.arange(m)
        node = np.zeros(m, dtype=np.intp)
        going = np.ones(m, dtype=bool)
        # replay one-step bisection down the tree; node indexes level j
        x_lo, x_hi, target = lo[live], hi[live], targets[live]
        for j, level in enumerate(levels):
            mid = level[rows, node]
            floor = np.maximum(
                tol, 4.0 * np.spacing(np.maximum(np.abs(x_lo), np.abs(x_hi))))
            going &= (x_hi - x_lo > floor) & (mid > x_lo) & (mid < x_hi)
            ge = counts[rows, 2 ** j - 1 + node] >= target
            x_hi = np.where(going & ge, mid, x_hi)
            x_lo = np.where(going & ~ge, mid, x_lo)
            node = 2 * node + ~ge
        lo[live], hi[live] = x_lo, x_hi
        live = live[going]
        steps += depth
    return 0.5 * (lo + hi)


@dataclass
class SpectrumResult:
    """Located eigenvalues with residuals, brackets and method provenance.

    methods[j] is "charfn-bisection" for eigenvalues confirmed by a certified
    sign change of the characteristic function, "oracle-ladder" where the
    certificate was out of budget and the stabilized truncation value stands,
    and "unresolved" for indices that also appear in ``unresolved``.
    residuals/tail_bounds are NaN whenever no F evaluation backs the entry.
    """

    k: int
    eigenvalues: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    tail_bounds: list[float] = field(default_factory=list)
    brackets: list[tuple[float, float]] = field(default_factory=list)
    oracle_values: list[float] = field(default_factory=list)
    oracle_gaps: list[float] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    unresolved: list[int] = field(default_factory=list)
    ladder: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.unresolved


def check_spectral_config(src: CoefficientSource) -> None:
    """Gate a source for the certified spectral pipeline.

    Finite tables are rejected outright; ASC-II parameters must sit in the
    determinate regime 0 < a <= q with the shift below the spectral floor.
    A small-truncation pivot sample provides the incidental positive
    definiteness detection the configuration assertions rely on.
    """
    require_infinite(src, "spectrum location")
    if isinstance(src, ASC2Source):
        require_certified_regime(QParams(src.q, src.a))
        if src.shift >= 1.0:
            raise AssumptionViolation(
                f"shift {src.shift} is not below the ASC-II spectral floor 1"
            )
    t = TruncatedTridiagonal.from_source(src, 24)
    if int(sturm_counts(t, [0.0])[0]) > 0:
        raise AssumptionViolation(
            "truncated block has eigenvalues below zero; source is not a "
            "positive-definite configuration"
        )


def _ladder(src, k, tol, ladder_cap):
    """Double the truncation size until the k smallest roots stabilize.

    Two rungs agree when each root moved by at most 0.01 tol or 8 ulp of
    itself, whichever is larger; an absolute test alone is below one ulp
    once the roots are large and could never be met.

    Returns (sizes, x_coarse, x_fine) for the last two rungs; x_coarse comes
    from the smaller truncation, so componentwise x_coarse >= x_fine >= lambda.
    """
    otol = max(tol * 1e-3, 1e-15)
    n = max(4 * k, 8)
    sizes = [n]
    x_prev = sturm_eigenvalues(TruncatedTridiagonal.from_source(src, n), k, otol)
    while True:
        n2 = 2 * n
        x_next = sturm_eigenvalues(TruncatedTridiagonal.from_source(src, n2), k, otol)
        sizes.append(n2)
        floor = np.maximum(_LADDER_STABILIZE * tol,
                           _LADDER_ULPS * np.spacing(np.abs(x_next)))
        if np.all(np.abs(x_prev - x_next) <= floor):
            return sizes, x_prev, x_next
        if n2 >= ladder_cap:
            return sizes, x_prev, x_next
        n = n2
        x_prev = x_next


def _slope_estimate(j, oracle, tail_ratio):
    """Heuristic |F'(lambda_j)| from the oracle eigenvalue list."""
    lam = oracle[j]
    acc = -math.log(lam)
    for i, x in enumerate(oracle):
        if i == j:
            continue
        f = abs(1.0 - lam / x)
        if f > 0:
            acc += math.log(f)
    if tail_ratio is not None and tail_ratio < 1.0:
        tail_inv = (1.0 / oracle[-1]) * tail_ratio / (1.0 - tail_ratio)
        acc += -lam * tail_inv
    return math.exp(min(acc, 700.0))


def find_spectrum(src: CoefficientSource, k: int, tol: float = 1e-9, *,
                  gamma: float | None = None, max_terms: int = 20000,
                  ladder_cap: int = 8192, confirm: str = "auto") -> SpectrumResult:
    """Locate the k smallest eigenvalues as certified zeros of F.

    confirm:
      "auto"    certify by F sign change wherever the tail certificate fits
                the term budget, otherwise report the oracle value with
                "oracle-ladder" provenance;
      "require" treat an out-of-budget certificate as an unresolved index;
      "oracle"  skip F entirely (truncation ladder only).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if confirm not in ("auto", "require", "oracle"):
        raise ValueError(f"unknown confirm policy {confirm!r}")
    res = SpectrumResult(k=k)
    if k == 0:
        return res
    check_spectral_config(src)
    if gamma is None and isinstance(src, ASC2Source):
        gamma = src.natural_gamma

    sizes, x_coarse, x_fine = _ladder(src, k, tol, ladder_cap)
    res.ladder = sizes
    otol = max(tol * 1e-3, 1e-15)
    if k > 1:
        # near-degenerate oracle pairs: tighten the oracle tolerance so the
        # separation midpoints used as bracket clamps can be trusted
        min_gap = float(np.min(np.diff(x_fine)))
        if min_gap < 10.0 * tol and min_gap > 0.0:
            otol_ref = max(min_gap * 1e-3, 1e-15)
            if otol_ref < otol:
                otol = otol_ref
                t_coarse = TruncatedTridiagonal.from_source(src, sizes[-2])
                t_fine = TruncatedTridiagonal.from_source(src, sizes[-1])
                x_coarse = sturm_eigenvalues(t_coarse, k, otol)
                x_fine = sturm_eigenvalues(t_fine, k, otol)
    res.oracle_values = [float(x) for x in x_fine]
    inv_ratios = [x_fine[i] / x_fine[i + 1] for i in range(k - 1)]
    tail_ratio = max(inv_ratios[-4:]) if inv_ratios else None

    evaluator = CharFnEvaluator(src, max_terms) if confirm != "oracle" else None

    for j in range(k):
        lam_oracle = float(x_fine[j])
        gap = max(float(x_coarse[j] - x_fine[j]), 0.0)
        ulp = 4.0 * math.ulp(abs(lam_oracle) + 1.0)
        pad_lo = max(3.0 * gap, tol, 8.0 * otol, ulp)
        pad_hi = max(tol, 8.0 * otol, ulp)
        lo = lam_oracle - pad_lo
        hi = float(x_coarse[j]) + pad_hi
        lo_clamp = 0.5 * (float(x_fine[j - 1]) + lam_oracle) if j >= 1 else (
            0.5 * gamma if gamma is not None and gamma > 0 else lo - 64 * pad_lo
        )
        hi_clamp = 0.5 * (lam_oracle + float(x_fine[j + 1])) if j + 1 < k else math.inf
        lo = max(lo, lo_clamp)
        hi = min(hi, hi_clamp)

        if confirm == "oracle":
            _push_oracle(res, j, lam_oracle, (lo, hi))
            continue

        slope = _slope_estimate(j, res.oracle_values, tail_ratio)
        target_atol = max(0.02 * slope * tol, 1e-280)
        feasible = evaluator.plan_terms(abs(hi), target_atol)[0] is not None
        if not feasible:
            if confirm == "require":
                res.unresolved.append(j + 1)
                _push_oracle(res, j, lam_oracle, (lo, hi), method="unresolved")
            else:
                _push_oracle(res, j, lam_oracle, (lo, hi))
            continue

        located = _bisect_zero(evaluator, lo, hi, lo_clamp, hi_clamp,
                               tol, target_atol)
        if located is None:
            res.unresolved.append(j + 1)
            _push_oracle(res, j, lam_oracle, (lo, hi), method="unresolved")
            continue
        lam, bracket = located
        final = evaluator.eval(lam, target_atol)
        res.eigenvalues.append(lam)
        res.residuals.append(abs(final.value))
        res.tail_bounds.append(final.tail_bound)
        res.brackets.append(bracket)
        res.oracle_gaps.append(abs(lam - lam_oracle))
        res.methods.append("charfn-bisection")
    return res


def _push_oracle(res, j, lam, bracket, method="oracle-ladder"):
    res.eigenvalues.append(lam)
    res.residuals.append(math.nan)
    res.tail_bounds.append(math.nan)
    res.brackets.append(bracket)
    res.oracle_gaps.append(0.0)
    res.methods.append(method)


def _sign_at(evaluator, x, atol):
    s, val = evaluator.certified_sign(x, atol)
    return s


def _bisect_zero(evaluator, lo, hi, lo_clamp, hi_clamp, tol, atol):
    """Certified-sign bisection; returns (lambda, (lo, hi)) or None."""
    s_lo = _sign_at(evaluator, lo, atol)
    s_hi = _sign_at(evaluator, hi, atol)
    widen = 0
    base = hi - lo
    while (s_lo == 0 or s_hi == 0 or s_lo == s_hi) and widen < _MAX_WIDEN:
        widen += 1
        lo = max(lo - base * 2.0 ** widen, lo_clamp)
        hi = min(hi + base * 2.0 ** widen, hi_clamp)
        s_lo = _sign_at(evaluator, lo, atol)
        s_hi = _sign_at(evaluator, hi, atol)
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        return None
    bracket = (lo, hi)
    while True:
        width = hi - lo
        if width <= max(tol, 8.0 * math.ulp(max(abs(lo), abs(hi)))):
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        s_mid = _sign_at(evaluator, mid, atol)
        if s_mid == 0:
            # probe sits too close to the zero to certify; nudge sideways
            for frac in (0.125, -0.125, 0.25, -0.25):
                probe = mid + frac * width
                if lo < probe < hi:
                    s_probe = _sign_at(evaluator, probe, atol)
                    if s_probe != 0:
                        mid, s_mid = probe, s_probe
                        break
        if s_mid == 0:
            if width <= 8.0 * tol:
                break
            return None
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), bracket


def oracle_compare(src: CoefficientSource, k: int, n_trunc: int,
                   tol: float = 1e-9, confirm: str = "auto") -> np.ndarray:
    """|lambda_j(found) - x_{N,j}| for j <= k at truncation size n_trunc."""
    res = find_spectrum(src, k, tol, confirm=confirm)
    t = TruncatedTridiagonal.from_source(src, n_trunc)
    x = sturm_eigenvalues(t, k, max(tol * 1e-3, 1e-15))
    return np.abs(np.array(res.eigenvalues) - x)
