"""Spectrum location: certified zeros of the characteristic function,
cross-checked against truncated-matrix eigenvalues.

The truncation oracle uses Sturm sign-count bisection on the leading N x N
block; its eigenvalues are the roots of P_N and decrease monotonically to the
operator eigenvalues as N grows.  find_spectrum brackets each eigenvalue with
a two-size truncation ladder, confirms a certified sign change of the
characteristic function inside the bracket, and bisects.  Where F cannot
certify a sign, out of the term budget (the tail bound |z| T_N F(-|z|) grows
with the eigenvalue, see charfn) or at the float64 summation noise floor, the
oracle value is reported with explicit provenance instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .charfn import _NOISE_EPS, CharFnEvaluator
from .errors import AssumptionViolation, ConvergenceError
from .qseries import QParams, require_certified_regime
from .sources import ASC2Source, CoefficientSource, require_infinite

_LADDER_STABILIZE = 0.01  # rung-to-rung stabilization as a fraction of tol
_LADDER_ULPS = 8.0  # ... but never below this many ulp of the eigenvalue
_OFFDIAG_LIMIT = math.sqrt(np.finfo(float).max)
_MAX_WIDEN = 6
_SWEEP_POINTS = 512  # shifts per tree or gallop sweep, costing ~1.5x one shift
_LADDER_CAP = 8192  # the ladder stops doubling at this truncation size
_TAIL_CHECK = 16  # rows between the early-exit checks of a Sturm sweep
_PIVMIN_SCALE = 5e-308  # pivot floor per unit of the largest offdiag**2
_OTOL_FLOOR = 1e-15  # the finest oracle tolerance find_spectrum bisects to
CONFIRM_POLICIES = ("auto", "require", "oracle")  # see find_spectrum


@dataclass(frozen=True)
class TruncatedTridiagonal:
    """Leading N x N block of the shifted Jacobi matrix (finite section);
    N = 0 is the empty block."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if len(self.offdiag) != max(len(self.diag) - 1, 0):
            raise ValueError("offdiag must be one entry shorter than diag")

    @property
    def size(self) -> int:
        return len(self.diag)

    @classmethod
    def from_source(cls, src: CoefficientSource, n: int) -> "TruncatedTridiagonal":
        if n < 1:
            raise ValueError("truncation size must be positive")
        # with no pivot-floor limit, _rung cuts where the float range ends
        t = _rung(src, n, math.inf)
        if t.size < n:
            raise ValueError(
                f"entries of the {n} x {n} truncation leave the float range"
            )
        return t


def _pivmin(off2: np.ndarray) -> float:
    """Smallest pivot magnitude the Sturm count keeps, given offdiag**2."""
    big = float(off2.max()) if off2.size else 1.0
    return max(1.0, big) * _PIVMIN_SCALE


def sturm_counts(t: TruncatedTridiagonal, xs, *, limit=None) -> np.ndarray:
    """Number of eigenvalues of the block below each shift in xs.

    Counts negative pivots of the LDL^T factorization of T - x I; pivots of
    magnitude below pivmin are replaced by -pivmin (LAPACK convention), which
    both breaks ties deterministically and keeps the next division finite.

    The rows are stepped in blocks of 16, for all shifts at once: one outer
    subtraction forms diag_j - x for the block, then each row takes one
    in-place division and one in-place subtraction, with no clamp.  One test
    after the block looks for a pivot below pivmin (or a non-finite one, which
    only a sub-floor pivot or an overflow makes); if there is any, the block
    is redone row by row with the clamp from the same entry pivots.  When no
    pivot of the block is below the floor the clamp changes nothing, so both
    routes run the same IEEE operations in the same order: the counts equal
    those of the clamped row-by-row loop bit for bit.  The unclamped pass runs
    under np.errstate, since a sub-floor pivot may divide by zero there; the
    clamped redo does not, so it warns exactly where the row loop would.

    The sweep stops once every count is decided, with two exits, checked
    between blocks, every 16 rows:

    - Saturation.  With ``limit`` set, a shift whose running count has
      reached ``limit`` is decided: its returned count is some value
      >= limit, not necessarily the exact one.  A caller that only asks
      ``count >= target`` with ``target <= limit`` gets the same answers.
      With ``limit=None`` every count is exact.
    - Settled tail.  Let c be the least pivot and X the largest shift among
      the open (undecided) shifts.  If c >= pivmin and the scalar recurrence
      L_j = (diag_j - X) - off2_{j-1} / L_{j-1}, started from L = c, stays
      >= pivmin over every remaining row, the open counts cannot change.
      IEEE subtraction and division are correctly rounded, hence monotone:
      each open shift's computed pivot satisfies d_j(x) >= L_j >= pivmin by
      induction, so it is never clamped and never negative.  A failed
      attempt is not retried before the row where it failed, which keeps
      the scalar work linear per sweep.  On an unbounded diagonal (a trace
      class inverse) the tail settles early and most rows are skipped.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    diag = t.diag
    off2 = t.offdiag ** 2
    pivmin = _pivmin(off2)
    n = t.size
    diag_list, off2_list = diag.tolist(), off2.tolist()
    count = np.zeros(xs.shape, dtype=np.int64)
    if not xs.size:
        return count
    tmp = np.empty_like(xs)
    d = None  # pivots of the last row stepped
    retry = 0  # no settled-tail attempt before this row
    for i in range(0, n, _TAIL_CHECK):
        if i:
            d_open, x_open = d, xs
            if limit is not None:
                is_open = count < limit
                d_open, x_open = d[is_open], xs[is_open]
            if not d_open.size:
                return count
            lj = float(d_open.min())
            if i >= retry and lj >= pivmin:
                x_max = float(x_open.max())
                j = i
                while j < n:
                    lj = (diag_list[j] - x_max) - off2_list[j - 1] / lj
                    if not lj >= pivmin:
                        break
                    j += 1
                if j == n:
                    return count
                retry = j
        i1 = min(i + _TAIL_CHECK, n)
        block = np.subtract.outer(diag[i:i1], xs)
        prev = d
        # a pivot below the floor may divide by zero or overflow here; the
        # block is then redone with the clamp, outside this errstate
        with np.errstate(all="ignore"):
            for j, row in zip(range(i, i1), block):
                if j:
                    np.divide(off2_list[j - 1], prev, out=tmp)
                    np.subtract(row, tmp, out=row)
                prev = row
        a = np.abs(block)
        if a.min() < pivmin or not a.max() < math.inf:
            prev = d
            for j, row in zip(range(i, i1), block):
                p = diag[j] - xs
                if j:
                    p = p - off2[j - 1] / prev
                row[:] = np.where(np.abs(p) < pivmin, -pivmin, p)
                prev = row
        count += (block < 0).sum(axis=0)
        d = block[-1]
    return count


def sturm_eigenvalues(t: TruncatedTridiagonal, k: int, tol: float = 1e-10,
                      *, hint=None) -> np.ndarray:
    """The k smallest eigenvalues of the block, each within tol (or a few ulp).

    One-step bisection on the Sturm count from the Gershgorin interval, each
    bracket on its own, that sweeps only for counts it does not yet know.
    The computed count is monotone in the shift under IEEE arithmetic
    (Kahan 1966; Demmel, Dhillon and Ren 1995, the basis of LAPACK dstebz),
    so every swept shift s with count c decides the step of every bracket
    whose midpoint lies beyond it: a midpoint >= s has count >= c, one <= s
    has count <= c.  Two arrays hold what the sweeps so far decide, for
    every target j at once: up[j] is the least swept shift with count >= j,
    down[j] the largest with count < j.  Each bracket replays bisection
    steps while its midpoint is >= up[j] (hi = mid) or <= down[j]
    (lo = mid).  When some bracket needs an unknown count, one sweep counts
    the depth-D tree of midpoints below each distinct live bracket, at most
    _SWEEP_POINTS = 512 shifts in all, so a cold start, where all k brackets
    are the Gershgorin interval, goes 9 levels deep.  The steps are those of
    one-step bisection with the same stopping tests, so the roots equal its
    roots bit for bit.  The stop width max(tol, 4 ulp(max(|lo|, |hi|))) never
    grows as a bracket shrinks, so the replay computes it only when the
    width falls to the last value computed, not at every step.  tol is at
    least the pivot floor of 5e-308, so each bracket stops after fewer than
    2,100 halvings of its finite Gershgorin interval.  The steps only ask
    count >= target, so each sweep saturates at the largest live target (see
    sturm_counts).

    hint: approximate roots, e.g. those of a smaller truncation, which
    interlace as x_{N,j} >= x_{2N,j}.  One extra sweep first counts the
    shifts max(tol, 4 ulp) above and below each finite hint.  A root more
    than that pad from every hint is left with a wide known bracket; one
    more sweep gallops toward it in geometric steps from the bracket's known
    end (see _gallop_shifts), so the tree sweeps start near the root.  Any
    hint, however wrong (far off, in any order, of any length), leaves the
    roots unchanged: it only adds known counts, and costs at most these two
    sweeps.

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
    lo = [float(np.min(t.diag - radius))] * k
    hi = [float(np.max(t.diag + radius))] * k
    up = np.full(k, np.inf)  # up[j-1]: least swept shift with count >= j
    down = np.full(k, -np.inf)  # down[j-1]: largest swept shift with count < j

    def sweep(xs, limit):
        counts = np.minimum(sturm_counts(t, xs, limit=limit), k)
        least = np.full(k + 1, np.inf)
        np.minimum.at(least, counts, xs)
        np.minimum(up, np.minimum.accumulate(least[::-1])[::-1][1:], out=up)
        exact = counts < limit  # a saturated count is only a lower bound
        most = np.full(k + 1, -np.inf)
        np.maximum.at(most, counts[exact], xs[exact])
        np.maximum(down, np.maximum.accumulate(most)[:-1], out=down)

    if hint is not None:
        h = np.asarray(hint, dtype=float).ravel()
        h = h[np.isfinite(h)]
        if h.size:
            pad = np.maximum(tol, 4.0 * np.spacing(np.abs(h)))
            sweep(np.concatenate([h - pad, h + pad]), k)
            gallop = _gallop_shifts(up, down, lo[0], hi[0], tol)
            if gallop.size:
                sweep(gallop, k)
    live = range(k)
    limits = [math.inf] * k  # each bracket's last computed stop width
    while True:
        # replay every step the known counts decide; collect the brackets
        # that wait for an unknown count
        ups, downs = up.tolist(), down.tolist()
        waiting = []
        for j in live:
            x_lo, x_hi, limit = lo[j], hi[j], limits[j]
            while True:
                # stop at width <= max(tol, 4 ulp(max(|lo|, |hi|))) or once
                # the midpoint is no longer strictly inside; a width above
                # the last computed stop width is above the current one
                mid = 0.5 * (x_lo + x_hi)
                width = x_hi - x_lo
                if not (width > limit and x_lo < mid < x_hi):
                    limit = max(tol, 4.0 * math.ulp(
                        x_hi if x_hi >= -x_lo else x_lo))
                    if not (width > limit and x_lo < mid < x_hi):
                        break
                if mid >= ups[j]:
                    x_hi = mid
                elif mid <= downs[j]:
                    x_lo = mid
                else:
                    waiting.append(j)
                    break
            lo[j], hi[j], limits[j] = x_lo, x_hi, limit
        if not waiting:
            return 0.5 * (np.array(lo) + np.array(hi))
        live = waiting
        pairs = sorted({(lo[j], hi[j]) for j in live})
        m = len(pairs)
        depth = max(1, (_SWEEP_POINTS // m + 1).bit_length() - 1)
        # halve every subinterval of each bracket depth times; the inner
        # edges are then the 2**depth - 1 midpoints of its tree
        edges = np.array(pairs)
        for _ in range(depth):
            finer = np.empty((m, 2 * edges.shape[1] - 1))
            finer[:, ::2] = edges
            finer[:, 1::2] = 0.5 * (edges[:, :-1] + edges[:, 1:])
            edges = finer
        sweep(edges[:, 1:-1].ravel(), live[-1] + 1)


def _gallop_shifts(up, down, g_lo, g_hi, tol):
    """Shifts that gallop toward each root whose known bracket is still wide.

    A target's gallop starts at its known end s, up[j] if finite, else
    down[j], and runs to its other end, or to the Gershgorin end g_lo or g_hi
    when that is unknown.  If that span is more than 4 pads, pad = max(tol,
    4 ulp(s)), the target gets the shifts s -+ pad * r**i strictly inside
    it, falling from up[j] or rising from down[j].  With m galloping targets,
    each takes at most _SWEEP_POINTS // m shifts (none when m exceeds
    _SWEEP_POINTS), and r is 4, or the least ratio whose last shift reaches
    the other end.
    """
    from_up = up < np.inf
    start = np.where(from_up, up, down)
    end = np.where(from_up, np.maximum(down, g_lo), g_hi)
    with np.errstate(invalid="ignore", over="ignore"):
        pad = np.maximum(tol, 4.0 * np.spacing(np.abs(start)))
        span = np.abs(start - end)
        wide = np.isfinite(start) & (span > 4.0 * pad)
        m = int(wide.sum())
        per = _SWEEP_POINTS // m if m else 0
        if not per:
            return np.empty(0)
        start, end, pad, span = start[wide], end[wide], pad[wide], span[wide]
        ratio = np.maximum(4.0, (span / pad) ** (1.0 / max(per - 1, 1)))
        step = np.where(from_up[wide], -pad, pad)
        # a step past the float range is inf here, and falls outside below
        xs = start[:, None] + step[:, None] * ratio[:, None] ** np.arange(per)
    lo = np.minimum(start, end)[:, None]
    hi = np.maximum(start, end)[:, None]
    return xs[(lo < xs) & (xs < hi)]


@dataclass
class SpectrumResult:
    """Located eigenvalues with residuals, brackets and method provenance.

    methods[j] is "charfn-bisection" for eigenvalues confirmed by a certified
    sign change of the characteristic function, "oracle-ladder" where the
    stabilized truncation value stands, and "unresolved" for indices that
    also appear in ``unresolved``: an index F could not certify under
    "require", or a same-sign contradiction (see find_spectrum).
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
    t = _gate_block(src)
    if int(sturm_counts(t, [0.0])[0]) > 0:
        raise AssumptionViolation(
            "truncated block has eigenvalues below zero; source is not a "
            "positive-definite configuration"
        )


def _gate_block(src: CoefficientSource) -> TruncatedTridiagonal:
    """The leading block, of at most 24 rows, that the configuration gates
    count pivots on: the usable prefix at the finest oracle tolerance
    (_rung's rule at 1e-15).

    On a fast-growing source the full 24 rows can leave the float range (for
    ASC-II at q below about 1e-7.5), or lift the pivot floor 5e-308 max
    offdiag**2 high enough to clamp the leading pivots negative (q = 1e-7).
    Any leading block's smallest root bounds lambda_1 from above, so a
    shorter block serves the same gates.
    """
    return _rung(src, 24, _OTOL_FLOOR)


def _rung(src, n, otol):
    """The n x n block, cut at the first row the oracle cannot use at otol.

    A row is unusable when its diagonal entry or its offdiag**2 leaves the
    float range (from_source refuses it) or offdiag**2 lifts the pivot floor
    above otol (sturm_eigenvalues refuses it).  A block is usable exactly
    when each of its rows is, so the usable sizes are a prefix of 0, 1, 2,
    ... and the cut block equals from_source at its size.  The coefficients
    are read once, by src.alpha and src.beta: _coeff_reader refuses entries
    past the 2^900 horizon, and coeffs(n) gives no beta without its alpha.
    """
    diag = np.array([src.beta(i) - src.shift for i in range(n)], dtype=float)
    off = np.array([src.alpha(i) for i in range(n - 1)], dtype=float)
    with np.errstate(over="ignore"):
        floor = np.maximum(1.0, off ** 2) * _PIVMIN_SCALE
    bad_off = ~((np.abs(off) < _OFFDIAG_LIMIT) & (floor <= otol))
    m = n
    if not np.all(np.isfinite(diag)):
        m = int(np.argmin(np.isfinite(diag)))
    if np.any(bad_off):
        m = min(m, int(np.argmax(bad_off)) + 1)
    return TruncatedTridiagonal(diag=diag[:m], offdiag=off[:max(m - 1, 0)])


def _ladder(src, k, tol, otol):
    """Double the truncation size until the k smallest roots stabilize.

    Two rungs agree when each root moved by at most 0.01 tol or 8 ulp of
    itself, whichever is larger; an absolute test alone is below one ulp
    once the roots are large and could never be met.

    Every rung is warm-started with a hint (see sturm_eigenvalues): the
    first with its k smallest diagonal entries, each later one with the
    previous rung's roots.  A hint only saves sweeps; the roots are those of
    an unhinted call.

    Each rung reads its coefficients once (_rung), and a rung (the first
    included) that would pass the largest usable size is clamped to that
    size.  On a fast-growing source such as ASC-II at q = 0.3 this lets the
    last rung end just inside the float range instead of failing there.  If
    the clamp leaves a first rung of fewer than k rows or no rung larger
    than the current one, or the clamped rung or a rung of _LADDER_CAP rows
    or more does not stabilize, ValueError is raised rather than an
    unstabilized root returned.

    Returns (sizes, t_coarse, t_fine, x_coarse, x_fine): every rung size,
    then the last two blocks and their roots at otol; x_coarse comes from
    the smaller truncation, so componentwise x_coarse >= x_fine >= lambda.
    """
    t_prev = _rung(src, max(4 * k, 8), otol)
    if t_prev.size < k:
        raise _not_stabilized(k, t_prev.size, otol)
    sizes = [t_prev.size]
    x_prev = sturm_eigenvalues(t_prev, k, otol,
                               hint=np.sort(t_prev.diag)[:k])
    while True:
        n = sizes[-1]
        t = _rung(src, 2 * n, otol)
        if t.size > n:
            x_next = sturm_eigenvalues(t, k, otol, hint=x_prev)
            sizes.append(t.size)
            floor = np.maximum(_LADDER_STABILIZE * tol,
                               _LADDER_ULPS * np.spacing(np.abs(x_next)))
            if np.all(np.abs(x_prev - x_next) <= floor):
                return sizes, t_prev, t, x_prev, x_next
        if t.size < 2 * n or t.size >= _LADDER_CAP:
            raise _not_stabilized(k, sizes[-1], otol)
        t_prev, x_prev = t, x_next


class _LadderCapError(ConvergenceError, ValueError):
    """The ladder reached its cap: uncertified, not a configuration error."""


def _not_stabilized(k, m, otol):
    """The ladder's ValueError when its last rung has m rows."""
    text = f"the {k} smallest roots have not stabilized at {m} x {m}, "
    if m >= _LADDER_CAP:
        return _LadderCapError(text + f"the ladder cap {_LADDER_CAP}")
    return ValueError(text + f"the largest truncation usable at tolerance {otol:.3g}")


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
                  confirm: str = "auto") -> SpectrumResult:
    """Locate the k smallest eigenvalues as certified zeros of F.

    confirm:
      "auto"    certify by F sign change where F can certify a sign; where it
                cannot, out of the term budget or at the summation noise
                floor, report the oracle value as "oracle-ladder";
      "require" treat an index out of budget or at the noise floor as
                unresolved;
      "oracle"  skip F entirely (truncation ladder only).
    An index whose bisection is doomed by the float64 noise floor is not
    bisected (_below_noise).  A same-sign contradiction (F certifies one
    sign at both ends of the widened bracket), and a certified zero farther
    than tol + max(gap, 8 otol) from its oracle value, are unresolved under
    "auto" and "require".
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if confirm not in CONFIRM_POLICIES:
        raise ValueError(f"unknown confirm policy {confirm!r}")
    res = SpectrumResult(k=k)
    if k == 0:
        return res
    check_spectral_config(src)
    if gamma is None:
        gamma = src.natural_gamma

    otol = max(tol * 1e-3, _OTOL_FLOOR)
    sizes, t_coarse, t_fine, x_coarse, x_fine = _ladder(src, k, tol, otol)
    res.ladder = sizes
    if k > 1:
        # near-degenerate oracle pairs: tighten the oracle tolerance so the
        # separation midpoints used as bracket clamps can be trusted
        min_gap = float(np.min(np.diff(x_fine)))
        if min_gap < 10.0 * tol and min_gap > 0.0:
            otol_ref = max(min_gap * 1e-3, _OTOL_FLOOR)
            if otol_ref < otol:
                otol = otol_ref
                x_coarse = sturm_eigenvalues(t_coarse, k, otol, hint=x_coarse)
                x_fine = sturm_eigenvalues(t_fine, k, otol, hint=x_fine)
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
        if j == 0 and gamma is not None and lam_oracle + pad_hi < gamma:
            # the bracket would start above the root it must contain
            raise AssumptionViolation(
                f"gamma {gamma!r} exceeds the smallest oracle root "
                f"{lam_oracle!r} by more than its padding {pad_hi:.3g}; "
                "gamma must be a lower bound of the spectrum")
        lo = lam_oracle - pad_lo
        hi = float(x_coarse[j]) + pad_hi
        lo_clamp = 0.5 * (float(x_fine[j - 1]) + lam_oracle) if j >= 1 else (
            0.5 * gamma if gamma is not None and gamma > 0 else lo - 64 * pad_lo
        )
        hi_clamp = 0.5 * (lam_oracle + float(x_fine[j + 1])) if j + 1 < k else math.inf
        lo = max(lo, lo_clamp)
        hi = min(hi, hi_clamp)

        outcome = "no-sign"  # F certifies nothing out of budget or under "oracle"
        if confirm != "oracle":
            slope = _slope_estimate(j, res.oracle_values, tail_ratio)
            target_atol = max(0.02 * slope * tol, 1e-280)
            if evaluator.plan_terms(abs(hi), target_atol)[0] is None:
                pass  # out of budget
            elif _below_noise(evaluator, lam_oracle - 16.0 * tol, slope, tol,
                              target_atol):
                outcome = "noise-floor"
            else:
                outcome, lam, bracket = _bisect_zero(
                    evaluator, lo, hi, lo_clamp, hi_clamp, tol, target_atol)
                if outcome == "certified" and \
                        abs(lam - lam_oracle) > tol + max(gap, 8.0 * otol):
                    outcome = "oracle-disagreement"
        method = _provenance(confirm, outcome)
        if method == "charfn-bisection":
            final = evaluator.eval(lam, target_atol)
            _push_row(res, j, method, lam, bracket, abs(final.value),
                      final.tail_bound, abs(lam - lam_oracle))
        else:
            _push_row(res, j, method, lam_oracle, (lo, hi))
    return res


def _provenance(confirm, outcome):
    """The one map from (policy, outcome) to an index's method; the outcome
    is _bisect_zero's, "noise-floor" (_below_noise), which maps as
    "no-sign" does, or "oracle-disagreement" for a zero farther from its
    oracle value than tol plus the ladder's error."""
    if confirm == "oracle" or (confirm == "auto"
                               and outcome in ("no-sign", "noise-floor")):
        return "oracle-ladder"
    return "charfn-bisection" if outcome == "certified" else "unresolved"


def _below_noise(evaluator, x0, slope, tol, atol):
    """Whether no eval at |z| >= x0 and an atol <= ``atol`` can certify a
    sign within 16 tol of a root of slope ``slope``, where _bisect_zero
    needs one for every certified outcome (an unwidened bracket is at most
    8 tol wide, a widened one halves through a width in (8 tol, 16 tol]).

    Plans only grow with |z| and with a tighter atol, and the first term
    of F's sum is w_0(0) P_0(z) = kappa_0, so every such eval reports a
    noise estimate of at least _NOISE_EPS sqrt(N0) (1 + x0 kappa_0), N0 the
    plan of (x0, atol): the floor this compares with twice the largest |F|
    there, 16 tol slope.
    """
    x0 = max(x0, 0.0)
    n0 = evaluator.plan_terms(x0, atol)[0]
    floor = _NOISE_EPS * math.sqrt(n0) * (1.0 + x0 * evaluator._table.kappas[0])
    return 2.0 * 16.0 * tol * slope < floor


def _push_row(res, j, method, lam, bracket, residual=math.nan,
              tail_bound=math.nan, gap=0.0):
    """Append index j's row; an "unresolved" one also adds j + 1 to
    res.unresolved."""
    if method == "unresolved":
        res.unresolved.append(j + 1)
    res.eigenvalues.append(lam)
    res.residuals.append(residual)
    res.tail_bounds.append(tail_bound)
    res.brackets.append(bracket)
    res.oracle_gaps.append(gap)
    res.methods.append(method)


def _bisect_zero(evaluator, lo, hi, lo_clamp, hi_clamp, tol, atol):
    """Certified-sign bisection; returns (outcome, lambda, (lo, hi)).

    "certified" comes with the zero and its bracket; "no-sign" (F certified
    no sign, at an end after widening or at a midpoint) and "same-sign" (one
    certified sign at both ends, contradicting the oracle) with None, None.
    """
    s_lo = evaluator.certified_sign(lo, atol)[0]
    s_hi = evaluator.certified_sign(hi, atol)[0]
    widen = 0
    base = hi - lo
    while (s_lo == 0 or s_hi == 0 or s_lo == s_hi) and widen < _MAX_WIDEN:
        widen += 1
        lo = max(lo - base * 2.0 ** widen, lo_clamp)
        hi = min(hi + base * 2.0 ** widen, hi_clamp)
        s_lo = evaluator.certified_sign(lo, atol)[0]
        s_hi = evaluator.certified_sign(hi, atol)[0]
    if s_lo == 0 or s_hi == 0:
        return "no-sign", None, None
    if s_lo == s_hi:
        return "same-sign", None, None
    bracket = (lo, hi)
    while True:
        width = hi - lo
        if width <= max(tol, 8.0 * math.ulp(max(abs(lo), abs(hi)))):
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        s_mid = evaluator.certified_sign(mid, atol)[0]
        if s_mid == 0:
            # probe sits too close to the zero to certify; nudge sideways
            for frac in (0.125, -0.125, 0.25, -0.25):
                probe = mid + frac * width
                if lo < probe < hi:
                    s_probe = evaluator.certified_sign(probe, atol)[0]
                    if s_probe != 0:
                        mid, s_mid = probe, s_probe
                        break
        if s_mid == 0:
            if width <= 8.0 * tol:
                break
            return "no-sign", None, None
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return "certified", 0.5 * (lo + hi), bracket
