"""Spectrum location: certified zeros of the characteristic function,
cross-checked against truncated-matrix eigenvalues.

The truncation oracle uses Sturm sign-count bisection on the leading N x N
block; its eigenvalues are the roots of P_N and decrease monotonically to the
operator eigenvalues as N grows.  find_spectrum brackets each eigenvalue with
one truncation whose trace defect D_N = tr J^-1 - tr J_N^-1 bounds its error
(that of J + shift, the family at shift 0, where the source's tail
certificate holds only there), confirms a certified sign change of the
characteristic function inside the bracket, and bisects.  Where F cannot
certify a sign, out of the term budget (the tail bound |z| T_N F(-|z|)
grows with the eigenvalue, see charfn) or at the float64 summation noise
floor, the oracle value is reported with explicit provenance instead.  A
source with a tail certificate at neither shift gets no oracle: its error
has no bound, and find_spectrum raises ConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .charfn import _NOISE_EPS, CharFnEvaluator
from .errors import AssumptionViolation, ConvergenceError
from .qseries import QParams, require_certified_regime
from .sources import (ASC2Source, CoefficientSource, _certified_base,
                      require_infinite)

_OFFDIAG_LIMIT = math.sqrt(np.finfo(float).max)
_MAX_WIDEN = 6
_SWEEP_POINTS = 512  # shifts per tree or gallop sweep, costing ~1.5x one shift
_LADDER_CAP = 8192  # the largest truncation the oracle reads
_RUNG_WIDTH = 0.25  # the one rung's enclosure width bound as a fraction of tol
_RUNG_ULPS = 4.0  # ... or this many ulp of the k-th root's upper bound
_TAIL_CHECK = 16  # rows between the early-exit checks of a Sturm sweep
_PIVMIN_SCALE = 5e-308  # pivot floor per unit of the largest offdiag**2
_OTOL_FLOOR = 1e-15  # the finest oracle tolerance find_spectrum bisects to
_BOUND_PAD = 1e-12  # relative pad of _doomed's closed-form bounds
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
    truncation value stands, and "unresolved" for indices that also appear
    in ``unresolved``: an index F could not certify under "require", or a
    same-sign contradiction (see find_spectrum).  The truncation value is a
    root x of the one D_N-sized rung, lambda_j in [x'/(1 + x' D_N) - delta,
    x] with x' = x + delta, where delta is 0, or the shift where D_N is that
    of the family at shift 0 (find_spectrum); no value below gamma (or 0) is
    published, and a smallest root below 0 by more than the oracle's
    resolution raises AssumptionViolation.
    ladder lists the truncation sizes: always one, [N].
    oracle_gaps[j] is |lambda - oracle value| for a "charfn-bisection"
    entry; for any other it is the width x' - x'/(1 + x' D_N) of the D_N
    enclosure.
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
    """The n x n block, cut at the first row the oracle cannot use at otol
    (_row_usable): the usable sizes are a prefix of 0, 1, 2, ..., so the cut
    block equals from_source at its size.  The coefficients are read by
    src.alpha and src.beta: _coeff_reader refuses entries past the 2^900
    horizon, and coeffs(n) gives no beta without its alpha."""
    diag, off = [], []
    for i in range(n):
        b = src.beta(i) - src.shift
        a = src.alpha(i - 1) if i else None
        if not _row_usable(b, a, otol):
            break
        diag.append(b)
        if i:
            off.append(a)
    return TruncatedTridiagonal(diag=np.array(diag, dtype=float),
                                offdiag=np.array(off, dtype=float))


def _row_usable(b, a, otol):
    """Whether the oracle can use a row whose diagonal entry is b and whose
    offdiag to the row before is a (None for row 0): a row is unusable when
    b or a**2 leaves the float range (from_source refuses it) or a**2 lifts
    the pivot floor above otol (sturm_eigenvalues refuses it)."""
    return math.isfinite(b) and (a is None or (
        abs(a) < _OFFDIAG_LIMIT and max(1.0, a * a) * _PIVMIN_SCALE <= otol))


def _sized_rung(src, k, tol, otol):
    """The one truncation whose trace defect bounds each root's error, as
    (block, D, delta): base is the source whose tail certificate bounds src
    (sources._certified_base), delta = src.shift - base.shift, and D bounds
    D_N = tr J'^-1 - tr J'_N^-1 of J' = J + delta.

    By min-max lambda'_j <= x'_{N,j}, and 1/lambda'_j - 1/x'_{N,j} <= D_N,
    since every such difference is positive and they sum to at most D_N.
    So lambda_j + delta lies in [x'/(1 + x' D_N), x'], x' = x_{N,j} + delta,
    whose width x'^2 D_N/(1 + x' D_N) is below X'^2 D_N for every j <= k,
    X' = X + delta, X the Gershgorin upper bound of the leading k x k block
    (X >= x_{k,k} >= x_{N,j} by interlacing).  The block is the smallest N
    >= k, up to min(usable rows, _LADDER_CAP), with X'^2 D <= max(_RUNG_WIDTH
    tol, _RUNG_ULPS ulp(X)): the ulp term lets a root end where tol is below
    its ulp.  D is tail(N) + h_N (_defect_heads); base's closed-form tail(N)
    is asked for only where h_N alone fits.  The block keeps src's own rows
    bit for bit: at lambda_1 near 1e-16 the sign of its smallest root is
    rounding noise that base's rows would change.  Where no N meets the
    target, the float-range ValueError is raised where the usable rows end
    first, else the cap's _LadderCapError.
    """
    certified = _certified_base(src)
    if certified is None:
        # no truncation size is known to bound the roots: raised before any
        # row is read
        at = f" at shift {src.shift!r} or at shift 0" if src.shift > 0 else ""
        raise _LadderCapError(
            f"{type(src).__name__} has no tail certificate{at}, so no "
            f"truncation size bounds the {k} smallest roots")
    base = certified[0]
    delta = src.shift - base.shift
    n = 0
    for n, head, diag, off in _defect_heads(src, base, otol):
        if n == k:
            a = np.abs(off[:k - 1])
            radius = np.zeros(k)
            radius[:-1] += a
            radius[1:] += a
            x_up = float(np.max(diag[:k] + radius))
            target = max(_RUNG_WIDTH * tol, _RUNG_ULPS * math.ulp(x_up))
            x_up += delta
            budget = target / x_up / x_up
        if n >= k and head <= budget:
            defect = base.tail_certificate(n)[2] + head
            if defect <= budget:
                t = TruncatedTridiagonal(diag=np.array(diag[:n], dtype=float),
                                         offdiag=np.array(off[:n - 1],
                                                          dtype=float))
                return t, defect, delta
        if n == _LADDER_CAP:
            break
    raise _not_stabilized(k, n, otol)


def _defect_heads(src, base, otol):
    """Yield (N, h_N, diag, off) for N = 1, 2, ... while src's N x N block
    is usable (_row_usable, so the last N is the usable size): h_N bounds
    kappa_N S_N, the part of D_N from the leading N rows of J' = J + delta
    (_sized_rung), diag and off the lists of src's N + 1 entries beta_n -
    src.shift and N entries alpha_n read so far, one row per step; (r,
    theta) is base's tail certificate and b'_n = beta_n - base.shift.

    With P_n = P_n(0) of J', (J'^-1)_nn - (J'_N^-1)_nn = kappa_N (P_n/P_N)^2
    for n < N, so D_N = sum_{n >= N} kappa_n + kappa_N S_N, S_N = sum_{n <
    N} (P_n/P_N)^2.  The certificate bounds the first sum by tail(N) and
    kappa_N by 1/((1 - r) theta b'_N); r and theta hold for every row, so
    they are read once, at start 0.  S_N is summed forward, S_{m+1} =
    (alpha_m/d_m)^2 (1 + S_m) over J'_N's own z = 0 pivots d_m, so every
    term is positive and nothing cancels.  Each pivot's relative rounding
    error is at most a few eps/(1 - r), since the certificate's ratio
    alpha_m^2/(d_m d_{m+1}) <= r damps the error it inherits, and each term
    of S_N is a product of at most N factors: h_N = S_N (1 + 16 N eps/(1 -
    r)) / ((1 - r) theta b'_N) covers both, inf where b'_N is not finite.
    """
    r, theta, _ = base.tail_certificate(0)
    pad = 16.0 * np.finfo(float).eps / (1.0 - r)
    scale = (1.0 - r) * theta
    beta = src.beta(0)
    diag, off = [beta - src.shift], []
    b = beta - base.shift
    d = s = 0.0
    n = 0
    while _row_usable(diag[n], off[n - 1] if n else None, otol):
        n += 1
        # h_N reads row N: alpha_{N-1} and b'_N
        off.append(src.alpha(n - 1))
        beta = src.beta(n)
        diag.append(beta - src.shift)
        b_prev, b = b, beta - base.shift
        d = b_prev if n == 1 else b_prev - off[n - 2] * off[n - 2] / d
        g = off[n - 1] / d
        s = g * g * (1.0 + s)
        yield n, (s * (1.0 + n * pad) / (scale * b) if b < math.inf
                  else math.inf), diag, off


class _LadderCapError(ConvergenceError, ValueError):
    """No truncation up to the cap, or none at all, is known to bound the
    roots: uncertified, not a configuration error."""


def _not_stabilized(k, m, otol):
    """The rung search's ValueError when it ends at m rows."""
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
      "oracle"  skip F entirely (truncation oracle only).
    The oracle is one truncation N sized by a bound on its trace defect D_N
    (_sized_rung), solved at otol = max(1e-3 tol, 1e-15), so every oracle
    value is within D_N x'^2 + otol <= 0.251 tol (or 8 ulp) of lambda_j.
    D_N is that of J + delta, x' = x + delta, where delta is 0 if src has a
    tail certificate (CoefficientSource.tail_certificate) and src.shift if
    only src at shift 0 has one; with neither, the cap's ConvergenceError
    is raised.  The brackets F bisects are padded around the oracle value
    by gap, the enclosure width x' - x'/(1 + x' D_N), and clamped between
    neighbouring oracle values.
    An index whose bisection is doomed by the float64 noise floor is not
    bisected (_doomed).  A same-sign contradiction (F certifies one
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
    # J is positive definite and gamma bounds its spectrum below, so every
    # root is at least floor; a root within the oracle's resolution of it
    # (lambda_1 = 1 - shift near 1e-16) can read below it, and is published
    # as floor, while one farther below zero raises
    floor = max(gamma if gamma is not None else 0.0, math.ulp(0.0))
    t_fine, defect, delta = _sized_rung(src, k, tol, otol)
    res.ladder = [t_fine.size]
    x_fine = sturm_eigenvalues(t_fine, k, otol, hint=np.sort(t_fine.diag)[:k])
    otol, x_fine = _near_degenerate(t_fine, x_fine, tol, otol)
    # lambda_j lies in [x'/(1 + x' D) - delta, x], x' = x + delta, whose
    # width oracle_gaps reports
    x_pub = np.maximum(x_fine, floor) + delta
    gaps = x_pub - x_pub / (1.0 + x_pub * defect)
    oracle = [float(x) for x in x_fine]
    res.oracle_values = [max(x, floor) for x in oracle]
    inv_ratios = [x_fine[i] / x_fine[i + 1] for i in range(k - 1)]
    tail_ratio = max(inv_ratios[-4:]) if inv_ratios else None

    evaluator = CharFnEvaluator(src, max_terms) if confirm != "oracle" else None

    for j in range(k):
        lam_oracle = oracle[j]
        gap = float(gaps[j])
        ulp = 4.0 * math.ulp(abs(lam_oracle) + 1.0)
        pad_lo = max(3.0 * gap, tol, 8.0 * otol, ulp)
        pad_hi = max(tol, 8.0 * otol, ulp)
        if j == 0 and gamma is not None and lam_oracle + pad_hi < gamma:
            # the bracket would start above the root it must contain
            raise AssumptionViolation(
                f"gamma {gamma!r} exceeds the smallest oracle root "
                f"{lam_oracle!r} by more than its padding {pad_hi:.3g}; "
                "gamma must be a lower bound of the spectrum")
        if j == 0 and lam_oracle < -max(8.0 * otol, ulp):
            # below zero by more than the oracle's resolution: a root the
            # configuration gate's 24-row block did not show
            raise AssumptionViolation(
                f"the smallest oracle root {lam_oracle!r} is below zero; the "
                "source is not a positive-definite configuration")
        lo = lam_oracle - pad_lo
        hi = lam_oracle + pad_hi
        lo_clamp = 0.5 * (float(x_fine[j - 1]) + lam_oracle) if j >= 1 else (
            0.5 * gamma if gamma is not None and gamma > 0 else lo - 64 * pad_lo
        )
        hi_clamp = 0.5 * (lam_oracle + float(x_fine[j + 1])) if j + 1 < k else math.inf
        lo = max(lo, lo_clamp)
        hi = min(hi, hi_clamp)

        # F certifies nothing under "oracle", nor at an oracle value <= 0,
        # which a lambda_1 below otol can give, and whose log the slope takes
        outcome = "no-sign"
        if confirm != "oracle" and lam_oracle > 0:
            slope = _slope_estimate(j, oracle, tail_ratio)
            target_atol = max(0.02 * slope * tol, 1e-280)
            outcome = _doomed(evaluator, t_fine.diag, lam_oracle - 16.0 * tol,
                              abs(hi), slope, tol, target_atol)
            if outcome is None:
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
            _push_row(res, j, method, res.oracle_values[j], (lo, hi), gap=gap)
    return res


def _near_degenerate(t, x, tol, otol):
    """(otol, x), the block t solved again where its roots x are
    near-degenerate: at 1e-3 of their least gap, so the separation
    midpoints used as bracket clamps can be trusted, where that is below
    otol (and not below _OTOL_FLOOR); else otol and x unchanged."""
    if len(x) > 1:
        min_gap = float(np.min(np.diff(x)))
        if 0.0 < min_gap < 10.0 * tol:
            otol_ref = max(min_gap * 1e-3, _OTOL_FLOOR)
            if otol_ref < otol:
                return otol_ref, sturm_eigenvalues(t, len(x), otol_ref, hint=x)
    return otol, x


def _provenance(confirm, outcome):
    """The one map from (policy, outcome) to an index's method; the outcome
    is _bisect_zero's or _doomed's ("noise-floor" maps as "no-sign" does),
    or "oracle-disagreement" for a zero farther from its oracle value than
    tol plus the oracle's error."""
    if confirm == "oracle" or (confirm == "auto"
                               and outcome in ("no-sign", "noise-floor")):
        return "oracle-ladder"
    return "charfn-bisection" if outcome == "certified" else "unresolved"


def _doomed(evaluator, diag, x0, z_hi, slope, tol, atol):
    """The outcome of an index that no bisection can certify, else None.

    "noise-floor" where no eval at |z| >= x0 and an atol <= ``atol`` can
    certify a sign within 16 tol of a root of slope ``slope``, which
    _bisect_zero needs for every certified outcome (an unwidened bracket is
    at most 8 tol wide, a widened one halves through a width in (8 tol,
    16 tol]); "no-sign" where no plan at |hi| = z_hi fits the budget.

    Plans only grow with |z| and with a tighter atol, and the first term of
    F's sum is w_0(0) P_0(z) = kappa_0, so every such eval reports a noise
    estimate of at least _NOISE_EPS sqrt(N0) (1 + x0 kappa_0), N0 the plan of
    (x0, atol): the floor compared with twice the largest |F| there, 16 tol
    slope.  Before any plan, it is bounded below from the block's diagonal
    diag[n] = J_nn: kappa_n = (J^{-1})_nn >= 1/J_nn (Cauchy-Schwarz), and
    x0 / diag[N0] <= x0 T_N0 U(R) <= atol, since every ladder tail T_n >=
    kappa_n and the majorant U(R) >= 1, so N0 is at least the first row
    with diag[n] >= x0 / atol (the block's size if none is).  diag is the
    oracle's block, the D_N-sized rung; a shorter block only weakens the
    bound, never breaks it.  _BOUND_PAD covers the entries' 1e-15 accuracy
    and the rounding of diag and of the plan's log comparison.
    """
    x0 = max(x0, 0.0)
    need = 32.0 * tol * slope
    rows = np.flatnonzero(diag >= x0 * (1.0 - _BOUND_PAD) / atol)
    n_lb = int(rows[0]) if rows.size else diag.size
    kappa_lb = (1.0 - _BOUND_PAD) / diag[0]
    if need < _NOISE_EPS * math.sqrt(n_lb) * (1.0 + x0 * kappa_lb):
        return "noise-floor"
    if evaluator.plan_terms(z_hi, atol)[0] is None:
        return "no-sign"
    n0 = evaluator.plan_terms(x0, atol)[0]
    floor = _NOISE_EPS * math.sqrt(n0) * (1.0 + x0 * evaluator._table.kappas[0])
    return "noise-floor" if need < floor else None


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
            # probe sits too close to the zero to certify; nudge sideways,
            # and farther where a bracket wider than 8 tol would otherwise
            # end the bisection: F's noise band can reach past w/4
            fracs = (0.125, -0.125, 0.25, -0.25)
            if width > 8.0 * tol:
                fracs += (0.375, -0.375)
            for frac in fracs:
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
