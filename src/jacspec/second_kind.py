"""Functions of the second kind w_n(z), whose first entry w_0(z) is the Weyl
function w(z), the kappa sequence kappa_n = w_n(0) P_n(0) and the trace of
the inverse operator.

Everything is driven by the tail series

    w_n(z) = -( sum_{j>=n} 1/(alpha_j P_j(z) P_{j+1}(z)) ) P_n(z),

which collapses to w_n(z) = -S_n / (alpha_n P_{n+1}(z)) after factoring the
leading term out of the sum; S_n is accumulated by a backward recursion over
term ratios, so no intermediate ever overflows.  Truncation is certified from
the observed term-ratio decay: the stopping rule requires the ratio to sit
below 0.9 over a five-term window, then bounds the tail geometrically.
Since S_n depends only on the sums above it, kappa_sequence grows the
kappa table a z = 0 engine holds by its new entries only (_kappa_entries).
"""

from __future__ import annotations

import bisect
import itertools
import math
import threading
from dataclasses import dataclass

from .errors import AssumptionViolation, ConvergenceError
from .recurrence import _coeff_reader, _phase, _scaled_iter
from .sources import CoefficientSource, require_infinite

_RATIO_CAP = 0.9
_RATIO_WINDOW = 5


def _exp_cap(x: float) -> float:
    """exp with overflow mapped to inf instead of an exception."""
    if x > 709.0:
        return math.inf
    return math.exp(x)


class TailSeriesEngine:
    """Incrementally grown per-index data for the tail series at a fixed z.

    Holds alpha_j, log|P_j(z)|, sign P_j(z) and the implied series terms
    t_j = 1/(alpha_j P_j P_{j+1}) with their ratios |t_{j+1}/t_j|, each ratio
    formed once as its term is built.  Shared between the second-kind table,
    the kappa sequence and the characteristic-function evaluator; each prefix
    is immutable once built, so concurrent readers are safe.  read is the
    engine's _coeff_reader of src; an owner may run its own recurrences on
    it, so that each coefficient index is fetched from src once.
    """

    def __init__(self, src: CoefficientSource, z):
        require_infinite(src, "tail series evaluation")
        self.src = src
        self.z = z
        self.read = _coeff_reader(src)
        self._iter = _scaled_iter(self.read, z)
        self._grow_lock = threading.Lock()  # generators are not reentrant
        self.log_p: list[float] = []
        self.sgn_p: list = []
        self.alphas: list[float] = []
        self.log_t: list[float] = []
        self.sgn_t: list = []
        self.ratios: list[float] = []  # |t_{j+1} / t_j|, one per built pair
        self._horizon: str | None = None  # message once the horizon is hit
        self.kappas: list[float] = []  # kappa_sequence's table; one build at a time

    def ensure_terms(self, count: int) -> None:
        """Extend so that terms t_0 .. t_{count-1} are available.

        Raises ConvergenceError once the coefficient family leaves the float
        range (the working-precision horizon); everything already built stays
        valid, and every later call that needs more terms raises the same
        error.  Prefixes are append-only, so readers of already-published
        indices never need the growth lock.
        """
        if len(self.log_t) >= count:
            return
        with self._grow_lock:
            while len(self.log_t) < count:
                if self._horizon is not None:
                    raise ConvergenceError(self._horizon, terms=len(self.log_t))
                try:
                    n, u, v, ls, a_n = next(self._iter)
                except ConvergenceError as exc:
                    # the generator is finished once it raises; keep only the
                    # message, since a kept traceback would pin its frames
                    self._horizon = str(exc)
                    continue
                self.log_p.append(ls + math.log(abs(u)) if u != 0 else -math.inf)
                self.sgn_p.append(_phase(u))
                self.alphas.append(a_n)
                if n >= 1:
                    j = n - 1
                    lt = -(math.log(self.alphas[j])
                           + self.log_p[j] + self.log_p[j + 1])
                    if j >= 1:
                        prev = self.log_t[j - 1]
                        if prev == -math.inf:
                            self.ratios.append(math.inf if lt > -math.inf else 0.0)
                        else:
                            self.ratios.append(_exp_cap(lt - prev))
                    # t_j carries the INVERSE phase of P_j P_{j+1}
                    self.sgn_t.append(1.0 / (self.sgn_p[j] * self.sgn_p[j + 1]))
                    # log_t is published last: its length is what readers check
                    self.log_t.append(lt)

    def term_ratio(self, j: int):
        """Signed ratio t_{j+1} / t_j."""
        mag = self.ratios[j]
        if isinstance(self.sgn_t[j], complex):
            return self.sgn_t[j + 1] / self.sgn_t[j] * mag
        return self.sgn_t[j + 1] * self.sgn_t[j] * mag

    def find_stop(self, atol: float, max_terms: int, min_terms: int = 0):
        """Smallest J >= min_terms whose trailing ratio window stays below
        the 0.9 cap and with |t_J| < atol (1-r)/r, r the window's largest
        ratio.

        Returns (J, r_hat); raises ConvergenceError when the budget runs out
        or the terms reach the coefficient horizon first.  Whether a
        candidate passes depends only on J and atol.
        """
        for j in range(max(min_terms, _RATIO_WINDOW), max_terms):
            self.ensure_terms(j + 2)
            if self.log_t[j] == -math.inf:
                return j, 0.5  # terms underflowed to zero; tail is negligible
            r_hat = max(self.ratios[j - _RATIO_WINDOW:j])
            if r_hat == 0.0:
                return j, 0.5  # ratios below resolution; tail is negligible
            if r_hat < _RATIO_CAP \
                    and self.log_t[j] < 700.0 \
                    and math.exp(self.log_t[j]) < atol * (1.0 - r_hat) / r_hat:
                return j, r_hat
        self.ensure_terms(max_terms)
        raise ConvergenceError(
            f"tail series not certified within {max_terms} terms at z={self.z}",
            terms=max_terms,
        )

    def backward_sums(self, j_top: int, r_hat: float, low: int = 0):
        """S_n = sum_{j>=n} t_j / t_n for n = low..j_top, with half-width
        bounds; both lists are indexed by n - low.

        The start value S_{j_top} deviates from 1 by at most r_hat/(1-r_hat);
        the midpoint estimate and its uncertainty half-width propagate downward
        through the exact relation S_n = 1 + rho_n S_{n+1}, so S_n depends on
        low only in where the recursion stops.
        """
        self.ensure_terms(j_top + 2)
        spread = r_hat / (1.0 - r_hat)
        size = j_top + 1 - low
        if isinstance(self.z, complex):
            s = [1.0 + 0.0j] * size
            h = [0.0] * size
            h[-1] = spread  # disc of radius `spread` centered at 1
        else:
            s = [1.0] * size
            h = [0.0] * size
            s[-1] = 1.0 + 0.5 * spread  # interval [1, 1 + spread]
            h[-1] = 0.5 * spread
        for i in range(size - 2, -1, -1):
            rho = self.term_ratio(low + i)
            s[i] = 1.0 + rho * s[i + 1]
            h[i] = abs(rho) * h[i + 1]
        return s, h


@dataclass
class SecondKindTable:
    """w_n(z) values with per-index certified tail bounds."""

    z: float | complex
    values: list
    tail_bounds: list[float]


def _validate_domain(src, z, gamma):
    if isinstance(z, complex) and z.imag != 0.0:
        return  # exposed but uncertified off the real axis
    zr = z.real if isinstance(z, complex) else z
    if gamma is None:
        raise ValueError("real evaluation requires the configured lower bound gamma")
    if not zr < gamma:
        raise ValueError(f"z = {zr} must lie strictly below gamma = {gamma}")


def second_kind_values(src: CoefficientSource, z, count: int, *,
                       gamma: float | None = None, atol: float = 1e-12,
                       max_terms: int = 20000) -> SecondKindTable:
    """Table of w_n(z) for n < count via the tail series, each with a bound;
    values[0] is the Weyl function w(z) = -sum_j 1/(alpha_j P_j(z) P_{j+1}(z)).

    z must lie strictly below the configured spectral lower bound gamma, or
    off the real axis (uncertified).  Cross-checkable against the
    alternative route w(z) P_n(z) + Q_n(z).
    """
    if count < 1:
        raise ValueError("count must be positive")
    _validate_domain(src, z, gamma)
    eng = TailSeriesEngine(src, z)
    j_stop, r_hat = eng.find_stop(atol, max_terms, min_terms=count + 1)
    for j_top in _sum_tops(j_stop, max_terms):
        s, h = eng.backward_sums(j_top, r_hat)
        vals, bounds = [], []
        for n in range(count):
            scale = _inverse_scale(eng, n)
            w_n = -s[n] / eng.sgn_p[n + 1] * scale
            b_n = h[n] * scale
            if _relative_width(s[n], h[n]) > 1e-15 or b_n > atol:
                break
            vals.append(w_n)
            bounds.append(b_n)
        else:
            return SecondKindTable(z=z, values=vals, tail_bounds=bounds)


def _sum_tops(j_stop: int, max_terms: int):
    """The top indices j_stop + 16, 32, 64, ... to start backward sums from,
    the last one at the budget's end; asking past it raises ConvergenceError."""
    extra = 16
    while True:
        j_top = min(j_stop + extra, max_terms - 1)
        yield j_top
        if j_top >= max_terms - 1:
            raise ConvergenceError(
                f"per-index tail bounds not certified within {max_terms} terms",
                terms=max_terms,
            )
        extra *= 2


def _inverse_scale(eng: TailSeriesEngine, n: int) -> float:
    """1/(alpha_n |P_{n+1}(z)|); AssumptionViolation where P_{n+1}(z) = 0 or
    where the value overflows."""
    if eng.log_p[n + 1] == -math.inf:
        raise AssumptionViolation(f"P_{n + 1}(z) = 0 on the evaluation path")
    scale = _exp_cap(-math.log(eng.alphas[n]) - eng.log_p[n + 1])
    if scale == math.inf:
        raise AssumptionViolation(
            f"1/P_{n + 1}(z) overflows; z too close to a polynomial root"
        )
    return scale


def _relative_width(s, h: float) -> float:
    """h / |s|, the relative half-width of a backward sum (inf at s = 0)."""
    return h / abs(s) if abs(s) > 0 else math.inf


def _kappa_sums(engine: TailSeriesEngine, count: int, max_terms: int,
                low: int, stop: tuple[int, float] | None = None):
    """Backward sums S_n, n >= low, with half-widths, of a kappa build of
    count entries: from ``stop`` (find_stop's for a 1e-12 table of count
    entries by default), j_top = J + 16, 32, ... grows until S_{count-1} is
    known to 1e-15 relative, else ConvergenceError.  At z = 0 every ratio is
    positive and S_n >= 1, so h_n / S_n falls with n: the lower entries are
    known as well.  low only sets where the sums stop, so no entry, and no
    count's success, depends on the entries built before."""
    j_stop, r_hat = stop or engine.find_stop(1e-12, max_terms, count + 1)
    for j_top in _sum_tops(j_stop, max_terms):
        s, h = engine.backward_sums(j_top, r_hat, low=low)
        if not _relative_width(s[count - 1 - low], h[count - 1 - low]) > 1e-15:
            return s, h


def _zero_at_origin(n: int) -> AssumptionViolation:
    return AssumptionViolation(f"P_{n}(0) = 0: source cannot be positive definite")


def _kappa_entries(engine: TailSeriesEngine, start: int, count: int,
                   max_terms: int) -> list[float]:
    """kappa_n = w_n(0) P_n(0) for start <= n < count (_kappa_sums).
    AssumptionViolation where P_{n+1}(0) = 0, checked before any sum is
    formed, or where an entry is not positive: either contradicts positive
    definiteness of the source."""
    engine.ensure_terms(count + 1)
    for n in range(start + 1, count + 1):
        if engine.log_p[n] == -math.inf:
            raise _zero_at_origin(n)
    s, _ = _kappa_sums(engine, count, max_terms, start)
    lp, sp, alphas = engine.log_p, engine.sgn_p, engine.alphas
    kappas = []
    for n in range(start, count):
        _inverse_scale(engine, n)
        mag = _exp_cap(-math.log(alphas[n]) + lp[n] - lp[n + 1])
        kappa = -s[n - start] * (sp[n] / sp[n + 1]) * mag
        if not kappa > 0.0:
            raise AssumptionViolation(
                f"kappa_{n} = {kappa} is not positive; "
                "source is not a positive-definite configuration"
            )
        kappas.append(kappa)
    return kappas


def _kappa_capacity(engine: TailSeriesEngine, failed: int,
                    max_terms: int) -> int:
    """The largest count a kappa build on engine reaches, given that the
    build of ``failed`` entries raised, with no further build: one scan
    lists the stops from the held entries to the failed build's own, if
    any, and the counts in between are bisected on _kappa_sums from each
    count's stop down to its last entry only.
    """
    held = len(engine.kappas)
    stops, j = [], held  # stops as (J, r_hat)
    try:
        while j <= failed:
            stops.append(engine.find_stop(1e-12, max_terms, min_terms=j + 1))
            j = stops[-1][0]
    except ConvergenceError:
        pass  # no stop past j

    def fails(count: int) -> bool:
        stop = next((s for s in stops if s[0] > count), None)
        if stop is None:
            return True
        try:
            _kappa_sums(engine, count, max_terms, count - 1, stop)
        except ConvergenceError:
            return True
        return False

    # the counts that build come first: bisect for the first that fails
    return held + bisect.bisect_left(range(held + 1, failed), True, key=fails)


@dataclass
class KappaSequence:
    """kappa_n = w_n(0) P_n(0) > 0 with partial sums and an empirical tail."""

    kappas: list[float]
    partial_sums: list[float]
    tail_estimate: float
    decay_ratio: float

    @property
    def total_upper(self) -> float:
        """Upper estimate of sum kappa_n = tr (J - shift)^{-1}."""
        return self.partial_sums[-1] + self.tail_estimate


def kappa_sequence(src: CoefficientSource, count: int, *,
                   max_terms: int = 20000,
                   engine: TailSeriesEngine | None = None) -> KappaSequence:
    """First ``count`` kappa values with partial sums and a decay-based tail.

    engine, when given, is a z = 0 TailSeriesEngine of src whose entries
    (engine.kappas) are kept, so calls on it compute each entry once.
    Signals AssumptionViolation if a computed kappa is not positive.
    """
    if count < 1:
        raise ValueError("count must be positive")
    eng = engine if engine is not None else TailSeriesEngine(src, 0.0)
    held = len(eng.kappas)
    if count > held:
        eng.kappas.extend(_kappa_entries(eng, held, count, max_terms))
    kappas = eng.kappas[:count]
    sums = list(itertools.accumulate(kappas))
    decay = max((kappas[i + 1] / kappas[i]
                 for i in range(max(0, count - 1 - _RATIO_WINDOW), count - 1)),
                default=1.0)
    tail = kappas[-1] * decay / (1.0 - decay) if decay < 1.0 else math.inf
    return KappaSequence(kappas=kappas, partial_sums=sums, tail_estimate=tail,
                         decay_ratio=decay)


@dataclass
class TraceInverse:
    value: float
    tail_bound: float
    terms: int


def trace_inverse(src: CoefficientSource, atol: float, *,
                  max_terms: int = 20000) -> TraceInverse:
    """tr (J - shift)^{-1} = sum kappa_n, summed to a certified tail <= atol;
    the count doubles from 32 on one engine, which computes each entry once."""
    count = 32
    engine = TailSeriesEngine(src, 0.0)
    seq = None
    while count <= max_terms:
        seq = kappa_sequence(src, count, max_terms=max_terms, engine=engine)
        if seq.decay_ratio < _RATIO_CAP and seq.tail_estimate <= atol:
            return TraceInverse(value=seq.partial_sums[-1],
                                tail_bound=seq.tail_estimate, terms=count)
        count *= 2
    raise ConvergenceError(
        f"trace tail not below {atol} within {max_terms} terms",
        partial=seq.partial_sums[-1] if seq else None,
        terms=max_terms,
    )
