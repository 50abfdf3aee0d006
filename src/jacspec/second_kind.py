"""Functions of the second kind w_n(z), whose first entry w_0(z) is the Weyl
function w(z), the kappa sequence kappa_n = w_n(0) P_n(0) and the trace of
the inverse operator.

Everything is driven by the tail series

    w_n(z) = -( sum_{j>=n} 1/(alpha_j P_j(z) P_{j+1}(z)) ) P_n(z),

which collapses to w_n(z) = -S_n / (alpha_n P_{n+1}(z)) after factoring the
leading term out of the sum; S_n is accumulated by a backward recursion over
term ratios, so no intermediate ever overflows.  Truncation is certified from
the observed term-ratio decay: the stopping rule requires the ratio to sit
below 0.9 over a five-term window, then bounds the tail geometrically; at
z = 0, where that window fails, the source's a-priori ratio bound
(CoefficientSource.tail_certificate) stands in for it.
Since S_n depends only on the sums above it, kappa_sequence grows a
KappaTable by its new entries only (_kappa_entries).  The table holds those
entries, with the w_n(0) of F's terms beside them, its capacity and the
ladder of counts it grows along, which CharFnEvaluator's plans and
trace_inverse both walk.
"""

from __future__ import annotations

import bisect
import itertools
import math
import threading
from dataclasses import dataclass

from .errors import AssumptionViolation, ConvergenceError
from .recurrence import _LN2, _coeff_reader, _phase, _scaled_iter
from .sources import CoefficientSource, require_infinite

_RATIO_CAP = 0.9
_RATIO_WINDOW = 5
# the kappa table's first build: the top entries of a smaller build can sit an
# ulp or two from those of a larger one (a build of 22 at (0.5, 0.5, 0.5)),
# so a table started smaller would depend on the order of its builds
_FIRST_BUILD = 64


def _exp_cap(x: float) -> float:
    """exp with overflow mapped to inf instead of an exception."""
    if x > 709.0:
        return math.inf
    return math.exp(x)


class TailSeriesEngine:
    """Incrementally grown per-index data for the tail series at a fixed z.

    Holds log|P_j(z)|, sign P_j(z) and the implied series terms
    t_j = 1/(alpha_j P_j P_{j+1}) with their ratios |t_{j+1}/t_j|, each ratio
    formed once as its term is built.  coeffs is src's coefficient table
    (_coeff_reader), with alpha_j.  Each prefix is immutable once built, so
    readers of built indices are safe; growth is not, and a shared engine
    (a KappaTable's) grows only under its owner's lock.
    """

    def __init__(self, src: CoefficientSource, z):
        require_infinite(src, "tail series evaluation")
        self.src = src
        self.z = z
        self.coeffs = _coeff_reader(src).table
        self._iter = _scaled_iter(_coeff_reader(src), z)
        self.log_p: list[float] = []
        self.sgn_p: list = []
        self.log_t: list[float] = []
        self.sgn_t: list = []
        self.ratios: list[float] = []  # |t_{j+1} / t_j|, one per built pair
        self._horizon: str | None = None  # message once the horizon is hit
        # the a-priori ratio bound find_stop falls back on at z = 0, else inf
        cert = src.tail_certificate(0) if z == 0 else None
        self._cert_ratio = cert[0] if cert else math.inf

    def ensure_terms(self, count: int) -> None:
        """Extend so that terms t_0 .. t_{count-1} are available.

        Raises ConvergenceError once the coefficient family leaves the float
        range (the working-precision horizon); everything already built stays
        valid, and every later call that needs more terms raises the same
        error.
        """
        log_p, sgn_p, log_t = self.log_p, self.sgn_p, self.log_t
        if len(log_t) >= count:
            return
        log, exp_cap, coeffs = math.log, _exp_cap, self.coeffs
        while len(log_t) < count:
            if self._horizon is not None:
                raise ConvergenceError(self._horizon, terms=len(log_t))
            try:
                n, u, v, ls = next(self._iter)
            except ConvergenceError as exc:
                # the generator is finished once it raises; keep only the
                # message, since a kept traceback would pin its frames
                self._horizon = str(exc)
                continue
            log_p.append(ls + log(abs(u)) if u != 0 else -math.inf)
            sgn_p.append(_phase(u))
            if n >= 1:
                j = n - 1  # the reader holds alpha_j since step j
                lt = -(log(coeffs[j][0]) + log_p[j] + log_p[n])
                if j >= 1:
                    prev = log_t[j - 1]
                    if prev == -math.inf:
                        self.ratios.append(math.inf if lt > -math.inf else 0.0)
                    else:
                        self.ratios.append(exp_cap(lt - prev))
                # t_j carries the INVERSE phase of P_j P_{j+1}
                self.sgn_t.append(1.0 / (sgn_p[j] * sgn_p[n]))
                log_t.append(lt)

    def term_ratio(self, j: int):
        """Signed ratio t_{j+1} / t_j."""
        mag = self.ratios[j]
        if isinstance(self.sgn_t[j], complex):
            return self.sgn_t[j + 1] / self.sgn_t[j] * mag
        return self.sgn_t[j + 1] * self.sgn_t[j] * mag

    def find_stop(self, atol: float, max_terms: int, min_terms: int):
        """Smallest J >= min_terms whose trailing ratio window stays below
        the 0.9 cap and with |t_J| < atol (1-r)/r, r the window's largest
        ratio; at z = 0, where the window fails, r is the source's a-priori
        ratio bound (tail_certificate), if it has one.

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
            if r_hat >= _RATIO_CAP:
                r_hat = self._cert_ratio
            if r_hat < 1.0 \
                    and self.log_t[j] < 700.0 \
                    and math.exp(self.log_t[j]) < atol * (1.0 - r_hat) / r_hat:
                return j, r_hat
        self.ensure_terms(max_terms)
        raise ConvergenceError(
            f"tail series not certified within {max_terms} terms at z={self.z}",
            terms=max_terms,
        )

    def backward_sums(self, j_top: int, r_hat: float, low: int = 0,
                      start=None):
        """S_n = sum_{j>=n} t_j / t_n for n = low..j_top, with half-width
        bounds; both lists are indexed by n - low.

        The start value S_{j_top} deviates from 1 by at most r_hat/(1-r_hat);
        the midpoint estimate and its uncertainty half-width propagate downward
        through the exact relation S_n = 1 + rho_n S_{n+1}, so S_n depends on
        low only in where the recursion stops.  ``start``, a (S, h) pair that
        an earlier call gave for index j_top, replaces that start value, so
        a recursion stopped there continues bit for bit.
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
        if start is not None:
            s[-1], h[-1] = start
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
    for j_top in _sum_tops(eng, j_stop, max_terms):
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


def _sum_tops(engine: TailSeriesEngine, j_stop: int, max_terms: int):
    """The top indices j_stop + 16, 32, 64, ... to start backward sums from,
    the last one at the budget's end, or at the last index below the
    coefficient horizon where that comes first; asking past it raises
    ConvergenceError."""
    extra = 16
    while True:
        j_top = min(j_stop + extra, max_terms - 1)
        try:
            engine.ensure_terms(j_top + 2)
        except ConvergenceError:
            yield len(engine.log_t) - 2  # find_stop built t_{j_stop + 1}
            raise
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
    scale = _exp_cap(-math.log(eng.coeffs[n][0]) - eng.log_p[n + 1])
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
    """Backward sums S_n, low <= n < count, with half-widths, of a kappa
    build of count entries: from ``stop`` (find_stop's for a 1e-12 table of
    count entries by default), j_top = J + 16, 32, ... grows until S_{count-1}
    is known to 1e-15 relative, else ConvergenceError; each try sums down to
    count - 1, and the one that passes goes on to low.  At z = 0 every ratio is
    positive and S_n >= 1, so h_n / S_n falls with n: the lower entries are
    known as well.  low only sets where the sums stop, so no entry, and no
    count's success, depends on the entries built before.  A
    ConvergenceError raised after the stop is known carries it as ``stop``
    (see KappaTable._build)."""
    j_stop, r_hat = stop or engine.find_stop(1e-12, max_terms, count + 1)
    try:
        for j_top in _sum_tops(engine, j_stop, max_terms):
            s, h = engine.backward_sums(j_top, r_hat, low=count - 1)
            if not _relative_width(s[0], h[0]) > 1e-15:
                return engine.backward_sums(count - 1, r_hat, low,
                                            start=(s[0], h[0]))
    except ConvergenceError as exc:
        exc.stop = j_stop
        raise


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
    lp, sp, coeffs = engine.log_p, engine.sgn_p, engine.coeffs
    kappas = []
    for n in range(start, count):
        _inverse_scale(engine, n)
        mag = _exp_cap(-math.log(coeffs[n][0]) + lp[n] - lp[n + 1])
        kappa = -s[n - start] * (sp[n] / sp[n + 1]) * mag
        if not kappa > 0.0:
            raise AssumptionViolation(
                f"kappa_{n} = {kappa} is not positive; "
                "source is not a positive-definite configuration"
            )
        kappas.append(kappa)
    return kappas


def kappa_sequence(src: CoefficientSource, count: int, *,
                   max_terms: int = 20000,
                   table: KappaTable | None = None) -> list[float]:
    """The first ``count`` entries kappa_n = w_n(0) P_n(0) of src's kappa
    table, built under its lock.

    table, when given, is a KappaTable of src (ValueError otherwise), with
    its own max_terms, that keeps its entries, so calls on it compute each
    entry once, one build at a time.  A bare call builds exactly ``count``
    entries; its top ones can differ by an ulp from a larger build's, while
    KappaTable.grow starts at _FIRST_BUILD entries and agrees bit for bit.
    Signals AssumptionViolation if a computed kappa is not positive.
    """
    if count < 1:
        raise ValueError("count must be positive")
    table = table or KappaTable(src, max_terms)
    if table.src != src:
        raise ValueError(f"table must be a KappaTable of {src!r}")
    eng = table.engine
    with table._lock:
        held = len(table.kappas)
        if count > held:
            table.kappas.extend(_kappa_entries(eng, held, count, table.max_terms))
            for n in range(held, count):
                lw = math.log(table.kappas[n]) - eng.log_p[n]  # log |w_n(0)|
                e = math.floor(lw / _LN2)
                table.w0_exp.append(e)
                table.w0_mant.append(eng.sgn_p[n] * math.exp(lw - e * _LN2))
    return table.kappas[:count]


def _certified_tail(src: CoefficientSource, n: int) -> float:
    """src's a-priori bound on sum_{m >= n} kappa_m (tail_certificate), or
    inf where it has none."""
    cert = src.tail_certificate(n)
    return cert[2] if cert else math.inf


class KappaTable:
    """The kappa table of src: kappas[n] = kappa_n, with w_n(0) =
    w0_mant[n] 2^w0_exp[n] of F's terms beside it, grown by kappa_sequence
    on a z = 0 engine, which computes only the entries past those held; its
    capacity; and the ladder of counts it grows along.  The capacity starts
    at max_terms; the first build that fails (budget, coefficient horizon or
    no stable decay window) fixes it at the largest count that builds.
    Every reader walks the ladder from its first rung (first), so the table
    grows through one chain of counts (_FIRST_BUILD, then n + 6 per rung n)
    whatever is asked of it, in whatever order.  One lock guards every
    change: builds, the capacity, the rungs and out_of_reach's memo.  The
    entries are append-only, so readers of built ones need no lock;
    w0_mant is extended last, so its length is the table's for them.
    """

    def __init__(self, src: CoefficientSource, max_terms: int = 20000):
        self.src = src
        self.max_terms = max_terms
        self.engine = TailSeriesEngine(src, 0.0)
        self.kappas: list[float] = []
        self.w0_mant: list[float] = []
        self.w0_exp: list[int] = []
        self.capacity = max_terms  # lowered once, by the first failed build
        # rung's ladder so far and the next count it tries, 0 once it ended
        self.rungs: list[tuple[int, float, float]] = []
        self.apriori: set[int] = set()  # its counts whose tail is a-priori
        self._next_count = 16
        self._lock = threading.RLock()
        # out_of_reach's counts known to build and the least known not to
        self._reach = [0, max_terms + 1]

    def grow(self, count: int) -> bool:
        """Extend the table to at least ``count`` entries and _FIRST_BUILD;
        False beyond the capacity, which depends on src and max_terms only."""
        with self._lock:
            want = min(max(count, _FIRST_BUILD), self.capacity)
            if want > len(self.kappas):
                self._build(want)
            return count <= self.capacity

    def _build(self, count: int) -> None:
        """Build ``count`` entries, or where that fails, fix the capacity and
        build it.  Whether a candidate passes find_stop depends only on it,
        so the stop of a smaller count is at most the failed build's own
        (its ConvergenceError's stop, see _kappa_sums), or at most ``count``
        where its search found none; the counts in between are bisected
        (_builds, with the stop search capped there)."""
        try:
            kappa_sequence(self.src, count, table=self)
            return
        except ConvergenceError as exc:
            bound = min(getattr(exc, "stop", count) + 1, self.max_terms)
        # the counts that build come first: bisect for the first that fails
        held = len(self.kappas)
        capacity = held + bisect.bisect_left(
            range(held + 1, count), True,
            key=lambda n: not self._builds(n, bound))
        if capacity > held:
            kappa_sequence(self.src, capacity, table=self)
        self.capacity = capacity

    def _builds(self, count: int, bound: int | None = None) -> bool:
        """Whether a build of ``count`` entries succeeds, from its stop search
        capped at ``bound`` and its last entry's sums; publishes nothing."""
        if count <= len(self.kappas):
            return True
        try:
            stop = self.engine.find_stop(1e-12, bound or self.max_terms,
                                         min_terms=count + 1)
            _kappa_sums(self.engine, count, self.max_terms, count - 1, stop)
        except ConvergenceError:
            return False
        return True

    def tail_upper(self, n_terms: int) -> tuple[float, bool] | None:
        """(T, a_priori): T >= sum_{k>=n_terms} kappa_k from the observed
        decay, or where its window is not below the cap, _certified_tail's
        a-priori bound; None beyond the capacity."""
        if not self.grow(n_terms + _RATIO_WINDOW + 1):
            return None
        k = self.kappas
        r = max(k[i + 1] / k[i] for i in range(n_terms - 1,
                                               n_terms + _RATIO_WINDOW - 1))
        if r >= _RATIO_CAP:
            return _certified_tail(self.src, n_terms), True
        return k[n_terms] / (1.0 - r), False

    def out_of_reach(self, log_cap: float) -> bool:
        """Whether no count within the capacity has an a-priori tail of at
        most e^log_cap: the least that has one (bisected on _certified_tail,
        which falls with the count) lies past the capacity's ceiling or does
        not build (_builds; _reach keeps the counts known to build and the
        least known not to).  No entry is published, so the answer depends
        on src, max_terms and log_cap only."""
        def meets(n: int) -> bool:
            t = _certified_tail(self.src, n)
            return t == 0.0 or math.log(t) <= log_cap

        with self._lock:
            ceiling = self.capacity - _RATIO_WINDOW - 1
            if ceiling < 4 or not meets(ceiling):
                return True
            count = bisect.bisect_left(range(ceiling), True, key=meets) \
                + _RATIO_WINDOW + 1
            built, failed = self._reach
            if count <= max(built, len(self.kappas)):
                return False
            if count < failed:
                if self._builds(count):
                    self._reach[0] = max(built, count)
                    return False
                self._reach[1] = count
            return True

    def rung(self, i: int):
        """The ladder's i-th (n, T_n, log T_n), or None past its end: the
        counts 16, 32, 64, ..., the last the capacity's ceiling, with a
        finite positive T_n = tail_upper(n) (a-priori for those in apriori).
        Walked once, under the table's lock, and no further than asked: a
        rung is fixed once walked, as the table only grows and the capacity
        falls."""
        rungs = self.rungs
        if i < len(rungs):
            return rungs[i]
        with self._lock:
            n = self._next_count
            while len(rungs) <= i and n:
                ceiling = self.capacity - _RATIO_WINDOW - 1
                n = min(n, ceiling)
                tail = self.tail_upper(n) if n >= 4 else (0.0, False)
                if tail is None:
                    continue  # the failed build has lowered the capacity
                t, a_priori = tail  # n < 4 ends the ladder with t = 0
                if 0.0 < t < math.inf:
                    if a_priori:  # before the rung: readers skip the lock
                        self.apriori.add(n)
                    rungs.append((n, t, math.log(t)))
                n = 0 if n >= ceiling else min(2 * n, ceiling)
            self._next_count = n
        return rungs[i] if i < len(rungs) else None

    def first(self, hit, log_cap: float) -> tuple[int, int | None]:
        """(i, stop): walk the ladder from its first rung to the first rung
        i that ``hit`` accepts, with stop None; else stop is the count an
        uncertified plan reads: that of the first rung with an a-priori
        tail, if out_of_reach(log_cap) holds there (asked there only), or
        past the ladder's end the whole table.  Where the walk stops depends
        on hit and log_cap only, not on the rungs walked before."""
        ask, i = True, 0
        while (rung := self.rung(i)) is not None:
            if hit(rung):
                return i, None
            if ask and rung[0] in self.apriori:
                if self.out_of_reach(log_cap):
                    return i, rung[0]
                ask = False
            i += 1
        return i, len(self.w0_mant)


@dataclass
class TraceInverse:
    value: float
    tail_bound: float
    terms: int


def trace_inverse(src: CoefficientSource, atol: float, *,
                  max_terms: int = 20000,
                  table: KappaTable | None = None) -> TraceInverse:
    """tr (J - shift)^{-1} = sum kappa_n, summed to the first rung n of the
    ladder of ``table`` (a KappaTable of src, ValueError otherwise; a new
    one by default) whose tail T_n (KappaTable.tail_upper) is at most atol,
    so it grows the table as F's plans do."""
    if not 0.0 < atol < math.inf:
        raise ValueError(f"atol must be finite and positive, got {atol!r}")
    table = table or KappaTable(src, max_terms)
    if table.src != src:
        raise ValueError(f"table must be a KappaTable of {src!r}")
    i, stop = table.first(lambda rung: rung[1] <= atol, math.log(atol))
    if stop is not None:
        raise ConvergenceError(
            table.engine._horizon or
            f"trace tail not below {atol} within {table.max_terms} terms",
            terms=table.max_terms)
    n, tail, _ = table.rungs[i]
    *_, value = itertools.accumulate(table.kappas[:n])
    return TraceInverse(value=value, tail_bound=tail, terms=n)
