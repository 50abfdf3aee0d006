"""Functions of the second kind, the Weyl function, the kappa sequence
kappa_n = w_n(0) P_n(0) and the trace of the inverse operator.

Everything is driven by the tail series

    w_n(z) = -( sum_{j>=n} 1/(alpha_j P_j(z) P_{j+1}(z)) ) P_n(z),

which collapses to w_n(z) = -S_n / (alpha_n P_{n+1}(z)) after factoring the
leading term out of the sum; S_n is accumulated by a backward recursion over
term ratios, so no intermediate ever overflows.  Truncation is certified from
the observed term-ratio decay: the stopping rule requires the ratio to sit
below 0.9 over a five-term window, then bounds the tail geometrically.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from .errors import AssumptionViolation, ConvergenceError
from .recurrence import _phase, _scaled_iter
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
    t_j = 1/(alpha_j P_j P_{j+1}).  Shared between the second-kind table, the
    kappa sequence and the characteristic-function evaluator; each prefix is
    immutable once built, so concurrent readers are safe.
    """

    def __init__(self, src: CoefficientSource, z):
        require_infinite(src, "tail series evaluation")
        self.src = src
        self.z = z
        self._iter = _scaled_iter(src, z)
        self._grow_lock = threading.Lock()  # generators are not reentrant
        self.log_p: list[float] = []
        self.sgn_p: list = []
        self.alphas: list[float] = []
        self.log_t: list[float] = []
        self.sgn_t: list = []
        self._horizon: str | None = None  # message once the horizon is hit

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
                    self.log_t.append(lt)
                    # t_j carries the INVERSE phase of P_j P_{j+1}
                    self.sgn_t.append(1.0 / (self.sgn_p[j] * self.sgn_p[j + 1]))

    def term(self, j: int):
        if self.log_t[j] == -math.inf:
            return 0.0 * self.sgn_t[j]
        return self.sgn_t[j] * _exp_cap(self.log_t[j])

    def term_ratio(self, j: int):
        """Signed ratio t_{j+1} / t_j."""
        mag = self.ratio_mag(j)
        if isinstance(self.sgn_t[j], complex):
            return self.sgn_t[j + 1] / self.sgn_t[j] * mag
        return self.sgn_t[j + 1] * self.sgn_t[j] * mag

    def ratio_mag(self, j: int) -> float:
        if self.log_t[j] == -math.inf:
            return math.inf if self.log_t[j + 1] > -math.inf else 0.0
        return _exp_cap(self.log_t[j + 1] - self.log_t[j])

    def stable_ratio_at(self, j: int) -> float | None:
        """Max ratio over the trailing window ending at term j, or None if the
        window is incomplete or any ratio breaches the 0.9 cap."""
        if j < _RATIO_WINDOW:
            return None
        window = [self.ratio_mag(i) for i in range(j - _RATIO_WINDOW, j)]
        r_hat = max(window)
        return r_hat if r_hat < _RATIO_CAP else None

    def find_stop(self, atol: float, max_terms: int, min_terms: int = 0):
        """Smallest J with a stable ratio window and |t_J| < atol (1-r)/r.

        Returns (J, r_hat); raises ConvergenceError when the budget runs out.
        """
        j = max(min_terms, _RATIO_WINDOW)
        while True:
            if j >= max_terms:
                self.ensure_terms(max_terms)
                terms = [self.term(i) for i in range(max_terms)]
                if isinstance(self.z, complex):
                    partial = -complex(math.fsum(t.real for t in terms),
                                       math.fsum(t.imag for t in terms))
                else:
                    partial = -math.fsum(terms)
                raise ConvergenceError(
                    f"tail series not certified within {max_terms} terms at z={self.z}",
                    partial=partial,
                    terms=max_terms,
                )
            self.ensure_terms(j + 2)
            if self.log_t[j] == -math.inf:
                return j, 0.5  # terms underflowed to zero; tail is negligible
            r_hat = self.stable_ratio_at(j)
            if r_hat == 0.0:
                return j, 0.5  # ratios below resolution; tail is negligible
            if r_hat is not None \
                    and self.log_t[j] < 700.0 \
                    and math.exp(self.log_t[j]) < atol * (1.0 - r_hat) / r_hat:
                return j, r_hat
            j += 1

    def backward_sums(self, j_top: int, r_hat: float):
        """S_n = sum_{j>=n} t_j / t_n for n = 0..j_top, with half-width bounds.

        The start value S_{j_top} deviates from 1 by at most r_hat/(1-r_hat);
        the midpoint estimate and its uncertainty half-width propagate downward
        through the exact relation S_n = 1 + rho_n S_{n+1}.
        """
        self.ensure_terms(j_top + 2)
        spread = r_hat / (1.0 - r_hat)
        if isinstance(self.z, complex):
            s = [1.0 + 0.0j] * (j_top + 1)
            h = [0.0] * (j_top + 1)
            h[j_top] = spread  # disc of radius `spread` centered at 1
        else:
            s = [1.0] * (j_top + 1)
            h = [0.0] * (j_top + 1)
            s[j_top] = 1.0 + 0.5 * spread  # interval [1, 1 + spread]
            h[j_top] = 0.5 * spread
        for n in range(j_top - 1, -1, -1):
            rho = self.term_ratio(n)
            s[n] = 1.0 + rho * s[n + 1]
            h[n] = abs(rho) * h[n + 1]
        return s, h


@dataclass
class SecondKindTable:
    """w_n(z) values with per-index certified tail bounds.

    trunc_len is the inner-series truncation index: terms of the tail series
    beyond it are covered by the geometric bound.  kappas is populated only
    for z = 0 (relative to the shifted source).
    """

    z: float | complex
    values: list
    tail_bounds: list[float]
    trunc_len: int
    kappas: list[float] | None = None


def _validate_domain(src, z, gamma):
    if isinstance(z, complex) and z.imag != 0.0:
        return  # exposed but uncertified off the real axis
    zr = z.real if isinstance(z, complex) else z
    if gamma is None:
        raise ValueError("real evaluation requires the configured lower bound gamma")
    if not zr < gamma:
        raise ValueError(f"z = {zr} must lie strictly below gamma = {gamma}")


def weyl(src: CoefficientSource, z, *, gamma: float | None = None,
         atol: float = 1e-12, max_terms: int = 20000):
    """Weyl function w(z) = -sum_j 1/(alpha_j P_j(z) P_{j+1}(z)).

    Summed until the certified geometric tail drops below atol.  z must lie
    strictly below the configured spectral lower bound gamma.
    """
    _validate_domain(src, z, gamma)
    eng = TailSeriesEngine(src, z)
    j_stop, _ = eng.find_stop(atol, max_terms)
    terms = [eng.term(i) for i in range(j_stop + 1)]
    if isinstance(z, complex):
        return -complex(math.fsum(t.real for t in terms),
                        math.fsum(t.imag for t in terms))
    return -math.fsum(terms)


def second_kind_values(src: CoefficientSource, z, count: int, *,
                       gamma: float | None = None, atol: float = 1e-12,
                       max_terms: int = 20000,
                       engine: TailSeriesEngine | None = None) -> SecondKindTable:
    """Table of w_n(z) for n < count via the tail series, each with a bound.

    Cross-checkable against the alternative route w(z) P_n(z) + Q_n(z).
    Passing atol=None skips the absolute criterion and certifies the values to
    near machine relative precision instead (used by the kappa path).
    """
    if count < 1:
        raise ValueError("count must be positive")
    _validate_domain(src, z, gamma)
    eng = engine if engine is not None else TailSeriesEngine(src, z)
    stop_atol = atol if atol is not None else 1e-12
    j_stop, r_hat = eng.find_stop(stop_atol, max_terms, min_terms=count + 1)

    extra = 16
    while True:
        j_top = min(j_stop + extra, max_terms - 1)
        eng.ensure_terms(j_top + 2)
        s, h = eng.backward_sums(j_top, r_hat)
        vals, bounds = [], []
        accepted = True
        for n in range(count):
            if eng.log_p[n + 1] == -math.inf:
                raise AssumptionViolation(f"P_{n + 1}(z) = 0 on the evaluation path")
            scale = _exp_cap(-math.log(eng.alphas[n]) - eng.log_p[n + 1])
            if scale == math.inf:
                raise AssumptionViolation(
                    f"1/P_{n + 1}(z) overflows; z too close to a polynomial root"
                )
            w_n = -s[n] / eng.sgn_p[n + 1] * scale
            b_n = h[n] * scale
            rel = h[n] / abs(s[n]) if abs(s[n]) > 0 else math.inf
            if rel > 1e-15 or (atol is not None and b_n > atol):
                accepted = False
                break
            vals.append(w_n)
            bounds.append(b_n)
        if accepted:
            break
        if j_top >= max_terms - 1:
            raise ConvergenceError(
                f"per-index tail bounds not certified within {max_terms} terms",
                terms=max_terms,
            )
        extra *= 2

    kappas = None
    if z == 0:
        kappas = []
        for n in range(count):
            mag = _exp_cap(-math.log(eng.alphas[n]) + eng.log_p[n] - eng.log_p[n + 1])
            s_real = s[n].real if isinstance(s[n], complex) else s[n]
            sign = eng.sgn_p[n] / eng.sgn_p[n + 1]
            sign = sign.real if isinstance(sign, complex) else sign
            kappas.append(-s_real * sign * mag)
    return SecondKindTable(z=z, values=vals, tail_bounds=bounds,
                           trunc_len=j_top + 1, kappas=kappas)


@dataclass
class KappaSequence:
    """kappa_n = w_n(0) P_n(0) > 0 with partial sums and an empirical tail."""

    kappas: list[float]
    partial_sums: list[float]
    tail_estimate: float
    decay_ratio: float
    terms_used: int

    @property
    def total_upper(self) -> float:
        """Upper estimate of sum kappa_n = tr (J - shift)^{-1}."""
        return self.partial_sums[-1] + self.tail_estimate


def kappa_sequence(src: CoefficientSource, count: int, *,
                   max_terms: int = 20000,
                   engine: TailSeriesEngine | None = None) -> KappaSequence:
    """First ``count`` kappa values with partial sums and a decay-based tail.

    Signals AssumptionViolation if any computed kappa fails to be positive,
    which would contradict positive definiteness of the source.
    """
    # z = 0 always lies below gamma for a positive-definite configuration
    table = second_kind_values(src, 0.0, count, gamma=math.inf,
                               atol=None, max_terms=max_terms, engine=engine)
    kappas = table.kappas
    bad = [n for n, k in enumerate(kappas) if not k > 0.0]
    if bad:
        raise AssumptionViolation(
            f"kappa_{bad[0]} = {kappas[bad[0]]} is not positive; "
            "source is not a positive-definite configuration"
        )
    sums = []
    acc = 0.0
    for k in kappas:
        acc += k
        sums.append(acc)
    ratios = [kappas[i + 1] / kappas[i] for i in range(len(kappas) - 1)]
    window = ratios[-_RATIO_WINDOW:] if len(ratios) >= _RATIO_WINDOW else ratios
    decay = max(window) if window else 1.0
    tail = kappas[-1] * decay / (1.0 - decay) if decay < 1.0 else math.inf
    return KappaSequence(kappas=kappas, partial_sums=sums, tail_estimate=tail,
                         decay_ratio=decay, terms_used=table.trunc_len)


@dataclass
class TraceInverse:
    value: float
    tail_bound: float
    terms: int


def trace_inverse(src: CoefficientSource, atol: float, *,
                  max_terms: int = 20000) -> TraceInverse:
    """tr (J - shift)^{-1} = sum kappa_n, summed to a certified tail <= atol."""
    count = 32
    engine = TailSeriesEngine(src, 0.0)
    last = None
    while count <= max_terms:
        seq = kappa_sequence(src, count, max_terms=max_terms, engine=engine)
        last = seq
        if seq.decay_ratio < _RATIO_CAP and seq.tail_estimate <= atol:
            return TraceInverse(value=seq.partial_sums[-1],
                                tail_bound=seq.tail_estimate, terms=count)
        count *= 2
    raise ConvergenceError(
        f"trace tail not below {atol} within {max_terms} terms",
        partial=last.partial_sums[-1] if last else None,
        terms=max_terms,
    )
