"""Coefficient sources: where the Jacobi matrix entries (alpha_n, beta_n) come from.

A source presents the shifted diagonal beta_n - shift, so downstream code
always works with the matrix J - shift*I.  Two kinds are provided: the
Al-Salam--Carlitz II parametric family (an infinite matrix with known
closed forms) and finite explicit tables for truncation-level testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, is_dataclass, replace

from .qseries import QParams

# relative pad of tail_certificate's bounds for the rounding of the entries
_CERT_PAD = 1e-9


class CoefficientSource:
    """Base interface: alpha(n), beta(n) raw entries plus coeffs(n) shifted."""

    shift: float = 0.0

    def alpha(self, n: int) -> float:
        raise NotImplementedError

    def beta(self, n: int) -> float:
        raise NotImplementedError

    def coeffs(self, n: int) -> tuple[float, float]:
        """Return (alpha_n, beta_n - shift); pure and deterministic."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        return self.alpha(n), self.beta(n) - self.shift

    @property
    def max_pair_index(self) -> int | None:
        """Largest n for which coeffs(n) is defined; None means unbounded."""
        return None

    @property
    def is_finite(self) -> bool:
        return self.max_pair_index is not None

    @property
    def natural_gamma(self) -> float | None:
        """Lower spectral bound of J - shift the family implies, or None."""
        return None

    def tail_certificate(self, start: int) -> tuple[float, float, float] | None:
        """A-priori bounds at z = 0 on the float64 coeffs, or None: (r,
        theta, tail) with every tail-series term ratio alpha_j^2/(d_j d_{j+1})
        <= r < 1, every LDL^T pivot d_n of J - shift >= theta (beta_n -
        shift), hence kappa_n = S_n/d_n <= 1/((1 - r) theta (beta_n -
        shift)), and sum_{n >= start} kappa_n <= tail."""
        return None


@dataclass(frozen=True)
class ASC2Source(CoefficientSource):
    """Al-Salam--Carlitz II family: alpha_n^2 = a q^{-2n-1} (1 - q^{n+1}),
    beta_n = (a + 1) q^{-n}.

    The underlying operator satisfies J >= 1, so the shifted matrix J - shift
    is bounded below by 1 - shift; ``natural_gamma`` exposes that bound.
    """

    q: float
    a: float
    shift: float = 0.0

    def __post_init__(self):
        QParams(self.q, self.a)  # validates the parameter ranges
        if not math.isfinite(self.shift):
            raise ValueError("shift must be finite")

    def alpha(self, n: int) -> float:
        if n < 0:
            raise ValueError("n must be nonnegative")
        # q**(-2n-1) would overflow long before alpha itself does, so keep the
        # growing factor outside the square root; inf past the float horizon
        try:
            return math.sqrt(self.a * (1.0 - self.q ** (n + 1))) \
                * self.q ** (-n - 0.5)
        except OverflowError:
            return math.inf

    def beta(self, n: int) -> float:
        if n < 0:
            raise ValueError("n must be nonnegative")
        try:
            return (self.a + 1.0) * self.q ** (-n)
        except OverflowError:
            return math.inf

    @property
    def natural_gamma(self) -> float:
        """Lower spectral bound 1 - shift implied by the W-factorization J >= 1."""
        return 1.0 - self.shift

    def tail_certificate(self, start: int) -> tuple[float, float, float] | None:
        """CoefficientSource.tail_certificate from the closed forms; None
        where sup mu_j >= 1/4.

        With b'_j = beta_j - shift, theta_j = d_j/b'_j and mu_j =
        alpha_j^2/(b'_j b'_{j+1}), theta_{j+1} = 1 - mu_j/theta_j.  For
        mu >= every mu_j and theta* = (1 + sqrt(1 - 4 mu))/2, theta_0 = 1 >=
        theta* starts an induction theta_j >= theta*, so the term ratio
        mu_j/(theta_j theta_{j+1}) <= mu/theta*^2 = r.  In x = q^j, mu_j =
        a (1 - qx)/((c - sx)(c - sqx)), c = 1 + a, s the shift: mu is its
        largest value on [0, 1], at an end or at its one stationary point
        x = k/(1 + sqrt(1 - qk)), k = c (s (1 + q) - qc)/(s^2 q).  The tail
        sums 1/b'_n = q^n/(c - s q^n) <= q^n/(c - max(s, 0) q^start).  The
        pad covers the rounding of the entries, cancellation in c - s too.
        """
        q, a, s = self.q, self.a, self.shift
        c = 1.0 + a
        xs = [0.0, 1.0]
        if s * s * q > 0.0:  # mu_j'(x) = 0 where q x^2 - 2x + k = 0
            k = c * (s * (1.0 + q) - q * c) / (s * s * q)
            if q * k <= 1.0:
                xs.append(min(max(k / (1.0 + math.sqrt(1.0 - q * k)), 0.0), 1.0))
        pad = _CERT_PAD * c / (c - max(s, 0.0))
        mu = max(a * (1.0 - q * x) / ((c - s * x) * (c - s * q * x))
                 for x in xs) * (1.0 + pad)
        if not mu < 0.25:
            return None
        theta = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * mu)) * (1.0 - pad)
        r = mu / theta ** 2
        if not r < 1.0:
            return None
        x = q ** start
        tail = x / ((1.0 - r) * theta * (1.0 - q) * (c - max(s, 0.0) * x))
        return r, theta, tail * (1.0 + pad)


@dataclass(frozen=True)
class TableSource(CoefficientSource):
    """Finite explicit table of entries.

    Lengths must satisfy len(alphas) >= len(betas) - 1 >= 1.  Entry positivity
    is deliberately not enforced here; the verification suite reports it, which
    keeps deliberately broken tables constructible for testing.
    """

    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    shift: float = 0.0

    def __init__(self, alphas, betas, shift: float = 0.0):
        object.__setattr__(self, "alphas", tuple(float(a) for a in alphas))
        object.__setattr__(self, "betas", tuple(float(b) for b in betas))
        object.__setattr__(self, "shift", float(shift))
        if not math.isfinite(self.shift):
            raise ValueError("shift must be finite")
        if len(self.betas) < 2 or len(self.alphas) < len(self.betas) - 1:
            raise ValueError(
                "table lengths must satisfy len(alphas) >= len(betas) - 1 >= 1"
            )
        for x in self.alphas + self.betas:
            if not math.isfinite(x):
                raise ValueError("table entries must be finite")

    def alpha(self, n: int) -> float:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n >= len(self.alphas):
            raise IndexError(f"alpha_{n} beyond stored prefix (len {len(self.alphas)})")
        return self.alphas[n]

    def beta(self, n: int) -> float:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n >= len(self.betas):
            raise IndexError(f"beta_{n} beyond stored prefix (len {len(self.betas)})")
        return self.betas[n]

    @property
    def max_pair_index(self) -> int:
        return min(len(self.alphas), len(self.betas)) - 1

    @property
    def max_truncation(self) -> int:
        """Largest N for which the N x N leading block is fully determined."""
        return min(len(self.alphas) + 1, len(self.betas))


def _certified_base(src: CoefficientSource):
    """(base, scale): the source whose tail_certificate bounds src's kappa
    tails, sum_{m >= n} kappa_m <= scale tail(n) of base, or None where none
    does.  base is src itself, with scale 1, else src at shift 0, if its
    natural_gamma g0 exceeds delta = src.shift > 0, with scale g0/(g0 -
    delta): J_0 >= g0 gives J_0 - delta >= (1 - delta/g0) J_0, so each
    diagonal entry kappa_n of (J_0 - delta)^-1 is at most scale times that
    of J_0^-1.  The oracle's rung reads base alone (spectrum._sized_rung).
    """
    if src.tail_certificate(0) is not None:
        return src, 1.0
    if is_dataclass(src) and src.shift > 0.0:
        base = replace(src, shift=0.0)
        g0 = base.natural_gamma
        if g0 is not None and src.shift < g0 \
                and base.tail_certificate(0) is not None:
            return base, g0 / (g0 - src.shift)
    return None


def require_infinite(src: CoefficientSource, what: str) -> None:
    """Infinite-tail operations cannot run on finite tables."""
    if src.is_finite:
        raise ValueError(
            f"{what} needs an unbounded coefficient family; explicit tables only "
            "support truncation-level operations"
        )
