"""Coefficient sources: where the Jacobi matrix entries (alpha_n, beta_n) come from.

A source presents the shifted diagonal beta_n - shift, so downstream code
always works with the matrix J - shift*I.  Two kinds are provided: the
Al-Salam--Carlitz II parametric family (an infinite matrix with known
closed forms) and finite explicit tables for truncation-level testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .qseries import QParams


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


def require_infinite(src: CoefficientSource, what: str) -> None:
    """Infinite-tail operations cannot run on finite tables."""
    if src.is_finite:
        raise ValueError(
            f"{what} needs an unbounded coefficient family; explicit tables only "
            "support truncation-level operations"
        )
