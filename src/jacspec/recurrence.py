"""Three-term recurrence machinery.

Evaluates the orthonormal polynomials P_n(z), the second-kind polynomials
Q_n(z), the associated polynomials Q_m^(n)(z) and the Green matrix of a
Jacobi coefficient source.  All evaluation runs in a scaled representation
(ratio, log magnitude, sign/phase): family values can grow or shrink
geometrically or faster in n, and raw doubles overflow long before the
indices the spectral pipeline needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .sources import CoefficientSource

_LN2 = math.log(2.0)
# Keep the working pair inside a narrow magnitude window so that a recurrence
# step with coefficients as large as ~2^900 still cannot overflow a product.
_RESCALE_HI = 2.0 ** 60
_RESCALE_LO = 2.0 ** -60
_COEFF_HORIZON = 2.0 ** 900


def _phase(x):
    """x/|x| for float or complex; by convention 1.0 at x = 0."""
    if x == 0:
        return 1.0
    if isinstance(x, complex):
        return x / abs(x)
    return math.copysign(1.0, x)


def _ldexp2(x, e: int):
    """x * 2^e for float or complex."""
    if isinstance(x, complex):
        return complex(math.ldexp(x.real, e), math.ldexp(x.imag, e))
    return math.ldexp(x, e)


@dataclass(frozen=True)
class ScaledPolyPair:
    """Overflow-safe value of a consecutive pair (X_n(z), X_{n+1}(z)).

    ratio is X_{n+1}/X_n, or None when X_n(z) = 0 exactly (the in-band
    exact-zero marker); log_mag and sign_or_phase describe X_n itself, and
    next_log_mag/next_sign keep the pair reconstructable through a zero.
    """

    n: int
    ratio: float | complex | None
    log_mag: float
    sign_or_phase: float | complex
    next_log_mag: float
    next_sign: float | complex

    @property
    def is_zero(self) -> bool:
        return self.ratio is None

    @property
    def value(self):
        """X_n(z) as an ordinary float/complex (inf on overflow)."""
        return _exp_signed(self.log_mag, self.sign_or_phase)

    @property
    def next_value(self):
        """X_{n+1}(z)."""
        return _exp_signed(self.next_log_mag, self.next_sign)


def _exp_signed(log_mag: float, sign):
    if log_mag == -math.inf:
        return 0.0 * sign
    try:
        mag = math.exp(log_mag)
    except OverflowError:
        mag = math.inf
    return sign * mag


def _horizon_coeffs(src: CoefficientSource, n: int) -> tuple[float, float]:
    """coeffs(n); ConvergenceError once they reach the 2^900 horizon."""
    a_n, b_n = src.coeffs(n)
    if not (a_n < _COEFF_HORIZON and abs(b_n) < _COEFF_HORIZON):
        raise ConvergenceError(
            f"coefficients exceed the working-precision horizon at n = {n}"
        )
    return a_n, b_n


def _scaled_iter(src: CoefficientSource, z, second_kind: bool = False):
    """Yield (n, u, v, log_scale, alpha_n) with X_n = u e^L and X_{n+1} = v e^L.

    X is the orthonormal sequence (X_0 = 1, X_1 = (z - b_0)/a_0) or, with
    second_kind=True, the second-kind sequence (X_0 = 0, X_1 = 1/a_0);
    alpha_n is the coefficient of the step to X_{n+1}.  The pair is
    renormalized whenever it leaves a safe magnitude window, so the iteration
    itself never overflows.  Coefficients come through _horizon_coeffs, which
    raises ConvergenceError at the first index n whose coefficients reach the
    2^900 horizon.
    """
    one = 1.0 + 0.0j if isinstance(z, complex) else 1.0
    log_scale = 0.0
    n = 0
    while True:
        a_n, b_n = _horizon_coeffs(src, n)
        if n == 0:
            if second_kind:
                u, v = 0.0 * one, one / a_n
            else:
                u, v = one, (z - b_n) / a_n
        else:
            u, v = v, ((z - b_n) * v - a_prev * u) / a_n
            s = max(abs(u), abs(v))
            if s > _RESCALE_HI or s < _RESCALE_LO:
                e = math.frexp(s)[1]
                u = _ldexp2(u, -e)
                v = _ldexp2(v, -e)
                log_scale += e * _LN2
        yield n, u, v, log_scale, a_n
        a_prev = a_n
        n += 1


def _coeff_reader(src: CoefficientSource):
    """read(n) -> _horizon_coeffs(src, n), each index fetched from src once."""
    table: list[tuple[float, float]] = []

    def read(n: int) -> tuple[float, float]:
        while len(table) <= n:
            table.append(_horizon_coeffs(src, len(table)))
        return table[n]
    return read


def _scaled_columns(read, zs: np.ndarray):
    """Column-wise twin of _scaled_iter over a 1-D float64 vector of real z.

    Yields (n, u, log_scale) with P_n(zs) = u * e^log_scale elementwise; read
    is a _coeff_reader, asked once per index for the whole vector.  Each
    column is rescaled on its own by the scalar rule, using only + - * /,
    abs, maximum, frexp and ldexp, which are exact or correctly rounded, so
    every column reproduces _scaled_iter(src, z) bit for bit.  The yielded
    arrays are never mutated afterwards.
    """
    log_scale = np.zeros_like(zs)
    a_n, b_n = read(0)
    u, v = np.ones_like(zs), (zs - b_n) / a_n
    n = 0
    while True:
        yield n, u, log_scale
        a_prev = a_n
        n += 1
        a_n, b_n = read(n)
        u, v = v, ((zs - b_n) * v - a_prev * u) / a_n
        s = np.maximum(np.abs(u), np.abs(v))
        out = (s > _RESCALE_HI) | (s < _RESCALE_LO)
        if out.any():
            e = np.where(out, np.frexp(s)[1], 0)
            u = np.ldexp(u, -e)
            v = np.ldexp(v, -e)
            log_scale = log_scale + e * _LN2


def _pair_at(src, z, n, second_kind):
    it = _scaled_iter(src, z, second_kind=second_kind)
    for idx, u, v, ls, _ in it:
        if idx == n:
            break
    log_u = ls + math.log(abs(u)) if u != 0 else -math.inf
    log_v = ls + math.log(abs(v)) if v != 0 else -math.inf
    ratio = None if u == 0 else v / u
    return ScaledPolyPair(
        n=n,
        ratio=ratio,
        log_mag=log_u,
        sign_or_phase=_phase(u),
        next_log_mag=log_v,
        next_sign=_phase(v),
    )


def eval_phat(src: CoefficientSource, z, n: int) -> ScaledPolyPair:
    """Scaled pair (P_n(z), P_{n+1}(z)) of the orthonormal polynomials."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _pair_at(src, z, n, second_kind=False)


def eval_q(src: CoefficientSource, z, n: int) -> ScaledPolyPair:
    """Scaled pair (Q_n(z), Q_{n+1}(z)) of the second-kind polynomials."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _pair_at(src, z, n, second_kind=True)


def log_table(src: CoefficientSource, z, n_max: int, second_kind: bool = False):
    """Log magnitudes and signs/phases of X_0(z) .. X_{n_max}(z).

    Returns (logs, signs) as Python lists; logs[n] = ln|X_n(z)| (-inf at an
    exact zero) and signs[n] is the unit sign or phase.  Reads only the
    coefficients these values need: indices 0 .. n_max - 1 (and 0 for
    n_max = 0), so a table determines X_n up to one past its last pair.
    """
    logs = []
    signs = []
    for n, u, v, ls, _ in _scaled_iter(src, z, second_kind=second_kind):
        for x in (u, v) if n + 1 == n_max else (u,):
            logs.append(ls + math.log(abs(x)) if x != 0 else -math.inf)
            signs.append(_phase(x))
        if n + 1 >= n_max:
            break
    return logs, signs


def values(src: CoefficientSource, z, n_max: int, second_kind: bool = False) -> list:
    """Plain values X_0(z) .. X_{n_max}(z); entries overflow honestly to inf."""
    logs, signs = log_table(src, z, n_max, second_kind=second_kind)
    return [_exp_signed(lg, sg) for lg, sg in zip(logs, signs)]


# When the two cross-identity products cancel below this fraction of their
# magnitude, the lost digits would breach the 1e-10 agreement contract and
# the forward-substitution route takes over.
_CANCEL_GUARD = 1e-4


def eval_q_assoc(src: CoefficientSource, z, m: int, n: int):
    """Associated polynomial Q_m^(n)(z).

    Zero for m <= n; for m > n computed through the cross identity
    Q_m^(n) = Q_m P_n - P_m Q_n (a polynomial identity, so valid at every z),
    combined at a shared exponent so huge intermediate magnitudes stay
    representable.  The identity is exact but cancellation-prone for adjacent
    large indices; entries losing more than ~4 digits are recomputed by
    forward substitution of the defining equations.
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    if m <= n:
        return 0.0 + 0.0j if isinstance(z, complex) else 0.0
    lp, sp = log_table(src, z, m)
    lq, sq = log_table(src, z, m, second_kind=True)
    e1 = lq[m] + lp[n]
    e2 = lp[m] + lq[n]
    top = max(e1, e2)
    if top == -math.inf:
        return 0.0 + 0.0j if isinstance(z, complex) else 0.0
    t1 = sq[m] * sp[n] * math.exp(e1 - top)
    t2 = sp[m] * sq[n] * math.exp(e2 - top)
    combo = t1 - t2
    if abs(combo) < _CANCEL_GUARD * (abs(t1) + abs(t2)):
        return q_assoc_forward(src, z, m, n)
    return _exp_signed(top, 1.0) * combo


def q_assoc_forward(src: CoefficientSource, z, m: int, n: int):
    """Q_m^(n)(z) by forward substitution of the defining equations.

    Starts from Q_n^(n) = 0, Q_{n+1}^(n) = 1/alpha_n and runs the plain
    recurrence over alpha_n .. alpha_{m-1}.  Quadratic cost over a block;
    retained as the independent route for checking eval_q_assoc.
    """
    if m <= n:
        return 0.0 + 0.0j if isinstance(z, complex) else 0.0
    alphas, betas = zip(*(src.coeffs(k) for k in range(n, m)))
    return plain_values(alphas, betas, z, m - n, second_kind=True)[-1]


@dataclass(frozen=True)
class GreenBlock:
    """Leading N x N block of the Green matrix, entries G[m, n] = Q_m^(n)(0)."""

    size: int
    entries: np.ndarray


def green_block(src: CoefficientSource, n_block: int) -> GreenBlock:
    """Strictly lower triangular Green block of size n_block.

    G is the unique strictly lower triangular right inverse of the Jacobi
    matrix; its entries are the associated polynomials at zero.  The fast
    cross-identity form fills the block; entries flagged for cancellation are
    recomputed by forward substitution.
    """
    if n_block < 2:
        raise ValueError("block size must be at least 2")
    p = np.array(values(src, 0.0, n_block - 1), dtype=float)
    qv = np.array(values(src, 0.0, n_block - 1, second_kind=True), dtype=float)
    t1 = np.outer(qv, p)
    t2 = np.outer(p, qv)
    g = np.tril(t1 - t2, k=-1)
    unstable = np.tril(np.abs(g) < _CANCEL_GUARD * (np.abs(t1) + np.abs(t2)), k=-1)
    for m, n in zip(*np.nonzero(unstable)):
        g[m, n] = q_assoc_forward(src, 0.0, int(m), int(n))
    return GreenBlock(size=n_block, entries=g)


def jacobi_block(src: CoefficientSource, n_block: int) -> np.ndarray:
    """Dense leading n_block x n_block block of the (shifted) Jacobi matrix."""
    t = np.zeros((n_block, n_block))
    for k in range(n_block):
        t[k, k] = src.beta(k) - src.shift
        if k + 1 < n_block:
            a = src.alpha(k)
            t[k, k + 1] = a
            t[k + 1, k] = a
    return t


def resolvent_identity_check(src: CoefficientSource, x: float, n_block: int) -> float:
    """Residual of P_*(x) = (I - x G)^{-1} P_*(0) on the leading block.

    Evaluates (I - x G) P_*(x) - P_*(0) componentwise and returns the largest
    deviation relative to the participating magnitudes.  Exactly zero at x = 0.
    """
    if n_block < 2:
        raise ValueError("block size must be at least 2")
    g = green_block(src, n_block).entries
    px = np.array(values(src, x, n_block - 1), dtype=float)
    p0 = np.array(values(src, 0.0, n_block - 1), dtype=float)
    gp = g @ px
    resid = px - x * gp - p0
    scale = np.abs(px) + abs(x) * (np.abs(g) @ np.abs(px)) + np.abs(p0)
    scale[scale == 0.0] = 1.0
    return float(np.max(np.abs(resid) / scale))


def recurrence_residuals(src: CoefficientSource, z, n_max: int,
                         second_kind: bool = False) -> list[float]:
    """Relative residuals of the three-term recurrence for n = 1 .. n_max.

    Reconstructs consecutive triples from the stored (log magnitude, sign)
    representation and forms |a_n X_{n+1} + (b_n - z) X_n + a_{n-1} X_{n-1}|
    divided by the sum of the three term magnitudes.  The shared-exponent
    combination keeps the check meaningful at any index.
    """
    logs, signs = log_table(src, z, n_max + 1, second_kind=second_kind)
    out = []
    a_prev = src.coeffs(0)[0]
    for n in range(1, n_max + 1):
        a_n, b_n = src.coeffs(n)
        w = b_n - z
        exps = [
            logs[n + 1] + (math.log(abs(a_n)) if a_n != 0 else -math.inf),
            logs[n] + (math.log(abs(w)) if w != 0 else -math.inf),
            logs[n - 1] + (math.log(abs(a_prev)) if a_prev != 0 else -math.inf),
        ]
        sgns = [signs[n + 1] * _phase(a_n), signs[n] * _phase(w),
                signs[n - 1] * _phase(a_prev)]
        top = max(exps)
        if top == -math.inf:
            out.append(0.0)
        else:
            terms = [s * math.exp(e - top) for e, s in zip(exps, sgns)]
            denom = sum(abs(t) for t in terms)
            out.append(abs(sum(terms)) / denom if denom > 0 else 0.0)
        a_prev = a_n
    return out


def plain_values(alphas, betas, z, n_max: int, second_kind: bool = False) -> list:
    """Unscaled recurrence values for generic numerics (floats, mpmath, complex).

    alphas/betas are raw coefficient sequences (already shifted if desired).
    Used by q_assoc_forward, the extended-precision verification path and test
    oracles; not overflow-safe.
    """
    if second_kind:
        vals = [0 * z, 1 / alphas[0]]
    else:
        vals = [1 + 0 * z, (z - betas[0]) / alphas[0]]
    for n in range(1, n_max):
        vals.append(((z - betas[n]) * vals[n] - alphas[n - 1] * vals[n - 1]) / alphas[n])
    return vals[: n_max + 1]
