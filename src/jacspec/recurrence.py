"""Three-term recurrence machinery.

Evaluates the orthonormal polynomials P_n(z) and the second-kind polynomials
Q_n(z) of a Jacobi coefficient source.  The pipeline's evaluation runs in a
scaled representation (a pair kept in a fixed magnitude window plus a log
scale, read out as log magnitude and sign/phase): family values can grow or
shrink geometrically or faster in n, and raw doubles overflow long before the
indices the spectral pipeline needs.  plain_values is the unscaled recurrence
over raw coefficient lists, for mpmath and test oracles.
"""

from __future__ import annotations

import math

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
    alpha_n is the coefficient of the step to X_{n+1}.  The pair, the first
    included, is renormalized whenever it leaves a safe magnitude window, so
    the iteration itself never overflows.  Coefficients come through
    _horizon_coeffs, which raises ConvergenceError at the first index n whose
    coefficients reach the 2^900 horizon.
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
        s = np.maximum(np.abs(u), np.abs(v))
        out = (s > _RESCALE_HI) | (s < _RESCALE_LO)
        if out.any():
            e = np.where(out, np.frexp(s)[1], 0)
            u = np.ldexp(u, -e)
            v = np.ldexp(v, -e)
            log_scale = log_scale + e * _LN2
        yield n, u, log_scale
        a_prev = a_n
        n += 1
        a_n, b_n = read(n)
        u, v = v, ((zs - b_n) * v - a_prev * u) / a_n


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


def plain_values(alphas, betas, z, n_max: int, second_kind: bool = False) -> list:
    """Unscaled recurrence values for generic numerics (floats, mpmath, complex).

    alphas/betas are raw coefficient sequences (already shifted if desired).
    Used by the mpmath identity checks of verify and by test oracles; not
    overflow-safe in float arithmetic.
    """
    if second_kind:
        vals = [0 * z, 1 / alphas[0]]
    else:
        vals = [1 + 0 * z, (z - betas[0]) / alphas[0]]
    for n in range(1, n_max):
        vals.append(((z - betas[n]) * vals[n] - alphas[n - 1] * vals[n - 1]) / alphas[n])
    return vals[: n_max + 1]
