"""Shared fixtures and independent oracle helpers for the test suite."""

import pytest

from jacspec import (ASC2Source, CharFnEvaluator, CoefficientSource,
                     TableSource, charfn_ratio)


class ZeroAtTwo(CoefficientSource):
    """alpha_n = 1, beta = (2, 0.5, 2, 2, ...): P_2(0) = 2 beta_1 - 1 = 0."""

    def alpha(self, n):
        return 1.0

    def beta(self, n):
        return 0.5 if n == 1 else 2.0


class WindowOnly(ASC2Source):
    """ASC2Source without its a-priori tail certificate, so the observed
    five-ratio window alone decides every tail, as for a source with no
    closed form: at (0.9, 0.9, 0) no window passes the 0.9 cap."""

    def tail_certificate(self, start):
        return None


def grid_rows(ev, zs, atol, n_max):
    """The report sweep's columns of ev._grid(zs, atol, n_max), one row per
    point: value, tail bound, term count, certified flag and ratio, floats
    as float.hex."""
    values, plans, ratios = ev._grid(zs, atol, n_max)
    return [(float.hex(v), float.hex(p.tail_bound), p.n_terms, p.certified,
             float.hex(r)) for v, p, r in zip(values, plans, ratios)]


def scalar_rows(src, zs, atol, n_max, max_terms=20000):
    """grid_rows from the scalar paths: eval on one fresh evaluator, point by
    point, and charfn_ratio."""
    ev = CharFnEvaluator(src, max_terms)
    rows = []
    for z in zs:
        v = ev.eval(z, atol)
        rows.append((float.hex(v.value), float.hex(v.tail_bound), v.terms_used,
                     v.certified, float.hex(charfn_ratio(src, z, n_max).value)))
    return rows


@pytest.fixture
def asc2_shifted():
    """ASC-II q = a = 0.5 shifted by a (the main certified configuration)."""
    return ASC2Source(q=0.5, a=0.5, shift=0.5)


@pytest.fixture
def asc2_plain():
    return ASC2Source(q=0.5, a=0.5, shift=0.0)


@pytest.fixture
def marked_builds(monkeypatch):
    """Scale the kappas of every evaluator build by 1 + count 2^-40.

    A rebuilt table could differ from an earlier one in its last bits; the
    mark makes each entry show which build it came from, so any mix of table
    versions changes the results.  Every build is a kappa_sequence call,
    which computes the entries past those its table holds through
    second_kind._kappa_entries.
    """
    from jacspec import second_kind
    orig = second_kind._kappa_entries

    def marked(engine, start, count, max_terms):
        kappas = orig(engine, start, count, max_terms)
        return [k * (1.0 + count * 2.0 ** -40) for k in kappas]

    monkeypatch.setattr(second_kind, "_kappa_entries", marked)


def random_pd_table(rng, n, shift=0.0):
    """Random positive-definite tridiagonal table via J = W W^T + d I.

    W is lower bidiagonal with positive entries, so the off-diagonals of
    W W^T are positive and the matrix is positive definite by construction.
    """
    diag_w = rng.uniform(0.4, 1.6, size=n)
    sub_w = rng.uniform(0.2, 1.2, size=n - 1)
    d = rng.uniform(0.1, 0.7)
    betas = diag_w ** 2 + d
    betas[1:] += sub_w ** 2
    alphas = sub_w * diag_w[:-1]
    return TableSource(alphas=alphas, betas=betas, shift=shift)


def mp_plain_recurrence(src, z, n_max, second_kind=False, dps=40):
    """Plain-arithmetic recurrence values at dps digits (independent route).

    Rebuilds the coefficients from the source parameters inside mpmath, so the
    only shared ingredient with the production path is the parameter values.
    """
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    if isinstance(src, ASC2Source):
        q, a, sh = ctx.mpf(src.q), ctx.mpf(src.a), ctx.mpf(src.shift)
        alphas = [ctx.sqrt(a * q ** (-2 * n - 1) * (1 - q ** (n + 1)))
                  for n in range(n_max + 1)]
        betas = [(a + 1) * q ** (-n) - sh for n in range(n_max + 1)]
    else:
        alphas = [ctx.mpf(x) for x in src.alphas]
        betas = [ctx.mpf(x) - ctx.mpf(src.shift) for x in src.betas]
    zv = ctx.mpf(z) if not isinstance(z, complex) else ctx.mpc(z)
    if second_kind:
        vals = [ctx.mpf(0), 1 / alphas[0]]
    else:
        vals = [ctx.mpf(1), (zv - betas[0]) / alphas[0]]
    for n in range(1, n_max):
        vals.append(((zv - betas[n]) * vals[n] - alphas[n - 1] * vals[n - 1])
                    / alphas[n])
    return vals[: n_max + 1]


# frozen reference values, computed with the mpmath oracles at 40 digits
W_AT_A_Q5 = 1.4224238098267952        # w(a) = sum (q;q)_j a^j, q = a = 0.5
W2_AT_A_Q5 = 0.28156690238822139      # w_2(a) closed form, q = a = 0.5
TRACE_Q5_SHIFTED = 3.2133903048305835  # sum 1/(2^n - 0.5)
WEYL_SHIFTED_03 = 3.2203136694290691  # w(0.3) for the a-shifted source
P1_AT_A_Q5 = -1.4142135623730951      # -(q/a)^(1/2)/sqrt((q;q)_1)
P2_AT_A_Q5 = 1.6329931618554521       # 1/sqrt((q;q)_2)
P3_AT_A_Q5 = -1.745743121887939       # -1/sqrt((q;q)_3)
Q2_AT_A_Q5 = -2.0412414523193151      # Q_2(0.5), sigma = 0 recurrence
QQ_INF = {0.3: 0.6126481542132565, 0.5: 0.2887880950866024,
          0.7: 0.04231589738463538}   # (q;q)_inf
EIG2X2 = (1.2192235935955849, 3.2807764064044151)  # 2x2 truncation, sigma = 0
