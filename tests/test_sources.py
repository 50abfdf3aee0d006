import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacspec import ASC2Source, TableSource
from jacspec.verify import check_coefficient_positivity


def test_asc2_coeffs_at_zero():
    src = ASC2Source(q=0.5, a=0.5, shift=0.0)
    alpha, beta = src.coeffs(0)
    assert alpha == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert beta == 1.5


def test_asc2_coeffs_with_shift():
    src = ASC2Source(q=0.5, a=0.5, shift=0.5)
    alpha, beta = src.coeffs(1)
    # alpha_1^2 = a q^-3 (1 - q^2) = 0.5 * 8 * 0.75 = 3
    assert alpha == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert beta == pytest.approx(2.5, abs=1e-15)


def test_table_lookup():
    src = TableSource(alphas=[1.0], betas=[2.0, 2.0])
    assert src.coeffs(0) == (1.0, 2.0)


def test_table_shift_applied():
    src = TableSource(alphas=[1.0, 1.0], betas=[2.0, 3.0, 4.0], shift=0.25)
    assert src.coeffs(1) == (1.0, 2.75)
    assert src.beta(2) == 4.0  # raw entry unshifted


def test_table_out_of_range():
    src = TableSource(alphas=[1.0], betas=[2.0, 2.0])
    with pytest.raises(IndexError):
        src.coeffs(1)
    with pytest.raises(ValueError):
        src.coeffs(-1)


def test_table_length_validation():
    with pytest.raises(ValueError):
        TableSource(alphas=[], betas=[1.0, 2.0])
    with pytest.raises(ValueError):
        TableSource(alphas=[1.0], betas=[2.0])


def test_table_positivity_not_enforced_at_construction():
    # the verify suite reports it; alpha_1 is the last off-diagonal of the
    # 3 x 3 block the table determines
    src = TableSource(alphas=[1.0, -0.5], betas=[2.0, 2.0, 2.0])
    r = check_coefficient_positivity(src)
    assert not r.passed
    assert r.note == "nonpositive off-diagonal at n in [1]"


def test_asc2_parameter_validation():
    with pytest.raises(ValueError):
        ASC2Source(q=1.2, a=0.5)
    with pytest.raises(ValueError):
        ASC2Source(q=0.5, a=-1.0)


def test_asc2_natural_gamma():
    assert ASC2Source(q=0.5, a=0.5, shift=0.5).natural_gamma == 0.5
    assert ASC2Source(q=0.3, a=0.3).natural_gamma == 1.0


def test_asc2_alpha_beyond_float_horizon_is_inf():
    src = ASC2Source(q=0.5, a=0.5)
    assert math.isinf(src.alpha(2000))


def test_coeffs_deterministic(asc2_shifted):
    assert asc2_shifted.coeffs(7) == asc2_shifted.coeffs(7)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(q=st.floats(1e-3, 0.999), a_frac=st.floats(1e-3, 1.0),
       shift=st.floats(-3.0, 0.999))
def test_tail_certificate_bounds_what_the_engine_computes(q, a_frac, shift):
    # wherever the closed forms give mu = sup mu_j < 1/4, the induction from
    # theta_0 = 1 bounds every term ratio, pivot and kappa entry the float64
    # engine computes, and every kappa tail sum; where they give none,
    # mu_j(x) = a (1 - qx)/((c - sx)(c - sqx)) reaches 1/4 on [0, 1]
    from jacspec.errors import ConvergenceError
    from jacspec.second_kind import KappaTable, kappa_sequence
    src = ASC2Source(q, q * a_frac, shift)
    c, a = 1.0 + src.a, src.a
    xs = np.linspace(0.0, 1.0, 20001)
    mu = float(np.max(a * (1.0 - q * xs) / ((c - shift * xs)
                                            * (c - shift * q * xs))))
    cert = src.tail_certificate(0)
    if cert is None:
        assert mu >= 0.25 * (1.0 - 1e-6)
        return
    r, theta, tail = cert
    assert mu / theta ** 2 <= r < 1.0
    table = KappaTable(src, max_terms=3000)
    eng = table.engine
    try:
        eng.ensure_terms(400)
    except ConvergenceError:
        pass  # the coefficient horizon: check the terms before it
    m = len(eng.log_t)
    assert max(eng.ratios[:m - 1]) <= r
    for j in range(m):  # d_j = alpha_j |P_{j+1}(0) / P_j(0)|
        alpha, b = eng.coeffs[j]
        assert math.log(alpha) + eng.log_p[j + 1] - eng.log_p[j] \
            >= math.log(theta * b)
    try:
        kappas = kappa_sequence(src, min(100, m - 2), table=table)
    except ConvergenceError:
        return  # no table within 3000 terms (q near 1)
    for n, k in enumerate(kappas):
        assert k <= 1.0 / ((1.0 - r) * theta * src.coeffs(n)[1])
    for start in (0, len(kappas) // 2):
        assert math.fsum(kappas[start:]) <= src.tail_certificate(start)[2]


def test_no_tail_certificate_near_shift_one():
    # at (0.9, 0.9, 0.999) mu_j exceeds 1/4 (0.2514 at q^j = 0.1), so the
    # pivots' induction does not close: the engine falls back on the ratio
    # window alone, as a source without the hook does
    from jacspec.second_kind import TailSeriesEngine
    src = ASC2Source(0.9, 0.9, 0.999)
    assert src.tail_certificate(0) is None
    assert TailSeriesEngine(src, 0.0)._cert_ratio == math.inf
    r, theta, _ = ASC2Source(0.9, 0.9, 0.0).tail_certificate(0)
    assert r == pytest.approx(0.9, rel=1e-7)  # r = a at shift 0
    assert theta == pytest.approx(1.0 / 1.9, rel=1e-7)
