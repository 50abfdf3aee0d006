import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacspec as js
from asc2_reference import (asc2_orthonormal, asc2_series_vs_product,
                            orthonormal_at_family_point, qpoch_seq,
                            second_kind_at_family_point)
from conftest import P2_AT_A_Q5, QQ_INF
from jacspec.qseries import QParams, phi1_unit_argument


def test_qpoch_empty_product():
    assert qpoch_seq(0.7, 0.5, 0) == [1.0]


def test_qpoch_finite():
    assert qpoch_seq(0.5, 0.5, 2)[2] == 0.375


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_qpoch_infinite_frozen(q):
    assert js.qpoch_inf(q, q)[0] == pytest.approx(QQ_INF[q], rel=1e-14)


def test_qpoch_infinite_matches_mpmath():
    import mpmath
    for x, q in ((0.25, 0.5), (-1.7, 0.3), (0.9, 0.7)):
        ref = float(mpmath.qp(x, q))
        val, bound = js.qpoch_inf(x, q)
        assert val == pytest.approx(ref, rel=1e-13)
        assert abs(val - ref) <= bound + 1e-13 * abs(ref)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-3.0, 3.0), q=st.floats(0.05, 0.95),
       n=st.integers(0, 30))
def test_qpoch_recursion_property(x, q, n):
    # (x;q)_{n+1} = (x;q)_n (1 - x q^n) at working precision
    lhs = qpoch_seq(x, q, n + 1)[n + 1]
    rhs = qpoch_seq(x, q, n)[n] * (1.0 - x * q ** n)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
def test_pochhammer_shift_identity(q):
    lhs = js.qpoch_inf(q, q)[0]
    rhs = (1.0 - q) * js.qpoch_inf(q * q, q)[0]
    assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


def test_qparams_validation():
    with pytest.raises(ValueError):
        QParams(q=1.1, a=0.5)
    with pytest.raises(ValueError):
        QParams(q=0.5, a=0.0)


def test_determinacy_gate():
    from jacspec.qseries import require_certified_regime
    require_certified_regime(QParams(q=0.5, a=0.5))  # boundary a = q allowed
    with pytest.raises(js.AssumptionViolation):
        require_certified_regime(QParams(q=0.5, a=0.50001))
    with pytest.raises(js.AssumptionViolation):
        require_certified_regime(QParams(q=0.5, a=0.7))


def test_asc2_orthonormal_initial():
    p = QParams(q=0.5, a=0.5)
    assert asc2_orthonormal(p, 1.7, 0) == 1.0


def test_asc2_orthonormal_at_family_point():
    p = QParams(q=0.5, a=0.5)
    assert asc2_orthonormal(p, 0.5, 2) == pytest.approx(P2_AT_A_Q5, rel=1e-13)
    assert orthonormal_at_family_point(p, 2) == pytest.approx(P2_AT_A_Q5,
                                                              rel=1e-15)


def test_asc2_closed_sum_matches_recurrence():
    for q, a in ((0.5, 0.5), (0.5, 0.25), (0.3, 0.3)):
        params = QParams(q=q, a=a)
        src = js.ASC2Source(q=q, a=a, shift=0.0)
        for x in (-1.0, 0.0, 0.8, 1.7, 3.0):
            for n in (1, 5, 12, 25):
                closed = asc2_orthonormal(params, x, n)
                rec = js.recurrence.values(src, x, n)[n]
                assert closed == pytest.approx(rec, rel=1e-9, abs=1e-12)


def test_second_kind_closed_forms():
    import mpmath
    p = QParams(q=0.5, a=0.5)
    # w(a) = sum (q;q)_j a^j summed directly at high precision
    ref = float(mpmath.nsum(lambda j: mpmath.qp(0.5, 0.5, int(j)) * 0.5 ** j,
                            [0, mpmath.inf]))
    assert second_kind_at_family_point(p, 0) == pytest.approx(ref, rel=1e-13)


def test_phi1_closed_form_a_zero():
    lhs, rhs, gap = js.phi1_closed_form_check(0.0, 0.25, 0.5)
    assert gap <= 1e-12


def test_phi1_closed_form_a_qc():
    lhs, rhs, gap = js.phi1_closed_form_check(0.25, 0.5, 0.5)
    assert gap <= 1e-12


def test_phi1_closed_form_removable_singularity():
    lhs, rhs, gap = js.phi1_closed_form_check(0.5, 0.5, 0.5)
    assert gap <= 1e-10


def test_phi1_rejects_pole_c():
    with pytest.raises(ValueError):
        js.phi1_closed_form_check(0.3, 1.0, 0.5)
    with pytest.raises(ValueError):
        js.phi1_closed_form_check(0.3, 2.0, 0.5)


def test_phi1_functional_relation_random_grid():
    import numpy as np
    rng = np.random.RandomState(23)
    for q in (0.3, 0.5):
        for _ in range(12):
            a = float(rng.uniform(-0.8, 0.8))
            c = float(rng.uniform(0.05, 0.85))
            f_ac = 1.0 - (a - c) / (1.0 - c) * phi1_unit_argument(a, c, q)
            f_q = 1.0 - (q * a - q * c) / (1.0 - q * c) \
                * phi1_unit_argument(q * a, q * c, q)
            assert abs(f_ac - (1.0 - a) / (1.0 - c) * f_q) <= 1e-12


def test_qgauss_examples():
    q = 0.5
    assert js.qgauss_check(q, q, q ** 3, q)[2] <= 1e-12
    q = 0.3
    assert js.qgauss_check(q ** 2, q, q ** 4, q)[2] <= 1e-12


def test_qgauss_precondition():
    # |c/(ab)| >= 1 rejected
    with pytest.raises(ValueError):
        js.qgauss_check(0.5, 0.5, 0.25, 0.5)


def test_qbinomial_collapses_to_geometric():
    # u = q makes every coefficient 1, so the sum is 1/(1-z)
    lhs, rhs, gap = js.qbinomial_check(0.5, 0.5, 0.5)
    assert lhs == pytest.approx(2.0, rel=1e-13)
    assert rhs == pytest.approx(2.0, rel=1e-13)
    assert gap <= 1e-12


def test_qbinomial_at_zero():
    lhs, rhs, gap = js.qbinomial_check(0.7, 0.0, 0.5)
    assert lhs == 1.0 and rhs == 1.0


def test_qbinomial_u_zero():
    lhs, rhs, gap = js.qbinomial_check(0.0, 0.3, 0.5)
    ref = 1.0 / js.qpoch_inf(0.3, 0.5)[0]
    assert lhs == pytest.approx(ref, rel=1e-13)
    assert gap <= 1e-12


def test_qbinomial_domain():
    with pytest.raises(ValueError):
        js.qbinomial_check(0.5, 1.0, 0.5)


def test_w_factorization_entry_algebra():
    # (W W^T + I)_00 = a + 1 = beta_0 exactly
    p = QParams(q=0.5, a=0.5)
    assert js.w_factorization_check(p, 10) <= 1e-12


def test_w_factorization_off_bandwidth_zero():
    import numpy as np
    q, a, n = 0.5, 0.5, 8
    w = np.zeros((n, n))
    for k in range(n):
        w[k, k] = math.sqrt(a) * q ** (-0.5 * k)
        if k + 1 < n:
            w[k + 1, k] = q ** (-0.5 * (k + 1)) * math.sqrt(1 - q ** (k + 1))
    prod = w @ w.T
    for m in range(n):
        for k in range(n):
            if abs(m - k) >= 2:
                assert prod[m, k] == 0.0


def test_series_vs_product_trivial_point():
    p = QParams(q=0.5, a=0.5)
    series, product, gap, tail = asc2_series_vs_product(p, 0.5)
    assert series == pytest.approx(1.0, abs=1e-13)
    assert product == pytest.approx(1.0, abs=1e-15)


def test_series_vs_product_vanishing_factor():
    p = QParams(q=0.5, a=0.5)
    series, product, gap, tail = asc2_series_vs_product(p, 2.0)  # z = q^-1
    assert product == 0.0
    assert abs(series) <= tail + 1e-12


def test_series_vs_product_pochhammer_shift():
    p = QParams(q=0.5, a=0.5)
    series, product, gap, tail = asc2_series_vs_product(p, 0.25)
    assert product == pytest.approx(2.0, rel=1e-14)
    assert gap <= tail + 1e-10


def test_series_vs_product_rejects_indeterminate():
    with pytest.raises(js.AssumptionViolation):
        asc2_series_vs_product(QParams(q=0.5, a=0.7), 0.3)


def test_spectrum_product_reference_shift_identity():
    # (0.25;q)inf/(0.5;q)inf = 1/(1-q) = 2 at q = 0.5
    val = js.spectrum_product_reference(-0.25, 0.5, shift=0.5)
    assert val == pytest.approx(2.0, rel=1e-14)


def test_spectrum_product_reference_grid_matches_scalar():
    # the array form divides by one (shift; q)_inf, computed once
    zs = np.linspace(-1.0, 250.0, 41)
    got = js.spectrum_product_reference(zs, 0.5, shift=0.5)
    assert list(map(float.hex, got)) == \
        [js.spectrum_product_reference(z, 0.5, shift=0.5).hex() for z in zs.tolist()]


# points of both signs, stopping after few or many factors, beyond the float
# range in the product (1e300), and nan (no factor at all)
_PRODUCT_POINTS = np.array([-1e300, -1e10, -3.0, -0.5, 0.0, 0.25, 1.5, 1e5,
                            1e200, math.nan])


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.999])
@pytest.mark.parametrize("shift", [0.0, 0.5, -3.0])
def test_vectorized_product_equals_scalar_qpoch(q, shift):
    # one masked product over the grid, each point with its own stop, and
    # no RuntimeWarning where the scalar product overflows quietly
    xs = _PRODUCT_POINTS
    if q > 0.99:  # the factor cap binds beyond |x| = 1e25 (see below)
        xs = xs[~(abs(xs) > 1e20)]
    got = js.spectrum_product_reference(xs, q, shift)
    den = js.qpoch_inf(shift, q)[0]
    assert list(map(float.hex, got)) == \
        [float.hex(js.qpoch_inf(x + shift, q)[0] / den) for x in xs.tolist()]


def test_vectorized_product_is_nan_where_the_scalar_bound_raises():
    # the 100,001-factor cap stops |x| = 1e5 early at q = 0.9999, and 1e200
    # at q = 0.999, where the bound's expm1 overflows: the scalar form
    # raises, and the array form, which raised too, is nan there and keeps
    # the bits of every other point; 1e-3 is capped too at q = 0.9999, with
    # a finite bound
    for x, q in ((1e5, 0.9999), (1e200, 0.999)):
        with pytest.raises(OverflowError):
            js.qpoch_inf(x, q)
        got = js.spectrum_product_reference(np.array([1e-3, x, -2.0]), q)
        assert math.isnan(got[1])
        assert [got[0], got[2]] == [js.spectrum_product_reference(v, q)
                                    for v in (1e-3, -2.0)]
    # a denominator with no bound (shift 0.5 at q = 0.99999) leaves no
    # point with a value
    with pytest.raises(OverflowError):
        js.qpoch_inf(0.5, 0.99999)
    got = js.spectrum_product_reference(np.array([1e-3, -2.0]), 0.99999, 0.5)
    assert all(math.isnan(v) for v in got)
    with pytest.raises(ValueError, match="q must lie in"):
        js.spectrum_product_reference(np.array([1.0]), 1.0)


def test_qpoch_seq_prefix():
    seq = qpoch_seq(0.5, 0.5, 3)
    assert seq == [1.0, 0.5, 0.375, 0.328125]
