import math

import pytest

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
