import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacspec as js
from conftest import (P1_AT_A_Q5, P3_AT_A_Q5, Q2_AT_A_Q5, mp_plain_recurrence,
                      random_pd_table)


def test_phat_initial_value(asc2_shifted):
    logs, signs = js.recurrence.log_table(asc2_shifted, 0.7, 0)
    assert (logs, signs) == ([0.0], [1.0])
    assert js.recurrence.values(asc2_shifted, 0.7, 0) == [1.0]


def test_phat_first_step():
    src = js.ASC2Source(q=0.5, a=0.5, shift=0.0)
    p1 = js.recurrence.values(src, 0.5, 1)[1]
    assert p1 == pytest.approx(P1_AT_A_Q5, rel=1e-14)


def test_phat_closed_form_third():
    src = js.ASC2Source(q=0.5, a=0.5, shift=0.0)
    p3 = js.recurrence.values(src, 0.5, 3)[3]
    assert p3 == pytest.approx(P3_AT_A_Q5, rel=1e-13)


def test_q_initial_values(asc2_shifted):
    assert js.recurrence.values(asc2_shifted, 0.7, 0, second_kind=True) == [0.0]
    q1 = js.recurrence.values(asc2_shifted, -2.0, 1, second_kind=True)[1]
    assert q1 == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_q_matches_tail_sum_formula():
    # Q_n(z) = (sum_{j<n} 1/(alpha_j P_j P_{j+1})) P_n(z), cross-checked
    src = js.ASC2Source(q=0.5, a=0.5, shift=0.0)
    z = 0.5
    p = js.recurrence.values(src, z, 3)
    alphas = [src.alpha(j) for j in range(2)]
    total = sum(1.0 / (alphas[j] * p[j] * p[j + 1]) for j in range(2))
    q2 = js.recurrence.values(src, z, 2, second_kind=True)[2]
    assert q2 == pytest.approx(total * p[2], rel=1e-13)
    assert q2 == pytest.approx(Q2_AT_A_Q5, rel=1e-13)


@pytest.mark.parametrize("z", [0.0, 0.4, -1.0, 2.7, complex(1.3, 0.7)])
def test_recurrence_residual_asc2(asc2_shifted, z):
    res = js.recurrence_residuals(asc2_shifted, z, 40)
    assert max(res) <= 1e-12
    res_q = js.recurrence_residuals(asc2_shifted, z, 40, second_kind=True)
    assert max(res_q) <= 1e-12


def test_recurrence_residual_random_tables():
    rng = np.random.RandomState(7)
    for _ in range(5):
        src = random_pd_table(rng, 30)
        for z in (0.0, -0.6, 1.1):
            res = js.recurrence_residuals(src, z, 25)
            assert max(res) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    alphas=st.lists(st.floats(0.05, 20.0), min_size=10, max_size=10),
    betas=st.lists(st.floats(-10.0, 10.0), min_size=10, max_size=10),
    z=st.floats(-5.0, 5.0),
)
def test_recurrence_residual_property(alphas, betas, z):
    src = js.TableSource(alphas=alphas, betas=betas)
    res = js.recurrence_residuals(src, z, 8)
    assert max(res) <= 1e-12


def test_scaled_matches_mp_oracle_beyond_float_range():
    # growth ~100x per step overflows raw doubles near n = 154; the scaled
    # representation must still agree with a 60-digit plain evaluation
    src = js.TableSource(alphas=[0.01] * 200, betas=[1.0] * 200)
    logs, signs = js.recurrence.log_table(src, 3.0, 190)
    ref = mp_plain_recurrence(src, 3.0, 190, dps=60)[190]
    import mpmath
    assert logs[190] == pytest.approx(float(mpmath.log(abs(ref))), rel=1e-12)
    assert signs[190] == mpmath.sign(ref)


def test_scaled_value_agrees_with_mp(asc2_shifted):
    for n in (5, 20, 60):
        p_n = js.recurrence.values(asc2_shifted, 0.3, n)[n]
        ref = float(mp_plain_recurrence(asc2_shifted, 0.3, n)[n])
        assert p_n == pytest.approx(ref, rel=1e-12)


def test_exact_zero_marker():
    # P_1(z) = (z - beta_0)/alpha_0 vanishes at z = beta_0
    src = js.TableSource(alphas=[1.0, 1.0, 1.0, 1.0], betas=[2.0, 3.0, 4.0, 5.0])
    logs, signs = js.recurrence.log_table(src, 2.0, 3)
    assert logs[1] == -math.inf
    assert signs[1] == 1.0  # the sign convention at an exact zero
    p = js.recurrence.values(src, 2.0, 3)
    assert p[1] == 0.0
    # the iteration continues past the zero: P_2 = -alpha_0/alpha_1
    assert p[2] == pytest.approx(-1.0, rel=1e-14)
    assert logs[2] == pytest.approx(0.0, abs=1e-15) and signs[2] == -1.0
    assert p[3] != 0.0


def test_q_assoc_trivial_cases(asc2_shifted):
    assert js.eval_q_assoc(asc2_shifted, 0.4, 2, 2) == 0.0
    assert js.eval_q_assoc(asc2_shifted, 0.4, 1, 3) == 0.0
    q1 = js.recurrence.values(asc2_shifted, 0.4, 1, second_kind=True)[1]
    assert js.eval_q_assoc(asc2_shifted, 0.4, 1, 0) == pytest.approx(q1, rel=1e-13)


def test_q_assoc_against_forward_substitution():
    rng = np.random.RandomState(11)
    sources = [js.ASC2Source(q=0.5, a=0.5, shift=0.5),
               js.ASC2Source(q=0.3, a=0.3)]
    sources += [random_pd_table(rng, 14) for _ in range(4)]
    for src in sources:
        for z in (0.0, -0.7, 0.4):
            for n in range(0, 11):
                for m in range(n + 1, 12):
                    a = js.eval_q_assoc(src, z, m, n)
                    b = js.q_assoc_forward(src, z, m, n)
                    scale = abs(a) + abs(b)
                    if scale > 0:
                        assert abs(a - b) / scale <= 1e-10


def test_q_assoc_cancellation_prone_entry_vs_mp():
    # deep adjacent indices on a strongly growing table: the cross products
    # cancel by ~15 digits, so this pins the fallback route to an independent
    # 50-digit evaluation
    rng = np.random.RandomState(11)
    for _ in range(2):
        src = random_pd_table(rng, 14)
    import mpmath
    for (m, n, z) in ((11, 10, -0.7), (11, 9, 0.0), (10, 9, 0.4)):
        got = js.eval_q_assoc(src, z, m, n)
        p = mp_plain_recurrence(src, z, m, dps=50)
        q = mp_plain_recurrence(src, z, m, second_kind=True, dps=50)
        ref = float(q[m] * p[n] - p[m] * q[n])
        assert got == pytest.approx(ref, rel=1e-11)


def test_q_assoc_at_zero_wronskian(asc2_shifted):
    # identity route vs direct forward solve at the Green-matrix point z = 0
    a = js.eval_q_assoc(asc2_shifted, 0.0, 2, 1)
    b = js.q_assoc_forward(asc2_shifted, 0.0, 2, 1)
    assert a == pytest.approx(b, rel=1e-12)


def test_green_block_structure(asc2_shifted):
    g = js.green_block(asc2_shifted, 6)
    assert g.shape == (6, 6)
    assert np.all(np.triu(g) == 0.0)  # strictly lower triangular


def test_green_block_first_column():
    src = js.ASC2Source(q=0.5, a=0.5, shift=0.5)
    g = js.green_block(src, 4)
    assert g[1, 0] == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_green_right_inverse_interior(asc2_shifted):
    n = 6
    g = js.green_block(asc2_shifted, n)
    t = js.jacobi_block(asc2_shifted, n)
    prod = t @ g
    resid = prod - np.eye(n)
    # interior rows only; the last row sees the truncation boundary
    assert np.max(np.abs(resid[: n - 1, :])) <= 1e-10 * max(1.0, np.max(np.abs(g)))


def test_green_right_inverse_random_table():
    rng = np.random.RandomState(3)
    src = random_pd_table(rng, 12)
    n = 8
    g = js.green_block(src, n)
    t = js.jacobi_block(src, n)
    resid = t @ g - np.eye(n)
    assert np.max(np.abs(resid[: n - 1, :])) <= 1e-11


def test_resolvent_identity_zero_at_origin(asc2_shifted):
    assert js.resolvent_identity_check(asc2_shifted, 0.0, 8) == 0.0


def test_resolvent_identity_asc2(asc2_shifted):
    assert js.resolvent_identity_check(asc2_shifted, 0.3, 12) <= 1e-10


def test_resolvent_identity_random_table():
    rng = np.random.RandomState(5)
    src = random_pd_table(rng, 8)
    assert js.resolvent_identity_check(src, 0.1, 5) <= 1e-12


def _forward_reference(src, z, m, n):
    """Forward substitution as its own loop: the reference for q_assoc_forward."""
    if m <= n:
        return 0.0 + 0.0j if isinstance(z, complex) else 0.0
    a_n, _ = src.coeffs(n)
    prev = 0.0 + 0.0j if isinstance(z, complex) else 0.0
    cur = 1.0 / a_n
    a_prev = a_n
    for k in range(n + 1, m):
        a_k, b_k = src.coeffs(k)
        prev, cur = cur, ((z - b_k) * cur - a_prev * prev) / a_k
        a_prev = a_k
    return cur


def test_q_assoc_forward_equals_reference_loop():
    rng = np.random.RandomState(19)
    sources = [js.ASC2Source(0.5, 0.5, 0.5), js.ASC2Source(0.3, 0.3, 0.0)]
    sources += [random_pd_table(rng, 14) for _ in range(4)]
    for src in sources:
        for z in (0.0, -0.7, 0.4, complex(1.3, 0.7)):
            for n in range(13):
                for m in range(n + 1, 14):
                    got = js.q_assoc_forward(src, z, m, n)
                    assert got == _forward_reference(src, z, m, n), (src, z, m, n)
