import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacspec as js
from conftest import (P1_AT_A_Q5, P3_AT_A_Q5, Q2_AT_A_Q5, mp_plain_recurrence,
                      random_pd_table)
from jacspec.verify import (_green, _mp_coeffs, _mp_context, _mp_tables,
                            check_green_identity, check_resolvent_identity,
                            check_wronskian)


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


def _phase(x):
    if x == 0:
        return 1.0
    return x / abs(x) if isinstance(x, complex) else math.copysign(1.0, x)


def _log_abs(x):
    return math.log(abs(x)) if x != 0 else -math.inf


def recurrence_residuals(src, z, n_max, second_kind=False):
    """Relative residuals of the three-term recurrence, n = 1 .. n_max.

    Rebuilds each triple X_{n-1}, X_n, X_{n+1} from the (log magnitude,
    sign) entries of log_table and forms |a_n X_{n+1} + (b_n - z) X_n +
    a_{n-1} X_{n-1}| over the sum of the three term magnitudes, combined at
    a shared exponent so the residual means the same at any index.
    """
    logs, signs = js.recurrence.log_table(src, z, n_max + 1,
                                          second_kind=second_kind)
    out = []
    for n in range(1, n_max + 1):
        (a_prev, _), (a_n, b_n) = src.coeffs(n - 1), src.coeffs(n)
        w = b_n - z
        exps = [logs[n + 1] + _log_abs(a_n), logs[n] + _log_abs(w),
                logs[n - 1] + _log_abs(a_prev)]
        sgns = [signs[n + 1] * _phase(a_n), signs[n] * _phase(w),
                signs[n - 1] * _phase(a_prev)]
        top = max(exps)
        if top == -math.inf:
            out.append(0.0)
            continue
        terms = [s * math.exp(e - top) for e, s in zip(exps, sgns)]
        denom = sum(abs(t) for t in terms)
        out.append(abs(sum(terms)) / denom if denom > 0 else 0.0)
    return out


@pytest.mark.parametrize("z", [0.0, 0.4, -1.0, 2.7, complex(1.3, 0.7)])
def test_recurrence_residual_asc2(asc2_shifted, z):
    res = recurrence_residuals(asc2_shifted, z, 40)
    assert max(res) <= 1e-12
    res_q = recurrence_residuals(asc2_shifted, z, 40, second_kind=True)
    assert max(res_q) <= 1e-12


def test_recurrence_residual_random_tables():
    rng = np.random.RandomState(7)
    for _ in range(5):
        src = random_pd_table(rng, 30)
        for z in (0.0, -0.6, 1.1):
            res = recurrence_residuals(src, z, 25)
            assert max(res) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    alphas=st.lists(st.floats(0.05, 20.0), min_size=10, max_size=10),
    betas=st.lists(st.floats(-10.0, 10.0), min_size=10, max_size=10),
    z=st.floats(-5.0, 5.0),
)
def test_recurrence_residual_property(alphas, betas, z):
    src = js.TableSource(alphas=alphas, betas=betas)
    res = recurrence_residuals(src, z, 8)
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


# The Green block G[m, n] = Q_m^(n)(0) is built in mpmath by the verify
# suite (verify._green); at 53 bits it must match float64-level accuracy.

def _green53(src, n_block):
    ctx = _mp_context(0)
    alphas, betas = _mp_coeffs(src, n_block - 1, ctx)
    return alphas, _green(alphas, betas, n_block, ctx)[1]


def test_q_assoc_against_forward_substitution():
    # the Wronskian check compares the cross identity Q_m P_n - P_m Q_n with
    # forward substitution at z = 0, -0.7 and 0.4 for every n < m <= 12
    rng = np.random.RandomState(11)
    sources = [js.ASC2Source(q=0.5, a=0.5, shift=0.5),
               js.ASC2Source(q=0.3, a=0.3)]
    sources += [random_pd_table(rng, 14) for _ in range(4)]
    for src in sources:
        r = check_wronskian(*_mp_tables(src, 0)[:3])
        assert r.note == "m <= 12"
        assert r.passed and r.max_residual <= 1e-10


def test_q_assoc_cancellation_prone_entry_vs_mp():
    # deep adjacent indices on a strongly growing table: the cross products
    # cancel by many digits, so this pins the forward-substitution route of
    # the 53-bit Green block to an independent 50-digit evaluation
    rng = np.random.RandomState(11)
    for _ in range(2):
        src = random_pd_table(rng, 14)
    _, g = _green53(src, 12)
    p = mp_plain_recurrence(src, 0.0, 11, dps=50)
    q = mp_plain_recurrence(src, 0.0, 11, second_kind=True, dps=50)
    for (m, n) in ((11, 10), (11, 9), (10, 9), (11, 0), (6, 2)):
        ref = float(q[m] * p[n] - p[m] * q[n])
        assert float(g[m][n]) == pytest.approx(ref, rel=1e-11)


def test_q_assoc_at_zero_wronskian(asc2_shifted):
    # identity route vs direct forward solve at the Green-matrix point z = 0:
    # Q_2^(1)(0) = 1/alpha_1
    alphas, g = _green53(asc2_shifted, 4)
    assert float(g[2][1]) == pytest.approx(float(1 / alphas[1]), rel=1e-12)


def test_green_block_structure(asc2_shifted):
    _, g = _green53(asc2_shifted, 6)
    assert len(g) == 6 and all(len(row) == 6 for row in g)
    assert all(g[m][n] == 0 for m in range(6) for n in range(m, 6))


def test_green_block_first_column():
    src = js.ASC2Source(q=0.5, a=0.5, shift=0.5)
    _, g = _green53(src, 4)
    assert float(g[1][0]) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_green_right_inverse_interior(asc2_shifted):
    # interior rows only; the last row sees the truncation boundary
    r = check_green_identity(*_mp_tables(asc2_shifted, 0))
    assert r.note == "N = 12"
    assert r.passed and r.max_residual <= 1e-10


def test_green_right_inverse_random_table():
    rng = np.random.RandomState(3)
    src = random_pd_table(rng, 12)
    r = check_green_identity(*_mp_tables(src, 0))
    assert r.passed and r.max_residual <= 1e-11


def test_resolvent_identity_asc2(asc2_shifted):
    # gamma 1 puts x = 0.3 among the reconstruction points
    r = check_resolvent_identity(*_mp_tables(asc2_shifted, 0), gamma=1.0)
    assert r.passed and r.max_residual <= 1e-10


def test_resolvent_identity_random_table():
    rng = np.random.RandomState(5)
    src = random_pd_table(rng, 8)
    r = check_resolvent_identity(*_mp_tables(src, 0))
    assert r.passed and r.max_residual <= 1e-12


def test_coeff_reader_grown_from_threads_publishes_each_index_once():
    # eight threads grow one cache at once; appending without the lock put
    # some index twice, and every later one out of place
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from jacspec.recurrence import _coeff_reader
    src = js.ASC2Source(0.5, 0.5, 0.5)
    read = _coeff_reader(src)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda t: [read(n) for n in range(t, 800, 3)],
                                range(8)))
    finally:
        sys.setswitchinterval(interval)
    want = [src.coeffs(n) for n in range(800)]
    assert read.table == want
    assert got == [want[t:800:3] for t in range(8)]


def test_one_coefficient_table_per_source_object_from_threads():
    # eight threads that ask a fresh source for a reader at once all read
    # the one table the source keeps; eq, hash and repr ignore it, and
    # dataclasses.replace gives a new object with a table of its own
    import dataclasses
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from jacspec.recurrence import _coeff_reader
    src = js.ASC2Source(0.5, 0.5, 0.5)
    barrier = threading.Barrier(8)

    def reader(_):
        barrier.wait(timeout=30)
        return _coeff_reader(src)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(reader, range(8)))
    finally:
        sys.setswitchinterval(interval)
    table = got[0].table
    assert all(r.table is table for r in got)
    assert _coeff_reader(src).table is table
    got[3](5)
    twin = js.ASC2Source(0.5, 0.5, 0.5)
    assert (src, hash(src), repr(src)) == (twin, hash(twin), repr(twin))
    copy = dataclasses.replace(src)
    assert _coeff_reader(copy).table is not table
    assert _coeff_reader(copy).table == [] and len(table) == 6


def test_a_source_and_its_coefficient_table_free_without_the_gc():
    # the source keeps its table, not the reader that refers back to it: a
    # kept reader made a cycle that only the cyclic collector freed
    import gc
    import weakref
    gc.disable()
    try:
        src = js.ASC2Source(0.5, 0.5, 0.5)
        js.recurrence.log_table(src, 0.5, 50)
        js.CharFnEvaluator(src).eval(2.0)
        gone = weakref.ref(src)
        del src
        assert gone() is None
    finally:
        gc.enable()
