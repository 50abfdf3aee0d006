import math

import numpy as np
import pytest

import jacspec as js
from conftest import (TRACE_Q5_SHIFTED, W2_AT_A_Q5, W_AT_A_Q5,
                      WEYL_SHIFTED_03)


def test_weyl_at_family_point(asc2_shifted):
    # shifted source at z = 0 is the unshifted matrix at x = a
    w = js.weyl(asc2_shifted, 0.0, gamma=0.5, atol=1e-14)
    assert w == pytest.approx(W_AT_A_Q5, abs=2e-14)
    closed = js.weyl_at_family_point(js.QParams(0.5, 0.5))
    assert w == pytest.approx(closed, abs=2e-14)


def test_weyl_positive_below_spectrum(asc2_shifted):
    for z in (-3.0, -1.0, 0.0, 0.3):
        assert js.weyl(asc2_shifted, z, gamma=0.5) > 0.0


def test_weyl_frozen_at_interior_point(asc2_shifted):
    w = js.weyl(asc2_shifted, 0.3, gamma=0.5, atol=1e-13)
    assert w == pytest.approx(WEYL_SHIFTED_03, rel=1e-12)


def test_weyl_matches_markov_limit(asc2_shifted):
    # -Q_50/P_50 approximates w at z = 0.3 to better than 1e-8
    w = js.weyl(asc2_shifted, 0.3, gamma=0.5, atol=1e-12)
    lp, sp = js.recurrence.log_table(asc2_shifted, 0.3, 50)
    lq, sq = js.recurrence.log_table(asc2_shifted, 0.3, 50, second_kind=True)
    markov = -(sq[50] * sp[50]) * math.exp(lq[50] - lp[50])
    assert abs(markov - w) <= 1e-8


def test_weyl_domain_validation(asc2_shifted):
    with pytest.raises(ValueError):
        js.weyl(asc2_shifted, 0.8, gamma=0.5)
    with pytest.raises(ValueError):
        js.weyl(asc2_shifted, 0.3)  # gamma required on the real axis


def test_weyl_rejects_tables():
    src = js.TableSource(alphas=[1.0] * 9, betas=[3.0] * 10)
    with pytest.raises(ValueError):
        js.weyl(src, 0.0, gamma=1.0)


def test_weyl_nonconvergence_budget(asc2_shifted):
    with pytest.raises(js.ConvergenceError) as exc:
        js.weyl(asc2_shifted, 0.3, gamma=0.5, atol=1e-13, max_terms=8)
    assert exc.value.partial is not None


def test_weyl_complex_off_axis(asc2_shifted):
    # complex z is exposed (uncertified path); consistency against the
    # ratio limit -Q_n/P_n deep in the recurrence
    z = complex(0.3, 0.4)
    w = js.weyl(asc2_shifted, z, atol=1e-13)
    lp, sp = js.recurrence.log_table(asc2_shifted, z, 60)
    lq, sq = js.recurrence.log_table(asc2_shifted, z, 60, second_kind=True)
    markov = -(sq[60] / sp[60]) * math.exp(lq[60] - lp[60])
    assert abs(w - markov) <= 1e-10 * abs(w)


def test_second_kind_complex_table(asc2_shifted):
    z = complex(-0.5, 1.0)
    table = js.second_kind_values(asc2_shifted, z, 6, atol=1e-12)
    w = js.weyl(asc2_shifted, z, atol=1e-13)
    assert table.values[0] == pytest.approx(w, rel=1e-10)
    # the component sequence must be square-summable: magnitudes decay
    mags = [abs(v) for v in table.values]
    assert mags[-1] < mags[0]


def test_second_kind_first_entry_is_weyl(asc2_shifted):
    table = js.second_kind_values(asc2_shifted, -0.4, 5, gamma=0.5)
    w = js.weyl(asc2_shifted, -0.4, gamma=0.5)
    assert table.values[0] == pytest.approx(w, rel=1e-12)


def test_second_kind_closed_form_w2(asc2_shifted):
    table = js.second_kind_values(asc2_shifted, 0.0, 3, gamma=0.5, atol=1e-14)
    assert table.values[2] == pytest.approx(W2_AT_A_Q5, rel=1e-12)
    closed = js.second_kind_at_family_point(js.QParams(0.5, 0.5), 2)
    assert table.values[2] == pytest.approx(closed, rel=1e-12)


def test_second_kind_two_routes(asc2_shifted):
    # tail series vs w(z) P_n(z) + Q_n(z), relative to participating magnitudes
    for z in (0.0, -1.0, 0.15):
        table = js.second_kind_values(asc2_shifted, z, 31, gamma=0.5, atol=1e-13)
        w = table.values[0]
        p = js.recurrence.values(asc2_shifted, z, 30)
        q = js.recurrence.values(asc2_shifted, z, 30, second_kind=True)
        for n in range(31):
            alt = w * p[n] + q[n]
            den = abs(w * p[n]) + abs(q[n]) + abs(table.values[n])
            assert abs(table.values[n] - alt) <= 1e-10 * den


def test_second_kind_tail_bounds_certified(asc2_shifted):
    from conftest import mp_plain_recurrence
    import mpmath

    table = js.second_kind_values(asc2_shifted, 0.0, 8, gamma=0.5, atol=1e-13)
    # independent high-precision tail series value for w_n(0)
    ctx = mpmath.mp.clone()
    ctx.dps = 40
    p = mp_plain_recurrence(asc2_shifted, 0.0, 140, dps=40)
    q, a = ctx.mpf('0.5'), ctx.mpf('0.5')
    alphas = [ctx.sqrt(a * q ** (-2 * j - 1) * (1 - q ** (j + 1)))
              for j in range(131)]
    for n in range(8):
        tail = ctx.fsum(1 / (alphas[j] * p[j] * p[j + 1])
                        for j in range(n, 130))
        ref = float(-tail * p[n])
        assert abs(table.values[n] - ref) <= table.tail_bounds[n] + 1e-13 * abs(ref)


def test_kappa_positive_and_decaying(asc2_shifted):
    seq = js.kappa_sequence(asc2_shifted, 41)
    assert all(k > 0 for k in seq.kappas)
    assert seq.decay_ratio < 0.9
    assert seq.partial_sums == sorted(seq.partial_sums)


def test_kappa_first_is_weyl(asc2_shifted):
    seq = js.kappa_sequence(asc2_shifted, 5)
    w = js.weyl(asc2_shifted, 0.0, gamma=0.5, atol=1e-14)
    assert seq.kappas[0] == pytest.approx(w, rel=1e-12)


def test_kappa_closed_form(asc2_shifted):
    # kappa_n = (q/a)^n/(q;q)_n sum_{j>=n}(q;q)_j a^j for the ASC-II family
    params = js.QParams(0.5, 0.5)
    seq = js.kappa_sequence(asc2_shifted, 12)
    for n in range(12):
        closed = js.second_kind_at_family_point(params, n) \
            * js.orthonormal_at_family_point(params, n)
        assert seq.kappas[n] == pytest.approx(closed, rel=1e-11)


def test_kappa_monotone_ratio(asc2_shifted):
    seq = js.kappa_sequence(asc2_shifted, 41)
    logs_p, _ = js.recurrence.log_table(asc2_shifted, 0.0, 41)
    ratios = [math.log(k) - 2.0 * logs_p[n] for n, k in enumerate(seq.kappas)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_kappa_detects_nonpositive_configuration():
    # beta shifted straight through zero makes the truncation indefinite
    src = js.ASC2Source(q=0.5, a=0.5, shift=2.0)
    with pytest.raises(js.AssumptionViolation):
        js.kappa_sequence(src, 10)


def test_trace_inverse_reference(asc2_shifted):
    tr = js.trace_inverse(asc2_shifted, 1e-8)
    assert tr.tail_bound <= 1e-8
    assert abs(tr.value + tr.tail_bound - TRACE_Q5_SHIFTED) <= 2e-8
    assert abs(tr.value - TRACE_Q5_SHIFTED) <= 1e-8 + tr.tail_bound


def test_trace_independent_series_oracle(asc2_shifted):
    # sum_n 1/(q^-n - a) recomputed directly
    ref = math.fsum(1.0 / (2.0 ** n - 0.5) for n in range(120))
    assert ref == pytest.approx(TRACE_Q5_SHIFTED, rel=1e-14)
    tr = js.trace_inverse(asc2_shifted, 1e-6)
    assert abs(tr.value - ref) <= 1e-6


def test_trace_budget_failure(asc2_shifted):
    with pytest.raises(js.ConvergenceError):
        js.trace_inverse(asc2_shifted, 1e-30, max_terms=64)


def test_trace_lower_bound_is_weyl(asc2_shifted):
    tr = js.trace_inverse(asc2_shifted, 1e-8)
    w = js.weyl(asc2_shifted, 0.0, gamma=0.5)
    assert tr.value >= w


def test_resolvent_diagonal_against_truncation(asc2_shifted):
    # w_n(z) P_n(z) equals the (n, n) resolvent entry of a deep truncation
    from scipy.linalg import solve_banded

    z = 0.15
    n_trunc = 400
    diag = np.array([asc2_shifted.beta(i) - asc2_shifted.shift
                     for i in range(n_trunc)]) - z
    off = np.array([asc2_shifted.alpha(i) for i in range(n_trunc - 1)])
    ab = np.zeros((3, n_trunc))
    ab[0, 1:] = off
    ab[1, :] = diag
    ab[2, :-1] = off
    table = js.second_kind_values(asc2_shifted, z, 11, gamma=0.5, atol=1e-14)
    p = js.recurrence.values(asc2_shifted, z, 11)
    for n in range(11):
        e = np.zeros(n_trunc)
        e[n] = 1.0
        col = solve_banded((1, 1), ab, e)
        assert table.values[n] * p[n] == pytest.approx(col[n], rel=1e-6)


def test_engine_keeps_the_horizon_error():
    # the scaled iteration is finished once it raises at the 2^900 horizon;
    # later calls must raise the same error, not StopIteration
    from jacspec.second_kind import TailSeriesEngine
    eng = TailSeriesEngine(js.ASC2Source(0.5, 0.5, 0.5), 0.0)
    with pytest.raises(js.ConvergenceError) as first:
        eng.ensure_terms(5000)
    msg = "coefficients exceed the working-precision horizon at n = 900"
    assert str(first.value) == msg
    assert first.value.terms == 899
    built = (list(eng.log_p), list(eng.sgn_p), list(eng.alphas),
             list(eng.log_t), list(eng.sgn_t))
    with pytest.raises(js.ConvergenceError) as second:
        eng.ensure_terms(5000)
    assert str(second.value) == msg
    assert second.value.terms == 899
    eng.ensure_terms(899)  # the built prefix still serves
    assert (eng.log_p, eng.sgn_p, eng.alphas, eng.log_t, eng.sgn_t) == built
