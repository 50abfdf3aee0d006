import contextlib
import itertools
import math

import numpy as np
import pytest

import jacspec as js
from asc2_reference import (orthonormal_at_family_point,
                            second_kind_at_family_point, trace_reference)
from conftest import (TRACE_Q5_SHIFTED, W2_AT_A_Q5, W_AT_A_Q5,
                      WEYL_SHIFTED_03, WindowOnly, exact_kappa_tails,
                      mp_plain_recurrence)


def weyl(src, z, **kw):
    """The Weyl function w(z) = w_0(z), the first entry of a one-entry table."""
    return js.second_kind_values(src, z, 1, **kw).values[0]


def test_weyl_at_family_point(asc2_shifted):
    # shifted source at z = 0 is the unshifted matrix at x = a
    w = weyl(asc2_shifted, 0.0, gamma=0.5, atol=1e-14)
    assert w == pytest.approx(W_AT_A_Q5, abs=2e-14)
    closed = second_kind_at_family_point(js.QParams(0.5, 0.5), 0)
    assert w == pytest.approx(closed, abs=2e-14)


def test_weyl_positive_below_spectrum(asc2_shifted):
    for z in (-3.0, -1.0, 0.0, 0.3):
        assert weyl(asc2_shifted, z, gamma=0.5) > 0.0


def test_weyl_frozen_at_interior_point(asc2_shifted):
    w = weyl(asc2_shifted, 0.3, gamma=0.5, atol=1e-13)
    assert w == pytest.approx(WEYL_SHIFTED_03, rel=1e-12)


def test_weyl_matches_markov_limit(asc2_shifted):
    # -Q_50/P_50 approximates w at z = 0.3 to better than 1e-8
    w = weyl(asc2_shifted, 0.3, gamma=0.5, atol=1e-12)
    lp, sp = js.recurrence.log_table(asc2_shifted, 0.3, 50)
    lq, sq = js.recurrence.log_table(asc2_shifted, 0.3, 50, second_kind=True)
    markov = -(sq[50] * sp[50]) * math.exp(lq[50] - lp[50])
    assert abs(markov - w) <= 1e-8


def test_weyl_domain_validation(asc2_shifted):
    with pytest.raises(ValueError):
        weyl(asc2_shifted, 0.8, gamma=0.5)
    with pytest.raises(ValueError):
        weyl(asc2_shifted, 0.3)  # gamma required on the real axis


def test_weyl_rejects_tables():
    src = js.TableSource(alphas=[1.0] * 9, betas=[3.0] * 10)
    with pytest.raises(ValueError):
        weyl(src, 0.0, gamma=1.0)


def test_weyl_nonconvergence_budget(asc2_shifted):
    with pytest.raises(js.ConvergenceError) as exc:
        weyl(asc2_shifted, 0.3, gamma=0.5, atol=1e-13, max_terms=8)
    assert exc.value.terms == 8


def test_weyl_complex_off_axis(asc2_shifted):
    # complex z is exposed (uncertified path); consistency against the
    # ratio limit -Q_n/P_n deep in the recurrence
    z = complex(0.3, 0.4)
    w = weyl(asc2_shifted, z, atol=1e-13)
    lp, sp = js.recurrence.log_table(asc2_shifted, z, 60)
    lq, sq = js.recurrence.log_table(asc2_shifted, z, 60, second_kind=True)
    markov = -(sq[60] / sp[60]) * math.exp(lq[60] - lp[60])
    assert abs(w - markov) <= 1e-10 * abs(w)


def test_second_kind_complex_table(asc2_shifted):
    z = complex(-0.5, 1.0)
    table = js.second_kind_values(asc2_shifted, z, 6, atol=1e-12)
    w = weyl(asc2_shifted, z, atol=1e-13)
    assert table.values[0] == pytest.approx(w, rel=1e-10)
    # the component sequence must be square-summable: magnitudes decay
    mags = [abs(v) for v in table.values]
    assert mags[-1] < mags[0]


def test_second_kind_first_entry_is_weyl(asc2_shifted):
    table = js.second_kind_values(asc2_shifted, -0.4, 5, gamma=0.5)
    w = weyl(asc2_shifted, -0.4, gamma=0.5)
    assert table.values[0] == pytest.approx(w, rel=1e-12)


def test_second_kind_closed_form_w2(asc2_shifted):
    table = js.second_kind_values(asc2_shifted, 0.0, 3, gamma=0.5, atol=1e-14)
    assert table.values[2] == pytest.approx(W2_AT_A_Q5, rel=1e-12)
    closed = second_kind_at_family_point(js.QParams(0.5, 0.5), 2)
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
    kappas = js.kappa_sequence(asc2_shifted, 41)
    assert all(k > 0 for k in kappas)
    # the last five ratios, the decay window
    assert max(b / a for a, b in zip(kappas[-6:], kappas[-5:])) < 0.9
    sums = list(itertools.accumulate(kappas))
    assert sums == sorted(sums)


def test_kappa_first_is_weyl(asc2_shifted):
    kappas = js.kappa_sequence(asc2_shifted, 5)
    w = weyl(asc2_shifted, 0.0, gamma=0.5, atol=1e-14)
    assert kappas[0] == pytest.approx(w, rel=1e-12)


def test_kappa_closed_form(asc2_shifted):
    # kappa_n = (q/a)^n/(q;q)_n sum_{j>=n}(q;q)_j a^j for the ASC-II family
    params = js.QParams(0.5, 0.5)
    kappas = js.kappa_sequence(asc2_shifted, 12)
    for n in range(12):
        closed = second_kind_at_family_point(params, n) \
            * orthonormal_at_family_point(params, n)
        assert kappas[n] == pytest.approx(closed, rel=1e-11)


def test_kappa_monotone_ratio(asc2_shifted):
    kappas = js.kappa_sequence(asc2_shifted, 41)
    logs_p, _ = js.recurrence.log_table(asc2_shifted, 0.0, 41)
    ratios = [math.log(k) - 2.0 * logs_p[n] for n, k in enumerate(kappas)]
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
    w = weyl(asc2_shifted, 0.0, gamma=0.5)
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
    built = (list(eng.log_p), list(eng.sgn_p), list(eng.log_t),
             list(eng.sgn_t), list(eng.ratios))
    assert len(eng.ratios) == 898  # one ratio per pair of built terms
    with pytest.raises(js.ConvergenceError) as second:
        eng.ensure_terms(5000)
    assert str(second.value) == msg
    assert second.value.terms == 899
    eng.ensure_terms(899)  # the built prefix still serves
    assert (eng.log_p, eng.sgn_p, eng.log_t, eng.sgn_t, eng.ratios) == built


# Reference for the stored ratio list: the five-ratio window rebuilt from the
# term logs at every candidate stop, as the engine once did.
def _ref_ratio(eng, j):
    if eng.log_t[j] == -math.inf:
        return math.inf if eng.log_t[j + 1] > -math.inf else 0.0
    x = eng.log_t[j + 1] - eng.log_t[j]
    return math.inf if x > 709.0 else math.exp(x)


def _ref_find_stop(eng, atol, max_terms, min_terms=0):
    """(J, r_hat) as the per-candidate window finds it; None past the budget."""
    for j in range(max(min_terms, 5), max_terms):
        eng.ensure_terms(j + 2)
        if eng.log_t[j] == -math.inf:
            return j, 0.5
        r_hat = max(_ref_ratio(eng, i) for i in range(j - 5, j))
        if r_hat == 0.0:
            return j, 0.5
        if r_hat < 0.9 and eng.log_t[j] < 700.0 \
                and math.exp(eng.log_t[j]) < atol * (1.0 - r_hat) / r_hat:
            return j, r_hat
    return None


def _ref_backward_sums(eng, j_top, r_hat):
    spread = r_hat / (1.0 - r_hat)
    s = [1.0] * (j_top + 1)
    h = [0.0] * (j_top + 1)
    s[j_top] = 1.0 + 0.5 * spread
    h[j_top] = 0.5 * spread
    for n in range(j_top - 1, -1, -1):
        rho = eng.sgn_t[n + 1] * eng.sgn_t[n] * _ref_ratio(eng, n)
        s[n] = 1.0 + rho * s[n + 1]
        h[n] = abs(rho) * h[n + 1]
    return s, h


@pytest.mark.parametrize("q, a, shift", [(0.5, 0.5, 0.5), (0.3, 0.3, 0.0),
                                         (0.6, 0.3, 0.5), (0.7, 0.7, 0.0)])
def test_stored_ratios_match_the_per_candidate_window(q, a, shift):
    from jacspec.second_kind import TailSeriesEngine
    src = js.ASC2Source(q, a, shift)
    for z in (0.0, -0.7):
        eng = TailSeriesEngine(src, z)
        for atol in (1e-8, 1e-12, 1e-15):
            for min_terms in (0, 40, 200):
                ref = _ref_find_stop(eng, atol, 20000, min_terms)
                j, r_hat = eng.find_stop(atol, 20000, min_terms)
                assert (j, float.hex(r_hat)) == (ref[0], float.hex(ref[1]))
                got = eng.backward_sums(j + 16, r_hat)
                want = _ref_backward_sums(eng, j + 16, r_hat)
                assert [list(map(float.hex, v)) for v in got] \
                    == [list(map(float.hex, v)) for v in want]


def test_failing_kappa_build_matches_the_reference():
    # (0.9, 0.9, 0) never shows a window below the 0.9 cap, so without its
    # tail certificate the search walks to the coefficient horizon and
    # raises there
    from jacspec.second_kind import TailSeriesEngine
    src = WindowOnly(0.9, 0.9, 0.0)
    with pytest.raises(js.ConvergenceError) as got:
        js.kappa_sequence(src, 400)
    with pytest.raises(js.ConvergenceError) as want:
        _ref_find_stop(TailSeriesEngine(src, 0.0), 1e-12, 20000, min_terms=401)
    assert (str(got.value), got.value.terms) == (str(want.value), want.value.terms)
    assert got.value.terms == 5914


@pytest.mark.parametrize("q, a, shift, counts", [
    (0.5, 0.5, 0.5, (64, 70, 134, 262, 518, 832)),
    (0.3, 0.3, 0.0, (64, 70, 134, 262, 482)),
    (0.9, 0.9, 0.0, (64, 70, 134, 262, 361)),
    (0.4, 0.2, 0.3, (64, 70, 134, 262, 518, 645)),
])
def test_kappa_sequence_on_a_grown_engine_equals_a_fresh_build(q, a, shift,
                                                               counts):
    # the table keeps its entries, and each call computes only those past
    # them; they equal a build from 0, bit for bit.  A smaller count reads
    # the held prefix, which is not always a build of that count from 0: a
    # build's top few entries can differ by an ulp.
    from jacspec.second_kind import KappaTable
    src = js.ASC2Source(q, a, shift)
    table = KappaTable(src)
    for count in counts:
        grown = js.kappa_sequence(src, count, table=table)
        assert list(map(float.hex, grown)) == \
            list(map(float.hex, js.kappa_sequence(src, count)))
    assert len(table.kappas) == counts[-1]
    assert js.kappa_sequence(src, 10, table=table) == table.kappas[:10]


def test_threads_growing_one_engine_keep_one_table():
    # each build reads the held length and extends the table; without the
    # table's lock, racing builds appended the same entries again.  grow and
    # the rung walk take the same lock, so the capacity the bisection after
    # a failed build finds, and the ladder, are those of one thread
    import sys
    from concurrent.futures import ThreadPoolExecutor
    from jacspec.second_kind import KappaTable
    src = js.ASC2Source(0.5, 0.5, 0.5)
    want = list(map(float.hex, js.kappa_sequence(src, 200)))
    alone = KappaTable(src, max_terms=300)
    while alone.rung(len(alone.rungs)) is not None:
        pass
    builds = [lambda t, n=n: js.kappa_sequence(src, n, table=t)
              for n in (50, 120, 200, 200)]
    grows = [lambda t, n=n: t.grow(n) for n in (100, 400, 1000)] \
        + [lambda t, i=i: t.rung(i) for i in (2, 9)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            table = KappaTable(src)
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(lambda call: call(table), builds))
            assert list(map(float.hex, table.kappas)) == want
            table = KappaTable(src, max_terms=300)
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(lambda call: call(table), grows))
            while table.rung(len(table.rungs)) is not None:
                pass
            assert table.capacity == alone.capacity < 300
            assert table.kappas == alone.kappas
            assert table.rungs == alone.rungs
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("args, max_terms, failed, stop, capacity", [
    ((0.5, 0.5, 0.5), 58, 32, 39, 10),
    ((0.3, 0.3, 0.0), 37, 16, 22, 9),
    ((0.7, 0.7, 0.0), 100, 32, 54, 8),
])
def test_capacity_reads_the_stop_the_failed_build_found(args, max_terms,
                                                        failed, stop, capacity):
    # here the failed build's stop lies past its count and the sums from it
    # fail; smaller counts with that same stop build, so the capacity search
    # must look up to that stop, not only up to the failed count
    from jacspec.second_kind import KappaTable
    src = js.ASC2Source(*args)
    table = KappaTable(src, max_terms)
    with pytest.raises(js.ConvergenceError) as exc:
        js.kappa_sequence(src, failed, table=table)
    assert exc.value.stop == stop
    table._build(failed)
    assert table.capacity == capacity == len(table.kappas)
    js.kappa_sequence(src, capacity, max_terms=max_terms)
    with pytest.raises(js.ConvergenceError):
        js.kappa_sequence(src, capacity + 1, max_terms=max_terms)


@pytest.mark.parametrize("q, a, shift", [(0.5, 0.5, 0.5), (0.3, 0.3, 0.0),
                                         (0.9, 0.9, 0.0), (0.4, 0.2, 0.3)])
def test_every_entry_of_a_build_is_known_to_1e_15(q, a, shift):
    # a build tests only its last entry; h_n / S_n falls with n at z = 0,
    # so every entry below it must be known as well
    from jacspec.second_kind import TailSeriesEngine, _kappa_sums
    src = js.ASC2Source(q, a, shift)
    for count in (1, 5, 17, 64, 70, 134, 262, 361):
        s, h = _kappa_sums(TailSeriesEngine(src, 0.0), count, 20000, 0)
        assert max(hn / sn for sn, hn in zip(s[:count], h[:count])) <= 1e-15


@pytest.mark.parametrize("q, a, shift", [(0.5, 0.5, 0.5), (0.3, 0.3, 0.0)])
def test_find_stop_memo_is_order_independent(q, a, shift):
    # searches on one engine in any order: the stop found, and the error at
    # the budget, are those of a fresh search that scans every candidate
    from jacspec.second_kind import TailSeriesEngine
    src = js.ASC2Source(q, a, shift)
    eng = TailSeriesEngine(src, 0.0)
    rng = np.random.RandomState(61)
    for _ in range(60):
        atol = float(rng.choice([1e-8, 1e-12, 1e-15]))
        min_terms = int(rng.randint(0, 300))
        max_terms = int(rng.choice([30, 120, 20000]))
        ref = _ref_find_stop(TailSeriesEngine(src, 0.0), atol, max_terms,
                             min_terms)
        if ref is None:
            with pytest.raises(js.ConvergenceError) as exc:
                eng.find_stop(atol, max_terms, min_terms)
            assert exc.value.terms == max_terms
        else:
            j, r_hat = eng.find_stop(atol, max_terms, min_terms)
            assert (j, float.hex(r_hat)) == (ref[0], float.hex(ref[1]))


@pytest.mark.parametrize("q, a, shift, count, fails, budget", [
    (0.5, 0.5, 0.5, 830, False, 4500),
    (0.9, 0.9, 0.0, 400, True, 6500),  # the failing build above
])
def test_kappa_build_exp_calls(monkeypatch, q, a, shift, count, fails, budget):
    # each term ratio is formed once, when its term is built; rebuilding the
    # window at every candidate stop took 5,888 and 27,560 calls here (the
    # window alone decides: the certificate would let the second build pass)
    from jacspec import second_kind
    exp_cap = second_kind._exp_cap
    calls = []
    monkeypatch.setattr(second_kind, "_exp_cap",
                        lambda x: calls.append(x) or exp_cap(x))
    with pytest.raises(js.ConvergenceError) if fails else contextlib.nullcontext():
        js.kappa_sequence(WindowOnly(q, a, shift), count)
    assert len(calls) <= budget


@pytest.mark.parametrize("q, a, shift", [(0.5, 0.5, 0.5), (0.9, 0.9, 0.0)])
def test_w0_pairs_stand_beside_the_kappas(q, a, shift):
    # w_n(0) = kappa_n / P_n(0), kept as a signed mantissa and a power of two
    # for every entry of the table, whatever the builds that made it
    from jacspec.recurrence import log_table
    from jacspec.second_kind import KappaTable
    src = js.ASC2Source(q, a, shift)
    table = KappaTable(src)
    for count in (5, 41, 64, 100):
        js.kappa_sequence(src, count, table=table)
    assert len(table.w0_mant) == len(table.w0_exp) == len(table.kappas) == 100
    logs, signs = log_table(src, 0.0, 99)
    for n, k in enumerate(table.kappas):
        assert 1.0 <= abs(table.w0_mant[n]) <= 2.0
        assert math.copysign(1.0, table.w0_mant[n]) == signs[n]
        log_w = math.log(abs(table.w0_mant[n])) \
            + table.w0_exp[n] * math.log(2.0)
        assert log_w == pytest.approx(math.log(k) - logs[n], abs=1e-12)


def test_backward_sums_start_below_the_coefficient_horizon():
    # at q = a = 1e-12 the term ratios are about 1e-12 and the coefficients
    # reach 2^900 at n = 23: the stop comes at j = 5, and a sum started 16
    # past it raised at the horizon, though the first terms fix w(0).  The
    # sum now starts at the last index below the horizon
    src = js.ASC2Source(1e-12, 1e-12, 0.0)
    table = js.second_kind_values(src, 0.0, 1, gamma=1.0, atol=1e-13)
    p = mp_plain_recurrence(src, 0.0, 12)
    want = -sum(1 / (src.alpha(j) * p[j] * p[j + 1]) for j in range(11))
    assert table.values[0] == pytest.approx(float(want), rel=1e-15)
    assert table.tail_bounds[0] <= 1e-13


def test_trace_inverse_takes_the_certified_tail_where_the_window_fails():
    # at (0.9, 0.9, 0) no kappa window passes the 0.9 cap.  A source with no
    # certificate (WindowOnly) has no certified tail, so its ladder has no
    # rung, and the coefficient horizon ends it.  With the certificate, T_256
    # sums the held entries to where its remainder is below 1e-3 of
    # kappa_256 and adds that remainder: at most the certificate's own
    # 1.9e-10 bound on sum_{n >= 256} kappa_n, and it brackets tr J^{-1} =
    # sum 0.9^n = 10
    with pytest.raises(js.ConvergenceError, match="horizon at n = 5915"):
        js.trace_inverse(WindowOnly(0.9, 0.9, 0.0), 1e-8)
    src = js.ASC2Source(0.9, 0.9, 0.0)
    tr = js.trace_inverse(src, 1e-8)
    assert tr.terms == 256
    assert tr.tail_bound <= src.tail_certificate(256)[2] <= 1e-8
    assert tr.value <= 10.0 <= tr.value + tr.tail_bound + 1e-13


def _random_configs(count):
    import random
    rng = random.Random(3)
    configs = []
    for _ in range(count):
        q = rng.uniform(0.1, 0.97)
        a = q * rng.uniform(0.02, 1.0)
        configs.append((q, a, rng.uniform(-2.0, 0.99)))
    return configs


@pytest.mark.parametrize("params", _random_configs(24) + [
    (0.855, 0.28, 0.8664), (0.9082, 0.7804, 0.9631)])
def test_kappa_tails_are_never_below_the_exact_tail(params):
    # T_n sums the held entries, padded for their rounding, and adds the
    # certificate's remainder, so it is an upper bound; over these 104
    # rungs it reads 9e-14 to 1.2e-4 relative above the exact tail (and at
    # most 1e-3 and the pad, as the remainder is below 1e-3 kappa_n).  The
    # five-ratio window fell below it at (0.855, 0.28, 0.8664), by 0.58% at
    # n = 16, and at (0.9082, 0.7804, 0.9631), n = 32, by 5.2%, where only
    # the certificate at shift 0 bounds the source.  At q near 0.1 an
    # entry's rounding, a few ulps of the logs it is formed from, reaches
    # 6e-14 of it, and a pad of (M - n + 1) 2^-52 + 1e-15 alone left T_64
    # 1.4e-14 below the exact tail at the third configuration
    from jacspec.second_kind import KappaTable
    starts = (16, 32, 64, 128)
    table = KappaTable(js.ASC2Source(*params))
    for n, exact in zip(starts, exact_kappa_tails(table.src, starts)):
        tail = table.tail_upper(n)
        assert exact <= tail <= 1.0011 * exact, n


@pytest.mark.parametrize("shift", [0.0, 0.5, 0.9, -1.0])
@pytest.mark.parametrize("a_over_q", [1.0, 1 / 3, 1 / 20])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.85, 0.9, 0.95])
def test_trace_inverse_brackets_the_exact_trace(q, a_over_q, shift):
    # value <= tr (J - shift)^{-1} <= value + tail_bound, up to the rounding
    # of the sum (measured -2.9e-15 and +4.4e-16 relative at worst); the
    # decay-window total that KappaSequence.total_upper gave fell below the
    # trace in 176 of the 432 pairs of these configurations and the counts
    # 8, 16, ..., 256, by up to 16%
    ref = trace_reference(q, shift)
    tr = js.trace_inverse(js.ASC2Source(q, q * a_over_q, shift), 1e-8)
    assert tr.value + tr.tail_bound >= ref * (1.0 - 1e-13)
    assert tr.value <= ref * (1.0 + 1e-13)


def _kappas_through(table, src):
    return js.kappa_sequence(src, 10, table=table)


@pytest.mark.parametrize("call", [_kappas_through])
def test_an_engine_of_another_source_is_rejected(call):
    # the kappa store a caller passes is a KappaTable, which owns its z = 0
    # engine; one of (0.3, 0.3, 0) gave kappa_0 0.912... where the source's
    # is 1.422...; an equal source passes and gives a new table's values
    from jacspec.second_kind import KappaTable
    src = js.ASC2Source(0.5, 0.5, 0.5)
    other = KappaTable(js.ASC2Source(0.3, 0.3, 0.0))
    with pytest.raises(ValueError, match="^table must be a KappaTable of"):
        call(other, src)
    assert other.kappas == []
    assert call(KappaTable(js.ASC2Source(0.5, 0.5, 0.5)), src) == \
        call(None, src)


def test_a_table_of_another_source_is_rejected():
    # the trace of (0.3, 0.3, 0) is not that of (0.5, 0.5, 0.5); an equal
    # source passes and gives a new table's
    from jacspec.second_kind import KappaTable
    src = js.ASC2Source(0.5, 0.5, 0.5)
    other = KappaTable(js.ASC2Source(0.3, 0.3, 0.0))
    with pytest.raises(ValueError, match="^table must be a KappaTable of"):
        js.trace_inverse(src, 1e-8, table=other)
    assert other.kappas == []
    equal = KappaTable(js.ASC2Source(0.5, 0.5, 0.5))
    assert js.trace_inverse(src, 1e-8, table=equal) == \
        js.trace_inverse(src, 1e-8)


@pytest.mark.parametrize("args, size", [((0.95, 0.95, 0.0), 11489),
                                        ((0.99, 0.99, 0.0), 5242)])
def test_trace_first_leaves_the_table_a_plan_builds(args, size):
    # the trace walks the table's own ladder, so a table it grew before a
    # plan is the one the plan grows before it, bit for bit, and holds the
    # table the plan grows alone; when the trace doubled a count of its own
    # from 32, 5 entries of 11,489 differed at (0.95, 0.95, 0), and 8 at
    # (0.99, 0.99, 0).  There the trace needs the rung 4,096 (T_2048 is
    # 1.2e-5), past the plan's 2,048, where F_M(-R) overflows and no point
    # certifies; that rung's tail sums the entries to 5,242
    src = js.ASC2Source(*args)
    tables = []
    for trace_first in (True, False):
        ev = js.CharFnEvaluator(src)
        if trace_first:
            js.trace_inverse(src, 1e-8, table=ev._table)
        ev.plan_terms(900.0, 1e-12)
        if not trace_first:
            js.trace_inverse(src, 1e-8, table=ev._table)
        tables.append(list(map(float.hex, ev._table.kappas)))
    alone = js.CharFnEvaluator(src)
    alone.plan_terms(900.0, 1e-12)
    planned = list(map(float.hex, alone._table.kappas))
    assert tables[0] == tables[1]
    assert len(tables[0]) == size
    assert tables[0][:len(planned)] == planned
