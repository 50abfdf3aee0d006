import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacspec as js
from asc2_reference import hadamard_product
from conftest import WindowOnly, grid_rows, scalar_rows
from jacspec.recurrence import _coeff_reader


def combined_bound(*vals):
    return sum(v.tail_bound + v.noise_estimate for v in vals)


def pochhammer_ratio(z, q, a):
    """ASC-II closed form F(z - a) = (z; q)_inf / (a; q)_inf."""
    return js.qpoch_inf(z, q)[0] / js.qpoch_inf(a, q)[0]


def test_partial_sum_at_origin(asc2_shifted):
    v = js.CharFnEvaluator(asc2_shifted).eval(0.0)
    assert v.value == 1.0
    assert v.tail_bound == 0.0
    assert v.certified


def test_ratio_at_origin(asc2_shifted):
    assert js.charfn_ratio(asc2_shifted, 0.0).value == 1.0


def test_partial_sum_pochhammer_point(asc2_shifted):
    # F(q^2 - a) = (q^2; q)inf / (q; q)inf = 1/(1-q) = 2 exactly
    v = js.CharFnEvaluator(asc2_shifted).eval(-0.25, 1e-13)
    assert v.certified
    assert abs(v.value - 2.0) <= v.tail_bound + v.noise_estimate + 1e-12


def test_partial_sum_vanishes_at_eigenvalue(asc2_shifted):
    # z = 1 - a is the smallest eigenvalue of the shifted operator
    v = js.CharFnEvaluator(asc2_shifted).eval(0.5, 1e-13)
    assert abs(v.value) <= v.tail_bound + v.noise_estimate + 1e-12


def test_ratio_limit_example(asc2_shifted):
    v = js.charfn_ratio(asc2_shifted, -0.25, n_max=80)
    assert v.value == pytest.approx(2.0, abs=1e-9)
    assert not v.certified
    assert v.method == "ratio_limit"


def test_partial_sum_uncertified_flag(asc2_shifted):
    # z = 30 needs ~150 certified terms; an 80-term budget cannot reach atol
    v = js.CharFnEvaluator(asc2_shifted, max_terms=80).eval(30.0, atol=1e-12)
    assert not v.certified
    assert v.terms_used <= 80


@pytest.mark.parametrize("qa", [(0.3, 0.3), (0.5, 0.5), (0.7, 0.7)])
def test_cross_method_agreement(qa):
    q, a = qa
    src = js.ASC2Source(q=q, a=a, shift=a)
    ev = js.CharFnEvaluator(src)
    for z in np.linspace(-4.0, 4.0, 9):
        ps = ev.eval(float(z), 1e-8)
        rt = js.charfn_ratio(src, float(z), n_max=400)
        assert abs(ps.value - rt.value) <= combined_bound(ps, rt)


def test_cross_method_agreement_complex(asc2_shifted):
    ev = js.CharFnEvaluator(asc2_shifted)
    for z in (complex(1.0, 2.0), complex(-2.0, -1.5), complex(0.0, 3.0)):
        ps = ev.eval(z, 1e-9)
        rt = js.charfn_ratio(asc2_shifted, z, n_max=400)
        assert abs(ps.value - rt.value) <= combined_bound(ps, rt)


def test_partial_sum_complex_vs_hadamard(asc2_shifted):
    # independent route at complex z: the eigenvalue product over the known
    # closed-form spectrum 2^n - 1/2
    eigs = [2.0 ** n - 0.5 for n in range(60)]
    ev = js.CharFnEvaluator(asc2_shifted)
    for z in (complex(1.5, 2.0), complex(-2.0, -1.5), complex(0.0, 3.0)):
        ps = ev.eval(z, 1e-12)
        hp = hadamard_product(eigs, z)
        bound = ps.tail_bound + ps.noise_estimate + hp.tail_bound + 1e-12
        assert abs(ps.value - hp.value) <= bound


def test_closed_form_grid(asc2_shifted):
    # F(z - a) matches (z; q)inf/(a; q)inf across [-2, 3]
    ev = js.CharFnEvaluator(asc2_shifted)
    for z in np.linspace(-2.0, 3.0, 21):
        v = ev.eval(float(z) - 0.5, 1e-12)
        ref = pochhammer_ratio(float(z), 0.5, 0.5)
        assert abs(v.value - ref) <= v.tail_bound + v.noise_estimate + 1e-12


def test_per_term_bound_on_grid(asc2_shifted):
    # |w_n(0) P_n(z)| = kappa_n |g_n(z)| <= kappa_n U(R), R the power of two
    # above |z|: the per-term majorant of F's certificate
    ev = js.CharFnEvaluator(asc2_shifted)
    ev._table.grow(60)
    table = ev._table
    for z in (-2.0, 1.0, 3.5, complex(1.0, 1.0)):
        u = ev._majorant(math.ldexp(1.0, math.frexp(abs(z))[1]))
        logs_z, _ = js.recurrence.log_table(asc2_shifted, z, 59)
        for n in range(60):
            lhs = (math.log(abs(table.w0_mant[n]))
                   + table.w0_exp[n] * math.log(2.0) + logs_z[n])
            rhs = math.log(u) + math.log(table.kappas[n])
            assert lhs <= rhs + 1e-10


def test_entire_order_bound(asc2_shifted):
    # |F(z)| <= exp(C |z|) with C = 2 sum kappa on the test grid, sum kappa
    # bounded by the certified trace
    ev = js.CharFnEvaluator(asc2_shifted)
    tr = js.trace_inverse(asc2_shifted, 1e-8)
    c = 2.0 * (tr.value + tr.tail_bound)
    for z in np.linspace(-4.0, 4.0, 17):
        v = ev.eval(float(z), 1e-10)
        assert abs(v.value) <= math.exp(c * abs(z)) * (1.0 + 1e-9)


def test_eval_noise_estimate_is_honest(asc2_shifted):
    # closed form gives the true value; the reported error terms must cover
    # the actual deviation on a wide grid
    ev = js.CharFnEvaluator(asc2_shifted)
    for z in np.linspace(-3.5, 3.5, 29):
        v = ev.eval(float(z), 1e-9)
        ref = js.spectrum_product_reference(float(z), 0.5, 0.5)
        assert abs(v.value - ref) <= v.tail_bound + v.noise_estimate + 1e-13


def test_hadamard_trivial_points():
    v = hadamard_product([2.0], 0.0)
    assert v.value == 1.0
    v = hadamard_product([2.0], 2.0)
    assert v.value == 0.0


def test_hadamard_matches_pochhammer(asc2_shifted):
    eigs = [2.0 ** n - 0.5 for n in range(40)]
    v = hadamard_product(eigs, -0.25)
    assert v.certified
    assert abs(v.value - 2.0) <= v.tail_bound + 1e-12


def test_hadamard_validation():
    with pytest.raises(ValueError):
        hadamard_product([1.0, 1.0], 0.5)
    with pytest.raises(ValueError):
        hadamard_product([-1.0, 2.0], 0.5)


def test_hadamard_uncertified_without_ratio():
    v = hadamard_product([2.0], 1.0)
    assert not v.certified
    assert v.tail_bound == math.inf


def test_hadamard_explicit_tail_ratio():
    v = hadamard_product([2.0], 1.0, tail_ratio=0.5)
    assert v.certified
    assert v.tail_bound < math.inf


def test_qpochhammer_reference_values():
    assert pochhammer_ratio(0.5, 0.5, 0.5) == 1.0
    assert pochhammer_ratio(2.0, 0.5, 0.5) == 0.0  # z = q^-1 hits a factor
    assert pochhammer_ratio(0.25, 0.5, 0.5) == pytest.approx(2.0, rel=1e-14)
    # the shifted closed form is the same ratio at z = x + a
    for x in (-1.5, -0.25, 0.0, 1.5, 2.75):
        assert js.spectrum_product_reference(x, 0.5, 0.5) == \
            pochhammer_ratio(x + 0.5, 0.5, 0.5)


def test_ratio_rejects_nonpositive_definite():
    src = js.ASC2Source(q=0.5, a=0.5, shift=2.0)
    # P_n(0) changes sign pattern; a zero on the path raises, a sign flip is
    # caught by the kappa machinery instead, so only check the table gate here
    tbl = js.TableSource(alphas=[1.0] * 9, betas=[2.0] * 10)
    with pytest.raises(ValueError):
        js.charfn_ratio(tbl, 0.5)


@pytest.mark.parametrize("z", [2.5, 0.0], ids=["scalar", "origin"])
def test_ratio_rejects_a_negative_n_max(asc2_shifted, z):
    # no step meets n == -1: charfn_ratio stepped to the coefficient horizon
    # (ConvergenceError at n = 900 here), and on a source without one
    # would never return
    with pytest.raises(ValueError, match="^n_max must be nonnegative"):
        js.charfn_ratio(asc2_shifted, z, n_max=-1)


def test_evaluator_reuse_consistency(asc2_shifted):
    ev = js.CharFnEvaluator(asc2_shifted)
    v1 = ev.eval(1.2, 1e-10)
    v2 = js.CharFnEvaluator(asc2_shifted).eval(1.2, 1e-10)
    assert v1.value == pytest.approx(v2.value, rel=1e-14)


def test_evaluator_shared_across_threads(asc2_shifted):
    # warmed-up tables are read-only; parallel grid evaluation must match the
    # serial result bit for bit
    import sys
    from concurrent.futures import ThreadPoolExecutor

    zs = [float(z) for z in np.linspace(-3.0, 3.0, 16)] + [30.0, 60.0, 120.0]
    ev = js.CharFnEvaluator(asc2_shifted)
    ev.eval(max(zs, key=abs), 1e-12)  # warm up the kappa table
    serial = [ev.eval(z, 1e-12).value for z in zs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda z: ev.eval(z, 1e-12).value, zs))
    assert serial == parallel

    # concurrent growth from a cold evaluator must also be safe, and give the
    # same values: the append-only table never changes a published entry
    cold = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            grown = list(pool.map(lambda z: cold.eval(z, 1e-12).value, zs))
    finally:
        sys.setswitchinterval(interval)
    assert grown == serial
    assert len(cold._table.w0_mant) == len(cold._table.w0_exp) \
        == len(cold._table.kappas)
    # the engine and every eval thread grew the source's one coefficient
    # table: each index was published once, in its place
    table = _coeff_reader(cold.src).table
    assert len(table) > len(cold._table.kappas)
    assert table == [asc2_shifted.coeffs(i) for i in range(len(table))]


@pytest.mark.parametrize("args", [(0.5, 0.5, 0.5), (0.3, 0.3, 0.0)])
def test_eval_independent_of_earlier_evaluations(args):
    src = js.ASC2Source(*args)
    fresh = js.CharFnEvaluator(src)
    expected = [fresh.eval(z) for z in (1.0, 30.0, 120.0)]
    used = js.CharFnEvaluator(src)
    used.eval(200.0, 1e-30)
    used.eval(250.0)
    got = [used.eval(z) for z in (1.0, 30.0, 120.0)]
    assert got == expected
    assert all(v.certified for v in got)


@pytest.mark.parametrize("args", [(0.5, 0.5, 0.5), (0.3, 0.3, 0.0)])
def test_eval_independent_of_table_growth_with_marked_builds(marked_builds, args):
    # every build is marked by its size, so reading an entry from any build
    # but the first to reach it shows in the value bits
    src = js.ASC2Source(*args)
    zs = (1.0, 30.0, 120.0)
    expected = [js.CharFnEvaluator(src).eval(z) for z in zs]
    used = js.CharFnEvaluator(src)
    used.eval(250.0, 1e-30)
    got = [used.eval(z) for z in zs]
    assert [(v.value.hex(), v.tail_bound.hex(), v.terms_used) for v in got] == \
        [(v.value.hex(), v.tail_bound.hex(), v.terms_used) for v in expected]


# "eval_grid" is the report's grid sweep, CharFnEvaluator._grid
@pytest.mark.parametrize("atol", [0.0, -1e-9, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda ev, atol: ev.plan_terms(1.0, atol),
    lambda ev, atol: ev.eval(1.0, atol),
    lambda ev, atol: ev._grid([0.5, 1.0], atol, 400),
    lambda ev, atol: ev.certified_sign(1.0, atol),
    lambda ev, atol: js.trace_inverse(ev.src, atol, table=ev._table),
], ids=["plan_terms", "eval", "eval_grid", "certified_sign", "trace_inverse"])
def test_atol_must_be_finite_and_positive(asc2_shifted, call, atol):
    # eval(1.0, 0.0) used to raise "math domain error"; eval(1.0, nan)
    # returned an uncertified value with tail_bound 8.9e-247; trace_inverse
    # at 0.0, nan or -1e-9 grew the table to the coefficient horizon and
    # raised ConvergenceError there
    with pytest.raises(ValueError, match="^atol must be finite and positive"):
        call(js.CharFnEvaluator(asc2_shifted), atol)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda ev, z: ev.plan_terms(abs(z), 1e-12),
    lambda ev, z: ev.eval(z),
    lambda ev, z: ev.eval(complex(1.0, z)),
    lambda ev, z: ev._grid([0.5, z], 1e-12, 400),
    lambda ev, z: ev.certified_sign(z, 1e-12),
], ids=["plan_terms", "eval", "eval_complex", "eval_grid", "certified_sign"])
def test_z_must_be_finite(asc2_shifted, call, z):
    # eval(nan) returned certified=True with tail_bound 0.0 and 16 terms
    with pytest.raises(ValueError, match="^z must be finite"):
        call(js.CharFnEvaluator(asc2_shifted), z)


def _count_work(monkeypatch):
    import jacspec.charfn as charfn
    import jacspec.second_kind as second_kind
    counts = {"evals": 0, "builds": 0}
    orig_eval = charfn.CharFnEvaluator.eval

    def counted_eval(self, *args, **kwargs):
        counts["evals"] += 1
        return orig_eval(self, *args, **kwargs)

    orig_entries = second_kind._kappa_entries

    def counted_entries(*args, **kwargs):
        counts["builds"] += 1
        return orig_entries(*args, **kwargs)

    # every evaluator build computes its new entries through _kappa_entries
    monkeypatch.setattr(charfn.CharFnEvaluator, "eval", counted_eval)
    monkeypatch.setattr(second_kind, "_kappa_entries", counted_entries)
    return counts


def test_certified_spectrum_work_gate(monkeypatch):
    # failed kappa builds are not retried and futile sign tightening stops,
    # so F evaluations and kappa builds stay a small multiple of k
    counts = _count_work(monkeypatch)
    res = js.find_spectrum(js.ASC2Source(0.5, 0.5, 0.5), 8, 1e-9)
    assert res.methods == ["charfn-bisection"] * 8
    assert counts["evals"] <= 60
    assert counts["builds"] <= 16


def test_capacity_probe_gate_beyond_ratio_cap(monkeypatch):
    # q = 0.9: the kappa table never reaches a stable decay window, so every
    # index falls back to the oracle; the failed build size is remembered
    counts = _count_work(monkeypatch)
    res = js.find_spectrum(js.ASC2Source(0.9, 0.9, 0.0), 6, 1e-9)
    assert res.methods == ["oracle-ladder"] * 6
    assert counts["builds"] <= 16


def test_failed_build_size_is_remembered(monkeypatch):
    # 5000 terms pass the 2^900 coefficient horizon; the failure fixes the
    # capacity once, at the largest count that builds, and grows the table
    # there, so no later call builds
    ev = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5))
    assert ev._table.grow(64)
    assert not ev._table.grow(5000)
    assert ev._table.capacity == 850 == len(ev._table.kappas)
    counts = _count_work(monkeypatch)
    assert not ev._table.grow(5000)
    assert not ev._table.grow(851)
    assert ev._table.grow(100)
    assert counts["builds"] == 0


@pytest.mark.parametrize("args, capacity", [
    (js.ASC2Source(0.5, 0.5, 0.5), 850), (js.ASC2Source(0.3, 0.3, 0.0), 488),
    (WindowOnly(0.9, 0.9, 0.0), 361),
])
def test_incremental_builds_equal_builds_from_zero(monkeypatch, args, capacity):
    # a build computes only the entries past the table; they must be those
    # of a build of the whole count, and a build must fail exactly where the
    # whole build fails, so that the table and its capacity do not depend on
    # the growth path
    from jacspec import second_kind
    src = args
    builds = []
    orig = second_kind._kappa_entries

    def recorded(engine, start, count, max_terms):
        builds.append((start, count, None))
        builds[-1] = (start, count, orig(engine, start, count, max_terms))
        return builds[-1][2]

    monkeypatch.setattr(second_kind, "_kappa_entries", recorded)
    ev = js.CharFnEvaluator(src)
    assert ev.plan_terms(1000.0, 1e-300)[0] is None
    assert ev._table.capacity == capacity == len(ev._table.kappas)
    monkeypatch.undo()
    assert any(new is None for *_, new in builds)
    assert any(start > 0 and new is not None for start, _, new in builds)
    for start, count, new in builds:
        if new is None:
            with pytest.raises(js.ConvergenceError):
                js.kappa_sequence(src, count)
        else:
            whole = js.kappa_sequence(src, count)
            assert list(map(float.hex, new)) == list(map(float.hex, whole[start:]))


# The largest count whose kappa build succeeds, at max_terms 20000, 200, 63
# and 40.  The coefficient horizon limits the first column (a backward sum
# starts at the last index below it where it would start past it), the
# budget the others; (0.5, 0.5, 0.5) builds no table within 40 terms, and
# (0.9, 0.9, 0) without its tail certificate shows no window below the cap.
CAPACITIES = {
    js.ASC2Source(0.3, 0.3, 0.0): (488, 172, 35, 12),
    js.ASC2Source(0.4, 0.2, 0.3): (658, 179, 42, 19),
    js.ASC2Source(0.5, 0.5, 0.5): (850, 152, 15, 0),
    WindowOnly(0.9, 0.9, 0.0): (361, 16, 5, 3),
}


def _count_raising_builds(monkeypatch):
    import jacspec.second_kind as second_kind
    raised = []
    orig = second_kind.kappa_sequence

    def counted(src, count, **kwargs):
        try:
            return orig(src, count, **kwargs)
        except js.ConvergenceError:
            raised.append(count)
            raise

    monkeypatch.setattr(second_kind, "kappa_sequence", counted)
    return raised


@pytest.mark.parametrize("args", list(CAPACITIES))
@pytest.mark.parametrize("column, max_terms", enumerate((20000, 200, 63, 40)))
def test_capacity_is_the_largest_count_that_builds(monkeypatch, args, column,
                                                   max_terms):
    # the first failed build fixes the capacity from the data the engine
    # holds, with no further failing build; brute force agrees: a build
    # from 0 of the capacity succeeds and one of a single entry more raises
    src = args
    raised = _count_raising_builds(monkeypatch)
    ev = js.CharFnEvaluator(src, max_terms)
    assert ev.plan_terms(1000.0, 1e-300)[0] is None
    zs = [1.0, 50.0, 900.0]
    n_max = min(400, max_terms)
    rows = grid_rows(ev, zs, 1e-12, n_max)
    capacity = CAPACITIES[src][column]
    assert ev._table.capacity == capacity == len(ev._table.kappas)
    assert len(raised) == 1
    monkeypatch.undo()
    assert rows == scalar_rows(src, zs, 1e-12, n_max, max_terms)
    if capacity:
        js.kappa_sequence(src, capacity, max_terms=max_terms)
    with pytest.raises(js.ConvergenceError):
        js.kappa_sequence(src, capacity + 1, max_terms=max_terms)


@pytest.mark.parametrize("args", list(CAPACITIES))
def test_capacity_does_not_depend_on_the_growth_path(args):
    # one direct build past the horizon and the doubling of term plans fix
    # the same capacity and the same table, bit for bit
    src = args
    direct = js.CharFnEvaluator(src)
    assert not direct._table.grow(5000)
    doubled = js.CharFnEvaluator(src)
    doubled.plan_terms(1000.0, 1e-300)
    assert direct._table.capacity == doubled._table.capacity == CAPACITIES[src][0]
    assert list(map(float.hex, direct._table.kappas)) == \
        list(map(float.hex, doubled._table.kappas))


@pytest.mark.parametrize("args, k", [((0.5, 0.5, 0.5), 8), ((0.9, 0.9, 0.0), 6)])
def test_find_spectrum_reads_each_coefficient_once(monkeypatch, args, k):
    # the evaluator's engine and eval share one coefficient cache; when
    # every scalar eval re-read the coefficients from index 0, the run at
    # (0.5, 0.5, 0.5) read 13,059 times for 901 indices.  (0.9, 0.9, 0)
    # certifies nothing and walks its engine to the coefficient horizon; an
    # index there is never stored, and only it may be read again.
    from collections import Counter

    from jacspec import sources
    reads = Counter()
    orig = sources.ASC2Source.coeffs

    def counted(self, n):
        reads[n] += 1
        return orig(self, n)

    monkeypatch.setattr(sources.ASC2Source, "coeffs", counted)
    js.find_spectrum(js.ASC2Source(*args), k, 1e-9, confirm="auto")
    assert sorted(reads) == list(range(len(reads)))
    assert {n for n, c in reads.items() if c > 1} <= {len(reads) - 1}


def test_term_plan_independent_of_an_earlier_plan():
    # q = 0.9: the first plan hits the capacity; a second plan on the same
    # evaluator used to bisect it again from the grown table and use more terms
    ev = js.CharFnEvaluator(js.ASC2Source(0.9, 0.9, 0.045326))
    first, second = ev.eval(5.0, 1e-12), ev.eval(5.0, 1e-12)
    assert first.terms_used == second.terms_used
    assert first.value.hex() == second.value.hex()


def test_certified_sign_stops_at_noise_floor(monkeypatch):
    # at lambda_8 = 127.5 the tail bound is ~1e-67 but the summation noise is
    # ~4e-5 > |F|: tightening atol cannot resolve the sign, so one round ends it
    ev = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5))
    counts = _count_work(monkeypatch)
    sign, val = ev.certified_sign(127.5, 1e-6)
    assert sign == 0
    assert val.certified
    assert abs(val.value) + val.tail_bound <= val.noise_estimate
    assert counts["evals"] == 1


@pytest.mark.parametrize("max_terms", [20000, 200])
def test_tail_estimates_are_computed_once_per_size(monkeypatch, max_terms):
    # the table only grows and the capacity only falls, so each rung of the
    # ladder, with its _tail_upper(n), is fixed once walked, and a failed
    # build (beyond the coefficient horizon at 20000, beyond the budget at
    # 200, reached by the 1e-300 plan) is not retried; U(R) is computed once
    # per R, so a second plan asks for no count and grows nothing
    plans = ((1.0, 1e-12), (60.0, 1e-12), (250.0, 1e-300))
    ev = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5), max_terms)
    first = [ev.plan_terms(z, atol) for z, atol in plans]
    assert ev._table.capacity < max_terms and ev._table._next_count == 0
    grows = []
    orig = ev._table.grow
    monkeypatch.setattr(ev._table, "grow",
                        lambda count: grows.append(count) or orig(count))
    counts = _count_work(monkeypatch)
    assert [ev.plan_terms(z, atol) for z, atol in plans] == first
    assert grows == []
    assert counts["builds"] == 0
    fresh = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5), max_terms)
    assert [(n, fresh._table.tail_upper(n)) for n, _, _ in ev._table.rungs] == \
        [(n, t) for n, t, _ in ev._table.rungs]


@pytest.mark.parametrize("args, grid", [((0.5, 0.5, 0.5), (-1.0, 250.0)),
                                        ((0.7, 0.7, 0.0), (-1.0, 40.0))])
@pytest.mark.parametrize("atol", [1e-12, 1e-300])
def test_plans_do_not_depend_on_the_order_of_their_points(args, grid, atol):
    # every plan reads the ladder from its first rung and walks it no further
    # than it needs, so ascending, descending and shuffled points on fresh
    # evaluators get the same plans, rungs and kappa table, bit for bit (at
    # 1e-300 through the failed build that fixes the capacity)
    import random
    zs = np.linspace(*grid, 400).tolist()
    shuffled = zs[:]
    random.Random(0).shuffle(shuffled)
    seen = []
    for order in (zs, zs[::-1], shuffled):
        ev = js.CharFnEvaluator(js.ASC2Source(*args))
        plans = {z: ev.plan_terms(abs(z), atol) for z in order}
        seen.append(([plans[z] for z in zs], ev._table.rungs, ev._table.capacity,
                     list(map(float.hex, ev._table.kappas))))
    assert seen[0] == seen[1] == seen[2]
    assert (None in [n for n, _ in seen[0][0]]) == (atol == 1e-300)


def test_missing_kappa_table_gives_uncertified_values():
    # at max_terms 40 no kappa table of (0.5, 0.5, 0.5) reaches a stable decay
    # window: every point is uncertified over the empty table, F = 1
    ev = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5), max_terms=40)
    assert ev.plan_terms(1.0, 1e-12) == (None, math.inf)
    zs = [1.0, 15.5, 30.0]
    vals = [ev.eval(z, 1e-12) for z in zs]
    assert grid_rows(ev, zs, 1e-12, 40) == \
        scalar_rows(ev.src, zs, 1e-12, 40, 40)
    for v in vals:
        assert (v.value, v.tail_bound, v.terms_used, v.certified) == \
            (1.0, math.inf, 0, False)
    assert ev._majorant(2.0) == math.inf


@pytest.mark.parametrize("args", list(CAPACITIES))
@pytest.mark.parametrize("column, max_terms", [(0, 20000), (2, 63)])
def test_capacity_does_not_depend_on_the_first_build(args, column, max_terms):
    # a first build of 41, 64 or 200 entries fixes the same capacity and the
    # same leading min(64, capacity) entries, bit for bit, since every table
    # starts at 64 entries or at its capacity (a bare build of fewer entries
    # can differ in its top entries by an ulp)
    src = args
    capacity = CAPACITIES[src][column]
    tables = set()
    for first in (41, 64, 200):
        ev = js.CharFnEvaluator(src, max_terms)
        ev._table.grow(first)
        assert ev._table.capacity == (capacity if max(first, 64) > capacity
                                else max_terms)
        tables.add(tuple(map(float.hex, ev._table.kappas[:min(64, capacity)])))
    assert len(tables) == 1


def test_threads_growing_one_evaluator_keep_one_table():
    # four grid sweeps at once grow one table, with its w_n(0) pairs, and
    # one ladder, to the bits of a single-threaded build
    import sys
    from concurrent.futures import ThreadPoolExecutor
    src = js.ASC2Source(0.5, 0.5, 0.5)
    grids = [np.linspace(-1.0, hi, 9).tolist()
             for hi in (40.0, 120.0, 250.0, 900.0)]
    alone = js.CharFnEvaluator(src)
    want = [grid_rows(alone, zs, 1e-12, 400) for zs in grids]
    assert want == [scalar_rows(src, zs, 1e-12, 400) for zs in grids]

    def bits(table):
        return (list(map(float.hex, table.kappas)),
                list(map(float.hex, table.w0_mant)), table.w0_exp)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            ev = js.CharFnEvaluator(src)
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(
                    lambda zs: grid_rows(ev, zs, 1e-12, 400), grids))
            assert got == want
            assert len(ev._table.kappas) == len(ev._table.w0_mant) \
                == len(ev._table.w0_exp)
            assert bits(ev._table) == bits(alone._table)
            # the ladder's rungs are walked once each, in order
            assert ev._table.rungs == alone._table.rungs
    finally:
        sys.setswitchinterval(interval)


def _count_coeffs(monkeypatch):
    """Counter of ASC2Source.coeffs calls by index."""
    import collections
    calls = collections.Counter()
    orig = js.ASC2Source.coeffs

    def counted(self, n):
        calls[n] += 1
        return orig(self, n)

    monkeypatch.setattr(js.ASC2Source, "coeffs", counted)
    return calls


def test_every_recurrence_on_a_source_shares_its_one_table(monkeypatch):
    # the source object keeps one coefficient table, so the evaluator, its
    # grid sweep, charfn_ratio, log_table, second_kind_values and run_suite
    # fetch each index from it once
    from jacspec.recurrence import log_table
    calls = _count_coeffs(monkeypatch)
    src = js.ASC2Source(0.5, 0.5, 0.5)
    read = _coeff_reader(src)
    js.CharFnEvaluator(src)._grid(np.linspace(-1.0, 60.0, 50).tolist(), 1e-12,
                                  400)
    js.charfn_ratio(src, 2.5, n_max=300)
    log_table(src, complex(0.3, 0.4), 500)
    js.second_kind_values(src, -1.0, 20, gamma=src.natural_gamma)
    js.run_suite(src)
    assert _coeff_reader(src).table is read.table
    assert set(calls.values()) == {1}
    assert len(read.table) == len(calls) == max(calls) + 1


@pytest.mark.parametrize("argv, reads", [
    (["--q=0.5", "--a=0.5", "--shift=0.5", "--grid=-1.0:250.0:400",
      "--atol=1e-300"], 901),
    (["--q=0.7", "--a=0.7", "--shift=0.0", "--grid=-1.0:40.0:400",
      "--atol=1e-30"], 667),
    (["--q=0.5", "--a=0.5", "--shift=0.5", "--grid=-1.0:250.0:400"], 401),
    (["--q=0.7", "--a=0.7", "--shift=0.0", "--grid=-1.0:40.0:400"], 411),
])
def test_a_charfn_job_reads_each_coefficient_once(monkeypatch, capsys, argv,
                                                  reads):
    # the partial-sum and ratio columns share the source's reader; the
    # ratio column had one of its own, and the first two jobs read 1302 and
    # 1051.  Their kappa tables reach past the ratio column's 401 indices:
    # at atol 1e-300 to the 2^900 coefficient horizon, index 900, and at
    # 1e-30 to 535 entries, whose builds read to index 666.  At the default
    # atol the (0.5, 0.5, 0.5) table (139 entries) stays within those 401
    # indices; each rung's tail sums the entries to where the certificate's
    # remainder is below 1e-3 of its first, so the (0.7, 0.7, 0) table
    # holds 279 entries and its builds read to index 410
    from jacspec.cli import main
    calls = _count_coeffs(monkeypatch)
    assert main(["charfn", *argv, "--format=json"]) == 0
    capsys.readouterr()
    assert sum(calls.values()) == len(calls) == reads


def test_majorant_is_computed_once_per_radius(monkeypatch):
    # U(R) is memoized per power-of-two radius R: the 400 points on
    # [-1, 250] form F_M(-R) at R = 1/2 .. 256 once each, and a later eval in
    # one of those octaves forms none.  With no kappa table, every R is inf
    # and forms no partial sum at all
    radii = []
    orig = js.CharFnEvaluator._terms

    def counted(self, z, n_terms):
        if not isinstance(z, complex) and z < 0:
            radii.append(-z)
        return orig(self, z, n_terms)

    monkeypatch.setattr(js.CharFnEvaluator, "_terms", counted)
    ev = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5))
    zs = np.linspace(-1.0, 250.0, 400).tolist()
    ev._grid(zs, 1e-12, 400)
    want = sorted({math.ldexp(1.0, math.frexp(abs(z))[1]) for z in zs if z})
    assert sorted(radii) == want == sorted(ev._majorants)
    assert want[0] == 0.5 and want[-1] == 256.0
    ev.eval(3.0)
    assert ev._majorant(4.0) == ev._majorants[4.0][0]
    assert sorted(radii) == want
    empty = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5), max_terms=40)
    for _ in range(2):
        assert empty._majorant(1.0) == math.inf
    assert sorted(radii) == want


def _coefficient_rounding(q, shift, z):
    """Relative allowance, per unit of M(z) = F(-|z|), for the float64
    rounding of the coefficients, which neither error term of an eval
    covers: each eigenvalue of the rounded matrix moves by about
    8 eps (lambda_n + |shift|) at most, and |dF/dlambda_n| <= M(z) |z| /
    (lambda_n (lambda_n + |z|)).  Near shift = 1, where lambda_1 = 1 - shift
    is small, this exceeds the summation noise: at (0.582, 0.414, 0.99937)
    F(-6.13) = 4.3e6 sits 6.4e-7 from the closed form at any term count."""
    total, n = 0.0, 0
    while True:
        lam = q ** -n - shift
        total += abs(z) * (lam + abs(shift)) / (lam * (lam + abs(z)))
        if lam > 1e20 * max(abs(z), 1.0):
            return 8.0 * 2.0 ** -52 * total
        n += 1


@settings(derandomize=True, max_examples=40, deadline=None)
@given(q=st.floats(1e-3, 0.85), a_frac=st.floats(1e-3, 1.0),
       shift=st.floats(-2.0, 1.0, exclude_max=True, exclude_min=True),
       fracs=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_certified_evals_meet_the_closed_form(q, a_frac, shift, fracs):
    # the majorant certificate across 0 < a <= q <= 0.85
    _meet_the_closed_form(q, a_frac, shift, fracs)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(q=st.floats(0.85, 0.98), a_frac=st.floats(0.5, 1.0),
       shift=st.floats(-2.0, 0.99),
       fracs=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_certified_evals_meet_the_closed_form_on_a_priori_tails(q, a_frac,
                                                                shift, fracs):
    # where the kappa window fails the cap, the plans rest on the tail
    # certificate: the same checks hold there
    _meet_the_closed_form(q, a_frac, shift, fracs)


def _meet_the_closed_form(q, a_frac, shift, fracs):
    """U(R) >= F(-R), and every certified eval at real z up to 4 lambda_3
    and at 1.3+0.7j lies within its tail bound and noise estimate of the
    closed form, with atol relative to M(z) = F(-|z|), the size of the
    product."""
    src = js.ASC2Source(q, q * a_frac, shift)
    ev = js.CharFnEvaluator(src)
    for r in (1.0, 16.0, 256.0):
        assert ev._majorant(r) >= js.spectrum_product_reference(-r, q, shift)
    lam_3 = q ** -2 - shift
    certified = 0
    for z in [4.0 * lam_3 * f for f in fracs] + [4.0 * lam_3, complex(1.3, 0.7)]:
        scale = js.spectrum_product_reference(-abs(z), q, shift)
        v = ev.eval(z, 1e-12 * scale)
        if not v.certified:
            continue
        certified += 1
        ref = js.spectrum_product_reference(z, q, shift)
        allow = v.tail_bound + v.noise_estimate \
            + scale * _coefficient_rounding(q, shift, z)
        assert abs(v.value - ref) <= allow, z
    assert certified > 0


def test_a_priori_tails_plan_where_no_window_passes():
    # at (0.9, 0.9, 0) no kappa window passes the 0.9 cap: on the window
    # alone the first plan walks the tail series 5,914 terms to the
    # coefficient horizon and ends at a capacity of 361 with no plan.  The
    # tail certificate plans 1,024 terms, and the engine holds about 1.5
    # times that; its certified values meet the closed form
    window = js.CharFnEvaluator(WindowOnly(0.9, 0.9, 0.0))
    assert window.plan_terms(1.5, 1e-17) == (None, math.inf)
    assert (window._table.capacity, len(window._table.engine.log_t)) == (361, 5914)
    ev = js.CharFnEvaluator(js.ASC2Source(0.9, 0.9, 0.0))
    n_terms, log_bound = ev.plan_terms(1.5, 1e-17)
    assert n_terms == 1024 and log_bound <= math.log(1e-17)
    assert len(ev._table.engine.log_t) <= 2 * n_terms
    for z in (-1.0, 1.05, 1.5):
        v = ev.eval(z, 1e-17)
        assert v.certified
        assert abs(v.value - js.spectrum_product_reference(z, 0.9, 0.0)) \
            <= v.tail_bound + v.noise_estimate


def test_a_priori_tails_stop_a_plan_no_count_can_meet():
    # at (0.99, 0.99, 0) U(2) is e^143 at |z| <= 2 and F_M(-R) overflows at
    # R = 1024 and 2048, so no point of the charfn grid -1:2000:3 certifies
    # at atol 1e-12: a plan walks the ladder to the table's capacity (16,633
    # entries), or stops at the M where F_M(-R) overflowed, and sums those
    # terms.  Where it stops depends on the point alone, so the points in
    # either order give the same values, on the grid path as on eval.  Past
    # 2^1023, where R = inf, no tail is small enough.  Every tail is an
    # upper bound: z = -1 there meets the closed form 4.9e35, and z = 2000
    # at (0.95, 0.95, 0) meets -2.66e218, within tail bounds of 5.6e-7 and
    # 6.2e11 and the noise, and both certify at an atol relative to F; the
    # window and the a-priori rungs gave 542.99 with a bound of 1.8e66 and
    # 1.6e46 with a bound of 1.7e267, uncertified at either atol
    src = js.ASC2Source(0.99, 0.99, 0.0)
    assert js.CharFnEvaluator(src).plan_terms(1.7e308, 1e-12) == \
        (None, math.inf)
    zs = [-1.0, 999.5, 2000.0, 1.5]
    seen = []
    for order in (zs, zs[::-1]):
        ev = js.CharFnEvaluator(src)
        vals = {z: ev.eval(z, 1e-12) for z in order}
        seen.append([(vals[z].value.hex(), vals[z].terms_used,
                      vals[z].certified) for z in zs])
    assert seen[0] == seen[1]
    assert not any(certified for *_, certified in seen[0])
    assert grid_rows(js.CharFnEvaluator(src), zs, 1e-12, 400) == \
        scalar_rows(src, zs, 1e-12, 400)
    for args, z in (((0.99, 0.99, 0.0), -1.0), ((0.95, 0.95, 0.0), 2000.0)):
        ref = js.spectrum_product_reference(z, args[0], args[2])
        ev = js.CharFnEvaluator(js.ASC2Source(*args))
        for atol, certified in ((1e-12, False), (1e-12 * abs(ref), True)):
            v = ev.eval(z, atol)
            assert v.certified == certified
            assert abs(v.value - ref) <= v.tail_bound + v.noise_estimate \
                <= 1e-8 * abs(ref)
