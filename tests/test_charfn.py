import math

import numpy as np
import pytest

import jacspec as js
from asc2_reference import hadamard_product


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
    ev = js.CharFnEvaluator(asc2_shifted)
    ev._grow(60)
    s_up = ev.kappa_sum_upper
    for z in (-2.0, 1.0, 3.5, complex(1.0, 1.0)):
        logs_z, _ = js.recurrence.log_table(asc2_shifted, z, 59)
        for n in range(60):
            lhs = (math.log(abs(ev._w0_mant[n])) + ev._w0_exp[n] * math.log(2.0)
                   + logs_z[n])
            rhs = abs(z) * s_up + math.log(ev._engine.kappas[n])
            assert lhs <= rhs + 1e-10


def test_entire_order_bound(asc2_shifted):
    # |F(z)| <= exp(C |z|) with C = 2 sum kappa on the test grid
    ev = js.CharFnEvaluator(asc2_shifted)
    c = 2.0 * ev.kappa_sum_upper
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
    cold = js.CharFnEvaluator(asc2_shifted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            grown = list(pool.map(lambda z: cold.eval(z, 1e-12).value, zs))
    finally:
        sys.setswitchinterval(interval)
    assert grown == serial
    assert len(cold._w0_mant) == len(cold._w0_exp) \
        == len(cold._engine.kappas)
    # the engine and every eval thread grew one coefficient cache: each index
    # was published once, in its place
    table = cold._read.table
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


@pytest.mark.parametrize("atol", [0.0, -1e-9, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda ev, atol: ev.plan_terms(1.0, atol),
    lambda ev, atol: ev.eval(1.0, atol),
    lambda ev, atol: ev.eval_grid([0.5, 1.0], atol),
    lambda ev, atol: ev.certified_sign(1.0, atol),
], ids=["plan_terms", "eval", "eval_grid", "certified_sign"])
def test_atol_must_be_finite_and_positive(asc2_shifted, call, atol):
    # eval(1.0, 0.0) used to raise "math domain error"; eval(1.0, nan)
    # returned an uncertified value with tail_bound 8.9e-247
    with pytest.raises(ValueError, match="^atol must be finite and positive"):
        call(js.CharFnEvaluator(asc2_shifted), atol)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda ev, z: ev.plan_terms(abs(z), 1e-12),
    lambda ev, z: ev.eval(z),
    lambda ev, z: ev.eval(complex(1.0, z)),
    lambda ev, z: ev.eval_grid([0.5, z]),
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
    ev.kappa_sum_upper
    assert not ev._grow(5000)
    assert ev._capacity == 832 == len(ev._engine.kappas)
    counts = _count_work(monkeypatch)
    assert not ev._grow(5000)
    assert not ev._grow(833)
    assert ev._grow(100)
    assert counts["builds"] == 0


@pytest.mark.parametrize("args, capacity", [
    ((0.5, 0.5, 0.5), 832), ((0.3, 0.3, 0.0), 482), ((0.9, 0.9, 0.0), 361),
])
def test_incremental_builds_equal_builds_from_zero(monkeypatch, args, capacity):
    # a build computes only the entries past the table; they must be those
    # of a build of the whole count, and a build must fail exactly where the
    # whole build fails, so that the table and its capacity do not depend on
    # the growth path
    from jacspec import second_kind
    src = js.ASC2Source(*args)
    builds = []
    orig = second_kind._kappa_entries

    def recorded(engine, start, count, max_terms):
        builds.append((start, count, None))
        builds[-1] = (start, count, orig(engine, start, count, max_terms))
        return builds[-1][2]

    monkeypatch.setattr(second_kind, "_kappa_entries", recorded)
    ev = js.CharFnEvaluator(src)
    assert ev.plan_terms(1000.0, 1e-300)[0] is None
    assert ev._capacity == capacity == len(ev._engine.kappas)
    monkeypatch.undo()
    assert any(new is None for *_, new in builds)
    assert any(start > 0 and new is not None for start, _, new in builds)
    for start, count, new in builds:
        if new is None:
            with pytest.raises(js.ConvergenceError):
                js.kappa_sequence(src, count)
        else:
            whole = js.kappa_sequence(src, count).kappas
            assert list(map(float.hex, new)) == list(map(float.hex, whole[start:]))


# The largest count whose kappa build succeeds, at max_terms 20000, 200, 63
# and 40.  The coefficient horizon limits the first column, the budget the
# others; (0.5, 0.5, 0.5) builds no table within 40 terms.
CAPACITIES = {
    (0.5, 0.5, 0.5): (832, 152, 15, 0),
    (0.3, 0.3, 0.0): (482, 172, 35, 12),
    (0.9, 0.9, 0.0): (361, 16, 5, 3),
    (0.4, 0.2, 0.3): (645, 179, 42, 19),
}


def _count_raising_builds(monkeypatch):
    import jacspec.charfn as charfn
    raised = []
    orig = charfn.kappa_sequence

    def counted(src, count, **kwargs):
        try:
            return orig(src, count, **kwargs)
        except js.ConvergenceError:
            raised.append(count)
            raise

    monkeypatch.setattr(charfn, "kappa_sequence", counted)
    return raised


@pytest.mark.parametrize("args", sorted(CAPACITIES))
@pytest.mark.parametrize("column, max_terms", enumerate((20000, 200, 63, 40)))
def test_capacity_is_the_largest_count_that_builds(monkeypatch, args, column,
                                                   max_terms):
    # the first failed build fixes the capacity from the data the engine
    # holds, with no further failing build; brute force agrees: a build
    # from 0 of the capacity succeeds and one of a single entry more raises
    src = js.ASC2Source(*args)
    raised = _count_raising_builds(monkeypatch)
    ev = js.CharFnEvaluator(src, max_terms)
    assert ev.plan_terms(1000.0, 1e-300)[0] is None
    ev.eval_grid([1.0, 50.0, 900.0])
    capacity = CAPACITIES[args][column]
    assert ev._capacity == capacity == len(ev._engine.kappas)
    assert len(raised) == 1
    monkeypatch.undo()
    if capacity:
        js.kappa_sequence(src, capacity, max_terms=max_terms)
    with pytest.raises(js.ConvergenceError):
        js.kappa_sequence(src, capacity + 1, max_terms=max_terms)


@pytest.mark.parametrize("args", sorted(CAPACITIES))
def test_capacity_does_not_depend_on_the_growth_path(args):
    # one direct build past the horizon and the doubling of term plans fix
    # the same capacity and the same table, bit for bit
    src = js.ASC2Source(*args)
    direct = js.CharFnEvaluator(src)
    assert not direct._grow(5000)
    doubled = js.CharFnEvaluator(src)
    doubled.plan_terms(1000.0, 1e-300)
    assert direct._capacity == doubled._capacity == CAPACITIES[args][0]
    assert list(map(float.hex, direct._engine.kappas)) == \
        list(map(float.hex, doubled._engine.kappas))


@pytest.mark.parametrize("args, k", [((0.5, 0.5, 0.5), 8), ((0.9, 0.9, 0.0), 6)])
def test_find_spectrum_reads_each_coefficient_once(monkeypatch, args, k):
    # the evaluator's engine, eval and eval_grid share one coefficient cache;
    # when every scalar eval re-read the coefficients from index 0, the run
    # at (0.5, 0.5, 0.5) read 13,059 times for 901 indices.  (0.9, 0.9, 0)
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
    # the table only grows and the capacity only falls, so each _tail_upper(n)
    # is fixed once computed, None included (beyond the coefficient horizon
    # at 20000, beyond the budget at 200); a second plan grows nothing
    ev = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5), max_terms)
    first = [ev.plan_terms(z, 1e-12) for z in (1.0, 60.0, 250.0)]
    assert None in ev._tails.values()
    grows = []
    orig = ev._grow
    monkeypatch.setattr(ev, "_grow", lambda count: grows.append(count) or orig(count))
    assert [ev.plan_terms(z, 1e-12) for z in (1.0, 60.0, 250.0)] == first
    assert grows == []
    fresh = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5), max_terms)
    assert [fresh._tail_upper(n) for n in sorted(ev._tails)] == \
        [ev._tails[n] for n in sorted(ev._tails)]


def test_missing_kappa_table_gives_uncertified_values():
    # at max_terms 40 no kappa table of (0.5, 0.5, 0.5) reaches a stable decay
    # window: every point is uncertified over the empty table, F = 1
    ev = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5), max_terms=40)
    assert ev.plan_terms(1.0, 1e-12) == (None, math.inf)
    vals = [ev.eval(z, 1e-12) for z in (1.0, 15.5, 30.0)]
    assert ev.eval_grid([1.0, 15.5, 30.0], 1e-12) == vals
    for v in vals:
        assert (v.value, v.tail_bound, v.terms_used, v.certified) == \
            (1.0, math.inf, 0, False)
    with pytest.raises(js.ConvergenceError):
        ev.kappa_sum_upper
