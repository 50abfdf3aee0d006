import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacspec as js
from asc2_reference import dense_w_factorization_gap
from conftest import WindowOnly, ZeroAtTwo, mp_plain_recurrence, random_pd_table
from jacspec.recurrence import log_table, plain_values
from jacspec.verify import (_COMPLEX_Z, _N_MAX, _REAL_ZS, _decimal, _mp_coeffs,
                            _mp_context, _mp_tables, check_green_identity,
                            check_kappa_monotonic, check_resolvent_identity,
                            check_trace_reconciliation, check_w_factorization,
                            run_suite, w_factorization_check)


def _by_name(results):
    return {r.name: r for r in results}


def test_suite_passes_on_asc2(asc2_shifted):
    results = _by_name(run_suite(asc2_shifted))
    for name, r in results.items():
        assert r.skipped or r.passed, f"{name}: {r.max_residual} > {r.threshold}"
    # nothing that applies to the ASC-II family may be skipped
    assert not any(r.skipped for r in results.values())


def test_suite_passes_on_random_table():
    rng = np.random.RandomState(41)
    src = random_pd_table(rng, 16)
    results = _by_name(run_suite(src))
    structural = ("coefficient_positivity", "recurrence_residual",
                  "wronskian_identity", "green_identity", "resolvent_identity",
                  "sign_patterns")
    for name in structural:
        assert results[name].passed and not results[name].skipped
    # infinite-tail checks cannot run on a finite table
    assert results["trace_reconciliation"].skipped
    assert results["w_factorization"].skipped


def test_suite_detects_injected_negative_alpha():
    rng = np.random.RandomState(43)
    base = random_pd_table(rng, 16)
    alphas = list(base.alphas)
    alphas[5] = -abs(alphas[5])
    src = js.TableSource(alphas=alphas, betas=base.betas)
    results = _by_name(run_suite(src))
    assert not results["coefficient_positivity"].passed
    assert results["recurrence_residual"].passed  # identity holds regardless
    assert results["w_factorization"].skipped
    assert results["sign_patterns"].skipped  # positivity gate failed


def test_extended_precision_shrinks_maxima(asc2_shifted):
    r64 = _by_name(run_suite(asc2_shifted))
    r30 = _by_name(run_suite(asc2_shifted, precision_digits=30))
    for name in ("wronskian_identity", "green_identity",
                 "resolvent_identity", "w_factorization"):
        assert r30[name].max_residual < r64[name].max_residual
        assert r30[name].max_residual < 1e-20
    # the recurrence row measures the float64 kernels, whose rounding a
    # 30-digit reference column does not shrink
    for r in (r64, r30):
        assert 1e-17 < r["recurrence_residual"].max_residual <= 1e-13


def test_check_result_status_strings(asc2_shifted):
    results = run_suite(asc2_shifted)
    assert all(r.status in ("pass", "FAIL", "skip") for r in results)


@pytest.mark.parametrize("params", [(0.7, 0.7, 0.05), (0.7, 0.7, -0.05),
                                    (0.5, 0.5, 0.45), (0.5, 0.5, 0.55)])
def test_trace_reconciliation_with_shift(params):
    # the kappa trace against the leading block's own trace: no model of the
    # spectrum, so a shift leaves no gap (it left 1e-5 behind twelve oracle
    # eigenvalues and a geometric tail, and 1e-9 behind a fitted one)
    src = js.ASC2Source(*params)
    for digits in (0, 30):
        r = check_trace_reconciliation(js.CharFnEvaluator(src),
                                       _mp_context(digits))
        assert r.passed
        assert r.max_residual <= 1e-13


def test_trace_reconciliation_detects_planted_error(monkeypatch):
    from jacspec import second_kind
    orig = second_kind.trace_inverse

    def off_by_1e5(*args, **kwargs):
        tr = orig(*args, **kwargs)
        return second_kind.TraceInverse(value=tr.value + 1e-5,
                                        tail_bound=tr.tail_bound, terms=tr.terms)

    monkeypatch.setattr(second_kind, "trace_inverse", off_by_1e5)
    src = js.ASC2Source(0.7, 0.7, 0.05)
    r = check_trace_reconciliation(js.CharFnEvaluator(src), _mp_context(30))
    assert not r.passed
    assert r.max_residual == pytest.approx(1e-5, rel=1e-9)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(log_q=st.floats(-5.0, math.log10(0.88)), a_over_q=st.floats(1e-6, 1.0),
       shift=st.floats(-2.0, 0.999, exclude_max=True))
def test_trace_reconciliation_across_the_regime(log_q, a_over_q, shift):
    # wherever the kappa trace converges, it meets the leading block's trace
    # at rounding level: a shift near 1 puts 1/lambda_1 near 1e3, whose
    # float64 coefficients move it by up to about 1e-10
    from jacspec import second_kind
    from jacspec.errors import ConvergenceError
    q = 10.0 ** log_q
    src = js.ASC2Source(q, q * a_over_q, shift)
    ev = js.CharFnEvaluator(src)
    try:
        second_kind.trace_inverse(src, 1e-8, table=ev._table)
    except ConvergenceError:
        return
    r = check_trace_reconciliation(ev, _mp_context(0))
    assert r.passed and r.max_residual <= 1e-9, r


def test_horizon_note_of_trace_reconciliation():
    # without its tail certificate no kappa window of (0.9, 0.9, 0) passes
    # the 0.9 cap: the ladder has no rung, and the horizon ended it
    r = _by_name(run_suite(WindowOnly(0.9, 0.9, 0.0)))["trace_reconciliation"]
    assert not r.passed
    assert r.note == "coefficients exceed the working-precision horizon at n = 5915"


@pytest.mark.parametrize("digits", [0, 30])
def test_short_tables_skip_what_they_cannot_test(digits):
    # two pairs determine X_0 .. X_2, so the n = 1 residual and the m = 1
    # Wronskian pair are checkable; one pair leaves nothing to test
    r = _by_name(run_suite(js.TableSource([1.0, 0.5], [2.0, 2.0, 2.0]),
                           precision_digits=digits))
    for name, note in (("recurrence_residual", "n <= 1, 5 evaluation points"),
                       ("wronskian_identity", "m <= 1"),
                       ("sign_patterns", "n <= 1"),
                       ("green_identity", "N = 2"),
                       ("resolvent_identity", "N = 2")):
        assert r[name].passed and not r[name].skipped and r[name].note == note
    r = _by_name(run_suite(js.TableSource([1.0], [2.0, 2.0]),
                           precision_digits=digits))
    for name in ("recurrence_residual", "wronskian_identity", "sign_patterns",
                 "green_identity", "resolvent_identity"):
        assert r[name].skipped and r[name].note.startswith("table too short")
    assert all(x.passed for x in r.values())


def test_table_checks_read_no_coefficient_past_the_table():
    # a table with pairs 0 .. m determines X_0 .. X_{m+1}: every check stops
    # at the last index it needs and never asks the source for pair m + 1
    rng = np.random.RandomState(11)
    src = random_pd_table(rng, 5)
    assert src.max_pair_index == 3
    r = _by_name(run_suite(src))
    assert r["recurrence_residual"].note == "n <= 3, 5 evaluation points"
    assert r["wronskian_identity"].note == "m <= 3"
    assert r["sign_patterns"].note == "n <= 3"
    logs, _ = log_table(src, 0.5, 4)
    assert len(logs) == 5
    with pytest.raises(IndexError):
        log_table(src, 0.5, 5)


def test_extended_precision_on_a_table():
    # the mpmath Green and resolvent checks read no coefficient past the table
    rng = np.random.RandomState(47)
    src = random_pd_table(rng, 6)
    r = _by_name(run_suite(src, precision_digits=30))
    for name in ("recurrence_residual", "wronskian_identity", "green_identity",
                 "resolvent_identity"):
        assert r[name].passed and not r[name].skipped
    for name in ("wronskian_identity", "green_identity", "resolvent_identity"):
        assert r[name].max_residual < 1e-20
    # float64 kernels against a 30-digit column: float64 round-off
    assert r["recurrence_residual"].max_residual <= 1e-14


def test_gamma_above_the_spectrum_rejected():
    # lambda_1 = 1 at (0.5, 0.5, 0): gamma 1.5 used to pass every check
    src = js.ASC2Source(0.5, 0.5, 0.0)
    with pytest.raises(js.AssumptionViolation,
                       match="gamma 1.5 is above .* of the 24 x 24 truncation"):
        run_suite(src, gamma=1.5)


def test_gamma_gate_at_tiny_q_uses_the_usable_block():
    # the 24-row block of q = 1e-10 leaves the float range, which raised a
    # bare ValueError; the usable 16-row prefix still bounds lambda_1 = 1
    src = js.ASC2Source(1e-10, 1e-10, 0.0)
    with pytest.raises(js.AssumptionViolation,
                       match="gamma 1.5 is above .* of the 16 x 16 truncation"):
        run_suite(src, gamma=1.5)


@pytest.mark.parametrize("params", [(0.5, 0.005, 0.999999), (0.3, 0.003, 1 - 1e-9),
                                    (0.9, 0.9, -5.0)])
def test_natural_gamma_passes_the_gamma_check(params):
    # near shift 1 the rounding of beta_0 - shift puts the float block's
    # smallest root 1e-10 relative below 1 - shift; the margin must cover it
    from jacspec.spectrum import TruncatedTridiagonal, sturm_counts
    src = js.ASC2Source(*params)
    g = src.natural_gamma
    t = TruncatedTridiagonal.from_source(src, 24)
    relative_only = int(sturm_counts(t, [g * (1 - 1e-12)])[0])
    assert relative_only == (1 if src.shift > 0.99 else 0)
    run_suite(src)  # no AssumptionViolation


# sha256 of `jacspec verify --precision=30` at two ASC-II configurations; the
# decimal identity checks must keep these reports byte for byte (the (0.7,
# 0.7, 0) one changed when the trace came to read the kappa table's ladder:
# its residual, from 64 terms both times, reads 0 where it read 4.4e-16;
# both changed when the checks moved from mpmath's 103 bits to 30 decimal
# digits, in the round-off digits of five residuals)
_PRECISION_30_REPORTS = {
    ("--q=0.5", "--a=0.5", "--shift=0.5"):
        "e28106ae061f4d862bfa465c885691efbe09d55898862bac35f54c820ee0749c",
    ("--q=0.7", "--a=0.7", "--shift=0.0"):
        "54958eadedffcc35defe840d1f26bf9b701b9e0c048251d361cf81cd6a0b4ea4",
}


@pytest.mark.parametrize("argv", sorted(_PRECISION_30_REPORTS))
def test_precision_30_reports_are_pinned(argv, capsys):
    from jacspec.cli import main
    assert main(["verify", *argv, "--precision=30"]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == _PRECISION_30_REPORTS[argv]


@pytest.mark.parametrize("digits", [0, 30])
@pytest.mark.parametrize("params", [(0.1, 0.01, 0.0), (0.2, 0.2, 0.0),
                                    (0.9, 0.9, 0.0), (0.99, 0.099, -1.0)])
def test_green_rows_pass_where_the_cross_identity_cancels(params, digits):
    # the two products of Q_m P_n - P_m Q_n cancel in all or most of the
    # digits of a 53-bit run here (and of a 30-digit run at (0.99, 0.099,
    # -1)); the Green block recomputes such entries by forward substitution
    mp = _mp_tables(js.ASC2Source(*params), digits)
    for r in (check_green_identity(*mp), check_resolvent_identity(*mp)):
        assert r.passed and r.max_residual <= 1e-11, r


@pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
@pytest.mark.parametrize("a_over_q", [1.0, 0.1])
def test_w_factorization_one_path_at_both_precisions(q, a_over_q):
    # one mpmath route: 53 bits by default, 30 digits on request, and the
    # extended run's residual is the smaller one
    src = js.ASC2Source(q, q * a_over_q, 0.0)
    r53 = check_w_factorization(src, digits=0)
    r30 = check_w_factorization(src, digits=30)
    for r in (r53, r30):
        assert r.passed and not r.skipped and r.max_residual <= 1e-12, r
    assert r30.max_residual < r53.max_residual


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("a_over_q", [1.0, 0.1])
@pytest.mark.parametrize("digits", [0, 30])
def test_w_factorization_band_equals_the_dense_product(q, a_over_q, digits):
    # W is lower bidiagonal, so every entry of W W^T + I - J off the band is
    # an exact zero and the band's gaps are the dense loop's, bit for bit
    params = js.QParams(q, q * a_over_q)
    for n in (2, 10, 17):
        assert float.hex(w_factorization_check(params, n, digits)) \
            == float.hex(dense_w_factorization_gap(params, n, digits))


def test_one_kappa_table_per_verify_job(monkeypatch, capsys):
    # the three kappa checks share the evaluator's kappa table, whose first
    # build of 64 entries holds the 41 and 61 the checks read.  Each job made
    # 4 z = 0 engines, and the two jobs 7 table-extending builds, when every
    # check grew a table of its own
    from jacspec import second_kind
    from jacspec.cli import main
    engines, extending = [], []
    init = second_kind.TailSeriesEngine.__init__
    build = second_kind.kappa_sequence

    def counted_init(self, src, z):
        init(self, src, z)
        engines.append(z == 0)

    def counted_build(src, count, **kwargs):
        table = kwargs.get("table")
        held = len(table.kappas) if table is not None else 0
        kappas = build(src, count, **kwargs)
        extending.append(table is None or len(table.kappas) > held)
        return kappas

    monkeypatch.setattr(second_kind.TailSeriesEngine, "__init__", counted_init)
    monkeypatch.setattr(second_kind, "kappa_sequence", counted_build)
    for argv in sorted(_PRECISION_30_REPORTS):
        engines.clear()
        assert main(["verify", *argv, "--precision=30"]) == 0
        assert sum(engines) <= 2
    capsys.readouterr()
    assert sum(extending) <= 5


def test_run_suite_builds_one_decimal_table_and_one_green_block(monkeypatch):
    # the recurrence, Wronskian, Green and resolvent checks share one pair
    # of coefficient lists and one Green block (the trace row reads a
    # longer pair, the W check its unshifted lists); every decimal check
    # runs in a copy of the process's one 30-digit context, and every check
    # reads the source's one coefficient reader.  A job made 5 contexts,
    # 5 lists, 2 Green blocks and 17 readers, and later still 2 contexts of
    # its own; the move from mpmath to decimal left these counts as they were
    import collections
    from jacspec import verify
    counts, contexts = collections.Counter(), set()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts.update([name])
            out = fn(*args, **kwargs)
            if name == "_mp_context":
                contexts.add(id(out))
            return out
        return call

    for name in ("_mp_context", "_mp_coeffs", "_green"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    reads = collections.Counter()
    coeffs = js.ASC2Source.coeffs
    monkeypatch.setattr(js.ASC2Source, "coeffs",
                        lambda self, n: reads.update([n]) or coeffs(self, n))
    for _ in range(2):
        results = run_suite(js.ASC2Source(0.5, 0.5, 0.5), precision_digits=30)
        assert all(r.passed for r in results)
    assert counts == {"_mp_context": 4, "_mp_coeffs": 6, "_green": 2}
    assert contexts == {id(_mp_context(30))}
    assert set(reads.values()) == {2}


def _kappa_rows(src):
    """The three kappa rows of run_suite(src), by name."""
    r = _by_name(run_suite(src))
    return {name: r[name] for name in ("kappa_positivity_monotonic",
                                       "per_term_growth_bound",
                                       "trace_reconciliation")}


@pytest.mark.parametrize("params", [(0.5, 0.5, 0.5), (0.7, 0.7, 0.0)])
def test_per_term_bound_tests_the_pipeline_majorant(monkeypatch, params):
    # |w_n(0) P_n(z)| <= kappa_n U(R) at all five points, on the terms eval
    # sums and the U(R) it plans with; the largest |term| / (kappa_n U(R))
    # is 0.42 and 0.30 here, so a majorant 100 times too small, or terms 4
    # times too large, must fail the row
    from jacspec.charfn import CharFnEvaluator
    from jacspec.verify import check_per_term_bound
    src = js.ASC2Source(*params)
    r = _kappa_rows(src)["per_term_growth_bound"]
    assert (r.status, r.max_residual, r.note) == ("pass", 0.0, "n <= 60")
    majorant = CharFnEvaluator._majorant
    with monkeypatch.context() as m:
        m.setattr(CharFnEvaluator, "_majorant",
                  lambda self, radius: majorant(self, radius) / 100)
        r = _kappa_rows(src)["per_term_growth_bound"]
    assert r.status == "FAIL" and r.max_residual > 10, r
    # U(R) is memoized, so the scaled terms below leave it as it is
    ev = CharFnEvaluator(src)
    assert check_per_term_bound(ev).passed
    terms = ev._terms
    ev._terms = lambda z, n: [4 * t for t in terms(z, n)]
    r = check_per_term_bound(ev)
    assert r.status == "FAIL" and r.max_residual > 0.1, r


def test_per_term_bound_skips_without_a_majorant():
    # at (0.9, 0.9, 0) no kappa decay window passes the 0.9 cap, so without
    # the tail certificate U(R) is infinite at every radius and F certifies
    # nothing: the row cannot test the bound and says why
    r = _kappa_rows(WindowOnly(0.9, 0.9, 0.0))["per_term_growth_bound"]
    assert r.skipped
    assert r.note.startswith("U(R) is infinite at 5 of 5 points")


def test_kappa_rows_read_the_evaluators_table(monkeypatch):
    # each row reads the table of the evaluator it is given, and in
    # run_suite every kappa build and the trace sum run on the one
    # evaluator's table: verify keeps no z = 0 table of its own
    from jacspec import charfn, second_kind, verify
    evaluators, tables = [], []

    class Recorded(charfn.CharFnEvaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            evaluators.append(self)

    # a table the rows did not read: the monotonic row sees its bump
    ev = charfn.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5))
    ev._table.grow(64)
    ev._table.kappas[30] *= 1e3
    r = verify.check_kappa_monotonic(ev)
    assert r.status == "FAIL" and r.note == "n <= 40"
    build, trace = second_kind.kappa_sequence, second_kind.trace_inverse
    monkeypatch.setattr(charfn, "CharFnEvaluator", Recorded)
    monkeypatch.setattr(second_kind, "kappa_sequence", lambda *a, **kw:
                        tables.append(kw.get("table")) or build(*a, **kw))
    monkeypatch.setattr(second_kind, "trace_inverse", lambda *a, **kw:
                        tables.append(kw["table"]) or trace(*a, **kw))
    r = _kappa_rows(js.ASC2Source(0.5, 0.5, 0.5))
    assert all(x.passed and not x.skipped for x in r.values())
    [ev] = evaluators
    assert tables and all(t is ev._table for t in tables)


def test_kappa_positivity_failure_is_a_row():
    # the table's first build meets P_2(0) = 0: the monotonic row fails with
    # the reason, and the two rows that need the table are skipped, where
    # run_suite used to raise
    r = _kappa_rows(ZeroAtTwo())
    assert r["kappa_positivity_monotonic"].status == "FAIL"
    assert r["kappa_positivity_monotonic"].note.startswith("P_2(0) = 0")
    for name in ("per_term_growth_bound", "trace_reconciliation"):
        assert r[name].skipped
        assert r[name].note == "skipped: kappa positivity failed"


class _NoGamma(js.CoefficientSource):
    """ASC-II (0.5, 0.5, 0.5) with no natural gamma: no two-route row."""

    shift = 0.5

    def alpha(self, n):
        return js.ASC2Source(0.5, 0.5, 0.5).alpha(n)

    def beta(self, n):
        return js.ASC2Source(0.5, 0.5, 0.5).beta(n)


def test_kappa_rows_without_a_kappa_table():
    # within 40 terms no kappa build of (0.5, 0.5, 0.5) reaches a stable
    # decay window: the table stays empty, the rows that read it are skips
    # that say why, and the trace fails, where run_suite used to raise
    ev = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5), max_terms=40)
    r = check_kappa_monotonic(ev)
    assert r.skipped and r.note == "no kappa table builds within the term budget"
    assert ev._table.kappas == []
    # at q = 1e-12 the coefficients leave the float range at n = 23; the
    # backward sums start below it, where j + 16 passed it and no table
    # built, so the table holds 19 entries
    ev = js.CharFnEvaluator(js.ASC2Source(1e-12, 1e-12, 0.0))
    r = check_kappa_monotonic(ev)
    assert (r.status, r.note) == ("pass", "n <= 18")
    assert len(ev._table.kappas) == ev._table.capacity == 19
    r = _by_name(run_suite(_NoGamma(), max_terms=40))
    assert r["kappa_positivity_monotonic"].skipped
    assert r["per_term_growth_bound"].skipped
    assert r["per_term_growth_bound"].note.startswith("U(R) is infinite")
    assert r["trace_reconciliation"].status == "FAIL"


def _kernel_mutant(name):
    """recurrence.<name> with a_prev * u scaled by 1 + 1e-7 in its step."""
    import inspect
    import textwrap
    from jacspec import recurrence
    code = textwrap.dedent(inspect.getsource(getattr(recurrence, name)))
    assert code.count("a_prev * u") == 1
    namespace = dict(vars(recurrence))
    exec(code.replace("a_prev * u", "a_prev * u * (1 + 1e-7)"), namespace)
    return namespace[name]


@pytest.mark.parametrize("kernel", ["_scaled_iter", "_scaled_columns"])
@pytest.mark.parametrize("params", [(0.5, 0.5, 0.5), (0.7, 0.7, 0.0)])
def test_recurrence_row_fails_on_a_kernel_mutant(monkeypatch, kernel, params):
    # the row compares log_table (_scaled_iter) and the grid path
    # (_scaled_columns) with an mpmath column, so a 1e-7 slip in either
    # kernel's step fails it, where the row used to check mpmath against
    # itself and passed both
    from jacspec import recurrence
    from jacspec.verify import check_recurrence
    src = js.ASC2Source(*params)
    mp = _mp_tables(src, 30)[:3]
    r = check_recurrence(src, *mp)
    assert (r.status, r.note) == ("pass", "n <= 40, 5 evaluation points")
    assert r.max_residual <= 1e-12
    monkeypatch.setattr(recurrence, kernel, _kernel_mutant(kernel))
    r = check_recurrence(src, *mp)
    assert r.status == "FAIL" and r.max_residual > 1e-9, r


@pytest.mark.parametrize("params", [(0.5, 0.5, 0.6), (0.5, 0.5, -0.7)])
def test_recurrence_row_at_an_eigenvalue(params):
    # z = 0.4 and z = 2.7 are eigenvalues here (q^-n - shift), where P_n
    # follows the recessive solution: the float64 and mpmath columns part
    # by up to 1e-4 in ln|P_n|, as conditioning, not as a kernel error.
    # The row then judges each column by its residual in the mpmath
    # recurrence, which stays at rounding level
    from jacspec.verify import _REAL_ZS, check_recurrence
    src = js.ASC2Source(*params)
    assert 1.0 - src.shift in _REAL_ZS or 2.0 - src.shift in _REAL_ZS
    for digits in (0, 30):
        r = check_recurrence(src, *_mp_tables(src, digits)[:3])
        assert r.passed and r.max_residual <= 1e-13, r


@settings(derandomize=True, max_examples=40, deadline=None)
@given(log_q=st.floats(-5.0, math.log10(0.9999)),
       a_over_q=st.floats(1e-6, 1.0), shift=st.floats(-2.0, 0.999),
       digits=st.sampled_from([0, 30]))
def test_recurrence_row_passes_across_the_regime(log_q, a_over_q, shift,
                                                 digits):
    from jacspec.verify import check_recurrence
    q = 10.0 ** log_q
    src = js.ASC2Source(q, q * a_over_q, shift)
    r = check_recurrence(src, *_mp_tables(src, digits)[:3])
    assert r.passed and r.max_residual <= 1e-12, r
    assert r.note == "n <= 40, 5 evaluation points"


@pytest.mark.parametrize("q, notes", [
    (1e-6, ("n <= 40, 5 evaluation points", "n <= 40", "n <= 30")),
    (1e-8, ("n <= 33 (coefficient horizon), 5 evaluation points",
            "n <= 34 (coefficient horizon)", "n <= 29 (coefficient horizon)")),
    (1e-10, ("n <= 27 (coefficient horizon), 5 evaluation points",
             "n <= 28 (coefficient horizon)", "n <= 23 (coefficient horizon)")),
    (1e-12, ("n <= 22 (coefficient horizon), 5 evaluation points",
             "n <= 23 (coefficient horizon)",
             "n <= 18 (coefficient horizon)"))])
def test_float_rows_stop_at_the_coefficient_horizon(q, notes):
    # the coefficient pairs of q <= 1e-6 reach 2^900 at n = 46, 34, 28 and
    # 23: the rows that step the float64 recurrence stop below it and say
    # so, where the two-route and sign rows raised and verify printed no
    # report.  The two-route tail series stops at n_max + 2 and sums back
    # from below the horizon, where it summed from 16 past its stop and
    # skipped q = 1e-12.  The trace reads the kappa ladder's first rung, 16
    # terms or the capacity's ceiling, where its 32 terms passed the horizon
    # below 1e-6
    r = _by_name(run_suite(js.ASC2Source(q, q, 0.0), precision_digits=30))
    names = ("recurrence_residual", "sign_patterns", "second_kind_two_route")
    for name, note in zip(names, notes):
        assert r[name].status == "pass" and r[name].note == note, r[name]
    assert r["trace_reconciliation"].status == "pass"


_SRC = str(Path(__file__).resolve().parents[1] / "src")
_LOADED = """
import contextlib, io, sys
import jacspec
import jacspec.cli
print(sorted(m for m in ("decimal", "mpmath") if m in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
            ["verify", "--q", "0.5", "--a", "0.5", "--shift", "0.5",
             "--precision", "30"],
            ["spectrum", "--q", "0.5", "--a", "0.5", "--shift", "0.5", "--k", "4"],
            ["charfn", "--q", "0.5", "--a", "0.5", "--shift", "0.5",
             "--grid=-1:2:5"]):
        assert jacspec.cli.main(argv) == 0, argv
print("mpmath" in sys.modules)
"""


def test_the_runtime_loads_no_mpmath():
    # import jacspec loads neither arithmetic package, so the import time
    # stays flat, and verify, spectrum and charfn run without mpmath,
    # which only the tests and the benchmark's reference values use
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", _LOADED], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    on_import, mpmath_after_runs = proc.stdout.split("\n")[:2]
    assert on_import == "[]"
    assert mpmath_after_runs == "False"


def _mp_number(ctx, x):
    """A Decimal or _Complex value in the mpmath context ctx; its decimal
    string is exact, and 40 digits hold the 30 it carries."""
    from decimal import Decimal
    if isinstance(x, Decimal):
        return ctx.mpf(str(x))
    return ctx.mpc(str(x.re), str(x.im))


@pytest.mark.parametrize("q", [1e-12, 0.5, 0.99])
def test_decimal_reference_matches_mpmath_at_40_digits(q):
    # the coefficient lists and the five reference columns of the 30-digit
    # checks, the complex one on _Complex, against mpmath at 40 digits from
    # the same float parameters.  Each float enters decimal exactly; one
    # taken as Decimal(str(x)) is rounded to 17 digits and lands 1e-17 away
    # (shift 0.3 at every q, and q itself at 1e-12 and 0.99)
    import mpmath
    src = js.ASC2Source(q, q, 0.3)
    mp = mpmath.mp.clone()
    mp.dps = 40
    alphas, betas = _mp_coeffs(src, _N_MAX, _mp_context(30))
    mq, ma, msh = mp.mpf(q), mp.mpf(q), mp.mpf(0.3)
    for n in range(_N_MAX + 1):
        want_a = mp.sqrt(ma * mq ** (-2 * n - 1) * (1 - mq ** (n + 1)))
        want_b = (ma + 1) * mq ** -n - msh
        assert abs(_mp_number(mp, alphas[n]) - want_a) <= 1e-25 * abs(want_a)
        assert abs(_mp_number(mp, betas[n]) - want_b) <= 1e-25 * abs(want_b)
    from decimal import localcontext
    for z in (*_REAL_ZS, _COMPLEX_Z):
        with localcontext(_mp_context(30)):
            column = plain_values(alphas, betas, _decimal(z), _N_MAX)
        ref = mp_plain_recurrence(src, z, _N_MAX, dps=40)
        for n, (got, want) in enumerate(zip(column, ref)):
            assert abs(_mp_number(mp, got) - want) <= 1e-25 * abs(want), (z, n)


def _sweep_configs():
    """24 ASC-II configurations of the certified regime 0 < a <= q < 1,
    shift < 1: q = a = 1e-12, one shift within 1e-9 of 1, 22 random draws."""
    rng = random.Random(39)
    configs = [(1e-12, 1e-12, 0.0)]
    q = 10 ** rng.uniform(-3, math.log10(0.95))
    configs.append((q, q * rng.uniform(0.01, 1.0), 1 - rng.uniform(0.0, 1e-9)))
    while len(configs) < 24:
        q = 10 ** rng.uniform(-8, math.log10(0.95))
        configs.append((q, q * rng.uniform(0.01, 1.0), rng.uniform(-2.0, 0.999)))
    return configs


@pytest.mark.parametrize("params", _sweep_configs(),
                         ids=[f"sweep{i}" for i in range(24)])
def test_verify_rows_pass_across_the_regime_at_three_precisions(params):
    # every row passes at the default 17 digits, at 30 and at 60, and the
    # four rows that run in decimal only shrink from 30 to 60 digits: their
    # maxima are round-off of the working precision.  A Green block that
    # keeps any entry with 12 correct digits read 1.2e-13 at 60 digits and
    # 5e-17 at 30 at (2.4e-7, 2.2e-7, 0.26), one of these configurations
    src = js.ASC2Source(*params)
    runs = {d: _by_name(run_suite(src, precision_digits=d)) for d in (0, 30, 60)}
    for digits, rows in runs.items():
        trace = rows.pop("trace_reconciliation")
        if 1 - src.shift <= 1e-9:
            # tr J^-1 is about 1/(1 - shift) > 1e9, and the float64
            # coefficients the kappa trace sums over move it by about 1e2
            # from the exact matrix's, past the row's absolute 1e-6: the
            # row reports a limit of the float pipeline, at every precision
            assert trace.status == "FAIL" and trace.max_residual > 1, trace
        else:
            assert trace.status == "pass", (digits, trace)
        for r in rows.values():
            assert r.status == "pass", (digits, r)
    for name in ("wronskian_identity", "green_identity",
                 "resolvent_identity", "w_factorization"):
        assert runs[60][name].max_residual < runs[30][name].max_residual, name
