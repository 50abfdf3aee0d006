import hashlib

import numpy as np
import pytest

import jacspec as js
from conftest import random_pd_table
from jacspec.recurrence import log_table
from jacspec.verify import (check_green_identity, check_resolvent_identity,
                            check_trace_reconciliation, check_w_factorization,
                            run_suite)


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
    for name in ("recurrence_residual", "wronskian_identity", "green_identity",
                 "resolvent_identity", "w_factorization"):
        assert r30[name].max_residual < r64[name].max_residual
        assert r30[name].max_residual < 1e-20


def test_check_result_status_strings(asc2_shifted):
    results = run_suite(asc2_shifted)
    assert all(r.status in ("pass", "FAIL", "skip") for r in results)


@pytest.mark.parametrize("params", [(0.7, 0.7, 0.05), (0.7, 0.7, -0.05),
                                    (0.5, 0.5, 0.45), (0.5, 0.5, 0.55)])
def test_trace_reconciliation_with_shift(params):
    # the tail lambda_n = C rho^-n - s is fitted, so a shift no longer leaves
    # a gap of order 1e-5 behind the twelve oracle eigenvalues
    r = check_trace_reconciliation(js.ASC2Source(*params))
    assert r.passed
    assert r.max_residual <= 1e-8


def test_trace_reconciliation_detects_planted_error(monkeypatch):
    from jacspec import second_kind
    orig = second_kind.trace_inverse

    def off_by_1e5(*args, **kwargs):
        tr = orig(*args, **kwargs)
        return second_kind.TraceInverse(value=tr.value + 1e-5,
                                        tail_bound=tr.tail_bound, terms=tr.terms)

    monkeypatch.setattr(second_kind, "trace_inverse", off_by_1e5)
    r = check_trace_reconciliation(js.ASC2Source(0.7, 0.7, 0.05))
    assert not r.passed
    assert r.max_residual == pytest.approx(1e-5, rel=1e-2)


def test_horizon_note_of_trace_reconciliation():
    r = _by_name(run_suite(js.ASC2Source(0.9, 0.9, 0.0)))["trace_reconciliation"]
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
        assert r[name].max_residual < 1e-20


def test_gamma_above_the_spectrum_rejected():
    # lambda_1 = 1 at (0.5, 0.5, 0): gamma 1.5 used to pass every check
    src = js.ASC2Source(0.5, 0.5, 0.0)
    with pytest.raises(js.AssumptionViolation, match="gamma 1.5 is above"):
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
# mpmath identity checks must keep these reports byte for byte
_PRECISION_30_REPORTS = {
    ("--q=0.5", "--a=0.5", "--shift=0.5"):
        "50669432914cd0db76c335becca8dcadf70265b621d5c271d8a408834490159b",
    ("--q=0.7", "--a=0.7", "--shift=0.0"):
        "d7016f7872317bbe68073020192ad763c1744956d9edfb921358834f9eb0cf9a",
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
    src = js.ASC2Source(*params)
    for check in (check_green_identity, check_resolvent_identity):
        r = check(src, digits=digits)
        assert r.passed and r.max_residual <= 1e-11, (check.__name__, r)


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
