import numpy as np
import pytest

import jacspec as js
from conftest import random_pd_table
from jacspec.verify import check_trace_reconciliation, run_suite


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
    r = _by_name(run_suite(js.TableSource([1.0, 0.5], [2.0, 2.0, 2.0]),
                           precision_digits=digits))
    for name in ("recurrence_residual", "wronskian_identity", "sign_patterns"):
        assert r[name].skipped and r[name].note.startswith("table too short")
    assert r["green_identity"].passed and r["green_identity"].note == "N = 2"
    assert r["resolvent_identity"].passed
    r = _by_name(run_suite(js.TableSource([1.0], [2.0, 2.0]),
                           precision_digits=digits))
    for name in ("green_identity", "resolvent_identity"):
        assert r[name].skipped and r[name].note.startswith("table too short")
    assert all(x.passed for x in r.values())


def test_extended_precision_on_a_table():
    # the mpmath Green and resolvent checks read no coefficient past the table
    rng = np.random.RandomState(47)
    src = random_pd_table(rng, 6)
    r = _by_name(run_suite(src, precision_digits=30))
    for name in ("recurrence_residual", "wronskian_identity", "green_identity",
                 "resolvent_identity"):
        assert r[name].passed and not r[name].skipped
        assert r[name].max_residual < 1e-20
