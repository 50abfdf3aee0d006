"""Tests of the benchmark itself: seeded inputs, the independent correctness
check and the traced run.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest

import jobs
from checks import Op, build_reference, check, grid_points
from jobs import BASE_JOBS, WORKLOADS, Job, Outcome, make_jobs, run_job
from run import Tally
from tracing import HOOKS, METRICS, Hook, Tracer, installed, layer_metrics

jacspec = jobs.import_jacspec()
from jacspec.spectrum import SpectrumResult  # noqa: E402


def _failed(ops: list[Op]) -> list[Op]:
    return [op for op in ops if not op.ok]


# -- seeded inputs ----------------------------------------------------------

def test_seed_zero_runs_the_listed_configurations():
    certified = make_jobs("spectrum-certified", 0)
    assert [(j.q, j.a, j.shift, j.k, j.tol, j.confirm) for j in certified] == [
        (0.5, 0.5, 0.5, 8, 1e-9, "auto"), (0.3, 0.3, 0.0, 8, 1e-9, "auto"),
        (0.6, 0.3, 0.5, 6, 1e-9, "auto"), (0.9, 0.9, 0.0, 6, 1e-9, "auto")]
    grid = make_jobs("charfn-grid", 0)
    assert [j.grid for j in grid] == [(-1.0, 250.0, 400), (-1.0, 40.0, 400)]
    assert grid[0].argv() == ["charfn", "--q=0.5", "--a=0.5", "--shift=0.5",
                              "--grid=-1.0:250.0:400", "--format=json"]
    for w in WORKLOADS:
        assert make_jobs(w, 0) == list(BASE_JOBS[w])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_only_the_generated_inputs(workload):
    base = make_jobs(workload, 0)
    for seed in (1, 2, 12345):
        jittered = make_jobs(workload, seed)
        assert jittered == make_jobs(workload, seed)  # same seed, same inputs
        assert len(jittered) == len(base)
        for b, j in zip(base, jittered):
            fixed = [f.name for f in fields(Job) if f.name not in ("shift", "grid")]
            assert all(getattr(b, f) == getattr(j, f) for f in fixed)
            assert abs(j.shift - b.shift) <= jobs.SHIFT_JITTER
            if j.kind != "identities":
                assert 0.0 < j.a <= j.q < 1.0 and j.shift < 1.0
            if b.grid is not None:
                assert j.grid[2] == b.grid[2]
                assert j.grid[0] < 0.0 < j.grid[1]
    shifts = {tuple(j.shift for j in make_jobs(workload, s)) for s in range(1, 6)}
    assert len(shifts) == 5


# -- independent correctness check -------------------------------------------

def _spectrum_outcome(values, methods=None):
    return Outcome(result=SpectrumResult(
        k=len(values), eigenvalues=list(values),
        methods=methods or ["charfn-bisection"] * len(values)))


def test_planted_wrong_eigenvalue_is_counted_as_failed():
    job = Job("spectrum", q=0.5, a=0.5, shift=0.5, k=6, tol=1e-9, confirm="auto")
    ref = build_reference(job)
    assert ref[:3] == [0.5, 1.5, 3.5]
    assert _failed(check(job, ref, _spectrum_outcome(ref))) == []
    planted = list(ref)
    planted[3] *= 1.0 + 1e-6
    failed = _failed(check(job, ref, _spectrum_outcome(planted)))
    assert len(failed) == 1 and failed[0].wrong


def test_unresolved_and_raised_spectrum_jobs_fail_every_index():
    job = Job("spectrum", q=0.5, a=0.5, shift=0.5, k=4, tol=1e-9, confirm="auto")
    ref = build_reference(job)
    out = _spectrum_outcome(ref, ["charfn-bisection"] * 3 + ["unresolved"])
    out.result.unresolved = [4]
    assert len(_failed(check(job, ref, out))) == 1
    raised = check(job, ref, Outcome(error="ValueError: overflow"))
    assert len(_failed(raised)) == 4 and not any(op.wrong for op in raised)


def test_planted_wrong_F_value_is_counted_as_failed():
    job = Job("charfn", q=0.7, a=0.7, shift=0.0, grid=(-1.0, 40.0, 25))
    ref = build_reference(job)
    out = run_job(job)
    assert out.rc == 0
    assert _failed(check(job, ref, out)) == []
    doc = json.loads(out.report)
    doc["rows"][17]["f_partial"] *= 1.0 + 1e-6
    planted = replace(out, report=json.dumps(doc))
    failed = _failed(check(job, ref, planted))
    assert len(failed) == 1 and failed[0].wrong
    assert len(ref) == len(grid_points(job.grid)) == 25


def test_verify_fail_and_nonzero_exit_count_as_failed():
    job = Job("verify", q=0.5, a=0.5, shift=0.5, precision=30)
    ref = build_reference(job)
    out = run_job(job)
    assert out.rc == 0 and _failed(check(job, ref, out)) == []
    broken = out.report.replace("trace_reconciliation,pass",
                                "trace_reconciliation,FAIL")
    ops = check(job, ref, replace(out, report=broken, rc=3))
    assert [op.reason.split(":")[0] for op in _failed(ops)] == [
        "check trace_reconciliation"]  # exit code 3 is that row's verdict
    unexplained = check(job, ref, replace(out, rc=3, stderr="failed checks: []"))
    assert len(_failed(unexplained)) == len(ref)
    assert len(_failed(check(job, ref, Outcome(rc=2, stderr="error: bad")))) == len(ref)


def test_report_that_changes_between_passes_is_counted_as_failed():
    job = Job("identities", q_list=(0.5,))
    out = run_job(job)
    tally = Tally([job])
    tally.add([out])
    tally.add([out])
    assert (tally.attempted, tally.failed) == (8, 0)
    tally.add([replace(out, report=out.report + "\n")])
    assert (tally.attempted, tally.failed, tally.wrong) == (12, 4, 4)


# -- traced run ---------------------------------------------------------------

def _traced_spectrum():
    tracer = Tracer()
    with installed(tracer):
        res = jacspec.spectrum.find_spectrum(
            jacspec.ASC2Source(0.5, 0.5, 0.5), 2, 1e-9)
    assert res.methods == ["charfn-bisection"] * 2
    return tracer


def test_traced_counts_repeat_exactly_and_hooks_are_restored():
    originals = {(h.module, h.attr): _lookup(h) for h in HOOKS}
    a, b = _traced_spectrum(), _traced_spectrum()
    assert a.missing == []
    metrics_a, warn_a = layer_metrics([a])
    metrics_b, _ = layer_metrics([b])
    assert warn_a == []
    assert set(metrics_a) == {m.name for m in METRICS}
    for m in METRICS:
        if not m.timed:
            assert metrics_a[m.name] == metrics_b[m.name], m.name
    assert metrics_a["charfn.f_evals"]["value"] > 0
    assert metrics_a["recurrence.steps"]["value"] > 0
    assert {(h.module, h.attr): _lookup(h) for h in HOOKS} == originals
    assert "coeffs" not in vars(jacspec.sources.ASC2Source)


def _lookup(hook: Hook):
    import importlib
    owner = importlib.import_module(hook.module)
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner).get(name)


def test_missing_hook_is_reported_missing_not_zero():
    gone = Hook("charfn.eval", "jacspec.charfn", "_renamed_away")
    tracer = Tracer()
    with installed(tracer, HOOKS + (gone,)):
        jacspec.charfn.CharFnEvaluator(jacspec.ASC2Source(0.5, 0.5, 0.5)).eval(1.0)
    assert tracer.missing == ["jacspec.charfn._renamed_away"]
    metrics, warnings = layer_metrics([tracer], HOOKS + (gone,))
    for name in ("charfn.f_evals", "charfn.eval.self_s", "recurrence.steps_per_f_eval"):
        assert name not in metrics
        assert any(w.startswith(f"{name} missing") for w in warnings)
    assert metrics["second_kind.kappa_builds"]["value"] > 0
