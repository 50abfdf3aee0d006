"""Independent references and the per-operation correctness check.

An operation is one requested eigenvalue, one charfn grid point, one verify
check or one identities row.  References never come from jacspec:
eigenvalues are compared with q^-n - shift in mpmath, F values with
mpmath.qp(z + shift, q) / mpmath.qp(shift, q).  An operation fails on a raised
exception, a nonzero exit, an unresolved index, a mismatch with its
reference, or a report that differs between passes of one run.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from jobs import Job, Outcome

# |lambda - ref| <= tol + EIG_RTOL |ref|: the requested bisection tolerance
# plus float64 round-off of eigenvalues as large as 2^39.
EIG_RTOL = 1e-12
# |F - ref| <= F_RTOL * M(z) with M(z) = prod (1 + |z| / lambda_n), the
# cancellation-free size of the product; it bounds |F| and never vanishes, so
# grid points next to a zero of F are judged fairly.
F_RTOL = 1e-12
# identities rows report the gap of an exact q-series identity
IDENTITY_GAP = 1e-9
# the charfn command's default certification target (RunConfig.atol)
CHARFN_ATOL = 1e-12

VERIFY_CHECKS = (
    "coefficient_positivity", "recurrence_residual", "wronskian_identity",
    "green_identity", "resolvent_identity", "sign_patterns",
    "second_kind_two_route", "kappa_positivity_monotonic",
    "per_term_growth_bound", "trace_reconciliation", "w_factorization",
)
IDENTITY_NAMES = ("q_binomial", "q_gauss", "phi1_closed_form",
                  "phi1_functional_relation")


@dataclass(frozen=True)
class Op:
    """Verdict on one operation; certified is None where it does not apply."""

    ok: bool
    certified: bool | None = None
    rel_err: float | None = None
    reason: str = ""
    wrong: bool = False  # a value returned but incorrect, not a refusal


def eigen_reference(q: float, shift: float, k: int) -> list[float]:
    with mpmath.workdps(40):
        return [float(mpmath.mpf(q) ** -n - mpmath.mpf(shift)) for n in range(k)]


def grid_points(grid) -> list[float]:
    lo, hi, n = grid
    return [float(z) for z in np.linspace(lo, hi, n)]


def charfn_reference(q: float, shift: float, z: float) -> float:
    with mpmath.workdps(30):
        return float(mpmath.qp(mpmath.mpf(z) + shift, q) / mpmath.qp(shift, q))


def product_scale(q: float, shift: float, z: float) -> float:
    """M(z) = prod_n (1 + |z| / (q^-n - shift))."""
    acc, n = 0.0, 0
    while True:
        x = abs(z) / (q ** -n - shift)
        if x < 1e-18:
            return math.exp(acc)
        acc += math.log1p(x)
        n += 1


def build_reference(job: Job):
    """Everything a check needs that does not depend on the program."""
    if job.kind == "spectrum":
        return eigen_reference(job.q, job.shift, job.k)
    if job.kind == "charfn":
        zs = grid_points(job.grid)
        return [(z, charfn_reference(job.q, job.shift, z),
                 product_scale(job.q, job.shift, z)) for z in zs]
    if job.kind == "verify":
        return VERIFY_CHECKS
    return [(name, q) for q in job.q_list for name in IDENTITY_NAMES]


def n_ops(job: Job, ref) -> int:
    return job.k if job.kind == "spectrum" else len(ref)


def fingerprint(outcome: Outcome):
    """What must repeat exactly across the passes of one run."""
    if outcome.result is not None:
        r = outcome.result
        return ("spectrum", tuple(r.eigenvalues), tuple(r.methods),
                tuple(r.unresolved))
    return (outcome.rc, outcome.error, outcome.report)


def check(job: Job, ref, outcome: Outcome) -> list[Op]:
    """Per-operation verdicts for one job's outcome."""
    if outcome.error is not None:
        return [Op(False, reason=outcome.error)] * n_ops(job, ref)
    if job.kind == "spectrum":
        return _check_spectrum(job, ref, outcome.result)
    try:
        if job.kind == "charfn":
            ops = _check_charfn(ref, json.loads(outcome.report)["rows"])
        else:
            rows = list(csv.DictReader(io.StringIO("".join(
                line for line in io.StringIO(outcome.report)
                if not line.startswith("#")))))
            checker = _check_verify if job.kind == "verify" else _check_identities
            ops = checker(ref, rows)
    except (ValueError, KeyError, TypeError) as exc:
        ops = [Op(False, reason=f"unreadable report: {exc}")] * n_ops(job, ref)
    if outcome.rc != 0 and all(op.ok for op in ops):
        # an exit code the report's own rows do not explain fails the job
        first = outcome.stderr.strip().splitlines()[:1]
        why = f"exit code {outcome.rc}" + (f": {first[0]}" if first else "")
        ops = [Op(False, reason=why)] * len(ops)
    return ops


def _check_spectrum(job: Job, ref: list[float], res) -> list[Op]:
    ops = []
    for j, want in enumerate(ref):
        if j >= len(res.eigenvalues) or (j + 1) in res.unresolved \
                or res.methods[j] == "unresolved":
            ops.append(Op(False, reason="unresolved"))
            continue
        lam = res.eigenvalues[j]
        err = abs(lam - want)
        ok = math.isfinite(lam) and err <= job.tol + EIG_RTOL * abs(want)
        ops.append(Op(ok, certified=res.methods[j] == "charfn-bisection",
                      rel_err=err / abs(want), wrong=not ok,
                      reason="" if ok else f"lambda_{j + 1} = {lam!r}, want {want!r}"))
    return ops


def _check_charfn(ref, rows) -> list[Op]:
    ops = []
    for i, (z, want, scale) in enumerate(ref):
        row = rows[i] if i < len(rows) else None
        if row is None or row["z"] != z or row["f_partial"] is None:
            ops.append(Op(False, reason=f"grid point {z!r} missing"))
            continue
        err = abs(row["f_partial"] - want) / scale
        ok = err <= F_RTOL
        tb = row["tail_bound"]
        ops.append(Op(ok, certified=tb is not None and tb <= CHARFN_ATOL,
                      rel_err=err, wrong=not ok,
                      reason="" if ok else
                      f"F({z!r}) = {row['f_partial']!r}, want {want!r}"))
    return ops


def _check_verify(names, rows) -> list[Op]:
    by_name = {r["check"]: r for r in rows}
    ops = []
    for name in names:
        row = by_name.get(name)
        if row is None:
            ops.append(Op(False, reason=f"check {name} missing"))
            continue
        ok = row["status"] == "pass" \
            and float(row["max_residual"]) <= float(row["threshold"])
        ops.append(Op(ok, reason="" if ok else
                      f"check {name}: {row['status']}, residual "
                      f"{row['max_residual']} > threshold {row['threshold']}"))
    return ops


def _check_identities(expected, rows) -> list[Op]:
    got = {(r["identity"], float(r["q"])): float(r["max_gap"]) for r in rows}
    ops = []
    for name, q in expected:
        gap = got.get((name, q))
        if gap is None:
            ops.append(Op(False, reason=f"identity {name} at q={q} missing"))
            continue
        ok = gap <= IDENTITY_GAP
        ops.append(Op(ok, wrong=not ok,
                      reason="" if ok else f"identity {name} at q={q}: gap {gap}"))
    return ops
