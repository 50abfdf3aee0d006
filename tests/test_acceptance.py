"""Acceptance criteria, one test per criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.
"""

import csv
import io
import math
from contextlib import contextmanager

import numpy as np
import pytest

import jacspec as js
from asc2_reference import asc2_series_vs_product
from conftest import random_pd_table
from jacspec.verify import (_mp_tables, check_recurrence,
                            check_resolvent_identity, check_wronskian)


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {num} PASS: {title}")


def test_acceptance_1_asc2_spectrum_reproduction(capsys):
    with criterion(1, "ASC-II spectrum reproduction (k = 8, certified)"):
        from jacspec.cli import main

        expected = [2.0 ** j - 0.5 for j in range(8)]

        # CLI path: eight eigenvalues within 1e-9, exit status 0
        code = main(["spectrum", "--family", "asc2", "--q", "0.5", "--a", "0.5",
                     "--shift", "0.5", "--k", "8", "--eig-tol", "1e-9"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
        assert len(rows) == 8
        for row, ref in zip(rows, expected):
            assert abs(float(row["lambda"]) - ref) <= 1e-9

        # library path: certified sign change for every eigenvalue
        src = js.ASC2Source(q=0.5, a=0.5, shift=0.5)
        res = js.find_spectrum(src, 8, 1e-9)
        assert res.ok
        assert all(m == "charfn-bisection" for m in res.methods)
        for j, ref in enumerate(expected):
            assert abs(res.eigenvalues[j] - ref) <= 1e-9
            lo, hi = res.brackets[j]
            assert lo < res.eigenvalues[j] < hi

        # oracle gap at truncation size 400
        t400 = js.TruncatedTridiagonal.from_source(src, 400)
        x400 = js.sturm_eigenvalues(t400, 8, 1e-10)
        gaps = np.abs(np.array(res.eigenvalues) - x400)
        assert np.all(gaps <= 1e-7)


def test_acceptance_2_series_product_identity():
    with criterion(2, "ASC-II series vs product identity on [-2, 3]"):
        for q, a in ((0.5, 0.5), (0.5, 0.25), (0.3, 0.3)):
            params = js.QParams(q=q, a=a)
            for z in np.linspace(-2.0, 3.0, 25):
                series, product, gap, tail = asc2_series_vs_product(
                    params, float(z), atol=1e-13)
                assert gap <= tail + 1e-10, (q, a, z, gap, tail)


def test_acceptance_3_trace_reconciliation():
    with criterion(3, "trace reconciliation against 40 located eigenvalues"):
        src = js.ASC2Source(q=0.5, a=0.5, shift=0.5)
        tr = js.trace_inverse(src, 1e-8)

        res = js.find_spectrum(src, 40, 1e-9)
        assert res.ok
        inv = [1.0 / lam for lam in res.eigenvalues]
        ratio = inv[-1] / inv[-2]
        tail = inv[-1] * ratio / (1.0 - ratio)
        recon = math.fsum(inv) + tail
        assert abs(tr.value - recon) <= 1e-6

        # independent series oracle for the reference value
        ref = math.fsum(1.0 / (2.0 ** n - 0.5) for n in range(120))
        assert abs(ref - 3.21339) <= 5e-6  # the quoted reference
        assert abs(tr.value - ref) <= 1e-6
        assert abs(recon - ref) <= 1e-6


_COMPLEX_PROBES = [
    complex(1.5, 2.0), complex(-2.2, 1.1), complex(0.0, 3.0),
    complex(-1.0, -2.5), complex(2.8, -0.7), complex(-3.1, -1.2),
    complex(0.9, 1.9), complex(3.3, 1.5),
]


def test_acceptance_4_two_method_agreement():
    with criterion(4, "partial-sum vs ratio-limit agreement on |z| <= 4"):
        zs = [float(z) for z in np.linspace(-4.0, 4.0, 12)] + _COMPLEX_PROBES
        assert len(zs) == 20
        for q, a in ((0.3, 0.3), (0.5, 0.5), (0.7, 0.7)):
            src = js.ASC2Source(q=q, a=a, shift=a)
            ev = js.CharFnEvaluator(src)
            for z in zs:
                ps = ev.eval(z, 1e-8)
                rt = js.charfn_ratio(src, z, n_max=400)
                bound = ps.tail_bound + ps.noise_estimate \
                    + rt.tail_bound + rt.noise_estimate
                assert abs(ps.value - rt.value) <= bound, (q, z)


def test_acceptance_5_structural_identity_suite():
    with criterion(5, "structural identity suite"):
        rng = np.random.RandomState(97)
        asc2 = js.ASC2Source(q=0.5, a=0.5, shift=0.5)
        asc2_b = js.ASC2Source(q=0.3, a=0.3)
        tables = [random_pd_table(rng, 20) for _ in range(5)]

        # the verify rows, at default (53-bit) precision: recurrence
        # residuals with relative tolerance 1e-12 (n <= 40 on ASC-II, every
        # index a table determines), the associated-polynomial identity vs
        # forward substitution for m <= 12, and the Green-based
        # reconstruction of P_*(x) from P_*(0) at x = 0, 0.1, 0.3 on N <= 12
        for src in (asc2, asc2_b, *tables):
            mp = _mp_tables(src, 0)
            rows = {r.name: r for r in (
                check_recurrence(src, *mp[:3]), check_wronskian(*mp[:3]),
                check_resolvent_identity(*mp, gamma=1.0))}
            assert rows["recurrence_residual"].max_residual <= 1e-12
            assert rows["wronskian_identity"].note == "m <= 12"
            assert rows["wronskian_identity"].max_residual <= 1e-10
            assert rows["resolvent_identity"].max_residual <= 1e-10
            assert all(r.passed and not r.skipped for r in rows.values())

        # W-factorization, N = 10
        assert js.w_factorization_check(js.QParams(0.5, 0.5), 10) <= 1e-12

        # sign patterns, n <= 40
        for src in (asc2, asc2_b):
            logs_p, sgn_p = js.recurrence.log_table(src, 0.0, 40)
            logs_q, sgn_q = js.recurrence.log_table(src, 0.0, 40,
                                                    second_kind=True)
            for n in range(41):
                assert sgn_p[n] == (-1.0 if n % 2 else 1.0)
                if n >= 1:
                    assert sgn_q[n] == (1.0 if n % 2 else -1.0)

        # kappa positivity and strict monotonicity of w_n(0)/P_n(0), n <= 40
        for src in (asc2, asc2_b):
            seq = js.kappa_sequence(src, 41)
            assert all(k > 0 for k in seq.kappas)
            logs_p, _ = js.recurrence.log_table(src, 0.0, 41)
            ratio_logs = [math.log(k) - 2.0 * logs_p[n]
                          for n, k in enumerate(seq.kappas)]
            assert all(b < a for a, b in zip(ratio_logs, ratio_logs[1:]))

        # per-term growth bound on the test grid, with S the kappa sum
        # estimate of the first 64 entries
        for src in (asc2, asc2_b):
            ev = js.CharFnEvaluator(src)
            eng = ev._table.engine
            s_up = js.kappa_sequence(src, 64, engine=eng).total_upper
            for z in (-2.0, -0.5, 1.0, 3.0, complex(0.8, 1.1)):
                logs_z, _ = js.recurrence.log_table(src, z, 40)
                for n in range(41):
                    lhs = (math.log(abs(eng.w0_mant[n])) + eng.w0_exp[n] * math.log(2.0)
                           + logs_z[n])
                    assert lhs <= abs(z) * s_up \
                        + math.log(eng.kappas[n]) + 1e-10


def test_acceptance_6_qseries_suite():
    with criterion(6, "q-series identity suite"):
        for q in (0.3, 0.5, 0.7):
            for u, z in ((q, 0.5), (0.0, 0.3), (q * q, -0.4), (0.25, 0.6),
                         (-0.5, 0.5)):
                assert js.qbinomial_check(u, z, q)[2] <= 1e-10
            for a, b, c in ((q, q, q ** 3), (q ** 2, q, q ** 4),
                            (q, q ** 2, q ** 4)):
                assert js.qgauss_check(a, b, c, q)[2] <= 1e-10
            for a, c in ((0.0, 0.25), (0.5 * q, 0.5), (0.3, 0.3), (-0.4, 0.6),
                         (q, q * q)):
                assert js.phi1_closed_form_check(a, c, q)[2] <= 1e-10
            # functional relation F(a, c) = ((1-a)/(1-c)) F(qa, qc)
            from jacspec.qseries import phi1_unit_argument
            for a, c in ((0.2, 0.45), (-0.3, 0.6), (0.15, 0.8)):
                f_ac = 1.0 - (a - c) / (1.0 - c) * phi1_unit_argument(a, c, q)
                f_q = 1.0 - (q * a - q * c) / (1.0 - q * c) \
                    * phi1_unit_argument(q * a, q * c, q)
                assert abs(f_ac - (1.0 - a) / (1.0 - c) * f_q) <= 1e-12


def test_acceptance_7_monotone_root_convergence():
    with criterion(7, "monotone root convergence up to N = 256"):
        sizes = [8, 16, 32, 64, 128, 256]

        def ladder(src, j):
            out = []
            for n in sizes:
                t = js.TruncatedTridiagonal.from_source(src, n)
                out.append(float(js.sturm_eigenvalues(t, j, 1e-13)[j - 1]))
            return out

        # slowly converging bounded table: strict decrease visible at every rung
        slow = js.TableSource(alphas=[1.0] * 257, betas=[2.0] * 257)
        for j in range(1, 5):
            xs = ladder(slow, j)
            assert all(b < a for a, b in zip(xs, xs[1:]))
            diffs = [a - b for a, b in zip(xs, xs[1:])]
            assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
            # reference: eigenvalues of the free discrete Laplacian block
            for n, x in zip(sizes, xs):
                ref = 2.0 - 2.0 * math.cos(j * math.pi / (n + 1))
                assert x == pytest.approx(ref, abs=1e-12)

        # ASC-II: superexponential convergence saturates float64 around
        # N ~ 55, so strictness is asserted until differences hit the ulp
        # floor and never increase afterwards
        asc2 = js.ASC2Source(q=0.5, a=0.5, shift=0.0)
        for j in range(1, 5):
            xs = ladder(asc2, j)
            diffs = [a - b for a, b in zip(xs, xs[1:])]
            floor = 64 * np.spacing(abs(xs[-1]))
            for d1, d2 in zip(diffs, diffs[1:]):
                if d1 > floor:
                    assert d2 < d1
                else:
                    assert d2 <= floor
            assert all(d >= -floor for d in diffs)  # never increases
            assert xs[0] > xs[-1]  # net strict decrease over the ladder
