"""The report's grid path of the characteristic function against the
scalar ones.

CharFnEvaluator._grid steps a whole z-grid through one column-wise
recurrence per block of points (_sweep) and gives the charfn report's
columns; at every point the partial sum, its tail bound, term count and
certified flag must equal the scalar eval's bit for bit, and the ratio
column charfn_ratio's, it must raise where the scalar paths raise, and the
charfn report must keep its pinned bytes.  "eval_grid" and "ratio_grid" in
the test names stand for these two column sets of _grid.  Both partial-sum
paths form each term as ldexp(mantissa of w_n(0) * u, its exponent + the
recurrence's rescale exponent), which the tests at the end pin down.
"""

import contextlib
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest

import jacspec as js
from conftest import ZeroAtTwo, grid_rows, scalar_rows
from jacspec import charfn, cli, sources
from jacspec.errors import AssumptionViolation, ConvergenceError
from jacspec.recurrence import _LN2, _coeff_reader, _scaled_iter


def _outcome(fn):
    """Result of fn(), or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # compared, never swallowed
        return (type(exc), str(exc))


def _assert_grid_is_scalar(src, zs, atol, max_terms=20000, n_max=400):
    """_grid's rows equal the scalar paths' rows, or both raise alike;
    returns the scalar outcome."""
    scalar = _outcome(lambda: scalar_rows(src, zs, atol, n_max, max_terms))
    got = _outcome(lambda: grid_rows(js.CharFnEvaluator(src, max_terms), zs,
                                     atol, n_max))
    assert got == scalar
    return scalar


# (source, grid, atol, max_terms)
GRIDS = {
    "contains-zero": ((0.5, 0.5, 0.5), np.linspace(-2.0, 2.0, 9), 1e-12, 20000),
    "negative-only": ((0.3, 0.3, 0.0), np.linspace(-40.0, -0.5, 25), 1e-12, 20000),
    "uncertified-budget": ((0.5, 0.5, 0.5), np.linspace(-5.0, 60.0, 14), 1e-12, 80),
    # beyond |z| ~ 2.6e11 the bound needs more terms than the 832-entry table
    "uncertified-far": ((0.5, 0.5, 0.5), np.linspace(-1.0, 1e12, 41), 1e-12, 20000),
    "table-order": ((0.5, 0.5, 0.5),
                    np.array([200.0, 1.0, 30.0, 120.0, -3.0, 250.0, 0.5, 0.0]),
                    1e-30, 20000),
    "q07": ((0.7, 0.7, 0.0), np.linspace(-1.0, 40.0, 33), 1e-12, 20000),
    "shifted-q06": ((0.6, 0.3, 0.5), np.linspace(-1.0, 100.0, 21), 1e-9, 20000),
    "beyond-ratio-cap": ((0.9, 0.9, 0.0), np.linspace(-1.0, 20.0, 8), 1e-12, 20000),
    "huge-z": ((0.5, 0.5, 0.5), np.linspace(-1e6, 1e6, 11), 1e-12, 20000),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_eval_grid_matches_scalar_eval(name):
    # at the report's n_max = min(400, max_terms)
    params, grid, atol, max_terms = GRIDS[name]
    scalar = _assert_grid_is_scalar(js.ASC2Source(*params), grid.tolist(), atol,
                                    max_terms, min(400, max_terms))
    assert isinstance(scalar, list)
    if name.startswith("uncertified"):
        assert not all(row[3] for row in scalar)


@pytest.mark.parametrize("n_max", [0, 1, 37, 400])
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_ratio_grid_matches_scalar_ratio(name, n_max):
    params, grid, atol, max_terms = GRIDS[name]
    _assert_grid_is_scalar(js.ASC2Source(*params), grid.tolist(), atol,
                           max_terms, n_max)


def test_grid_paths_on_a_table_raise_as_the_scalar_paths():
    tbl = js.TableSource(alphas=[1.0] * 9, betas=[2.0] * 10)
    zs = [-1.0, 0.0, 0.5]
    scalar = _assert_grid_is_scalar(tbl, zs, 1e-12)
    assert scalar[0] is ValueError
    assert _outcome(lambda: js.charfn_ratio(tbl, -1.0))[0] is ValueError
    # F(0) = 1 needs no coefficient
    assert js.charfn_ratio(tbl, 0.0).value == 1.0


def test_ratio_grid_raises_at_the_first_zero_of_p_n_at_origin():
    # with max_terms 6 no kappa build is tried (the ladder's first count
    # would be below 4), so the grid reaches P_2(0) = 0 in _sweep's z = 0
    # column, and every point is uncertified over the empty table
    src = ZeroAtTwo()
    zs = [0.0, -1.0, 3.0]
    with pytest.raises(AssumptionViolation, match=r"^P_2\(0\) = 0") as scalar:
        js.charfn_ratio(src, -1.0)
    with pytest.raises(AssumptionViolation) as grid:
        js.CharFnEvaluator(src, 6)._grid(zs, 1e-12, 400)
    assert str(grid.value) == str(scalar.value)
    # before index 2 nothing is wrong yet, and z = 0 alone never steps
    rows = _assert_grid_is_scalar(src, zs, 1e-12, 6, n_max=1)
    assert [row[2:4] for row in rows] == [(0, True), (0, False), (0, False)]
    assert grid_rows(js.CharFnEvaluator(src, 6), [0.0] * 3, 1e-12, 400) == \
        [(float.hex(1.0), float.hex(0.0), 0, True, float.hex(1.0))] * 3


def test_kappa_builds_raise_at_the_first_zero_of_p_n_at_origin():
    # P_2(0) = 0 is found before any backward sum is formed, so neither call
    # walks the term budget or meets an inf - inf in a sum
    src = ZeroAtTwo()
    with pytest.raises(AssumptionViolation, match=r"^P_2\(0\) = 0") as seq:
        js.kappa_sequence(src, 5)
    with pytest.raises(AssumptionViolation) as ev:
        js.CharFnEvaluator(src).eval(0.3)
    assert str(ev.value) == str(seq.value)


def test_huge_z_grid_is_warning_free():
    # RuntimeWarning is an error under pytest already; make it explicit so the
    # test also holds where that setting is absent
    src = js.ASC2Source(0.5, 0.5, 0.5)
    zs = np.linspace(-1e6, 1e6, 21).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = grid_rows(js.CharFnEvaluator(src), zs, 1e-12, 400)
    assert got == scalar_rows(src, zs, 1e-12, 400)
    assert all(math.isfinite(float.fromhex(row[i])) for row in got
               for i in (0, 4))


def test_eval_grid_uses_the_table_each_point_was_planned_with(marked_builds):
    # the grid plans every point before it sums any; with builds marked by
    # their size, a point summed with entries of a build other than the one
    # the scalar eval reads would show
    params, grid, atol, max_terms = GRIDS["uncertified-far"]
    _assert_grid_is_scalar(js.ASC2Source(*params), grid.tolist(), atol,
                           max_terms)


def test_eval_grid_blocks_do_not_change_values(monkeypatch):
    # one-column blocks and one block for the whole grid give the same values
    src = js.ASC2Source(0.5, 0.5, 0.5)
    zs = np.linspace(-1.0, 250.0, 23).tolist()
    want = grid_rows(js.CharFnEvaluator(src), zs, 1e-12, 400)
    assert want == scalar_rows(src, zs, 1e-12, 400)
    monkeypatch.setattr(charfn, "_GRID_BLOCK_BYTES", 1)
    assert grid_rows(js.CharFnEvaluator(src), zs, 1e-12, 400) == want
    monkeypatch.setattr(charfn, "_GRID_BLOCK_BYTES", 1 << 30)
    assert grid_rows(js.CharFnEvaluator(src), zs, 1e-12, 400) == want


def _charfn_report(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["charfn", *argv, "--format=json"]) == 0
    return out.getvalue()


# SHA-256 of the reports with each partial-sum term formed as
# ldexp(m_n u, e_n + round(log_scale / ln 2)) from w_n(0) = m_n 2^e_n; the
# grid path gives them bit for bit, as the scalar eval does at every point.
# The tail bounds are |z| T_N U(R), with U(R) >= F(-R) the majorant of the
# power of two R above |z|; every point of both reports is certified
GOLDEN = {
    ("--q=0.5", "--a=0.5", "--shift=0.5", "--grid=-1.0:250.0:400"):
        "ff673c30c19d6b6d28aa0b4f927779bc021893e0be796da6867419519b22cb60",
    ("--q=0.7", "--a=0.7", "--shift=0.0", "--grid=-1.0:40.0:400"):
        "b416c981bbf53c226d135d066e6e80a69082f5134d2d3a8e5a323ab1d3e20e39",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_charfn_report_is_byte_identical_to_the_scalar_path(argv):
    report = _charfn_report(*argv)
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN[argv]


def test_charfn_coefficient_reads_do_not_scale_with_the_grid(monkeypatch):
    # the per-point loop read 578,901 coefficients here (each point stepped
    # its own recurrence, and the ratio its own z = 0 chain); the grid path
    # reads 1,302: the kappa table, whose coefficient cache the partial-sum
    # pass shares, and one ratio pass of 400 steps
    calls = [0]
    orig = sources.ASC2Source.coeffs

    def counted(self, n):
        calls[0] += 1
        return orig(self, n)

    monkeypatch.setattr(sources.ASC2Source, "coeffs", counted)
    _charfn_report("--q=0.5", "--a=0.5", "--shift=0.5", "--grid=-1:250:400")
    assert calls[0] <= 2 * 2133


def test_charfn_report_computes_the_closed_form_denominator_once(monkeypatch):
    # one scalar (shift; q)_inf per report; every (z + shift; q)_inf comes
    # from one vectorized product over the grid
    from jacspec import qseries
    calls = []
    orig = qseries.qpoch_inf
    monkeypatch.setattr(qseries, "qpoch_inf",
                        lambda x, q: calls.append(x) or orig(x, q))
    _charfn_report("--q=0.5", "--a=0.5", "--shift=0.5", "--grid=-1:250:400")
    assert calls == [0.5]


# (source, grid, atol, max_terms) of the fused report sweep: a grid through
# z = 0, term counts that all stop below n_max = 40 (no kappa table within
# 40 terms: n_top = 0), counts below n_max = 400, and counts above it (the
# report's grid at atol 1e-100: 512 terms)
SWEEPS = {
    "contains-zero": GRIDS["contains-zero"],
    "no-terms": ((0.5, 0.5, 0.5), np.linspace(1.0, 30.0, 3), 1e-12, 40),
    "negative-only": GRIDS["negative-only"],
    "report": ((0.5, 0.5, 0.5), np.linspace(-1.0, 250.0, 40), 1e-100, 20000),
}


@pytest.mark.parametrize("block_bytes", [1, 1 << 22])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_report_sweep_matches_both_scalar_paths(monkeypatch, name, block_bytes):
    # one sweep gives the report's columns, the partial sums with their tail
    # bounds and the ratio values, each bit for bit the scalar path's, in
    # one-point blocks or one block
    params, grid, atol, max_terms = SWEEPS[name]
    src = js.ASC2Source(*params)
    n_max = min(400, max_terms)
    monkeypatch.setattr(charfn, "_GRID_BLOCK_BYTES", block_bytes)
    zs = grid.tolist()
    values, plans, ratio = js.CharFnEvaluator(src, max_terms)._grid(
        zs, atol, n_max)
    ev = js.CharFnEvaluator(src, max_terms)
    want = [ev.eval(z, atol) for z in zs]
    assert list(map(float.hex, values)) == [float.hex(v.value) for v in want]
    assert [float.hex(p.tail_bound) for p in plans] == \
        [float.hex(v.tail_bound) for v in want]
    assert list(map(float.hex, ratio)) == [
        float.hex(js.charfn_ratio(src, z, n_max).value) for z in zs]
    counts = [p.n_terms for p in plans]
    assert counts == [v.terms_used for v in want]
    if name == "no-terms":
        assert counts == [0] * len(zs)
    elif name != "report":
        assert 0 < max(counts) < n_max
    else:
        assert max(counts) > n_max


def test_charfn_report_sums_only_the_terms_its_bounds_need(monkeypatch):
    # with the tail bound |z| T_N U(R), U(R) >= F(-R), the benchmark's
    # (0.5, 0.5, 0.5) report sums 49,408 terms over a 134-entry kappa table;
    # the exp(|z| S) factor took 257,278 terms and the 832-entry capacity
    work = []
    orig = charfn._sweep

    def counted(read, zs, counts, mant, exps, n_max):
        work.append((sum(counts), len(mant)))
        return orig(read, zs, counts, mant, exps, n_max)

    monkeypatch.setattr(charfn, "_sweep", counted)
    _charfn_report("--q=0.5", "--a=0.5", "--shift=0.5", "--grid=-1.0:250.0:400")
    assert sum(terms for terms, _ in work) <= 52_000
    assert max(table for _, table in work) <= 140


def test_report_f_ratio_column_is_the_scalar_ratio(monkeypatch):
    monkeypatch.setattr(charfn, "_GRID_BLOCK_BYTES", 1)
    rows = json.loads(_charfn_report("--q=0.3", "--a=0.3", "--shift=0.0",
                                     "--grid=-40:-0.5:25"))["rows"]
    src = js.ASC2Source(0.3, 0.3, 0.0)
    assert [r["f_ratio"] for r in rows] == \
        [js.charfn_ratio(src, r["z"], 400).value for r in rows]


def test_charfn_report_steps_the_grid_once(monkeypatch):
    # the partial sums (832 terms) and the ratio column (n = 400) come from
    # one sweep of rows 0 .. 832; the separate passes stepped about 2,570
    rows = [0]
    orig = charfn._scaled_columns

    def counted(read, zs):
        for row in orig(read, zs):
            rows[0] += 1
            yield row

    monkeypatch.setattr(charfn, "_scaled_columns", counted)
    _charfn_report("--q=0.5", "--a=0.5", "--shift=0.5", "--grid=-1:250:400")
    assert rows[0] <= 834


# -- the power-of-two term kernel ---------------------------------------------

def test_terms_beyond_the_float_range_are_signed_infs_on_both_paths():
    # on the negative axis every term is positive; at (0.5, 0.5, 0.5) the sum
    # passes the float range near -5.5e13, the largest term near -5.7e13
    src = js.ASC2Source(0.5, 0.5, 0.5)
    zs = [-1e13, -5.4e13, -5.6e13, -1e14, -1e20]
    ev = js.CharFnEvaluator(src)
    scalar = [ev.eval(z, 1e-12) for z in zs]
    _assert_grid_is_scalar(src, zs, 1e-12)
    assert math.isfinite(scalar[0].value)
    assert all(v.value == math.inf for v in scalar[1:])
    n = len(ev._table.kappas)
    sums, _ = charfn._sweep(_coeff_reader(src), zs, [n] * len(zs),
                            ev._table.w0_mant, ev._table.w0_exp, 0)
    total, total_54, total_56 = sums[:3]
    assert math.isfinite(total) and math.isfinite(total_54)
    # a term between e^709 and the largest float stays finite
    assert math.exp(709.0) < max(ev._terms(zs[2], n)) < math.inf
    assert total_56 == math.inf  # math.fsum raises OverflowError here
    assert all(t == math.inf for t in sums[3:])


def test_term_scaling_saturates_at_the_float_limit():
    # ldexp keeps every term up to the largest float (about e^709.78) and
    # turns the rest into an inf of the term's sign
    big = math.ldexp(1.5, 1023)
    assert charfn._ldexp_inf(1.5, 1023) == big > math.exp(709.0)
    assert charfn._ldexp_inf(-1.0, 1024) == -math.inf
    assert charfn._ldexp_inf(1.0, -1100) == 0.0
    with np.errstate(over="ignore"):
        assert np.ldexp(np.array([1.5, -1.0]), [1023, 1024]).tolist() == \
            [big, -math.inf]
    top = math.ldexp(1.0 - 2.0 ** -53, 1024)  # the largest float
    assert charfn._fsum_inf([top, top]) == math.inf
    assert charfn._fsum_inf([-top, -top, 1.0]) == -math.inf
    assert charfn._fsum_inf([top, top, -top]) == top
    assert charfn._fsum_inf([0.5, 0.25]) == math.fsum([0.5, 0.25])


def test_fsum_partials_that_overflow_before_infs_meet_give_nan():
    # at z = 1e14 the alternating terms overflow fsum's partials before its
    # infs of both signs meet; the scaled retry raised "-inf + inf in fsum"
    top = math.ldexp(1.0 - 2.0 ** -53, 1024)
    assert math.isnan(charfn._fsum_inf([top, top, math.inf, -math.inf]))
    src = js.ASC2Source(0.5, 0.5, 0.5)
    got = js.CharFnEvaluator(src).eval(1e14, 1e-12)
    assert math.isnan(got.value) and not got.certified
    _assert_grid_is_scalar(src, [1e14], 1e-12)


def test_complex_terms_overflow_per_part():
    # a term whose real part passes the float range keeps its imaginary part
    got = charfn._ldexp_complex(complex(1.5, -(2.0 ** -60)), 1024)
    assert got.real == math.inf and got.imag == -(2.0 ** 964)
    got = charfn._ldexp_complex(complex(2.0 ** -60, -1.5), 1024)
    assert got.real == 2.0 ** 964 and got.imag == -math.inf
    # an eval whose terms overflow returns instead of raising OverflowError
    ev = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5))
    assert ev.eval(complex(-1e14, 1e-3), 1e-12).value.real == math.inf
    small = ev.eval(complex(-1e13, 1e3), 1e-12).value
    assert math.isfinite(small.real) and math.isfinite(small.imag)


@pytest.mark.parametrize("z", [0.0, -1e6, 1e6, -1e100, complex(3.0, 2.0)])
def test_rescale_exponent_is_recovered_by_rounding(z):
    # log_scale adds whole rescale exponents times ln 2; along (0.9, 0.9, 0)
    # up to its 5,914-term coefficient horizon (1,928 rescales at -1e100) the
    # rounded ratio stays far inside ln 2 / 2 of the integer it stands for
    src = js.ASC2Source(0.9, 0.9, 0.0)
    worst, n = 0.0, 0
    with pytest.raises(ConvergenceError):
        for n, _, _, ls in _scaled_iter(_coeff_reader(src), z):
            worst = max(worst, abs(ls / _LN2 - round(ls / _LN2)))
    assert n == 5914
    assert worst <= 1e-6


def _product_scale(q, shift, z):
    """M(z) = prod_n (1 + |z| / (q^-n - shift)), which bounds |F(z)|."""
    acc, n = 0.0, 0
    while True:
        x = abs(z) / (q ** -n - shift)
        if x < 1e-18:
            return math.exp(acc)
        acc += math.log1p(x)
        n += 1


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_charfn_grid_matches_the_closed_form(argv):
    # every point of the report's grid (certified or not) lies within
    # 1e-14 M(z) of (z + shift; q)_inf / (shift; q)_inf
    import mpmath
    q, a, shift = (float(x.split("=")[1]) for x in argv[:3])
    lo, hi, count = argv[3].split("=")[1].split(":")
    zs = np.linspace(float(lo), float(hi), int(count)).tolist()
    got, _, _ = js.CharFnEvaluator(js.ASC2Source(q, a, shift))._grid(
        zs, 1e-12, 400)
    with mpmath.workdps(30):
        den = mpmath.qp(shift, q)
        for z, v in zip(zs, got):
            ref = float(mpmath.qp(mpmath.mpf(z) + shift, q) / den)
            assert abs(v - ref) <= 1e-14 * _product_scale(q, shift, z)


def test_terms_of_both_signs_beyond_the_float_range_sum_to_nan():
    # at z = 1e20 terms of both signs overflow to +-inf, where math.fsum
    # raises "-inf + inf"; the point is uncertified there, and its value nan
    src = js.ASC2Source(0.5, 0.5, 0.5)
    v = js.CharFnEvaluator(src).eval(1e20, 1e-12)
    _assert_grid_is_scalar(src, [1e20], 1e-12)
    assert math.isnan(v.value) and not v.certified


def test_first_pair_is_rescaled_like_every_later_one():
    # X_1 = (z - b_0)/a_0 ~ 1e160 left the rescale window unchecked, so the
    # next step's (z - b_1) X_1 overflowed to nan; every term of F(-1e160) is
    # positive, so F is +inf
    ev = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = ev.eval(-1e160, 1e-12)
        _assert_grid_is_scalar(ev.src, [-1e160], 1e-12)
    assert v.value == math.inf and not v.certified
    logs, signs = js.recurrence.log_table(ev.src, -1e160, 3)
    assert all(math.isfinite(x) for x in logs) and signs == [1.0, -1.0, 1.0, -1.0]
