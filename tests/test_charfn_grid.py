"""The grid paths of the characteristic function against the scalar ones.

CharFnEvaluator.eval_grid and the array form of charfn_ratio step a whole
z-grid through one column-wise recurrence; every point must equal the scalar
eval / charfn_ratio result bit for bit, raise where the scalar path raises,
and the charfn report must keep its pinned bytes.  Both partial-sum paths form
each term as ldexp(mantissa of w_n(0) * u, its exponent + the recurrence's
rescale exponent), which the tests at the end pin down.
"""

import contextlib
import hashlib
import io
import math
import warnings

import numpy as np
import pytest

import jacspec as js
from jacspec import charfn, cli, sources
from jacspec.errors import AssumptionViolation, ConvergenceError
from jacspec.recurrence import _LN2, _coeff_reader, _scaled_iter


def _key(v):
    return (v.z, float.hex(v.value), float.hex(v.tail_bound),
            float.hex(v.noise_estimate), v.terms_used, v.certified, v.method)


def _outcome(fn):
    """Result of fn(), or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # compared, never swallowed
        return (type(exc), str(exc))


def _keys(result):
    return [_key(v) for v in result] if isinstance(result, list) else result


# (source, grid, atol, max_terms)
GRIDS = {
    "contains-zero": ((0.5, 0.5, 0.5), np.linspace(-2.0, 2.0, 9), 1e-12, 20000),
    "negative-only": ((0.3, 0.3, 0.0), np.linspace(-40.0, -0.5, 25), 1e-12, 20000),
    "uncertified-budget": ((0.5, 0.5, 0.5), np.linspace(-5.0, 60.0, 14), 1e-12, 80),
    "uncertified-far": ((0.5, 0.5, 0.5), np.linspace(-1.0, 250.0, 41), 1e-12, 20000),
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
    params, grid, atol, max_terms = GRIDS[name]
    src = js.ASC2Source(*params)
    zs = grid.tolist()
    ev_s = js.CharFnEvaluator(src, max_terms)
    ev_g = js.CharFnEvaluator(src, max_terms)
    scalar = _keys(_outcome(lambda: [ev_s.eval(z, atol) for z in zs]))
    grid_res = _keys(_outcome(lambda: ev_g.eval_grid(zs, atol)))
    assert grid_res == scalar
    if isinstance(scalar, list) and name.startswith("uncertified"):
        assert not all(v[5] for v in scalar)


@pytest.mark.parametrize("n_max", [0, 1, 37, 400])
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_ratio_grid_matches_scalar_ratio(name, n_max):
    params, grid, _, _ = GRIDS[name]
    src = js.ASC2Source(*params)
    scalar = _keys(_outcome(
        lambda: [js.charfn_ratio(src, z, n_max=n_max) for z in grid.tolist()]))
    assert _keys(_outcome(lambda: js.charfn_ratio(src, grid, n_max=n_max))) == scalar


def test_grid_paths_on_a_table_raise_as_the_scalar_paths():
    tbl = js.TableSource(alphas=[1.0] * 9, betas=[2.0] * 10)
    grid = np.array([-1.0, 0.0, 0.5])
    scalar = _outcome(lambda: [js.charfn_ratio(tbl, z) for z in grid.tolist()])
    assert scalar[0] is ValueError
    assert _outcome(lambda: js.charfn_ratio(tbl, grid)) == scalar
    # F(0) = 1 needs no coefficient, on either path
    assert _keys(js.charfn_ratio(tbl, np.zeros(2))) == \
        [_key(js.charfn_ratio(tbl, 0.0))] * 2
    assert _outcome(lambda: js.CharFnEvaluator(tbl))[0] is ValueError


class _ZeroAtTwo(sources.CoefficientSource):
    """alpha_n = 1, beta = (2, 0.5, 2, 2, ...): P_2(0) = 2 beta_1 - 1 = 0."""

    def alpha(self, n):
        return 1.0

    def beta(self, n):
        return 0.5 if n == 1 else 2.0


def test_ratio_grid_raises_at_the_first_zero_of_p_n_at_origin():
    src = _ZeroAtTwo()
    grid = np.array([0.0, -1.0, 3.0])
    with pytest.raises(AssumptionViolation, match=r"^P_2\(0\) = 0") as scalar:
        js.charfn_ratio(src, -1.0)
    with pytest.raises(AssumptionViolation) as vector:
        js.charfn_ratio(src, grid)
    assert str(vector.value) == str(scalar.value)
    # before index 2 nothing is wrong yet, and z = 0 alone never steps
    assert _keys(js.charfn_ratio(src, grid, n_max=1)) == \
        [_key(js.charfn_ratio(src, z, n_max=1)) for z in grid.tolist()]
    assert js.charfn_ratio(src, np.zeros(3))[0].value == 1.0


def test_kappa_builds_raise_at_the_first_zero_of_p_n_at_origin():
    # P_2(0) = 0 is found before any backward sum is formed, so neither call
    # walks the term budget or meets an inf - inf in a sum
    src = _ZeroAtTwo()
    with pytest.raises(AssumptionViolation, match=r"^P_2\(0\) = 0") as seq:
        js.kappa_sequence(src, 5)
    with pytest.raises(AssumptionViolation) as ev:
        js.CharFnEvaluator(src).eval(0.3)
    assert str(ev.value) == str(seq.value)


def test_huge_z_grid_is_warning_free():
    # RuntimeWarning is an error under pytest already; make it explicit so the
    # test also holds where that setting is absent
    src = js.ASC2Source(0.5, 0.5, 0.5)
    grid = np.linspace(-1e6, 1e6, 21)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = js.CharFnEvaluator(src).eval_grid(grid, 1e-12)
        ratio = js.charfn_ratio(src, grid, n_max=400)
    ev = js.CharFnEvaluator(src)
    assert _keys(got) == [_key(ev.eval(z, 1e-12)) for z in grid.tolist()]
    assert _keys(ratio) == [_key(js.charfn_ratio(src, z, n_max=400))
                            for z in grid.tolist()]
    assert all(math.isfinite(v.value) for v in got + ratio)


def test_eval_grid_uses_the_table_each_point_was_planned_with(marked_builds):
    # the grid plans every point before it sums any; with builds marked by
    # their size, a point summed with entries of a build other than the one
    # the scalar eval reads would show
    params, grid, atol, max_terms = GRIDS["uncertified-far"]
    src = js.ASC2Source(*params)
    ev = js.CharFnEvaluator(src, max_terms)
    scalar = [_key(ev.eval(z, atol)) for z in grid.tolist()]
    assert _keys(js.CharFnEvaluator(src, max_terms).eval_grid(grid, atol)) == scalar


def test_eval_grid_blocks_do_not_change_values(monkeypatch):
    # one-column blocks and one block for the whole grid give the same values
    from jacspec import charfn
    src = js.ASC2Source(0.5, 0.5, 0.5)
    zs = np.linspace(-1.0, 250.0, 23)
    want = _keys(js.CharFnEvaluator(src).eval_grid(zs))
    monkeypatch.setattr(charfn, "_GRID_BLOCK_BYTES", 1)
    assert _keys(js.CharFnEvaluator(src).eval_grid(zs)) == want
    monkeypatch.setattr(charfn, "_GRID_BLOCK_BYTES", 1 << 30)
    assert _keys(js.CharFnEvaluator(src).eval_grid(zs)) == want


def _charfn_report(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["charfn", *argv, "--format=json"]) == 0
    return out.getvalue()


# SHA-256 of the reports with each partial-sum term formed as
# ldexp(m_n u, e_n + round(log_scale / ln 2)) from w_n(0) = m_n 2^e_n; the
# grid path gives them bit for bit, as the scalar eval does at every point.
# The (0.5, 0.5, 0.5) tail bounds follow the exact kappa-table capacity, 832
GOLDEN = {
    ("--q=0.5", "--a=0.5", "--shift=0.5", "--grid=-1.0:250.0:400"):
        "ff79b88a24e24ca4311614f6b5e4a69e977aaa5cd1cc86ab841b1c5090abcd26",
    ("--q=0.7", "--a=0.7", "--shift=0.0", "--grid=-1.0:40.0:400"):
        "a445fbbffc10644bb7c44e606366f3a8370170d9da8bf693bad5a3afdbc15e9a",
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
    # one (z + shift; q)_inf per point and one (shift; q)_inf per report,
    # where each point used to compute both
    from jacspec import qseries
    calls = []
    orig = qseries.qpoch_inf
    monkeypatch.setattr(qseries, "qpoch_inf",
                        lambda x, q: calls.append(x) or orig(x, q))
    _charfn_report("--q=0.5", "--a=0.5", "--shift=0.5", "--grid=-1:250:400")
    assert len(calls) == 401 and calls.count(0.5) == 1


# -- the power-of-two term kernel ---------------------------------------------

def test_terms_beyond_the_float_range_are_signed_infs_on_both_paths():
    # on the negative axis every term is positive; at (0.5, 0.5, 0.5) the sum
    # passes the float range near -5.5e13, the largest term near -5.7e13
    src = js.ASC2Source(0.5, 0.5, 0.5)
    zs = [-1e13, -5.4e13, -5.6e13, -1e14, -1e20]
    ev = js.CharFnEvaluator(src)
    scalar = [ev.eval(z, 1e-12) for z in zs]
    assert _keys(js.CharFnEvaluator(src).eval_grid(zs, 1e-12)) == _keys(scalar)
    assert math.isfinite(scalar[0].value)
    assert all(v.value == math.inf for v in scalar[1:])
    n = len(ev._engine.kappas)
    sums = charfn._grid_sums(_coeff_reader(src), zs, [n] * len(zs),
                             ev._w0_mant, ev._w0_exp)
    (total, _), (total_54, _), (total_56, top_56) = sums[:3]
    assert math.isfinite(total) and math.isfinite(total_54)
    # a term between e^709 and the largest float stays finite
    assert math.exp(709.0) < top_56 < math.inf
    assert total_56 == math.inf  # math.fsum raises OverflowError here
    assert all(t == m == math.inf for t, m in sums[3:])


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
        for n, _, _, ls, _ in _scaled_iter(_coeff_reader(src), z):
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
    got = js.CharFnEvaluator(js.ASC2Source(q, a, shift)).eval_grid(zs, 1e-12)
    with mpmath.workdps(30):
        den = mpmath.qp(shift, q)
        for z, v in zip(zs, got):
            ref = float(mpmath.qp(mpmath.mpf(z) + shift, q) / den)
            assert abs(v.value - ref) <= 1e-14 * _product_scale(q, shift, z)


def test_terms_of_both_signs_beyond_the_float_range_sum_to_nan():
    # at z = 1e20 terms of both signs overflow to +-inf, where math.fsum
    # raises "-inf + inf"; the point is uncertified there, and its value nan
    ev = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5))
    v = ev.eval(1e20, 1e-12)
    assert _keys(ev.eval_grid([1e20], 1e-12)) == [_key(v)]
    assert math.isnan(v.value) and not v.certified


def test_first_pair_is_rescaled_like_every_later_one():
    # X_1 = (z - b_0)/a_0 ~ 1e160 left the rescale window unchecked, so the
    # next step's (z - b_1) X_1 overflowed to nan; every term of F(-1e160) is
    # positive, so F is +inf
    ev = js.CharFnEvaluator(js.ASC2Source(0.5, 0.5, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = ev.eval(-1e160, 1e-12)
        assert _keys(ev.eval_grid([-1e160], 1e-12)) == [_key(v)]
    assert v.value == math.inf and not v.certified
    logs, signs = js.recurrence.log_table(ev.src, -1e160, 3)
    assert all(math.isfinite(x) for x in logs) and signs == [1.0, -1.0, 1.0, -1.0]
