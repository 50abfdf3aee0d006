"""The grid paths of the characteristic function against the scalar ones.

CharFnEvaluator.eval_grid and the array form of charfn_ratio step a whole
z-grid through one column-wise recurrence; every point must equal the scalar
eval / charfn_ratio result bit for bit, raise where the scalar path raises,
and the charfn report must stay byte-identical.
"""

import contextlib
import hashlib
import io
import math
import warnings

import numpy as np
import pytest

import jacspec as js
from jacspec import cli, sources
from jacspec.errors import AssumptionViolation


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


# SHA-256 of the reports of the scalar per-point implementation, which looped
# over CharFnEvaluator.eval and charfn_ratio one z at a time
GOLDEN = {
    ("--q=0.5", "--a=0.5", "--shift=0.5", "--grid=-1.0:250.0:400"):
        "2f5ef47eb351692cb6c3116011b4fe5c0e36ffb713f004bfa6b8d9ff624c967e",
    ("--q=0.7", "--a=0.7", "--shift=0.0", "--grid=-1.0:40.0:400"):
        "e53dc7cc9d80e8cf8a0794110632df19439739bb4c91c7e9fe11a744f94fe0e8",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_charfn_report_is_byte_identical_to_the_scalar_path(argv):
    report = _charfn_report(*argv)
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN[argv]


def test_charfn_coefficient_reads_do_not_scale_with_the_grid(monkeypatch):
    # the per-point loop read 578,901 coefficients here (each point stepped
    # its own recurrence, and the ratio its own z = 0 chain); the grid path
    # reads 2,133: the kappa table, one pass to the largest term count and
    # one ratio pass of 400 steps
    calls = [0]
    orig = sources.ASC2Source.coeffs

    def counted(self, n):
        calls[0] += 1
        return orig(self, n)

    monkeypatch.setattr(sources.ASC2Source, "coeffs", counted)
    _charfn_report("--q=0.5", "--a=0.5", "--shift=0.5", "--grid=-1:250:400")
    assert calls[0] <= 2 * 2133
