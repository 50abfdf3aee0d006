import csv
import hashlib
import io
import json
import math

import pytest

from jacspec.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def test_spectrum_csv(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--family", "asc2", "--q", "0.5", "--a", "0.5",
        "--shift", "0.5", "--k", "5", "--eig-tol", "1e-10",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 5
    expected = [0.5, 1.5, 3.5, 7.5, 15.5]
    for row, ref in zip(rows, expected):
        assert abs(float(row["lambda"]) - ref) <= 1e-10
        assert float(row["oracle_gap"]) <= 1e-9
    assert list(rows[0].keys()) == ["index", "lambda", "residual", "tail_bound",
                                    "bracket_lo", "bracket_hi", "oracle_value",
                                    "oracle_gap"]


def test_spectrum_k_zero(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "asc2", "--q", "0.5",
                           "--a", "0.5", "--shift", "0.5", "--k", "0")
    assert code == 0
    assert parse_csv(out) == []


def test_spectrum_rejects_indeterminate(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--family", "asc2",
                             "--q", "0.5", "--a", "0.7", "--k", "3")
    assert code == 2
    assert "indeterminate" in err


def test_spectrum_at_tiny_q(capsys):
    # the configuration gate rejected every q <= 1e-7 with exit code 2
    code, out, err = run_cli(capsys, "spectrum", "--q", "1e-10", "--a", "1e-10",
                             "--shift", "0", "--k", "2")
    assert code == 0
    lams = [float(row["lambda"]) for row in parse_csv(out)]
    assert abs(lams[0] - 1.0) <= 1e-9
    assert abs(lams[1] - 1e10) <= 8.0 * math.ulp(1e10)


def test_spectrum_require_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--family", "asc2", "--q", "0.5", "--a", "0.5",
        "--shift", "0.5", "--k", "10", "--max-terms", "100",
        "--confirm", "require",
    )
    assert code == 4
    assert parse_csv(out)  # partial report still emitted


@pytest.mark.parametrize("confirm, code, n_rows", [
    ("auto", 0, 8), ("require", 4, 0)])
def test_spectrum_at_the_noise_floor(capsys, confirm, code, n_rows):
    # F cannot certify a sign at any of these indices: under auto each takes
    # the oracle value, under require each is unresolved
    got, out, err = run_cli(
        capsys, "spectrum", "--q", "0.8432", "--a", "0.5243",
        "--shift=-0.7103", "--k", "8", "--eig-tol", "1e-9",
        "--confirm", confirm)
    assert got == code
    rows = parse_csv(out)
    assert len(rows) == n_rows
    for n, row in enumerate(rows):
        ref = 0.8432 ** -n + 0.7103
        assert abs(float(row["lambda"]) - ref) <= 1e-9 + 1e-12 * ref
        assert row["residual"] == "nan"
    if confirm == "require":
        assert "unresolved eigenvalue indices: [1, 2, 3, 4, 5, 6, 7, 8]" in err


@pytest.mark.parametrize("q, shift, unresolved", [
    ("0.5", "0.9999999999999999", [1]),
    ("0.9", "0.9999999999999997", [1, 2, 3])])
@pytest.mark.parametrize("confirm", ["auto", "require", "oracle"])
def test_spectrum_below_the_oracle_resolution(capsys, q, shift, unresolved,
                                              confirm):
    # lambda_1 = 1 - shift is about 1e-16, below the oracle's 1e-12, so the
    # sign of its oracle value is rounding noise (+4.4e-13 on the one rung
    # at q = 0.5, where F then certifies index 1; -4.5e-13 on the doubling
    # ladder, where it did not).  What holds either way: no traceback, exit
    # 0 under auto and oracle, under require at most ``unresolved`` left
    # unresolved, and every published value within tol of q^-n - shift and
    # inside its bracket, which starts above 0
    code, out, err = run_cli(capsys, "spectrum", "--q", q, "--a", q,
                             "--shift", shift, "--k", "3",
                             "--confirm", confirm)
    assert "Traceback" not in err and "error" not in err
    rows = parse_csv(out)
    indices = [int(r["index"]) for r in rows]
    if confirm == "require":
        left = [j for j in (1, 2, 3) if j not in indices]
        assert set(left) <= set(unresolved)
        assert code == (4 if left else 0)
        if left:
            assert f"unresolved eigenvalue indices: {left}" in err
    else:
        assert code == 0 and indices == [1, 2, 3]
    for row in rows:
        n, lam = int(row["index"]) - 1, float(row["lambda"])
        assert abs(lam - (float(q) ** -n - float(shift))) <= 1e-9 + 1e-15
        assert 0 < float(row["bracket_lo"]) <= lam <= float(row["bracket_hi"])


@pytest.mark.parametrize("q, k", [
    ("1e-12", 4), ("1e-6", 8), ("0.3", 71), ("0.3", 80), ("1e-10", 12)])
def test_spectrum_on_one_rung_inside_the_float_range(capsys, q, k):
    # the float-range clamp leaves the doubling ladder one usable rung (14,
    # 26, 283, 283 and 16 rows), so each of these exited 2; one rung that
    # D_N certifies needs no second.  At q = 1e-10, k = 12, lambda_12 = 1e110
    # has an ulp far above tol, so only the ulp-aware target is met
    import mpmath
    code, out, err = run_cli(capsys, "spectrum", "--q", q, "--a", q,
                             "--shift", "0", "--k", str(k))
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert len(rows) == k
    for n, row in enumerate(rows):
        ref = float(mpmath.mpf(q) ** -n)
        assert abs(float(row["lambda"]) - ref) <= 1e-9 + 8.0 * math.ulp(ref)


@pytest.mark.parametrize("q, k, usable", [("1e-4", 40, 38), ("1e-10", 17, 16)])
def test_spectrum_with_k_above_the_usable_rows_exits_2(capsys, q, k, usable):
    code, out, err = run_cli(capsys, "spectrum", "--q", q, "--a", q,
                             "--shift", "0", "--k", str(k))
    assert code == 2 and out == ""
    assert err == (f"error: the {k} smallest roots have not stabilized at "
                   f"{usable} x {usable}, the largest truncation usable at "
                   "tolerance 1e-12\n")


def test_spectrum_same_sign_contradiction_exits_3(capsys, monkeypatch):
    # F certifying +1 everywhere contradicts the oracle: unresolved even
    # under auto
    from jacspec.charfn import CharFnEvaluator
    monkeypatch.setattr(CharFnEvaluator, "certified_sign",
                        lambda self, x, atol: (1, None))
    code, out, err = run_cli(capsys, "spectrum", "--q", "0.5", "--a", "0.5",
                             "--shift", "0.5", "--k", "2")
    assert code == 3
    assert parse_csv(out) == []
    assert "unresolved eigenvalue indices: [1, 2]" in err


@pytest.mark.parametrize("confirm, code, n_rows", [
    ("auto", 0, 3), ("require", 4, 0)])
def test_spectrum_without_a_kappa_table(capsys, confirm, code, n_rows):
    # at max_terms 40 no kappa table of (0.5, 0.5, 0.5) reaches a stable decay
    # window, so no certificate fits: the oracle value stands under auto and
    # every index is unresolved under require
    got, out, err = run_cli(
        capsys, "spectrum", "--q", "0.5", "--a", "0.5", "--shift", "0.5",
        "--k", "3", "--max-terms", "40", "--confirm", confirm)
    assert got == code
    rows = parse_csv(out)
    assert len(rows) == n_rows
    assert all(row["residual"] == "nan" for row in rows)
    for row, ref in zip(rows, (0.5, 1.5, 3.5)):
        assert abs(float(row["lambda"]) - ref) <= 1e-9
    if confirm == "require":
        assert "unresolved eigenvalue indices: [1, 2, 3]" in err


def test_charfn_grid(capsys):
    code, out, _ = run_cli(
        capsys, "charfn", "--family", "asc2", "--q", "0.5", "--a", "0.5",
        "--shift", "0.5", "--grid=-1:2:13",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 13
    for row in rows:
        z = float(row["z"])
        closed_gap = float(row["closed_gap"])
        tail = float(row["tail_bound"])
        assert closed_gap <= tail + 1e-10
        if z == 0.0:
            assert float(row["f_partial"]) == 1.0
            assert tail == 0.0


@pytest.mark.parametrize("argv, f_partial", [
    # terms of both signs beyond the float range: nan, printed as null
    (("--grid=1e19:1e20:3", "--format", "json"), [None, None, None]),
    # the first recurrence pair beyond the rescale window: F = +inf, written
    # as the string the CSV report prints
    (("--grid=-1e160:-1e159:2", "--format", "json"), ["inf"] * 2),
    # no kappa table within max_terms 40: uncertified, over no terms
    (("--grid=1:30:3", "--max-terms", "40", "--format", "json"), [1.0] * 3),
])
def test_charfn_uncertifiable_grids_still_report(capsys, argv, f_partial):
    code, out, err = run_cli(capsys, "charfn", "--q", "0.5", "--a", "0.5",
                             "--shift", "0.5", *argv)
    assert (code, err) == (0, "")
    rows = json.loads(out, parse_constant=_reject_constant)["rows"]
    assert [r["f_partial"] for r in rows] == f_partial


@pytest.mark.parametrize("config", [("0.5", "0.5", "0.5"), ("0.9", "0.9", "0")])
def test_charfn_grid_points_past_1e307_are_uncertified(capsys, config):
    # the column recurrence meets inf - inf there; numpy's invalid-value
    # warning escaped the sweep.  The rows are nan with an inf tail bound,
    # as scalar eval gives at those points
    q, a, shift = config
    code, out, err = run_cli(capsys, "charfn", "--q", q, "--a", a,
                             "--shift", shift, "--grid=-1:1.7e308:3")
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert len(rows) == 3
    assert math.isfinite(float(rows[0]["tail_bound"]))
    for row in rows[1:]:
        assert math.isnan(float(row["f_partial"]))
        assert float(row["tail_bound"]) == math.inf


def _reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


def test_charfn_report_completes_where_the_closed_form_has_no_bound(capsys):
    # at q = 0.9999 the closed form's product stops at its 100,001-factor
    # cap; at z = 2000 the truncation bound expm1(|z| q^j / (1 - q)) leaves
    # the float range, which raised OverflowError out of the report (exit 1)
    code, out, err = run_cli(capsys, "charfn", "--q", "0.9999", "--a", "0.9999",
                             "--shift", "0", "--grid=-1:2000:3",
                             "--format", "json")
    assert code == 0
    rows = json.loads(out, parse_constant=_reject_constant)["rows"]
    assert [(r["closed_form"], r["closed_gap"]) for r in rows][2] == (None, None)
    assert rows[0]["closed_form"] is not None
    assert err == ("note: closed_form is nan at 1 of 3 grid points: the "
                   "q-Pochhammer product or its truncation bound leaves the "
                   "float range\n")


def test_charfn_json_report_is_strict_json(capsys):
    # infinite cells in several columns, both signs, and nan cells
    code, out, err = run_cli(capsys, "charfn", "--q", "0.5", "--a", "0.5",
                             "--shift", "0.5", "--grid=1e19:1e20:3",
                             "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out, parse_constant=_reject_constant)
    json.dumps(payload, allow_nan=False)
    cells = {c for r in payload["rows"] for c in r.values()}
    assert {"inf", "-inf", None} <= cells


def test_charfn_single_point_rejected(capsys):
    code, _, err = run_cli(capsys, "charfn", "--family", "asc2", "--q", "0.5",
                           "--a", "0.5", "--shift", "0.5", "--grid=0:1:1")
    assert code == 2


def test_charfn_grid_required(capsys):
    code, _, err = run_cli(capsys, "charfn", "--family", "asc2", "--q", "0.5",
                           "--a", "0.5", "--shift", "0.5")
    assert code == 2


def test_verify_pass_and_fail_paths(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "asc2", "--q", "0.5",
                           "--a", "0.5", "--shift", "0.5")
    assert code == 0
    rows = parse_csv(out)
    assert all(r["status"] in ("pass", "skip") for r in rows)

    code, out, err = run_cli(capsys, "verify", "--family", "explicit",
                             "--alphas", "1.0,-0.5,1.2,0.9",
                             "--betas", "3.0,3.0,3.0,3.0")
    assert code == 3
    rows = {r["check"]: r for r in parse_csv(out)}
    assert rows["coefficient_positivity"]["status"] == "FAIL"
    assert rows["recurrence_residual"]["status"] == "pass"
    assert rows["w_factorization"]["status"] == "skip"


@pytest.mark.parametrize("alphas, betas", [("1,0.5", "2,2,2"), ("1", "2,2")])
def test_verify_short_tables(capsys, alphas, betas):
    code, out, _ = run_cli(capsys, "verify", "--family", "explicit",
                           f"--alphas={alphas}", f"--betas={betas}")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 11
    assert all(r["status"] in ("pass", "skip") for r in rows)


@pytest.mark.parametrize("alphas, betas, bad", [
    ("1,-0.5", "2,2,2", 1), ("1,1,1,1,-0.5", "2,2,2,2,2,2", 4)])
def test_verify_positivity_of_the_last_off_diagonal(capsys, alphas, betas, bad):
    code, out, err = run_cli(capsys, "verify", "--family", "explicit",
                             f"--alphas={alphas}", f"--betas={betas}")
    assert code == 3
    rows = {r["check"]: r for r in parse_csv(out)}
    assert rows["coefficient_positivity"]["status"] == "FAIL"
    assert rows["coefficient_positivity"]["note"] == \
        f"nonpositive off-diagonal at n in [{bad}]"


# SHA-256 of the one-pair alpha_0 = 0 report, which every identity check
# skips as too short
_ZERO_ALPHA_REPORT = \
    "befe9b682d67e0a1ac39e763be660f6767540a3464552ca2ab41cfe1d11ee21c"


@pytest.mark.parametrize("alphas, betas, cut", [
    ("0", "2,2", 0), ("0,1", "2,2,2", 0), ("1,0,1", "2,2,2,2", 1),
    ("1,1,0", "2,2,2,2", 2)])
def test_verify_zero_off_diagonal_fails_positivity(capsys, alphas, betas, cut):
    # the mpmath checks divide by every alpha_n of their table: a zero one
    # cuts the table there instead of raising ZeroDivisionError (exit 1)
    code, out, err = run_cli(capsys, "verify", "--family", "explicit",
                             f"--alphas={alphas}", f"--betas={betas}")
    assert code == 3
    assert err == "failed checks: ['coefficient_positivity']\n"
    rows = {r["check"]: r for r in parse_csv(out)}
    assert rows["coefficient_positivity"]["note"] == \
        f"nonpositive off-diagonal at n in [{cut}]"
    identities = ("recurrence_residual", "wronskian_identity",
                  "green_identity", "resolvent_identity")
    status = [rows[name]["status"] for name in identities]
    # a table cut at alpha_n keeps alpha_0 .. alpha_{n-1}: every identity
    # needs two of them
    assert status == ["skip" if cut < 2 else "pass"] * 4
    if alphas == "0":
        assert hashlib.sha256(out.encode()).hexdigest() == _ZERO_ALPHA_REPORT


@pytest.mark.parametrize("q", ["1e-6", "1e-8", "1e-10", "1e-12"])
def test_verify_below_the_coefficient_horizon(capsys, q):
    # the coefficient pairs reach 2^900 at n = 46 (q = 1e-6) down to 23
    # (q = 1e-12): the float64 rows stop below it, where verify exited 4
    # with no report.  The kappa trace reads the table's ladder from its
    # first rung, 16 terms, or at q = 1e-12 the capacity's ceiling, 13;
    # from a count of its own, 32, it passed the horizon below q = 1e-6
    # and exited 3
    code, out, err = run_cli(capsys, "verify", "--q", q, "--a", q,
                             "--shift", "0")
    rows = {r["check"]: r for r in parse_csv(out)}
    assert len(rows) == 11
    assert code == 0
    assert {r["status"] for r in rows.values()} == {"pass"}
    terms = 13 if q == "1e-12" else 16
    assert rows["trace_reconciliation"]["note"] == \
        f"{terms} kappa terms, {2 * terms} x {2 * terms} block"
    assert float(rows["trace_reconciliation"]["max_residual"]) <= 2.3e-16
    assert "coefficient horizon" in rows["sign_patterns"]["note"] \
        or q == "1e-6"


@pytest.mark.parametrize("max_terms, code", [("40", 3), ("100", 0)])
def test_verify_tail_budget_failure_is_a_row(capsys, max_terms, code):
    # 40 terms do not certify the two-route tail series at z = 0: its
    # ConvergenceError is a FAIL row that carries the message, where it
    # escaped run_suite and verify exited 4 with no report
    got, out, err = run_cli(capsys, "verify", "--q", "0.5", "--a", "0.5",
                            "--shift", "0.5", "--max-terms", max_terms)
    assert got == code
    rows = {r["check"]: r for r in parse_csv(out)}
    assert len(rows) == 11
    row = rows["second_kind_two_route"]
    if code == 3:
        assert (row["status"], row["note"]) == (
            "FAIL", "tail series not certified within 40 terms at z=0.0")
    else:
        assert (row["status"], row["note"]) == ("pass", "n <= 30")


def test_identities_defaults(capsys):
    code, out, _ = run_cli(capsys, "identities")
    assert code == 0
    rows = parse_csv(out)
    assert {r["identity"] for r in rows} == {
        "q_binomial", "q_gauss", "phi1_closed_form", "phi1_functional_relation"
    }
    assert {float(r["q"]) for r in rows} == {0.3, 0.5, 0.7}
    for r in rows:
        assert float(r["max_gap"]) <= 1e-10


def test_identities_stress_q(capsys):
    code, out, _ = run_cli(capsys, "identities", "--q-list", "0.9")
    assert code == 0
    for r in parse_csv(out):
        assert float(r["max_gap"]) <= 1e-8


def test_identities_empty_grid(capsys):
    code, out, _ = run_cli(capsys, "identities", "--q-list", "")
    assert code == 0
    assert parse_csv(out) == []


def test_identities_rejects_a_malformed_q_list_entry(capsys):
    # the entry went to float() unnamed: "could not convert string to float"
    code, out, err = run_cli(capsys, "identities", "--q-list=0.3,abc")
    assert code == 2
    assert out == ""
    assert "error: --q-list entry must be a number, got 'abc'" in err


def _cyclic_garbage(argv):
    """Objects gc.collect() finds after a second in-process call of argv,
    the first having built what a process builds once."""
    import gc
    assert main(argv) == 0
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_a_cli_call_leaves_little_cyclic_garbage(capsys):
    # a parser built on every call left about 360 argparse objects, which
    # reference each other, to the cyclic collector per charfn call
    left = _cyclic_garbage(["charfn", "--q=0.5", "--a=0.5", "--shift=0.5",
                            "--grid=-1:2:5"])
    capsys.readouterr()
    assert left < 100


def test_a_verify_call_leaves_little_cyclic_garbage(capsys):
    # verify cloned mpmath.mp for its mpmath checks on every call, and each
    # clone is a reference cycle: 2 clones, 656 objects per call
    left = _cyclic_garbage(["verify", "--q=0.5", "--a=0.5", "--shift=0.5",
                            "--precision=30"])
    capsys.readouterr()
    assert left < 100


def test_verify_extended_precision_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "asc2", "--q", "0.5",
                           "--a", "0.5", "--shift", "0.5", "--precision", "30")
    assert code == 0
    rows = {r["check"]: r for r in parse_csv(out)}
    # the recurrence row measures the float64 kernels against a 30-digit
    # column, so it stays at float64 round-off; the mpmath-only W check
    # shrinks far below it at 30 digits
    assert 1e-17 < float(rows["recurrence_residual"]["max_residual"]) <= 1e-13
    assert float(rows["w_factorization"]["max_residual"]) < 1e-25


def test_json_format_and_meta(capsys):
    code, out, _ = run_cli(capsys, "identities", "--q-list", "0.5",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["tool"] == "jacspec"
    assert doc["meta"]["command"] == "identities"
    assert doc["meta"]["config"]["tolerances"]["atol"] == 1e-12
    assert len(doc["rows"]) == 4


def test_determinism_byte_identical(capsys):
    argv = ["charfn", "--family", "asc2", "--q", "0.5", "--a", "0.5",
            "--shift", "0.5", "--grid=-1:2:5"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_numeric_round_trip(capsys):
    import jacspec as js

    _, out, _ = run_cli(
        capsys, "spectrum", "--family", "asc2", "--q", "0.5", "--a", "0.5",
        "--shift", "0.5", "--k", "3",
    )
    rows = parse_csv(out)
    src = js.ASC2Source(q=0.5, a=0.5, shift=0.5)
    res = js.find_spectrum(src, 3, 1e-9)
    for row, lam in zip(rows, res.eigenvalues):
        assert float(row["lambda"]) == lam  # binary-identical round trip


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = {
        "family": {"kind": "asc2", "q": 0.5, "a": 0.5},
        "shift": 0.5,
        "tolerances": {"eig_tol": 1e-8},
        "output": {"format": "json"},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(path), "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["config"]["tolerances"]["eig_tol"] == 1e-8

    # flags win over the file
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(path),
                           "--k", "2", "--eig-tol", "1e-10", "--format", "csv")
    assert code == 0
    assert out.startswith("# jacspec spectrum report")
    assert '"eig_tol": 1e-10' in out.splitlines()[2]


def test_config_unknown_keys_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"familyy": {}}))
    code, _, err = run_cli(capsys, "spectrum", "--config", str(path), "--k", "1")
    assert code == 2


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--config", "/nonexistent.json",
                           "--k", "1")
    assert code == 2


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "identities", "--q-list", "0.5",
                         "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("# jacspec identities report")


def test_spectrum_explicit_family_rejected(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--family", "explicit",
                           "--alphas", "1.0,1.0", "--betas", "3.0,3.0,3.0",
                           "--k", "2")
    assert code == 2


def test_verify_large_roots_q03(capsys):
    # lambda_12 ~ 5.6e5 at q = 0.3: the trace check's truncation ladder must
    # stabilize at ulp level instead of doubling out of the float range
    code, out, _ = run_cli(capsys, "verify", "--family", "asc2", "--q", "0.3",
                           "--a", "0.3")
    assert code == 0
    rows = {r["check"]: r for r in parse_csv(out)}
    assert rows["trace_reconciliation"]["status"] == "pass"


@pytest.mark.parametrize("q, capacity", [(1e-3, None), (1e-4, 63), (3e-5, 55),
                                         (1e-5, 51)])
def test_verify_at_tiny_q_reports_every_row(capsys, q, capacity):
    # the coefficients leave the float range near n = 68 at q = 1e-4: the
    # kappa table stops at its capacity and the kappa rows test what it
    # holds, where verify used to exit 4 with no report.  The trace row
    # reconciles the ladder's first rung, 16 kappa terms, with the 32 x 32
    # block's trace, where it failed because the oracle ladder could not
    # stabilize 12 roots
    code, out, err = run_cli(capsys, "verify", "--family", "asc2", "--q",
                             str(q), "--a", str(q), "--shift", "0")
    rows = {r["check"]: r for r in parse_csv(out)}
    assert len(rows) == 11
    failed = {name for name, r in rows.items() if r["status"] != "pass"}
    assert (code, failed) == (0, set())
    if capacity is None:
        return
    assert rows["trace_reconciliation"]["note"] == "16 kappa terms, 32 x 32 block"
    assert rows["kappa_positivity_monotonic"]["note"] == \
        f"n <= {min(40, capacity - 1)}"
    assert rows["per_term_growth_bound"]["note"] == \
        f"n <= {min(60, capacity - 1)}"


def _run_config(tmp_path, capsys, doc, *argv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return run_cli(capsys, *argv, "--config", str(path))


_CHARFN_DOC = {"family": {"kind": "asc2", "q": 0.5, "a": 0.5}, "shift": 0.5,
               "grid": {"z_min": -1.0, "z_max": 1.0, "points": 3}}


def test_config_misspelled_tolerance_rejected(tmp_path, capsys):
    # "eig-tol" is not "eig_tol": running with the default 1e-9 would
    # silently ignore what the user asked for
    doc = dict(_CHARFN_DOC, tolerances={"eig-tol": 1e-3})
    code, out, err = _run_config(tmp_path, capsys, doc, "spectrum", "--k", "1")
    assert code == 2
    assert out == ""
    assert "unknown tolerances keys: ['eig-tol']" in err


def test_config_legacy_rtol_accepted_and_ignored(tmp_path, capsys):
    doc = dict(_CHARFN_DOC, tolerances={"atol": 1e-10, "rtol": 1e-6})
    code, out, err = _run_config(tmp_path, capsys, doc, "charfn",
                                 "--format", "json")
    assert code == 0, err
    tol = json.loads(out)["meta"]["config"]["tolerances"]
    assert tol["atol"] == 1e-10
    assert "rtol" not in tol
    code, plain, _ = _run_config(tmp_path, capsys,
                                 dict(_CHARFN_DOC, tolerances={"atol": 1e-10}),
                                 "charfn", "--format", "json")
    assert plain == out


def test_config_unknown_output_key_rejected(tmp_path, capsys):
    doc = dict(_CHARFN_DOC, output={"format": "json", "fromat": "csv"})
    code, out, err = _run_config(tmp_path, capsys, doc, "charfn")
    assert code == 2
    assert out == ""
    assert "unknown output keys: ['fromat']" in err


@pytest.mark.parametrize("doc, message", [
    (dict(_CHARFN_DOC, family=[1, 2]), "family must be a JSON object"),
    (dict(_CHARFN_DOC, grid={"z_min": -1.0, "z_max": 1.0}),
     "missing grid keys: ['points']"),
    (dict(_CHARFN_DOC, grid={"z_min": -1.0, "z_max": 1.0, "points": 3,
                             "step": 1}),
     "unknown grid keys: ['step']"),
    (dict(_CHARFN_DOC, family={"kind": "asc2", "q": 0.5, "a": 0.5,
                               "shift": 0.5}),
     "unknown family keys: ['shift']"),
    (dict(_CHARFN_DOC, family={"kind": "asc2", "q": 0.5}),
     "missing family keys: ['a']"),
    (dict(_CHARFN_DOC, family={"kind": "explicit", "alphas": [1.0]}),
     "missing family keys: ['betas']"),
    (dict(_CHARFN_DOC, family={"kind": "explicit", "alphas": [1.0],
                               "betas": [2.0, 2.0], "q": 0.5}),
     "unknown family keys: ['q']"),
    (dict(_CHARFN_DOC, family={"q": 0.5, "a": 0.5}), "unknown family kind None"),
    (dict(_CHARFN_DOC, family={"kind": ["asc2"], "q": 0.5, "a": 0.5}),
     "unknown family kind ['asc2']"),
    (dict(_CHARFN_DOC, shift=None), "shift must be a number, got None"),
    (dict(_CHARFN_DOC, gamma=[1]), "gamma must be a number, got [1]"),
    (dict(_CHARFN_DOC, tolerances={"atol": [1]}),
     "tolerances.atol must be a number, got [1]"),
    (dict(_CHARFN_DOC, tolerances={"max_terms": float("inf")}),
     "tolerances.max_terms must be finite, got inf"),
    (dict(_CHARFN_DOC, grid={"z_min": None, "z_max": 1.0, "points": 3}),
     "grid.z_min must be a number, got None"),
    (dict(_CHARFN_DOC, grid={"z_min": -1.0, "z_max": 1.0, "points": [3]}),
     "grid.points must be a number, got [3]"),
    (dict(_CHARFN_DOC, grid={"z_min": -1.0, "z_max": 1.0, "points": 3.7}),
     "grid.points must be an integer, got 3.7"),
    (dict(_CHARFN_DOC, output={"path": 7}),
     "output.path must be a string or null, got 7"),
    (dict(_CHARFN_DOC, output={"path": 1}),  # would write to, then close, fd 1
     "output.path must be a string or null, got 1"),
    # non-finite numbers (JSON NaN/Infinity) used to run or fail downstream
    (dict(_CHARFN_DOC, tolerances={"eig_tol": float("inf")}),
     "tolerances.eig_tol must be finite, got inf"),
    (dict(_CHARFN_DOC, tolerances={"atol": float("nan")}),
     "tolerances.atol must be finite, got nan"),
    (dict(_CHARFN_DOC, gamma=float("inf")), "gamma must be finite, got inf"),
    (dict(_CHARFN_DOC, grid={"z_min": -float("inf"), "z_max": 1.0, "points": 3}),
     "grid.z_min must be finite, got -inf"),
    (dict(_CHARFN_DOC, grid={"z_min": -1.0, "z_max": float("nan"), "points": 3}),
     "grid.z_max must be finite, got nan"),
    (dict(_CHARFN_DOC, family={"kind": "explicit", "alphas": [1.0, 1.0],
                               "betas": [3.0, 3.0, 3.0]}, shift=float("inf")),
     "bad family parameters: shift must be finite"),
    (dict(_CHARFN_DOC, tolerances={"precision_digits": -30}),
     "tolerances.precision_digits must be nonnegative, got -30"),
])
def test_config_malformed_family_or_grid_rejected(tmp_path, capsys, doc, message):
    # each of these used to raise a traceback or run with the key ignored
    code, out, err = _run_config(tmp_path, capsys, doc, "charfn")
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["charfn", "--grid=-1:nan:3"], "grid.z_max must be finite, got nan"),
    (["charfn", "--grid=-1:inf:3"], "grid.z_max must be finite, got inf"),
    (["charfn", "--grid=-1:1:3", "--atol", "inf"],
     "tolerances.atol must be finite, got inf"),
    (["spectrum", "--k", "2", "--eig-tol", "inf"],
     "tolerances.eig_tol must be finite, got inf"),
    (["spectrum", "--k", "2", "--gamma", "inf"], "gamma must be finite, got inf"),
    (["spectrum", "--k", "2", "--gamma", "5"],
     "gamma 5.0 exceeds the smallest oracle root"),
    (["verify", "--gamma", "1.5"], "gamma 1.5 is above the smallest eigenvalue"),
    (["verify", "--gamma", "5"], "gamma 5.0 is above the smallest eigenvalue"),
    (["charfn", "--grid=1:x:3"], "--grid MAX must be a number, got 'x'"),
    (["charfn", "--grid=1:2:3.5"], "--grid POINTS must be an integer, got '3.5'"),
    (["spectrum", "--k", "2", "--family", "explicit", "--alphas", "1,x",
      "--betas", "2,2,2"], "--alphas entry must be a number, got 'x'"),
    (["spectrum", "--k", "2", "--family", "explicit", "--alphas", "1,1",
      "--betas", "2,,2"], "--betas entry must be a number, got ''"),
    # the span overflowed in linspace: nan and inf rows, exit 0
    (["charfn", "--grid=-1e308:1e308:3"],
     "grid span z_max - z_min must be finite, got -1e+308:1e+308"),
    (["verify", "--precision", "-30"],
     "tolerances.precision_digits must be nonnegative, got -30"),
])
def test_non_finite_flags_and_high_gamma_rejected(capsys, argv, message):
    # the nan grid and --atol inf used to exit 0, the others to exit 2 with
    # "-inf + inf in fsum"; --gamma 5 returned lambda_1 = 1.75 as certified;
    # verify --gamma 1.5 passed every check and --gamma 5 failed on P_1 = 0;
    # verify --precision -30 ran at 53 bits and echoed -30 in its report;
    # malformed --grid, --alphas and --betas fields did not name the flag;
    # a grid whose span overflows printed nan and inf rows and exited 0
    code, out, err = run_cli(capsys, *argv, "--q", "0.5", "--a", "0.5")
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("command", ["charfn", "verify", "spectrum"])
@pytest.mark.parametrize("confirm", ["bogus", None, ["auto"]])
def test_config_unknown_confirm_rejected(tmp_path, capsys, command, confirm):
    # charfn and verify never read confirm; they used to run with exit 0 and
    # echo the bad value in the report header
    argv = ["--k", "1"] if command == "spectrum" else []
    doc = dict(_CHARFN_DOC, confirm=confirm)
    code, out, err = _run_config(tmp_path, capsys, doc, command, *argv)
    assert code == 2
    assert out == ""
    assert f"confirm must be one of auto|require|oracle, got {confirm!r}" in err


@pytest.mark.parametrize("command, flag", [
    ("spectrum", "--atol"), ("spectrum", "--precision"),
    ("charfn", "--precision"), ("charfn", "--gamma"),
    ("verify", "--atol"),
    ("identities", "--atol"), ("identities", "--precision"),
    ("identities", "--max-terms"), ("identities", "--gamma"),
])
def test_subcommand_rejects_flags_it_does_not_read(capsys, command, flag):
    family = [] if command == "identities" else ["--q", "0.5", "--a", "0.5"]
    extra = {"spectrum": ["--k", "1"], "charfn": ["--grid=0:1:2"],
             "verify": [], "identities": ["--q-list", "0.5"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *family, *extra, flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_config_family_q_a_overridden_by_flags(tmp_path, capsys):
    base = {"family": {"kind": "asc2", "q": 0.5, "a": 0.5}, "shift": 0.0}
    code, out, err = _run_config(tmp_path, capsys, base, "spectrum", "--k", "2",
                                 "--q", "0.7", "--a", "0.7", "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["meta"]["config"]["family"] == {"kind": "asc2", "q": 0.7, "a": 0.7}
    lams = [row["lambda"] for row in doc["rows"]]
    assert lams == pytest.approx([1.0, 1.0 / 0.7], abs=1e-8)  # q^-n, not 2^n
    # one flag overrides one parameter and keeps the other from the file
    code, out, err = _run_config(tmp_path, capsys, base, "spectrum", "--k", "1",
                                 "--a", "0.25", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["meta"]["config"]["family"] == {
        "kind": "asc2", "q": 0.5, "a": 0.25}


def test_config_explicit_family_rejects_q_a_flags(tmp_path, capsys):
    doc = {"family": {"kind": "explicit", "alphas": [1.0, 1.0],
                      "betas": [3.0, 3.0, 3.0]}}
    code, out, err = _run_config(tmp_path, capsys, doc, "verify", "--q", "0.5")
    assert code == 2
    assert out == ""
    assert "--q and --a apply only to an asc2 family" in err


@pytest.mark.parametrize("family, message", [
    ({"kind": "explicit", "alphas": "12", "betas": "345"},
     "family.alphas must be an array of numbers, got '12'"),
    ({"kind": "explicit", "alphas": [1.0, 2.0], "betas": "345"},
     "family.betas must be an array of numbers, got '345'"),
    ({"kind": "explicit", "alphas": [1.0, "2"], "betas": [3.0, 4.0, 5.0]},
     "family.alphas[1] must be a number, got '2'"),
    ({"kind": "asc2", "q": 0.5, "a": True}, "family.a must be a number, got True"),
    ({"kind": "asc2", "q": "0.5", "a": 0.5},
     "family.q must be a number, got '0.5'"),
], ids=["alphas-string", "betas-string", "alphas-entry", "a-bool", "q-string"])
def test_config_family_values_must_be_numbers(tmp_path, capsys, family, message):
    # each ran and exited 0: "12" became the table (1, 2), true became
    # a = 1.0 and "0.5" became q = 0.5, while "shift": "0.5" was rejected
    code, out, err = _run_config(tmp_path, capsys, {"family": family}, "verify")
    assert code == 2
    assert out == ""
    assert message in err


def test_config_family_is_echoed_as_written(tmp_path, capsys):
    # the values are checked, not converted: integer entries echo as integers
    family = {"kind": "explicit", "alphas": [1, 1], "betas": [3, 3.0, 3]}
    code, out, err = _run_config(tmp_path, capsys, {"family": family},
                                 "verify", "--format", "json")
    assert code == 0, err
    echoed = json.loads(out)["meta"]["config"]["family"]
    assert echoed == family
    assert [type(x) for x in echoed["betas"]] == [int, float, int]


def test_verify_at_q_09_reconciles_the_trace(capsys):
    # no kappa window of (0.9, 0.9, 0) passes the 0.9 cap; the trace row
    # failed at the coefficient horizon (n = 5915) and verify exited 3.  The
    # tail certificate ends the sum at 256 terms
    code, out, err = run_cli(capsys, "verify", "--q", "0.9", "--a", "0.9",
                             "--shift", "0")
    rows = {r["check"]: r for r in parse_csv(out)}
    assert code == 0
    assert {name for name, r in rows.items() if r["status"] != "pass"} == set()
    assert rows["trace_reconciliation"]["note"] == \
        "256 kappa terms, 512 x 512 block"
