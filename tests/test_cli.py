import csv
import io
import json

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


def test_spectrum_require_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--family", "asc2", "--q", "0.5", "--a", "0.5",
        "--shift", "0.5", "--k", "10", "--max-terms", "300",
        "--confirm", "require",
    )
    assert code == 4
    assert parse_csv(out)  # partial report still emitted


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
    # the first recurrence pair beyond the rescale window: F = +inf
    (("--grid=-1e160:-1e159:2", "--format", "json"), ["Infinity"] * 2),
    # no kappa table within max_terms 40: uncertified, over no terms
    (("--grid=1:30:3", "--max-terms", "40", "--format", "json"), [1.0] * 3),
])
def test_charfn_uncertifiable_grids_still_report(capsys, argv, f_partial):
    code, out, err = run_cli(capsys, "charfn", "--q", "0.5", "--a", "0.5",
                             "--shift", "0.5", *argv)
    assert (code, err) == (0, "")
    rows = json.loads(out, parse_constant=str)["rows"]
    assert [r["f_partial"] for r in rows] == f_partial


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


def test_verify_extended_precision_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "asc2", "--q", "0.5",
                           "--a", "0.5", "--shift", "0.5", "--precision", "30")
    assert code == 0
    rows = {r["check"]: r for r in parse_csv(out)}
    # identity maxima shrink far below float64 round-off at 30 digits
    assert float(rows["recurrence_residual"]["max_residual"]) < 1e-25
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
])
def test_non_finite_flags_and_high_gamma_rejected(capsys, argv, message):
    # the nan grid and --atol inf used to exit 0, the others to exit 2 with
    # "-inf + inf in fsum"; --gamma 5 returned lambda_1 = 1.75 as certified;
    # verify --gamma 1.5 passed every check and --gamma 5 failed on P_1 = 0;
    # malformed --grid, --alphas and --betas fields did not name the flag
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
