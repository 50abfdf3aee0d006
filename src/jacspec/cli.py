"""Command-line front end.

Subcommands
-----------
spectrum    locate the k smallest eigenvalues with residuals and oracle gaps
charfn      tabulate the characteristic function over a real grid
verify      run the structural identity suite on the configured family
identities  q-series identity gap report over parameter grids

Configuration comes from an optional JSON document (--config) whose fields
mirror the RunConfig schema; individual command-line flags override the file.
Reports are CSV (default) or JSON with a deterministic metadata header, so
identical configurations produce byte-identical files.

Exit codes: 0 success; 2 configuration error; 3 unresolved eigenvalue or
failed check; 4 required certification unattainable.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
# charfn_ratio is unused here: perfbench hooks it here
from .charfn import CharFnEvaluator, charfn_ratio  # noqa: F401
from .errors import AssumptionViolation, ConvergenceError
from .qseries import (phi1_closed_form_check, phi1_unit_argument,
                      qbinomial_check, qgauss_check, spectrum_product_reference)
from .sources import ASC2Source, TableSource
from .spectrum import CONFIRM_POLICIES, find_spectrum
from .verify import run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAILED = 3
EXIT_UNCERTIFIED = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    family: dict | None = None
    shift: float = 0.0
    gamma: float | None = None
    eig_tol: float = 1e-9
    atol: float = 1e-12
    max_terms: int = 20000
    precision_digits: int = 0
    confirm: str = "auto"
    grid: dict | None = None
    out: str | None = None
    format: str = "csv"

    def echo(self) -> dict:
        return {
            "family": self.family,
            "shift": self.shift,
            "gamma": self.gamma,
            "tolerances": {
                "eig_tol": self.eig_tol,
                "atol": self.atol,
                "max_terms": self.max_terms,
                "precision_digits": self.precision_digits,
            },
            "confirm": self.confirm,
            "grid": self.grid,
            "output": {"format": self.format, "path": self.out},
        }


_CONFIG_KEYS = {"family", "shift", "gamma", "tolerances", "confirm", "grid",
                "output"}
# "rtol" is accepted and ignored: configs written for older versions carry it
_TOLERANCE_KEYS = {"eig_tol", "atol", "max_terms", "precision_digits", "rtol"}
_OUTPUT_KEYS = {"format", "path"}
# family and grid objects need every one of their keys
_FAMILY_KEYS = {"asc2": {"kind", "q", "a"}, "explicit": {"kind", "alphas", "betas"}}
_GRID_KEYS = {"z_min", "z_max", "points"}


def _check_keys(doc, allowed: set, where: str, required: bool = False) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    missing = allowed - set(doc)
    if required and missing:
        raise ConfigError(f"missing {where} keys: {sorted(missing)}")


def _check_family(family) -> None:
    if not isinstance(family, dict):
        raise ConfigError("family must be a JSON object")
    kind = family.get("kind")
    if kind not in ("asc2", "explicit"):
        raise ConfigError(f"unknown family kind {kind!r}")
    _check_keys(family, _FAMILY_KEYS[kind], "family", required=True)
    # checked, not converted: the report echoes the family as written
    if kind == "asc2":
        _number(family["q"], "family.q")
        _number(family["a"], "family.a")
        return
    for key in ("alphas", "betas"):
        if not isinstance(family[key], list):
            raise ConfigError(f"family.{key} must be an array of numbers, "
                              f"got {family[key]!r}")
        for i, x in enumerate(family[key]):
            _number(x, f"family.{key}[{i}]")


def _number(value, key: str, kind=float):
    """A JSON number converted by ``kind``; ConfigError naming ``key`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        converted = kind(value)
    except (ValueError, OverflowError):  # int() of nan or inf
        raise ConfigError(f"{key} must be finite, got {value!r}") from None
    if kind is int and converted != value:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return converted


def _flag_number(text: str, what: str, kind=float):
    """A command-line field converted by ``kind``; ConfigError naming ``what``
    otherwise."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {noun}, got {text!r}") from None


def load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _check_keys(doc, _CONFIG_KEYS, "config")
    cfg.family = doc.get("family")
    if cfg.family is not None:
        _check_family(cfg.family)
    cfg.shift = _number(doc.get("shift", cfg.shift), "shift")
    if doc.get("gamma") is not None:
        cfg.gamma = _number(doc["gamma"], "gamma")
    tol = doc.get("tolerances", {})
    _check_keys(tol, _TOLERANCE_KEYS, "tolerances")
    cfg.eig_tol = _number(tol.get("eig_tol", cfg.eig_tol), "tolerances.eig_tol")
    cfg.atol = _number(tol.get("atol", cfg.atol), "tolerances.atol")
    cfg.max_terms = _number(tol.get("max_terms", cfg.max_terms),
                            "tolerances.max_terms", int)
    cfg.precision_digits = _number(tol.get("precision_digits", cfg.precision_digits),
                                   "tolerances.precision_digits", int)
    cfg.confirm = doc.get("confirm", cfg.confirm)
    if cfg.confirm not in CONFIRM_POLICIES:
        raise ConfigError(f"confirm must be one of {'|'.join(CONFIRM_POLICIES)}, "
                          f"got {cfg.confirm!r}")
    grid = doc.get("grid")
    if grid is not None:
        _check_keys(grid, _GRID_KEYS, "grid", required=True)
        cfg.grid = {"z_min": _number(grid["z_min"], "grid.z_min"),
                    "z_max": _number(grid["z_max"], "grid.z_max"),
                    "points": _number(grid["points"], "grid.points", int)}
    out = doc.get("output", {})
    _check_keys(out, _OUTPUT_KEYS, "output")
    cfg.format = out.get("format", cfg.format)
    cfg.out = out.get("path", cfg.out)
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise ConfigError(f"output.path must be a string or null, got {cfg.out!r}")
    return cfg


def apply_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "family", None):
        if args.family == "asc2":
            if args.q is None or args.a is None:
                raise ConfigError("asc2 family needs --q and --a")
            cfg.family = {"kind": "asc2", "q": args.q, "a": args.a}
        elif args.family == "explicit":
            if not args.alphas or not args.betas:
                raise ConfigError("explicit family needs --alphas and --betas")
            cfg.family = {
                "kind": "explicit",
                "alphas": [_flag_number(x, "--alphas entry")
                           for x in args.alphas.split(",")],
                "betas": [_flag_number(x, "--betas entry")
                          for x in args.betas.split(",")],
            }
        else:
            raise ConfigError(f"unknown family {args.family!r}")
    else:
        given = {k: v for k in ("q", "a")
                 if (v := getattr(args, k, None)) is not None}
        if given and cfg.family is None:
            if len(given) < 2:
                raise ConfigError("asc2 family needs --q and --a")
            cfg.family = {"kind": "asc2", **given}
        elif given and cfg.family["kind"] != "asc2":
            raise ConfigError("--q and --a apply only to an asc2 family")
        elif given:
            cfg.family = {**cfg.family, **given}  # override the file's q/a
    for flag, attr in (("shift", "shift"), ("gamma", "gamma"),
                       ("eig_tol", "eig_tol"), ("atol", "atol"),
                       ("max_terms", "max_terms"),
                       ("precision", "precision_digits"),
                       ("confirm", "confirm"), ("out", "out"),
                       ("format", "format")):
        v = getattr(args, flag, None)
        if v is not None:
            setattr(cfg, attr, v)
    if getattr(args, "grid", None):
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise ConfigError("--grid must be MIN:MAX:POINTS")
        cfg.grid = {"z_min": _flag_number(parts[0], "--grid MIN"),
                    "z_max": _flag_number(parts[1], "--grid MAX"),
                    "points": _flag_number(parts[2], "--grid POINTS", int)}
    return cfg


def validate_config(cfg: RunConfig, spectral: bool = False) -> None:
    numbers = [("tolerances.eig_tol", cfg.eig_tol), ("tolerances.atol", cfg.atol),
               ("gamma", cfg.gamma)]
    if cfg.grid:
        numbers += [(f"grid.{key}", cfg.grid[key]) for key in ("z_min", "z_max")]
    for key, value in numbers:
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    if cfg.grid and not math.isfinite(cfg.grid["z_max"] - cfg.grid["z_min"]):
        raise ConfigError("grid span z_max - z_min must be finite, got "
                          f"{cfg.grid['z_min']!r}:{cfg.grid['z_max']!r}")
    if not cfg.eig_tol > 0 or not cfg.atol > 0:
        raise ConfigError("tolerances must be positive")
    if cfg.max_terms < 16:
        raise ConfigError("max_terms is too small to certify anything")
    if cfg.precision_digits < 0:
        raise ConfigError("tolerances.precision_digits must be nonnegative, "
                          f"got {cfg.precision_digits!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {cfg.format!r}")
    if spectral and cfg.gamma is not None and not cfg.gamma > 0:
        raise ConfigError("gamma must be positive for spectral commands")


def build_source(cfg: RunConfig):
    if cfg.family is None:
        raise ConfigError("no coefficient family configured")
    family = cfg.family  # checked by load_config or built by apply_flags
    try:
        if family["kind"] == "asc2":
            return ASC2Source(q=float(family["q"]), a=float(family["a"]),
                              shift=cfg.shift)
        return TableSource(alphas=family["alphas"], betas=family["betas"],
                           shift=cfg.shift)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad family parameters: {exc}") from exc


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _fmt_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


_JSON = json.JSONEncoder(sort_keys=True, indent=2).encode  # the JSON layout


def _json_cell(x) -> str:
    """_JSON's text of a row cell, but nan as null and +-inf as the CSV text
    "inf"/"-inf": strict JSON."""
    if not isinstance(x, float):
        return _JSON(x).replace("\n", "\n      ")
    return (float.__repr__(x) if math.isfinite(x) else
            "null" if x != x else f'"{x}"')


def _json_report(meta: dict, columns: list[str], rows: list[dict]) -> str:
    """_JSON({"meta": meta, "rows": rows}) + newline, each row cut to the
    columns and its cells written by _json_cell, through one template per
    row over the sorted column names."""
    keys = sorted(set(columns))
    fields = ",\n".join(f'      {_JSON(c).replace("%", "%%")}: %s' for c in keys)
    row = f"    {{\n{fields}\n    }}" if keys else "    {}"
    body = ",\n".join(row % tuple(_json_cell(r[c]) for c in keys) for r in rows)
    meta_text = _JSON(meta).replace("\n", "\n  ")
    rows_text = f"[\n{body}\n  ]" if rows else "[]"
    return f'{{\n  "meta": {meta_text},\n  "rows": {rows_text}\n}}\n'


def emit_report(command: str, cfg: RunConfig, columns: list[str],
                rows: list[dict]) -> str:
    meta = {"tool": "jacspec", "version": __version__, "command": command,
            "config": cfg.echo()}
    if cfg.format == "json":
        text = _json_report(meta, columns, rows)
    else:
        buf = io.StringIO()
        buf.write(f"# jacspec {command} report\n")
        buf.write(f"# version: {__version__}\n")
        buf.write(f"# config: {json.dumps(cfg.echo(), sort_keys=True)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt_cell(r[c]) for c in columns] for r in rows)
        text = buf.getvalue()
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig, k: int) -> int:
    validate_config(cfg, spectral=True)
    src = build_source(cfg)
    columns = ["index", "lambda", "residual", "tail_bound", "bracket_lo",
               "bracket_hi", "oracle_value", "oracle_gap"]
    if k == 0:
        emit_report("spectrum", cfg, columns, [])
        return EXIT_OK
    res = find_spectrum(src, k, cfg.eig_tol, gamma=cfg.gamma,
                        max_terms=cfg.max_terms, confirm=cfg.confirm)
    rows = [{"index": j + 1, "lambda": lam, "residual": res.residuals[j],
             "tail_bound": res.tail_bounds[j], "bracket_lo": res.brackets[j][0],
             "bracket_hi": res.brackets[j][1],
             "oracle_value": res.oracle_values[j], "oracle_gap": res.oracle_gaps[j]}
            for j, lam in enumerate(res.eigenvalues) if j + 1 not in res.unresolved]
    emit_report("spectrum", cfg, columns, rows)
    if res.unresolved:
        print(f"unresolved eigenvalue indices: {res.unresolved}", file=sys.stderr)
        return EXIT_UNCERTIFIED if cfg.confirm == "require" else EXIT_FAILED
    return EXIT_OK


def cmd_charfn(cfg: RunConfig) -> int:
    validate_config(cfg)
    src = build_source(cfg)
    if not cfg.grid:
        raise ConfigError("charfn needs a grid (--grid MIN:MAX:POINTS)")
    points = cfg.grid["points"]
    if points < 2:
        raise ConfigError("grid needs at least 2 points")
    grid = np.linspace(cfg.grid["z_min"], cfg.grid["z_max"], points)
    zs = grid.tolist()
    # both columns from one sweep of the grid: eval's and charfn_ratio's
    values, plans, ratios = CharFnEvaluator(src, cfg.max_terms)._grid(
        zs, cfg.atol, n_max=min(400, cfg.max_terms))
    closed_forms = spectrum_product_reference(grid, src.q, src.shift)
    rows = [{"z": z, "f_partial": v, "tail_bound": p.tail_bound, "f_ratio": r,
             "ratio_gap": abs(v - r), "closed_form": c, "closed_gap": abs(v - c)}
            for z, v, p, r, c in zip(zs, values, plans, ratios, closed_forms)]
    emit_report("charfn", cfg,
                ["z", "f_partial", "tail_bound", "f_ratio", "ratio_gap",
                 "closed_form", "closed_gap"], rows)
    unbounded = sum(1 for c in closed_forms if math.isnan(c))
    if unbounded:
        print(f"note: closed_form is nan at {unbounded} of {points} grid points: "
              "the q-Pochhammer product or its truncation bound leaves the "
              "float range", file=sys.stderr)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    validate_config(cfg)
    src = build_source(cfg)
    results = run_suite(src, gamma=cfg.gamma,
                        precision_digits=cfg.precision_digits,
                        max_terms=cfg.max_terms)
    rows = [{"check": r.name, "status": r.status, "max_residual": r.max_residual,
             "threshold": r.threshold, "note": r.note} for r in results]
    emit_report("verify", cfg,
                ["check", "status", "max_residual", "threshold", "note"], rows)
    failed = [r.name for r in results if not r.skipped and not r.passed]
    if failed:
        print(f"failed checks: {failed}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def _identity_rows(q: float) -> list[dict]:
    rows = []
    binom_pts = [(q, 0.5), (0.0, 0.3), (q * q, -0.4), (0.25, 0.6), (-0.5, 0.5)]
    gap = max(qbinomial_check(u, z, q)[2] for u, z in binom_pts)
    rows.append({"identity": "q_binomial", "q": q, "points": len(binom_pts),
                 "max_gap": gap})
    gauss_pts = [(a, b, c) for a, b, c in
                 [(q, q, q ** 3), (q ** 2, q, q ** 4), (q, q ** 2, q ** 4)]
                 if abs(c / (a * b)) < 1.0]
    gap = max(qgauss_check(a, b, c, q)[2] for a, b, c in gauss_pts)
    rows.append({"identity": "q_gauss", "q": q, "points": len(gauss_pts),
                 "max_gap": gap})
    phi1_pts = [(0.0, 0.25), (0.5 * q, 0.5), (0.3, 0.3), (-0.4, 0.6), (q, q * q)]
    gap = max(phi1_closed_form_check(a, c, q)[2] for a, c in phi1_pts)
    rows.append({"identity": "phi1_closed_form", "q": q, "points": len(phi1_pts),
                 "max_gap": gap})
    rel_pts = [(0.2, 0.45), (-0.3, 0.6), (0.15, 0.8)]
    worst = 0.0
    for a, c in rel_pts:
        f_ac = 1.0 - (a - c) / (1.0 - c) * phi1_unit_argument(a, c, q)
        f_qq = 1.0 - (q * a - q * c) / (1.0 - q * c) * phi1_unit_argument(q * a, q * c, q)
        worst = max(worst, abs(f_ac - (1.0 - a) / (1.0 - c) * f_qq))
    rows.append({"identity": "phi1_functional_relation", "q": q,
                 "points": len(rel_pts), "max_gap": worst})
    return rows


def cmd_identities(cfg: RunConfig, q_list: list[float]) -> int:
    validate_config(cfg)
    rows = []
    for q in q_list:
        if not (0.0 < q < 1.0):
            raise ConfigError(f"q must lie in (0, 1), got {q}")
        rows.extend(_identity_rows(q))
    emit_report("identities", cfg, ["identity", "q", "points", "max_gap"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_NUMERIC_FLAGS = {
    "--precision": {"type": int,
                    "help": "significant decimal digits of the decimal "
                            "identity checks, at least 17 (the default)"},
    "--atol": {"type": float},
    "--max-terms": {"dest": "max_terms", "type": int},
    "--gamma": {"type": float,
                "help": "asserted lower spectral bound of the shifted matrix"},
}


def _add_shared(p: argparse.ArgumentParser, numeric: tuple = (),
                family: bool = True):
    """Flags every subcommand takes, plus those of ``numeric`` it reads."""
    p.add_argument("--config", help="JSON configuration document")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"))
    for flag in numeric:
        p.add_argument(flag, **_NUMERIC_FLAGS[flag])
    if family:
        p.add_argument("--family", choices=("asc2", "explicit"))
        p.add_argument("--q", type=float)
        p.add_argument("--a", type=float)
        p.add_argument("--shift", type=float)
        p.add_argument("--alphas", help="comma-separated explicit off-diagonal")
        p.add_argument("--betas", help="comma-separated explicit diagonal")


@functools.cache  # argparse objects reference each other: build them once
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacspec",
        description="Spectra of positive-definite Jacobi matrices via their "
                    "characteristic entire function",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="locate the k smallest eigenvalues")
    _add_shared(p, ("--max-terms", "--gamma"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eig-tol", dest="eig_tol", type=float)
    p.add_argument("--confirm", choices=CONFIRM_POLICIES)

    p = sub.add_parser("charfn", help="characteristic function over a grid")
    _add_shared(p, ("--atol", "--max-terms"))
    p.add_argument("--grid", help="MIN:MAX:POINTS")

    p = sub.add_parser("verify", help="run the structural identity suite")
    _add_shared(p, ("--precision", "--max-terms", "--gamma"))

    p = sub.add_parser("identities", help="q-series identity gap report")
    _add_shared(p, family=False)
    p.add_argument("--q-list", dest="q_list", default="0.3,0.5,0.7",
                   help="comma-separated q values")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = apply_flags(cfg, args)
        if args.command == "spectrum":
            if args.k < 0:
                raise ConfigError("k must be nonnegative")
            return cmd_spectrum(cfg, args.k)
        if args.command == "charfn":
            return cmd_charfn(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "identities":
            q_list = [_flag_number(x, "--q-list entry")
                      for x in args.q_list.split(",") if x]
            return cmd_identities(cfg, q_list)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, AssumptionViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"uncertified: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
