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
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .charfn import CharFnEvaluator, charfn_ratio
from .errors import AssumptionViolation, ConvergenceError
from .qseries import (phi1_closed_form_check, phi1_unit_argument,
                      qbinomial_check, qgauss_check, spectrum_product_reference)
from .sources import ASC2Source, TableSource
from .spectrum import find_spectrum
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
    cfg.shift = float(doc.get("shift", cfg.shift))
    if doc.get("gamma") is not None:
        cfg.gamma = float(doc["gamma"])
    tol = doc.get("tolerances", {})
    _check_keys(tol, _TOLERANCE_KEYS, "tolerances")
    cfg.eig_tol = float(tol.get("eig_tol", cfg.eig_tol))
    cfg.atol = float(tol.get("atol", cfg.atol))
    cfg.max_terms = int(tol.get("max_terms", cfg.max_terms))
    cfg.precision_digits = int(tol.get("precision_digits", cfg.precision_digits))
    cfg.confirm = doc.get("confirm", cfg.confirm)
    cfg.grid = doc.get("grid")
    if cfg.grid is not None:
        _check_keys(cfg.grid, _GRID_KEYS, "grid", required=True)
    out = doc.get("output", {})
    _check_keys(out, _OUTPUT_KEYS, "output")
    cfg.format = out.get("format", cfg.format)
    cfg.out = out.get("path", cfg.out)
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
                "alphas": [float(x) for x in args.alphas.split(",")],
                "betas": [float(x) for x in args.betas.split(",")],
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
        cfg.grid = {"z_min": float(parts[0]), "z_max": float(parts[1]),
                    "points": int(parts[2])}
    return cfg


def validate_config(cfg: RunConfig, spectral: bool = False) -> None:
    if not cfg.eig_tol > 0 or not cfg.atol > 0:
        raise ConfigError("tolerances must be positive")
    if cfg.max_terms < 16:
        raise ConfigError("max_terms is too small to certify anything")
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


def _json_cell(x):
    if isinstance(x, float) and math.isnan(x):
        return None
    return x


def emit_report(command: str, cfg: RunConfig, columns: list[str],
                rows: list[dict]) -> str:
    meta = {
        "tool": "jacspec",
        "version": __version__,
        "command": command,
        "config": cfg.echo(),
    }
    if cfg.format == "json":
        payload = {
            "meta": meta,
            "rows": [{c: _json_cell(r[c]) for c in columns} for r in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# jacspec {command} report\n")
        buf.write(f"# version: {__version__}\n")
        buf.write(f"# config: {json.dumps(cfg.echo(), sort_keys=True)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_fmt_cell(r[c]) for c in columns])
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
    rows = []
    for j in range(len(res.eigenvalues)):
        if (j + 1) in res.unresolved:
            continue
        rows.append({
            "index": j + 1,
            "lambda": res.eigenvalues[j],
            "residual": res.residuals[j],
            "tail_bound": res.tail_bounds[j],
            "bracket_lo": res.brackets[j][0],
            "bracket_hi": res.brackets[j][1],
            "oracle_value": res.oracle_values[j],
            "oracle_gap": res.oracle_gaps[j],
        })
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
    points = int(cfg.grid["points"])
    if points < 2:
        raise ConfigError("grid needs at least 2 points")
    grid = np.linspace(float(cfg.grid["z_min"]), float(cfg.grid["z_max"]), points)
    partial = CharFnEvaluator(src, cfg.max_terms).eval_grid(grid, cfg.atol)
    ratios = charfn_ratio(src, grid, n_max=min(400, cfg.max_terms))
    is_asc2 = isinstance(src, ASC2Source)
    rows = []
    for z, ps, rt in zip(grid.tolist(), partial, ratios):
        closed = spectrum_product_reference(z, src.q, src.shift) if is_asc2 else None
        rows.append({
            "z": z,
            "f_partial": float(ps.value),
            "tail_bound": ps.tail_bound,
            "f_ratio": float(rt.value),
            "ratio_gap": abs(ps.value - rt.value),
            "closed_form": closed,
            "closed_gap": abs(ps.value - closed) if closed is not None else None,
        })
    emit_report("charfn", cfg,
                ["z", "f_partial", "tail_bound", "f_ratio", "ratio_gap",
                 "closed_form", "closed_gap"], rows)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    validate_config(cfg)
    src = build_source(cfg)
    results = run_suite(src, gamma=cfg.gamma,
                        precision_digits=cfg.precision_digits,
                        max_terms=cfg.max_terms)
    rows = [{
        "check": r.name,
        "status": r.status,
        "max_residual": r.max_residual,
        "threshold": r.threshold,
        "note": r.note,
    } for r in results]
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

def _add_shared(p: argparse.ArgumentParser, family: bool = True):
    p.add_argument("--config", help="JSON configuration document")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--precision", type=int,
                   help="working precision in decimal digits (verify suite)")
    p.add_argument("--atol", type=float)
    p.add_argument("--max-terms", dest="max_terms", type=int)
    p.add_argument("--gamma", type=float,
                   help="asserted lower spectral bound of the shifted matrix")
    if family:
        p.add_argument("--family", choices=("asc2", "explicit"))
        p.add_argument("--q", type=float)
        p.add_argument("--a", type=float)
        p.add_argument("--shift", type=float)
        p.add_argument("--alphas", help="comma-separated explicit off-diagonal")
        p.add_argument("--betas", help="comma-separated explicit diagonal")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacspec",
        description="Spectra of positive-definite Jacobi matrices via their "
                    "characteristic entire function",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="locate the k smallest eigenvalues")
    _add_shared(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eig-tol", dest="eig_tol", type=float)
    p.add_argument("--confirm", choices=("auto", "require", "oracle"))

    p = sub.add_parser("charfn", help="characteristic function over a grid")
    _add_shared(p)
    p.add_argument("--grid", help="MIN:MAX:POINTS")

    p = sub.add_parser("verify", help="run the structural identity suite")
    _add_shared(p)

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
            q_list = [float(x) for x in args.q_list.split(",") if x]
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
