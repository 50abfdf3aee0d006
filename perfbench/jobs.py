"""Workload job lists, seeded input generation and the calls into jacspec.

Seed 0 runs the listed ASC-II configurations exactly.  Any other seed jitters
each shift by up to +-0.05 and the charfn grid endpoints by a little, staying
inside the certified regime 0 < a <= q < 1, shift < 1.  Every other job field
is fixed, so a seed changes only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SHIFT_JITTER = 0.05
GRID_LO_JITTER = 0.05  # absolute, on z_min
GRID_HI_JITTER = 0.01  # relative, on z_max


@dataclass(frozen=True)
class Job:
    """One call into jacspec.

    kind "spectrum" calls find_spectrum(ASC2Source(q, a, shift), k, tol,
    confirm=confirm); kinds "charfn", "verify" and "identities" run that CLI
    command in-process.
    """

    kind: str
    q: float = 0.0
    a: float = 0.0
    shift: float = 0.0
    k: int = 0
    tol: float = 0.0
    confirm: str = ""
    grid: tuple[float, float, int] | None = None
    precision: int = 0
    q_list: tuple[float, ...] = ()

    @property
    def label(self) -> str:
        if self.kind == "spectrum":
            return (f"spectrum({self.q},{self.a},{self.shift},k={self.k},"
                    f"{self.confirm})")
        if self.kind == "identities":
            return "identities(" + ",".join(map(str, self.q_list)) + ")"
        return f"{self.kind}({self.q},{self.a},{self.shift})"

    def argv(self) -> list[str]:
        """Command line of a CLI job (without the program name)."""
        fam = [f"--q={self.q!r}", f"--a={self.a!r}", f"--shift={self.shift!r}"]
        if self.kind == "charfn":
            lo, hi, n = self.grid
            return ["charfn", *fam, f"--grid={lo!r}:{hi!r}:{n}", "--format=json"]
        if self.kind == "verify":
            return ["verify", *fam, f"--precision={self.precision}"]
        if self.kind == "identities":
            return ["identities", "--q-list=" + ",".join(map(repr, self.q_list))]
        raise ValueError(f"{self.kind} is not a CLI job")


def _spec(q, a, shift, k, tol, confirm):
    return Job("spectrum", q=q, a=a, shift=shift, k=k, tol=tol, confirm=confirm)


BASE_JOBS: dict[str, tuple[Job, ...]] = {
    "spectrum-certified": (
        _spec(0.5, 0.5, 0.5, 8, 1e-9, "auto"),
        _spec(0.3, 0.3, 0.0, 8, 1e-9, "auto"),
        _spec(0.6, 0.3, 0.5, 6, 1e-9, "auto"),
        _spec(0.9, 0.9, 0.0, 6, 1e-9, "auto"),
    ),
    "spectrum-oracle": (
        _spec(0.5, 0.5, 0.5, 40, 1e-10, "oracle"),
        _spec(0.7, 0.7, 0.0, 20, 1e-10, "oracle"),
        _spec(0.9, 0.9, 0.0, 20, 1e-10, "oracle"),
        _spec(0.3, 0.3, 0.0, 40, 1e-10, "oracle"),
    ),
    "charfn-grid": (
        Job("charfn", q=0.5, a=0.5, shift=0.5, grid=(-1.0, 250.0, 400)),
        Job("charfn", q=0.7, a=0.7, shift=0.0, grid=(-1.0, 40.0, 400)),
    ),
    "verify-suite": (
        Job("verify", q=0.5, a=0.5, shift=0.5, precision=30),
        Job("verify", q=0.7, a=0.7, shift=0.0, precision=30),
        Job("identities", q_list=(0.3, 0.5, 0.7, 0.9)),
    ),
}

WORKLOADS = tuple(BASE_JOBS)


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one workload for one seed."""
    if workload not in BASE_JOBS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    jobs = list(BASE_JOBS[workload])
    if seed == 0:
        return jobs
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for job in jobs:
        if job.kind == "identities":
            out.append(job)
            continue
        shift = round(job.shift + rng.uniform(-SHIFT_JITTER, SHIFT_JITTER), 6)
        job = replace(job, shift=shift)
        if job.grid is not None:
            lo, hi, n = job.grid
            lo = round(lo + rng.uniform(-GRID_LO_JITTER, GRID_LO_JITTER), 6)
            hi = round(hi * (1.0 + rng.uniform(-GRID_HI_JITTER, GRID_HI_JITTER)), 6)
            job = replace(job, grid=(lo, hi, n))
        out.append(job)
    return out


def import_jacspec():
    """Import the package from the checkout's src/ tree."""
    if not (SRC / "jacspec" / "__init__.py").is_file():
        raise ImportError(f"no jacspec package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jacspec
    import jacspec.cli
    return jacspec


@dataclass
class Outcome:
    """What one job returned: a SpectrumResult, or a CLI exit code and report."""

    result: object = None
    error: str | None = None
    rc: int | None = None
    report: str = ""
    stderr: str = ""


def run_job(job: Job) -> Outcome:
    """Run one job; exceptions and exit codes are captured, never raised."""
    from jacspec import cli, sources, spectrum
    if job.kind == "spectrum":
        try:
            res = spectrum.find_spectrum(sources.ASC2Source(job.q, job.a, job.shift),
                                         job.k, job.tol, confirm=job.confirm)
        except Exception as exc:  # a failed operation, not a benchmark error
            return Outcome(error=f"{type(exc).__name__}: {exc}")
        return Outcome(result=res)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv())
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        return Outcome(error=f"{type(exc).__name__}: {exc}", rc=1,
                       report=out.getvalue(), stderr=err.getvalue())
    return Outcome(rc=rc, report=out.getvalue(), stderr=err.getvalue())
