"""SHA-256 digest of every benchmark job's output, to confine the output
changes of a code change.

    python3 tools/output_digest.py [--workloads W,...] [--seeds 0-10]
                                   [--out FILE] [--against FILE]

The jobs are those of perfbench/jobs.py (make_jobs), run in-process, in
order, on the checkout's src/ tree.  A spectrum job hashes every
SpectrumResult field, floats as float.hex; a command-line job hashes its
exit code, report and stderr; a job that raises hashes its error.  Each
output line is "workload seed index digest label".  --against FILE compares
with an earlier output: the jobs whose digest differs (or that only one
side ran) are listed on stderr, and the exit code is 1 if there are any.
Seed 0 to 10 of the four workloads is 143 jobs and takes a few seconds.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import jobs  # noqa: E402


def _canon(x):
    """x as JSON-ready data, with every float as float.hex."""
    if isinstance(x, float):
        return float.hex(x)
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    raise TypeError(f"cannot digest {type(x).__name__} {x!r}")


def job_digest(outcome: jobs.Outcome) -> str:
    """SHA-256 of one job's output."""
    if outcome.error is not None:
        data = {"error": outcome.error}
    elif outcome.result is not None:
        data = {f.name: _canon(getattr(outcome.result, f.name))
                for f in dataclasses.fields(outcome.result)}
    else:
        data = {"rc": outcome.rc, "report": outcome.report,
                "stderr": outcome.stderr}
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(workloads, seeds) -> dict[tuple[str, int, int], tuple[str, str]]:
    """(workload, seed, index) -> (digest, job label) for every job."""
    jobs.import_jacspec()
    out = {}
    for workload in workloads:
        for seed in seeds:
            for i, job in enumerate(jobs.make_jobs(workload, seed)):
                out[workload, seed, i] = (job_digest(jobs.run_job(job)),
                                          job.label)
    return out


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _read(path) -> dict:
    table = {}
    for line in Path(path).read_text().splitlines():
        workload, seed, index, digest, label = line.split(" ", 4)
        table[workload, int(seed), int(index)] = (digest, label)
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(jobs.WORKLOADS),
                    help="comma-separated workload names (default: all)")
    ap.add_argument("--seeds", default="0-10", help="N or LO-HI (default 0-10)")
    ap.add_argument("--out", help="write the digests here instead of stdout")
    ap.add_argument("--against", help="an earlier output to compare with")
    args = ap.parse_args(argv)
    table = digests(args.workloads.split(","), _seeds(args.seeds))
    lines = [f"{w} {s} {i} {d} {label}"
             for (w, s, i), (d, label) in table.items()]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.against:
        old = _read(args.against)
        changed = [key for key in sorted(table.keys() | old.keys())
                   if table.get(key, (None,))[0] != old.get(key, (None,))[0]]
        for w, s, i in changed:
            label = (table.get((w, s, i)) or old[w, s, i])[1]
            print(f"changed: {w} seed {s} job {i} {label}", file=sys.stderr)
        print(f"{len(changed)} of {len(table)} jobs changed", file=sys.stderr)
        return 1 if changed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
