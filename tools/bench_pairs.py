"""Alternating benchmark pairs of two checkouts, and their verdict.

    python3 tools/bench_pairs.py PARENT CHANGE [--workloads W,...]
        [--seeds 0,13] [--pairs 10] [--seconds 4] [--out FILE]

PARENT and CHANGE are two checkouts of this repository.  For every workload
and seed, each pair runs `python3 perfbench/run.py --workload W --seed S
--seconds N --trace 0` once in each checkout, one after the other; the side
that runs first alternates from pair to pair (the parent first in the first
pair), so a drift of the host's speed favours neither side.  Each pair is
printed as it ends.  After the pairs of a workload and seed, every
end-to-end metric of CHANGE's BENCHMARK.json is summarized: each side's
median and quartiles, the pairs in which the change was better, and the
9-in-10 verdict, which holds when the change was better in at least 9 of
every 10 pairs and its median beats the parent's by more than the parent's
interquartile range.  --out writes every run and summary as JSON.  Run it
with PYTHONDONTWRITEBYTECODE=1 on checkouts without bytecode caches, as the
benchmark host does; it warns when a checkout holds one.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of xs, by the inclusive method; x three times for one
    x."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent: list[float], change: list[float],
              better: str = "lower") -> dict:
    """The summary of one metric over pairs: parent[i] and change[i] are the
    runs of pair i, and ``better`` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change run per pair, "
                         f"got {len(parent)} and {len(change)}")
    sign = {"lower": 1.0, "higher": -1.0}[better]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gain = sign * (pm - cm)
    return {
        "better": better,
        "parent_runs": parent, "change_runs": change,
        "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
        "change_median": cm, "change_q1": c1, "change_q3": c3,
        "parent_iqr": p3 - p1,
        "change_better_in": wins,
        "nine_in_ten": wins >= math.ceil(0.9 * len(parent))
        and gain > p3 - p1,
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one benchmark run in a checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metrics(checkout: Path) -> list[tuple[str, str]]:
    """(name, better) of every end-to-end metric of a checkout's benchmark."""
    doc = json.loads((checkout / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in doc["end_to_end"]]


def _line(name: str, s: dict) -> str:
    n = len(s["parent_runs"])
    return (f"  {name}: parent {s['parent_median']:.5g} "
            f"[{s['parent_q1']:.5g}, {s['parent_q3']:.5g}], change "
            f"{s['change_median']:.5g} [{s['change_q1']:.5g}, "
            f"{s['change_q3']:.5g}], change {s['better']} in "
            f"{s['change_better_in']} of {n}; 9-in-10: "
            f"{'yes' if s['nine_in_ten'] else 'no'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workloads", default="charfn-grid",
                    help="comma-separated workload names")
    ap.add_argument("--seeds", default="0", help="comma-separated seeds")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--out", type=Path, help="write every run as JSON here")
    args = ap.parse_args(argv)
    metrics = _metrics(args.change)
    sides = {"parent": args.parent, "change": args.change}
    for side, checkout in sides.items():
        if any((checkout / "src").rglob("__pycache__")):
            # a cached import is faster and smaller than a compiled one
            print(f"warning: the {side} checkout holds bytecode caches under "
                  "src/: its setup_s and peak_rss_mb are not comparable with "
                  "a checkout without them", file=sys.stderr)
    record = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "pairs": {},
    }
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(sides[side], workload, seed,
                                               args.seconds))
                values = "; ".join(
                    f"{name} {runs['parent'][-1]['metrics'][name]['value']:.5g}"
                    f" -> {runs['change'][-1]['metrics'][name]['value']:.5g}"
                    for name, _ in metrics)
                print(f"{workload}@{seed} pair {i + 1} ({order[0]} first): "
                      f"{values}", flush=True)
            entry = {"seed": seed, "pairs": args.pairs,
                     "seconds": args.seconds,
                     "failed": {side: [r["failed"] for r in rs]
                                for side, rs in runs.items()}}
            print(f"{workload}@{seed}:")
            for name, better in metrics:
                entry[name] = summarize(
                    *([r["metrics"][name]["value"] for r in runs[side]]
                      for side in ("parent", "change")), better)
                print(_line(name, entry[name]))
            record["pairs"][f"{workload}@{seed}"] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
