"""The provenance probe: the method find_spectrum gives every index of 66
ASC-II configurations, and which of them a change moved.

    python3 tools/provenance_probe.py [--configs N] [--out FILE]
                                      [--against FILE]

The configurations are six fixed ones, (0.5,0.5,0.5), (0.3,0.3,0),
(0.6,0.3,0.5), (0.9,0.9,0), (0.7,0.7,0) and (0.4,0.2,0.3), then 60 drawn
with random.Random(7): q ~ U(0.1, 0.95), a = q U(0.02, 1), shift ~ U(-1,
0.95), each rounded to 4 digits; --configs N keeps the first N.  Each runs
find_spectrum(ASC2Source(q, a, shift), k, tol, confirm="auto") for k in
{4, 8, 12} and tol in {1e-9, 1e-11}, in-process on the checkout's src/
tree; all 66 give 3,168 indices.  Each output line is "q a shift k tol
index method" (a call that raises gives one line with index 0 and its
error).  The count of each method goes to stderr.  --against FILE compares
with an earlier output: every index whose method differs (or that only one
side has) is listed on stderr, and the exit code is 1 if there is any.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FIXED = ((0.5, 0.5, 0.5), (0.3, 0.3, 0.0), (0.6, 0.3, 0.5), (0.9, 0.9, 0.0),
         (0.7, 0.7, 0.0), (0.4, 0.2, 0.3))
KS = (4, 8, 12)
TOLS = (1e-9, 1e-11)


def configurations(count: int = 66) -> list[tuple[float, float, float]]:
    """The first ``count`` of the probe's (q, a, shift)."""
    rng = random.Random(7)
    drawn = []
    for _ in range(60):
        q = round(rng.uniform(0.1, 0.95), 4)
        a = round(q * rng.uniform(0.02, 1.0), 4)
        drawn.append((q, a, round(rng.uniform(-1.0, 0.95), 4)))
    return (list(FIXED) + drawn)[:count]


def probe(configs) -> dict[tuple, str]:
    """(q, a, shift, k, tol, index) -> method, index 0 holding a call's
    error."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from jacspec import ASC2Source, find_spectrum
    out = {}
    for q, a, shift in configs:
        for k in KS:
            for tol in TOLS:
                try:
                    res = find_spectrum(ASC2Source(q, a, shift), k, tol,
                                        confirm="auto")
                except Exception as exc:  # recorded, as a changed method is
                    out[q, a, shift, k, tol, 0] = f"error:{type(exc).__name__}"
                    continue
                for j, method in enumerate(res.methods, 1):
                    out[q, a, shift, k, tol, j] = method
    return out


def _read(path) -> dict[tuple, str]:
    table = {}
    for line in Path(path).read_text().splitlines():
        q, a, shift, k, tol, j, method = line.split()
        table[float(q), float(a), float(shift), int(k), float(tol),
              int(j)] = method
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--configs", type=int, default=66,
                    help="run the first N configurations (default 66)")
    ap.add_argument("--out", help="write the methods here instead of stdout")
    ap.add_argument("--against", help="an earlier output to compare with")
    args = ap.parse_args(argv)
    table = probe(configurations(args.configs))
    text = "".join(" ".join(map(repr, key)) + f" {method}\n"
                   for key, method in table.items())
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    counts = Counter(table.values())
    print(", ".join(f"{n} {m}" for m, n in sorted(counts.items())),
          file=sys.stderr)
    if args.against:
        old = _read(args.against)
        changed = [key for key in sorted(table.keys() | old.keys())
                   if table.get(key) != old.get(key)]
        for key in changed:
            print(f"changed: {' '.join(map(repr, key))} "
                  f"{old.get(key)} -> {table.get(key)}", file=sys.stderr)
        print(f"{len(changed)} of {len(table)} indices changed",
              file=sys.stderr)
        return 1 if changed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
