"""Smoke test of tools/output_digest.py, the per-job output digest of the
benchmark workloads, and the seed-0 digests it must reproduce."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
# `python3 tools/output_digest.py --seeds 0`; only a change that sets out to
# change outputs regenerates it, and says so
SEED_0 = Path(__file__).resolve().parent / "output_digest_seed0.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_give_the_same_digests(tmp_path, capsys):
    tool = _tool()
    first = tool.digests(["spectrum-oracle"], [0])
    assert len(first) == 4
    assert all(len(digest) == 64 for digest, _ in first.values())
    args = ["--workloads", "spectrum-oracle", "--seeds", "0", "--out"]
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    assert tool.main(args + [str(old)]) == 0
    assert tool._read(old) == first
    # a second run compared with the first lists no change ...
    assert tool.main(args + [str(new), "--against", str(old)]) == 0
    assert capsys.readouterr().err == "0 of 4 jobs changed\n"
    # ... and one whose digest differs is listed
    lines = old.read_text().splitlines()
    lines[2] = lines[2].replace(first["spectrum-oracle", 0, 2][0], "0" * 64)
    old.write_text("\n".join(lines) + "\n")
    assert tool.main(args + [str(new), "--against", str(old)]) == 1
    label = first["spectrum-oracle", 0, 2][1]
    assert capsys.readouterr().err == (
        f"changed: spectrum-oracle seed 0 job 2 {label}\n1 of 4 jobs changed\n")


def test_seed_0_outputs_are_bit_identical_to_the_committed_digests():
    # every eigenvalue, F value and report byte of the 13 seed-0 jobs
    tool = _tool()
    want = tool._read(SEED_0)
    got = tool.digests(tool.jobs.WORKLOADS, [0])
    changed = sorted(key for key in want.keys() | got.keys()
                     if want.get(key) != got.get(key))
    assert changed == []
    assert len(got) == 13
