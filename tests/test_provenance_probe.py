"""Smoke test of tools/provenance_probe.py, the method find_spectrum gives
every index of the probe's configurations, and the methods of all 66
configurations that it must reproduce."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "provenance_probe.py"
# `python3 tools/provenance_probe.py --out FILE`, all 66 configurations; only
# a change that sets out to move a method regenerates it, and says so
CONFIGS_66 = Path(__file__).resolve().parent / "provenance_probe_configs66.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("provenance_probe", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_configurations(tmp_path, capsys):
    tool = _tool()
    configs = tool.configurations()
    assert len(configs) == 66 and configs[:6] == list(tool.FIXED)
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    assert tool.main(["--configs", "2", "--out", str(old)]) == 0
    table = tool._read(old)
    # (0.5, 0.5, 0.5) and (0.3, 0.3, 0) at k = 4, 8, 12 and two tols
    assert len(table) == 2 * 2 * (4 + 8 + 12)
    assert capsys.readouterr().err == "79 charfn-bisection, 17 oracle-ladder\n"
    # a second run compared with the first lists no change ...
    args = ["--configs", "2", "--out", str(new), "--against", str(old)]
    assert tool.main(args) == 0
    assert capsys.readouterr().err.endswith("0 of 96 indices changed\n")
    # ... and an index whose method differs is listed
    key = next(iter(table))
    lines = old.read_text().splitlines()
    lines[0] = lines[0].rsplit(" ", 1)[0] + " unresolved"
    old.write_text("\n".join(lines) + "\n")
    assert tool.main(args) == 1
    err = capsys.readouterr().err
    assert f"changed: {' '.join(map(repr, key))} unresolved -> " \
        f"{table[key]}\n" in err
    assert err.endswith("1 of 96 indices changed\n")


def test_fixed_configurations_reproduce_the_committed_methods(tmp_path, capsys):
    # every index of the 66 configurations keeps its method
    tool = _tool()
    args = ["--out", str(tmp_path / "new.txt"), "--against", str(CONFIGS_66)]
    assert tool.main(args) == 0
    err = capsys.readouterr().err
    assert err == "2184 charfn-bisection, 984 oracle-ladder\n" \
        "0 of 3168 indices changed\n"
