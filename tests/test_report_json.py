"""The JSON report: the row-template emitter against json.dumps, and pinned
SHA-256 digests of one JSON report per command."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacspec import cli


def _reference(meta, columns, rows):
    """The report as json.dumps writes it, cells as the JSON contract maps
    them: nan to null, +-inf to "inf"/"-inf"."""
    def cell(x):
        if isinstance(x, float) and not math.isfinite(x):
            return None if math.isnan(x) else ("inf" if x > 0 else "-inf")
        return x
    payload = {"meta": meta,
               "rows": [{c: cell(r[c]) for c in columns} for r in rows]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# strings with quotes, backslashes, %, control characters and non-ASCII
_TEXT = st.text(st.sampled_from('ab"\\%\n\t\x00\x1f\x7fé€😀 {}:,')
                | st.characters(), max_size=8)
_SCALARS = (st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                             -5e-324, 1e308, -1e308, 1e16, 0.1])
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.integers(-10**20, 10**20) | st.booleans() | st.none() | _TEXT)
# a list cell is written as json.dumps writes it, nan inside it as NaN
_CELLS = _SCALARS | st.lists(_SCALARS, max_size=3)
_META = st.dictionaries(_TEXT, _CELLS, max_size=4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(meta=_META, columns=st.lists(_TEXT, max_size=5),
       cells=st.lists(st.lists(_CELLS, min_size=5, max_size=5), max_size=4))
def test_emitter_matches_json_dumps(meta, columns, cells):
    rows = [dict(zip(columns, row)) for row in cells]
    assert cli._json_report(meta, columns, rows) == \
        _reference(meta, columns, rows)


@pytest.mark.parametrize("columns, rows", [
    (["z", "f"], []),  # no rows: "rows": []
    ([], [{}, {}]),  # rows without columns: {}
    (['a"b', "c\\d", "50%", "%s", "\x01", "ü"], [
        {'a"b': 1.0, "c\\d": -0.0, "50%": "%d", "%s": None, "\x01": True,
         "ü": math.nan}]),
    (["x", "x"], [{"x": math.inf}, {"x": -math.inf}]),  # a repeated column
])
def test_emitter_edge_cases(columns, rows):
    meta = {"tool": "jacspec", "nested": {"b": [1, 2.5, None], "a": "é"}}
    assert cli._json_report(meta, columns, rows) == \
        _reference(meta, columns, rows)


# sha256 of one JSON report per command, taken before the row-template
# emitter replaced json.dumps (the verify report's again when its trace row
# came to reconcile with the leading block's trace, the spectrum report's
# again when one D_N-sized rung replaced the ladder's last two rungs as its
# brackets' source, the verify report's again when its identity checks moved
# from mpmath to decimal arithmetic, the spectrum and q = 0.9999 charfn
# reports' again when every kappa tail came to sum the held entries and add
# the certificate's remainder: the spectrum report's tail bounds moved by
# 3e-8 relative at most, and an uncertified charfn point sums the whole
# table again, where the a-priori tails had stopped the ladder at its first
# rung); the charfn grids reach z = 0, inf and null cells (a closed form
# beyond the float range)
_JSON_REPORTS = {
    ("spectrum", "--q=0.5", "--a=0.5", "--shift=0.5", "--k=8"):
        "13eec2654aec65eb4a46fea4063e8859e8af249689c975a1dbb5ce0ef08d34d2",
    ("verify", "--q=0.5", "--a=0.5", "--shift=0.5", "--precision=30"):
        "bdeed20a6715ea7078b736435e5278a892c6ec179af71ee69bb909cad15f0891",
    ("identities",):
        "9bb443f60c75cc5fc178d7864f708d43bf9a0a1838e7ab76fa87eb4101e1b42f",
    ("charfn", "--q=0.9999", "--a=0.9999", "--shift=0", "--grid=-1:2000:3"):
        "ef8c2e2950d883eb0b7c0fe7ce63ce38d9704add7a9c86f2beff2db384b8ed25",
    ("charfn", "--q=0.9999", "--a=0.9999", "--shift=0", "--grid=-2000:2000:3"):
        "70746d0cd45c6a5b79616ad7f4011799379824986bbbb438c55db22fd268248d",
}


@pytest.mark.parametrize("argv", sorted(_JSON_REPORTS))
def test_json_reports_are_pinned(argv, capsys):
    assert cli.main([*argv, "--format=json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _JSON_REPORTS[argv]
    if argv[0] == "charfn":
        rows = json.loads(out)["rows"]
        assert any(r["closed_form"] is None for r in rows)
        assert any(r["z"] == 0.0 for r in rows) == ("--grid=-2000:2000:3" in argv)
