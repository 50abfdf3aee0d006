"""The public surface: the README example runs as printed, and __all__ holds
exactly the names the package documents."""

import contextlib
import io
import pathlib
import re

import pytest

import jacspec as js

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "ASC2Source", "AssumptionViolation", "CharFnEvaluator", "CharFnValue",
    "CheckResult", "CoefficientSource", "ConvergenceError", "QParams",
    "SecondKindTable", "SpectrumResult", "TableSource", "TraceInverse",
    "TruncatedTridiagonal", "charfn_ratio", "find_spectrum", "kappa_sequence",
    "phi1_closed_form_check", "qbinomial_check", "qgauss_check", "qpoch_inf",
    "run_suite", "second_kind_values", "spectrum_product_reference",
    "sturm_counts", "sturm_eigenvalues", "trace_inverse",
    "w_factorization_check",
]

REMOVED_NAMES = ["ScaledPolyPair", "eval_phat", "eval_q", "GreenBlock",
                 "oracle_compare", "charfn_partial_sum", "qpochhammer_reference",
                 "eval_q_assoc", "q_assoc_forward", "green_block",
                 "jacobi_block", "resolvent_identity_check",
                 "recurrence_residuals", "weyl", "hadamard_product", "asc2_v",
                 "asc2_orthonormal", "asc2_series_vs_product",
                 "orthonormal_at_family_point", "weyl_at_family_point",
                 "second_kind_at_family_point", "qpoch", "KappaSequence"]


def test_readme_quick_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Quick example:\s*```python\n(.*?)```", text, re.S)
    assert block is not None, "README has no Quick example block"
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block.group(1), "README.md", "exec"), namespace)
    res, v = namespace["res"], namespace["v"]
    tol = 1e-9
    for n, lam in enumerate(res.eigenvalues):
        assert abs(lam - (2.0 ** n - 0.5)) <= tol
    assert res.methods == ["charfn-bisection"] * 6
    assert v.certified
    assert v.value == pytest.approx(2.0, abs=1e-12)


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 27
    assert sorted(js.__all__) == sorted(PUBLIC_NAMES)
    for name in js.__all__:
        assert getattr(js, name) is not None
    for name in REMOVED_NAMES:
        assert not hasattr(js, name), name


def test_readme_maps_every_removed_name():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"### Removed from the public API\n(.*?)\n#", text, re.S)
    assert section is not None, "README has no removed-names section"
    # every name quoted in the first cell of a table row
    removed = set()
    for cell in re.findall(r"^\| (.*?) \| .* \|$", section.group(1), re.M):
        removed.update(re.findall(r"`(\w+)[`(.]", cell))
    assert sorted(set(REMOVED_NAMES) - removed) == []
