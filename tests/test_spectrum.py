import dataclasses
import itertools
import math
import random
import warnings

import numpy as np
import pytest

import jacspec as js
from conftest import EIG2X2, WindowOnly, random_pd_table


def test_sturm_two_by_two_closed_form(asc2_plain):
    t = js.TruncatedTridiagonal.from_source(asc2_plain, 2)
    eigs = js.sturm_eigenvalues(t, 2, 1e-12)
    assert eigs[0] == pytest.approx(EIG2X2[0], abs=1e-12)
    assert eigs[1] == pytest.approx(EIG2X2[1], abs=1e-12)


def test_sturm_one_by_one(asc2_plain):
    t = js.TruncatedTridiagonal.from_source(asc2_plain, 1)
    eigs = js.sturm_eigenvalues(t, 1, 1e-12)
    assert eigs[0] == pytest.approx(asc2_plain.beta(0), abs=1e-12)


def test_sturm_k_zero(asc2_plain):
    t = js.TruncatedTridiagonal.from_source(asc2_plain, 4)
    assert js.sturm_eigenvalues(t, 0).size == 0


def test_sturm_against_scipy():
    from scipy.linalg import eigh_tridiagonal

    rng = np.random.RandomState(17)
    src = random_pd_table(rng, 50)
    t = js.TruncatedTridiagonal.from_source(src, 50)
    ours = js.sturm_eigenvalues(t, 12, 1e-12)
    ref = eigh_tridiagonal(t.diag, t.offdiag, eigvals_only=True)[:12]
    assert np.allclose(ours, ref, rtol=1e-10, atol=1e-11)


def test_sturm_against_scipy_asc2(asc2_shifted):
    from scipy.linalg import eigh_tridiagonal

    t = js.TruncatedTridiagonal.from_source(asc2_shifted, 60)
    ours = js.sturm_eigenvalues(t, 6, 1e-12)
    ref = eigh_tridiagonal(t.diag, t.offdiag, eigvals_only=True)[:6]
    assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)


def test_sturm_count_against_dense_minors():
    # brute-force oracle: leading-principal-minor sign count of T - xI via
    # dense determinants
    rng = np.random.RandomState(29)
    for trial in range(8):
        n = rng.randint(2, 9)
        src = random_pd_table(rng, n + 1)
        t = js.TruncatedTridiagonal.from_source(src, n)
        dense = np.diag(t.diag) + np.diag(t.offdiag, 1) + np.diag(t.offdiag, -1)
        for x in rng.uniform(-1.0, 6.0, size=5):
            minors = [np.linalg.det((dense - x * np.eye(n))[: k + 1, : k + 1])
                      for k in range(n)]
            crossings = 0
            prev = 1.0
            for d in minors:
                if d * prev < 0 or d == 0:
                    crossings += 1
                    prev = -prev if d == 0 else math.copysign(1.0, d)
                else:
                    prev = math.copysign(1.0, d) if d != 0 else prev
            got = int(js.sturm_counts(t, [x])[0])
            ref = int(np.sum(np.linalg.eigvalsh(dense) < x))
            assert got == ref
            assert crossings == ref


def test_root_monotonicity_in_truncation_size(asc2_plain):
    # x_{N,j} strictly decreases with N while resolvable in float64
    for j in (1, 2, 3):
        prev = None
        for n in range(j, j + 31):
            t = js.TruncatedTridiagonal.from_source(asc2_plain, n)
            x = js.sturm_eigenvalues(t, j, 1e-13)[j - 1]
            if prev is not None:
                floor = 8 * np.spacing(abs(prev))
                if prev - x > floor:
                    assert x < prev
                else:
                    assert x <= prev + floor
            prev = x


def test_find_spectrum_asc2_shifted(asc2_shifted):
    res = js.find_spectrum(asc2_shifted, 6, 1e-9)
    expected = [0.5, 1.5, 3.5, 7.5, 15.5, 31.5]
    assert res.ok
    for lam, ref in zip(res.eigenvalues, expected):
        assert lam == pytest.approx(ref, abs=1e-9)
    assert all(m == "charfn-bisection" for m in res.methods)
    # strict ordering and positivity
    assert all(a < b for a, b in zip(res.eigenvalues, res.eigenvalues[1:]))
    assert res.eigenvalues[0] > 0


def test_find_spectrum_q03_unshifted():
    src = js.ASC2Source(q=0.3, a=0.3, shift=0.0)
    res = js.find_spectrum(src, 4, 1e-9)
    expected = [1.0, 10.0 / 3.0, 100.0 / 9.0, 1000.0 / 27.0]
    for lam, ref in zip(res.eigenvalues, expected):
        assert lam == pytest.approx(ref, abs=1e-9)


def test_find_spectrum_brackets_and_residuals(asc2_shifted):
    res = js.find_spectrum(asc2_shifted, 4, 1e-9)
    for j in range(4):
        lo, hi = res.brackets[j]
        assert lo < res.eigenvalues[j] < hi
        assert res.residuals[j] <= 1e-4  # |F| at distance <= tol of a zero
        assert res.tail_bounds[j] < res.residuals[j] or res.residuals[j] == 0.0


def test_residual_scales_with_local_slope(asc2_shifted):
    # |F(lambda_found)| must stay within the local slope times the bisection
    # width; the slope over the found eigenvalues overestimates |F'| since the
    # omitted upper factors all lie in (0, 1)
    res = js.find_spectrum(asc2_shifted, 5, 1e-9)
    lams = res.eigenvalues
    for j in range(5):
        slope = (1.0 / lams[j]) * np.prod(
            [abs(1.0 - lams[j] / lams[i]) for i in range(5) if i != j])
        assert res.residuals[j] <= 10.0 * slope * 1e-9 + res.tail_bounds[j]


def test_find_spectrum_k_zero(asc2_shifted):
    res = js.find_spectrum(asc2_shifted, 0)
    assert res.eigenvalues == [] and res.ok


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
def test_find_spectrum_tol_must_be_finite_and_positive(asc2_shifted, tol):
    # nan used to raise "need 0 <= k <= N", inf "-inf + inf in fsum"; 0 and
    # -1e-9 returned every index as oracle-ladder
    with pytest.raises(ValueError, match="^tol must be finite and positive"):
        js.find_spectrum(asc2_shifted, 3, tol)


def test_find_spectrum_rejects_indeterminate():
    src = js.ASC2Source(q=0.5, a=0.7, shift=0.5)
    with pytest.raises(js.AssumptionViolation):
        js.find_spectrum(src, 2)


def test_find_spectrum_rejects_bad_shift():
    src = js.ASC2Source(q=0.5, a=0.5, shift=1.5)
    with pytest.raises(js.AssumptionViolation):
        js.find_spectrum(src, 2)


def test_find_spectrum_rejects_tables():
    src = js.TableSource(alphas=[1.0] * 9, betas=[3.0] * 10)
    with pytest.raises(ValueError):
        js.find_spectrum(src, 2)


class _NegativeCorner(js.CoefficientSource):
    """alpha_n = 1, beta = (-5, 4, 4, ...): e_0 has Rayleigh quotient -5."""

    def alpha(self, n):
        return 1.0

    def beta(self, n):
        return -5.0 if n == 0 else 4.0


def test_find_spectrum_rejects_a_block_with_negative_eigenvalues():
    with pytest.raises(js.AssumptionViolation,
                       match="truncated block has eigenvalues below zero"):
        js.find_spectrum(_NegativeCorner(), 2)


class _NegativeDeepRow(js.CoefficientSource):
    """alpha_n = 1, beta_n = 4 1.5^n but beta_30 = -5: the gate's 24-row
    block is positive definite, any block past row 30 is not.  Its tail
    certificate is that of the rows without beta_30 (mu_j <= 1/24, so the
    pivots stay above 0.9 beta_n and the term ratios below 0.1), which the
    source does not honour."""

    def alpha(self, n):
        return 1.0

    def beta(self, n):
        return -5.0 if n == 30 else 4.0 * 1.5 ** n

    def tail_certificate(self, start):
        # sum_{n >= start} 1/(0.9 * 0.9 * 4 1.5^n)
        return 0.1, 0.9, 1.5 ** -start / 1.08 * (1.0 + 1e-9)


def test_a_negative_root_past_the_gate_block_raises():
    # a root below zero by more than the oracle's resolution is no rounding
    # of a positive one: the one rung, sized past row 30 by a certificate
    # the source breaks, reads -5.000003, which was published as it stood,
    # and then as 5e-324 by the clamp to zero
    want = (r"^the smallest oracle root -5\.00000\d* is below zero; the "
            "source is not a positive-definite configuration$")
    with pytest.raises(js.AssumptionViolation, match=want):
        js.find_spectrum(_NegativeDeepRow(), 2, confirm="oracle")


@pytest.mark.parametrize("q", [1e-7, 1e-8, 1e-10, 1e-14, 1e-20])
@pytest.mark.parametrize("a_over_q", [1.0, 0.01])
def test_tiny_q_passes_the_gate(q, a_over_q):
    # the full 24-row gate block leaves the float range below q ~ 1e-7.5;
    # at q = 1e-7 its pivot floor of about 5 clamped the leading pivot 1 + q
    # negative, and the gate reported eigenvalues below zero
    from jacspec.spectrum import _gate_block
    src = js.ASC2Source(q, q * a_over_q, 0.0)
    assert 1 <= _gate_block(src).size < 24
    res = js.find_spectrum(src, 2, 1e-9)
    for n, lam in enumerate(res.eigenvalues):
        assert abs(lam - q ** -n) <= max(1e-9, 8.0 * math.ulp(q ** -n))


@pytest.mark.parametrize("params", [(0.5, 0.5, 0.5), (0.3, 0.3, 0.0),
                                    (0.6, 0.3, 0.5), (0.9, 0.9, 0.0),
                                    (0.7, 0.7, 0.0), (1e-5, 1e-5, 0.0)])
def test_gate_block_is_the_full_block_where_that_is_usable(params):
    from jacspec.spectrum import _gate_block
    src = js.ASC2Source(*params)
    got, want = _gate_block(src), js.TruncatedTridiagonal.from_source(src, 24)
    assert np.array_equal(got.diag, want.diag)
    assert np.array_equal(got.offdiag, want.offdiag)


def test_no_sign_change_between_eigenvalues(asc2_shifted):
    # zeros are simple and exhausted by the spectrum: F keeps one certified
    # sign strictly between consecutive eigenvalues
    res = js.find_spectrum(asc2_shifted, 3, 1e-9)
    ev = js.CharFnEvaluator(asc2_shifted)
    for j in range(2):
        a = res.eigenvalues[j] + 1e-6
        b = res.eigenvalues[j + 1] - 1e-6
        signs = set()
        for x in np.linspace(a, b, 32):
            s, _ = ev.certified_sign(float(x), 1e-10)
            assert s != 0
            signs.add(s)
        assert len(signs) == 1


def test_sign_alternates_across_eigenvalues(asc2_shifted):
    ev = js.CharFnEvaluator(asc2_shifted)
    probes = [0.2, 1.0, 2.5, 5.0]  # interleaving lambda_1..lambda_3
    signs = [ev.certified_sign(x, 1e-10)[0] for x in probes]
    assert signs == [1, -1, 1, -1]


def oracle_gaps(src, k, n_trunc, tol, confirm="auto"):
    """|lambda_j(found) - x_{N,j}| for j <= k at truncation size n_trunc."""
    res = js.find_spectrum(src, k, tol, confirm=confirm)
    t = js.TruncatedTridiagonal.from_source(src, n_trunc)
    x = js.sturm_eigenvalues(t, k, max(tol * 1e-3, 1e-15))
    return np.abs(np.array(res.eigenvalues) - x)


def test_oracle_compare_converged(asc2_shifted):
    gaps = oracle_gaps(asc2_shifted, 4, 200, tol=1e-10)
    assert np.all(gaps <= 1e-8)


def test_oracle_compare_monotone_in_truncation(asc2_plain):
    g100 = oracle_gaps(asc2_plain, 3, 100, tol=1e-10, confirm="oracle")
    g200 = oracle_gaps(asc2_plain, 3, 200, tol=1e-10, confirm="oracle")
    # x_{N,j} decreases toward lambda_j, so deeper truncations cannot be worse
    assert np.all(g200 <= g100 + 1e-12)


def test_oracle_compare_single_truncation(asc2_plain):
    res = js.find_spectrum(asc2_plain, 1, 1e-10)
    t1 = js.TruncatedTridiagonal.from_source(asc2_plain, 1)
    x1 = js.sturm_eigenvalues(t1, 1, 1e-12)[0]
    gap = abs(res.eigenvalues[0] - x1)
    assert gap == pytest.approx(abs(res.eigenvalues[0] - asc2_plain.beta(0)),
                                abs=1e-10)
    assert gap > 0.1  # 1x1 truncation is far from the true eigenvalue


def test_coarse_tolerance_triggers_oracle_refinement(asc2_shifted):
    # with tol = 0.5 the level spacings fall below 10*tol, which must tighten
    # the oracle rather than fail; located values stay within the coarse tol
    res = js.find_spectrum(asc2_shifted, 4, 0.5)
    assert res.ok
    expected = [0.5, 1.5, 3.5, 7.5]
    for lam, ref in zip(res.eigenvalues, expected):
        assert abs(lam - ref) <= 0.5
    # the brackets still separate the near-spaced pair
    assert res.brackets[0][1] <= res.brackets[1][0] + 1e-12


def test_confirm_oracle_mode(asc2_shifted):
    res = js.find_spectrum(asc2_shifted, 5, 1e-9, confirm="oracle")
    assert all(m == "oracle-ladder" for m in res.methods)
    assert all(math.isnan(r) for r in res.residuals)
    expected = [0.5, 1.5, 3.5, 7.5, 15.5]
    for lam, ref in zip(res.eigenvalues, expected):
        assert lam == pytest.approx(ref, abs=1e-9)


def test_confirm_auto_falls_back_beyond_budget(asc2_shifted):
    # 300 terms certified all 12 once the tail bound used the majorant
    # F(-|z|) instead of exp(|z| S); 100 still leave most of them out
    res = js.find_spectrum(asc2_shifted, 12, 1e-9, max_terms=100)
    assert res.ok
    assert "oracle-ladder" in res.methods
    expected = [2.0 ** j - 0.5 for j in range(12)]
    for lam, ref in zip(res.eigenvalues, expected):
        assert lam == pytest.approx(ref, abs=1e-9, rel=1e-9)


def test_confirm_require_reports_unresolved(asc2_shifted):
    res = js.find_spectrum(asc2_shifted, 12, 1e-9, max_terms=100,
                           confirm="require")
    assert not res.ok
    assert res.unresolved  # indices beyond the certification budget


# Inside the certified regime near q = 0.8 the term plan fits the budget, but
# at some indices F's sign stays below the float64 summation noise floor, at
# an end of the widened bracket or at a bisection midpoint.  The indices F
# certifies at k = 8, tol = 1e-9:
_NOISE_FLOOR = {
    (0.8432, 0.5243, -0.7103): [],
    (0.8407, 0.0832, -0.1241): [1],
    (0.7956, 0.5928, -0.5579): [1, 2, 7, 8],
}


@pytest.mark.parametrize("params", sorted(_NOISE_FLOOR))
def test_confirm_auto_falls_back_at_the_noise_floor(params):
    q, a, shift = params
    res = js.find_spectrum(js.ASC2Source(q, a, shift), 8, 1e-9)
    assert res.ok
    certified = _NOISE_FLOOR[params]
    assert res.methods == ["charfn-bisection" if j in certified
                           else "oracle-ladder" for j in range(1, 9)]
    for n, lam in enumerate(res.eigenvalues):
        ref = q ** -n - shift
        assert abs(lam - ref) <= 1e-9 + 1e-12 * abs(ref)
    for j, method in enumerate(res.methods):
        if method == "oracle-ladder":  # the oracle value, no F behind it
            assert res.eigenvalues[j] == res.oracle_values[j]
            assert math.isnan(res.residuals[j])
            # the width of its D_N enclosure, at most the rung's 0.25 tol
            assert 0.0 <= res.oracle_gaps[j] <= 0.25e-9


@pytest.mark.parametrize("params", sorted(_NOISE_FLOOR))
def test_confirm_require_leaves_noise_floor_indices_unresolved(params):
    res = js.find_spectrum(js.ASC2Source(*params), 8, 1e-9, confirm="require")
    certified = _NOISE_FLOOR[params]
    assert res.unresolved == [j for j in range(1, 9) if j not in certified]
    assert res.methods == ["charfn-bisection" if j in certified
                           else "unresolved" for j in range(1, 9)]


@pytest.fixture
def same_sign_everywhere(monkeypatch):
    """F certifies +1 at every point, which no bracket of a zero allows."""
    monkeypatch.setattr(js.CharFnEvaluator, "certified_sign",
                        lambda self, x, atol: (1, None))


@pytest.mark.parametrize("confirm, methods", [
    ("auto", ["unresolved"] * 2), ("require", ["unresolved"] * 2),
    ("oracle", ["oracle-ladder"] * 2)])
def test_same_sign_at_both_ends_is_unresolved(same_sign_everywhere, confirm,
                                              methods):
    # a certified sign that contradicts the oracle is no noise-floor case:
    # auto does not fall back on it
    res = js.find_spectrum(js.ASC2Source(0.5, 0.5, 0.5), 2, 1e-9,
                           confirm=confirm)
    assert res.methods == methods
    assert res.unresolved == ([] if confirm == "oracle" else [1, 2])
    assert res.eigenvalues == res.oracle_values


@pytest.mark.parametrize("confirm, outcome, method", [
    ("auto", "certified", "charfn-bisection"),
    ("auto", "no-sign", "oracle-ladder"),
    ("auto", "same-sign", "unresolved"),
    ("require", "certified", "charfn-bisection"),
    ("require", "no-sign", "unresolved"),
    ("require", "same-sign", "unresolved"),
    ("oracle", "no-sign", "oracle-ladder"),
    ("auto", "noise-floor", "oracle-ladder"),
    ("require", "noise-floor", "unresolved"),
    ("auto", "oracle-disagreement", "unresolved"),
    ("require", "oracle-disagreement", "unresolved"),
])
def test_provenance_of_each_policy_and_outcome(confirm, outcome, method):
    from jacspec.spectrum import _provenance
    assert _provenance(confirm, outcome) == method


def _slope_at(q, shift, j):
    """|F'(lambda_j)| of the shifted ASC-II matrix, in mpmath at 30 digits:
    F'(lambda_j) = -(1/lambda_j) prod_{n != j} (1 - lambda_j/lambda_n) over
    its eigenvalues lambda_n = q^-n - shift, up to q^n < 1e-40."""
    import mpmath
    ctx = mpmath.mp.clone()
    ctx.dps = 30
    q, shift = ctx.mpf(q), ctx.mpf(shift)
    lam = q ** -j - shift
    slope, n = 1 / lam, 0
    while q ** n >= ctx.mpf("1e-40"):
        if n != j:
            slope *= 1 - lam / (q ** -n - shift)
        n += 1
    return float(abs(slope))


# every eval of an index's bisection within 16 tol of its root reports a
# noise estimate of at least eps sqrt(N0) (1 + x0 kappa_0); the index is
# skipped where twice |F| there, 32 tol |F'|, stays below it.  That margin
# is 4.7, 1.8 and 1.1 at index 1 of (0.9, 0.9, -0.05 / 0 / 0.05), at least
# 11 at indices 2-6, and 0.019 at (0.85, 0.85, 0), whose index 1 certifies;
# the closed-form bound of that floor leaves 2.7, 1.5 and 0.87 at index 1,
# at least 6.9 at indices 2-6 and 0.012 at (0.85, 0.85, 0)
@pytest.mark.parametrize("params, skipped", [
    ((0.9, 0.9, -0.05), 6), ((0.9, 0.9, 0.0), 6), ((0.9, 0.9, 0.05), 6),
    ((0.85, 0.85, 0.0), 0)])
def test_the_noise_floor_skips_only_doomed_bisections(monkeypatch, params,
                                                      skipped):
    from jacspec import spectrum
    doomed, bisect_zero = spectrum._doomed, spectrum._bisect_zero
    tested, bisected = [], []

    def recorded_doomed(evaluator, diag, x0, z_hi, slope, tol, atol):
        tested.append((slope, doomed(evaluator, diag, x0, z_hi, slope, tol,
                                     atol)))
        return tested[-1][1]

    def recorded_bisect(*args):
        bisected.append(args[1])
        return bisect_zero(*args)

    monkeypatch.setattr(spectrum, "_doomed", recorded_doomed)
    monkeypatch.setattr(spectrum, "_bisect_zero", recorded_bisect)
    q, a, shift = params
    res = js.find_spectrum(js.ASC2Source(q, a, shift), 6, 1e-9)
    assert [outcome for _, outcome in tested] == \
        ["noise-floor"] * skipped + [None] * (6 - skipped)
    assert len(bisected) == 6 - skipped
    assert res.methods == ["oracle-ladder"] * 6 if skipped else \
        ["charfn-bisection"] + ["oracle-ladder"] * 5
    # the skip rests on the slope estimate bounding |F'(lambda_j)|
    for j, (slope, outcome) in enumerate(tested):
        if outcome == "noise-floor":
            assert slope >= _slope_at(q, shift, j)
    if skipped:
        res = js.find_spectrum(js.ASC2Source(q, a, shift), 6, 1e-9,
                               confirm="require")
        assert res.unresolved == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("shift, planned", [(0.0, []), (0.05, [1])])
def test_the_closed_form_noise_floor_needs_no_kappa_table(monkeypatch, shift,
                                                          planned):
    # at (0.9, 0.9, 0) the closed-form floor decides every index: no plan
    # runs and no kappa entry is built.  At shift 0.05 index 1's closed-form
    # margin is 0.87, so it falls back to the plans, whose floor skips it
    from jacspec import charfn, second_kind, spectrum
    doomed, plan_terms, kappa_sequence = (
        spectrum._doomed, charfn.CharFnEvaluator.plan_terms,
        second_kind.kappa_sequence)
    calls, plans, builds = [], [], []  # len(calls) is the index deciding

    def recorded_doomed(*args):
        calls.append(args)
        return doomed(*args)

    def recorded_plan(self, z_abs, atol):
        plans.append(len(calls))
        return plan_terms(self, z_abs, atol)

    def recorded_build(*args, **kwargs):
        builds.append(len(calls))
        return kappa_sequence(*args, **kwargs)

    monkeypatch.setattr(spectrum, "_doomed", recorded_doomed)
    monkeypatch.setattr(charfn.CharFnEvaluator, "plan_terms", recorded_plan)
    monkeypatch.setattr(second_kind, "kappa_sequence", recorded_build)
    res = js.find_spectrum(js.ASC2Source(0.9, 0.9, shift), 6, 1e-9)
    assert res.methods == ["oracle-ladder"] * 6
    assert sorted(set(plans)) == planned and sorted(set(builds)) == planned
    assert len(plans) == 2 * len(planned)  # at |hi| and at x0


class _NoPlans:
    """An evaluator whose plans _doomed must not ask for."""

    def plan_terms(self, z_abs, atol):
        raise LookupError("the closed-form bound did not decide")


def test_the_closed_form_noise_floor_implies_the_plan_based_one():
    # wherever _doomed skips an index from its closed-form bound alone, the
    # plan at |hi| is out of budget (outcome no-sign) or the plan-based
    # floor, eps sqrt(N0) (1 + x0 kappa_0), skips it too.  100 draws over
    # the certified regime near q -> 1 decide 464 indices; the closed form
    # skips 103 of them on the diagonal of the one D_N-sized rung (98 on the
    # doubling ladder's last rung)
    from jacspec import spectrum
    from jacspec.charfn import _NOISE_EPS
    doomed = spectrum._doomed
    decided, fired = [], []

    def checked(evaluator, diag, x0, z_hi, slope, tol, atol):
        decided.append(evaluator.src)
        outcome = doomed(evaluator, diag, x0, z_hi, slope, tol, atol)
        try:
            doomed(_NoPlans(), diag, x0, z_hi, slope, tol, atol)
        except LookupError:  # the plans decided
            return outcome
        fired.append(evaluator.src)
        if evaluator.plan_terms(z_hi, atol)[0] is not None:
            x0 = max(x0, 0.0)
            n0 = evaluator.plan_terms(x0, atol)[0]
            kappa_0 = evaluator._table.kappas[0]
            assert 32.0 * tol * slope < \
                _NOISE_EPS * math.sqrt(n0) * (1.0 + x0 * kappa_0)
        return outcome

    rng = random.Random(5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "_doomed", checked)
        for _ in range(100):
            q = rng.uniform(0.5, 0.97)
            a, shift = q * rng.uniform(0.02, 1.0), rng.uniform(-1.0, 0.99)
            k, tol = rng.randint(1, 8), rng.choice([1e-9, 1e-11])
            js.find_spectrum(js.ASC2Source(q, a, shift), k, tol)
    assert (len(decided), len(fired)) == (464, 103)


@pytest.mark.parametrize("params", [
    (0.5, 0.5, 0.5), (0.9, 0.9, 0.0), (0.3, 0.3, 0.0), (0.95, 0.5, 0.99),
    (0.855, 0.28, 0.8664), (0.97, 0.03, -0.9)])
def test_every_kappa_entry_is_at_least_the_reciprocal_diagonal(params):
    # kappa_n = (J^{-1})_nn >= 1/J_nn by Cauchy-Schwarz, J positive definite:
    # the bound the closed-form noise floor rests on, padded as it pads
    q, a, shift = params
    src = js.ASC2Source(q, a, shift)
    for n, kappa in enumerate(js.kappa_sequence(src, 200)):
        assert kappa >= (1.0 - 1e-12) / (src.beta(n) - shift)


def _exact_defect(q, a, shift, n, dps=60):
    """D_n = tr J^-1 - tr J_n^-1 of ASC-II in mpmath at dps digits: the
    trace is the sum of 1/(q^-j - shift) over the spectrum, to below
    10^-(dps + 5); tr J_n^-1 is sum 1/(d_j + e_j - b_j) from the pivots d
    from the top and e from the bottom of the exact n x n block (Meurant
    1992), so no two float traces are subtracted."""
    import mpmath
    ctx = mpmath.mp.clone()
    ctx.dps = dps
    q, a, shift = ctx.mpf(q), ctx.mpf(a), ctx.mpf(shift)
    alphas = [ctx.sqrt(a * q ** (-2 * j - 1) * (1 - q ** (j + 1)))
              for j in range(n - 1)]
    betas = [(a + 1) * q ** -j - shift for j in range(n)]
    trace, j = ctx.mpf(0), 0
    while True:
        term = 1 / (q ** -j - shift)
        trace += term
        if term < ctx.mpf(10) ** -(dps + 5):
            break
        j += 1
    tops = [betas[0]]
    for x, b in zip(alphas, betas[1:]):
        tops.append(b - x * x / tops[-1])
    block, bottom = 1 / tops[-1], betas[-1]
    for j in range(n - 2, -1, -1):
        drop = alphas[j] ** 2 / bottom
        block += 1 / (tops[j] - drop)
        bottom = betas[j] - drop
    return trace - block


@pytest.mark.parametrize("params, n", [
    ((0.9, 0.9, 0.0), 320), ((0.95, 0.95, 0.0), 400),
    ((0.855, 0.28, 0.8664), 64), ((0.97, 0.5, -1.5), 300),
    ((0.5, 0.5, 0.5), 64), ((0.3, 0.3, 0.0), 40), ((0.7, 0.7, 0.0), 100),
    ((0.6, 0.3, 0.5), 50), ((0.995, 0.995, 0.0), 1500),
    ((0.9, 0.9, 0.999), 329)])
def test_the_trace_defect_bound_is_never_below_the_exact_defect(params, n):
    # the bound _sized_rung compares with its target: the certificate's
    # tail(n) plus the head _defect_heads sums forward over the float
    # block's own pivots, padded for their rounding.  It reads 3e-9 (q =
    # 0.3) to 0.62 ((0.855, 0.28, 0.8664)) relative above the exact value,
    # and 4.4 at q = 0.995, whose r = 0.995 loosens tail(n) and kappa_n's
    # bound; the certificate's 1e-9 pad alone is below the closest margins.
    # (0.9, 0.9, 0.999) has no certificate of its own: the bound is that of
    # the matrix at shift 0, at the size of its k = 12 rung, 2e-7 above
    from jacspec import spectrum
    from jacspec.sources import _certified_base
    src = js.ASC2Source(*params)
    base, _ = _certified_base(src)
    head = next(h for m, h, *_ in spectrum._defect_heads(src, base, 1e-15)
                if m == n)
    bound = base.tail_certificate(n)[2] + head
    exact = _exact_defect(params[0], params[1], base.shift, n)
    assert 0 < exact <= bound
    assert bound <= 6.0 * exact  # and not vacuous


@pytest.mark.parametrize("params, k, tol", [
    ((0.9, 0.9, 0.0), 20, 1e-10), ((0.5, 0.5, 0.5), 40, 1e-10),
    ((0.3, 0.3, 0.0), 40, 1e-10), ((0.97, 0.5, -1.5), 6, 1e-9),
    ((1e-6, 1e-6, 0.0), 8, 1e-9)])
def test_the_one_rung_encloses_every_eigenvalue(monkeypatch, params, k, tol):
    # lambda_j lies in [x/(1 + x D), x] up to the root's bisection error;
    # oracle_gaps reports that width, which the target keeps below 0.25 tol
    # or 8 ulp.  No kappa table is built under confirm="oracle"
    from jacspec import second_kind

    def no_build(*args):
        raise AssertionError("a kappa table was built")

    monkeypatch.setattr(second_kind, "_kappa_entries", no_build)
    q, a, shift = params
    res = js.find_spectrum(js.ASC2Source(*params), k, tol, confirm="oracle")
    assert len(res.ladder) == 1
    otol = max(1e-3 * tol, 1e-15)
    for n, (x, width) in enumerate(zip(res.oracle_values, res.oracle_gaps)):
        ref = q ** -n - shift
        slack = otol + 8.0 * math.ulp(ref)
        assert x - width - slack <= ref <= x + slack
        assert 0.0 <= width <= max(0.25 * tol, 8.0 * math.ulp(x))
        assert res.eigenvalues[n] == x


# the six probe configurations with no tail certificate of their own, and
# four nearer shift 1: each is bounded by the certificate at shift 0
_SHIFT0_CERTIFIED = [
    (0.2898, 0.184, 0.848), (0.5905, 0.2414, 0.9037), (0.72, 0.2176, 0.9113),
    (0.405, 0.359, 0.8676), (0.4139, 0.238, 0.8585), (0.2044, 0.1741, 0.9366),
    (0.8, 0.8, 0.9), (0.88, 0.88, 0.99), (0.9, 0.9, 0.999), (0.95, 0.5, 0.99)]


@pytest.mark.parametrize("params", _SHIFT0_CERTIFIED)
def test_the_shifted_enclosure_holds_every_exact_eigenvalue(params):
    # lambda_j in [x'/(1 + x' D) - shift, x], x' = x + shift, D the defect
    # bound of the matrix at shift 0; oracle_gaps reports its width.  Every
    # exact q^-j - shift, in mpmath at 30 digits, lies in it padded by otol
    # and 8 ulp of q^-j, the rounding of x' and of the lower end
    import mpmath
    from jacspec.sources import _certified_base
    src = js.ASC2Source(*params)
    assert src.tail_certificate(0) is None
    assert _certified_base(src)[0].shift == 0.0
    res = js.find_spectrum(src, 12, 1e-9, confirm="oracle")
    assert len(res.ladder) == 1
    ctx = mpmath.mp.clone()
    ctx.dps = 30
    q, shift = ctx.mpf(params[0]), ctx.mpf(params[2])
    for n, (x, width) in enumerate(zip(res.oracle_values, res.oracle_gaps)):
        exact = q ** -n - shift
        slack = 1e-12 + 8.0 * math.ulp(float(q ** -n))
        assert ctx.mpf(x) - ctx.mpf(width) - slack <= exact <= ctx.mpf(x) + slack
        assert 0.0 <= width <= max(0.25e-9, 8.0 * math.ulp(x))


class _GeometricNoCertificate(js.CoefficientSource):
    """alpha_n = 1, beta_n = 4 2^n, and no tail certificate."""

    def alpha(self, n):
        return 1.0

    def beta(self, n):
        return 4.0 * 2.0 ** n


@pytest.mark.parametrize("src, name", [
    (_GeometricNoCertificate(), "_GeometricNoCertificate has no tail "
                                "certificate"),
    (WindowOnly(0.5, 0.5, 0.5), "WindowOnly has no tail certificate at "
                                "shift 0.5 or at shift 0")])
def test_a_source_with_no_certificate_raises_before_the_rung(monkeypatch, src,
                                                             name):
    # no truncation size is known to bound the roots: the cap's error, read
    # no row past the configuration gate's 24
    from jacspec import spectrum
    rows = []
    beta = type(src).beta
    monkeypatch.setattr(type(src), "beta", lambda self, n: rows.append(n)
                        or beta(self, n))
    with pytest.raises(spectrum._LadderCapError,
                       match=f"^{name}, so no truncation size bounds the 2 "
                             "smallest roots$"):
        js.find_spectrum(src, 2, 1e-9, confirm="oracle")
    assert max(rows) < 24


def test_asc2_with_no_certificate_at_either_shift_exits_4(capsys):
    # a = 0.99995 leaves no certificate at shift 0 either: the doubling
    # ladder ran to 12,288 rows, past its 8,192-row cap, before it exited 4
    from jacspec.cli import main
    assert js.ASC2Source(0.99995, 0.99995).tail_certificate(0) is None
    assert main(["spectrum", "--q", "0.99995", "--a", "0.99995", "--k",
                 "3"]) == 4
    assert capsys.readouterr().err == (
        "uncertified: ASC2Source has no tail certificate, so no truncation "
        "size bounds the 3 smallest roots\n")


def test_every_published_eigenvalue_is_positive_and_inside_its_bracket():
    # lambda_1 = 1 - shift with shift = 1 - m 2^-53 lies below the oracle's
    # 1e-12 resolution, and 87 of these 240 configurations published a
    # negative first oracle value below its own bracket (0.5 gamma, ...)
    # before it was clamped to gamma.  The configuration gate refuses one
    refused = []
    for i, ratio, m in itertools.product(range(10), (0.1, 0.5, 1.0),
                                         range(1, 9)):
        q = 0.05 + 0.1 * i
        src = js.ASC2Source(q, q * ratio, 1.0 - m * 2.0 ** -53)
        try:
            res = js.find_spectrum(src, 2, 1e-9, confirm="oracle")
        except js.AssumptionViolation:
            refused.append((i, ratio, m))
            continue
        for lam, (lo, hi) in zip(res.eigenvalues, res.brackets):
            assert 0.0 < lam and lo <= lam <= hi
        assert res.eigenvalues[0] >= src.natural_gamma
    assert refused == [(1, 1.0, 1)]


def test_the_near_degenerate_rerun_solves_the_one_rung_again(monkeypatch):
    # tol = 2 puts the least level spacing of (0.5, 0.5, 0.5), 1, below tol
    # (otol 2e-3): the one rung is solved again at 1e-3 of that gap
    from jacspec import spectrum
    runs = []
    orig = spectrum.sturm_eigenvalues

    def recorded(t, k, tol, **kwargs):
        runs.append((t.size, tol))
        return orig(t, k, tol, **kwargs)

    monkeypatch.setattr(spectrum, "sturm_eigenvalues", recorded)
    res = js.find_spectrum(js.ASC2Source(0.5, 0.5, 0.5), 4, 2.0,
                           confirm="oracle")
    n = res.ladder[0]
    assert res.ladder == [n]
    assert runs == [(n, 2e-3), (n, pytest.approx(1e-3, rel=1e-3))]
    for j, lam in enumerate(res.eigenvalues):
        assert abs(lam - (2.0 ** j - 0.5)) <= 2.0


def test_a_certified_zero_far_from_its_oracle_value_is_unresolved(monkeypatch):
    # F biased by 1.2e-8 moves its zeros at 0.5 and 1.5 by 1.2e-8 and 2.4e-8;
    # bisection certifies the moved zeros, which were published as
    # charfn-bisection values that far from the oracle's.  A certified zero
    # farther than tol + max(gap, 8 otol) from its oracle value is unresolved
    orig = js.CharFnEvaluator.eval

    def biased(self, z, atol=1e-12):
        v = orig(self, z, atol)
        return dataclasses.replace(v, value=v.value + 1.2e-8)

    monkeypatch.setattr(js.CharFnEvaluator, "eval", biased)
    for confirm in ("auto", "require"):
        res = js.find_spectrum(js.ASC2Source(0.5, 0.5, 0.5), 2, 1e-9,
                               confirm=confirm)
        assert res.methods == ["unresolved"] * 2 and res.unresolved == [1, 2]
        assert res.eigenvalues == res.oracle_values


class _NoisyLine:
    """F(z) = z, whose sign is certified only farther than band from 0."""

    def __init__(self, band):
        self.band = band

    def certified_sign(self, z, atol):
        return (0 if abs(z) <= self.band else (1 if z > 0 else -1)), None


@pytest.mark.parametrize("band, outcome", [(2.4, "certified"),
                                           (2.6, "certified"),
                                           (3.8, "no-sign")])
def test_bisection_nudges_past_a_noise_band_wider_than_a_quarter(band,
                                                                 outcome):
    # the bracket (-5, 5) is 10 tol wide and its midpoint is the zero.  A
    # band up to w/4 = 2.5 is left by the nudges at +-w/8 and +-w/4; a wider
    # one gave up as "no-sign" until the nudges at +-3w/8 were added for a
    # bracket wider than 8 tol, whose bisection could not end otherwise
    from jacspec.spectrum import _bisect_zero
    got, lam, bracket = _bisect_zero(_NoisyLine(band), -5.0, 5.0,
                                     -math.inf, math.inf, 1.0, 1e-9)
    assert got == outcome
    if outcome == "certified":
        assert bracket == (-5.0, 5.0) and abs(lam) <= 4.0


def test_truncation_guard_nonfinite():
    src = js.ASC2Source(q=0.3, a=0.3)
    with pytest.raises(ValueError):
        js.TruncatedTridiagonal.from_source(src, 700)


# float.hex eigenvalues recorded before the kappa-capacity memo and the
# certified-sign noise stop; both changes must leave them bit-identical.
# (0.3, 0.3, 0) indices 6-8 were oracle values until F's tail bound used the
# majorant F(-|z|) instead of exp(|z| S); they are now bisection values.
# Re-recorded when one D_N-sized rung (55 and 37 rows) replaced the last two
# rungs of the doubling ladder: the brackets F bisects start from its roots
_GOLDEN = {
    (0.5, 0.5, 0.5): (
        ["0x1.000000044a832p-1", "0x1.800000011260ep+0", "0x1.bfffffffdd640p+1",
         "0x1.dfffffffeef22p+2", "0x1.effffffff7792p+3", "0x1.f7fffffffbbcap+4",
         "0x1.fbfffffffdde6p+5", "0x1.fdfffffffeef4p+6"],
        ["charfn-bisection"] * 8,
    ),
    (0.3, 0.3, 0.0): (
        ["0x1.0000000225984p+0", "0x1.aaaaaaaa88602p+1", "0x1.638e38e385a12p+3",
         "0x1.284bda12f45dap+5", "0x1.edd3c0ca44762p+6", "0x1.9b85cb5339ad0p+8",
         "0x1.56ef7ec55ae2ap+10", "0x1.1dc7944f2122ep+12"],
        ["charfn-bisection"] * 8,
    ),
}


@pytest.mark.parametrize("params", sorted(_GOLDEN))
def test_find_spectrum_golden_bits(params):
    eigs, methods = _GOLDEN[params]
    res = js.find_spectrum(js.ASC2Source(*params), 8, 1e-9)
    assert [float(x).hex() for x in res.eigenvalues] == eigs
    assert res.methods == methods
    assert res.unresolved == []
    q, a, shift = params
    for n, lam in enumerate(res.eigenvalues):
        assert abs(lam - (q ** -n - shift)) <= 1e-9


def test_truncation_guard_squared_offdiagonal():
    # q = 0.3: alpha_319 ~ 1e166 is finite but its square, used by the Sturm
    # pivots, is not; the 320 x 320 block must be refused
    src = js.ASC2Source(q=0.3, a=0.3)
    js.TruncatedTridiagonal.from_source(src, 288)
    with pytest.raises(ValueError, match="320 x 320"):
        js.TruncatedTridiagonal.from_source(src, 320)


def test_rung_matches_from_source_at_usable_sizes():
    # one coefficient read per rung, cut at the first unusable row: the block
    # equals from_source at its size, array for array
    from jacspec.spectrum import _rung
    for args in [(0.5, 0.5, 0.5), (0.3, 0.3, 0.0), (0.9, 0.9, 0.0)]:
        src = js.ASC2Source(*args)
        for n in (1, 2, 8, 40, 160, 283):
            t, ref = _rung(src, n, 1e-13), js.TruncatedTridiagonal.from_source(src, n)
            assert np.array_equal(t.diag, ref.diag)
            assert np.array_equal(t.offdiag, ref.offdiag)
    src = js.ASC2Source(0.3, 0.3)
    cut, ref = _rung(src, 320, 1e-13), js.TruncatedTridiagonal.from_source(src, 283)
    assert np.array_equal(cut.diag, ref.diag)
    assert np.array_equal(cut.offdiag, ref.offdiag)


@pytest.mark.parametrize("confirm", ["auto", "oracle"])
def test_gamma_above_the_spectrum_rejected(confirm):
    # lambda_1 = 1: gamma = 5 used to clamp the first bracket to the inverted
    # (2.5, 1.000000001) and return 1.75 as a certified eigenvalue
    src = js.ASC2Source(0.5, 0.5, 0.0)
    with pytest.raises(js.AssumptionViolation,
                       match="gamma 5.0 exceeds the smallest oracle root 1.0"):
        js.find_spectrum(src, 2, 1e-9, gamma=5.0, confirm=confirm)
    res = js.find_spectrum(src, 2, 1e-9, gamma=src.natural_gamma, confirm=confirm)
    assert abs(res.eigenvalues[0] - 1.0) <= 1e-9


def test_oracle_overflow_raises_instead_of_negative_eigenvalues():
    # 283 rows is the largest block usable at otol = 1e-13 (284 rows: pivot
    # floor 4.0e-13); a doubling ladder clamped there had no larger rung to
    # confirm its roots.  One rung well inside the float range bounds every
    # root by D_N, so no second rung is needed
    for k in (71, 80):
        res = js.find_spectrum(js.ASC2Source(q=0.3, a=0.3), k, 1e-10,
                               confirm="oracle")
        assert len(res.ladder) == 1 and k <= res.ladder[0] < 283
        for n, lam in enumerate(res.eigenvalues):
            assert 0 < lam and abs(lam - 0.3 ** -n) <= \
                1e-10 + 8.0 * math.ulp(0.3 ** -n)


def _plain_bisection(t, k, tol):
    """One midpoint per bracket per Sturm sweep: the reference loop."""
    a = np.abs(t.offdiag)
    radius = np.concatenate([a, [0.0]]) + np.concatenate([[0.0], a])
    lo = np.full(k, float(np.min(t.diag - radius)))
    hi = np.full(k, float(np.max(t.diag + radius)))
    targets = np.arange(1, k + 1)
    while True:
        floor = np.maximum(tol, 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
        mid = 0.5 * (lo + hi)
        active = (hi - lo > floor) & (mid > lo) & (mid < hi)
        if not active.any():
            break
        ge = js.sturm_counts(t, mid[active]) >= targets[active]
        hi[active] = np.where(ge, mid[active], hi[active])
        lo[active] = np.where(~ge, mid[active], lo[active])
    return 0.5 * (lo + hi)


def test_subtree_bisection_matches_plain_bisection_random():
    # rounded diagonals give tied eigenvalues, zero off-diagonals split the
    # block; every k and tolerance must give the same floats.  Tolerances up
    # to 10 stop many brackets after a few halvings
    rng = np.random.RandomState(41)
    for trial in range(320):
        n = rng.randint(1, 40)
        diag = rng.uniform(-4.0, 12.0, size=n)
        off = rng.uniform(-2.0, 2.0, size=n - 1)
        if trial % 2:
            diag = np.round(diag)
        if trial % 3 == 0:
            off[rng.uniform(size=n - 1) < 0.3] = 0.0
        t = js.TruncatedTridiagonal(diag=diag, offdiag=off)
        k = rng.randint(0, n + 1)
        tol = 10.0 ** rng.uniform(-15, 1)
        got = js.sturm_eigenvalues(t, k, tol)
        assert np.array_equal(got, _plain_bisection(t, k, tol))


@pytest.mark.parametrize("params", [(0.5, 0.5, 0.5), (0.9, 0.9, 0.0),
                                    (0.3, 0.3, 0.0), (0.6, 0.3, 0.5)])
def test_subtree_bisection_matches_plain_bisection_asc2(params):
    src = js.ASC2Source(*params)
    for n, ks in ((1, (0, 1)), (9, (1, 6, 9)), (64, (0, 6, 40, 64)),
                  (120, (1, 40))):
        t = js.TruncatedTridiagonal.from_source(src, n)
        for k in ks:
            for tol in (1e-6, 1e-13, 1e-15, 1e-10, 1.0, 100.0):
                got = js.sturm_eigenvalues(t, k, tol)
                assert np.array_equal(got, _plain_bisection(t, k, tol))


def test_pivot_floor_above_tolerance_is_refused():
    # q = 0.3: at 296 rows offdiag**2 reaches ~3e307 and the pivot floor 1.4
    # would move lambda_1 = 1 to -0.118; 270 rows (floor 9e-28) are still exact
    src = js.ASC2Source(q=0.3, a=0.3)
    t = js.TruncatedTridiagonal.from_source(src, 270)
    assert np.allclose(js.sturm_eigenvalues(t, 3, 1e-13),
                       [1.0, 10.0 / 3.0, 100.0 / 9.0], rtol=0, atol=1e-12)
    t = js.TruncatedTridiagonal.from_source(src, 296)
    with pytest.raises(ValueError, match="296 x 296"):
        js.sturm_eigenvalues(t, 3, 1e-13)


def _count_sweeps(monkeypatch):
    import jacspec.spectrum as spectrum
    calls = [0]
    orig = spectrum.sturm_counts

    def counted(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(spectrum, "sturm_counts", counted)
    return calls


def test_oracle_ladder_sweep_gate(monkeypatch):
    # sweeps only for unknown counts, every rung hinted, a gallop toward
    # roots that moved (one-step bisection: 605 sweeps; one tree per bracket,
    # cold rungs: 206; an unhinted first rung: 63; the five-rung ladder 80
    # ... 1280: 44; now 14, on one rung that D_N sizes)
    calls = _count_sweeps(monkeypatch)
    res = js.find_spectrum(js.ASC2Source(0.9, 0.9, 0.0), 20, 1e-10,
                           confirm="oracle")
    assert res.ladder == [369]
    assert calls[0] <= 16


def test_certified_spectrum_sweep_gate(monkeypatch):
    # one-step bisection: 345 sweeps; one tree per bracket, cold rungs: 71;
    # an unhinted first rung: 27; the ladder 32, 64, 128: 21; one rung: 11
    calls = _count_sweeps(monkeypatch)
    res = js.find_spectrum(js.ASC2Source(0.5, 0.5, 0.5), 8, 1e-9)
    assert res.methods == ["charfn-bisection"] * 8
    assert calls[0] <= 12


_ORACLE_CONFIGS = [((0.5, 0.5, 0.5), 40), ((0.7, 0.7, 0.0), 20),
                   ((0.9, 0.9, 0.0), 20), ((0.3, 0.3, 0.0), 40)]


def test_oracle_configurations_sweep_gate(monkeypatch):
    # the four oracle-ladder runs of the benchmark at seed 0; an unhinted
    # first rung took 212 sweeps, the hinted ladder 119, one rung each 71
    calls = _count_sweeps(monkeypatch)
    for params, k in _ORACLE_CONFIGS:
        js.find_spectrum(js.ASC2Source(*params), k, 1e-10, confirm="oracle")
    assert calls[0] <= 75


@pytest.mark.parametrize("params,k", _ORACLE_CONFIGS)
def test_every_hinted_rung_equals_an_unhinted_call(monkeypatch, params, k):
    # the one rung is hinted with its k smallest diagonal entries
    from jacspec import spectrum
    rungs = []
    orig = spectrum.sturm_eigenvalues

    def recorded(t, k, tol, **kwargs):
        roots = orig(t, k, tol, **kwargs)
        rungs.append((t, tol, kwargs.get("hint"), roots))
        return roots

    monkeypatch.setattr(spectrum, "sturm_eigenvalues", recorded)
    js.find_spectrum(js.ASC2Source(*params), k, 1e-10, confirm="oracle")
    assert len(rungs) >= 1
    for t, tol, hint, roots in rungs:
        assert hint is not None
        want = orig(t, k, tol)
        assert list(map(float.hex, roots)) == list(map(float.hex, want))


class _WeaklyCoupled(js.CoefficientSource):
    """alpha = (1e-12, 1e-6, 0.5 2^n, ...), beta = (1, 1 + 2e-10, 4^n, ...):
    the two smallest roots sit 2e-10 apart, below 10 tol at tol = 1e-9.
    mu_j = alpha_j^2/(beta_j beta_{j+1}) <= 1/256, so every pivot stays
    above 0.99 beta_n and every term ratio below 0.01."""

    def alpha(self, n):
        return (1e-12, 1e-6)[n] if n < 2 else 0.5 * 2.0 ** n

    def beta(self, n):
        return (1.0, 1.0 + 2e-10)[n] if n < 2 else 4.0 ** n

    def tail_certificate(self, start):
        # sum_{n >= start} 1/beta_n, the rows from 2 on a geometric series
        tail = sum(1.0 / self.beta(n) for n in range(start, 2)) \
            + 4.0 ** -max(start, 2) * 4.0 / 3.0
        return 0.01, 0.99, tail / (0.99 * 0.99) * (1.0 + 1e-9)


def test_near_degenerate_roots_rerun_the_oracle(monkeypatch):
    from jacspec import spectrum
    runs = []
    orig = spectrum.sturm_eigenvalues

    def recorded(t, k, tol, **kwargs):
        runs.append((t.size, tol))
        return orig(t, k, tol, **kwargs)

    monkeypatch.setattr(spectrum, "sturm_eigenvalues", recorded)
    res = js.find_spectrum(_WeaklyCoupled(), 3, 1e-9, confirm="oracle")
    n = res.ladder[0]
    assert res.ladder == [n]
    # the one rung runs again at about 1e-3 of the root gap
    assert [m for m, _ in runs] == [n, n]
    assert runs[1][1] == pytest.approx(2.0e-13, rel=1e-2)
    assert runs[1][1] < runs[0][1]
    # the exact roots, of the 40 x 40 block in mpmath at 50 digits, lie
    # within the rerun's 2e-13 (the ladder read 1.0000000000000182 and
    # 1.0000000001999934, the one rung 0.9999999999999996 and
    # 1.0000000001999747)
    lam1, lam2 = res.eigenvalues[:2]
    assert lam1 == pytest.approx(0.999999999999995, abs=2e-13)
    assert lam2 == pytest.approx(1.000000000199938, abs=2e-13)
    assert lam2 - lam1 == pytest.approx(2.0e-10, rel=1e-3)
    assert res.brackets[0][1] <= res.brackets[1][0]


def _full_counts(t, xs):
    """Every pivot of every row: the Sturm sweep without its early exits."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    off2 = t.offdiag ** 2
    pivmin = max(1.0, float(off2.max()) if off2.size else 1.0) * 5e-308
    d = t.diag[0] - xs
    d = np.where(np.abs(d) < pivmin, -pivmin, d)
    count = (d < 0).astype(np.int64)
    for i in range(1, t.size):
        d = (t.diag[i] - xs) - off2[i - 1] / d
        d = np.where(np.abs(d) < pivmin, -pivmin, d)
        count += d < 0
    return count


def _probe_shifts(t, roots):
    """Shifts log-spaced from both ends of the Gershgorin interval, its ends
    and their neighbours, and shifts at and beside the given roots."""
    a = np.abs(t.offdiag)
    radius = np.concatenate([a, [0.0]]) + np.concatenate([[0.0], a])
    lo = float(np.min(t.diag - radius))
    hi = float(np.max(t.diag + radius))
    steps = (hi - lo) * np.logspace(-16.0, 0.0, 40)
    ends = np.array([lo, hi])
    roots = np.asarray(roots, dtype=float)
    return np.concatenate([
        lo + steps, hi - steps, ends, np.nextafter(ends, -np.inf),
        np.nextafter(ends, np.inf), roots, np.nextafter(roots, -np.inf),
        np.nextafter(roots, np.inf), roots * (1.0 - 1e-9), roots * (1.0 + 1e-9),
    ])


def _assert_count_contract(t, xs, limits):
    ref = _full_counts(t, xs)
    assert np.array_equal(js.sturm_counts(t, xs), ref)
    for limit in limits:
        got = js.sturm_counts(t, xs, limit=limit)
        # below the limit a count is exact; at or above it, any value >= limit
        assert np.all((got == ref) | ((got >= limit) & (ref >= limit)))


def test_sturm_counts_early_exits_keep_the_count_contract_random():
    # rounded diagonals give tied roots, zero off-diagonals split the block;
    # every third block has a fast-growing diagonal whose tail settles early
    rng = np.random.RandomState(43)
    for trial in range(60):
        n = rng.randint(1, 300)
        diag = rng.uniform(-4.0, 12.0, size=n)
        if trial % 3 == 2:
            diag += 1.5 ** np.arange(n)
        off = rng.uniform(-2.0, 2.0, size=n - 1)
        if trial % 2:
            diag = np.round(diag)
        if trial % 4 == 0:
            off[rng.uniform(size=n - 1) < 0.3] = 0.0
        t = js.TruncatedTridiagonal(diag=diag, offdiag=off)
        roots = js.sturm_eigenvalues(t, min(n, 12), 1e-12)
        limits = sorted({1, rng.randint(1, n + 1), n})
        _assert_count_contract(t, _probe_shifts(t, roots), limits)


@pytest.mark.parametrize("q, sizes", [(0.3, (80, 160, 283)),
                                      (0.5, (80, 160, 320, 480)),
                                      (0.9, (80, 320, 1280))])
def test_sturm_counts_early_exits_keep_the_count_contract_asc2(q, sizes):
    src = js.ASC2Source(q, q, 0.0)
    for n in sizes:
        t = js.TruncatedTridiagonal.from_source(src, n)
        roots = js.sturm_eigenvalues(t, 20, 1e-13)
        _assert_count_contract(t, _probe_shifts(t, roots), (1, 7, 20, n))


def test_subtree_bisection_matches_plain_bisection_q09_320_rows():
    # the saturating sweeps of sturm_eigenvalues against exact counts
    t = js.TruncatedTridiagonal.from_source(js.ASC2Source(0.9, 0.9, 0.0), 320)
    for tol in (1e-10, 1e-13):
        got = js.sturm_eigenvalues(t, 20, tol)
        assert np.array_equal(got, _plain_bisection(t, 20, tol))


def test_settled_tail_still_counts_pivots_below_the_floor():
    # offdiag_30 = 1e150 lifts the pivot floor to 5e-8; at x = 1 the pivot of
    # row 16 is 1e-9 > 0, below the floor, so it is clamped to -pivmin and
    # counted.  The settled-tail recurrence must fail there, not pass it.
    diag = np.full(32, 10.0)
    diag[16] = 1.0 + 1e-9
    diag[31] = 1e301
    off = np.zeros(31)
    off[30] = 1e150
    t = js.TruncatedTridiagonal(diag=diag, offdiag=off)
    xs = [1.0, 1.0 - 1e-6, 0.5]
    assert js.sturm_counts(t, xs).tolist() == [1, 0, 0]
    assert np.array_equal(js.sturm_counts(t, xs), _full_counts(t, xs))


def _block_with_pivot(n, row, value, split=False):
    """diag 3, offdiag 1, except that at x = 0 the pivot of `row` is exactly
    `value`: diag[row] = value and the offdiag into it is 0.  With split,
    the offdiag out of it is 0 as well, so the unclamped next step divides
    0 by the pivot (0/0 for a zero pivot) instead of 1."""
    diag = np.full(n, 3.0)
    off = np.ones(n - 1)
    diag[row] = value
    if row:
        off[row - 1] = 0.0
    if split and row < n - 1:
        off[row] = 0.0
    return js.TruncatedTridiagonal(diag=diag, offdiag=off)


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 31, 32, 33, 40])
@pytest.mark.parametrize("value", [0.0, -0.0, 1e-310])
@pytest.mark.parametrize("split", [False, True])
def test_sturm_counts_pivots_at_the_floor_in_any_block(n, value, split):
    # a zero, a negative zero or a subnormal pivot (below pivmin = 5e-308) is
    # clamped to -pivmin and counted; the unclamped block step must notice
    # it wherever it falls: first row, inside a block, a block's last or
    # first row, or the last partial block, also when the step after it
    # makes a nan (0/0) rather than an infinity
    xs = np.concatenate([[0.0, -1e-300, 1e-300], np.linspace(-1.0, 6.0, 29)])
    for row in sorted({0, 1, 7, 15, 16, 17, 31, 32, 37, n - 1} & set(range(n))):
        t = _block_with_pivot(n, row, value, split)
        assert _full_counts(t, xs)[0] == 1  # the clamped pivot alone
        _assert_count_contract(t, xs, sorted({1, n // 2 + 1, n}))


def test_sturm_counts_zero_pivot_raises_no_warning():
    # the unclamped step divides by the zero pivot (1/0 or 0/0) and by the
    # subnormal one (overflow) before the block is redone with the clamp
    xs = np.array([0.0, 1.0])
    for value, split in itertools.product((0.0, -0.0, 1e-310), (False, True)):
        t = _block_with_pivot(20, 5, value, split)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = js.sturm_counts(t, xs)
        assert np.array_equal(got, _full_counts(t, xs))
        assert got[0] == 1  # the clamped pivot, and no other, is negative


def test_sturm_counts_saturation_exits_at_block_boundaries():
    # every pivot is negative below x = 0, so the running count is i after i
    # rows; a saturated sweep stops at the first check (every 16 rows) where
    # the count has reached the limit
    t = js.TruncatedTridiagonal(diag=np.full(40, -1.0), offdiag=np.zeros(39))
    xs = np.array([0.0, 0.5])
    assert _full_counts(t, xs).tolist() == [40, 40]
    for limit, exit_count in ((1, 16), (16, 16), (17, 32), (32, 32), (33, 40)):
        assert js.sturm_counts(t, xs, limit=limit).tolist() == [exit_count] * 2
    _assert_count_contract(t, xs, (1, 16, 17, 32, 33, 40))


def _monotone_probe_shifts(t, roots, rng):
    """Sorted shifts that crowd the roots: _probe_shifts, chains of adjacent
    floats through each root and random shifts over the Gershgorin range."""
    xs = [_probe_shifts(t, roots)]
    for r in roots:
        xs.append(r + np.spacing(r) * np.arange(-6.0, 7.0))
    xs.append(rng.uniform(xs[0].min(), xs[0].max(), size=200))
    return np.sort(np.concatenate(xs))


def _assert_counts_monotone(t, xs, limits):
    counts = js.sturm_counts(t, xs)
    assert np.all(np.diff(counts) >= 0)
    for limit in limits:
        got = np.minimum(js.sturm_counts(t, xs, limit=limit), limit)
        assert np.all(np.diff(got) >= 0)


def test_sturm_counts_monotone_in_the_shift_random():
    # the known-count replay of sturm_eigenvalues rests on this: a computed
    # count never falls as the shift rises
    rng = np.random.RandomState(47)
    for trial in range(60):
        n = rng.randint(1, 300)
        diag = rng.uniform(-4.0, 12.0, size=n)
        if trial % 3 == 2:
            diag += 1.5 ** np.arange(n)
        off = rng.uniform(-2.0, 2.0, size=n - 1)
        if trial % 2:
            diag = np.round(diag)
        if trial % 4 == 0:
            off[rng.uniform(size=n - 1) < 0.3] = 0.0
        t = js.TruncatedTridiagonal(diag=diag, offdiag=off)
        roots = js.sturm_eigenvalues(t, min(n, 12), 1e-12)
        limits = sorted({1, rng.randint(1, n + 1), n})
        _assert_counts_monotone(t, _monotone_probe_shifts(t, roots, rng), limits)


@pytest.mark.parametrize("q, sizes", [(0.3, (40, 160, 283)),
                                      (0.5, (80, 320)),
                                      (0.9, (80, 320, 1280))])
def test_sturm_counts_monotone_in_the_shift_asc2(q, sizes):
    from jacspec.spectrum import _rung
    rng = np.random.RandomState(53)
    src = js.ASC2Source(q, q, 0.0)
    for n in sizes:
        t = _rung(src, n, 1e-13)
        roots = js.sturm_eigenvalues(t, 20, 1e-13)
        _assert_counts_monotone(t, _monotone_probe_shifts(t, roots, rng),
                                (1, 7, 20))


def _wrong_hints(roots, other):
    """Hints far off, reversed, from another block, exact, or malformed."""
    return [roots * 1e6 + 1e3, -1e6 - roots, roots[::-1], other,
            roots, np.nextafter(roots, np.inf), [], [np.nan, np.inf],
            np.concatenate([roots, roots + 1.0])]


def _missed_hints(roots, tol):
    """The roots displaced by pad * 10**m, m = 1..12, below and above, with
    the pad max(tol, 4 ulp) of the hint sweep: each misses its root."""
    pad = np.maximum(tol, 4.0 * np.spacing(np.abs(roots)))
    return [roots + sign * pad * 10.0 ** m
            for m in range(1, 13) for sign in (-1.0, 1.0)]


def _count_gallops(monkeypatch):
    """Count the galloping sweeps: calls of _gallop_shifts that return
    shifts."""
    from jacspec import spectrum
    gallops = [0]
    orig = spectrum._gallop_shifts

    def counted(*args):
        xs = orig(*args)
        gallops[0] += bool(xs.size)
        return xs

    monkeypatch.setattr(spectrum, "_gallop_shifts", counted)
    return gallops


def test_hints_never_move_the_roots_random(monkeypatch):
    gallops = _count_gallops(monkeypatch)
    galloped = 0  # calls with a missed hint that swept a gallop
    rng = np.random.RandomState(59)
    for trial in range(60):
        n = rng.randint(1, 40)
        diag = rng.uniform(-4.0, 12.0, size=n)
        off = rng.uniform(-2.0, 2.0, size=n - 1)
        if trial % 2:
            diag = np.round(diag)
        if trial % 3 == 0:
            off[rng.uniform(size=n - 1) < 0.3] = 0.0
        t = js.TruncatedTridiagonal(diag=diag, offdiag=off)
        k = rng.randint(1, n + 1)
        tol = 10.0 ** rng.uniform(-15, 1)
        ref = js.sturm_eigenvalues(t, k, tol)
        other = rng.uniform(-4.0, 12.0, size=k)
        for hint in _wrong_hints(ref, other):
            got = js.sturm_eigenvalues(t, k, tol, hint=hint)
            assert np.array_equal(got, ref)
        calls = gallops[0]
        for hint in _missed_hints(ref, tol):
            got = js.sturm_eigenvalues(t, k, tol, hint=hint)
            assert np.array_equal(got, ref)
        galloped += gallops[0] - calls
    assert galloped == 60 * 24


@pytest.mark.parametrize("params", [(0.5, 0.5, 0.5), (0.9, 0.9, 0.0),
                                    (0.3, 0.3, 0.0)])
def test_hints_never_move_the_roots_asc2(monkeypatch, params):
    from jacspec.spectrum import _rung
    gallops = _count_gallops(monkeypatch)
    src = js.ASC2Source(*params)
    other = js.sturm_eigenvalues(_rung(js.ASC2Source(0.7, 0.7, 0.2), 80, 1e-13),
                                 20, 1e-13)
    for n in (40, 80, 160):
        t = _rung(src, n, 1e-13)
        for tol in (1e-13, 1e-8):
            ref = js.sturm_eigenvalues(t, 20, tol)
            coarse = js.sturm_eigenvalues(_rung(src, n // 2, 1e-13), 20, tol)
            calls = gallops[0]
            for hint in _missed_hints(ref, tol):
                got = js.sturm_eigenvalues(t, 20, tol, hint=hint)
                assert np.array_equal(got, ref)
            # every missed hint leaves a wide bracket, and a gallop
            assert gallops[0] - calls == 24
            for hint in _wrong_hints(ref, other) + [coarse]:
                got = js.sturm_eigenvalues(t, 20, tol, hint=hint)
                assert np.array_equal(got, ref)


def test_ladder_raises_at_the_cap_instead_of_returning_unstabilized_roots(
        monkeypatch):
    # q = 0.995 converges slowly: D_N of 16 rows is far above the rung's
    # target, and 16 rows is the cap here
    from jacspec import spectrum
    monkeypatch.setattr(spectrum, "_LADDER_CAP", 16)
    src = js.ASC2Source(0.995, 0.995, 0.0)
    with pytest.raises(ValueError,
                       match="not stabilized at 16 x 16, the ladder cap 16"):
        js.find_spectrum(src, 2, 1e-9, confirm="oracle")


@pytest.mark.parametrize("cap, k", [(16, 2), (8192, 4)])
def test_the_ladder_cap_exits_uncertified(monkeypatch, capsys, cap, k):
    # q = 0.995 lies in the certified regime, so a rung search that reaches
    # its cap is an uncertified result (exit 4), not a configuration error
    # (exit 2, which the clamp to the usable size keeps); the error stays a
    # ValueError, as the test above requires.  At the default tol 1e-9 one
    # rung of 7,495 rows meets k = 4 below the cap, so tol is 1e-11 here
    from jacspec import spectrum
    from jacspec.cli import main
    monkeypatch.setattr(spectrum, "_LADDER_CAP", cap)
    assert main(["spectrum", "--q", "0.995", "--a", "0.995", "--shift", "0",
                 "--k", str(k), "--eig-tol", "1e-11"]) == 4
    assert capsys.readouterr().err == (
        f"uncertified: the {k} smallest roots have not stabilized at "
        f"{cap} x {cap}, the ladder cap {cap}\n")


def test_a_first_row_past_the_float_range_names_the_float_range():
    # beta_0 - shift overflows, so no row is usable: the slice off[:m - 1]
    # at m = 0 kept all but the last offdiag entry, and the block's shape
    # check raised "offdiag must be one entry shorter than diag"
    src = js.TableSource([1.0], [1e308, 1.0], shift=-1e308)
    with pytest.raises(ValueError, match="^entries of the 2 x 2 truncation "
                                         "leave the float range$"):
        js.TruncatedTridiagonal.from_source(src, 2)


@pytest.mark.parametrize("k", [17])
def test_a_usable_block_smaller_than_k_raises_the_ladder_error(capsys, k):
    # q = 1e-10: 16 rows are usable at the finest oracle tolerance.  At
    # k = 17 a rung reached sturm_eigenvalues, which raised "need 0 <= k <=
    # N, got k=17, N=16"; the rung search now names the usable size
    from jacspec.cli import main
    want = (f"the {k} smallest roots have not stabilized at 16 x 16, the "
            "largest truncation usable at tolerance 1e-12")
    with pytest.raises(ValueError, match=f"^{want}$"):
        js.find_spectrum(js.ASC2Source(1e-10, 1e-10, 0.0), k, 1e-9)
    assert main(["spectrum", "--q", "1e-10", "--a", "1e-10", "--shift", "0",
                 "--k", str(k)]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"
