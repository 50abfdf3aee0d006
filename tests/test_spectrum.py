import math

import numpy as np
import pytest

import jacspec as js
from conftest import EIG2X2, random_pd_table


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
    res = js.find_spectrum(asc2_shifted, 12, 1e-9, max_terms=300)
    assert res.ok
    assert "oracle-ladder" in res.methods
    expected = [2.0 ** j - 0.5 for j in range(12)]
    for lam, ref in zip(res.eigenvalues, expected):
        assert lam == pytest.approx(ref, abs=1e-9, rel=1e-9)


def test_confirm_require_reports_unresolved(asc2_shifted):
    res = js.find_spectrum(asc2_shifted, 12, 1e-9, max_terms=300,
                           confirm="require")
    assert not res.ok
    assert res.unresolved  # indices beyond the certification budget


def test_truncation_guard_nonfinite():
    src = js.ASC2Source(q=0.3, a=0.3)
    with pytest.raises(ValueError):
        js.TruncatedTridiagonal.from_source(src, 700)


# float.hex eigenvalues recorded before the kappa-capacity memo and the
# certified-sign noise stop; both changes must leave them bit-identical
_GOLDEN = {
    (0.5, 0.5, 0.5): (
        ["0x1.0000000225118p-1", "0x1.800000011288ep+0", "0x1.bfffffffdd730p+1",
         "0x1.dfffffffeeb99p+2", "0x1.effffffff75cep+3", "0x1.f7fffffffbae8p+4",
         "0x1.fbfffffffdd74p+5", "0x1.fdfffffffeebbp+6"],
        ["charfn-bisection"] * 8,
    ),
    (0.3, 0.3, 0.0): (
        ["0x1.ffffffff7695dp-1", "0x1.aaaaaaaa886cep+1", "0x1.638e38e385acap+3",
         "0x1.284bda12f4602p+5", "0x1.edd3c0ca4475ap+6", "0x1.9b85cb5339f13p+8",
         "0x1.56ef7ec55af3ep+10", "0x1.1dc7944f21208p+12"],
        ["charfn-bisection"] * 5 + ["oracle-ladder"] * 3,
    ),
}


@pytest.mark.parametrize("params", sorted(_GOLDEN))
def test_find_spectrum_golden_bits(params):
    eigs, methods = _GOLDEN[params]
    res = js.find_spectrum(js.ASC2Source(*params), 8, 1e-9)
    assert [float(x).hex() for x in res.eigenvalues] == eigs
    assert res.methods == methods
    assert res.unresolved == []


def test_truncation_guard_squared_offdiagonal():
    # q = 0.3: alpha_319 ~ 1e166 is finite but its square, used by the Sturm
    # pivots, is not; the 320 x 320 block must be refused
    src = js.ASC2Source(q=0.3, a=0.3)
    js.TruncatedTridiagonal.from_source(src, 288)
    with pytest.raises(ValueError, match="320 x 320"):
        js.TruncatedTridiagonal.from_source(src, 320)


def test_ladder_stops_at_ulp_level_for_large_roots():
    # lambda_12 = 0.3^-11 ~ 5.6e5: 0.01 tol = 1e-12 is below one ulp there,
    # so only the ulp-aware stabilization test lets the ladder end
    src = js.ASC2Source(q=0.3, a=0.3)
    res = js.find_spectrum(src, 12, 1e-10, confirm="oracle")
    assert res.ladder == [48, 96]
    assert all(x > 0 for x in res.eigenvalues)
    for n, lam in enumerate(res.eigenvalues):
        assert abs(lam - 0.3 ** -n) <= 1e-10 + 1e-12 * 0.3 ** -n


def test_oracle_overflow_raises_instead_of_negative_eigenvalues():
    # the k = 40 ladder for q = 0.3 still cannot stabilize before the float
    # range ends; it must raise rather than return garbage
    src = js.ASC2Source(q=0.3, a=0.3)
    with pytest.raises(ValueError, match="320 x 320"):
        js.find_spectrum(src, 40, 1e-10, confirm="oracle")


def _plain_bisection(t, k, tol, max_iter):
    """One midpoint per bracket per Sturm sweep: the reference loop."""
    a = np.abs(t.offdiag)
    radius = np.concatenate([a, [0.0]]) + np.concatenate([[0.0], a])
    lo = np.full(k, float(np.min(t.diag - radius)))
    hi = np.full(k, float(np.max(t.diag + radius)))
    targets = np.arange(1, k + 1)
    for _ in range(max_iter):
        floor = np.maximum(tol, 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
        mid = 0.5 * (lo + hi)
        active = (hi - lo > floor) & (mid > lo) & (mid < hi)
        if not active.any():
            break
        ge = js.sturm_counts(t, mid[active]) >= targets[active]
        hi[active] = np.where(ge, mid[active], hi[active])
        lo[active] = np.where(~ge, mid[active], lo[active])
    return 0.5 * (lo + hi)


_MAX_ITERS = (1, 2, 5, 37, 3000)


def test_subtree_bisection_matches_plain_bisection_random():
    # rounded diagonals give tied eigenvalues, zero off-diagonals split the
    # block; every k, tolerance and step budget must give the same floats
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
        tol = 10.0 ** rng.uniform(-15, -6)
        max_iter = _MAX_ITERS[trial % len(_MAX_ITERS)]
        got = js.sturm_eigenvalues(t, k, tol, max_iter)
        assert np.array_equal(got, _plain_bisection(t, k, tol, max_iter))


@pytest.mark.parametrize("params", [(0.5, 0.5, 0.5), (0.9, 0.9, 0.0),
                                    (0.3, 0.3, 0.0), (0.6, 0.3, 0.5)])
def test_subtree_bisection_matches_plain_bisection_asc2(params):
    src = js.ASC2Source(*params)
    for n, ks in ((1, (0, 1)), (9, (1, 6, 9)), (64, (0, 6, 40, 64)),
                  (120, (1, 40))):
        t = js.TruncatedTridiagonal.from_source(src, n)
        for k in ks:
            for tol, max_iter in ((1e-6, 3000), (1e-13, 3000), (1e-15, 37),
                                  (1e-10, 5)):
                got = js.sturm_eigenvalues(t, k, tol, max_iter)
                assert np.array_equal(got, _plain_bisection(t, k, tol, max_iter))


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
    # each sweep resolves several bisection levels per bracket
    # (one-step bisection: 605 sweeps)
    calls = _count_sweeps(monkeypatch)
    res = js.find_spectrum(js.ASC2Source(0.9, 0.9, 0.0), 20, 1e-10,
                           confirm="oracle")
    assert res.ladder == [80, 160, 320, 640, 1280]
    assert calls[0] <= 250


def test_certified_spectrum_sweep_gate(monkeypatch):
    # one-step bisection: 345 sweeps
    calls = _count_sweeps(monkeypatch)
    res = js.find_spectrum(js.ASC2Source(0.5, 0.5, 0.5), 8, 1e-9)
    assert res.methods == ["charfn-bisection"] * 8
    assert calls[0] <= 100
