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


def test_oracle_ladder_clamps_its_last_rung_to_the_usable_size():
    # q = 0.3, otol = 1e-13: 283 rows is the largest block whose pivot floor
    # stays below otol (284 rows: 4.0e-13), so the rung after 160 is 283
    src = js.ASC2Source(q=0.3, a=0.3)
    res = js.find_spectrum(src, 40, 1e-10, confirm="oracle")
    assert res.ladder == [160, 283]
    for n, lam in enumerate(res.eigenvalues):
        assert abs(lam - 0.3 ** -n) <= 1e-10 + 1e-12 * 0.3 ** -n


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
                       match="gamma 5.0 exceeds the smallest oracle root 0.99"):
        js.find_spectrum(src, 2, 1e-9, gamma=5.0, confirm=confirm)
    res = js.find_spectrum(src, 2, 1e-9, gamma=src.natural_gamma, confirm=confirm)
    assert abs(res.eigenvalues[0] - 1.0) <= 1e-9


def test_oracle_overflow_raises_instead_of_negative_eigenvalues():
    # the first rung 4k = 320 (k = 80) or 284 (k = 71) is clamped to 283
    # rows, and no larger usable rung is left to confirm it: the ladder must
    # raise rather than return unconfirmed roots
    src = js.ASC2Source(q=0.3, a=0.3)
    for k in (71, 80):
        with pytest.raises(ValueError, match="not stabilized at 283 x 283"):
            js.find_spectrum(src, k, 1e-10, confirm="oracle")


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
    # sweeps only for unknown counts, each rung warm-started from the last
    # (one-step bisection: 605 sweeps; one tree per bracket, cold rungs: 206;
    # now 63)
    calls = _count_sweeps(monkeypatch)
    res = js.find_spectrum(js.ASC2Source(0.9, 0.9, 0.0), 20, 1e-10,
                           confirm="oracle")
    assert res.ladder == [80, 160, 320, 640, 1280]
    assert calls[0] <= 95


def test_certified_spectrum_sweep_gate(monkeypatch):
    # one-step bisection: 345 sweeps; one tree per bracket, cold rungs: 71;
    # now 27
    calls = _count_sweeps(monkeypatch)
    res = js.find_spectrum(js.ASC2Source(0.5, 0.5, 0.5), 8, 1e-9)
    assert res.methods == ["charfn-bisection"] * 8
    assert calls[0] <= 40


class _WeaklyCoupled(js.CoefficientSource):
    """alpha = (1e-12, 1e-6, 0.5 2^n, ...), beta = (1, 1 + 2e-10, 4^n, ...):
    the two smallest roots sit 2e-10 apart, below 10 tol at tol = 1e-9."""

    def alpha(self, n):
        return (1e-12, 1e-6)[n] if n < 2 else 0.5 * 2.0 ** n

    def beta(self, n):
        return (1.0, 1.0 + 2e-10)[n] if n < 2 else 4.0 ** n


def test_near_degenerate_roots_rerun_the_oracle(monkeypatch):
    from jacspec import spectrum
    runs = []
    orig = spectrum.sturm_eigenvalues

    def recorded(t, k, tol, **kwargs):
        runs.append((t.size, tol))
        return orig(t, k, tol, **kwargs)

    monkeypatch.setattr(spectrum, "sturm_eigenvalues", recorded)
    res = js.find_spectrum(_WeaklyCoupled(), 3, 1e-9, confirm="oracle")
    assert res.ladder == [12, 24]
    # both rungs run again at about 1e-3 of the root gap
    assert [n for n, _ in runs] == [12, 24, 12, 24]
    assert runs[2][1] == runs[3][1] == pytest.approx(2.0e-13, rel=1e-2)
    assert runs[2][1] < runs[0][1]
    lam1, lam2 = res.eigenvalues[:2]
    assert lam1 == pytest.approx(1.0000000000000182, abs=1e-14)
    assert lam2 == pytest.approx(1.0000000001999934, abs=1e-14)
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
        assert np.array_equal(got, _plain_bisection(t, 20, tol, 3000))


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


def test_hints_never_move_the_roots_random():
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
        tol = 10.0 ** rng.uniform(-15, -6)
        max_iter = _MAX_ITERS[trial % len(_MAX_ITERS)]
        ref = js.sturm_eigenvalues(t, k, tol, max_iter)
        other = rng.uniform(-4.0, 12.0, size=k)
        for hint in _wrong_hints(ref, other):
            got = js.sturm_eigenvalues(t, k, tol, max_iter, hint=hint)
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("params", [(0.5, 0.5, 0.5), (0.9, 0.9, 0.0),
                                    (0.3, 0.3, 0.0)])
def test_hints_never_move_the_roots_asc2(params):
    from jacspec.spectrum import _rung
    src = js.ASC2Source(*params)
    other = js.sturm_eigenvalues(_rung(js.ASC2Source(0.7, 0.7, 0.2), 80, 1e-13),
                                 20, 1e-13)
    for n in (40, 80, 160):
        t = _rung(src, n, 1e-13)
        for tol in (1e-13, 1e-8):
            ref = js.sturm_eigenvalues(t, 20, tol)
            coarse = js.sturm_eigenvalues(_rung(src, n // 2, 1e-13), 20, tol)
            for hint in _wrong_hints(ref, other) + [coarse]:
                got = js.sturm_eigenvalues(t, 20, tol, hint=hint)
                assert np.array_equal(got, ref)


def test_ladder_raises_at_the_cap_instead_of_returning_unstabilized_roots(
        monkeypatch):
    # q = 0.995 converges slowly: the 8- and 16-row roots differ far beyond
    # the stabilization floor, and 16 rows is the cap here
    from jacspec import spectrum
    monkeypatch.setattr(spectrum, "_LADDER_CAP", 16)
    src = js.ASC2Source(0.995, 0.995, 0.0)
    with pytest.raises(ValueError,
                       match="not stabilized at 16 x 16, the ladder cap 16"):
        js.find_spectrum(src, 2, 1e-9, confirm="oracle")
