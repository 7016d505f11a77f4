"""Mean/covariance estimation, eigenanalysis, and score prediction oracles."""

import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseflr import (
    CovarianceEstimate,
    DataError,
    FitError,
    FpcaConfig,
    FpcaModel,
    Interval,
    RegularGrid,
    SimConfig,
    SparseFunctionalSample,
    SubjectRecord,
    eigendecompose,
    estimate_covariance,
    estimate_mean,
    estimate_noise_variance,
    fit_flr,
    fit_fpca,
    gen_pair,
    pace_scores,
    pace_scores_batch,
)
import sparseflr.fpca
import sparseflr.smoothing
from sparseflr.data import pooled_points
from sparseflr.fpca import (
    BIN_THRESHOLD,
    MeanEstimate,
    RawCovariances,
    _index_dtype,
    _marginal_loglik,
    _pair_indices,
    raw_covariances,
    select_ncomp,
)
from sparseflr.smoothing import (
    SmoothFlags,
    bin_scatter_2d,
    get_kernel,
    local_linear_1d,
    local_linear_2d,
    select_bandwidth_2d,
)

from conftest import make_truth_model, ragged_sample

RNG = np.random.default_rng(7)


def scalar_pace_scores(model, times, values, m):
    """Reference for the batched core: one subject scored on its own.

    The per-subject path the batch replaced: Sigma_U ridged when its smallest
    eigenvalue magnitude is at most 1e-12 of the largest, omega's negative
    eigenvalues clipped. Returns (scores, omega, ridged, omega_clipped).
    """
    rho = model.eigenvalues[:m]
    d = np.diag(rho)
    if times.size == 0:
        return np.zeros(m), d, False, False
    psi = model.eigenfunctions_at(times, m)
    resid = values - model.mean_at(times)
    sigma_u = psi.T @ (rho[:, None] * psi) + model.noise_var * np.eye(times.size)
    sym = 0.5 * (sigma_u + sigma_u.T)
    lam = np.linalg.eigvalsh(sym)
    amax, amin = float(np.max(np.abs(lam))), float(np.min(np.abs(lam)))
    ridged = not (amax > 0.0 and amin > 1e-12 * amax)
    if ridged:
        ridge = 1e-8 * max(float(np.trace(sym)), amax, np.finfo(float).tiny) / times.size
        sym = sym + ridge * np.eye(times.size)
    h = rho[:, None] * psi
    scores = h @ np.linalg.solve(sym, resid)
    omega = d - h @ np.linalg.solve(sym, h.T)
    omega = 0.5 * (omega + omega.T)
    lam, vec = np.linalg.eigh(omega)
    clipped = bool(lam[0] < 0)
    if clipped:
        omega = (vec * np.maximum(lam, 0.0)[None, :]) @ vec.T
        omega = 0.5 * (omega + omega.T)
    return scores, omega, ridged, clipped


def affine_sample(n_subjects=30, slope=2.0, intercept=1.0, seed=11):
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(n_subjects):
        t = np.sort(rng.uniform(0.0, 10.0, 5))
        subjects.append(SubjectRecord(f"s{i}", t, intercept + slope * t))
    return SparseFunctionalSample(Interval(0.0, 10.0), tuple(subjects))


def handmade_raw(s1, s2, value):
    """Raw covariances given by pair coordinates: each pair is a subject of
    its own, pairing one observation on each side, whose residuals are the
    pair's value and 1."""
    s1 = np.asarray(s1, float)
    each, one = np.arange(s1.size), np.ones(s1.size, dtype=np.intp)
    return RawCovariances(
        times_a=s1,
        times_b=np.asarray(s2, float),
        resid_a=np.asarray(value, float),
        resid_b=np.ones(s1.size),
        starts_a=each,
        counts_a=one,
        starts_b=each,
        counts_b=one,
    )


class TestEstimateMean:
    def test_affine_truth_recovered_exactly(self, grid):
        mean = estimate_mean(affine_sample(), grid, FpcaConfig(mean_bandwidth=2.0))
        assert np.max(np.abs(mean.values - (1.0 + 2.0 * grid.points))) < 1e-9

    def test_bandwidth_selected_from_candidates(self, grid):
        # fractions of the length-10 domain: candidates 1.0 and 2.5
        config = FpcaConfig(mean_bandwidth_fractions=(0.1, 0.25))
        mean = estimate_mean(affine_sample(), grid, config)
        assert mean.bandwidth in (1.0, 2.5)

    def test_search_fit_is_the_estimate(self, grid, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return local_linear_1d(*args, **kwargs)

        monkeypatch.setattr(sparseflr.smoothing, "local_linear_1d", counting)
        monkeypatch.setattr(sparseflr.fpca, "local_linear_1d", counting)
        sample = affine_sample()
        fractions = (0.08, 0.16, 0.25)
        mean = estimate_mean(sample, grid, FpcaConfig(mean_bandwidth_fractions=fractions))
        # one fit per candidate, no refit
        assert calls == [f * sample.domain.length for f in fractions]
        pooled = pooled_points(sample)
        fresh = local_linear_1d(pooled.times, pooled.values, grid.points, mean.bandwidth)
        assert np.array_equal(mean.values, fresh)

    def test_interpolation_consistency(self, grid):
        mean = estimate_mean(affine_sample(), grid, FpcaConfig(mean_bandwidth=2.0))
        assert np.array_equal(mean.at(grid.points), mean.values)

    @pytest.fixture(scope="class")
    def large_sample(self):
        """The predictor sample of the sparse n=2000 seed-0 cohort: 8,004
        pooled points, smoothed on the 401-node lattice."""
        sample, _, _ = gen_pair(SimConfig(n_subjects=2000, seed=0), np.random.default_rng(0))
        return sample

    def test_fixed_bandwidth_at_the_gcv_pick_is_the_gcv_fit(self, grid, large_sample):
        searched = estimate_mean(large_sample, grid)
        fixed = estimate_mean(large_sample, grid, FpcaConfig(mean_bandwidth=searched.bandwidth))
        assert np.array_equal(fixed.values, searched.values)

    def test_lattice_mean_stays_near_the_exact_fit(self, grid, large_sample):
        pooled = pooled_points(large_sample)
        for fraction in FpcaConfig().mean_bandwidth_fractions:
            b = fraction * large_sample.domain.length
            mean = estimate_mean(large_sample, grid, FpcaConfig(mean_bandwidth=b))
            exact = local_linear_1d(pooled.times, pooled.values, grid.points, b)
            assert np.max(np.abs(mean.values - exact)) <= 5e-4 * np.max(np.abs(exact))


def loop_raw_covariances(sample, mean):
    """Reference for ``raw_covariances``: the per-subject loop it replaced."""
    s1_parts, s2_parts, v_parts, idx_parts = [], [], [], []
    for i, subj in enumerate(sample.subjects):
        L = subj.n_obs
        if L < 2:
            continue
        resid = subj.values - mean.at(subj.times)
        tt1, tt2 = np.meshgrid(subj.times, subj.times, indexing="ij")
        rr = np.outer(resid, resid)
        off = ~np.eye(L, dtype=bool)
        s1_parts.append(tt1[off])
        s2_parts.append(tt2[off])
        v_parts.append(rr[off])
        idx_parts.append(np.full(L * (L - 1), i, dtype=np.int32))

    def cat(parts, dtype=float):
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    return types.SimpleNamespace(
        s1=cat(s1_parts),
        s2=cat(s2_parts),
        value=cat(v_parts),
        subject=cat(idx_parts, np.int32),
    )


class TestRawCovariances:
    def zero_mean(self, grid):
        return MeanEstimate(grid, np.zeros(grid.n_points), 1.0)

    @pytest.mark.parametrize("counts", [
        [0, 3, 1, 0, 5, 2, 1, 8],  # empty, single and tied-time subjects
        [1, 1, 0],  # no pairs at all
        [],
    ])
    def test_bit_identical_to_per_subject_loop(self, grid, counts):
        sample = ragged_sample([f"s{i}" for i in range(len(counts))], counts, seed=len(counts))
        mean = MeanEstimate(grid, np.sin(grid.points), 1.0)
        raw = raw_covariances(sample, mean)
        ref = loop_raw_covariances(sample, mean)
        for name in ("s1", "s2", "value", "subject"):
            got, want = getattr(raw, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_pair_counts(self, grid, domain):
        sample = SparseFunctionalSample(
            domain,
            (
                SubjectRecord("a", np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])),
                SubjectRecord("b", np.array([4.0]), np.array([4.0])),
                SubjectRecord("c", np.array([]), np.array([])),
            ),
        )
        raw = raw_covariances(sample, self.zero_mean(grid))
        # ordered off-diagonal pairs: 3*2 from a, none from b or c
        assert raw.n_pairs == 6
        assert raw.times_a.size == 4

    def test_products_and_symmetry(self, grid, domain):
        sample = SparseFunctionalSample(
            domain,
            (SubjectRecord("a", np.array([1.0, 2.0]), np.array([3.0, -2.0])),),
        )
        raw = raw_covariances(sample, self.zero_mean(grid))
        pairs = {(t1, t2): v for t1, t2, v in zip(raw.s1, raw.s2, raw.value)}
        assert pairs[(1.0, 2.0)] == -6.0
        assert pairs[(2.0, 1.0)] == -6.0
        assert len(pairs) == 2

    def test_mean_is_subtracted(self, grid, domain):
        sample = SparseFunctionalSample(
            domain, (SubjectRecord("a", np.array([0.0, 10.0]), np.array([5.0, 5.0])),)
        )
        mean = MeanEstimate(grid, np.full(grid.n_points, 5.0), 1.0)
        raw = raw_covariances(sample, mean)
        assert np.max(np.abs(raw.value)) == 0.0
        assert np.max(np.abs(raw.resid_a)) == 0.0


class TestEstimateCovariance:
    def test_zero_residuals_give_zero_surface(self, grid):
        n = 300
        raw = handmade_raw(
            RNG.uniform(0, 10, n), RNG.uniform(0, 10, n), np.zeros(n)
        )
        cov = estimate_covariance(raw, grid, FpcaConfig(cov_bandwidth=2.0))
        assert np.max(np.abs(cov.surface)) < 1e-12

    def test_surface_is_symmetric(self, grid):
        n = 400
        s1 = RNG.uniform(0, 10, n)
        s2 = RNG.uniform(0, 10, n)
        raw = handmade_raw(s1, s2, RNG.normal(size=n))
        cov = estimate_covariance(raw, grid, FpcaConfig(cov_bandwidth=2.5))
        assert np.array_equal(cov.surface, cov.surface.T)

    def test_binned_path_matches_on_grid_scatter(self, grid, monkeypatch):
        # points placed exactly on nodes make snapping lossless, so the
        # binned fit must agree with the unbinned one
        nodes = grid.points
        idx1 = RNG.integers(0, nodes.size, 800)
        idx2 = RNG.integers(0, nodes.size, 800)
        z = RNG.normal(size=800)
        raw = handmade_raw(nodes[idx1], nodes[idx2], z)
        config = FpcaConfig(cov_bandwidth=2.0)
        monkeypatch.setattr(sparseflr.fpca, "BIN_THRESHOLD", 10**9)
        plain = estimate_covariance(raw, grid, config)
        monkeypatch.setattr(sparseflr.fpca, "BIN_THRESHOLD", 1)
        binned = estimate_covariance(raw, grid, config)
        assert not plain.binned and binned.binned
        assert np.max(np.abs(plain.surface - binned.surface)) < 1e-9


    @pytest.mark.parametrize("bin_threshold", [10**9, 100])
    def test_search_fit_is_the_estimate(self, grid, monkeypatch, bin_threshold):
        counts = {"bin": 0, "fit": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        bin_fn = counted("bin", sparseflr.smoothing.bin_scatter_2d)
        fit_fn = counted("fit", local_linear_2d)
        monkeypatch.setattr(sparseflr.fpca, "bin_scatter_2d", bin_fn)
        monkeypatch.setattr(sparseflr.fpca, "local_linear_2d", fit_fn)
        monkeypatch.setattr(sparseflr.smoothing, "local_linear_2d", fit_fn)
        monkeypatch.setattr(sparseflr.fpca, "BIN_THRESHOLD", bin_threshold)
        n = 600
        raw = handmade_raw(
            RNG.uniform(0, 10, n), RNG.uniform(0, 10, n), RNG.normal(size=n)
        )
        fractions = (0.15, 0.25, 0.4)
        cov = estimate_covariance(raw, grid, FpcaConfig(cov_bandwidth_fractions=fractions))
        # a binned scatter fits each candidate; an unbinned one fits each to
        # its linear binning, then the winner exactly
        fits = len(fractions) + (not cov.binned)
        assert counts == {"bin": int(cov.binned), "fit": fits}
        assert cov.binned == (bin_threshold < n)
        fixed = estimate_covariance(raw, grid, FpcaConfig(cov_bandwidth=cov.bandwidth))
        assert np.array_equal(cov.surface, fixed.surface)

    def test_loso_selects_on_unbinned_pairs(self, grid, monkeypatch):
        # 30 subjects of 4 observations: 12 pairs each, 360 in all
        sample = ragged_sample([f"s{i}" for i in range(30)], [4] * 30, seed=5)
        raw = raw_covariances(sample, MeanEstimate(grid, np.zeros(grid.n_points), 1.0))
        monkeypatch.setattr(sparseflr.fpca, "BIN_THRESHOLD", 100)
        config = FpcaConfig(cov_bandwidth_fractions=(0.2, 0.4), bandwidth_objective="loso-cv")
        cov = estimate_covariance(raw, grid, config)
        assert cov.binned and cov.bandwidth in (2.0, 4.0)
        fixed = estimate_covariance(raw, grid, FpcaConfig(cov_bandwidth=cov.bandwidth))
        assert np.array_equal(cov.surface, fixed.surface)

    # Known failure, kept visible: near-singular local planes pass the
    # degeneracy tolerance on small cohorts and leave the data. On this one
    # (sparse n=10, seed 6, both counts fixed at 2) the X surface peaks at
    # node (0.0, 3.8), bandwidth 1.8, far above every raw product; the gate
    # is 3 times their largest magnitude. The xfail reason reports the
    # ratio; any other failure, or a ratio within the gate, fails the test.
    @pytest.mark.xfail(strict=True, raises=pytest.xfail.Exception,
                       reason="near-singular local planes extrapolate the surface")
    def test_small_cohort_surface_stays_near_the_raw_products(self):
        sample, _, _ = gen_pair(SimConfig(n_subjects=10, seed=6), np.random.default_rng(6))
        model = fit_fpca(sample, FpcaConfig(), 2)
        raw = raw_covariances(sample, MeanEstimate(model.grid, model.mean, model.mean_bandwidth))
        ratio = float(np.abs(model.surface).max() / np.abs(raw.value).max())
        if not ratio <= 3.0:
            pytest.xfail(f"max|surface| is {ratio:.1f} times max|raw product|")


class TestNoiseVariance:
    def test_constant_inflation_recovered(self, grid):
        # 400 subjects of 2 to 6 observations from the six-component model,
        # each observation's variance inflated by the noise variance 0.37:
        # the likelihood at the true eigenpairs recovers it
        model = six_component_model(grid, 0.37)
        rng = np.random.default_rng(23)
        subjects = []
        for i in range(400):
            t = np.sort(rng.uniform(0.0, 10.0, rng.integers(2, 7)))
            curve = model.mean_at(t) + (rng.normal(size=6) * np.sqrt(model.eigenvalues)) @ (
                model.eigenfunctions_at(t)
            )
            subjects.append(SubjectRecord(f"s{i}", t, curve + rng.normal(0.0, np.sqrt(0.37), t.size)))
        sample = SparseFunctionalSample(grid.interval, tuple(subjects))
        assert estimate_noise_variance(sample, model, 6) == pytest.approx(0.37, rel=0.1)


def brute_pair_indices(starts_a, counts_a, starts_b=None, counts_b=None):
    """Reference for ``_pair_indices``: the double loop over each subject's
    rows and columns."""
    self_pairs = starts_b is None
    if self_pairs:
        starts_b, counts_b = starts_a, counts_a
    a, b, g = [], [], []
    for s in range(len(counts_a)):
        for r in range(counts_a[s]):
            for c in range(counts_b[s]):
                if not (self_pairs and r == c):
                    a.append(starts_a[s] + r)
                    b.append(starts_b[s] + c)
                    g.append(s)
    return tuple(np.array(v, dtype=np.int32) for v in (a, b, g))


class TestPairIndices:
    @staticmethod
    def count_vectors(rng, n=200):
        """Random count vectors, rich in zeros and singletons; the first is
        empty."""
        for i in range(n):
            yield rng.choice([0, 1, 1, 2, 3, 5], size=i % 9)

    def test_off_diagonal_form_matches_double_loop(self):
        rng = np.random.default_rng(16)
        for counts in self.count_vectors(rng):
            counts = counts.astype(np.intp)
            starts = np.cumsum(counts) - counts
            got = _pair_indices(starts, counts)
            want = brute_pair_indices(starts, counts)
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and np.array_equal(x, y), counts

    def test_cross_form_matches_double_loop(self):
        # built as ``flr._cross_raw_pairs`` builds it: an unmatched
        # predictor (match -1) pairs with the trailing empty response entry
        rng = np.random.default_rng(17)
        for count_x in self.count_vectors(rng):
            count_x = count_x.astype(np.intp)
            count_y = np.append(rng.choice([0, 1, 2, 4], size=rng.integers(0, 6)), 0)
            match = rng.integers(-1, count_y.size - 1, size=count_x.size)
            start_y = np.cumsum(count_y) - count_y
            args = (np.cumsum(count_x) - count_x, count_x, start_y[match], count_y[match])
            got = _pair_indices(*args)
            want = brute_pair_indices(*args)
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and np.array_equal(x, y), (count_x, match)

    def test_index_dtype_widens_at_two_to_the_31(self):
        # sizes only: nothing of that length is allocated
        assert _index_dtype() is np.int32
        assert _index_dtype(0, 2**31 - 1) is np.int32
        assert _index_dtype(2**31) is np.intp
        assert _index_dtype(5, 2**31, 7) is np.intp

    @pytest.mark.parametrize("start_b, dtype", [(2**31 - 2, np.int32), (2**31 - 1, np.intp)])
    def test_observation_extent_sets_the_dtype(self, start_b, dtype):
        # one subject pairs two points with one point at start_b, so the
        # pooled b side reaches start_b + 1 while only two pairs are formed
        one = np.ones(1, dtype=np.intp)
        a, b, subject = _pair_indices(0 * one, 2 * one, start_b * one, one)
        for got, want in zip((a, b, subject), ([0, 1], [start_b, start_b], [0, 0])):
            assert got.dtype == dtype and got.tolist() == want


def public_covariance(raw, grid, config):
    """``estimate_covariance`` of a binned scatter as the public functions
    compose it on materialized pairs: (surface, bandwidth)."""
    kern, g, length = get_kernel(config.kernel), grid.points, grid.interval.length
    x1, x2, z, w = bin_scatter_2d(raw.s1, raw.s2, raw.value, g, g)
    if config.cov_bandwidth is None:
        sel = select_bandwidth_2d(
            x1, x2, z, [(f * length, f * length) for f in config.cov_bandwidth_fractions],
            g, g, kern, weights=w,
        )
        h, surface = sel.chosen, sel.fit
    else:
        h = (config.cov_bandwidth, config.cov_bandwidth)
        surface = local_linear_2d(x1, x2, z, g, g, h, kern, weights=w)
    return 0.5 * (surface + surface.T), h[0]


@pytest.fixture(scope="module")
def raws(dense_pair, grid):
    """(raw covariances, the per-subject loop's pairs) of both samples of
    the dense n=100 cohort, above ``BIN_THRESHOLD``."""
    out = []
    for sample in dense_pair[:2]:
        mean = estimate_mean(sample, grid)
        out.append((raw_covariances(sample, mean), loop_raw_covariances(sample, mean)))
    assert all(raw.n_pairs > BIN_THRESHOLD for raw, _ in out)
    return out


def assert_chunked_lattice(raw, pairs, grid):
    """The lattice ``bin_scatter_2d`` bins from ``raw.chunks()`` is that of
    the materialized ``pairs`` (s1, s2, value), bit for bit, and its node
    sums are those one ``bincount`` adds in point order."""
    g = grid.points
    chunks = ((a, b, raw.products(a, b)) for a, b in raw.chunks())
    got = bin_scatter_2d(raw.times_a, raw.times_b, None, g, g, pairs=chunks)
    want = bin_scatter_2d(*pairs, g, g)
    for x, y in zip(got, want):
        assert np.array_equal(x, y)
    node = sparseflr.smoothing._nearest_node
    flat = node(pairs[0], g) * g.size + node(pairs[1], g)
    counts = np.bincount(flat, None, g.size**2)
    sums = np.bincount(flat, pairs[2], g.size**2)
    assert np.array_equal(got[2], sums[counts > 0] / counts[counts > 0])


def assert_chunked_stages(raw, loop, grid):
    """Lattice and surfaces of a binned ``raw`` against the public functions
    on the loop's materialized pairs, with no tolerance."""
    assert_chunked_lattice(raw, (loop.s1, loop.s2, loop.value), grid)
    for config in (FpcaConfig(), FpcaConfig(cov_bandwidth=1.3, kernel="quartic")):
        cov = estimate_covariance(raw, grid, config)
        surface, bandwidth = public_covariance(loop, grid, config)
        assert cov.binned and cov.bandwidth == bandwidth
        assert np.array_equal(cov.surface, surface)


class TestPairChunks:
    """The stages that form pairs a run of subjects at a time give the same
    bits at any chunk size, with chunk boundaries inside and between runs."""

    def test_dense_cohorts(self, raws, grid, pair_chunk):
        for raw, loop in raws:
            assert_chunked_stages(raw, loop, grid)

    def test_ragged_sample(self, grid, monkeypatch, pair_chunk):
        # empty and single-observation subjects, times tied on a 0.5 lattice,
        # and a last subject of 33 * 32 = 1056 pairs, more than a chunk
        counts = [0, 3, 1, 0, 5, 2, 1, 8, 0, 4, 33, 1]
        sample = ragged_sample([f"s{i}" for i in range(len(counts))], counts, seed=12)
        mean = MeanEstimate(grid, np.sin(grid.points), 1.0)
        raw = raw_covariances(sample, mean)
        assert max(c * (c - 1) for c in counts) > pair_chunk
        monkeypatch.setattr(sparseflr.fpca, "BIN_THRESHOLD", 1)
        assert_chunked_stages(raw, loop_raw_covariances(sample, mean), grid)


class TestPairScatterMatchesPublicComposition:
    """The fit's binned pair stage against the public functions on
    materialized pairs (the per-subject loop's), with no tolerance, on a
    cohort above ``BIN_THRESHOLD``."""

    @pytest.mark.parametrize("config", [FpcaConfig(), FpcaConfig(cov_bandwidth=1.3, kernel="quartic")])
    def test_covariance(self, raws, grid, config):
        for raw, loop in raws:
            cov = estimate_covariance(raw, grid, config)
            surface, bandwidth = public_covariance(loop, grid, config)
            assert cov.binned and cov.bandwidth == bandwidth
            assert np.array_equal(cov.surface, surface)


class TestPairScatterMemory:
    # Peak traced allocation of ``fit_fpca`` on the dense n=100 cohort, in
    # units of one float per raw pair: 2.67 measured, at the covariance
    # stage, which bins the pairs a chunk at a time (5.38 when the raw
    # scatter held every pair as 4-byte indices and a product, with the
    # peak at the rotated diagonal fit, 7.58 with 8-byte indices and
    # full-length band temporaries, 10.10 when the pair coordinates were
    # formed as well), plus a margin of 0.42. A float array per pair that
    # outlives its stage adds 1.
    PEAK_PAIR_FLOATS = 3.09

    def test_binned_fit_forms_pairs_a_chunk_at_a_time(self, dense_pair, monkeypatch):
        # each binned surface forms its pairs once, never more than a chunk
        # at a time
        sizes = []

        def recorded(*args):
            out = _pair_indices(*args)
            sizes.append(out[0].size)
            return out

        monkeypatch.setattr(sparseflr.fpca, "_pair_indices", recorded)
        model = fit_flr(*dense_pair[:2])
        n_marginal = sum(int((s.counts * (s.counts - 1)).sum()) for s in dense_pair[:2])
        assert model.cross.binned and min(model.cross.n_pairs, n_marginal) > 2 * BIN_THRESHOLD
        assert sum(sizes) == n_marginal + model.cross.n_pairs
        assert max(sizes) <= sparseflr.smoothing._PAIR_CHUNK

    def test_pair_indices_are_four_bytes(self, dense_pair, grid):
        sample = dense_pair[0]
        raw = raw_covariances(sample, estimate_mean(sample, grid))
        assert raw.n_pairs > BIN_THRESHOLD
        for a, b in raw.chunks():
            assert a.dtype == b.dtype == np.int32
        assert raw.subject.dtype == np.int32

    def test_binned_fit_holds_no_full_length_temporary(self, dense_pair):
        sample = dense_pair[0]
        fit_fpca(sample)  # caches and lazy imports
        n_pairs = int((sample.counts * (sample.counts - 1)).sum())
        tracemalloc.start()
        try:
            fit_fpca(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"peak {peak / (8 * n_pairs):.2f} floats per pair")
        assert peak <= self.PEAK_PAIR_FLOATS * 8 * n_pairs


class TestEigendecompose:
    def test_rank_two_truth_surface(self, design, grid):
        # the two harmonics have full period on the domain, so trapezoid
        # quadrature is exact and the discrete eigenpairs hit the
        # population values at rounding error
        cov = CovarianceEstimate(grid, design.cov_x(grid.points), 1.0)
        eig = eigendecompose(cov)
        assert eig.n_retained == 2
        assert np.allclose(eig.eigenvalues, [2.0, 1.0], rtol=1e-12, atol=1e-12)
        psi = design.psi(grid.points)
        for row, truth in zip(eig.functions, psi):
            err = min(np.max(np.abs(row - truth)), np.max(np.abs(row + truth)))
            assert err < 1e-10

    def test_orthonormal_under_trapezoid_weights(self, design, grid):
        cov = CovarianceEstimate(grid, design.cov_x(grid.points), 1.0)
        eig = eigendecompose(cov)
        w = grid.trapezoid_weights
        gram = (eig.functions * w) @ eig.functions.T
        assert np.max(np.abs(gram - np.eye(eig.n_retained))) < 1e-8

    def test_descending_order_and_positive(self, fitted):
        for marginal in (fitted.x, fitted.y):
            lam = marginal.eigenvalues
            assert (lam > 0).all()
            assert (np.diff(lam) <= 1e-12).all()

    def test_sign_convention_nonnegative_integral(self, design, grid):
        cov = CovarianceEstimate(grid, design.cov_x(grid.points), 1.0)
        eig = eigendecompose(cov)
        w = grid.trapezoid_weights
        for row in eig.functions:
            integral = float(w @ row)
            if abs(integral) > 1e-8:
                assert integral > 0
            else:
                assert row[np.argmax(np.abs(row))] > 0

    def test_zero_surface_rejected(self, grid):
        cov = CovarianceEstimate(grid, np.zeros((grid.n_points,) * 2), 1.0)
        with pytest.raises(FitError):
            eigendecompose(cov)

    def test_variance_fractions_sum_to_one(self, fitted):
        fr = fitted.x.eigensystem.variance_fractions()
        assert abs(fr.sum() - 1.0) < 1e-12


class TestPaceScores:
    def test_zero_residuals_give_zero_scores(self, truth_x_model):
        times = np.array([2.0, 5.0, 7.0])
        values = truth_x_model.mean_at(times)
        pred = pace_scores(truth_x_model, times, values)
        assert np.array_equal(pred.scores, np.zeros(2))

    def test_no_observations_fall_back_to_prior(self, truth_x_model):
        pred = pace_scores(truth_x_model, np.array([]), np.array([]))
        assert pred.no_data
        assert np.array_equal(pred.scores, np.zeros(2))
        assert np.array_equal(pred.omega, np.diag([2.0, 1.0]))

    def test_single_observation_closed_form(self, truth_x_model):
        # one residual of 1.0 at the domain midpoint: the first harmonic
        # vanishes there, the second contributes rho * psi / (var + noise)
        times = np.array([5.0])
        values = truth_x_model.mean_at(times) + 1.0
        pred = pace_scores(truth_x_model, times, values)
        expected = (1.0 / math.sqrt(5.0)) / 0.45
        assert abs(pred.scores[0]) < 1e-10
        assert abs(pred.scores[1] - expected) < 1e-10

    def test_dense_noiseless_scores_match_quadrature(self, design, grid):
        model = make_truth_model(design, grid, noise_var=1e-6)
        psi = design.psi(grid.points)
        curve = design.mu_x(grid.points) + 2.0 * psi[0] - 1.0 * psi[1]
        pred = pace_scores(model, grid.points, curve)
        resid = curve - design.mu_x(grid.points)
        quad = np.array([grid.integrate(resid * psi[0]), grid.integrate(resid * psi[1])])
        assert np.max(np.abs(pred.scores - quad)) < 0.02 * np.max(np.abs(quad))

    def test_observation_covariance_construction(self, truth_x_model):
        times = np.array([2.0, 7.0])
        values = truth_x_model.mean_at(times) + np.array([0.5, -0.5])
        pred = pace_scores(truth_x_model, times, values)
        psi = truth_x_model.eigenfunctions_at(times)
        expected = psi.T @ (np.array([2.0, 1.0])[:, None] * psi) + 0.25 * np.eye(2)
        assert np.max(np.abs(pred.sigma_u - expected)) < 1e-12

    def test_omega_psd_and_dominated_by_prior(self, truth_x_model):
        rng = np.random.default_rng(5)
        for _ in range(20):
            times = np.sort(rng.uniform(0, 10, rng.integers(1, 6)))
            values = truth_x_model.mean_at(times) + rng.normal(size=times.size)
            pred = pace_scores(truth_x_model, times, values)
            assert np.max(np.abs(pred.omega - pred.omega.T)) < 1e-12
            assert np.linalg.eigvalsh(pred.omega).min() > -1e-12
            gap = np.diag([2.0, 1.0]) - pred.omega
            assert np.linalg.eigvalsh(gap).min() > -1e-10

    @given(
        s=st.floats(min_value=0.0, max_value=10.0),
        r=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_single_component_shrinkage_bound(self, s, r):
        from conftest import DOMAIN

        grid = RegularGrid(DOMAIN, 51)
        pts = grid.points
        psi1 = -np.cos(np.pi * pts / 10.0) / np.sqrt(5.0)
        model = FpcaModel(
            grid=grid,
            mean=np.zeros(pts.size),
            surface=2.0 * np.outer(psi1, psi1),
            noise_var=0.25,
            eigenvalues=np.array([2.0]),
            eigenfunctions=psi1[None, :],
            n_components=1,
            mean_bandwidth=1.0,
            cov_bandwidth=1.0,
        )
        pred = pace_scores(model, np.array([s]), np.array([r]))
        bound = 2.0 * np.max(np.abs(psi1)) * abs(r) / model.noise_var
        assert abs(pred.scores[0]) <= bound + 1e-9

    def test_singular_observation_covariance_is_ridged(self, design, grid):
        model = make_truth_model(design, grid, noise_var=0.0)
        times = np.array([3.0, 3.0])
        values = model.mean_at(times) + np.array([1.0, 1.0])
        pred = pace_scores(model, times, values)
        assert pred.ridged
        assert np.isfinite(pred.scores).all()
        lam = np.linalg.eigvalsh(pred.sigma_u)
        assert lam.min() > 1e-12 * lam.max()


def six_component_model(grid, noise_var):
    """Orthonormal cosine components with halving variances."""
    pts = grid.points
    k = np.arange(1, 7)[:, None]
    funcs = np.cos(k * np.pi * pts / 10.0) / np.sqrt(5.0)
    rho = 2.0 ** -np.arange(6.0)
    return FpcaModel(
        grid=grid,
        mean=np.sin(pts),
        surface=funcs.T @ (rho[:, None] * funcs),
        noise_var=noise_var,
        eigenvalues=rho,
        eigenfunctions=funcs,
        n_components=6,
        mean_bandwidth=1.0,
        cov_bandwidth=1.0,
    )


def mixed_cohort():
    """Observation counts 0, 1, 3, 3, 4, 5 and 25; one pair of duplicate times."""
    rng = np.random.default_rng(17)
    times = [
        np.array([]),
        np.array([2.3]),
        np.array([1.1, 4.2, 8.7]),
        np.array([3.0, 3.0, 7.5]),
        np.sort(rng.uniform(0, 10, 4)),
        np.sort(rng.uniform(0, 10, 5)),
        np.sort(rng.uniform(0, 10, 25)),
    ]
    return [
        SubjectRecord(f"s{i}", t, np.sin(t) + rng.normal(size=t.size))
        for i, t in enumerate(times)
    ]


class TestPaceScoresBatch:
    @pytest.mark.parametrize("noise_var", [0.0, 0.25])
    def test_matches_scalar_reference(self, grid, noise_var):
        model = six_component_model(grid, noise_var)
        subjects = mixed_cohort()
        batch = pace_scores_batch(model, subjects)
        for i, subj in enumerate(subjects):
            scores, omega, ridged, clipped = scalar_pace_scores(
                model, subj.times, subj.values, 6
            )
            assert np.max(np.abs(batch.scores[i] - scores)) <= 1e-12
            assert np.max(np.abs(batch.omega[i] - omega)) <= 1e-12
            assert batch.ridged[i] == ridged
            assert batch.omega_clipped[i] == clipped
            assert batch.no_data[i] == (subj.n_obs == 0)
        if noise_var == 0.0:
            # without noise the duplicate times and the 25 points beyond six
            # components make Sigma_U singular; the cohort covers both repairs
            assert batch.ridged.tolist() == [False, False, False, True, False, False, True]
            assert batch.omega_clipped.any() and not batch.omega_clipped.all()

    def test_batch_of_one_equals_batch_row(self, grid):
        model = six_component_model(grid, 0.0)
        subjects = mixed_cohort()
        batch = pace_scores_batch(model, subjects, 4)
        for i, subj in enumerate(subjects):
            one = pace_scores(model, subj.times, subj.values, 4)
            assert np.array_equal(one.scores, batch.scores[i])
            assert np.array_equal(one.omega, batch.omega[i])
            assert (one.ridged, one.omega_clipped, one.no_data) == (
                batch.ridged[i], batch.omega_clipped[i], batch.no_data[i]
            )

    def test_subject_order_does_not_change_results(self, grid):
        model = six_component_model(grid, 0.0)
        subjects = mixed_cohort()
        batch = pace_scores_batch(model, subjects)
        for order in (np.arange(7)[::-1], np.random.default_rng(3).permutation(7)):
            other = pace_scores_batch(model, [subjects[i] for i in order])
            for field in ("scores", "omega", "ridged", "omega_clipped", "no_data"):
                assert np.array_equal(getattr(other, field), getattr(batch, field)[order])

    def test_component_count_validated(self, truth_x_model):
        with pytest.raises(ValueError):
            pace_scores_batch(truth_x_model, [], 3)


def previous_score_group(model, psi, resid):
    """The scoring kernel as it was before it learned to skip eigensolves
    and to solve once, kept as the reference: an eigenvalue ridge test,
    separate solves for the scores and omega, and ``eigh`` on every omega.
    ``psi`` (G, m, L) and ``resid`` (G, L); returns (scores, omega, ridged,
    omega_clipped)."""
    n_obs = psi.shape[2]
    rho = model.eigenvalues[: psi.shape[1]]
    h = rho[:, None] * psi
    eye = np.eye(n_obs)
    sigma = psi.transpose(0, 2, 1) @ h + model.noise_var * eye
    sigma = 0.5 * (sigma + sigma.transpose(0, 2, 1))
    lam = np.abs(np.linalg.eigvalsh(sigma))
    amax, amin = lam.max(axis=1), lam.min(axis=1)
    ridged = ~((amax > 0.0) & (amin > 1e-12 * amax))
    if ridged.any():
        trace = np.trace(sigma[ridged], axis1=1, axis2=2)
        floor = np.maximum(np.maximum(trace, amax[ridged]), np.finfo(float).tiny)
        sigma[ridged] += (1e-8 * floor / n_obs)[:, None, None] * eye
    scores = (h @ np.linalg.solve(sigma, resid[:, :, None]))[:, :, 0]
    omega = np.diag(rho) - h @ np.linalg.solve(sigma, h.transpose(0, 2, 1))
    omega = 0.5 * (omega + omega.transpose(0, 2, 1))
    lam, vec = np.linalg.eigh(omega)
    clipped = ~(lam[:, 0] >= 0)
    if clipped.any():
        v = vec[clipped]
        c = (v * np.maximum(lam[clipped], 0.0)[:, None, :]) @ v.transpose(0, 2, 1)
        omega[clipped] = 0.5 * (c + c.transpose(0, 2, 1))
    return scores, omega, ridged, clipped


def assert_kernel_matches_previous(model, subjects, m):
    """Each observation-count group of ``subjects``, stacked as
    ``pace_scores_batch`` stacks it, scored by ``_score_group`` and by the
    previous kernel: equal ridge and clip flags, the ridged subjects' scores
    and omega bit for bit, every other subject's within 1e-12 of its
    largest magnitude."""
    for n_obs in sorted({s.n_obs for s in subjects} - {0}):
        group = [s for s in subjects if s.n_obs == n_obs]
        times = np.array([s.times for s in group])
        psi = np.ascontiguousarray(model.eigenfunctions_at(times, m).transpose(1, 0, 2))
        resid = np.array([s.values for s in group]) - model.mean_at(times)
        _, _, scores, omega, ridged, clipped = sparseflr.fpca._score_group(model, psi, resid)
        want_scores, want_omega, want_ridged, want_clipped = previous_score_group(
            model, psi, resid
        )
        assert np.array_equal(ridged, want_ridged)
        assert np.array_equal(clipped, want_clipped)
        for got, want in ((scores, want_scores), (omega, want_omega)):
            assert np.array_equal(got[ridged], want[ridged])
            err = np.abs(got - want).reshape(len(group), -1).max(axis=1)
            scale = np.abs(want).reshape(len(group), -1).max(axis=1)
            assert (err <= 1e-12 * scale).all()


class TestScoreKernel:
    @pytest.mark.parametrize("noise_var", [0.0, 0.25])
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_matches_previous_kernel_on_mixed_cohort(self, grid, noise_var, m):
        model = six_component_model(grid, noise_var)
        subjects = mixed_cohort()
        assert_kernel_matches_previous(model, subjects, m)
        if noise_var == 0.0 and m == 6:
            # the cohort has ridged and clipped subjects for both to agree on
            batch = pace_scores_batch(model, subjects, m)
            assert batch.ridged.any() and batch.omega_clipped.any()

    # the 15-fit set: sparse n = 100, 400, 2000 and dense n = 100, 400, seeds 0-2
    @pytest.mark.parametrize("sparsity, n", [
        ("sparse", 100), ("sparse", 400), ("sparse", 2000), ("dense", 100), ("dense", 400),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_previous_kernel_on_fitted_models(self, sparsity, n, seed):
        config = SimConfig(n_subjects=n, sparsity=sparsity, seed=seed)
        x, y, _ = gen_pair(config, np.random.default_rng(seed))
        fit = fit_flr(x, y)
        for model, sample in ((fit.x, x), (fit.y, y)):
            for m in {model.n_components, min(10, model.eigenvalues.size)}:
                assert_kernel_matches_previous(model, sample.subjects, m)

    @settings(max_examples=200)
    @given(
        n_obs=st.integers(1, 30),
        m=st.integers(1, 10),
        noise=st.one_of(
            st.sampled_from([0.0, 1e-14, 1.0]), st.floats(-14.0, 0.0).map(lambda e: 10.0**e)
        ),
        duplicates=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ridge_shortcut_never_skips_a_ridge(self, n_obs, m, noise, duplicates, seed):
        """Where ``_score_group`` skips the eigenvalue test, the test would
        not ridge; ``noise`` is the noise variance as a fraction of the
        noise-free trace of Sigma_U."""
        rng = np.random.default_rng(seed)
        grid = RegularGrid(Interval(0.0, 10.0), 11)
        rho = np.sort(rng.uniform(0.0, 2.0, m) * (rng.uniform(size=m) < 0.9))[::-1]
        funcs = rng.normal(size=(m, grid.n_points))
        times = rng.uniform(0.0, 10.0, n_obs)
        if duplicates:
            times = np.repeat(times[: (n_obs + 1) // 2], 2)[:n_obs]
        psi = np.array([np.interp(times, grid.points, f) for f in funcs])
        trace = float(np.einsum("ml,m,ml->", psi, rho, psi))
        model = FpcaModel(
            grid=grid, mean=np.zeros(grid.n_points), surface=np.zeros((11, 11)),
            noise_var=noise * trace, eigenvalues=rho, eigenfunctions=funcs,
            n_components=m, mean_bandwidth=1.0, cov_bandwidth=1.0,
        )
        _, _, want_ridged, _ = previous_score_group(model, psi[None], np.zeros((1, n_obs)))
        if n_obs <= model._ridge_free_obs:
            assert not want_ridged[0]
        got = sparseflr.fpca._score_group(model, psi, np.zeros(n_obs))
        assert bool(got[4]) == bool(want_ridged[0])

    def test_no_shortcut_past_a_negative_eigenvalue(self, grid):
        model = dataclasses.replace(
            six_component_model(grid, 0.25), eigenvalues=np.array([1.0, 0.5, -0.1, 0.1, 0.1, 0.1])
        )
        assert model._ridge_free_obs == 0
        assert six_component_model(grid, 0.25)._ridge_free_obs > 30
        assert six_component_model(grid, 0.0)._ridge_free_obs == 0


class TestEigenfunctionsAt:
    def test_matches_per_row_interp_bit_for_bit(self, grid):
        """One shared interval search equals np.interp row by row, bit for bit:
        clamped ends, times on nodes and signed zeros included."""
        funcs = six_component_model(grid, 0.25).eigenfunctions.copy()
        funcs[0, 3] = -0.0
        funcs[1, :5] = 0.0
        funcs[1, 2] = -0.0
        funcs[2, 7:9] = [-0.0, 0.0]
        model = dataclasses.replace(six_component_model(grid, 0.25), eigenfunctions=funcs)
        pts = grid.points
        lo, hi = pts[0], pts[-1]
        t = np.concatenate([
            np.random.default_rng(4).uniform(lo - 2.0, hi + 2.0, 400),
            pts,
            np.nextafter(pts, -np.inf),
            np.nextafter(pts, np.inf),
            [-0.0, lo - 1e-300, hi + 1e-12, -5.0, 15.0],
        ])
        for n in (None, 0, 1, 4, 6):
            got = model.eigenfunctions_at(t, n)
            rows = funcs[: 6 if n is None else n]
            want = np.array([np.interp(t, pts, row) for row in rows]).reshape(len(rows), t.size)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def brute_loglik(model, sample, k, sigma2):
    """Reference for ``_marginal_loglik``: -1/2 sum_i [log det Sigma_i +
    r_i^T Sigma_i^-1 r_i] over each subject's L_i x L_i covariance at k
    components, by ``slogdet`` and ``solve``."""
    total = 0.0
    for subj in sample.subjects:
        if subj.n_obs == 0:
            continue
        psi = model.eigenfunctions_at(subj.times, k)
        resid = subj.values - model.mean_at(subj.times)
        sigma = psi.T @ (model.eigenvalues[:k, None] * psi) + sigma2 * np.eye(subj.n_obs)
        sign, logdet = np.linalg.slogdet(sigma)
        assert sign > 0
        total += logdet + resid @ np.linalg.solve(sigma, resid)
    return -0.5 * total


def six_component_cohort(seed=17):
    """The mixed cohort's counts and times (an empty subject, one of one
    observation, tied times, and counts below six), its values drawn from
    ``six_component_model``: mean, component scores and noise of variance
    0.25."""
    model = six_component_model(RegularGrid(Interval(0.0, 10.0), 51), 0.25)
    rng = np.random.default_rng(seed)
    subjects = []
    for subj in mixed_cohort():
        scores = rng.normal(size=6) * np.sqrt(model.eigenvalues)
        curve = model.mean_at(subj.times) + scores @ model.eigenfunctions_at(subj.times)
        subjects.append(SubjectRecord(subj.subject_id, subj.times, curve + rng.normal(0.0, 0.5, subj.n_obs)))
    return SparseFunctionalSample(Interval(0.0, 10.0), tuple(subjects))


@pytest.fixture(scope="module")
def likelihood_cases(sparse_pair):
    """(model, sample) pairs: the six-component model on the mixed cohort,
    and the fitted predictor model on its sparse sample."""
    x_sample = sparse_pair[0]
    return [
        (six_component_model(RegularGrid(Interval(0.0, 10.0), 51), 0.25), six_component_cohort()),
        (fit_fpca(x_sample), x_sample),
    ]


class TestMarginalLikelihood:
    def test_matches_brute_force_at_every_count(self, likelihood_cases):
        for model, sample in likelihood_cases:
            counts = list(range(1, min(10, model.eigenvalues.size) + 1))
            sigma2, loglik = _marginal_loglik(model, sample, counts)
            for k, s2, ll in zip(counts, sigma2, loglik):
                want = brute_loglik(model, sample, k, s2)
                assert abs(ll - want) <= 1e-12 * abs(want), k

    def test_noise_variance_is_not_beaten_nearby(self, likelihood_cases):
        for model, sample in likelihood_cases:
            counts = list(range(1, min(10, model.eigenvalues.size) + 1))
            sigma2, _ = _marginal_loglik(model, sample, counts)
            for k, s2 in zip(counts, sigma2):
                best = brute_loglik(model, sample, k, s2)
                for factor in (1.0 - 1e-4, 1.0 + 1e-4):
                    assert brute_loglik(model, sample, k, factor * s2) <= best, (k, factor)

    def test_bic_pick_is_the_brute_force_argmin(self, likelihood_cases):
        for model, sample in likelihood_cases:
            max_m = min(10, model.eigenvalues.size)
            n, info = select_ncomp(sample, model, FpcaConfig(max_components=max_m))
            n_subjects = sum(s.n_obs > 0 for s in sample.subjects)
            want = [
                -2.0 * brute_loglik(model, sample, k, s2) + (k + 1) * math.log(n_subjects)
                for k, s2 in zip(range(1, max_m + 1), info["noise_var"])
            ]
            assert info["method"] == "bic" and n == info["chosen"]
            assert np.allclose(info["criterion"], want, rtol=1e-12, atol=0.0)
            assert n == int(np.argmin(want)) + 1

    def test_counts_are_searched_alone_as_together(self, likelihood_cases):
        # the searches differ, and each ends within its tolerance of the same
        # maximizer
        for model, sample in likelihood_cases:
            together, _ = _marginal_loglik(model, sample, [1, 2, 3, 4, 5, 6])
            for k in (1, 3, 6):
                got = estimate_noise_variance(sample, model, k)
                assert got == pytest.approx(together[k - 1], rel=1e-4)

    def test_zero_residuals_give_zero_noise(self, grid):
        model = six_component_model(grid, 0.25)
        subjects = tuple(
            SubjectRecord(s.subject_id, s.times, model.mean_at(s.times)) for s in mixed_cohort()
        )
        sample = SparseFunctionalSample(Interval(0.0, 10.0), subjects)
        sigma2, loglik = _marginal_loglik(model, sample, [1, 4, 6])
        assert sigma2.tolist() == [0.0] * 3 and np.isposinf(loglik).all()
        assert estimate_noise_variance(sample, model, 2) == 0.0

    def test_value_scale_maps_noise_by_its_square(self):
        model, sample = six_component_model(RegularGrid(Interval(0.0, 10.0), 51), 0.25), six_component_cohort()
        scaled_model = dataclasses.replace(
            model, mean=4.0 * model.mean, surface=16.0 * model.surface,
            eigenvalues=16.0 * model.eigenvalues,
        )
        scaled = SparseFunctionalSample(sample.domain, tuple(
            SubjectRecord(s.subject_id, s.times, 4.0 * s.values) for s in sample.subjects
        ))
        counts = [1, 2, 3, 4, 5, 6]
        assert np.array_equal(
            _marginal_loglik(scaled_model, scaled, counts)[0],
            16.0 * _marginal_loglik(model, sample, counts)[0],
        )

    def test_no_observations_rejected(self, truth_x_model, domain):
        sample = SparseFunctionalSample(domain, (SubjectRecord("a", np.array([]), np.array([])),))
        with pytest.raises(ValueError, match="no observations"):
            _marginal_loglik(truth_x_model, sample, [1])


class TestFitFpca:
    def test_fitted_model_shape_and_selection(self, sparse_pair):
        x_sample, _, _ = sparse_pair
        model = fit_fpca(x_sample)
        assert model.n_components >= 1
        assert model.selection["method"] == "bic"
        assert model.noise_var == model.selection["noise_var"][model.n_components - 1] > 0.0
        assert model.n_subjects == x_sample.n_subjects
        w = model.grid.trapezoid_weights
        gram = (model.eigenfunctions * w) @ model.eigenfunctions.T
        assert np.max(np.abs(gram - np.eye(model.eigenvalues.size))) < 1e-8

    def test_deterministic_refit(self, sparse_pair):
        x_sample, _, _ = sparse_pair
        a = fit_fpca(x_sample)
        b = fit_fpca(x_sample)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.surface, b.surface)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a.n_components == b.n_components
        assert a.noise_var == b.noise_var

    def test_fixed_count_clamps_to_retained(self, sparse_pair):
        x_sample, _, _ = sparse_pair
        flags = SmoothFlags()
        model = fit_fpca(x_sample, ncomp=40, flags=flags)
        assert model.selection["method"] == "fixed"
        assert model.n_components == model.eigenvalues.size
        assert model.noise_var == estimate_noise_variance(x_sample, model, model.n_components)
        assert any("retained" in note for note in flags.notes)

    def test_count_below_one_rejected(self, sparse_pair):
        x_sample, _, _ = sparse_pair
        with pytest.raises(DataError, match="ncomp"):
            fit_fpca(x_sample, ncomp=0)

    def test_all_single_observation_subjects_rejected(self, domain):
        subjects = tuple(
            SubjectRecord(f"s{i}", np.array([float(i)]), np.array([1.0]))
            for i in range(1, 9)
        )
        sample = SparseFunctionalSample(domain, subjects)
        with pytest.raises(FitError) as info:
            fit_fpca(sample)
        assert "covariance" in str(info.value)
