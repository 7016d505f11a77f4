"""Mean/covariance estimation, eigenanalysis, and score prediction oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparseflr import (
    CovarianceEstimate,
    DataError,
    FitError,
    FpcaModel,
    Interval,
    RegularGrid,
    SparseFunctionalSample,
    SubjectRecord,
    eigendecompose,
    estimate_covariance,
    estimate_mean,
    estimate_noise_variance,
    fit_fpca,
    pace_scores,
    pace_scores_batch,
)
import sparseflr.fpca
import sparseflr.smoothing
from sparseflr.data import pooled_points
from sparseflr.fpca import MeanEstimate, RawCovariances, raw_covariances, select_ncomp
from sparseflr.smoothing import local_linear_1d, local_linear_2d

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


def handmade_raw(s1, s2, value, diag_t=None, diag_value=None):
    s1 = np.asarray(s1, float)
    diag_t = np.asarray([] if diag_t is None else diag_t, float)
    return RawCovariances(
        s1=s1,
        s2=np.asarray(s2, float),
        value=np.asarray(value, float),
        subject=np.zeros(s1.size, dtype=int),
        diag_t=diag_t,
        diag_value=np.asarray([] if diag_value is None else diag_value, float),
        diag_subject=np.zeros(diag_t.size, dtype=int),
    )


class TestEstimateMean:
    def test_affine_truth_recovered_exactly(self, grid):
        mean = estimate_mean(affine_sample(), grid, bandwidth=2.0)
        assert np.max(np.abs(mean.values - (1.0 + 2.0 * grid.points))) < 1e-9

    def test_bandwidth_selected_from_candidates(self, grid):
        mean = estimate_mean(affine_sample(), grid, candidates=[1.0, 2.5])
        assert mean.bandwidth in (1.0, 2.5)

    def test_search_fit_is_the_estimate(self, grid, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return local_linear_1d(*args, **kwargs)

        monkeypatch.setattr(sparseflr.smoothing, "local_linear_1d", counting)
        monkeypatch.setattr(sparseflr.fpca, "local_linear_1d", counting)
        sample = affine_sample()
        cands = [0.8, 1.6, 2.5]
        mean = estimate_mean(sample, grid, candidates=cands)
        assert calls == cands  # one fit per candidate, no refit
        pooled = pooled_points(sample)
        fresh = local_linear_1d(pooled.times, pooled.values, grid.points, mean.bandwidth)
        assert np.array_equal(mean.values, fresh)

    def test_interpolation_consistency(self, grid):
        mean = estimate_mean(affine_sample(), grid, bandwidth=2.0)
        assert np.array_equal(mean.at(grid.points), mean.values)


def loop_raw_covariances(sample, mean):
    """Reference for ``raw_covariances``: the per-subject loop it replaced."""
    s1_parts, s2_parts, v_parts, idx_parts = [], [], [], []
    dt_parts, dv_parts, di_parts = [], [], []
    for i, subj in enumerate(sample.subjects):
        L = subj.n_obs
        if L == 0:
            continue
        resid = subj.values - mean.at(subj.times)
        dt_parts.append(subj.times)
        dv_parts.append(resid * resid)
        di_parts.append(np.full(L, i, dtype=np.intp))
        if L < 2:
            continue
        tt1, tt2 = np.meshgrid(subj.times, subj.times, indexing="ij")
        rr = np.outer(resid, resid)
        off = ~np.eye(L, dtype=bool)
        s1_parts.append(tt1[off])
        s2_parts.append(tt2[off])
        v_parts.append(rr[off])
        idx_parts.append(np.full(L * (L - 1), i, dtype=np.intp))

    def cat(parts, dtype=float):
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    return RawCovariances(
        s1=cat(s1_parts),
        s2=cat(s2_parts),
        value=cat(v_parts),
        subject=cat(idx_parts, np.intp),
        diag_t=cat(dt_parts),
        diag_value=cat(dv_parts),
        diag_subject=cat(di_parts, np.intp),
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
        for name in RawCovariances.__dataclass_fields__:
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
        assert raw.diag_t.size == 4

    def test_products_and_symmetry(self, grid, domain):
        sample = SparseFunctionalSample(
            domain,
            (SubjectRecord("a", np.array([1.0, 2.0]), np.array([3.0, -2.0])),),
        )
        raw = raw_covariances(sample, self.zero_mean(grid))
        pairs = {(t1, t2): v for t1, t2, v in zip(raw.s1, raw.s2, raw.value)}
        assert pairs[(1.0, 2.0)] == -6.0
        assert pairs[(2.0, 1.0)] == -6.0
        diag = {(t, v) for t, v in zip(raw.diag_t, raw.diag_value)}
        assert diag == {(1.0, 9.0), (2.0, 4.0)}

    def test_mean_is_subtracted(self, grid, domain):
        sample = SparseFunctionalSample(
            domain, (SubjectRecord("a", np.array([0.0, 10.0]), np.array([5.0, 5.0])),)
        )
        mean = MeanEstimate(grid, np.full(grid.n_points, 5.0), 1.0)
        raw = raw_covariances(sample, mean)
        assert np.max(np.abs(raw.value)) == 0.0
        assert np.max(np.abs(raw.diag_value)) == 0.0


class TestEstimateCovariance:
    def test_zero_residuals_give_zero_surface(self, grid):
        n = 300
        raw = handmade_raw(
            RNG.uniform(0, 10, n), RNG.uniform(0, 10, n), np.zeros(n)
        )
        cov = estimate_covariance(raw, grid, 2.0)
        assert np.max(np.abs(cov.surface)) < 1e-12

    def test_surface_is_symmetric(self, grid):
        n = 400
        s1 = RNG.uniform(0, 10, n)
        s2 = RNG.uniform(0, 10, n)
        raw = handmade_raw(s1, s2, RNG.normal(size=n))
        cov = estimate_covariance(raw, grid, 2.5)
        assert np.array_equal(cov.surface, cov.surface.T)

    def test_binned_path_matches_on_grid_scatter(self, grid):
        # points placed exactly on nodes make snapping lossless, so the
        # binned fit must agree with the unbinned one
        nodes = grid.points
        idx1 = RNG.integers(0, nodes.size, 800)
        idx2 = RNG.integers(0, nodes.size, 800)
        z = RNG.normal(size=800)
        raw = handmade_raw(nodes[idx1], nodes[idx2], z)
        plain = estimate_covariance(raw, grid, 2.0, bin_threshold=10**9)
        binned = estimate_covariance(raw, grid, 2.0, bin_threshold=1)
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
        n = 600
        raw = handmade_raw(
            RNG.uniform(0, 10, n), RNG.uniform(0, 10, n), RNG.normal(size=n)
        )
        cands = [1.5, 2.5, 4.0]
        cov = estimate_covariance(raw, grid, candidates=cands, bin_threshold=bin_threshold)
        assert counts == {"bin": int(cov.binned), "fit": len(cands)}
        assert cov.binned == (bin_threshold < n)
        fixed = estimate_covariance(raw, grid, cov.bandwidth, bin_threshold=bin_threshold)
        assert np.array_equal(cov.surface, fixed.surface)

    def test_loso_selects_on_unbinned_pairs(self, grid):
        rng = np.random.default_rng(5)
        raw = handmade_raw(rng.uniform(0, 10, 300), rng.uniform(0, 10, 300), rng.normal(size=300))
        raw = RawCovariances(**{**raw.__dict__, "subject": np.repeat(np.arange(30), 10)})
        cov = estimate_covariance(
            raw, grid, candidates=[2.0, 4.0], objective="loso-cv", bin_threshold=100
        )
        assert cov.binned and cov.bandwidth in (2.0, 4.0)
        fixed = estimate_covariance(raw, grid, cov.bandwidth, bin_threshold=100)
        assert np.array_equal(cov.surface, fixed.surface)


class TestNoiseVariance:
    def test_constant_inflation_recovered(self, grid):
        n = 600
        sigma2 = 0.37
        raw = handmade_raw(
            RNG.uniform(0, 10, n),
            RNG.uniform(0, 10, n),
            np.full(n, 1.5),
            diag_t=np.linspace(0, 10, 80),
            diag_value=np.full(80, 1.5 + sigma2),
        )
        est = estimate_noise_variance(raw, grid, 2.0)
        assert abs(est - sigma2) < 1e-6

    def test_negative_estimates_truncate_to_zero(self, grid):
        n = 400
        raw = handmade_raw(
            RNG.uniform(0, 10, n),
            RNG.uniform(0, 10, n),
            np.full(n, 1.0),
            diag_t=np.linspace(0, 10, 60),
            diag_value=np.zeros(60),
        )
        est = estimate_noise_variance(raw, grid, 2.0)
        assert est == 0.0


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


class TestSelectNcomp:
    def hand_aic(self, model, sample, max_m):
        """Deviance-plus-count criterion, assembled from its definition."""
        sigma2 = max(model.noise_var, 1e-8 * float(np.mean(np.diag(model.surface))), 1e-300)
        curve = []
        for m in range(1, max_m + 1):
            total = 0.0
            for subj in sample.subjects:
                if subj.n_obs == 0:
                    continue
                pred = pace_scores(model, subj.times, subj.values, max_m)
                resid = subj.values - model.mean_at(subj.times)
                psi = model.eigenfunctions_at(subj.times, max_m)
                r = resid - pred.scores[:m] @ psi[:m]
                total += (
                    float(r @ r) / (2.0 * sigma2)
                    + 0.5 * subj.n_obs * (math.log(2 * math.pi) + math.log(sigma2))
                )
            curve.append(total + m)
        return curve

    def test_aic_curve_matches_hand_evaluation(self, truth_x_model, domain):
        rng = np.random.default_rng(21)
        subjects = []
        for i in range(6):
            t = np.sort(rng.uniform(0, 10, 4))
            v = truth_x_model.mean_at(t) + rng.normal(scale=0.6, size=4)
            subjects.append(SubjectRecord(f"s{i}", t, v))
        sample = SparseFunctionalSample(domain, tuple(subjects))
        n, info = select_ncomp(sample, truth_x_model, max_components=2)
        expected = self.hand_aic(truth_x_model, sample, 2)
        assert np.allclose(info["criterion"], expected, rtol=1e-8)
        assert n == int(np.argmin(expected)) + 1


class TestFitFpca:
    def test_fitted_model_shape_and_selection(self, sparse_pair):
        x_sample, _, _ = sparse_pair
        model = fit_fpca(x_sample)
        assert model.n_components >= 1
        assert model.selection["method"] == "aic"
        assert model.noise_var >= 0.0
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
        model = fit_fpca(x_sample, ncomp=40)
        assert model.selection["method"] == "fixed"
        assert model.n_components == model.eigenvalues.size
        assert any("retained" in note for note in model.flags.notes)

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
