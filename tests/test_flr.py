"""Cross-covariance coupling, regression surface, R2, and trajectory bands."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparseflr import (
    CovarianceEstimate,
    CrossCovarianceEstimate,
    DataError,
    FitError,
    FlrConfig,
    FpcaConfig,
    FpcaModel,
    Interval,
    SimConfig,
    SparseFunctionalSample,
    SubjectRecord,
    TrajectoryPrediction,
    eigendecompose,
    fit_flr,
    gen_pair,
    predict_from_scores,
    predict_response,
    prediction_band,
    r2_global,
    r2_integrated,
    r2_pointwise,
)
import sparseflr.fpca
import sparseflr.smoothing
from sparseflr.flr import (
    _cross_raw_pairs,
    estimate_beta,
    estimate_cross_covariance,
    estimate_sigma_km,
)
from sparseflr.fpca import MeanEstimate
from sparseflr.smoothing import QUARTIC, local_linear_2d

from conftest import ragged_sample


def loop_cross_raw_pairs(x_sample, y_sample, x_mean, y_mean):
    """Reference for ``_cross_raw_pairs``: the per-subject loop it replaced."""
    y_by_id = y_sample.by_id()
    s_parts, t_parts, v_parts, idx_parts = [], [], [], []
    n_shared = 0
    for i, sx in enumerate(x_sample.subjects):
        sy = y_by_id.get(sx.subject_id)
        if sy is None:
            continue
        n_shared += 1
        if sx.n_obs == 0 or sy.n_obs == 0:
            continue
        rx = sx.values - x_mean.at(sx.times)
        ry = sy.values - y_mean.at(sy.times)
        ss, tt = np.meshgrid(sx.times, sy.times, indexing="ij")
        s_parts.append(ss.ravel())
        t_parts.append(tt.ravel())
        v_parts.append(np.outer(rx, ry).ravel())
        idx_parts.append(np.full(sx.n_obs * sy.n_obs, i, dtype=np.intp))
    if not v_parts:
        return (np.empty(0), np.empty(0), np.empty(0), np.empty(0, dtype=np.intp), n_shared)
    return (
        np.concatenate(s_parts),
        np.concatenate(t_parts),
        np.concatenate(v_parts),
        np.concatenate(idx_parts),
        n_shared,
    )


def truth_y_model(design, grid, noise_var=0.1):
    pts = grid.points
    cov = CovarianceEstimate(grid, design.cov_y(pts), 1.0)
    eig = eigendecompose(cov)
    return FpcaModel(
        grid=grid,
        mean=design.mu_y(pts),
        surface=design.cov_y(pts),
        noise_var=noise_var,
        eigenvalues=eig.eigenvalues,
        eigenfunctions=eig.functions,
        n_components=eig.n_retained,
        mean_bandwidth=1.0,
        cov_bandwidth=1.0,
        n_subjects=1,
    )


def score_algebra_sigma(design, grid, y_model):
    """Coupling coefficients from score covariances, bypassing any surface.

    The response expands in the predictor harmonics with coefficient matrix
    b, so each response-component score is a known linear map of the
    predictor scores; its covariance with them follows from pure matrix
    algebra and serves as an oracle for the surface-projection estimate.
    """
    psi = design.psi(grid.points)
    w = grid.trapezoid_weights
    t_mat = (y_model.eigenfunctions * w) @ psi.T
    b = np.asarray(design.b_matrix, float)
    rho = np.asarray(design.rho, float)
    return t_mat @ b @ np.diag(rho)


class TestSigmaKm:
    def test_rank_one_cross_surface(self, design, grid, truth_x_model):
        y_model = truth_y_model(design, grid)
        surface = np.outer(truth_x_model.eigenfunctions[0], y_model.eigenfunctions[0])
        cross = CrossCovarianceEstimate(grid, grid, surface, (1.0, 1.0), 0, 0)
        sig = estimate_sigma_km(cross, truth_x_model, y_model)
        assert abs(sig[0, 0] - 1.0) < 1e-6
        assert np.max(np.abs(sig.ravel()[1:])) < 1e-6

    def test_truth_surface_matches_score_algebra(self, design, grid, truth_x_model):
        y_model = truth_y_model(design, grid)
        pts = grid.points
        cross = CrossCovarianceEstimate(
            grid, grid, design.cross_cov(pts, pts), (1.0, 1.0), 0, 0
        )
        sig = estimate_sigma_km(cross, truth_x_model, y_model)
        oracle = score_algebra_sigma(design, grid, y_model)
        assert np.max(np.abs(sig - oracle)) < 1e-8

    def test_response_eigenvalues_match_coefficient_algebra(self, design, grid):
        y_model = truth_y_model(design, grid)
        b = np.asarray(design.b_matrix, float)
        a = b @ np.diag(design.rho) @ b.T
        expected = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.max(np.abs(y_model.eigenvalues - expected)) < 1e-10


class TestBeta:
    def test_bilinear_expansion_identity(self, design, grid, truth_x_model):
        # integrating the surface against one predictor harmonic must
        # collapse the expansion to that harmonic's coefficient column
        y_model = truth_y_model(design, grid)
        sig = score_algebra_sigma(design, grid, y_model)
        beta = estimate_beta(sig, truth_x_model, y_model)
        w = grid.trapezoid_weights
        for m in range(2):
            lhs = (truth_x_model.eigenfunctions[m] * w) @ beta
            rhs = (sig[:, m] / design.rho[m]) @ y_model.eigenfunctions
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_zero_coupling_gives_zero_surface(self, design, grid, truth_x_model):
        y_model = truth_y_model(design, grid)
        beta = estimate_beta(np.zeros((2, 2)), truth_x_model, y_model)
        assert np.max(np.abs(beta)) == 0.0

    def test_recovers_design_surface_from_dense_cohort(self, design, grid):
        # component counts pinned at the generating rank: surface recovery
        # is a statement about the estimator, not about order selection
        cfg = SimConfig(n_subjects=400, sparsity="dense", seed=2)
        x_sample, y_sample, _ = gen_pair(cfg, np.random.default_rng(2))
        model = fit_flr(x_sample, y_sample, FlrConfig(ncomp_x=2, ncomp_y=2))
        pts = model.grid_s.points
        truth = design.beta(pts, pts)
        w_s = model.grid_s.trapezoid_weights
        w_t = model.grid_t.trapezoid_weights
        err2 = float(w_s @ ((model.beta - truth) ** 2) @ w_t)
        assert np.sqrt(err2) < 0.5


class TestR2:
    def test_population_value_is_one_by_variance_algebra(self, design):
        b = np.asarray(design.b_matrix, float)
        rho = np.asarray(design.rho, float)
        a = b @ np.diag(rho) @ b.T
        lam, q = np.linalg.eigh(a)
        lam, q = lam[::-1], q[:, ::-1]
        sigma = q.T @ b @ np.diag(rho)
        value, raw, by_component, by_pair = r2_global(sigma, rho, lam)
        assert abs(raw - 1.0) < 1e-12
        assert abs(value - 1.0) < 1e-12
        assert np.max(np.abs(by_component - 1.0)) < 1e-12

    @given(seed=st.integers(0, 10**6))
    def test_weighted_average_identity(self, seed):
        rng = np.random.default_rng(seed)
        k, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        sigma = rng.normal(size=(k, m))
        rho = rng.uniform(0.2, 3.0, m)
        lam = np.sort(rng.uniform(0.2, 3.0, k))[::-1]
        _, raw, by_component, _ = r2_global(sigma, rho, lam)
        weighted = float(lam @ by_component / lam.sum())
        direct = float((sigma**2 / rho).sum() / lam.sum())
        assert abs(raw - weighted) < 1e-12
        assert abs(raw - direct) < 1e-12

    def test_clipping_at_one(self):
        sigma = np.array([[10.0]])
        value, raw, _, _ = r2_global(sigma, np.array([1.0]), np.array([1.0]))
        assert raw > 1.0
        assert value == 1.0

    def test_pointwise_constant_for_single_pair(self, design, grid):
        y_model = truth_y_model(design, grid)
        y_one = replace(
            y_model,
            eigenvalues=y_model.eigenvalues[:1],
            eigenfunctions=y_model.eigenfunctions[:1],
            n_components=1,
        )
        sigma = np.array([[0.8]])
        curve = r2_pointwise(sigma, np.array([2.0]), y_one)
        expected = 0.8**2 / (2.0 * y_one.eigenvalues[0])
        assert np.nanmax(np.abs(curve - expected)) < 1e-12

    def test_pointwise_and_integrated_hit_one_for_truth(self, design, grid):
        y_model = truth_y_model(design, grid)
        sigma = score_algebra_sigma(design, grid, y_model)
        curve = r2_pointwise(sigma, np.asarray(design.rho, float), y_model)
        ok = np.isfinite(curve)
        assert np.max(np.abs(curve[ok] - 1.0)) < 1e-10
        assert abs(r2_integrated(curve, grid) - 1.0) < 1e-10

    def test_fitted_summary_internally_consistent(self, fitted):
        r2 = fitted.r2
        assert 0.0 <= r2.value <= 1.0
        curve = r2.pointwise
        ok = np.isfinite(curve)
        assert (curve[ok] >= 0.0).all() and (curve[ok] <= 1.0).all()
        assert abs(r2.integrated - r2_integrated(curve, fitted.grid_t)) < 1e-12
        weighted = float(
            fitted.y.eigenvalues[: r2.by_component.size]
            @ r2.by_component
            / fitted.y.eigenvalues[: r2.by_component.size].sum()
        )
        assert abs(r2.value_raw - weighted) < 1e-12


class TestCrossCovariance:
    def grids(self):
        return Interval(0.0, 10.0)

    def test_zero_response_residuals_give_zero_surface(self, grid, domain):
        rng = np.random.default_rng(3)
        xs, ys = [], []
        for i in range(12):
            t = np.sort(rng.uniform(0, 10, 4))
            xs.append(SubjectRecord(f"s{i}", t, rng.normal(size=4)))
            ys.append(SubjectRecord(f"s{i}", t, np.zeros(4)))
        x_sample = SparseFunctionalSample(domain, tuple(xs))
        y_sample = SparseFunctionalSample(domain, tuple(ys))
        zero_mean = MeanEstimate(grid, np.zeros(grid.n_points), 1.0)
        cross = estimate_cross_covariance(
            x_sample, y_sample, zero_mean, zero_mean, grid, grid, (2.0, 2.0)
        )
        assert np.max(np.abs(cross.surface)) < 1e-12
        assert cross.n_shared_subjects == 12
        assert cross.n_pairs == 12 * 16

    @pytest.mark.parametrize("x_ids, x_counts, y_ids, y_counts", [
        # shared ids in another roster order, ids in one sample only, 0- and
        # 1-observation subjects on either side, tied times
        (["a", "b", "c", "d", "e", "f"], [3, 0, 1, 4, 2, 6],
         ["f", "x", "d", "c", "b", "a", "y"], [2, 3, 0, 1, 5, 4, 1]),
        (["a", "b"], [2, 3], ["c", "d"], [2, 2]),  # nothing shared
        (["a", "b"], [2, 3], [], []),  # empty response roster
    ])
    def test_raw_pairs_bit_identical_to_per_subject_loop(
        self, grid, x_ids, x_counts, y_ids, y_counts
    ):
        x_sample = ragged_sample(x_ids, x_counts, seed=1)
        y_sample = ragged_sample(y_ids, y_counts, seed=2)
        x_mean = MeanEstimate(grid, np.sin(grid.points), 1.0)
        y_mean = MeanEstimate(grid, np.cos(grid.points), 1.0)
        got = _cross_raw_pairs(x_sample, y_sample, x_mean, y_mean)
        want = loop_cross_raw_pairs(x_sample, y_sample, x_mean, y_mean)
        for a, b in zip(got[:4], want[:4]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got[4] == want[4]

    def test_search_fit_is_the_estimate(self, grid, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[5])
            return local_linear_2d(*args, **kwargs)

        monkeypatch.setattr(sparseflr.fpca, "local_linear_2d", counting)
        monkeypatch.setattr(sparseflr.smoothing, "local_linear_2d", counting)
        ids = [f"s{i}" for i in range(40)]
        x_sample = ragged_sample(ids, [4] * 40, seed=5)
        y_sample = ragged_sample(ids, [3] * 40, seed=6)
        mean = MeanEstimate(grid, np.zeros(grid.n_points), 1.0)
        cands = [(1.5, 1.5), (3.0, 3.0)]
        cross = estimate_cross_covariance(
            x_sample, y_sample, mean, mean, grid, grid, candidates=cands
        )
        assert calls == cands  # one fit per candidate, no refit
        fixed = estimate_cross_covariance(
            x_sample, y_sample, mean, mean, grid, grid, cross.bandwidths
        )
        assert np.array_equal(cross.surface, fixed.surface)

    def test_loso_selects_on_unbinned_pairs(self, grid):
        ids = [f"s{i}" for i in range(30)]
        x_sample = ragged_sample(ids, [4] * 30, seed=7)
        y_sample = ragged_sample(ids, [3] * 30, seed=8)
        mean = MeanEstimate(grid, np.zeros(grid.n_points), 1.0)
        cands = [(2.0, 2.0), (4.0, 4.0)]
        cross = estimate_cross_covariance(
            x_sample, y_sample, mean, mean, grid, grid, candidates=cands,
            objective="loso-cv", bin_threshold=100,
        )
        assert cross.binned and cross.bandwidths in cands
        fixed = estimate_cross_covariance(
            x_sample, y_sample, mean, mean, grid, grid, cross.bandwidths, bin_threshold=100
        )
        assert np.array_equal(cross.surface, fixed.surface)

    def test_accepts_a_kernel_object(self, grid):
        ids = [f"s{i}" for i in range(20)]
        x_sample = ragged_sample(ids, [4] * 20, seed=9)
        y_sample = ragged_sample(ids, [3] * 20, seed=10)
        mean = MeanEstimate(grid, np.zeros(grid.n_points), 1.0)
        by_object, by_name = (
            estimate_cross_covariance(
                x_sample, y_sample, mean, mean, grid, grid, (2.0, 2.0), kernel=kernel
            )
            for kernel in (QUARTIC, "quartic")
        )
        assert np.array_equal(by_object.surface, by_name.surface)

    def test_disjoint_ids_are_rejected_by_fit(self, domain):
        rng = np.random.default_rng(4)

        def cohort(prefix):
            recs = tuple(
                SubjectRecord(
                    f"{prefix}{i}",
                    np.sort(rng.uniform(0, 10, 4)),
                    rng.normal(size=4),
                )
                for i in range(10)
            )
            return SparseFunctionalSample(domain, recs)

        with pytest.raises(FitError) as info:
            fit_flr(cohort("a"), cohort("b"))
        assert "cross" in info.value.stage


class TestPrediction:
    def test_no_observations_return_population_curve(self, fitted):
        pred = predict_response(fitted, np.array([]), np.array([]))
        assert np.array_equal(pred.values, fitted.y.mean)
        assert pred.score_info.no_data
        # prior uncertainty: plug the unconditioned score covariance in
        k, m = fitted.sigma_km.shape
        p = fitted.coefficients
        phi = fitted.y.eigenfunctions[:k]
        prior = p @ np.diag(fitted.x.eigenvalues[:m]) @ p.T
        expected = np.einsum("kt,kl,lt->t", phi, prior, phi)
        assert np.max(np.abs(pred.variance - expected)) < 1e-12

    def test_deviation_is_linear_in_residuals(self, fitted):
        times = np.array([1.5, 4.0, 8.0])
        base = fitted.x.mean_at(times)
        r = np.array([0.7, -0.2, 0.4])
        one = predict_response(fitted, times, base + r)
        two = predict_response(fitted, times, base + 2.0 * r)
        dev_one = one.values - fitted.y.mean
        dev_two = two.values - fitted.y.mean
        assert np.max(np.abs(dev_two - 2.0 * dev_one)) < 1e-10
        assert np.max(np.abs(one.variance - two.variance)) < 1e-12

    def test_variance_nonnegative(self, fitted):
        rng = np.random.default_rng(9)
        for _ in range(10):
            times = np.sort(rng.uniform(0, 10, 3))
            values = rng.normal(size=3)
            pred = predict_response(fitted, times, values)
            assert (pred.variance >= 0.0).all()

    def test_band_width_matches_gaussian_quantile(self, fitted):
        pred = predict_response(fitted, np.array([2.0, 6.0]), np.array([1.0, -1.0]))
        band = prediction_band(pred, 0.95)
        pos = pred.variance > 1e-12
        half = (band.upper - band.values)[pos]
        assert np.max(np.abs(half / np.sqrt(pred.variance[pos]) - 1.959964)) < 1e-6
        assert np.max(np.abs((band.values - band.lower) - (band.upper - band.values))) < 1e-12

    def test_band_quantile_equals_normal_ppf(self, fitted):
        from scipy.stats import norm

        pred = predict_response(fitted, np.array([2.0, 6.0]), np.array([1.0, -1.0]))
        for level in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
            band = prediction_band(pred, level)
            z = norm.ppf(0.5 * (1.0 + level))
            assert np.array_equal(band.upper, pred.values + z * np.sqrt(pred.variance))
            assert np.array_equal(band.lower, pred.values - z * np.sqrt(pred.variance))

    def test_zero_variance_collapses_band(self, fitted):
        pred = TrajectoryPrediction(
            grid=fitted.grid_t,
            values=fitted.y.mean,
            variance=np.zeros(fitted.grid_t.n_points),
            score_info=None,
            level=None,
            lower=None,
            upper=None,
        )
        band = prediction_band(pred, 0.95)
        assert np.array_equal(band.lower, band.values)
        assert np.array_equal(band.upper, band.values)

    def test_band_level_validated(self, fitted):
        pred = predict_response(fitted, np.array([2.0]), np.array([1.0]))
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                prediction_band(pred, bad)

    def test_score_prediction_shape_checked(self, fitted):
        m = fitted.sigma_km.shape[1]
        with pytest.raises(ValueError):
            predict_from_scores(fitted, np.zeros(m + 1))

    def test_predict_from_scores_matches_expansion(self, fitted):
        m = fitted.sigma_km.shape[1]
        scores = np.linspace(1.0, -1.0, m)
        k = fitted.sigma_km.shape[0]
        expected = fitted.y.mean + (fitted.coefficients @ scores) @ fitted.y.eigenfunctions[:k]
        assert np.array_equal(predict_from_scores(fitted, scores), expected)


class TestSignInvariance:
    def flip_predictor_component(self, model, j):
        x_flip = replace(
            model.x,
            eigenfunctions=model.x.eigenfunctions
            * np.where(np.arange(model.x.eigenfunctions.shape[0]) == j, -1.0, 1.0)[:, None],
        )
        sig_flip = model.sigma_km.copy()
        sig_flip[:, j] *= -1.0
        beta_flip = estimate_beta(sig_flip, x_flip, model.y)
        return replace(model, x=x_flip, sigma_km=sig_flip, beta=beta_flip)

    def test_predictor_sign_flip_changes_nothing(self, fitted):
        flipped = self.flip_predictor_component(fitted, 0)
        assert np.max(np.abs(flipped.beta - fitted.beta)) < 1e-10

        times = np.array([1.0, 3.5, 9.0])
        values = np.array([0.4, -1.1, 0.6])
        a = predict_response(fitted, times, values)
        b = predict_response(flipped, times, values)
        assert np.max(np.abs(a.values - b.values)) < 1e-10
        assert np.max(np.abs(a.variance - b.variance)) < 1e-10

        _, raw_a, _, _ = r2_global(
            fitted.sigma_km, fitted.x.eigenvalues[: fitted.sigma_km.shape[1]],
            fitted.y.eigenvalues[: fitted.sigma_km.shape[0]],
        )
        _, raw_b, _, _ = r2_global(
            flipped.sigma_km, flipped.x.eigenvalues[: flipped.sigma_km.shape[1]],
            flipped.y.eigenvalues[: flipped.sigma_km.shape[0]],
        )
        assert raw_a == raw_b

    def test_response_sign_flip_changes_nothing(self, fitted):
        y_flip = replace(
            fitted.y,
            eigenfunctions=fitted.y.eigenfunctions
            * np.where(np.arange(fitted.y.eigenfunctions.shape[0]) == 0, -1.0, 1.0)[:, None],
        )
        sig_flip = fitted.sigma_km.copy()
        sig_flip[0, :] *= -1.0
        beta_flip = estimate_beta(sig_flip, fitted.x, y_flip)
        flipped = replace(fitted, y=y_flip, sigma_km=sig_flip, beta=beta_flip)

        assert np.max(np.abs(flipped.beta - fitted.beta)) < 1e-10
        times = np.array([2.0, 7.5])
        values = np.array([1.2, -0.3])
        a = predict_response(fitted, times, values)
        b = predict_response(flipped, times, values)
        assert np.max(np.abs(a.values - b.values)) < 1e-10
        assert np.max(np.abs(a.variance - b.variance)) < 1e-10


class TestFitFlr:
    def test_fitted_shapes_and_metadata(self, fitted, sparse_pair):
        x_sample, _, _ = sparse_pair
        k, m = fitted.sigma_km.shape
        assert k == fitted.y.n_components
        assert m == fitted.x.n_components
        assert fitted.beta.shape == (fitted.grid_s.n_points, fitted.grid_t.n_points)
        assert fitted.n_shared_subjects == x_sample.n_subjects
        assert np.isfinite(fitted.cross.surface).all()

    def test_refit_is_deterministic(self, sparse_pair):
        from sparseflr import model_document

        x_sample, y_sample, _ = sparse_pair
        a = fit_flr(x_sample, y_sample)
        b = fit_flr(x_sample, y_sample)
        assert model_document(a) == model_document(b)

    def test_fixed_component_counts_respected(self, sparse_pair):
        x_sample, y_sample, _ = sparse_pair
        model = fit_flr(x_sample, y_sample, FlrConfig(ncomp_x=2, ncomp_y=2))
        assert model.sigma_km.shape == (2, 2)
        assert model.x.n_components == 2
        assert model.y.n_components == 2


def selections(model):
    """Every tuning choice of a fit: bandwidths and component counts."""
    return (
        model.x.mean_bandwidth, model.x.cov_bandwidth, model.x.n_components,
        model.y.mean_bandwidth, model.y.cov_bandwidth, model.y.n_components,
        model.cross.bandwidths,
    )


class TestInvariance:
    def test_roster_order_changes_nothing(self, fitted, sparse_pair):
        x_sample, y_sample, _ = sparse_pair
        rng = np.random.default_rng(8)

        def shuffled(sample):
            order = rng.permutation(sample.n_subjects)
            return SparseFunctionalSample(
                sample.domain, tuple(sample.subjects[i] for i in order)
            )

        model = fit_flr(shuffled(x_sample), shuffled(y_sample))
        assert selections(model) == selections(fitted)
        scale = np.max(np.abs(fitted.beta))
        assert np.max(np.abs(model.beta - fitted.beta)) <= 1e-10 * scale

    def test_response_scale_carries_through(self, fitted, sparse_pair):
        x_sample, y_sample, _ = sparse_pair
        c = 3.0
        y_scaled = SparseFunctionalSample(y_sample.domain, tuple(
            SubjectRecord(s.subject_id, s.times, c * s.values) for s in y_sample.subjects
        ))
        model = fit_flr(x_sample, y_scaled)
        assert selections(model) == selections(fitted)
        scale = np.max(np.abs(c * fitted.beta))
        assert np.max(np.abs(model.beta - c * fitted.beta)) <= 1e-10 * scale
        assert model.r2.value_raw == pytest.approx(fitted.r2.value_raw, rel=1e-10)


class TestFlrConfig:
    # An invalid setting anywhere in the tree raises while the tree is built,
    # before any fit starts. "marginal" cases are FpcaConfig's own checks.
    @pytest.mark.parametrize("settings", [
        {"marginal": {"kernel": "nope", "max_components": 0}},
        {"marginal": {"kernel": "nope"}},
        {"marginal": {"max_components": 0}},
        {"ncomp_x": 0},
        {"ncomp_y": 0},
        {"marginal": {"n_grid": 1}},
        {"marginal": {"n_grid": 11}, "ncomp_x": 2, "ncomp_y": -1},
        {"marginal": {"bandwidth_objective": "aic"}},
        {"marginal": {"kernel": QUARTIC}},  # a config stores kernel names
    ])
    def test_invalid_settings_raise_on_construction(self, settings):
        settings = dict(settings)
        with pytest.raises(DataError):
            FlrConfig(FpcaConfig(**settings.pop("marginal", {})), **settings)
