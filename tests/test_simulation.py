"""Data generator fidelity, quadrature scores, error metric, and the harness."""

from pathlib import Path

import numpy as np
import pytest

from sparseflr import (
    DataError,
    FitError,
    RegularGrid,
    SimConfig,
    gen_pair,
    in_scores,
    rmspe,
    run_monte_carlo,
)
from sparseflr import simulation as sim_mod
from sparseflr.simulation import _draw_scores, save_run_results

from conftest import DOMAIN, make_truth_model


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(DataError):
            SimConfig(n_subjects=1)
        with pytest.raises(DataError):
            SimConfig(sparsity="medium")
        with pytest.raises(DataError):
            SimConfig(score_dist="cauchy")
        with pytest.raises(DataError):
            SimConfig(noise_var_x=-0.1)
        with pytest.raises(DataError):
            SimConfig(max_failure_rate=1.0)


class TestDesign:
    def test_harmonics_orthonormal_under_fine_quadrature(self, design):
        s = np.linspace(0.0, 10.0, 20001)
        psi = design.psi(s)
        gram = np.trapezoid(psi[:, None, :] * psi[None, :, :], s, axis=-1)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-6

    def test_conditional_mean_expands_in_harmonics(self, design):
        t = np.linspace(0.0, 10.0, 101)
        eta = np.array([1.3, -0.4])
        expected = design.mu_y(t) + eta @ design.psi(t)
        assert np.max(np.abs(design.conditional_mean(eta, t) - expected)) < 1e-12

    def test_covariances_expand_in_harmonics(self, design, grid):
        pts = grid.points
        psi = design.psi(pts)
        rho = np.diag(np.asarray(design.rho, float))
        b = np.asarray(design.b_matrix, float)
        assert np.max(np.abs(design.cov_x(pts) - psi.T @ rho @ psi)) < 1e-12
        assert np.max(np.abs(design.cov_y(pts) - psi.T @ (b @ rho @ b.T) @ psi)) < 1e-12
        assert np.max(np.abs(design.cross_cov(pts, pts) - psi.T @ rho @ b.T @ psi)) < 1e-12

    def test_regression_surface_integrates_against_harmonics(self, design):
        # integral of beta(s, t) psi_1(s) ds equals the first column of the
        # coefficient matrix contracted with the response harmonics
        s = np.linspace(0.0, 10.0, 4001)
        t = np.linspace(0.0, 10.0, 101)
        beta = design.beta(s, t)
        psi_s = design.psi(s)
        lhs = np.trapezoid(psi_s[0][:, None] * beta, s, axis=0)
        b = np.asarray(design.b_matrix, float)
        rhs = b[:, 0] @ design.psi(t)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


class TestScoreDraws:
    @pytest.mark.parametrize("dist", ["normal", "mixture"])
    def test_moments(self, dist):
        rng = np.random.default_rng(0)
        rho = np.array([2.0, 1.0])
        draws = np.vstack([_draw_scores(rng, dist, rho) for _ in range(100_000)])
        assert np.max(np.abs(draws.mean(axis=0))) < 0.05
        assert abs(draws[:, 0].var() - 2.0) < 0.1
        assert abs(draws[:, 1].var() - 1.0) < 0.05

    def test_mixture_is_bimodal(self):
        rng = np.random.default_rng(1)
        rho = np.array([2.0])
        draws = np.concatenate(
            [_draw_scores(rng, "mixture", rho) for _ in range(50_000)]
        )
        # centers sit at +-1 with inner spread 1, so mass right at zero thins
        near_zero = np.mean(np.abs(draws) < 0.05)
        assert near_zero < 0.03


class TestGenPair:
    def test_counts_and_domain(self):
        for sparsity, lo, hi in [("sparse", 3, 5), ("dense", 20, 30)]:
            cfg = SimConfig(n_subjects=40, sparsity=sparsity, seed=0)
            x_sample, y_sample, truth = gen_pair(cfg, np.random.default_rng(0))
            for sample in (x_sample, y_sample):
                for rec in sample.subjects:
                    assert lo <= rec.n_obs <= hi
                    assert (rec.times >= 0.0).all() and (rec.times <= 10.0).all()
                    assert (np.diff(rec.times) >= 0.0).all()
            assert truth.zeta.shape == (40, 2)

    def test_ids_unique_and_prefixed(self):
        cfg = SimConfig(n_subjects=25, seed=0)
        x_sample, _, _ = gen_pair(cfg, np.random.default_rng(0), id_prefix="new")
        ids = [rec.subject_id for rec in x_sample.subjects]
        assert len(set(ids)) == 25
        assert all(i.startswith("new") for i in ids)

    def test_response_scores_are_linear_map_of_predictor_scores(self, design):
        cfg = SimConfig(n_subjects=30, seed=5)
        _, _, truth = gen_pair(cfg, np.random.default_rng(5))
        b = np.asarray(design.b_matrix, float)
        assert np.max(np.abs(truth.eta - truth.zeta @ b.T)) < 1e-12

    def test_same_seed_reproduces_bitwise(self):
        cfg = SimConfig(n_subjects=15, seed=9)
        ax, ay, at = gen_pair(cfg, np.random.default_rng(9))
        bx, by, bt = gen_pair(cfg, np.random.default_rng(9))
        for a, b in zip(ax.subjects, bx.subjects):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.values, b.values)
        for a, b in zip(ay.subjects, by.subjects):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(at.zeta, bt.zeta)

    def test_empirical_covariance_converges(self, design, grid):
        cfg = SimConfig(n_subjects=10_000, seed=13)
        _, _, truth = gen_pair(cfg, np.random.default_rng(13))
        psi = design.psi(grid.points)
        curves = truth.zeta @ psi
        emp = curves.T @ curves / curves.shape[0]
        emp -= np.outer(curves.mean(axis=0), curves.mean(axis=0))
        assert np.max(np.abs(emp - design.cov_x(grid.points))) < 0.15

    def test_truth_conditional_mean_indexed_per_subject(self, design):
        cfg = SimConfig(n_subjects=5, seed=2)
        _, _, truth = gen_pair(cfg, np.random.default_rng(2))
        t = np.linspace(0, 10, 11)
        for i in range(5):
            expected = design.conditional_mean(truth.eta[i], t)
            assert np.max(np.abs(truth.conditional_mean(i, t) - expected)) < 1e-12


class TestInScores:
    def test_zero_residuals_give_zero(self, truth_x_model):
        times = np.array([1.0, 4.0, 9.0])
        values = truth_x_model.mean_at(times)
        assert np.array_equal(in_scores(truth_x_model, times, values), np.zeros(2))

    def test_single_observation_left_gap_formula(self, truth_x_model):
        times = np.array([4.0])
        values = truth_x_model.mean_at(times) + 2.5
        psi = truth_x_model.eigenfunctions_at(times)
        expected = psi[:, 0] * 2.5 * (4.0 - 0.0)
        assert np.max(np.abs(in_scores(truth_x_model, times, values) - expected)) < 1e-12

    def test_multi_observation_gaps(self, truth_x_model):
        times = np.array([2.0, 5.0, 6.0])
        resid = np.array([1.0, -1.0, 0.5])
        values = truth_x_model.mean_at(times) + resid
        psi = truth_x_model.eigenfunctions_at(times)
        gaps = np.array([2.0, 3.0, 1.0])
        expected = psi @ (resid * gaps)
        assert np.max(np.abs(in_scores(truth_x_model, times, values) - expected)) < 1e-12

    def test_dense_grid_matches_quadrature_closely(self, design, grid):
        model = make_truth_model(design, grid)
        psi = design.psi(grid.points)
        resid = 2.0 * psi[0] - 1.0 * psi[1]
        curve = design.mu_x(grid.points) + resid
        scores = in_scores(model, grid.points, curve)
        quad = np.array(
            [grid.integrate(resid * psi[0]), grid.integrate(resid * psi[1])]
        )
        assert np.max(np.abs(scores - quad)) < 0.02 * np.max(np.abs(quad))


class TestRmspe:
    def test_perfect_prediction_scores_zero(self, grid):
        truths = np.vstack([np.sin(grid.points), np.cos(grid.points) + 2.0])
        assert rmspe(truths.copy(), truths, grid) == 0.0

    def test_doubled_curves_score_one(self, grid):
        truths = np.vstack([np.sin(grid.points) + 1.0, np.cos(grid.points) + 2.0])
        assert abs(rmspe(2.0 * truths, truths, grid) - 1.0) < 1e-12

    def test_zero_norm_truths_skipped(self, grid):
        truths = np.vstack([np.zeros(grid.n_points), np.ones(grid.n_points)])
        preds = np.vstack([np.ones(grid.n_points), 2.0 * np.ones(grid.n_points)])
        assert abs(rmspe(preds, truths, grid) - 1.0) < 1e-12

    def test_all_zero_norm_returns_nan(self, grid):
        zeros = np.zeros((3, grid.n_points))
        assert np.isnan(rmspe(np.ones_like(zeros), zeros, grid))

    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            rmspe(np.ones((2, grid.n_points)), np.ones((3, grid.n_points)), grid)


class TestMonteCarlo:
    def small_config(self, **kw):
        base = dict(n_subjects=40, n_new=15, seed=11, n_runs=2)
        base.update(kw)
        return SimConfig(**base)

    def test_reruns_are_bit_identical(self):
        a = run_monte_carlo(self.small_config())
        b = run_monte_carlo(self.small_config())
        for ra, rb in zip(a.runs, b.runs):
            assert ra.rmspe_ce == rb.rmspe_ce
            assert ra.rmspe_in == rb.rmspe_in

    def test_runs_are_seeded_independently(self):
        # run r under seed s must equal run 0 under seed s + r
        two = run_monte_carlo(self.small_config(seed=11, n_runs=2))
        alone = run_monte_carlo(self.small_config(seed=12, n_runs=1))
        assert two.runs[1].rmspe_ce == alone.runs[0].rmspe_ce
        assert two.runs[1].rmspe_in == alone.runs[0].rmspe_in

    def test_ce_typically_beats_in(self):
        report = run_monte_carlo(self.small_config(n_runs=3))
        assert report.median_ce < report.median_in

    def test_summary_fields(self):
        report = run_monte_carlo(self.small_config())
        summ = report.summary()
        assert summ["n_runs"] == 2
        assert summ["n_failures"] == 0
        assert summ["median_rmspe_ce"] == report.median_ce
        assert summ["median_rmspe_in"] == report.median_in

    def test_failed_runs_recorded_and_skipped(self, monkeypatch):
        calls = {"n": 0}
        real = sim_mod.fit_flr

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise FitError("x_mean", "synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(sim_mod, "fit_flr", flaky)
        report = run_monte_carlo(self.small_config(max_failure_rate=0.6))
        assert report.n_failures == 1
        assert report.runs[0].failed
        assert "synthetic failure" in report.runs[0].error
        assert np.isfinite(report.median_ce)

    def test_excess_failures_abort(self, monkeypatch):
        def broken(*args, **kwargs):
            raise FitError("x_mean", "synthetic failure")

        monkeypatch.setattr(sim_mod, "fit_flr", broken)
        with pytest.raises(FitError) as info:
            run_monte_carlo(self.small_config(max_failure_rate=0.2))
        assert "monte_carlo" in info.value.stage

    def test_save_run_results_round_trips(self, tmp_path):
        report = run_monte_carlo(self.small_config())
        path = str(tmp_path / "runs.csv")
        save_run_results(report, path)
        rows = [line.split(",") for line in Path(path).read_text().splitlines()]
        assert rows[0] == ["run", "method", "rmspe", "failed", "error"]
        assert len(rows) == 1 + 2 * len(report.runs)
        ce_row = rows[1]
        assert ce_row[1] == "ce"
        assert float(ce_row[2]) == report.runs[0].rmspe_ce
