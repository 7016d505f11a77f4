"""Acceptance checks: one test per stated requirement, measured then asserted.

Each test prints a single PASS/FAIL line with the measured quantities before
asserting, so the verdict and the evidence survive into the captured output
either way.
"""

import math

import numpy as np
import pytest

from sparseflr import (
    CovarianceEstimate,
    FlrConfig,
    FpcaConfig,
    Interval,
    RegularGrid,
    SimConfig,
    SimDesign,
    fit_flr,
    fit_fpca,
    gen_pair,
    eigendecompose,
    model_document,
    pace_scores,
    predict_response,
    prediction_band,
    r2_global,
    rmspe,
    run_monte_carlo,
)
from sparseflr.flr import estimate_beta
from sparseflr.smoothing import local_linear_1d, local_linear_2d

from conftest import DOMAIN, make_truth_model


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} — {detail}")


_reports: dict = {}

SPARSE_NORMAL = SimConfig(seed=0, n_runs=100)


def sparse_normal_report():
    if "sn" not in _reports:
        _reports["sn"] = run_monte_carlo(SPARSE_NORMAL)
    return _reports["sn"]


def replay_run(config, run_index):
    """The draws of Monte Carlo run ``run_index``, in the harness's order.

    Same generator (seeded ``seed + run_index``) and same calls as the
    harness: the training pair first, then the new cohort. Returns the
    training pair, the new predictor sample and the new cohort's truth.
    """
    rng = np.random.default_rng(config.seed + run_index)
    x_train, y_train, _ = gen_pair(config, rng)
    x_new, _, truth = gen_pair(config, rng, n=config.n_new, id_prefix="new")
    return x_train, y_train, x_new, truth


def sparse_normal_oracle():
    """Per-run CE error of the Bayes oracle on the sparse/normal runs.

    Each new subject's scores are predicted from its sparse predictor data
    by conditional expectation under the exact population model (true mean,
    eigenpairs and noise variance) and mapped to the response through the
    true coefficient matrix, as an estimator that knew every population
    quantity would predict.
    """
    if "sn_oracle" not in _reports:
        config = SPARSE_NORMAL
        design = SimDesign(Interval(*config.domain))
        grid = RegularGrid(design.domain, config.fit.marginal.n_grid)
        model = make_truth_model(design, grid, config.noise_var_x)
        pts = grid.points
        errors = []
        for r in range(config.n_runs):
            _, _, x_new, truth = replay_run(config, r)
            pred = np.array([
                design.conditional_mean(
                    design.b_matrix @ pace_scores(model, subj.times, subj.values).scores,
                    pts,
                )
                for subj in x_new.subjects
            ])
            true = np.array([truth.conditional_mean(i, pts) for i in range(truth.n_subjects)])
            errors.append(rmspe(pred, true, grid))
        _reports["sn_oracle"] = np.array(errors)
    return _reports["sn_oracle"]


@pytest.mark.slow
def test_criterion_1a_sparse_normal_ce_median_window():
    # The floor is the oracle's median error over the same runs: a harness
    # whose fitted predictions beat the oracle's is leaking the truth.
    ce = sparse_normal_report().median_ce
    oracle = float(np.median(sparse_normal_oracle()))
    ok = oracle <= ce <= 0.02
    verdict(
        "1a",
        ok,
        f"sparse/normal CE median {ce:.5f}, oracle median {oracle:.5f}, "
        f"ratio {ce / oracle:.2f}, window [oracle, 0.02]",
    )
    assert ok, f"CE median {ce:.5f} outside [{oracle:.5f}, 0.02]"


@pytest.mark.slow
def test_criterion_1a_oracle_replays_harness_draws():
    # Refitting run 0 from the replayed draws must reproduce the harness's
    # CE error exactly, so the oracle scores the very subjects the fitted
    # pipeline scored.
    x_train, y_train, x_new, truth = replay_run(SPARSE_NORMAL, 0)
    model = fit_flr(x_train, y_train, SPARSE_NORMAL.fit)
    pts = model.grid_t.points
    pred = np.array([
        predict_response(model, subj.times, subj.values).values for subj in x_new.subjects
    ])
    true = np.array([truth.conditional_mean(i, pts) for i in range(truth.n_subjects)])
    replayed = rmspe(pred, true, model.grid_t)
    harness = sparse_normal_report().runs[0].rmspe_ce
    ok = replayed == harness
    verdict(
        "1a replay",
        ok,
        f"run 0 CE error from replayed draws {replayed!r}, harness {harness!r}",
    )
    assert ok


@pytest.mark.slow
def test_criterion_1b_sparse_normal_method_ratio():
    report = sparse_normal_report()
    ratio = report.median_in / report.median_ce
    ok = ratio >= 1.5
    verdict(
        "1b",
        ok,
        f"sparse/normal IN/CE median ratio {ratio:.2f} "
        f"(IN {report.median_in:.5f} / CE {report.median_ce:.5f}), need >= 1.5",
    )
    assert ok


@pytest.mark.slow
def test_criterion_2_sparse_mixture_ce_beats_in():
    report = run_monte_carlo(SimConfig(seed=0, n_runs=100, score_dist="mixture"))
    ok = report.median_ce < report.median_in
    verdict(
        "2",
        ok,
        f"sparse/mixture CE median {report.median_ce:.5f} < IN median {report.median_in:.5f}",
    )
    assert ok


@pytest.mark.slow
def test_criterion_3_dense_normal_ce_at_most_in():
    report = run_monte_carlo(SimConfig(seed=0, n_runs=50, sparsity="dense"))
    ok = report.median_ce <= report.median_in
    verdict(
        "3",
        ok,
        f"dense/normal CE median {report.median_ce:.5f} <= IN median {report.median_in:.5f}",
    )
    assert ok


def test_criterion_4_eigen_recovery_oracle(design, grid):
    cov = CovarianceEstimate(grid, design.cov_x(grid.points), 1.0)
    eig = eigendecompose(cov)
    val_err = float(np.max(np.abs(eig.eigenvalues[:2] - np.array([2.0, 1.0]))))
    psi = design.psi(grid.points)
    fun_err = 0.0
    for row, truth in zip(eig.functions[:2], psi):
        fun_err = max(
            fun_err,
            min(float(np.max(np.abs(row - truth))), float(np.max(np.abs(row + truth)))),
        )
    ok = val_err < 1e-3 and fun_err < 1e-2
    verdict(
        "4",
        ok,
        f"eigenvalue error {val_err:.2e} (tol 1e-3), "
        f"eigenfunction sup error {fun_err:.2e} (tol 1e-2)",
    )
    assert ok


def test_criterion_5_single_observation_score_oracle(design, grid):
    model = make_truth_model(design, grid, noise_var=0.25)
    times = np.array([5.0])
    values = model.mean_at(times) + 1.0
    pred = pace_scores(model, times, values)
    expected = (1.0 / math.sqrt(5.0)) / 0.45
    err = max(abs(pred.scores[0] - 0.0), abs(pred.scores[1] - expected))
    ok = err < 1e-10
    verdict(
        "5",
        ok,
        f"scores ({pred.scores[0]:.2e}, {pred.scores[1]:.10f}) vs "
        f"(0, {expected:.10f}), max error {err:.2e} (tol 1e-10)",
    )
    assert ok


def test_criterion_6_noise_variance_recovery():
    hits = 0
    estimates = []
    for r in range(20):
        cfg = SimConfig(n_subjects=400, seed=0)
        x_sample, _, _ = gen_pair(cfg, np.random.default_rng(500 + r))
        model = fit_fpca(x_sample, FpcaConfig())
        estimates.append(model.noise_var)
        if 0.15 <= model.noise_var <= 0.35:
            hits += 1
    ok = hits >= 18
    verdict(
        "6",
        ok,
        f"noise variance in [0.15, 0.35] for {hits}/20 runs "
        f"(median estimate {np.median(estimates):.4f}, truth 0.25)",
    )
    assert ok


# ROADMAP item 2's gate: criterion 6 on the response, whose diagonal-
# inflation noise variance misses its truth 0.1 (3 of 20 runs within the
# gate, 6 truncated to 0). The xfail reason reports the figures; any other
# failure, or the gate met, fails the test.
@pytest.mark.xfail(strict=True, raises=pytest.xfail.Exception,
                   reason="the response noise variance misses its truth")
def test_response_noise_variance_recovery():
    estimates = []
    for r in range(20):
        cfg = SimConfig(n_subjects=400, seed=0)
        _, y_sample, _ = gen_pair(cfg, np.random.default_rng(500 + r))
        estimates.append(fit_fpca(y_sample, FpcaConfig()).noise_var)
    est = np.array(estimates)
    hits = int(((est >= 0.05) & (est <= 0.2)).sum())
    detail = (
        f"noise variance in [0.05, 0.2] for {hits}/20 runs, {int((est == 0).sum())} "
        f"truncated to 0 (median estimate {np.median(est):.4f}, max {est.max():.4f}, "
        f"truth 0.1)"
    )
    verdict("6 on Y", hits >= 18, detail)
    if hits < 18:
        pytest.xfail(detail)


def test_criterion_7_explained_variation(design):
    # population side: pure score algebra, no surfaces involved
    b = np.asarray(design.b_matrix, float)
    rho = np.asarray(design.rho, float)
    a = b @ np.diag(rho) @ b.T
    lam, q = np.linalg.eigh(a)
    lam, q = lam[::-1], q[:, ::-1]
    sigma = q.T @ b @ np.diag(rho)
    value, raw, by_component, _ = r2_global(sigma, rho, lam)
    pop_err = abs(raw - 1.0)

    weighted = float(lam @ by_component / lam.sum())
    identity_err = abs(raw - weighted)

    # fitted side: dense noiseless cohort
    cfg = SimConfig(n_subjects=400, sparsity="dense", noise_var_x=0.0, noise_var_y=0.0, seed=1)
    x_sample, y_sample, _ = gen_pair(cfg, np.random.default_rng(1))
    model = fit_flr(x_sample, y_sample)
    r2 = model.r2
    curve = r2.pointwise[np.isfinite(r2.pointwise)]
    in_range = (
        0.0 <= r2.value <= 1.0
        and 0.0 <= r2.integrated <= 1.0
        and (curve >= 0.0).all()
        and (curve <= 1.0).all()
    )

    ok = pop_err < 1e-12 and identity_err < 1e-12 and r2.value >= 0.8 and in_range
    verdict(
        "7",
        ok,
        f"population value 1{pop_err:+.1e}, weighted-average identity error "
        f"{identity_err:.1e} (tol 1e-12), fitted value {r2.value:.3f} (need >= 0.8), "
        f"all summaries in [0, 1]: {in_range}",
    )
    assert ok


def test_criterion_8_band_calibration(design, grid):
    rates = []
    for seed in range(5):
        cfg = SimConfig(n_subjects=100, seed=seed)
        x_sample, y_sample, _ = gen_pair(cfg, np.random.default_rng(seed))
        model = fit_flr(x_sample, y_sample)

        new_x, _, truth = gen_pair(
            cfg, np.random.default_rng(1000 + seed), n=200, id_prefix="new"
        )
        pts = model.grid_t.points
        hits = []
        for i, rec in enumerate(new_x.subjects):
            band = prediction_band(
                predict_response(model, rec.times, rec.values), 0.95
            )
            target = truth.conditional_mean(i, pts)
            hits.append((target >= band.lower) & (target <= band.upper))
        rates.append(float(np.mean(hits)))
    mean_rate = float(np.mean(rates))
    ok = 0.85 <= mean_rate <= 0.99
    verdict(
        "8",
        ok,
        f"95% band coverage of the true conditional mean: per-replicate "
        f"{[round(r, 4) for r in rates]}, mean {mean_rate:.4f}, window [0.85, 0.99]",
    )
    assert ok


def test_criterion_9_property_bundle(design, grid, fitted, truth_x_model, sparse_pair):
    failures = []

    # affine reproduction of both smoothers
    x = np.linspace(0.0, 10.0, 40)
    out1 = local_linear_1d(x, 1.5 + 2.0 * x, np.linspace(0, 10, 11), 1.7)
    err_1d = float(np.max(np.abs(out1 - (1.5 + 2.0 * np.linspace(0, 10, 11)))))
    rng = np.random.default_rng(0)
    x1, x2 = rng.uniform(0, 10, 60), rng.uniform(0, 10, 60)
    g = np.linspace(0, 10, 6)
    surf = local_linear_2d(x1, x2, 1.0 + 0.5 * x1 - 0.25 * x2, g, g, (4.0, 4.0))
    err_2d = float(np.max(np.abs(surf - (1.0 + 0.5 * g[:, None] - 0.25 * g[None, :]))))
    if err_1d > 1e-9 or err_2d > 1e-9:
        failures.append(f"affine reproduction ({err_1d:.1e}, {err_2d:.1e})")

    # eigenfunction quadrature orthonormality
    w = fitted.x.grid.trapezoid_weights
    gram = (fitted.x.eigenfunctions * w) @ fitted.x.eigenfunctions.T
    err_orth = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    if err_orth > 1e-8:
        failures.append(f"orthonormality {err_orth:.1e}")

    # sign-flip invariance of the surface, predictions, and summary value
    from dataclasses import replace

    flip = np.where(np.arange(fitted.x.eigenfunctions.shape[0]) == 0, -1.0, 1.0)
    x_flip = replace(fitted.x, eigenfunctions=fitted.x.eigenfunctions * flip[:, None])
    sig_flip = fitted.sigma_km.copy()
    sig_flip[:, 0] *= -1.0
    flipped = replace(
        fitted, x=x_flip, sigma_km=sig_flip,
        beta=estimate_beta(sig_flip, x_flip, fitted.y),
    )
    err_beta = float(np.max(np.abs(flipped.beta - fitted.beta)))
    times = np.array([1.0, 4.5, 8.0])
    values = np.array([0.2, -0.9, 0.5])
    pa = predict_response(fitted, times, values)
    pb = predict_response(flipped, times, values)
    err_pred = float(np.max(np.abs(pa.values - pb.values)))
    m, k = fitted.sigma_km.shape[1], fitted.sigma_km.shape[0]
    _, raw_a, _, _ = r2_global(fitted.sigma_km, fitted.x.eigenvalues[:m], fitted.y.eigenvalues[:k])
    _, raw_b, _, _ = r2_global(flipped.sigma_km, flipped.x.eigenvalues[:m], flipped.y.eigenvalues[:k])
    err_r2 = abs(raw_a - raw_b)
    if max(err_beta, err_pred, err_r2) > 1e-10:
        failures.append(f"sign-flip ({err_beta:.1e}, {err_pred:.1e}, {err_r2:.1e})")

    # conditional score covariance never exceeds the prior
    rng = np.random.default_rng(5)
    dom_gap = 0.0
    for _ in range(10):
        t = np.sort(rng.uniform(0, 10, 4))
        v = truth_x_model.mean_at(t) + rng.normal(size=4)
        pred = pace_scores(truth_x_model, t, v)
        gap = np.diag(truth_x_model.eigenvalues) - pred.omega
        dom_gap = min(dom_gap, float(np.linalg.eigvalsh(gap).min()))
    if dom_gap < -1e-10:
        failures.append(f"prior domination violated by {dom_gap:.1e}")

    # error metric algebra
    truths = np.vstack([np.sin(grid.points) + 1.0, np.cos(grid.points)])
    exact_zero = rmspe(truths.copy(), truths, grid)
    exact_one = rmspe(2.0 * truths, truths, grid)
    if exact_zero != 0.0 or abs(exact_one - 1.0) > 1e-12:
        failures.append(f"metric algebra ({exact_zero}, {exact_one})")

    # bit-identical reruns under fixed seeds
    x_sample, y_sample, _ = sparse_pair
    doc_equal = model_document(fit_flr(x_sample, y_sample)) == model_document(
        fit_flr(x_sample, y_sample)
    )
    mc_cfg = SimConfig(n_subjects=40, n_new=15, seed=11, n_runs=2)
    ra = run_monte_carlo(mc_cfg)
    rb = run_monte_carlo(mc_cfg)
    mc_equal = all(
        a.rmspe_ce == b.rmspe_ce and a.rmspe_in == b.rmspe_in
        for a, b in zip(ra.runs, rb.runs)
    )
    if not (doc_equal and mc_equal):
        failures.append(f"determinism (refit {doc_equal}, rerun {mc_equal})")

    ok = not failures
    verdict("9", ok, "all properties hold" if ok else "; ".join(failures))
    assert ok, failures


# The paper's consistency claim (ROADMAP item 10): the regression function
# is estimated consistently. On sparse cohorts, seeds 0-4, the median beta
# error ∫∫(β̂−β)²/∫∫β² and the median X eigenfunction error (the worse of
# the first two sign-aligned ∫(ψ̂−ψ)²) must fall strictly from n = 100 to
# 400 to 2000, and at n = 2000 lie below ROADMAP item 10's medians (0.039
# and 0.016), each with a 25% margin for seed-to-seed spread.
CONSISTENCY_SIZES = (100, 400, 2000)
CONSISTENCY_MARGIN = 1.25
CONSISTENCY_BOUNDS = (CONSISTENCY_MARGIN * 0.039, CONSISTENCY_MARGIN * 0.016)


def beta_error(model, design) -> float:
    s, t = model.grid_s, model.grid_t
    truth = design.beta(s.points, t.points)
    diff = model.beta - truth
    ws, wt = s.trapezoid_weights, t.trapezoid_weights
    return float((ws @ (diff * diff) @ wt) / (ws @ (truth * truth) @ wt))


def psi_error(model, design) -> float:
    w = model.x.grid.trapezoid_weights
    truth = design.psi(model.x.grid.points)
    return max(
        min(float(w @ (est - psi) ** 2), float(w @ (est + psi) ** 2))
        for est, psi in zip(model.x.eigenfunctions[:2], truth)
    )


def consistency_verdict(name: str, config: FlrConfig) -> tuple[bool, str]:
    beta, psi = [], []
    for n in CONSISTENCY_SIZES:
        errors = []
        for seed in range(5):
            x_sample, y_sample, truth = gen_pair(
                SimConfig(n_subjects=n, seed=seed), np.random.default_rng(seed)
            )
            model = fit_flr(x_sample, y_sample, config)
            errors.append((beta_error(model, truth.design), psi_error(model, truth.design)))
        b, p = np.median(errors, axis=0)
        beta.append(float(b))
        psi.append(float(p))
    falls = all(a > b for a, b in zip(beta, beta[1:])) and all(a > b for a, b in zip(psi, psi[1:]))
    ok = falls and beta[-1] < CONSISTENCY_BOUNDS[0] and psi[-1] < CONSISTENCY_BOUNDS[1]
    detail = (
        f"median beta error {[round(v, 4) for v in beta]}, median X psi error "
        f"{[round(v, 4) for v in psi]} at n = {list(CONSISTENCY_SIZES)}; the claim: both strictly "
        f"falling, and below {CONSISTENCY_BOUNDS[0]:.4f} and {CONSISTENCY_BOUNDS[1]:.4f} at n = 2000"
    )
    verdict(name, ok, detail)
    return ok, detail


def test_consistency_at_the_true_rank():
    config = FlrConfig(ncomp_x=2, ncomp_y=2)
    ok, detail = consistency_verdict("consistency, both counts at 2", config)
    assert ok, detail


# At default settings AIC keeps up to 10 components for X and Y and the beta
# error does not fall with n (ROADMAP item 10's table); the xfail reason
# reports the medians, and the claim met fails the test.
@pytest.mark.xfail(strict=True, raises=pytest.xfail.Exception,
                   reason="at default settings the beta error does not fall with n")
def test_consistency_at_default_settings():
    ok, detail = consistency_verdict("consistency, default settings", FlrConfig())
    if not ok:
        pytest.xfail(detail)
