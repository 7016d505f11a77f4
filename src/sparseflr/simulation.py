"""Synthetic two-process design and the Monte Carlo comparison harness.

The generator draws a rank-2 predictor process (shifted-sine mean, one
cosine and one sine component) and a response whose conditional mean is a
fixed bilinear functional of the centered predictor. Everything about the
population is known in closed form or by cached high-order quadrature, so
fitted models can be scored against exact truth.

The harness compares two ways of recovering predictor scores for new
subjects: conditional expectation given the sparse noisy observations
(``predict_response``) and direct Riemann integration of the residuals
(``in_scores``). Relative prediction error per subject is integrated
squared error over the true conditional mean's squared norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Interval, RegularGrid, SparseFunctionalSample, SubjectRecord, _write_csv
from .errors import DataError, FitError, _require_int, _require_real
from .flr import FlrConfig, FlrModel, fit_flr, predict_from_scores, predict_response
from .fpca import FpcaModel

__all__ = [
    "SPARSITIES",
    "SCORE_DISTS",
    "SimConfig",
    "SimDesign",
    "TruthRecord",
    "RunResult",
    "McReport",
    "gen_pair",
    "in_scores",
    "rmspe",
    "run_monte_carlo",
    "save_run_results",
]

SPARSITIES = ("sparse", "dense")
SCORE_DISTS = ("normal", "mixture")


@dataclass(frozen=True)
class SimConfig:
    """Generator and harness settings.

    ``sparsity`` picks the per-subject observation count law: "sparse" is
    uniform on {3, 4, 5}, "dense" uniform on {20, ..., 30}. ``score_dist``
    draws component scores either centered Gaussian or a symmetric
    two-component Gaussian mixture with matching variance.
    """

    n_subjects: int = 100
    n_new: int = 100
    sparsity: str = "sparse"
    score_dist: str = "normal"
    seed: int = 0
    domain: tuple[float, float] = (0.0, 10.0)
    noise_var_x: float = 0.25
    noise_var_y: float = 0.1
    n_runs: int = 100
    max_failure_rate: float = 0.2
    fit: FlrConfig = field(default_factory=FlrConfig)

    def __post_init__(self):
        if self.sparsity not in SPARSITIES:
            raise DataError(f"sparsity must be one of {SPARSITIES}, got {self.sparsity!r}")
        if self.score_dist not in SCORE_DISTS:
            raise DataError(f"score_dist must be one of {SCORE_DISTS}, got {self.score_dist!r}")
        _require_int(self, "n_subjects", 2)
        _require_int(self, "n_new", 1)
        _require_int(self, "n_runs", 1)
        _require_int(self, "seed", 0)
        for name in ("noise_var_x", "noise_var_y", "max_failure_rate"):
            _require_real(self, name)
        _require_real(self, "domain", sequence=True)
        if not 0.0 <= self.max_failure_rate < 1.0:
            raise DataError("max_failure_rate must be in [0, 1)")
        if self.noise_var_x < 0 or self.noise_var_y < 0:
            raise DataError("noise variances must be nonnegative")
        if len(self.domain) != 2:
            raise DataError(f"domain must be a pair (lo, hi), got {self.domain!r}")
        Interval(*self.domain)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 200-node Gauss-Legendre rule on [-1, 1], computed once per process."""
    rule = np.polynomial.legendre.leggauss(200)
    for a in rule:
        a.flags.writeable = False
    return rule


class SimDesign:
    """Closed-form population quantities of the synthetic design.

    Component variances are (2, 1); the score-to-score coefficient matrix is
    [[2, 2], [1, 2]] (rows index response components). The predictor mean is
    u + sin(u) in domain-relative coordinates u. The response mean (the
    regression functional applied to the predictor mean) uses cached
    Gauss-Legendre quadrature; at 200 nodes its error is far below rounding
    noise of anything compared against it.
    """

    rho = np.array([2.0, 1.0])
    b_matrix = np.array([[2.0, 2.0], [1.0, 2.0]])

    def __init__(self, domain: Interval = Interval(*SimConfig.domain)):
        self.domain = domain
        self._scale = math.sqrt(2.0 / domain.length)
        nodes, weights = _gauss_legendre()
        half = 0.5 * domain.length
        s = domain.lo + half * (nodes + 1.0)
        w = half * weights
        # a_m = integral of mu_x * psi_m
        self._a = self.psi(s) @ (w * self.mu_x(s))

    def _u(self, s: np.ndarray) -> np.ndarray:
        return np.asarray(s, dtype=float) - self.domain.lo

    def mu_x(self, s: np.ndarray) -> np.ndarray:
        u = self._u(s)
        return u + np.sin(u)

    def psi(self, s: np.ndarray) -> np.ndarray:
        """Component functions, one row each, orthonormal on the domain."""
        arg = math.pi * self._u(s) / self.domain.length
        return np.vstack([-np.cos(arg), np.sin(arg)]) * self._scale

    def mu_y(self, t: np.ndarray) -> np.ndarray:
        return (self.b_matrix @ self._a) @ self.psi(t)

    def conditional_mean(self, eta: np.ndarray, t: np.ndarray) -> np.ndarray:
        """True E[Y(t) | X] for response component scores eta."""
        return self.mu_y(t) + np.asarray(eta, dtype=float) @ self.psi(t)

    def cov_x(self, s_grid: np.ndarray) -> np.ndarray:
        p = self.psi(s_grid)
        return p.T @ (self.rho[:, None] * p)

    def cov_y(self, t_grid: np.ndarray) -> np.ndarray:
        p = self.psi(t_grid)
        a = self.b_matrix @ np.diag(self.rho) @ self.b_matrix.T
        return p.T @ a @ p

    def cross_cov(self, s_grid: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
        ps = self.psi(s_grid)
        pt = self.psi(t_grid)
        return ps.T @ (self.rho[:, None] * (self.b_matrix.T @ pt))

    def beta(self, s_grid: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
        return self.psi(s_grid).T @ self.b_matrix.T @ self.psi(t_grid)


@dataclass(frozen=True)
class TruthRecord:
    """Per-subject population truth for one generated cohort."""

    design: SimDesign
    zeta: np.ndarray  # (n, 2) predictor component scores
    eta: np.ndarray  # (n, 2) response component scores

    @property
    def n_subjects(self) -> int:
        return self.zeta.shape[0]

    def conditional_mean(self, i: int, t: np.ndarray) -> np.ndarray:
        return self.design.conditional_mean(self.eta[i], t)


def _draw_scores(rng: np.random.Generator, dist: str, rho: np.ndarray) -> np.ndarray:
    if dist == "normal":
        return rng.normal(0.0, np.sqrt(rho))
    # Symmetric mixture of two Gaussians at +-sqrt(rho/2), each with
    # variance rho/2: mean 0, total variance rho, strongly bimodal.
    center = np.sqrt(0.5 * rho)
    sign = np.where(rng.integers(0, 2, size=rho.size) == 1, 1.0, -1.0)
    return sign * center + rng.normal(0.0, np.sqrt(0.5 * rho))


def gen_pair(
    config: SimConfig,
    rng: np.random.Generator,
    n: int | None = None,
    id_prefix: str = "s",
) -> tuple[SparseFunctionalSample, SparseFunctionalSample, TruthRecord]:
    """Draw a cohort of predictor/response observation sets plus its truth.

    Per subject, in fixed draw order: component scores, predictor count and
    sorted uniform times, predictor noise, response count and times,
    response noise. The response values are the true conditional mean at
    the drawn times plus independent noise.
    """
    n = config.n_subjects if n is None else int(n)
    domain = Interval(*config.domain)
    design = SimDesign(domain)
    sd_x = math.sqrt(config.noise_var_x)
    sd_y = math.sqrt(config.noise_var_y)
    lo, hi = domain.lo, domain.hi
    count_range = (3, 6) if config.sparsity == "sparse" else (20, 31)

    x_subjects, y_subjects = [], []
    zetas = np.empty((n, 2))
    etas = np.empty((n, 2))
    for i in range(n):
        zeta = _draw_scores(rng, config.score_dist, design.rho)
        eta = design.b_matrix @ zeta
        zetas[i] = zeta
        etas[i] = eta
        sid = f"{id_prefix}{i:05d}"

        lx = int(rng.integers(*count_range))
        sx = np.sort(rng.uniform(lo, hi, lx))
        ux = design.mu_x(sx) + zeta @ design.psi(sx) + rng.normal(0.0, sd_x, lx)
        x_subjects.append(SubjectRecord(sid, sx, ux))

        ly = int(rng.integers(*count_range))
        ty = np.sort(rng.uniform(lo, hi, ly))
        vy = design.conditional_mean(eta, ty) + rng.normal(0.0, sd_y, ly)
        y_subjects.append(SubjectRecord(sid, ty, vy))

    return (
        SparseFunctionalSample(domain, tuple(x_subjects)),
        SparseFunctionalSample(domain, tuple(y_subjects)),
        TruthRecord(design, zetas, etas),
    )


def in_scores(
    model: FpcaModel,
    times: np.ndarray,
    values: np.ndarray,
    n_components: int | None = None,
) -> np.ndarray:
    """Integral-approximation component scores from sparse observations.

    Riemann sum of residual times eigenfunction with left-gap spacing: the
    weight of the observation at S_l is S_l - S_{l-1}, anchored at the
    domain's lower endpoint. With a handful of points this quadrature is
    crude, which is exactly what the harness measures. Times must be
    ascending, with one value each; ValueError otherwise.
    """
    m = model.n_components if n_components is None else int(n_components)
    t = np.asarray(times, dtype=float).ravel()
    u = np.asarray(values, dtype=float).ravel()
    if t.size != u.size:
        raise ValueError("times and values lengths differ")
    if t.size == 0:
        return np.zeros(m)
    if t.size > 1 and (np.diff(t) < 0).any():
        raise ValueError("times must be ascending")
    resid = u - model.mean_at(t)
    psi = model.eigenfunctions_at(t, m)
    gaps = np.diff(np.concatenate(([model.grid.interval.lo], t)))
    return psi @ (resid * gaps)


def rmspe(
    predictions: np.ndarray,
    truths: np.ndarray,
    grid: RegularGrid,
) -> float:
    """Mean relative integrated squared prediction error over subjects.

    Each row pair contributes integral((pred - truth)^2) divided by
    integral(truth^2); subjects whose true curve has zero norm are skipped.
    Returns NaN if every subject is skipped.
    """
    p = np.atleast_2d(np.asarray(predictions, dtype=float))
    q = np.atleast_2d(np.asarray(truths, dtype=float))
    if p.shape != q.shape:
        raise ValueError(f"prediction/truth shapes differ: {p.shape} vs {q.shape}")
    w = grid.trapezoid_weights
    num = ((p - q) ** 2) @ w
    den = (q * q) @ w
    ok = den > 0
    if not ok.any():
        return float("nan")
    return float(np.mean(num[ok] / den[ok]))


@dataclass(frozen=True)
class RunResult:
    run: int
    rmspe_ce: float = float("nan")
    rmspe_in: float = float("nan")
    n_components_x: int = 0
    n_components_y: int = 0
    r2: float = float("nan")
    failed: bool = False
    error: str = ""


@dataclass(frozen=True)
class McReport:
    """Collected Monte Carlo runs plus the headline medians."""

    config: SimConfig
    runs: tuple[RunResult, ...]

    @property
    def successful(self) -> tuple[RunResult, ...]:
        return tuple(r for r in self.runs if not r.failed)

    @property
    def n_failures(self) -> int:
        return sum(1 for r in self.runs if r.failed)

    @property
    def median_ce(self) -> float:
        ok = self.successful
        return float(np.median([r.rmspe_ce for r in ok])) if ok else float("nan")

    @property
    def median_in(self) -> float:
        ok = self.successful
        return float(np.median([r.rmspe_in for r in ok])) if ok else float("nan")

    def summary(self) -> dict:
        ratio = (
            self.median_in / self.median_ce
            if self.successful and self.median_ce > 0
            else float("nan")
        )
        return {
            "sparsity": self.config.sparsity,
            "score_dist": self.config.score_dist,
            "n_subjects": self.config.n_subjects,
            "n_new": self.config.n_new,
            "n_runs": len(self.runs),
            "n_failures": self.n_failures,
            "median_rmspe_ce": self.median_ce,
            "median_rmspe_in": self.median_in,
            "in_over_ce_ratio": ratio,
            "seed": self.config.seed,
        }


def _run_once(config: SimConfig, run_index: int) -> RunResult:
    # Run r draws from its own generator seeded seed + r, so any run can be
    # reproduced alone and results do not depend on execution order.
    rng = np.random.default_rng(config.seed + run_index)
    x_train, y_train, _ = gen_pair(config, rng)
    model = fit_flr(x_train, y_train, config.fit)
    x_new, _, truth = gen_pair(config, rng, n=config.n_new, id_prefix="new")

    grid_t = model.grid_t
    n_new = config.n_new
    pred_ce = np.empty((n_new, grid_t.n_points))
    pred_in = np.empty((n_new, grid_t.n_points))
    true_curves = np.empty((n_new, grid_t.n_points))
    for i, subj in enumerate(x_new.subjects):
        pred_ce[i] = predict_response(model, subj.times, subj.values).values
        zeta_in = in_scores(model.x, subj.times, subj.values)
        pred_in[i] = predict_from_scores(model, zeta_in)
        true_curves[i] = truth.conditional_mean(i, grid_t.points)

    return RunResult(
        run=run_index,
        rmspe_ce=rmspe(pred_ce, true_curves, grid_t),
        rmspe_in=rmspe(pred_in, true_curves, grid_t),
        n_components_x=model.x.n_components,
        n_components_y=model.y.n_components,
        r2=model.r2.value,
    )


def run_monte_carlo(config: SimConfig, n_runs: int | None = None) -> McReport:
    """Run the seeded comparison study.

    Run r seeds its own generator with seed + r, so any subset of runs
    reproduces bit-identically regardless of execution order. Runs whose
    fit fails are recorded and skipped in the medians; if more than
    ``max_failure_rate`` of runs fail the whole study aborts. ``n_runs``
    overrides ``config.n_runs`` and is checked as that setting is.
    """
    n_runs = config.n_runs if n_runs is None else replace(config, n_runs=n_runs).n_runs
    results = []
    for r in range(n_runs):
        try:
            results.append(_run_once(config, r))
        except (FitError, DataError, np.linalg.LinAlgError) as exc:
            results.append(RunResult(run=r, failed=True, error=str(exc)))
    report = McReport(config, tuple(results))
    if report.n_failures > config.max_failure_rate * n_runs:
        raise FitError(
            "monte_carlo",
            f"{report.n_failures}/{n_runs} runs failed "
            f"(limit {config.max_failure_rate:.0%}); first error: "
            f"{next(r.error for r in results if r.failed)}",
        )
    return report


def save_run_results(report: McReport, path: str) -> None:
    """Write one CSV row per (run, method) with the run's relative error."""
    rows = (
        [r.run, method, value, int(r.failed), r.error]
        for r in report.runs
        for method, value in (("ce", r.rmspe_ce), ("in", r.rmspe_in))
    )
    _write_csv(path, ["run", "method", "rmspe", "failed", "error"], rows)
