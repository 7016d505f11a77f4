"""Functional linear regression of one sparse sample on another.

Both variables get marginal FPCA fits; the regression enters through the
cross-covariance surface, projected onto the two eigenbases. The projected
coefficients drive three consumers: the regression surface (a bilinear
expansion in the two eigenbases), trajectory prediction for new subjects
(predictor scores are conditional expectations, so a handful of noisy
observations suffice), and a functional R-squared family measuring how
much response variation the predictor explains globally, per component,
and per time point.

Prediction uncertainty propagates only the score-prediction error of the
new subject, not the sampling error of the fitted surfaces; bands therefore
target the conditional mean trajectory given the subject's observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .data import RegularGrid, SparseFunctionalSample, SubjectRecord, pooled_points
from .errors import DataError, FitError
from .fpca import (
    COV_BANDWIDTH_FRACTIONS,
    FpcaConfig,
    FpcaModel,
    MeanEstimate,
    ScorePrediction,
    _pair_indices,
    _smooth_pairs,
    fit_fpca,
    pace_scores,
)
from .smoothing import Kernel, SmoothFlags, get_kernel

__all__ = [
    "FlrConfig",
    "CrossCovarianceEstimate",
    "R2Summary",
    "TrajectoryPrediction",
    "FlrModel",
    "estimate_cross_covariance",
    "estimate_sigma_km",
    "estimate_beta",
    "predict_response",
    "predict_from_scores",
    "trajectory_from_scores",
    "prediction_band",
    "r2_global",
    "r2_pointwise",
    "r2_integrated",
    "fit_flr",
]

# Pointwise R^2 is undefined where the response variance expansion is this
# small or smaller.
_R2_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class FlrConfig:
    """Controls for the joint fit; ``marginal`` applies to X and Y alike.

    Bandwidths left as None are selected per sample. The cross-covariance
    search ties its two axis bandwidths to equal fractions of each axis
    range, one free parameter instead of two. Component counts left as None
    are selected by AIC.
    """

    marginal: FpcaConfig = FpcaConfig()
    ncomp_x: int | None = None
    ncomp_y: int | None = None
    cross_bandwidth: tuple[float, float] | None = None
    cross_bandwidth_fractions: tuple[float, ...] = COV_BANDWIDTH_FRACTIONS

    def __post_init__(self):
        for name in ("ncomp_x", "ncomp_y"):
            ncomp = getattr(self, name)
            if ncomp is not None and ncomp < 1:
                raise DataError(f"{name} must be >= 1, got {ncomp}")


@dataclass(frozen=True)
class CrossCovarianceEstimate:
    grid_s: RegularGrid
    grid_t: RegularGrid
    surface: np.ndarray
    bandwidths: tuple[float, float]
    n_pairs: int = 0
    n_shared_subjects: int = 0
    binned: bool = False


@dataclass(frozen=True)
class R2Summary:
    """Fraction of response variation explained by the predictor.

    ``value`` is clipped to [0, 1]; ``value_raw`` keeps the unclipped ratio
    (estimation noise can push it past 1, and how far is a useful quality
    signal, exposed as ``clip_excess``). ``by_component`` decomposes the
    global value over response components; ``by_pair`` over
    (response, predictor) component pairs. ``pointwise`` is NaN where the
    response variance expansion vanishes.
    """

    value: float
    value_raw: float
    pointwise: np.ndarray
    integrated: float
    by_component: np.ndarray
    by_pair: np.ndarray
    clip_excess: float


@dataclass(frozen=True)
class TrajectoryPrediction:
    """Predicted response curve for one subject on the response grid.

    ``variance`` is the pointwise variance of the conditional-mean estimate
    driven by score uncertainty; ``lower``/``upper`` are filled by
    ``prediction_band``. ``score_info`` carries the predictor-score record,
    including its conditioning flags and the ``no_data`` mean-fallback
    marker; it is None when the scores came from a batch, which keeps the
    flags.
    """

    grid: RegularGrid
    values: np.ndarray
    variance: np.ndarray
    score_info: ScorePrediction | None
    level: float | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None


@dataclass(frozen=True)
class FlrModel:
    """Fitted regression of a response sample on a predictor sample."""

    x: FpcaModel
    y: FpcaModel
    cross: CrossCovarianceEstimate
    sigma_km: np.ndarray
    beta: np.ndarray
    r2: R2Summary
    config: FlrConfig
    n_shared_subjects: int = 0
    flags: SmoothFlags = field(default_factory=SmoothFlags)

    @property
    def grid_s(self) -> RegularGrid:
        return self.x.grid

    @property
    def grid_t(self) -> RegularGrid:
        return self.y.grid

    @property
    def coefficients(self) -> np.ndarray:
        """Score-to-score regression weights sigma_km / rho_m, shape (K, M)."""
        return self.sigma_km / self.x.eigenvalues[: self.sigma_km.shape[1]][None, :]


def _cross_raw_pairs(
    x_sample: SparseFunctionalSample,
    y_sample: SparseFunctionalSample,
    x_mean: MeanEstimate,
    y_mean: MeanEstimate,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """All (predictor time, response time) residual products over shared ids.

    Pairs run subject by subject in predictor roster order, row-major in
    each subject's predictor x response product; the subject index is the
    predictor roster position.
    """
    y_index = {s.subject_id: j for j, s in enumerate(y_sample.subjects)}
    match = np.array([y_index.get(s.subject_id, -1) for s in x_sample.subjects], dtype=np.intp)
    shared = match >= 0
    px, py = pooled_points(x_sample), pooled_points(y_sample)
    rx = px.values - x_mean.at(px.times)
    ry = py.values - y_mean.at(py.times)
    count_x = np.array([s.n_obs for s in x_sample.subjects], dtype=np.intp)
    # the trailing empty entry is what an unmatched id (index -1) pairs with
    count_y = np.array([s.n_obs for s in y_sample.subjects] + [0], dtype=np.intp)
    start_y = np.cumsum(count_y) - count_y
    a, b, subject = _pair_indices(
        np.cumsum(count_x) - count_x, count_x, start_y[match], count_y[match]
    )
    return px.times[a], py.times[b], rx[a] * ry[b], subject, int(shared.sum())


def estimate_cross_covariance(
    x_sample: SparseFunctionalSample,
    y_sample: SparseFunctionalSample,
    x_mean: MeanEstimate,
    y_mean: MeanEstimate,
    grid_s: RegularGrid,
    grid_t: RegularGrid,
    bandwidths: tuple[float, float] | None = None,
    kernel: Kernel | str = "epanechnikov",
    candidates: Sequence[tuple[float, float]] | None = None,
    objective: str = "gcv",
    bin_threshold: int = 20000,
    flags: SmoothFlags | None = None,
) -> CrossCovarianceEstimate:
    """Cross-covariance surface from all shared-subject residual products.

    Unlike the marginal covariance there is no diagonal to exclude: the two
    coordinates come from different processes, so every (predictor time,
    response time) pair is informative. Subjects appearing in only one
    sample contribute nothing. Binning and the bandwidth search follow
    ``estimate_covariance``: LOSO-CV scores the unbinned pairs, and a GCV
    search's winning fit is the estimate.
    """
    s, t, v, subj, n_shared = _cross_raw_pairs(x_sample, y_sample, x_mean, y_mean)
    if v.size == 0:
        raise FitError(
            "cross", "no subject has observations in both samples; cannot couple them"
        )
    surface, bandwidths, binned = _smooth_pairs(
        s, t, v, subj, grid_s, grid_t, bandwidths, get_kernel(kernel), candidates,
        objective, bin_threshold, flags,
    )
    return CrossCovarianceEstimate(
        grid_s, grid_t, surface, bandwidths,
        n_pairs=int(v.size), n_shared_subjects=n_shared, binned=binned,
    )


def estimate_sigma_km(
    cross: CrossCovarianceEstimate,
    x_model: FpcaModel,
    y_model: FpcaModel,
    n_x: int | None = None,
    n_y: int | None = None,
) -> np.ndarray:
    """Project the cross-covariance surface onto the two eigenbases.

    Entry (k, m) is the double trapezoid integral of
    psi_m(s) * C(s, t) * phi_k(t); shape (n_y, n_x).
    """
    m = x_model.n_components if n_x is None else n_x
    k = y_model.n_components if n_y is None else n_y
    psi = x_model.eigenfunctions[:m]
    phi = y_model.eigenfunctions[:k]
    ws = cross.grid_s.trapezoid_weights
    wt = cross.grid_t.trapezoid_weights
    proj = (psi * ws[None, :]) @ cross.surface @ (phi * wt[None, :]).T
    return proj.T  # (k, m)


def estimate_beta(
    sigma_km: np.ndarray,
    x_model: FpcaModel,
    y_model: FpcaModel,
) -> np.ndarray:
    """Regression surface beta(s, t) on grid_s x grid_t.

    Bilinear expansion: sum over (k, m) of sigma_km / rho_m times
    psi_m(s) phi_k(t).
    """
    k, m = sigma_km.shape
    rho = x_model.eigenvalues[:m]
    psi = x_model.eigenfunctions[:m]
    phi = y_model.eigenfunctions[:k]
    p = sigma_km / rho[None, :]
    return psi.T @ (p.T @ phi)


def r2_global(
    sigma_km: np.ndarray, rho: np.ndarray, lam: np.ndarray
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Global explained-variation ratio and its component decompositions.

    Returns (clipped value, raw value, by_component, by_pair). The raw value
    is sum over pairs of sigma_km^2 / rho_m divided by the retained response
    variance sum of lambda_k; the identity
    value_raw = sum_k lambda_k * by_component_k / sum_k lambda_k
    holds exactly by construction.
    """
    k, m = sigma_km.shape
    rho = np.asarray(rho, dtype=float)[:m]
    lam = np.asarray(lam, dtype=float)[:k]
    if (rho <= 0).any() or (lam <= 0).any():
        raise ValueError("component variances must be positive")
    by_pair = (sigma_km * sigma_km) / (rho[None, :] * lam[:, None])
    by_component = by_pair.sum(axis=1)
    raw = float((lam * by_component).sum() / lam.sum())
    return min(1.0, max(0.0, raw)), raw, by_component, by_pair


def r2_pointwise(
    sigma_km: np.ndarray,
    rho: np.ndarray,
    y_model: FpcaModel,
) -> np.ndarray:
    """Pointwise explained-variation curve on the response grid.

    Numerator expands the regression-function variance at each t; the
    denominator is the response variance expansion with the retained
    components. Points where the denominator falls at or below 1e-12 are
    NaN. Clipped to [0, 1] elsewhere.
    """
    k, m = sigma_km.shape
    rho = np.asarray(rho, dtype=float)[:m]
    phi = y_model.eigenfunctions[:k]
    lam = y_model.eigenvalues[:k]
    c = sigma_km.T @ phi  # (m, n_t): sum_k sigma_km phi_k(t)
    num = ((c * c) / rho[:, None]).sum(axis=0)
    den = (lam[:, None] * phi * phi).sum(axis=0)
    out = np.full(den.shape, np.nan)
    ok = den > _R2_DENOM_FLOOR
    out[ok] = np.clip(num[ok] / den[ok], 0.0, 1.0)
    return out


def r2_integrated(pointwise: np.ndarray, grid: RegularGrid) -> float:
    """Domain average of the pointwise curve, skipping undefined points."""
    w = grid.trapezoid_weights
    ok = np.isfinite(pointwise)
    if not ok.any():
        return float("nan")
    return float((w[ok] @ pointwise[ok]) / w[ok].sum())


def predict_from_scores(model: FlrModel, scores: np.ndarray) -> np.ndarray:
    """Response curve implied by given predictor scores (no uncertainty)."""
    scores = np.asarray(scores, dtype=float)
    k, m = model.sigma_km.shape
    if scores.shape != (m,):
        raise ValueError(f"expected {m} scores, got shape {scores.shape}")
    phi = model.y.eigenfunctions[:k]
    return model.y.mean + (model.coefficients @ scores) @ phi


def predict_response(
    model: FlrModel,
    times: np.ndarray,
    values: np.ndarray,
) -> TrajectoryPrediction:
    """Predict a new subject's response trajectory from sparse predictor data.

    Scores are conditional expectations given the observations; the returned
    variance is the pointwise variance of the estimated conditional mean
    induced by residual score uncertainty. A subject with no observations
    gets the population mean curve and the widest (prior) variance.
    """
    k, m = model.sigma_km.shape
    score_pred = pace_scores(model.x, times, values, m)
    return trajectory_from_scores(model, score_pred.scores, score_pred.omega, score_pred)


def trajectory_from_scores(
    model: FlrModel,
    scores: np.ndarray,
    omega: np.ndarray,
    score_info: ScorePrediction | None = None,
) -> TrajectoryPrediction:
    """The ``predict_response`` trajectory of one already-scored subject.

    ``scores`` and ``omega`` are the predictor scores and their conditional
    covariance, from ``pace_scores`` or one row of ``pace_scores_batch``.
    """
    k = model.sigma_km.shape[0]
    phi = model.y.eigenfunctions[:k]
    p = model.coefficients
    values_hat = model.y.mean + (p @ scores) @ phi
    v = p @ omega @ p.T
    variance = np.maximum(np.einsum("kt,kl,lt->t", phi, v, phi), 0.0)
    return TrajectoryPrediction(
        grid=model.grid_t,
        values=values_hat,
        variance=variance,
        score_info=score_info,
    )


def prediction_band(
    prediction: TrajectoryPrediction, level: float = 0.95
) -> TrajectoryPrediction:
    """Attach symmetric Gaussian-quantile bands at the given level."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = float(ndtri(0.5 * (1.0 + level)))
    half = z * np.sqrt(prediction.variance)
    return replace(
        prediction,
        level=level,
        lower=prediction.values - half,
        upper=prediction.values + half,
    )


def predict_subject(
    model: FlrModel, subject: SubjectRecord, level: float | None = 0.95
) -> TrajectoryPrediction:
    """Convenience wrapper: predict from a SubjectRecord, bands optional."""
    pred = predict_response(model, subject.times, subject.values)
    return prediction_band(pred, level) if level is not None else pred


def fit_flr(
    x_sample: SparseFunctionalSample,
    y_sample: SparseFunctionalSample,
    config: FlrConfig = FlrConfig(),
) -> FlrModel:
    """Fit the full regression: marginals, coupling, surface, R-squared.

    Subjects are matched across samples by id; ids present in one sample
    only still contribute to that sample's marginal fit. Any stage failure
    surfaces as FitError tagged with the stage name.
    """
    flags = SmoothFlags()
    marginal = config.marginal
    x_model = fit_fpca(x_sample, marginal, config.ncomp_x, flags, stage_prefix="x_")
    y_model = fit_fpca(y_sample, marginal, config.ncomp_y, flags, stage_prefix="y_")
    x_mean = MeanEstimate(x_model.grid, x_model.mean, x_model.mean_bandwidth)
    y_mean = MeanEstimate(y_model.grid, y_model.mean, y_model.mean_bandwidth)

    candidates = [
        (f * x_model.grid.interval.length, f * y_model.grid.interval.length)
        for f in config.cross_bandwidth_fractions
    ]
    try:
        cross = estimate_cross_covariance(
            x_sample,
            y_sample,
            x_mean,
            y_mean,
            x_model.grid,
            y_model.grid,
            bandwidths=config.cross_bandwidth,
            kernel=marginal.kernel,
            candidates=candidates,
            objective=marginal.bandwidth_objective,
            bin_threshold=marginal.bin_threshold,
            flags=flags,
        )
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise FitError("cross", str(exc)) from exc

    try:
        sigma_km = estimate_sigma_km(cross, x_model, y_model)
        beta = estimate_beta(sigma_km, x_model, y_model)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise FitError("sigma_km", str(exc)) from exc

    try:
        m = x_model.n_components
        k = y_model.n_components
        value, raw, by_comp, by_pair = r2_global(
            sigma_km, x_model.eigenvalues[:m], y_model.eigenvalues[:k]
        )
        pointwise = r2_pointwise(sigma_km, x_model.eigenvalues[:m], y_model)
        integrated = r2_integrated(pointwise, y_model.grid)
        excess = max(0.0, raw - 1.0)
        if excess > 0.05:
            flags.note(f"global R2 exceeded 1 by {excess:.3f} before clipping")
        r2 = R2Summary(value, raw, pointwise, integrated, by_comp, by_pair, excess)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise FitError("r2", str(exc)) from exc

    return FlrModel(
        x=x_model,
        y=y_model,
        cross=cross,
        sigma_km=sigma_km,
        beta=beta,
        r2=r2,
        config=config,
        n_shared_subjects=cross.n_shared_subjects,
        flags=flags,
    )
