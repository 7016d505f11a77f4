"""Functional linear regression of one sparse sample on another.

Both variables get marginal FPCA fits; the regression enters through the
cross-covariance surface, projected onto the two eigenbases. The projected
coefficients drive three consumers: the regression surface (a bilinear
expansion in the two eigenbases), trajectory prediction for new subjects
(predictor scores are conditional expectations, so a handful of noisy
observations suffice), and a functional R-squared family measuring how
much response variation the predictor explains globally, per component,
and per time point.

The cross-covariance stage reads its settings from the marginal
``FpcaConfig``, as the marginal stages do, so the joint fit passes one
config tree through every stage.

Prediction uncertainty propagates only the score-prediction error of the
new subject, not the sampling error of the fitted surfaces; bands therefore
target the conditional mean trajectory given the subject's observations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import RegularGrid, SparseFunctionalSample, SubjectRecord, pooled_points
from .errors import DataError, FitError, _require_int
from .fpca import (
    FpcaConfig,
    FpcaModel,
    MeanEstimate,
    RawCovariances,
    ScorePrediction,
    _run_stage,
    _smooth_pairs,
    fit_fpca,
    pace_scores,
)
from .smoothing import SmoothFlags

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
    "BAND_LEVEL",
    "prediction_band",
    "predict_subject",
    "r2_global",
    "r2_pointwise",
    "r2_integrated",
    "fit_flr",
]

# The default confidence level of prediction bands.
BAND_LEVEL = 0.95

# Pointwise R^2 is undefined where the response variance expansion is this
# small or smaller.
_R2_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class FlrConfig:
    """Controls for the joint fit; ``marginal`` applies to X and Y alike.

    Bandwidths left as None are selected per sample. The cross-covariance
    surface takes the marginal covariance settings (see
    ``estimate_cross_covariance``), one free parameter instead of two.
    Component counts left as None are selected by AIC.
    """

    marginal: FpcaConfig = FpcaConfig()
    ncomp_x: int | None = None
    ncomp_y: int | None = None

    def __post_init__(self):
        for name in ("ncomp_x", "ncomp_y"):
            if getattr(self, name) is not None:
                _require_int(self, name, 1)


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
    flags: SmoothFlags = field(default_factory=SmoothFlags)

    @property
    def n_shared_subjects(self) -> int:
        return self.cross.n_shared_subjects

    @property
    def grid_s(self) -> RegularGrid:
        return self.x.grid

    @property
    def grid_t(self) -> RegularGrid:
        return self.y.grid

    @functools.cached_property
    def coefficients(self) -> np.ndarray:
        """Score-to-score regression weights sigma_km / rho_m, shape (K, M);
        formed once per model, read-only."""
        p = self.sigma_km / self.x.eigenvalues[: self.sigma_km.shape[1]][None, :]
        p.flags.writeable = False
        return p


def _cross_raw_pairs(
    x_sample: SparseFunctionalSample,
    y_sample: SparseFunctionalSample,
    x_mean: MeanEstimate,
    y_mean: MeanEstimate,
) -> tuple[RawCovariances, int]:
    """All (predictor time, response time) residual products over shared
    ids, with the number of shared ids.

    Pairs run subject by subject in predictor roster order, row-major in
    each subject's predictor x response product; the subject index is the
    predictor roster position. They are held as the observations of the two
    pooled samples, each predictor's rows paired with its response rows,
    and the diagonal arrays are empty.
    """
    y_index = {s.subject_id: j for j, s in enumerate(y_sample.subjects)}
    match = np.array([y_index.get(s.subject_id, -1) for s in x_sample.subjects], dtype=np.intp)
    px, py = pooled_points(x_sample), pooled_points(y_sample)
    rx = px.values - x_mean.at(px.times)
    ry = py.values - y_mean.at(py.times)
    count_x = x_sample.counts
    # the trailing empty entry is what an unmatched id (index -1) pairs with
    count_y = np.append(y_sample.counts, 0)
    start_y = np.cumsum(count_y) - count_y
    pairs = RawCovariances(
        px.times, py.times, rx, ry, np.cumsum(count_x) - count_x, count_x,
        start_y[match], count_y[match], np.empty(0), np.empty(0),
    )
    return pairs, int((match >= 0).sum())


def estimate_cross_covariance(
    x_sample: SparseFunctionalSample,
    y_sample: SparseFunctionalSample,
    x_mean: MeanEstimate,
    y_mean: MeanEstimate,
    grid_s: RegularGrid,
    grid_t: RegularGrid,
    config: FpcaConfig = FpcaConfig(),
    flags: SmoothFlags | None = None,
) -> CrossCovarianceEstimate:
    """Cross-covariance surface on ``grid_s x grid_t`` from all
    shared-subject residual products.

    Unlike the marginal covariance there is no diagonal to exclude: the two
    coordinates come from different processes, so every (predictor time,
    response time) pair is informative. Subjects appearing in only one
    sample contribute nothing. The surface takes the marginal covariance
    settings of ``config``: a fixed ``cov_bandwidth`` b serves both axes as
    (b, b), and otherwise each candidate is one of
    ``cov_bandwidth_fractions`` of each axis's domain length. Binning and
    the bandwidth search follow ``estimate_covariance``: LOSO-CV scores the
    unbinned pairs, and a GCV search's winning fit is the estimate.
    """
    pairs, n_shared = _cross_raw_pairs(x_sample, y_sample, x_mean, y_mean)
    if pairs.n_pairs == 0:
        raise FitError(
            "cross", "no subject has observations in both samples; cannot couple them"
        )
    surface, bandwidths, binned = _smooth_pairs(pairs, grid_s, grid_t, config, flags)
    return CrossCovarianceEstimate(
        grid_s, grid_t, surface, bandwidths,
        n_pairs=pairs.n_pairs, n_shared_subjects=n_shared, binned=binned,
    )


def estimate_sigma_km(
    cross: CrossCovarianceEstimate,
    x_model: FpcaModel,
    y_model: FpcaModel,
) -> np.ndarray:
    """Project the cross-covariance surface onto the two eigenbases.

    Entry (k, m) is the double trapezoid integral of
    psi_m(s) * C(s, t) * phi_k(t) over the retained components; shape
    (y_model.n_components, x_model.n_components).
    """
    psi = x_model.eigenfunctions[: x_model.n_components]
    phi = y_model.eigenfunctions[: y_model.n_components]
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
    variance = np.maximum(((v @ phi) * phi).sum(0), 0.0)
    return TrajectoryPrediction(
        grid=model.grid_t,
        values=values_hat,
        variance=variance,
        score_info=score_info,
    )


# Rational approximations of Cephes ndtri (Moshier 1989), the code behind
# scipy.special.ndtri, kept in its operation order so the two agree bit for
# bit. P0/Q0 cover |p - 1/2| <= 3/8; P1/Q1 and P2/Q2 are in z = 1/x with
# x = sqrt(-2 log(1 - p)) below and above 8. Each Q leads with Cephes's
# implied 1, which Horner's rule makes exact: 1*x + q == x + q.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: float, coef: tuple[float, ...]) -> float:
    ans = 0.0
    for c in coef:
        ans = ans * x + c
    return ans


@functools.lru_cache(maxsize=64)
def _band_quantile(level: float) -> float:
    """The standard normal quantile at p = (1 + level) / 2 of a band at
    ``level`` in (0, 1); DataError outside that range."""
    if not 0.0 < level < 1.0:
        raise DataError(f"level must be in (0, 1), got {level}")
    p = 0.5 * (1.0 + level)
    if p == 1.0:
        return math.inf
    if p <= 1.0 - _EXP_M2:
        y = p - 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(y2, _P0) / _horner(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(1.0 - p))
    z = 1.0 / x
    num, den = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    return (x - math.log(x) / x) - z * _horner(z, num) / _horner(z, den)


def prediction_band(
    prediction: TrajectoryPrediction, level: float = BAND_LEVEL
) -> TrajectoryPrediction:
    """Attach symmetric Gaussian-quantile bands at the given level.

    The quantile is a port of Cephes ``ndtri`` (Moshier 1989), which
    ``tests/test_flr.py`` checks against ``scipy.special.ndtri`` bit for bit.
    """
    z = _band_quantile(level)
    values = prediction.values
    half = z * np.sqrt(prediction.variance)
    return TrajectoryPrediction(
        grid=prediction.grid,
        values=values,
        variance=prediction.variance,
        score_info=prediction.score_info,
        level=level,
        lower=values - half,
        upper=values + half,
    )


def predict_subject(
    model: FlrModel, subject: SubjectRecord, level: float | None = BAND_LEVEL
) -> TrajectoryPrediction:
    """Convenience wrapper: predict from a SubjectRecord, bands optional."""
    pred = predict_response(model, subject.times, subject.values)
    return prediction_band(pred, level) if level is not None else pred


def _r2_summary(
    sigma_km: np.ndarray, x_model: FpcaModel, y_model: FpcaModel, flags: SmoothFlags
) -> R2Summary:
    """The R-squared family of a fit, noting a raw global value past 1.05."""
    rho = x_model.eigenvalues[: x_model.n_components]
    value, raw, by_comp, by_pair = r2_global(
        sigma_km, rho, y_model.eigenvalues[: y_model.n_components]
    )
    pointwise = r2_pointwise(sigma_km, rho, y_model)
    excess = max(0.0, raw - 1.0)
    if excess > 0.05:
        flags.note(f"global R2 exceeded 1 by {excess:.3f} before clipping")
    return R2Summary(
        value, raw, pointwise, r2_integrated(pointwise, y_model.grid), by_comp, by_pair, excess
    )


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
    cross = _run_stage(
        "cross",
        lambda: estimate_cross_covariance(
            x_sample, y_sample, x_mean, y_mean, x_model.grid, y_model.grid, marginal, flags
        ),
    )
    sigma_km = _run_stage("sigma_km", lambda: estimate_sigma_km(cross, x_model, y_model))
    beta = _run_stage("sigma_km", lambda: estimate_beta(sigma_km, x_model, y_model))
    r2 = _run_stage("r2", lambda: _r2_summary(sigma_km, x_model, y_model, flags))
    return FlrModel(
        x=x_model,
        y=y_model,
        cross=cross,
        sigma_km=sigma_km,
        beta=beta,
        r2=r2,
        config=config,
        flags=flags,
    )
