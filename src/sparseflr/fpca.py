"""Functional principal component analysis for sparse longitudinal samples.

The pipeline pools observations across subjects: a local-linear fit of the
pooled scatter gives the mean curve; a local-plane fit of pairwise raw
covariances (diagonal pairs excluded, because their noise does not cancel)
gives the covariance surface; the surface diagonal, refitted in rotated
coordinates and compared against a fit of the raw diagonal, gives the
observation-noise variance. Eigenfunctions come from the trapezoid
discretization of the covariance operator, and per-subject component scores
are best linear predictors given the subject's noisy observations, which
stay well defined with as few as one observation per subject. The component
count is fixed by the caller or chosen by a pseudo-Gaussian AIC.

``FpcaConfig`` declares every marginal setting once; a joint fit nests one
in ``FlrConfig`` and applies it to both variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .data import (
    Interval,
    PooledPoints,
    RegularGrid,
    SparseFunctionalSample,
    SubjectRecord,
    pooled_points,
)
from .errors import DataError, FitError
from .smoothing import (
    Kernel,
    SmoothFlags,
    bin_scatter_2d,
    get_kernel,
    interp_linear,
    local_diag_rotated,
    local_linear_1d,
    local_linear_2d,
    select_bandwidth_1d,
    select_bandwidth_2d,
)

__all__ = [
    "FpcaConfig",
    "MeanEstimate",
    "RawCovariances",
    "CovarianceEstimate",
    "EigenSystem",
    "FpcaModel",
    "ScorePrediction",
    "estimate_mean",
    "raw_covariances",
    "estimate_covariance",
    "estimate_noise_variance",
    "eigendecompose",
    "ScoreBatch",
    "pace_scores",
    "pace_scores_batch",
    "select_ncomp",
    "fit_fpca",
]

# Default bandwidth candidates, expressed as fractions of the domain length.
MEAN_BANDWIDTH_FRACTIONS = (0.05, 0.075, 0.11, 0.16, 0.24, 0.35)
COV_BANDWIDTH_FRACTIONS = (0.08, 0.12, 0.18, 0.27, 0.40)

# Sign convention: eigenfunctions integrate to a nonnegative value; when the
# integral is essentially zero the largest-magnitude grid value is positive.
_SIGN_INTEGRAL_TOL = 1e-8


@dataclass(frozen=True)
class FpcaConfig:
    """Fitting controls for one functional sample.

    ``mean_bandwidth`` and ``cov_bandwidth`` may be fixed; when None they are
    selected from candidate fractions of the domain length. Unless
    ``fit_fpca`` is given a count, AIC selects it up to ``max_components``.
    """

    n_grid: int = 51
    kernel: str = "epanechnikov"
    mean_bandwidth: float | None = None
    cov_bandwidth: float | None = None
    mean_bandwidth_fractions: tuple[float, ...] = MEAN_BANDWIDTH_FRACTIONS
    cov_bandwidth_fractions: tuple[float, ...] = COV_BANDWIDTH_FRACTIONS
    bandwidth_objective: str = "gcv"
    max_components: int = 10
    eigen_floor: float = 1e-10
    bin_threshold: int = 20000

    def __post_init__(self):
        if self.n_grid < 2:
            raise DataError(f"n_grid must be >= 2, got {self.n_grid}")
        if self.max_components < 1:
            raise DataError(f"max_components must be >= 1, got {self.max_components}")
        if self.bandwidth_objective not in ("gcv", "loso-cv"):
            raise DataError(
                f"bandwidth_objective must be 'gcv' or 'loso-cv', got {self.bandwidth_objective!r}"
            )
        if not isinstance(self.kernel, str):
            raise DataError(f"kernel must be a kernel name, got {self.kernel!r}")
        get_kernel(self.kernel)


@dataclass(frozen=True)
class MeanEstimate:
    grid: RegularGrid
    values: np.ndarray
    bandwidth: float

    def at(self, t: np.ndarray) -> np.ndarray:
        return interp_linear(self.grid.points, self.values, t)


@dataclass(frozen=True)
class RawCovariances:
    """Pairwise residual products, split into off-diagonal and diagonal parts.

    Off-diagonal entries are ordered pairs (l1 != l2) so the scatter is
    symmetric in its two coordinates; diagonal entries are squared residuals
    at single observations and carry the noise variance on top of the
    surface.
    """

    s1: np.ndarray
    s2: np.ndarray
    value: np.ndarray
    subject: np.ndarray
    diag_t: np.ndarray
    diag_value: np.ndarray
    diag_subject: np.ndarray

    @property
    def n_pairs(self) -> int:
        return int(self.value.size)


@dataclass(frozen=True)
class CovarianceEstimate:
    grid: RegularGrid
    surface: np.ndarray
    bandwidth: float
    binned: bool = False


@dataclass(frozen=True)
class EigenSystem:
    """Orthonormal eigenpairs of a discretized covariance operator.

    ``functions`` has one row per component, sampled on ``grid``;
    rows are orthonormal under the grid's trapezoid weights.
    """

    grid: RegularGrid
    eigenvalues: np.ndarray
    functions: np.ndarray

    @property
    def n_retained(self) -> int:
        return int(self.eigenvalues.size)

    def variance_fractions(self) -> np.ndarray:
        total = float(self.eigenvalues.sum())
        return self.eigenvalues / total if total > 0 else np.zeros_like(self.eigenvalues)


@dataclass(frozen=True)
class ScorePrediction:
    """Best-linear-predictor component scores for one subject.

    ``omega`` is the conditional covariance of the score vector given the
    subject's observations; with no observations it equals diag(eigenvalues)
    and the scores are zero (population mean fallback, ``no_data`` set).
    """

    scores: np.ndarray
    sigma_u: np.ndarray
    h: np.ndarray
    omega: np.ndarray
    ridged: bool = False
    omega_clipped: bool = False
    no_data: bool = False


@dataclass(frozen=True)
class ScoreBatch:
    """``ScorePrediction`` fields of many subjects, stacked; row i is subject i.

    ``scores`` is (n, m) and ``omega`` (n, m, m); the flags are (n,) arrays.
    """

    scores: np.ndarray
    omega: np.ndarray
    ridged: np.ndarray
    omega_clipped: np.ndarray
    no_data: np.ndarray


@dataclass(frozen=True)
class FpcaModel:
    """Fitted marginal model for one functional variable."""

    grid: RegularGrid
    mean: np.ndarray
    surface: np.ndarray
    noise_var: float
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    n_components: int
    mean_bandwidth: float
    cov_bandwidth: float
    selection: dict = field(default_factory=dict)
    n_subjects: int = 0
    flags: SmoothFlags = field(default_factory=SmoothFlags)

    def mean_at(self, t: np.ndarray) -> np.ndarray:
        return interp_linear(self.grid.points, self.mean, t)

    def eigenfunctions_at(self, t: np.ndarray, n: int | None = None) -> np.ndarray:
        n = self.n_components if n is None else n
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if n == 0:
            return np.empty((0, t.size))
        return np.vstack([
            interp_linear(self.grid.points, row, t) for row in self.eigenfunctions[:n]
        ])

    @property
    def eigensystem(self) -> EigenSystem:
        return EigenSystem(self.grid, self.eigenvalues, self.eigenfunctions)


def _default_candidates(fractions: Sequence[float], length: float) -> list[float]:
    return [f * length for f in fractions]


def estimate_mean(
    sample: SparseFunctionalSample,
    grid: RegularGrid,
    bandwidth: float | None = None,
    kernel: Kernel | str = "epanechnikov",
    candidates: Sequence[float] | None = None,
    objective: str = "gcv",
    flags: SmoothFlags | None = None,
) -> MeanEstimate:
    """Mean curve by local-linear smoothing of the pooled scatter.

    Every observation enters with equal weight. With ``bandwidth`` None the
    bandwidth is chosen from ``candidates`` (defaults: fractions of the
    domain length) by the requested objective; a GCV search's winning fit
    is the estimate.
    """
    kern = get_kernel(kernel)
    pooled = pooled_points(sample)
    if pooled.times.size == 0:
        raise DataError("cannot estimate a mean from a sample with no observations")
    values = None
    if bandwidth is None:
        if candidates is None:
            candidates = _default_candidates(MEAN_BANDWIDTH_FRACTIONS, sample.domain.length)
        sel = select_bandwidth_1d(
            pooled.times,
            pooled.values,
            candidates,
            grid.points,
            kern,
            objective=objective,
            subject_index=pooled.subject_index,
            flags=flags,
        )
        bandwidth, values = float(sel.chosen), sel.fit
    if values is None:
        values = local_linear_1d(
            pooled.times, pooled.values, grid.points, bandwidth, kern, flags=flags
        )
    return MeanEstimate(grid, values, float(bandwidth))


def _pair_indices(
    starts_a: np.ndarray,
    counts_a: np.ndarray,
    starts_b: np.ndarray,
    counts_b: np.ndarray,
    off_diagonal: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pooled indices of every within-subject observation pair.

    Subject g pairs the ``counts_a[g]`` points from ``starts_a[g]`` with the
    ``counts_b[g]`` points from ``starts_b[g]``, row-major, leaving out the
    diagonal when ``off_diagonal`` (a subject paired with itself). Returns
    (first indices, second indices, subject of each pair).
    """
    cols = counts_b - 1 if off_diagonal else counts_b
    n_pairs = counts_a * cols
    subject = np.repeat(np.arange(n_pairs.size, dtype=np.intp), n_pairs)
    k = np.arange(subject.size) - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
    row, col = np.divmod(k, cols[subject])
    if off_diagonal:
        col += col >= row
    return starts_a[subject] + row, starts_b[subject] + col, subject


def raw_covariances(sample: SparseFunctionalSample, mean: MeanEstimate) -> RawCovariances:
    """All pairwise residual products, subject by subject.

    The mean is interpolated to each observation time. Subjects contribute
    L(L-1) ordered off-diagonal pairs (row-major in the subject's L x L
    product matrix, diagonal excluded) and L diagonal entries; subjects with
    a single observation feed only the diagonal.
    """
    pooled = pooled_points(sample)
    resid = pooled.values - mean.at(pooled.times)
    counts = np.array([s.n_obs for s in sample.subjects], dtype=np.intp)
    starts = np.cumsum(counts) - counts
    a, b, subject = _pair_indices(starts, counts, starts, counts, off_diagonal=True)
    return RawCovariances(
        s1=pooled.times[a],
        s2=pooled.times[b],
        value=resid[a] * resid[b],
        subject=subject,
        diag_t=pooled.times,
        diag_value=resid * resid,
        diag_subject=pooled.subject_index,
    )


def _smooth_pairs(
    s1: np.ndarray,
    s2: np.ndarray,
    value: np.ndarray,
    subject: np.ndarray,
    grid1: RegularGrid,
    grid2: RegularGrid,
    bandwidths: tuple[float, float] | None,
    kernel: Kernel,
    candidates: Sequence[tuple[float, float]] | None,
    objective: str,
    bin_threshold: int,
    flags: SmoothFlags | None,
) -> tuple[np.ndarray, tuple[float, float], bool]:
    """(surface, bandwidths, binned) of a raw pair scatter on ``grid1 x
    grid2``, binned, searched and fitted as ``estimate_covariance`` says;
    default candidates are fractions of each axis's domain length."""
    x1, x2, z, w = s1, s2, value, None
    binned = value.size > bin_threshold
    if binned:
        x1, x2, z, w = bin_scatter_2d(s1, s2, value, grid1.points, grid2.points)
    surface = None
    if bandwidths is None:
        if candidates is None:
            candidates = [
                (f * grid1.interval.length, f * grid2.interval.length)
                for f in COV_BANDWIDTH_FRACTIONS
            ]
        loso = objective == "loso-cv"
        sel = select_bandwidth_2d(
            *((s1, s2, value) if loso else (x1, x2, z)),
            candidates,
            grid1.points,
            grid2.points,
            kernel,
            weights=None if loso else w,
            objective=objective,
            subject_index=subject,
            flags=flags,
        )
        bandwidths, surface = sel.chosen, sel.fit
    if surface is None:
        surface = local_linear_2d(
            x1, x2, z, grid1.points, grid2.points, bandwidths, kernel, weights=w, flags=flags
        )
    return surface, (float(bandwidths[0]), float(bandwidths[1])), binned


def estimate_covariance(
    raw: RawCovariances,
    grid: RegularGrid,
    bandwidth: float | None = None,
    kernel: Kernel | str = "epanechnikov",
    candidates: Sequence[float] | None = None,
    objective: str = "gcv",
    bin_threshold: int = 20000,
    flags: SmoothFlags | None = None,
) -> CovarianceEstimate:
    """Covariance surface by local-plane smoothing of off-diagonal pairs.

    One bandwidth serves both axes (the surface is symmetric, so anisotropic
    smoothing buys nothing). With ``bandwidth`` None it is chosen from
    ``candidates`` (defaults: fractions of the grid's domain length) by the
    requested objective, and a GCV search's winning fit is the estimate.
    The fitted surface is symmetrized. Scatters larger than
    ``bin_threshold`` are pre-aggregated onto the grid nodes; LOSO-CV
    scores the unbinned pairs, since binning pools subjects.
    """
    if raw.n_pairs == 0:
        raise FitError("covariance", "no subject contributes an off-diagonal pair")
    surface, (bandwidth, _), binned = _smooth_pairs(
        raw.s1, raw.s2, raw.value, raw.subject, grid, grid,
        None if bandwidth is None else (bandwidth, bandwidth),
        get_kernel(kernel),
        None if candidates is None else [(c, c) for c in candidates],
        objective, bin_threshold, flags,
    )
    surface = 0.5 * (surface + surface.T)
    return CovarianceEstimate(grid, surface, bandwidth, binned=binned)


def estimate_noise_variance(
    raw: RawCovariances,
    grid: RegularGrid,
    bandwidth: float,
    kernel: Kernel | str = "epanechnikov",
    flags: SmoothFlags | None = None,
) -> float:
    """Observation-noise variance from the diagonal inflation.

    The raw diagonal carries surface-plus-noise; the rotated diagonal fit of
    off-diagonal pairs carries the surface alone. Their difference is
    integrated over the middle half of the domain (boundary fits are the
    least reliable) and scaled back to a per-point variance. Negative
    estimates truncate to zero.
    """
    kern = get_kernel(kernel)
    if raw.diag_t.size == 0:
        raise FitError("noise_variance", "no observations to fit the raw diagonal")
    if raw.n_pairs == 0:
        raise FitError("noise_variance", "no off-diagonal pairs for the surface diagonal")
    lo, hi = grid.interval.lo, grid.interval.hi
    length = grid.interval.length
    mid = RegularGrid(
        Interval(lo + 0.25 * length, hi - 0.25 * length),
        max(2, grid.n_points // 2 + 1),
    )
    v_hat = local_linear_1d(
        raw.diag_t, raw.diag_value, mid.points, bandwidth, kern, flags=flags
    )
    g_diag = local_diag_rotated(
        raw.s1, raw.s2, raw.value, mid.points, bandwidth, kern, flags=flags
    )
    est = 2.0 / length * mid.integrate(v_hat - g_diag)
    if est < 0 and flags is not None:
        flags.note(f"noise variance truncated to 0 (raw estimate {est:.3e})")
    return max(0.0, float(est))


def eigendecompose(
    cov: CovarianceEstimate,
    floor: float = 1e-10,
    flags: SmoothFlags | None = None,
) -> EigenSystem:
    """Eigenpairs of the covariance surface under trapezoid quadrature.

    The surface matrix is scaled symmetrically by the square-root quadrature
    weights so a standard symmetric eigensolve yields functions orthonormal
    in the quadrature inner product. Eigenvalues at or below ``floor`` times
    the largest are dropped (the smoothed surface need not be positive
    semi-definite; trailing noise components carry no signal).
    """
    w = cov.grid.trapezoid_weights
    sq = np.sqrt(w)
    a = sq[:, None] * cov.surface * sq[None, :]
    a = 0.5 * (a + a.T)
    lam, vec = np.linalg.eigh(a)
    lam = lam[::-1]
    vec = vec[:, ::-1]
    if lam.size == 0 or lam[0] <= 0:
        raise FitError("eigendecompose", "covariance surface has no positive eigenvalue")
    keep = lam > floor * lam[0]
    n_dropped = int((~keep).sum())
    if n_dropped and flags is not None:
        flags.note(f"dropped {n_dropped} eigenvalue(s) at or below the floor")
    lam = lam[keep]
    funcs = (vec[:, keep] / sq[:, None]).T

    weights = cov.grid.trapezoid_weights
    for r in range(funcs.shape[0]):
        integral = float(funcs[r] @ weights)
        if abs(integral) >= _SIGN_INTEGRAL_TOL:
            if integral < 0:
                funcs[r] = -funcs[r]
        elif funcs[r][np.argmax(np.abs(funcs[r]))] < 0:
            funcs[r] = -funcs[r]
    return EigenSystem(cov.grid, lam, funcs)


def _check_ncomp(model: FpcaModel, n_components: int | None) -> int:
    m = model.n_components if n_components is None else int(n_components)
    if m < 1 or m > model.eigenvalues.size:
        raise ValueError(f"n_components must be in [1, {model.eigenvalues.size}], got {m}")
    return m


def _score_group(model: FpcaModel, psi: np.ndarray, resid: np.ndarray) -> tuple:
    """Scores of G subjects sharing one observation count L, solved stacked.

    ``psi`` (G, m, L) holds eigenfunction values in C order, which makes
    each stacked product round exactly as it would for one subject alone;
    ``resid`` (G, L) holds observations minus the mean. Returns (h, sigma_u,
    scores, omega, ridged, omega_clipped). Sigma_U is ridged only where an
    LU solve would be unstable, when its smallest eigenvalue magnitude falls
    to 1e-12 of the largest (near-duplicate times with a zero noise
    estimate, for example): 1e-8 * max(trace, largest magnitude) / L is
    added to its diagonal. Omega's negative eigenvalues, left by rounding,
    are clipped to zero.
    """
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
    return h, sigma, scores, omega, ridged, clipped


def pace_scores_batch(
    model: FpcaModel,
    subjects: Sequence[SubjectRecord],
    n_components: int | None = None,
) -> ScoreBatch:
    """Conditional-expectation component scores for many subjects at once.

    Row i belongs to ``subjects[i]`` and equals what ``pace_scores`` returns
    for that subject alone. The mean and the eigenfunctions are interpolated
    once at the pooled times, and subjects sharing an observation count are
    solved stacked, so the cost grows with the number of distinct counts
    rather than of subjects.
    """
    m = _check_ncomp(model, n_components)
    n = len(subjects)
    counts = np.array([s.n_obs for s in subjects], dtype=np.intp)
    t_all = np.concatenate([np.empty(0)] + [s.times for s in subjects])
    u_all = np.concatenate([np.empty(0)] + [s.values for s in subjects])
    resid_all = u_all - model.mean_at(t_all)
    psi_all = model.eigenfunctions_at(t_all, m)
    starts = np.cumsum(counts) - counts
    scores = np.zeros((n, m))
    omega = np.repeat(np.diag(model.eigenvalues[:m])[None], n, axis=0)
    ridged = np.zeros(n, dtype=bool)
    clipped = np.zeros(n, dtype=bool)
    for n_obs in sorted(set(counts.tolist()) - {0}):
        rows = np.flatnonzero(counts == n_obs)
        idx = starts[rows, None] + np.arange(n_obs)
        psi = np.ascontiguousarray(psi_all[:, idx].transpose(1, 0, 2))
        _, _, scores[rows], omega[rows], ridged[rows], clipped[rows] = _score_group(
            model, psi, resid_all[idx]
        )
    return ScoreBatch(scores, omega, ridged, clipped, counts == 0)


def pace_scores(
    model: FpcaModel,
    times: np.ndarray,
    values: np.ndarray,
    n_components: int | None = None,
) -> ScorePrediction:
    """Conditional-expectation component scores for one subject.

    Computes E[score | observations] under the fitted Gaussian working
    model: scores = D Psi (Sigma_U)^-1 (U - mu), where Sigma_U is the
    model's own covariance of the observation vector, Psi D Psi^T plus
    noise variance on the diagonal, and D Psi stacks eigenvalue-scaled
    eigenfunction values. Building Sigma_U from the retained components
    keeps it positive definite by construction; interpolating the smoothed
    surface between grid nodes instead can go mildly indefinite and
    destabilize both the scores and the component-count selection.
    ``omega`` is the matching conditional covariance D - H Sigma_U^-1 H^T,
    projected onto the PSD cone if rounding pushed it off. The subject is
    scored as a batch of one by the core of ``pace_scores_batch``.

    Subjects with zero observations fall back to zero scores with
    omega = diag(eigenvalues).
    """
    m = _check_ncomp(model, n_components)
    t = np.asarray(times, dtype=float).ravel()
    u = np.asarray(values, dtype=float).ravel()
    if t.size != u.size:
        raise ValueError("times and values lengths differ")
    if t.size == 0:
        return ScorePrediction(
            scores=np.zeros(m),
            sigma_u=np.empty((0, 0)),
            h=np.empty((m, 0)),
            omega=np.diag(model.eigenvalues[:m]),
            no_data=True,
        )
    psi = model.eigenfunctions_at(t, m)[None]
    h, sigma, scores, omega, ridged, clipped = _score_group(
        model, psi, (u - model.mean_at(t))[None]
    )
    return ScorePrediction(
        scores[0], sigma[0], h[0], omega[0], bool(ridged[0]), bool(clipped[0])
    )


def _aic_curve(
    model: FpcaModel, sample: SparseFunctionalSample, max_m: int
) -> np.ndarray:
    """Gaussian pseudo-likelihood AIC for component counts 1..max_m.

    The per-subject deviance uses residuals after removing the fitted
    truncated trajectory at the subject's own times; the penalty adds the
    component count. The noise variance enters both the quadratic weight and
    the log term; an exact zero is floored at a scale-aware epsilon so the
    log stays finite.
    """
    diag_scale = float(np.mean(np.diag(model.surface)))
    sigma2 = max(model.noise_var, 1e-8 * max(diag_scale, 0.0), 1e-300)
    scores = pace_scores_batch(model, sample.subjects, max_m).scores
    pooled = pooled_points(sample)
    resid = pooled.values - model.mean_at(pooled.times)
    psi = model.eigenfunctions_at(pooled.times, max_m)
    # row m - 1 holds the residuals of the trajectory truncated to m components
    r = resid - np.cumsum(scores[pooled.subject_index].T * psi, axis=0)
    log_term = 0.5 * resid.size * (math.log(2.0 * math.pi) + math.log(sigma2))
    return np.einsum("mn,mn->m", r, r) / (2.0 * sigma2) + log_term + np.arange(1, max_m + 1)


def select_ncomp(
    sample: SparseFunctionalSample,
    model: FpcaModel,
    max_components: int = 10,
) -> tuple[int, dict]:
    """Pick the component count by pseudo-Gaussian AIC.

    Returns the argmin count and a record of the criterion curve. Ties go to
    the smaller count.
    """
    max_m = min(max_components, model.eigenvalues.size)
    if max_m < 1:
        raise FitError("select_ncomp", "no retained eigenvalues to choose from")
    curve = _aic_curve(model, sample, max_m)
    n = int(np.argmin(curve)) + 1
    return n, {"method": "aic", "criterion": [float(v) for v in curve], "chosen": n}


def fit_fpca(
    sample: SparseFunctionalSample,
    config: FpcaConfig = FpcaConfig(),
    ncomp: int | None = None,
    flags: SmoothFlags | None = None,
    stage_prefix: str = "",
) -> FpcaModel:
    """Fit the full marginal model: mean, surface, noise, eigenpairs, count.

    A fixed ``ncomp`` (at least 1, clamped to the retained eigenpairs)
    replaces the AIC selection. Raises FitError with a stage name
    (optionally prefixed, so a joint fit can distinguish predictor from
    response stages) when any step cannot proceed.
    """
    if ncomp is not None and ncomp < 1:
        raise DataError(f"ncomp must be >= 1, got {ncomp}")
    flags = flags if flags is not None else SmoothFlags()
    kern = get_kernel(config.kernel)
    grid = RegularGrid(sample.domain, config.n_grid)

    if all(s.n_obs < 2 for s in sample.subjects):
        raise FitError(
            stage_prefix + "covariance",
            "need at least one subject with 2 or more observations",
        )

    def run(stage, fn):
        try:
            return fn()
        except FitError:
            raise
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise FitError(stage_prefix + stage, str(exc)) from exc

    mean = run(
        "mean",
        lambda: estimate_mean(
            sample,
            grid,
            bandwidth=config.mean_bandwidth,
            kernel=kern,
            candidates=_default_candidates(
                config.mean_bandwidth_fractions, sample.domain.length
            ),
            objective=config.bandwidth_objective,
            flags=flags,
        ),
    )
    raw = run("raw_covariances", lambda: raw_covariances(sample, mean))
    cov = run(
        "covariance",
        lambda: estimate_covariance(
            raw,
            grid,
            bandwidth=config.cov_bandwidth,
            kernel=kern,
            candidates=_default_candidates(
                config.cov_bandwidth_fractions, sample.domain.length
            ),
            objective=config.bandwidth_objective,
            bin_threshold=config.bin_threshold,
            flags=flags,
        ),
    )
    sigma2 = run(
        "noise_variance",
        lambda: estimate_noise_variance(raw, grid, cov.bandwidth, kern, flags=flags),
    )
    eig = run("eigendecompose", lambda: eigendecompose(cov, floor=config.eigen_floor, flags=flags))

    model = FpcaModel(
        grid=grid,
        mean=mean.values,
        surface=cov.surface,
        noise_var=sigma2,
        eigenvalues=eig.eigenvalues,
        eigenfunctions=eig.functions,
        n_components=min(ncomp or eig.n_retained, eig.n_retained),
        mean_bandwidth=mean.bandwidth,
        cov_bandwidth=cov.bandwidth,
        selection={},
        n_subjects=sample.n_subjects,
        flags=flags,
    )
    if ncomp is not None:
        if ncomp > eig.n_retained:
            flags.note(f"requested {ncomp} components, only {eig.n_retained} retained")
        info = {"method": "fixed", "chosen": model.n_components}
        return replace(model, selection=info)
    n, info = run(
        "select_ncomp",
        lambda: select_ncomp(sample, model, config.max_components),
    )
    return replace(model, n_components=n, selection=info)
