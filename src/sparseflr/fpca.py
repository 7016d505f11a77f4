"""Functional principal component analysis for sparse longitudinal samples.

The pipeline pools observations across subjects: a local-linear fit of the
pooled scatter gives the mean curve; a local-plane fit of pairwise raw
covariances (diagonal pairs excluded, because their noise does not cancel)
gives the covariance surface. Eigenfunctions come from the trapezoid
discretization of the covariance operator, and per-subject component scores
are best linear predictors given the subject's noisy observations, which
stay well defined with as few as one observation per subject.

The noise variance and the component count come from one Gaussian
reduced-rank likelihood at the fitted eigenpairs (James, Hastie & Sugar
2000): each count's noise variance maximizes it, and the count is fixed by
the caller or chosen by its BIC (Li, Wang & Carroll 2013).

``RawCovariances`` holds the scatters of the covariance and
cross-covariance surfaces alike as their observations: pooled times and
residuals and each subject's rows. Pairs are formed only where a stage
reads them, as indices into the observations built by ``np.repeat`` over
the pooled rows. Unbinned or LOSO-CV smoothing forms every pair at once. A
binned surface forms them a run of whole subjects at a time, about
``smoothing._PAIR_CHUNK`` pairs, and bins each run as it comes
(``bin_scatter_2d`` with a chunk source). A binned fit thus holds no array
with one entry per pair, and every number equals the one the materialized
pairs give.

``FpcaConfig`` declares every marginal setting once; a joint fit nests one
in ``FlrConfig`` and applies it to both variables. Each stage function
reads its settings from the config it is given and takes only fitted
values (a grid, a mean, a bandwidth) as arguments. Bandwidth candidates are
formed in two places: ``estimate_mean`` for the mean curve and
``_smooth_pairs`` for the covariance and cross-covariance surfaces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .data import (
    PooledPoints,
    RegularGrid,
    SparseFunctionalSample,
    SubjectRecord,
    pooled_points,
)
from .errors import DataError, FitError, _require_int, _require_real
from .smoothing import (
    BANDWIDTH_OBJECTIVES,
    KERNEL_NAMES,
    SmoothFlags,
    _bin_linear,
    _interp_slopes,
    _runs,
    bin_scatter_2d,
    get_kernel,
    interp_linear,
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

# Pair scatters larger than this are pre-aggregated onto the grid nodes
# before surface smoothing.
BIN_THRESHOLD = 20000

# Eigenvalues at or below this fraction of the largest are dropped.
EIGEN_FLOOR = 1e-10

# Sigma_U is not tested for a ridge, and is solved once for the scores and
# omega, where the noise variance exceeds this fraction of a bound on its
# trace and there are at most _RIDGE_FREE_MAX_OBS observations; see
# ``_score_group`` and ``FpcaModel._ridge_free_obs``.
_RIDGE_FREE_NOISE = 1e-9
_RIDGE_FREE_MAX_OBS = 1000

# Omega less this fraction of its trace on the diagonal has a Cholesky factor
# only where none of its eigenvalues can round below zero; see
# ``_score_group``.
_CLIP_MARGIN = 1e-9

# The noise-variance search of ``_marginal_loglik`` on x = log(sigma^2 / v):
# start spacing, largest step, end tolerance, step cap, and the bounds of x.
_SEARCH_DIFF, _SEARCH_STEP, _SEARCH_TOL, _SEARCH_ITER = 1e-3, 1.0, 3e-5, 100
_SEARCH_FLOOR, _SEARCH_CEIL = math.log(1e-12), math.log(1e3)

# Sign convention: eigenfunctions integrate to a nonnegative value; when the
# integral is essentially zero the largest-magnitude grid value is positive.
_SIGN_INTEGRAL_TOL = 1e-8


@dataclass(frozen=True)
class FpcaConfig:
    """Fitting controls for one functional sample.

    ``mean_bandwidth`` and ``cov_bandwidth`` may be fixed (finite and > 0);
    when None they are selected from candidate fractions of the domain
    length (non-empty, each finite and > 0). Unless ``fit_fpca`` is given a
    count, the likelihood's BIC selects it up to ``max_components``.
    """

    n_grid: int = 51
    kernel: str = "epanechnikov"
    mean_bandwidth: float | None = None
    cov_bandwidth: float | None = None
    mean_bandwidth_fractions: tuple[float, ...] = (0.05, 0.075, 0.11, 0.16, 0.24, 0.35)
    cov_bandwidth_fractions: tuple[float, ...] = (0.08, 0.12, 0.18, 0.27, 0.40)
    bandwidth_objective: str = "gcv"
    max_components: int = 10

    def __post_init__(self):
        _require_int(self, "n_grid", 2)
        _require_int(self, "max_components", 1)
        if self.bandwidth_objective not in BANDWIDTH_OBJECTIVES:
            raise DataError(
                f"bandwidth_objective must be one of {BANDWIDTH_OBJECTIVES}, "
                f"got {self.bandwidth_objective!r}"
            )
        if self.kernel not in KERNEL_NAMES:
            raise DataError(f"kernel must be one of {KERNEL_NAMES}, got {self.kernel!r}")
        for name in ("mean_bandwidth", "cov_bandwidth"):
            if getattr(self, name) is not None:
                _require_real(self, name)
                if not _finite_positive(getattr(self, name)):
                    raise DataError(
                        f"{name} must be None or finite and > 0, got {getattr(self, name)!r}"
                    )
        for name in ("mean_bandwidth_fractions", "cov_bandwidth_fractions"):
            _require_real(self, name, sequence=True)
            fractions = getattr(self, name)
            if not fractions or not all(_finite_positive(f) for f in fractions):
                raise DataError(
                    f"{name} must be non-empty, each value finite and > 0, got {fractions!r}"
                )


def _finite_positive(v: float) -> bool:
    return math.isfinite(v) and v > 0


@dataclass(frozen=True)
class MeanEstimate:
    grid: RegularGrid
    values: np.ndarray
    bandwidth: float

    def at(self, t: np.ndarray) -> np.ndarray:
        return interp_linear(self.grid.points, self.values, t)


@dataclass(frozen=True)
class RawCovariances:
    """Pairwise residual products off the diagonal.

    Entries are ordered pairs (l1 != l2) so the scatter is symmetric in its
    two coordinates; squared residuals at single observations, which carry
    the noise variance on top of the surface, are left out.

    The scatter is held as its observations: times and residuals on each
    side, pooled, and each subject's rows. Subject g pairs its
    ``counts_a[g]`` observations from ``starts_a[g]`` on side a with its
    ``counts_b[g]`` from ``starts_b[g]`` on side b, row-major; with
    ``starts_b`` and ``counts_b`` None its side-a observations pair with
    each other, leaving out the diagonal, and side b is side a. The pair of
    observations k and l lies at (``times_a[k]``, ``times_b[l]``) and
    carries ``resid_a[k] * resid_b[l]``.

    ``chunks`` forms the pairs' indices a run of whole subjects at a time,
    and ``products`` their values; ``s1``, ``s2``, ``value`` and ``subject``
    form every pair on each read, in the same order, ``subject`` as the
    roster position in the ``_index_dtype`` of ``_pair_indices``.
    """

    times_a: np.ndarray
    times_b: np.ndarray
    resid_a: np.ndarray
    resid_b: np.ndarray
    starts_a: np.ndarray
    counts_a: np.ndarray
    starts_b: np.ndarray | None
    counts_b: np.ndarray | None

    @property
    def n_pairs(self) -> int:
        return int(self._subject_pairs().sum())

    def _subject_pairs(self) -> np.ndarray:
        """The number of pairs of each subject."""
        if self.starts_b is None:
            return self.counts_a * (self.counts_a - 1)
        return self.counts_a * self.counts_b

    def _pairs(self, run: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, subject) of the pairs of the subjects ``run``, a slice of
        the roster: pooled indices on each side and the subject, counted
        from the run's first."""
        side_b = () if self.starts_b is None else (self.starts_b[run], self.counts_b[run])
        return _pair_indices(self.starts_a[run], self.counts_a[run], *side_b)

    def products(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The values of the pairs of observations ``a`` and ``b``."""
        return self.resid_a.take(a) * self.resid_b.take(b)

    def chunks(self):
        """(a, b) of the pairs, one run of whole subjects at a time
        (``smoothing._runs`` of the pair counts), in pair order."""
        for run in _runs(self._subject_pairs()):
            yield self._pairs(run)[:2]

    def scatter(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(s1, s2, value, subject) of every pair at once."""
        a, b, subject = self._pairs(slice(0, self.counts_a.size))
        return self.times_a.take(a), self.times_b.take(b), self.products(a, b), subject

    @property
    def s1(self) -> np.ndarray:
        return self.scatter()[0]

    @property
    def s2(self) -> np.ndarray:
        return self.scatter()[1]

    @property
    def value(self) -> np.ndarray:
        return self.scatter()[2]

    @property
    def subject(self) -> np.ndarray:
        return self.scatter()[3]


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

    def mean_at(self, t: np.ndarray) -> np.ndarray:
        return interp_linear(self.grid.points, self.mean, t)

    def eigenfunctions_at(self, t: np.ndarray, n: int | None = None) -> np.ndarray:
        n = self.n_components if n is None else n
        return self._curves_at(np.atleast_1d(np.asarray(t, dtype=float)), n)[1:]

    @functools.cached_property
    def _curve_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The mean and the eigenfunctions stacked in rows, with their
        slopes between grid nodes; formed once per model, read-only."""
        curves = np.vstack([self.mean, self.eigenfunctions])
        slopes = _interp_slopes(self.grid.points, curves)
        curves.flags.writeable = slopes.flags.writeable = False
        return curves, slopes

    def _curves_at(self, t: np.ndarray, n: int) -> np.ndarray:
        """The mean (row 0) and the first ``n`` eigenfunctions (rows 1..n)
        at the float array ``t``, in one stacked interpolation; for finite
        times each row equals ``np.interp`` of its curve bit for bit, as
        ``mean_at`` is."""
        curves, slopes = self._curve_table
        return interp_linear(self.grid.points, curves[: n + 1], t, slopes[: n + 1])

    @functools.cached_property
    def _ridge_free_obs(self) -> int:
        """The observation count up to which ``_score_group`` skips the
        ridge test: there the noise variance exceeds ``_RIDGE_FREE_NOISE``
        of Sigma_U's trace, whatever the times.

        Linear interpolation keeps each |psi_k(t)| within its largest grid
        magnitude, so with nonnegative eigenvalues a diagonal entry of
        Sigma_U is at most sum_k rho_k max psi_k^2 + noise, and the trace of
        L observations at most L times that; the factor 1 + 1e-6 covers the
        rounding of these sums. At most ``_RIDGE_FREE_MAX_OBS``, which keeps
        the eigensolver's rounding, of order L * eps, far below 1e-9; 0
        where an eigenvalue is negative or the noise variance is not
        positive and finite.
        """
        rho, noise = self.eigenvalues, self.noise_var
        peak = float(rho @ np.square(self.eigenfunctions).max(axis=1))
        if not (0.0 < noise < math.inf and rho.min() >= 0.0 and math.isfinite(peak)):
            return 0
        bound = noise / (_RIDGE_FREE_NOISE * (1.0 + 1e-6) * (peak + noise))
        return int(min(bound, _RIDGE_FREE_MAX_OBS))

    @property
    def eigensystem(self) -> EigenSystem:
        return EigenSystem(self.grid, self.eigenvalues, self.eigenfunctions)


def estimate_mean(
    sample: SparseFunctionalSample,
    grid: RegularGrid,
    config: FpcaConfig = FpcaConfig(),
    flags: SmoothFlags | None = None,
) -> MeanEstimate:
    """Mean curve on ``grid`` by local-linear smoothing of the pooled scatter.

    Every observation enters with equal weight. ``config.mean_bandwidth``
    fixes the bandwidth; when None, ``config.bandwidth_objective`` chooses
    it among ``config.mean_bandwidth_fractions`` of the domain length, and
    a GCV search's winning fit is the estimate. A pooled scatter of more
    than 401 points is smoothed on its linear binning onto a 401-node
    lattice, whichever rule set the bandwidth, so a mean fixed at the GCV
    pick is the GCV fit bit for bit; smaller ones are smoothed exactly (see
    ``select_bandwidth_1d``). ``config.n_grid`` is read by ``fit_fpca``
    alone, which builds ``grid`` from it.
    """
    kern = get_kernel(config.kernel)
    pooled = pooled_points(sample)
    if pooled.times.size == 0:
        raise DataError("cannot estimate a mean from a sample with no observations")
    bandwidth, values = config.mean_bandwidth, None
    if bandwidth is None:
        sel = select_bandwidth_1d(
            pooled.times,
            pooled.values,
            [f * sample.domain.length for f in config.mean_bandwidth_fractions],
            grid.points,
            kern,
            objective=config.bandwidth_objective,
            subject_index=pooled.subject_index,
            flags=flags,
        )
        bandwidth, values = float(sel.chosen), sel.fit
    if values is None:
        x, y, w = _bin_linear(pooled.times, pooled.values, None, grid.points)
        values = local_linear_1d(x, y, grid.points, bandwidth, kern, weights=w, flags=flags)
    return MeanEstimate(grid, values, float(bandwidth))


def _index_dtype(*sizes: int) -> type:
    """int32 where every one of ``sizes`` is at most int32's largest value,
    else ``np.intp``: the dtype of indices that count up to these sizes."""
    return np.int32 if max(sizes, default=0) <= np.iinfo(np.int32).max else np.intp


def _pair_indices(
    starts_a: np.ndarray,
    counts_a: np.ndarray,
    starts_b: np.ndarray | None = None,
    counts_b: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pooled indices of every within-subject observation pair.

    Subject g pairs the ``counts_a[g]`` points from ``starts_a[g]`` with the
    ``counts_b[g]`` points from ``starts_b[g]``, row-major. With no b side
    each subject's points pair with each other, leaving out the diagonal.
    Returns (first indices, second indices, subject of each pair), all of
    the ``_index_dtype`` of the pair count, the subject count and the
    largest start plus count on each side.

    Each row, one first point, is repeated over its columns; the second
    indices run on from the row's first pair, stepping over the diagonal.
    """
    self_pairs = starts_b is None
    if self_pairs:
        starts_b, counts_b = starts_a, counts_a
    row_subject = np.repeat(np.arange(counts_a.size, dtype=np.intp), counts_a)
    row = starts_a[row_subject] + (
        np.arange(row_subject.size) - np.repeat(np.cumsum(counts_a) - counts_a, counts_a)
    )
    cols = counts_b[row_subject] - int(self_pairs)
    first = np.cumsum(cols) - cols
    n_pairs = int(cols.sum())
    dtype = _index_dtype(
        n_pairs,
        counts_a.size,
        int((starts_a + counts_a).max(initial=0)),
        int((starts_b + counts_b).max(initial=0)),
    )
    a = np.repeat(row.astype(dtype), cols)
    b = np.arange(n_pairs, dtype=dtype)
    b += np.repeat((starts_b[row_subject] - first).astype(dtype), cols)
    if self_pairs:
        b += b >= a
    return a, b, np.repeat(row_subject.astype(dtype), cols)


def raw_covariances(sample: SparseFunctionalSample, mean: MeanEstimate) -> RawCovariances:
    """All pairwise residual products, subject by subject.

    The mean is interpolated to each observation time. Subjects contribute
    L(L-1) ordered off-diagonal pairs (row-major in the subject's L x L
    product matrix, diagonal excluded); subjects with a single observation
    contribute none. Only the observations are kept: the pooled times and
    residuals and each subject's rows. The pairs are formed where a stage
    reads them (see ``RawCovariances``), so the scatter takes memory of the
    order of the observations, not of the pairs.
    """
    pooled = pooled_points(sample)
    resid = pooled.values - mean.at(pooled.times)
    counts = sample.counts
    return RawCovariances(
        pooled.times, pooled.times, resid, resid, np.cumsum(counts) - counts, counts, None, None
    )


def _smooth_pairs(
    pairs: RawCovariances,
    grid1: RegularGrid,
    grid2: RegularGrid,
    config: FpcaConfig,
    flags: SmoothFlags | None,
) -> tuple[np.ndarray, tuple[float, float], bool]:
    """(surface, bandwidths, binned) of a raw pair scatter on ``grid1 x
    grid2``, binned, searched and fitted as ``estimate_covariance`` says.

    A fixed ``config.cov_bandwidth`` b serves both axes as (b, b); otherwise
    each candidate is one of ``config.cov_bandwidth_fractions`` of each
    axis's domain length. A binned scatter is binned from its chunks; every
    pair is formed at once only for an unbinned scatter or a LOSO-CV
    search."""
    kernel = get_kernel(config.kernel)
    g1, g2 = grid1.points, grid2.points
    binned = pairs.n_pairs > BIN_THRESHOLD
    loso = config.cov_bandwidth is None and config.bandwidth_objective == "loso-cv"
    if loso or not binned:
        s1, s2, value, subject = pairs.scatter()
    if binned:
        chunks = ((a, b, pairs.products(a, b)) for a, b in pairs.chunks())
        x1, x2, z, w = bin_scatter_2d(pairs.times_a, pairs.times_b, None, g1, g2, pairs=chunks)
    else:
        x1, x2, z, w = s1, s2, value, None
    if config.cov_bandwidth is None:
        sel = select_bandwidth_2d(
            *((s1, s2, value) if loso else (x1, x2, z)),
            [
                (f * grid1.interval.length, f * grid2.interval.length)
                for f in config.cov_bandwidth_fractions
            ],
            g1,
            g2,
            kernel,
            weights=None if loso else w,
            objective=config.bandwidth_objective,
            subject_index=subject if loso else None,
            flags=flags,
        )
        bandwidths, surface = sel.chosen, sel.fit
    else:
        bandwidths, surface = (config.cov_bandwidth, config.cov_bandwidth), None
    if surface is None:
        surface = local_linear_2d(x1, x2, z, g1, g2, bandwidths, kernel, weights=w, flags=flags)
    return surface, (float(bandwidths[0]), float(bandwidths[1])), binned


def estimate_covariance(
    raw: RawCovariances,
    grid: RegularGrid,
    config: FpcaConfig = FpcaConfig(),
    flags: SmoothFlags | None = None,
) -> CovarianceEstimate:
    """Covariance surface on ``grid`` from the off-diagonal pairs.

    One bandwidth serves both axes (the surface is symmetric, so anisotropic
    smoothing buys nothing). ``config.cov_bandwidth`` fixes it; when None,
    ``config.bandwidth_objective`` chooses it among
    ``config.cov_bandwidth_fractions`` of the grid's domain length, and a
    GCV search's winning fit is the estimate. ``config.n_grid`` is read by
    ``fit_fpca`` alone. The fitted surface is symmetrized. Scatters larger
    than ``BIN_THRESHOLD`` are pre-aggregated onto the grid nodes; LOSO-CV
    scores the unbinned pairs, since binning pools subjects. A GCV search
    of a smaller scatter scores its candidates on the pairs' linear
    binning and fits the winner exactly to the pairs
    (``select_bandwidth_2d``), so ``flags`` counts that one fit.

    Binning passes ``raw.chunks()``, with their ``products``, to
    ``bin_scatter_2d``: the pairs are formed and binned a run of subjects at
    a time, each pair's node gathered from the nearest nodes of its two
    observations, and the aggregate is that of ``s1``, ``s2`` and ``value``
    bit for bit, without an array over every pair.
    """
    if raw.n_pairs == 0:
        raise FitError("covariance", "no subject contributes an off-diagonal pair")
    surface, (bandwidth, _), binned = _smooth_pairs(raw, grid, grid, config, flags)
    surface = 0.5 * (surface + surface.T)
    return CovarianceEstimate(grid, surface, bandwidth, binned=binned)


def eigendecompose(
    cov: CovarianceEstimate,
    flags: SmoothFlags | None = None,
) -> EigenSystem:
    """Eigenpairs of the covariance surface under trapezoid quadrature.

    The surface matrix is scaled symmetrically by the square-root quadrature
    weights so a standard symmetric eigensolve yields functions orthonormal
    in the quadrature inner product. Eigenvalues at or below ``EIGEN_FLOOR``
    times the largest are dropped (the smoothed surface need not be positive
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
    keep = lam > EIGEN_FLOOR * lam[0]
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


@functools.lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, formed once per size, read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _score_group(model: FpcaModel, psi: np.ndarray, resid: np.ndarray) -> tuple:
    """Scores of G subjects sharing one observation count L, solved stacked.

    ``psi`` (G, m, L) holds eigenfunction values in C order, which makes
    each stacked product round exactly as it would for one subject alone;
    ``resid`` (G, L) holds observations minus the mean. One subject may also
    come unstacked, as ``psi`` (m, L) and ``resid`` (L,), which spares the
    stacking: every array returned then drops its leading axis and equals
    the subject's row of a stack bit for bit. Returns (h, sigma_u, scores,
    omega, ridged, omega_clipped).

    Sigma_U is ridged only where an LU solve would be unstable, when its
    smallest eigenvalue magnitude falls to 1e-12 of the largest
    (near-duplicate times with a zero noise estimate, for example): 1e-8 *
    max(trace, largest magnitude) / L is added to its diagonal. The test
    takes an eigensolve, which is skipped for L up to
    ``FpcaModel._ridge_free_obs``: there the noise variance exceeds 1e-9 of
    Sigma_U's trace, and the test cannot ridge. With every eigenvalue in D
    nonnegative, Psi^T D Psi is positive semi-definite, so Sigma_U's
    computed smallest eigenvalue is at least the noise variance less a
    rounding error of order L * eps * trace, its largest at most the trace,
    and their ratio stays far above 1e-12.

    Such a well-conditioned Sigma_U is solved once, against [U - mu | H^T],
    which serves both the scores H Sigma_U^-1 (U - mu) and omega = D - H
    Sigma_U^-1 H^T. Every other group (a zero noise estimate, say) is
    tested and solved as before, U - mu apart from H^T, since a condition
    number up to 1e12 would magnify the joint solve's different rounding.

    Omega's negative eigenvalues, left by rounding, are clipped to zero.
    An eigensolve decides the clip only where omega less 1e-9 of its trace
    on the diagonal has no Cholesky factor. A factor shows omega's smallest
    eigenvalue to be at least 1e-9 of its trace less a rounding error of
    order m^2 * eps * trace, and so far above the rounding of ``eigh``,
    whose smallest eigenvalue would not be negative either.
    """
    *stack, m, n_obs = psi.shape
    rho = model.eigenvalues[:m]
    h = rho[:, None] * psi
    eye = _identity(n_obs)
    sigma = psi.swapaxes(-1, -2) @ h + model.noise_var * eye
    sigma = 0.5 * (sigma + sigma.swapaxes(-1, -2))
    if n_obs <= model._ridge_free_obs:
        ridged = np.zeros(stack, dtype=bool)
        rhs = np.concatenate((resid[..., None], h.swapaxes(-1, -2)), axis=-1)
        hs = h @ np.linalg.solve(sigma, rhs)
        scores, cross = hs[..., 0], hs[..., 1:]
    else:
        lam = np.abs(np.linalg.eigvalsh(sigma))
        amax, amin = lam.max(axis=-1), lam.min(axis=-1)
        ridged = ~((amax > 0.0) & (amin > 1e-12 * amax))
        if ridged.any():
            trace = np.trace(sigma[ridged], axis1=-2, axis2=-1)
            floor = np.maximum(np.maximum(trace, amax[ridged]), np.finfo(float).tiny)
            sigma[ridged] += (1e-8 * floor / n_obs)[:, None, None] * eye
        scores = (h @ np.linalg.solve(sigma, resid[..., None]))[..., 0]
        cross = h @ np.linalg.solve(sigma, h.swapaxes(-1, -2))
    omega = rho * _identity(m) - cross
    omega = 0.5 * (omega + omega.swapaxes(-1, -2))
    clipped = np.zeros(stack, dtype=bool)
    try:
        shift = _CLIP_MARGIN * np.trace(omega, axis1=-2, axis2=-1)
        np.linalg.cholesky(omega - shift[..., None, None] * _identity(m))
    except np.linalg.LinAlgError:
        lam, vec = np.linalg.eigh(omega)
        clipped = ~(lam[..., 0] >= 0)
        if clipped.any():
            v = vec[clipped]
            c = (v * np.maximum(lam[clipped], 0.0)[:, None, :]) @ v.swapaxes(-1, -2)
            omega[clipped] = 0.5 * (c + c.swapaxes(-1, -2))
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
    counts = np.array([s.n_obs for s in subjects], dtype=np.intp)
    t_all = np.concatenate([np.empty(0)] + [s.times for s in subjects])
    u_all = np.concatenate([np.empty(0)] + [s.values for s in subjects])
    n = counts.size
    scores, ridged, clipped = np.zeros((n, m)), np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    omega = np.repeat(np.diag(model.eigenvalues[:m])[None], n, axis=0)
    for rows, resid, psi in _count_groups(model, t_all, u_all, counts, m):
        _, _, scores[rows], omega[rows], ridged[rows], clipped[rows] = _score_group(
            model, psi, resid
        )
    return ScoreBatch(scores, omega, ridged, clipped, counts == 0)


def _count_groups(
    model: FpcaModel, times: np.ndarray, values: np.ndarray, counts: np.ndarray, m: int
):
    """(rows, resid, psi) of each observation count L > 0 in turn, where
    subject i owns the next ``counts[i]`` entries of the pooled ``times``
    and ``values``: the G subjects with L observations, their residuals from
    the mean (G, L), and the first m eigenfunctions at their times, (G, m,
    L) in C order."""
    curves = model._curves_at(times, m)
    resid_all, psi_all = values - curves[0], curves[1:]
    starts = np.cumsum(counts) - counts
    for n_obs in sorted(set(counts.tolist()) - {0}):
        rows = np.flatnonzero(counts == n_obs)
        idx = starts[rows, None] + np.arange(n_obs)
        yield rows, resid_all[idx], np.ascontiguousarray(psi_all[:, idx].transpose(1, 0, 2))


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
    scored by the core of ``pace_scores_batch``, unstacked, and equals its
    row of a batch bit for bit.

    Sigma_U is ridged where it is numerically singular. Where the noise
    variance exceeds 1e-9 of Sigma_U's trace that test is decided without
    an eigensolve: with nonnegative eigenvalues Sigma_U's smallest
    eigenvalue is then at least the noise variance, far above the 1e-12 of
    the largest that would ridge it, so the decision is the one the
    eigensolve would make. There one LU solve serves both the scores and
    omega.

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
    curves = model._curves_at(t, m)
    h, sigma, scores, omega, ridged, clipped = _score_group(model, curves[1:], u - curves[0])
    return ScorePrediction(scores, sigma, h, omega, bool(ridged), bool(clipped))


def _likelihood_blocks(
    model: FpcaModel, sample: SparseFunctionalSample, m: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """(S, beta, v) at the first m eigenpairs, a column per subject with
    observations, in units of v, the mean squared residual: with r_i the
    residuals from the mean and Psi_i (m, L_i) the eigenfunctions at the
    subject's times, S_i = D^1/2 Psi_i Psi_i^T D^1/2 / v, its lower triangle
    packed by columns (``_packed``), and beta_i = D^1/2 Psi_i r_i / v."""
    pooled = pooled_points(sample)
    groups = list(_count_groups(model, pooled.times, pooled.values, sample.counts, m))
    if not groups:
        raise ValueError("no observations to evaluate the likelihood at")
    scale = sum(float(np.square(resid).sum()) for _, resid, _ in groups) / pooled.times.size
    root = math.sqrt(scale) or 1.0
    weight = np.sqrt(model.eigenvalues[:m])[:, None] / root
    parts = []
    for _, resid, psi in groups:
        psi = np.ascontiguousarray((psi * weight).transpose(1, 2, 0))
        columns = [np.einsum("lg,ilg->ig", psi[j], psi[j:]) for j in range(m)]
        parts.append(np.vstack(columns + [np.einsum("klg,lg->kg", psi, resid.T / root)]))
    blocks = np.hstack(parts)
    return blocks[: _packed(m, m)], blocks[_packed(m, m) :], scale


def _packed(m: int, j: int) -> int:
    """The first row of column j of an m x m lower triangle packed by columns."""
    return j * m - j * (j - 1) // 2


def _nested_curve(s: np.ndarray, beta: np.ndarray, n_obs: int, x: float, k: int) -> np.ndarray:
    """f_K = -2 l at x = log(sigma^2 / v) for K = 1..k in the units of
    ``_likelihood_blocks``, where the squared residuals sum to n_obs: (n_obs
    - n K) x + sum_i [log det(tau I + S_K) - beta_K^T (tau I + S_K)^-1
    beta_K / tau] + n_obs / tau, tau = e^x. One Cholesky factor of tau I + S
    serves every K: the leading block of a factor factors the leading block."""
    m, n = beta.shape
    tau = math.exp(x)
    # rows 0..k-1 the factor, row k the solution z of factor z = beta
    factor = np.empty((k + 1, k, n))
    for j in range(k):
        col = np.concatenate((s[_packed(m, j) : _packed(m, j) + k - j], beta[j : j + 1]))
        col -= np.einsum("ikn,kn->in", factor[j:, :j], factor[j, :j])
        col[0] += tau
        np.divide(col, np.sqrt(col[0]), out=factor[j:, j])
    logdet = 2.0 * np.log(np.einsum("kkn->kn", factor[:k])).sum(1)
    quad = np.einsum("kn,kn->k", factor[k], factor[k])
    curve = (n_obs - n * np.arange(1, k + 1)) * x + np.cumsum(logdet)
    return curve + (n_obs - np.cumsum(quad)) / tau


def _search_step(xs: list, fs: list) -> float:
    """The minimum of the cubic through the (at most) four points of (``xs``,
    ``fs``) nearest the lowest, or a step downhill where it has none; at
    most ``_SEARCH_STEP`` from the lowest, within the bounds."""
    (x0, f0), *rest = sorted(zip(xs, fs), key=lambda p: abs(p[0] - xs[fs.index(min(fs))]))[:4]
    t = [x - x0 for x, _ in rest]
    d = [(f - f0) / u for u, (_, f) in zip(t, rest)]  # divided differences f[0, i]
    e = [(d[i] - d[0]) / (t[i] - t[0]) for i in range(1, len(t))]  # f[0, 1, i]
    c3 = (e[1] - e[0]) / (t[2] - t[1]) if len(e) > 1 else 0.0  # f[0, 1, 2, 3]
    c1, c2 = d[0] - e[0] * t[0] + c3 * t[0] * t[1], e[0] - c3 * (t[0] + t[1])
    disc = c2 * c2 - 3.0 * c1 * c3  # of the slope c1 + 2 c2 t + 3 c3 t^2
    if disc >= 0.0 and c2 + math.sqrt(disc) > 0.0:  # a root of positive curvature
        step = -c1 / (c2 + math.sqrt(disc))
    else:
        step = -math.copysign(_SEARCH_STEP, c1)
    step = min(max(step, -_SEARCH_STEP), _SEARCH_STEP)
    return min(max(x0 + step, _SEARCH_FLOOR), _SEARCH_CEIL)


def _marginal_loglik(
    model: FpcaModel, sample: SparseFunctionalSample, counts: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(sigma2, loglik) at each of the component ``counts``: the noise
    variance maximizing the Gaussian likelihood l = -1/2 sum_i [log det
    Sigma_i + r_i^T Sigma_i^-1 r_i], Sigma_i = Psi_i^T D_K Psi_i + sigma^2 I
    at the fitted eigenpairs (James, Hastie & Sugar 2000), and l there.

    By the determinant lemma and Woodbury, l is evaluated in component
    space (``_nested_curve``), on x = log(sigma^2 / v), so a power-of-two
    map of the values scales sigma2 by its square exactly. The search starts
    at e^x = 1 - (the traces of S_i) / (the observations) at the largest
    count, at least 0.05; then, largest count first, each count steps on
    its own values and the larger counts' until a step ends within
    ``_SEARCH_TOL`` of an evaluated point, which it takes. Residuals that
    are all zero give sigma2 0 and loglik inf.
    """
    top = max(counts)
    s, beta, scale = _likelihood_blocks(model, sample, top)
    if scale == 0.0:
        return np.zeros(len(counts)), np.full(len(counts), math.inf)
    n_obs = int(sample.counts.sum())
    trace = sum(float(s[_packed(top, j)].sum()) for j in range(top))
    start = math.log(max(1.0 - trace / n_obs, 0.05))
    points = {k: ([], []) for k in range(1, top + 1)}

    def evaluate(x: float, k: int) -> None:
        for j, f in enumerate(_nested_curve(s, beta, n_obs, x, k), 1):
            points[j][0].append(x)
            points[j][1].append(float(f))

    for x in (start - _SEARCH_DIFF, start, start + _SEARCH_DIFF):
        evaluate(x, top)
    best = {}
    for k in sorted(set(counts), reverse=True):
        xs, fs = points[k]
        for _ in range(_SEARCH_ITER):
            x = _search_step(xs, fs)
            near = min(range(len(xs)), key=lambda i: abs(xs[i] - x))
            if abs(xs[near] - x) < _SEARCH_TOL:
                break
            evaluate(x, k)
        best[k] = scale * math.exp(xs[near]), -0.5 * (fs[near] + n_obs * math.log(scale))
    return tuple(np.array(column) for column in zip(*(best[k] for k in counts)))


def estimate_noise_variance(
    sample: SparseFunctionalSample,
    model: FpcaModel,
    n_components: int,
    config: FpcaConfig = FpcaConfig(),
) -> float:
    """The observation-noise variance maximizing the Gaussian likelihood of
    ``sample`` at ``n_components`` of the model's eigenpairs
    (``_marginal_loglik``); no setting of ``config`` enters it."""
    _check_ncomp(model, n_components)
    return float(_marginal_loglik(model, sample, [n_components])[0][0])


def select_ncomp(
    sample: SparseFunctionalSample,
    model: FpcaModel,
    config: FpcaConfig = FpcaConfig(),
) -> tuple[int, dict]:
    """The count K, up to ``config.max_components``, minimizing the BIC -2
    l_K + (K + 1) log n at each count's own noise variance, n the subjects
    with observations, ties to the smaller; and the record of both curves."""
    max_m = min(config.max_components, model.eigenvalues.size)
    if max_m < 1:
        raise FitError("select_ncomp", "no retained eigenvalues to choose from")
    counts = np.arange(1, max_m + 1)
    sigma2, loglik = _marginal_loglik(model, sample, counts.tolist())
    curve = -2.0 * loglik + (counts + 1) * math.log(int((sample.counts > 0).sum()))
    n = int(np.argmin(curve)) + 1
    info = {"method": "bic", "criterion": curve.tolist(), "noise_var": sigma2.tolist()}
    return n, {**info, "chosen": n}


def _run_stage(stage: str, fn):
    """``fn()``, with a ValueError or LinAlgError it raises turned into
    FitError(stage)."""
    try:
        return fn()
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise FitError(stage, str(exc)) from exc


def fit_fpca(
    sample: SparseFunctionalSample,
    config: FpcaConfig = FpcaConfig(),
    ncomp: int | None = None,
    flags: SmoothFlags | None = None,
    stage_prefix: str = "",
) -> FpcaModel:
    """Fit the full marginal model: mean, surface, eigenpairs, count, noise.

    A fixed ``ncomp`` (at least 1, clamped to the retained eigenpairs)
    replaces the BIC selection; the noise variance is the likelihood's at
    the count either way. Fallbacks and notes go to ``flags``, which a
    joint fit shares across its stages. Raises FitError with a stage name
    (optionally prefixed, so a joint fit can distinguish predictor from
    response stages) when any step cannot proceed.
    """
    if ncomp is not None and ncomp < 1:
        raise DataError(f"ncomp must be >= 1, got {ncomp}")
    grid = RegularGrid(sample.domain, config.n_grid)

    if not (sample.counts >= 2).any():
        raise FitError(
            stage_prefix + "covariance",
            "need at least one subject with 2 or more observations",
        )

    mean = _run_stage(stage_prefix + "mean", lambda: estimate_mean(sample, grid, config, flags))
    raw = _run_stage(stage_prefix + "raw_covariances", lambda: raw_covariances(sample, mean))
    cov = _run_stage(
        stage_prefix + "covariance", lambda: estimate_covariance(raw, grid, config, flags)
    )
    eig = _run_stage(stage_prefix + "eigendecompose", lambda: eigendecompose(cov, flags=flags))

    model = FpcaModel(
        grid=grid,
        mean=mean.values,
        surface=cov.surface,
        noise_var=0.0,
        eigenvalues=eig.eigenvalues,
        eigenfunctions=eig.functions,
        n_components=min(ncomp or eig.n_retained, eig.n_retained),
        mean_bandwidth=mean.bandwidth,
        cov_bandwidth=cov.bandwidth,
        selection={},
        n_subjects=sample.n_subjects,
    )
    if ncomp is None:
        stage = stage_prefix + "select_ncomp"
        n, info = _run_stage(stage, lambda: select_ncomp(sample, model, config))
        sigma2 = info["noise_var"][n - 1]
    else:
        if ncomp > eig.n_retained and flags is not None:
            flags.note(f"component count {ncomp} clamped to the {eig.n_retained} retained")
        n, info = model.n_components, {"method": "fixed", "chosen": model.n_components}
        stage = stage_prefix + "noise_variance"
        sigma2 = _run_stage(stage, lambda: estimate_noise_variance(sample, model, n, config))
    return replace(model, noise_var=sigma2, n_components=n, selection=info)
