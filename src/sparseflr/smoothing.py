"""Weighted local-linear kernel smoothers on 1-d and 2-d scatters.

All estimators in the package reduce to three smoothing primitives:

* ``local_linear_1d`` for mean curves and the raw diagonal,
* ``local_linear_2d`` for covariance and cross-covariance surfaces,
* ``local_diag_rotated`` for the smoothed surface diagonal, fitted in
  coordinates rotated 45 degrees so the diagonal ridge is not flattened.

Each fits, at every evaluation point, an exact weighted least-squares
polynomial against kernel weights with compact support. Windows that hold
too few points are widened to the nearest points (counted in the flags
accumulator); the two 2-d smoothers share one rule for that, stretching the
window to the 3 nearest points, and one nine-moment sum. Windows whose
normal equations are numerically rank-deficient fall back to a local
constant fit. Output is therefore finite whenever at least one data point
exists.

Bandwidth selection offers pooled GCV (default, cheap) and
leave-one-subject-out CV (honest but n times the work). One search runs
both for 1-d and 2-d scatters; ``select_bandwidth_1d`` and
``select_bandwidth_2d`` supply only the candidate fit, the held-out fit and
the GCV trace formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "Kernel",
    "EPANECHNIKOV",
    "QUARTIC",
    "get_kernel",
    "SmoothFlags",
    "BandwidthSelection",
    "local_linear_1d",
    "local_linear_2d",
    "local_diag_rotated",
    "select_bandwidth_1d",
    "select_bandwidth_2d",
    "bin_scatter_2d",
    "interp_linear",
    "interp_bilinear",
]

# Relative determinant threshold below which WLS normal equations are treated
# as rank deficient. The determinant is computed on the correlation-scaled
# normal matrix, so the threshold is dimensionless.
_DEGENERATE_TOL = 1e-10

# Widened windows overshoot the minimal covering radius by this factor so the
# outermost point keeps a strictly positive kernel weight.
_WIDEN_FACTOR = 1.05


@dataclass(frozen=True)
class Kernel:
    """Symmetric density kernel with support [-1, 1].

    ``at_zero`` is the kernel value at the origin; GCV needs it for the
    smoother-trace approximation.
    """

    name: str
    at_zero: float
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.fn(u)


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return 0.75 * np.maximum(0.0, 1.0 - u * u)


def _quartic(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return 0.9375 * np.maximum(0.0, 1.0 - u * u) ** 2


EPANECHNIKOV = Kernel("epanechnikov", 0.75, _epanechnikov)
QUARTIC = Kernel("quartic", 0.9375, _quartic)

_KERNELS = {k.name: k for k in (EPANECHNIKOV, QUARTIC)}


def get_kernel(kernel: Kernel | str) -> Kernel:
    """The named kernel (DataError if unknown); a ``Kernel`` passes through."""
    if isinstance(kernel, Kernel):
        return kernel
    try:
        return _KERNELS[kernel]
    except KeyError:
        raise DataError(f"unknown kernel {kernel!r}; choose from {sorted(_KERNELS)}") from None


@dataclass
class SmoothFlags:
    """Accumulator for smoothing fallbacks, shared across pipeline stages."""

    widened_windows: int = 0
    constant_fallbacks: int = 0
    notes: list[str] = field(default_factory=list)

    def note(self, msg: str) -> None:
        self.notes.append(msg)


def _as_weights(weights: np.ndarray | None, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights shape {w.shape} does not match {n} points")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    return w


def _support(
    sorted_x: np.ndarray, centers: np.ndarray, half_widths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds [lo, hi) of the points of ``sorted_x`` inside each open window
    (c - h, c + h), padded by a few ulps so that rounding in ``c - x`` can
    never leave a point with nonzero kernel weight outside its window."""
    pad = 4.0 * np.finfo(float).eps * (np.abs(centers) + half_widths)
    lo = np.searchsorted(sorted_x, centers - half_widths - pad, side="left")
    hi = np.searchsorted(sorted_x, centers + half_widths + pad, side="right")
    return lo, hi


def local_linear_1d(
    x: np.ndarray,
    y: np.ndarray,
    eval_points: np.ndarray,
    bandwidth: float,
    kernel: Kernel = EPANECHNIKOV,
    weights: np.ndarray | None = None,
    flags: SmoothFlags | None = None,
) -> np.ndarray:
    """Local-linear fit of a scatter, evaluated at arbitrary points.

    At each evaluation point ``s`` the returned value is the intercept of
    the weighted least-squares line fitted to ``(x_i, y_i)`` with weights
    ``w_i * K((x_i - s) / b)``. The solve is the exact 2x2 normal-equation
    solution, so affine data are reproduced to rounding error. Only the
    points inside each kernel window enter its sums.

    Parameters
    ----------
    x, y : ndarray
        Scatter coordinates and responses, 1-d and equal length.
    eval_points : ndarray
        Points at which to evaluate the fit.
    bandwidth : float
        Kernel half-width; must be positive.
    kernel : Kernel
        Compactly supported kernel shape.
    weights : ndarray, optional
        Nonnegative per-point multipliers (e.g. bin counts).
    flags : SmoothFlags, optional
        Accumulates widened-window and constant-fallback counts.

    Returns
    -------
    ndarray
        Fitted values, same shape as ``eval_points``. Always finite.

    Raises
    ------
    ValueError
        No data points, or a non-positive bandwidth.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    s = np.atleast_1d(np.asarray(eval_points, dtype=float)).ravel()
    if x.size == 0:
        raise ValueError("cannot smooth an empty scatter")
    if x.shape != y.shape:
        raise ValueError(f"x and y lengths differ: {x.size} vs {y.size}")
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    w = _as_weights(weights, x.size)

    ux = np.unique(x[w > 0])
    if ux.size == 0:
        raise ValueError("all points have zero weight")

    # Windows with fewer than 2 distinct x cannot support a line; widen them
    # to reach the nearest 2 distinct values. Distances grow monotonically on
    # each side of s, so the two values on either side decide both the count
    # and the second-nearest distance.
    b = np.full(s.size, float(bandwidth))
    if ux.size >= 2:
        near = np.searchsorted(ux, s)[:, None] + np.arange(-2, 2)
        valid = (near >= 0) & (near < ux.size)
        dist = np.where(valid, np.abs(ux[np.clip(near, 0, ux.size - 1)] - s[:, None]), np.inf)
        need_widen = (dist < bandwidth).sum(axis=1) < 2
        if need_widen.any():
            if flags is not None:
                flags.widened_windows += int(need_widen.sum())
            second = np.sort(dist[need_widen], axis=1)[:, 1]
            b[need_widen] = np.maximum(bandwidth, second) * _WIDEN_FACTOR

    # Each window covers a contiguous run of the sorted scatter; gather all
    # runs into one padded block whose padding points at a zero-weight
    # sentinel, so every sum below spans only the kernel's support.
    order = np.argsort(x, kind="stable")
    xs, ys, ws = (np.append(a[order], 0.0) for a in (x, y, w))
    lo, hi = _support(xs[:-1], s, b)
    idx = lo[:, None] + np.arange(int((hi - lo).max(initial=1)))
    idx[idx >= hi[:, None]] = x.size
    d = s[:, None] - xs[idx]
    kw = kernel(d / b[:, None]) * ws[idx]
    kd = kw * d
    yg = ys[idx]

    s0 = kw.sum(axis=1)
    s1 = kd.sum(axis=1)
    s2 = (kd * d).sum(axis=1)
    t0 = (kw * yg).sum(axis=1)
    t1 = (kd * yg).sum(axis=1)

    out = np.empty(s.size)
    det = s0 * s2 - s1 * s1
    scale = s0 * s2
    ok = (scale > 0) & (det > _DEGENERATE_TOL * scale)
    out[ok] = (s2[ok] * t0[ok] - s1[ok] * t1[ok]) / det[ok]

    bad = ~ok
    if bad.any():
        if flags is not None:
            flags.constant_fallbacks += int(bad.sum())
        s0b = s0[bad]
        safe = s0b > 0
        const = np.empty(s0b.size)
        const[safe] = t0[bad][safe] / s0b[safe]
        if (~safe).any():
            # Kernel support missed every point even after widening (single
            # distinct x far away). Use the plain weighted mean of the data.
            const[~safe] = float(np.average(y, weights=w))
        out[bad] = const
    return out.reshape(np.shape(eval_points))


def _widened_weights(
    u1: np.ndarray,
    u2: np.ndarray,
    h1: float,
    h2: float,
    w: np.ndarray,
    kernel: Kernel,
) -> np.ndarray:
    """Product-kernel weights of a window stretched to reach the 3 nearest
    points, at offsets (u1, u2) from its center, in scaled Chebyshev
    distance (so the support stays square in bandwidth units)."""
    r = np.maximum(np.abs(u1) / h1, np.abs(u2) / h2)
    k = min(2, r.size - 1)
    f = max(float(np.partition(r, k)[k]), 1e-300) * _WIDEN_FACTOR
    return kernel(u1 / (f * h1)) * kernel(u2 / (f * h2)) * w


def _nine_moments(
    kw: np.ndarray, d1: np.ndarray, d2: np.ndarray, z: np.ndarray
) -> tuple[float, ...]:
    """Weighted moment sums of one 3-term local fit in regressors d1, d2,
    in the order ``_solve_plane_batch`` takes them."""
    return (
        kw.sum(),
        kw @ d1,
        kw @ d2,
        kw @ (d1 * d1),
        kw @ (d1 * d2),
        kw @ (d2 * d2),
        kw @ z,
        kw @ (z * d1),
        kw @ (z * d2),
    )


def _solve_plane_batch(
    moments: tuple[np.ndarray, ...],
    flags: SmoothFlags | None,
    line_fallback: bool = False,
    empty: float = 0.0,
) -> np.ndarray:
    """Batch-solve 3-term local fits from moment arrays; degenerate nodes
    drop the second term (with ``line_fallback``, keeping the line in the
    first) or both, falling back to the local constant, or to ``empty``
    where no point carries weight."""
    s00, s10, s01, s20, s11, s02, t0, t1, t2 = (np.asarray(m, dtype=float) for m in moments)
    shape = s00.shape

    d1 = np.sqrt(np.maximum(s20, 0.0))
    d2 = np.sqrt(np.maximum(s02, 0.0))
    d0 = np.sqrt(np.maximum(s00, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        a = s10 / (d0 * d1)
        b = s01 / (d0 * d2)
        c = s11 / (d1 * d2)
        det_scaled = 1.0 + 2.0 * a * b * c - a * a - b * b - c * c
    ok = (
        (s00 > 0)
        & (s20 > 0)
        & (s02 > 0)
        & np.isfinite(det_scaled)
        & (det_scaled > _DEGENERATE_TOL)
    )

    n = int(np.prod(shape))
    mats = np.zeros((n, 3, 3))
    rhs = np.zeros((n, 3))
    okf = ok.ravel()
    af, bf, cf = a.ravel()[okf], b.ravel()[okf], c.ravel()[okf]
    mats[okf, 0, 0] = mats[okf, 1, 1] = mats[okf, 2, 2] = 1.0
    mats[okf, 0, 1] = mats[okf, 1, 0] = af
    mats[okf, 0, 2] = mats[okf, 2, 0] = bf
    mats[okf, 1, 2] = mats[okf, 2, 1] = cf
    mats[~okf] = np.eye(3)
    rhs[okf, 0] = t0.ravel()[okf] / d0.ravel()[okf]
    rhs[okf, 1] = t1.ravel()[okf] / d1.ravel()[okf]
    rhs[okf, 2] = t2.ravel()[okf] / d2.ravel()[okf]

    sol = np.linalg.solve(mats, rhs[..., None])[..., 0]
    out = np.empty(n)
    out[okf] = sol[okf, 0] / d0.ravel()[okf]

    badf = ~okf
    if line_fallback and badf.any():
        s00f, s10f, s20f = s00.ravel(), s10.ravel(), s20.ravel()
        det = s00f * s20f - s10f * s10f
        line = badf & (s00f > 0) & (s20f > 0) & (det > _DEGENERATE_TOL * s00f * s20f)
        out[line] = (s20f[line] * t0.ravel()[line] - s10f[line] * t1.ravel()[line]) / det[line]
        badf &= ~line
    if badf.any():
        if flags is not None:
            flags.constant_fallbacks += int(badf.sum())
        s00f, t0f = s00.ravel()[badf], t0.ravel()[badf]
        safe = s00f > 0
        const = np.full(s00f.size, empty)
        const[safe] = t0f[safe] / s00f[safe]
        out[badf] = const
    return out.reshape(shape)


def local_linear_2d(
    x1: np.ndarray,
    x2: np.ndarray,
    z: np.ndarray,
    grid1: np.ndarray,
    grid2: np.ndarray,
    bandwidths: tuple[float, float],
    kernel: Kernel = EPANECHNIKOV,
    weights: np.ndarray | None = None,
    flags: SmoothFlags | None = None,
) -> np.ndarray:
    """Local-plane fit of a 2-d scatter on the product grid ``grid1 x grid2``.

    Kernel weights take the product form K(.) * K(.) with per-axis
    bandwidths. The per-node weighted plane fit is assembled from nine
    moment sums computed as matrix products, which keeps the cost at a few
    dense GEMMs regardless of grid size. Coordinates are shifted to the grid
    midpoints first: the moment expansion in raw powers would otherwise lose
    precision when the domain sits far from zero.

    Empty windows are widened to the nearest 3 points (scaled Chebyshev
    distance) and counted in ``flags``. Rank-deficient nodes drop to a local
    constant.

    Returns
    -------
    ndarray of shape (len(grid1), len(grid2))
    """
    x1 = np.asarray(x1, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    g1 = np.asarray(grid1, dtype=float).ravel()
    g2 = np.asarray(grid2, dtype=float).ravel()
    h1, h2 = bandwidths
    if x1.size == 0:
        raise ValueError("cannot smooth an empty scatter")
    if not (x1.shape == x2.shape == z.shape):
        raise ValueError("x1, x2, z must have equal lengths")
    if not (h1 > 0 and h2 > 0):
        raise ValueError(f"bandwidths must be positive, got {bandwidths}")
    w = _as_weights(weights, x1.size)

    c1 = 0.5 * (g1.min() + g1.max())
    c2 = 0.5 * (g2.min() + g2.max())
    x1c, x2c = x1 - c1, x2 - c2
    s1c, s2c = g1 - c1, g2 - c2

    A = kernel((x1c[None, :] - s1c[:, None]) / h1) * w[None, :]  # (n1, npts)
    B = kernel((x2c[None, :] - s2c[:, None]) / h2)  # (n2, npts)
    Bt = B.T

    def cross(v: np.ndarray) -> np.ndarray:
        return (A * v[None, :]) @ Bt  # (n1, n2)

    p00 = cross(np.ones_like(x1c))
    p10 = cross(x1c)
    p01 = cross(x2c)
    p20 = cross(x1c * x1c)
    p11 = cross(x1c * x2c)
    p02 = cross(x2c * x2c)
    q0 = cross(z)
    q1 = cross(z * x1c)
    q2 = cross(z * x2c)

    S1 = s1c[:, None]
    S2 = s2c[None, :]
    moments = (
        p00,
        S1 * p00 - p10,
        S2 * p00 - p01,
        S1 * S1 * p00 - 2.0 * S1 * p10 + p20,
        S1 * S2 * p00 - S1 * p01 - S2 * p10 + p11,
        S2 * S2 * p00 - 2.0 * S2 * p01 + p02,
        q0,
        S1 * q0 - q1,
        S2 * q0 - q2,
    )

    # Widen empty windows before solving.
    empty = ~(p00 > 0)
    if empty.any():
        if flags is not None:
            flags.widened_windows += int(empty.sum())
        for i, j in zip(*np.nonzero(empty)):
            d1, d2 = s1c[i] - x1c, s2c[j] - x2c
            kw = _widened_weights(d1, d2, h1, h2, w, kernel)
            for m, v in zip(moments, _nine_moments(kw, d1, d2, z)):
                m[i, j] = v

    return _solve_plane_batch(moments, flags)


def local_diag_rotated(
    x1: np.ndarray,
    x2: np.ndarray,
    z: np.ndarray,
    eval_points: np.ndarray,
    bandwidth: float,
    kernel: Kernel = EPANECHNIKOV,
    weights: np.ndarray | None = None,
    flags: SmoothFlags | None = None,
) -> np.ndarray:
    """Smooth a 2-d scatter onto its diagonal in rotated coordinates.

    The scatter is mapped to (d, o) = ((x1+x2)/sqrt2, (x2-x1)/sqrt2). At a
    diagonal target s the fit is ``b0 + b1 (d - sqrt2 s) + b2 o^2`` with
    product kernel weights in (d, o); the value at the target is ``b0``.
    Fitting a quadratic across the diagonal instead of a plane keeps the
    surface ridge from being flattened, which matters because the diagonal
    feeds the noise-variance estimate. Degenerate targets drop the
    curvature term and keep the line along the diagonal, then fall back to
    a local constant.

    ``eval_points`` are diagonal locations in original coordinates.
    """
    x1 = np.asarray(x1, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    s = np.atleast_1d(np.asarray(eval_points, dtype=float)).ravel()
    if x1.size == 0:
        raise ValueError("cannot smooth an empty scatter")
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    w = _as_weights(weights, x1.size)

    rt2 = np.sqrt(2.0)
    dd = (x1 + x2) / rt2
    oo = (x2 - x1) / rt2
    targets = rt2 * s

    # Only pairs inside the band |o| < h carry weight; sorted along the
    # diagonal, each target's window is one contiguous slice of the band.
    ko = kernel(oo / bandwidth)
    band = np.flatnonzero((ko > 0) & (w > 0))
    band = band[np.argsort(dd[band], kind="stable")]
    bd, bk, bw, bz = dd[band], ko[band], w[band], z[band]
    bo2 = oo[band] * oo[band]
    lo, hi = _support(bd, targets, np.full(s.size, float(bandwidth)))

    moments = np.empty((9, s.size))
    for i, target in enumerate(targets):
        win = slice(lo[i], hi[i])
        dc, o2, zz = bd[win] - target, bo2[win], bz[win]
        kw = kernel(dc / bandwidth) * bk[win] * bw[win]
        if not kw.sum() > 0:
            # Nothing in the window: widen over the full scatter.
            if flags is not None:
                flags.widened_windows += 1
            dc, o2, zz = dd - target, oo * oo, z
            kw = _widened_weights(dc, oo, bandwidth, bandwidth, w, kernel)
        moments[:, i] = _nine_moments(kw, dc, o2, zz)
    empty = float(np.average(z, weights=w)) if not (moments[0] > 0).all() else 0.0
    out = _solve_plane_batch(tuple(moments), flags, line_fallback=True, empty=empty)
    return out.reshape(np.shape(eval_points))


def bin_scatter_2d(
    x1: np.ndarray,
    x2: np.ndarray,
    z: np.ndarray,
    grid1: np.ndarray,
    grid2: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate a large 2-d scatter onto grid nodes by nearest-node snapping.

    Returns (x1, x2, z, weights) of the occupied nodes: weight is the total
    point weight in the node, z its weighted mean. Smoothing the aggregate
    with point weights approximates the unbinned fit at a fraction of the
    cost; snapping error is at most half a grid step per axis.
    """
    g1 = np.asarray(grid1, dtype=float)
    g2 = np.asarray(grid2, dtype=float)
    w = _as_weights(weights, np.asarray(x1).size)
    step1 = (g1[-1] - g1[0]) / (g1.size - 1)
    step2 = (g2[-1] - g2[0]) / (g2.size - 1)
    i = np.clip(np.rint((np.asarray(x1, dtype=float) - g1[0]) / step1), 0, g1.size - 1)
    j = np.clip(np.rint((np.asarray(x2, dtype=float) - g2[0]) / step2), 0, g2.size - 1)
    flat = (i.astype(np.intp) * g2.size + j.astype(np.intp)).ravel()
    size = g1.size * g2.size
    wsum = np.bincount(flat, weights=w, minlength=size)
    wzsum = np.bincount(flat, weights=w * np.asarray(z, dtype=float), minlength=size)
    occ = wsum > 0
    ii, jj = np.divmod(np.flatnonzero(occ), g2.size)
    return g1[ii], g2[jj], wzsum[occ] / wsum[occ], wsum[occ]


def interp_linear(grid_points: np.ndarray, values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation, clamped at the grid ends."""
    return np.interp(np.asarray(t, dtype=float), grid_points, values)


def interp_bilinear(
    grid1: np.ndarray,
    grid2: np.ndarray,
    surface: np.ndarray,
    t1: np.ndarray,
    t2: np.ndarray,
) -> np.ndarray:
    """Bilinear interpolation of a surface sampled on grid1 x grid2.

    Queries are clamped to the grid rectangle. Exact at grid nodes.
    """
    g1 = np.asarray(grid1, dtype=float)
    g2 = np.asarray(grid2, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    i = np.clip(np.searchsorted(g1, t1, side="right") - 1, 0, g1.size - 2)
    j = np.clip(np.searchsorted(g2, t2, side="right") - 1, 0, g2.size - 2)
    u = np.clip((t1 - g1[i]) / (g1[i + 1] - g1[i]), 0.0, 1.0)
    v = np.clip((t2 - g2[j]) / (g2[j + 1] - g2[j]), 0.0, 1.0)
    f = np.asarray(surface, dtype=float)
    return (
        (1 - u) * (1 - v) * f[i, j]
        + u * (1 - v) * f[i + 1, j]
        + (1 - u) * v * f[i, j + 1]
        + u * v * f[i + 1, j + 1]
    )


@dataclass(frozen=True)
class BandwidthSelection:
    """Outcome of a bandwidth search: chosen value plus the full score table.

    Under GCV ``fit`` is the chosen candidate's fitted curve or surface on
    the search grid, so callers need not refit it; LOSO-CV fits no
    full-data candidate and leaves it None.
    """

    chosen: float | tuple[float, float]
    candidates: tuple
    scores: tuple
    objective: str
    fit: np.ndarray | None = field(default=None, compare=False, repr=False)


def _search(
    cands: list,
    objective: str,
    w: np.ndarray,
    subject_index: np.ndarray | None,
    grid_fit: Callable[[object], tuple[np.ndarray, np.ndarray]],
    held_out: Callable[[object, np.ndarray], np.ndarray],
    trace: Callable[[object], float],
) -> BandwidthSelection:
    """The bandwidth search shared by the 1-d and 2-d selectors.

    ``grid_fit(c)`` fits all points at candidate ``c`` and returns the grid
    fit with the residuals at the points; ``held_out(c, mask)`` fits the
    points outside ``mask`` and returns the residuals of those inside;
    ``trace(c)`` is the GCV smoother-trace approximation.
    """
    if not cands:
        raise ValueError("empty candidate list")
    scores, fits = [], []
    if objective == "gcv":
        n_eff = float(w.sum())
        for c in cands:
            fit, resid = grid_fit(c)
            rss = float(w @ (resid * resid))
            slack = 1.0 - trace(c) / n_eff
            scores.append(rss / (slack * slack) if slack > 0 else np.inf)
            fits.append(fit)
    elif objective == "loso-cv":
        if subject_index is None:
            raise ValueError("loso-cv requires subject_index")
        idx = np.asarray(subject_index).ravel()
        subjects = np.unique(idx)
        if subjects.size < 2:
            raise ValueError("loso-cv needs at least 2 subjects")
        for c in cands:
            sse = 0.0
            for sid in subjects:
                mask = idx == sid
                r = held_out(c, mask)
                sse += float(w[mask] @ (r * r))
            scores.append(sse)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    best = int(np.argmin(scores))
    if not np.isfinite(scores[best]):
        raise ValueError("no candidate bandwidth produced a finite score")
    fit = fits[best] if fits else None
    return BandwidthSelection(cands[best], tuple(cands), tuple(scores), objective, fit)


def select_bandwidth_1d(
    x: np.ndarray,
    y: np.ndarray,
    candidates: Sequence[float],
    grid: np.ndarray,
    kernel: Kernel = EPANECHNIKOV,
    weights: np.ndarray | None = None,
    objective: str = "gcv",
    subject_index: np.ndarray | None = None,
    flags: SmoothFlags | None = None,
) -> BandwidthSelection:
    """Pick a 1-d bandwidth from a candidate list.

    gcv
        Fits once per candidate on ``grid``, interpolates back to the data,
        and scores weighted RSS divided by (1 - trace/N)^2 with the classical
        trace approximation trace ~= K(0) * range / b. Candidates too small
        for the approximation (slack <= 0) score infinity. Ties go to the
        first (smallest) candidate, whose grid fit is returned as ``fit``.
    loso-cv
        Leave-one-subject-out squared prediction error; needs
        ``subject_index`` aligned with the points and at least 2 subjects.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    g = np.asarray(grid, dtype=float).ravel()
    w = _as_weights(weights, x.size)
    rng = float(g.max() - g.min())

    def grid_fit(b):
        fit = local_linear_1d(x, y, g, b, kernel, weights=w, flags=flags)
        return fit, y - interp_linear(g, fit, x)

    def held_out(b, mask):
        keep = ~mask
        pred = local_linear_1d(x[keep], y[keep], x[mask], b, kernel, weights=w[keep], flags=flags)
        return y[mask] - pred

    return _search(
        [float(b) for b in candidates], objective, w, subject_index,
        grid_fit, held_out, lambda b: kernel.at_zero * rng / b,
    )


def select_bandwidth_2d(
    x1: np.ndarray,
    x2: np.ndarray,
    z: np.ndarray,
    candidates: Sequence[tuple[float, float]],
    grid1: np.ndarray,
    grid2: np.ndarray,
    kernel: Kernel = EPANECHNIKOV,
    weights: np.ndarray | None = None,
    objective: str = "gcv",
    subject_index: np.ndarray | None = None,
    flags: SmoothFlags | None = None,
) -> BandwidthSelection:
    """2-d analogue of ``select_bandwidth_1d``; candidates are (h1, h2) pairs.

    The GCV trace approximation becomes K(0)^2 |range1| |range2| / (N h1 h2).
    """
    x1 = np.asarray(x1, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    g1 = np.asarray(grid1, dtype=float).ravel()
    g2 = np.asarray(grid2, dtype=float).ravel()
    w = _as_weights(weights, x1.size)
    r1 = float(g1.max() - g1.min())
    r2 = float(g2.max() - g2.min())

    def grid_fit(h):
        fit = local_linear_2d(x1, x2, z, g1, g2, h, kernel, weights=w, flags=flags)
        return fit, z - interp_bilinear(g1, g2, fit, x1, x2)

    def held_out(h, mask):
        fit = local_linear_2d(
            x1[~mask], x2[~mask], z[~mask], g1, g2, h, kernel, weights=w[~mask], flags=flags
        )
        return z[mask] - interp_bilinear(g1, g2, fit, x1[mask], x2[mask])

    k0 = kernel.at_zero
    return _search(
        [(float(a), float(b)) for a, b in candidates], objective, w, subject_index,
        grid_fit, held_out, lambda h: k0 * k0 * r1 * r2 / (h[0] * h[1]),
    )
