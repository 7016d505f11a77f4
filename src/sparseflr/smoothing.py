"""Weighted local-linear kernel smoothers on 1-d and 2-d scatters.

All estimators in the package reduce to three smoothing primitives:

* ``local_linear_1d`` for mean curves and the raw diagonal,
* ``local_linear_2d`` for covariance and cross-covariance surfaces,
* ``local_diag_rotated`` for the smoothed surface diagonal, fitted in
  coordinates rotated 45 degrees so the diagonal ridge is not flattened.

Each fits, at every evaluation point, an exact weighted least-squares
polynomial against kernel weights with compact support. Only the points
inside an evaluation point's support window enter its sums: the scatter is
sorted along an axis once per call and each window is a contiguous run of
it. Two cases cost less than the points per window:

* ``local_linear_1d`` on large scatters sums whole blocks of about
  sqrt(n) sorted points from their power moments (both kernels are
  polynomials in u^2), so each window costs its blocks plus its two ragged
  ends, and a call costs about n plus the evaluation points times sqrt(n);
* ``local_linear_2d`` on a scatter whose points all sit on grid nodes (the
  output of ``bin_scatter_2d``) pools them per node and smooths the lattice
  with kernel matrices, at a cost set by the grid alone.

Windows that hold too few points are widened to the
nearest points (counted in the flags accumulator); the two 2-d smoothers
share one rule for that, stretching the window over the full scatter to the
3 nearest points, one nine-moment sum and one written-out 3x3 plane solve.
Windows whose normal equations are numerically rank-deficient fall back to
a local constant fit. Output is therefore finite whenever at least one data
point exists.

Bandwidth selection offers pooled GCV (default, cheap) and
leave-one-subject-out CV (honest but n times the work). One search runs
both for 1-d and 2-d scatters; ``select_bandwidth_1d`` and
``select_bandwidth_2d`` supply only the candidate fit, the held-out fit and
the GCV trace formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import Polynomial

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

# Whole blocks of points enter a 1-d window's sums through their moments
# only where |u| <= _BLOCK_REACH. Near the edge the kernel polynomial cancels
# to a small weight, and moment sums would lose digits the direct sums keep.
_BLOCK_REACH = 0.9

# 1-d scatters with fewer points per block (the square root of their size)
# than this are summed directly.
_MIN_BLOCK = 24

# Widened windows overshoot the minimal covering radius by this factor so the
# outermost point keeps a strictly positive kernel weight.
_WIDEN_FACTOR = 1.05


@dataclass(frozen=True)
class Kernel:
    """Symmetric density kernel with support [-1, 1], a polynomial in u^2 on
    it that vanishes at the edge: K(u) = sum_r coefficients[r] * u^(2r) for
    |u| <= 1, and 0 outside.

    ``at_zero`` is the kernel value at the origin; GCV needs it for the
    smoother-trace approximation. The coefficients let ``local_linear_1d``
    sum whole blocks of points from their power moments.
    """

    name: str
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        edge = sum(self.coefficients)
        if abs(edge) > 1e-12 * sum(abs(c) for c in self.coefficients):
            raise ValueError(f"kernel {self.name!r} does not vanish at |u| = 1")

    @property
    def at_zero(self) -> float:
        return self.coefficients[0]

    @cached_property
    def _edge_terms(self) -> tuple[tuple[int, float], ...]:
        # The same polynomial in v = 1 - u^2, as its nonzero (power,
        # coefficient) terms. Summed in powers of u^2 it would cancel near
        # the edge and could dip below zero; in powers of v it keeps full
        # relative precision there.
        edge = Polynomial(self.coefficients)(Polynomial([1.0, -1.0])).coef
        return tuple((k, float(c)) for k, c in enumerate(edge) if c)

    def fn(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = np.maximum(0.0, 1.0 - u * u)
        out = None
        for k, c in self._edge_terms:
            term = c * (v if k == 1 else v**k)
            out = term if out is None else out + term
        return out

    __call__ = fn


EPANECHNIKOV = Kernel("epanechnikov", (0.75, -0.75))
QUARTIC = Kernel("quartic", (0.9375, -1.875, 0.9375))

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


def _block_size(n: int) -> int:
    """Points per block of ``local_linear_1d``'s whole-block sums on a
    scatter of ``n`` points, or 0 where blocks would not pay for their
    bookkeeping."""
    blk = math.isqrt(n)
    return blk if blk >= _MIN_BLOCK else 0


def _whole_block_sums(
    xs: np.ndarray,
    ys: np.ndarray,
    ws: np.ndarray,
    blk: int,
    s: np.ndarray,
    b: np.ndarray,
    j0: np.ndarray,
    j1: np.ndarray,
    kernel: Kernel,
) -> tuple[np.ndarray, ...]:
    """The local-linear window sums (s0, s1, s2, t0, t1) over the whole
    blocks j0 .. j1-1 of a sorted scatter cut into runs of ``blk`` points,
    one row per window center ``s`` with half-width ``b``.

    Each block keeps the weighted power moments of its points about its
    midpoint, plain and times y. Shifted binomially to a center they give
    the power sums of d = s - x, and the kernel, a polynomial in (d/b)^2
    across the window, turns those into the window sums. Block-local origins
    keep every power small, so nothing is lost when x sits far from zero.
    """
    nb = xs.size // blk
    r = len(kernel.coefficients) - 1
    q = 2 * r + 2  # the highest power of d, in s2
    xb, yb, wb = (a[: nb * blk].reshape(nb, blk) for a in (xs, ys, ws))
    mid = 0.5 * (xb[:, 0] + xb[:, -1])
    e = mid[:, None] - xb
    pw = np.empty((q + 1, nb, blk))
    pw[0] = wb
    for p in range(1, q + 1):
        pw[p] = pw[p - 1] * e
    # Per block: sum w e^p for p = 0..q, then sum w y e^p for p = 0..q-1.
    moments = np.concatenate([pw.sum(axis=2), (pw[:q] * yb).sum(axis=2)]).T

    # G[i, m, p] = sum over window i's blocks of c^m * moments[p], c = s - mid.
    jj = j0[:, None] + np.arange(int((j1 - j0).max()))
    inside = jj < j1[:, None]
    jj = np.minimum(jj, nb - 1)
    c = s[:, None] - mid[jj]
    cpow = np.empty((s.size, q + 1, jj.shape[1]))
    cpow[:, 0] = inside
    for m in range(1, q + 1):
        cpow[:, m] = cpow[:, m - 1] * c
    G = cpow @ moments[jj]
    # sum w d^t = sum_p C(t, p) G[t - p, p], and likewise times y.
    shift = np.zeros((q + 1, 2 * q + 1, 2 * q + 1))
    for t in range(q + 1):
        for p in range(t + 1):
            shift[t - p, p, t] = math.comb(t, p)
            if t < q:
                shift[t - p, q + 1 + p, q + 1 + t] = math.comb(t, p)
    power = G.reshape(s.size, -1) @ shift.reshape(-1, 2 * q + 1)
    S, Y = power[:, : q + 1], power[:, q + 1:]

    # K(d/b) d^k = sum_r a_r d^(2r + k) with a_r = coefficients[r] / b^(2r).
    a = np.asarray(kernel.coefficients) * b[:, None] ** (-2.0 * np.arange(r + 1))

    def kernel_sum(sums, k):
        return (a * sums[:, k: k + 2 * r + 1: 2]).sum(axis=1)

    return kernel_sum(S, 0), kernel_sum(S, 1), kernel_sum(S, 2), kernel_sum(Y, 0), kernel_sum(Y, 1)


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
    points inside each kernel window enter its sums. On scatters of at least
    ``_MIN_BLOCK**2`` points the sorted scatter is cut into blocks of
    isqrt(n) points; blocks lying within ``_BLOCK_REACH`` of a window's
    center enter through their moments, and only the window's ragged ends are
    summed point by point. A call then costs O(n) for the block moments plus
    about sqrt(n) blocks and the ragged ends per evaluation point, instead of
    the points of every window.

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

    order = np.argsort(x, kind="stable")
    xs, ys, ws = x[order], y[order], w[order]
    ux = xs[ws > 0]
    if ux.size == 0:
        raise ValueError("all points have zero weight")
    ux = ux[np.r_[True, ux[1:] != ux[:-1]]]

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

    # Each window is a contiguous run [lo, hi) of the sorted scatter. On
    # large scatters the whole blocks of it that lie within _BLOCK_REACH of
    # the center are summed from their moments; the rest of the run, its two
    # ragged ends [lo, cut) and [resume, hi), is gathered into one padded
    # block whose padding points at a zero-weight sentinel. Windows with no
    # whole block keep their full run there.
    lo, hi = _support(xs, s, b)
    blk = _block_size(x.size)
    whole = np.zeros(s.size, dtype=bool)
    if blk:
        j0 = -(-np.searchsorted(xs, s - _BLOCK_REACH * b, side="left") // blk)
        j1 = np.searchsorted(xs, s + _BLOCK_REACH * b, side="right") // blk
        whole = j1 > j0
    blocks = whole.any()
    cut = np.where(whole, j0 * blk, hi) if blocks else hi
    resume = np.where(whole, j1 * blk, hi) if blocks else hi
    xs, ys, ws = (np.append(a, 0.0) for a in (xs, ys, ws))
    k = np.arange(int((cut - lo + hi - resume).max(initial=1)))
    idx = lo[:, None] + k
    if blocks:
        idx = np.where(k < (cut - lo)[:, None], idx, idx + (resume - cut)[:, None])
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
    if blocks:
        sums = _whole_block_sums(xs[:-1], ys[:-1], ws[:-1], blk, s[whole], b[whole],
                                 j0[whole], j1[whole], kernel)
        for acc, extra in zip((s0, s1, s2, t0, t1), sums):
            acc[whole] += extra

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
            const[~safe] = float(np.average(ys[:-1], weights=ws[:-1]))
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
    shape = np.shape(moments[0])
    s00, s10, s01, s20, s11, s02, t0, t1, t2 = (
        np.asarray(m, dtype=float).ravel() for m in moments
    )

    d1 = np.sqrt(np.maximum(s20, 0.0))
    d2 = np.sqrt(np.maximum(s02, 0.0))
    d0 = np.sqrt(np.maximum(s00, 0.0))
    # The scaled system [[1, a, b], [a, 1, c], [b, c, 1]] x = t / d, solved by
    # Gaussian elimination written out for three unknowns. Its pivots, 1,
    # 1 - a^2 >= det_scaled and det_scaled / (1 - a^2), are positive wherever
    # ``ok`` holds, so it needs no row swaps and is backward stable like LU.
    # Cramer's rule (cofactors over det_scaled) is not, and strays from LU by
    # up to 6e-9 relative on nearly collinear windows. Nodes failing ``ok``
    # are computed too and then overwritten.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = s10 / (d0 * d1)
        b = s01 / (d0 * d2)
        c = s11 / (d1 * d2)
        det_scaled = 1.0 + 2.0 * a * b * c - a * a - b * b - c * c
        r0, r1, r2 = t0 / d0, t1 / d1, t2 / d2
        m11, m12 = 1.0 - a * a, c - a * b
        y1 = r1 - a * r0
        l21 = m12 / m11
        x2 = (r2 - b * r0 - l21 * y1) / ((1.0 - b * b) - l21 * m12)
        x1 = (y1 - m12 * x2) / m11
        out = (r0 - b * x2 - a * x1) / d0
    ok = (
        (s00 > 0)
        & (s20 > 0)
        & (s02 > 0)
        & np.isfinite(det_scaled)
        & (det_scaled > _DEGENERATE_TOL)
    )

    bad = ~ok
    if line_fallback and bad.any():
        det = s00 * s20 - s10 * s10
        line = bad & (s00 > 0) & (s20 > 0) & (det > _DEGENERATE_TOL * s00 * s20)
        out[line] = (s20[line] * t0[line] - s10[line] * t1[line]) / det[line]
        bad &= ~line
    if bad.any():
        if flags is not None:
            flags.constant_fallbacks += int(bad.sum())
        s00b, t0b = s00[bad], t0[bad]
        safe = s00b > 0
        const = np.full(s00b.size, empty)
        const[safe] = t0b[safe] / s00b[safe]
        out[bad] = const
    return out.reshape(shape)


def _node_index(x: np.ndarray, grid: np.ndarray) -> np.ndarray | None:
    """Index of each of ``x`` among the sorted ``grid`` nodes, or None unless
    every one of them is exactly a node."""
    i = np.minimum(np.searchsorted(grid, x), grid.size - 1)
    return i if np.array_equal(grid[i], x) else None


def _lattice_moments(
    node: np.ndarray,
    z: np.ndarray,
    w: np.ndarray,
    s1c: np.ndarray,
    s2c: np.ndarray,
    h1: float,
    h2: float,
    kernel: Kernel,
) -> tuple[np.ndarray, ...]:
    """The nine moment surfaces of ``local_linear_2d`` for points that all
    sit on grid nodes (flat index ``node``): weight and weighted value are
    pooled per node, and each surface is one product K1 @ N @ K2.T of the
    (G x G) kernel matrices of the two axes, scaled by the node offsets
    s - x, around a pooled lattice N."""
    shape = (s1c.size, s2c.size)
    F = np.bincount(node, w, s1c.size * s2c.size).reshape(shape)
    Z = np.bincount(node, w * z, s1c.size * s2c.size).reshape(shape)
    D1 = s1c[:, None] - s1c[None, :]
    D2 = s2c[:, None] - s2c[None, :]
    K1, K2 = kernel(D1 / h1), kernel(D2 / h2)
    f0, f1, f2 = np.stack([K1, K1 * D1, K1 * D1 * D1]) @ F
    z0, z1 = np.stack([K1, K1 * D1]) @ Z
    e0, e1, e2 = K2.T, (K2 * D2).T, (K2 * D2 * D2).T
    return (f0 @ e0, f1 @ e0, f0 @ e1, f2 @ e0, f1 @ e1, f0 @ e2, z0 @ e0, z1 @ e0, z0 @ e1)


def _windowed_moments(
    x1s: np.ndarray,
    x2s: np.ndarray,
    zs: np.ndarray,
    ws: np.ndarray,
    s1c: np.ndarray,
    s2c: np.ndarray,
    h1: float,
    h2: float,
    kernel: Kernel,
) -> tuple[np.ndarray, ...]:
    """The nine moment surfaces of ``local_linear_2d`` for a scatter off
    the lattice (centered coordinates, sorted by x1): each grid node sums
    only the points in its window."""
    # Sorted by x1, each grid row's window is one run of the points, and
    # sorted by x2 each column's. The x2 weights are evaluated on each
    # column's run only and scattered into an (npts, n2) matrix that is zero
    # elsewhere; each row then takes one (9 x n_i) @ (n_i x n2) product over
    # its run. Working per row and column keeps the temporaries window-sized.
    by_x2 = np.argsort(x2s, kind="stable")
    lo, hi = _support(x2s[by_x2], s2c, np.full(s2c.size, float(h2)))
    Bt = np.zeros((x1s.size, s2c.size))
    for j in range(s2c.size):
        pts = by_x2[lo[j]:hi[j]]
        Bt[pts, j] = kernel((x2s[pts] - s2c[j]) / h2)
    V = np.stack([
        np.ones_like(x1s), x1s, x2s, x1s * x1s, x1s * x2s, x2s * x2s, zs, zs * x1s, zs * x2s
    ])
    lo, hi = _support(x1s, s1c, np.full(s1c.size, float(h1)))
    P = np.zeros((9, s1c.size, s2c.size))
    for i in range(s1c.size):
        win = slice(lo[i], hi[i])
        kw = kernel((x1s[win] - s1c[i]) / h1) * ws[win]
        P[:, i, :] = (V[:, win] * kw) @ Bt[win]
    p00, p10, p01, p20, p11, p02, q0, q1, q2 = P

    S1 = s1c[:, None]
    S2 = s2c[None, :]
    return (
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
    moment sums. When every point sits exactly on a node of the grid (as
    ``bin_scatter_2d`` leaves them), weights and weighted values are pooled
    per node and each moment surface is one product K1 @ N @ K2.T of the
    per-axis (G x G) kernel matrices, scaled by node offsets, with a pooled
    lattice N: O(G1 G2 (G1 + G2)) however many points were binned. Any other
    scatter takes one (9 x n_i) @ (n_i x len(grid2)) matrix product per grid
    row over the n_i points inside that row's x1 window, so the cost grows
    with the points in each window rather than with all points times all
    nodes; its coordinates are shifted to the grid midpoints first, since the
    moment expansion in raw powers would otherwise lose precision when the
    domain sits far from zero.

    Empty windows are widened over the full scatter to the nearest 3 points
    (scaled Chebyshev distance) and counted in ``flags``. Rank-deficient
    nodes drop to a local constant.

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
    # Sorted by x1 once; from here on the result depends only on the sorted
    # scatter, so a caller's presorted copy gives the same bits.
    order = np.argsort(x1, kind="stable")
    x1, x2, z, w = x1[order], x2[order], z[order], w[order]

    c1 = 0.5 * (g1.min() + g1.max())
    c2 = 0.5 * (g2.min() + g2.max())
    x1c, x2c = x1 - c1, x2 - c2
    s1c, s2c = g1 - c1, g2 - c2

    i1, i2 = _node_index(x1, g1), _node_index(x2, g2)
    if i1 is not None and i2 is not None:
        moments = _lattice_moments(i1 * g2.size + i2, z, w, s1c, s2c, h1, h2, kernel)
    else:
        moments = _windowed_moments(x1c, x2c, z, w, s1c, s2c, h1, h2, kernel)

    # Widen empty windows over the full scatter before solving.
    empty = ~(moments[0] > 0)
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
    with point weights approximates the unbinned fit; snapping error is at
    most half a grid step per axis. The aggregate lies on the grid, so
    ``local_linear_2d`` smooths it on the same grid at a cost set by the
    grid size alone, independent of the number of points binned.
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
    """Piecewise-linear interpolation, clamped at the grid ends.

    ``values`` is one curve (G,) or curves stacked in rows (m, G), returning
    (m,) + t.shape in C order. Rows share one interval search and are
    computed as ``np.interp`` computes one curve, so for finite times each
    row equals ``np.interp`` of it bit for bit: the node value on a node and
    beyond either end, else slope * (t - left node) + left value.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        return np.interp(t, grid_points, values)
    xp = np.asarray(grid_points, dtype=float)
    tc = np.minimum(np.maximum(t, xp[0]), xp[-1])
    k = xp.searchsorted(tc, "right") - 1
    d = tc - xp[k]
    node = values.take(k, axis=-1)
    slopes = (values[..., 1:] - values[..., :-1]) / (xp[1:] - xp[:-1])
    out = slopes.take(np.minimum(k, xp.size - 2), axis=-1) * d + node
    np.copyto(out, node, where=d == 0)
    return out


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
    # Sorted once here, the scatter is cheap to sort again in each fit.
    order = np.argsort(x, kind="stable")
    x, y, w = x[order], y[order], w[order]
    if subject_index is not None:
        subject_index = np.asarray(subject_index).ravel()[order]

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
    order = np.argsort(x1, kind="stable")
    x1, x2, z, w = x1[order], x2[order], z[order], w[order]
    if subject_index is not None:
        subject_index = np.asarray(subject_index).ravel()[order]

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
