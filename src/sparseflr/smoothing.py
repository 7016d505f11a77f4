"""Weighted local-linear kernel smoothers on 1-d and 2-d scatters.

The package has three smoothing primitives:

* ``local_linear_1d`` for mean curves,
* ``local_linear_2d`` for covariance and cross-covariance surfaces,
* ``local_diag_rotated`` for a surface diagonal (no fit calls it), fitted
  in coordinates rotated 45 degrees so the diagonal ridge is not flattened.

Each fits, at every evaluation point, an exact weighted least-squares
polynomial against kernel weights with compact support. Only the points
inside an evaluation point's support window enter its sums: the scatter is
sorted along an axis once per call and each window is a contiguous run of
it. ``local_linear_1d`` sums each window's points directly. Three callers
smooth a lattice instead, at a cost set by the lattice alone:

* ``select_bandwidth_1d`` fits its GCV candidates to a scatter of more than
  ``_MEAN_LATTICE`` points on its linear binning onto that many evenly
  spaced nodes (``_bin_linear``), and ``fpca.estimate_mean`` fits a fixed or
  cross-validated mean bandwidth the same way;
* ``local_linear_2d`` on a scatter whose points all sit on grid nodes (the
  output of ``bin_scatter_2d``) pools them per node and smooths the lattice
  with kernel matrices;
* ``select_bandwidth_2d`` scores its GCV candidates for a scatter off the
  grid nodes on its linear binning onto the grid (``_bin_linear_2d``), and
  fits only the winner to the points.

Windows whose normal equations are numerically rank-deficient fall back to
a local constant fit, and a window holding no weighted point takes the
weighted mean of the data; ``_solve_line`` makes both calls, for all three
smoothers, and counts them in the flags accumulator. Windows are never
stretched beyond the bandwidth. Output is therefore finite whenever at
least one point carries weight.

The three smoothers and both selectors check their points through
``_scatter``. Invalid points raise ValueError: an empty scatter, columns of
unequal length, a non-finite point or weight, a negative weight, or weights
or a ``subject_index`` not one per point. ``bin_scatter_2d`` checks its
points the same way, pair indices included, except that it bins an empty
scatter to an empty aggregate.

Bandwidth selection offers pooled GCV (default, cheap) and
leave-one-subject-out CV (honest but n times the work). One search runs
both for 1-d and 2-d scatters; ``select_bandwidth_1d`` and
``select_bandwidth_2d`` supply only the candidate fit, the held-out fit and
the GCV trace formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .errors import DataError

__all__ = [
    "Kernel",
    "EPANECHNIKOV",
    "QUARTIC",
    "KERNEL_NAMES",
    "get_kernel",
    "BANDWIDTH_OBJECTIVES",
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

# Scatters with more points than this are smoothed for a mean on their
# linear binning onto this many evenly spaced nodes (``_bin_linear``).
_MEAN_LATTICE = 401

# Points per chunk of elementwise work over a large scatter, and pairs per
# chunk of a raw pair scatter formed from its observations: the size of the
# largest scatter the fit smooths unbinned, so a chunk's temporaries never
# outgrow an unbinned fit's.
_PAIR_CHUNK = 20000


@dataclass(frozen=True)
class Kernel:
    """Symmetric density kernel with support [-1, 1], a polynomial in u^2 on
    it that vanishes at the edge: K(u) = sum_r coefficients[r] * u^(2r) for
    |u| <= 1, and 0 outside.

    ``at_zero`` is the kernel value at the origin; GCV needs it for the
    smoother-trace approximation. ``fn`` evaluates the polynomial in powers
    of 1 - u^2, which keeps full relative precision near the edge.
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
KERNEL_NAMES = tuple(_KERNELS)

# The bandwidth search objectives ``_search`` implements.
BANDWIDTH_OBJECTIVES = ("gcv", "loso-cv")


def get_kernel(kernel: Kernel | str) -> Kernel:
    """The named kernel (DataError if unknown); a ``Kernel`` passes through."""
    if isinstance(kernel, Kernel):
        return kernel
    try:
        return _KERNELS[kernel]
    except KeyError:
        raise DataError(f"unknown kernel {kernel!r}; choose from {KERNEL_NAMES}") from None


@dataclass
class SmoothFlags:
    """Accumulator for smoothing fallbacks, shared across pipeline stages.

    ``widened_windows`` counts the windows that held no weighted point and
    took the data mean (the name is kept for the documents that read it);
    ``constant_fallbacks`` the rank-deficient windows that took the local
    constant. A bandwidth search adds the counts of every candidate it fits
    to the points given; the GCV search of a 2-d scatter off the grid nodes
    adds only those of the winner's exact fit, so for such a surface the
    counts describe the surface returned.
    """

    widened_windows: int = 0
    constant_fallbacks: int = 0
    notes: list[str] = field(default_factory=list)

    def note(self, msg: str) -> None:
        self.notes.append(msg)


def _as_weights(weights: np.ndarray | None, n: int) -> np.ndarray:
    """The checked weights; unit weights are a read-only view of one 1.0,
    which allocates nothing until a caller gathers or sorts it."""
    if weights is None:
        return np.broadcast_to(1.0, n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights shape {w.shape} does not match {n} points")
    if not (np.isfinite(w) & (w >= 0)).all():
        raise ValueError("weights must be finite and nonnegative")
    return w


def _scatter(columns: Sequence[np.ndarray], weights: np.ndarray | None,
             subject_index: np.ndarray | None = None, sort: bool = True) -> tuple:
    """(*columns, weights, subject_index) of a smoother or bandwidth search,
    checked as the module docstring says, the columns as 1-d float arrays;
    with ``sort``, stably sorted by the first column."""
    cols = [np.asarray(c, dtype=float).ravel() for c in columns]
    n = cols[0].size
    if n == 0:
        raise ValueError("cannot smooth an empty scatter")
    if any(c.size != n for c in cols):
        raise ValueError(f"scatter columns differ in length: {[c.size for c in cols]}")
    if not all(np.isfinite(c).all() for c in cols):
        raise ValueError("scatter points must be finite")
    w = _as_weights(weights, n)
    if subject_index is not None:
        subject_index = np.asarray(subject_index).ravel()
        if subject_index.size != n:
            raise ValueError(f"subject_index has {subject_index.size} entries for {n} points")
    if sort:
        order = np.argsort(cols[0], kind="stable")
        cols, w = [c[order] for c in cols], w[order]
        subject_index = None if subject_index is None else subject_index[order]
    return (*cols, w, subject_index)


def _pad(centers: np.ndarray | float, half_widths: np.ndarray | float) -> np.ndarray | float:
    """A few ulps by which the open window (c - h, c + h) is widened so that
    rounding in ``c - x`` can never leave a point with nonzero kernel weight
    outside it."""
    return 4.0 * np.finfo(float).eps * (np.abs(centers) + half_widths)


def _support(
    sorted_x: np.ndarray, centers: np.ndarray, half_width: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds [lo, hi) of the points of ``sorted_x`` inside each open window
    (c - h, c + h), padded by ``_pad``."""
    pad = _pad(centers, half_width)
    lo = np.searchsorted(sorted_x, centers - half_width - pad, side="left")
    hi = np.searchsorted(sorted_x, centers + half_width + pad, side="right")
    return lo, hi


def _chunks(n: int):
    """Slices of at most ``_PAIR_CHUNK`` covering range(n)."""
    return (slice(k, k + _PAIR_CHUNK) for k in range(0, n, _PAIR_CHUNK))


def _runs(sizes: np.ndarray):
    """Slices of consecutive items covering range(len(sizes)), in order:
    each holds items of total size at most ``_PAIR_CHUNK``, or one larger
    item alone."""
    ends = np.cumsum(sizes)
    start = 0
    while start < ends.size:
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + _PAIR_CHUNK, side="right")))
        yield slice(start, stop)
        start = stop


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
    points inside each kernel window enter its sums, summed directly: a call
    costs the points of every window. Callers that smooth many candidates
    on a large scatter fit its linear binning instead (see
    ``select_bandwidth_1d``).

    A window holding a single distinct x takes the local constant, and one
    holding no weighted point the weighted mean of the scatter.

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
        Accumulates the empty-window (``widened_windows``) and
        constant-fallback counts.

    Returns
    -------
    ndarray
        Fitted values, same shape as ``eval_points``. Always finite.

    Raises
    ------
    ValueError
        Invalid points (see the module docstring), no point with positive
        weight, or a non-positive bandwidth.
    """
    xs, ys, ws, _ = _scatter((x, y), weights)
    s = np.atleast_1d(np.asarray(eval_points, dtype=float)).ravel()
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    b = float(bandwidth)

    # Each window is a contiguous run [lo, hi) of the sorted scatter,
    # gathered into one padded block whose padding points at a zero-weight
    # sentinel.
    lo, hi = _support(xs, s, b)
    xs, ys, ws = (np.append(a, 0.0) for a in (xs, ys, ws))
    idx = lo[:, None] + np.arange(int((hi - lo).max(initial=1)))
    idx[idx >= hi[:, None]] = xs.size - 1  # the sentinel
    d = s[:, None] - xs[idx]
    kw = kernel(d / b) * ws[idx]
    kd = kw * d
    yg = ys[idx]

    s0 = kw.sum(axis=1)
    s1 = kd.sum(axis=1)
    s2 = (kd * d).sum(axis=1)
    t0 = (kw * yg).sum(axis=1)
    t1 = (kd * yg).sum(axis=1)

    empty = _empty_fill(s0, ys[:-1], ws[:-1])
    return _solve_line(s0, s1, s2, t0, t1, flags, empty).reshape(np.shape(eval_points))


def _empty_fill(s0: np.ndarray, z: np.ndarray, w: np.ndarray) -> float:
    """The weighted mean of ``z``, which windows without weight (``s0``
    not positive) take; 0.0, and no average formed, where none is empty."""
    if (s0 > 0).all():
        return 0.0
    if not (w > 0).any():
        raise ValueError("all points have zero weight")
    return float(np.average(z, weights=w))


def _solve_line(
    s0: np.ndarray, s1: np.ndarray, s2: np.ndarray, t0: np.ndarray, t1: np.ndarray,
    flags: SmoothFlags | None, empty: float, line: bool = True,
) -> np.ndarray:
    """Intercepts of local line fits from their weighted moment sums, by the
    exact 2x2 solve. A node whose determinant is at most ``_DEGENERATE_TOL *
    (s0 * s2)`` (or every node, without ``line``) falls back to the local
    constant, or to ``empty`` where no point carries weight; ``flags``
    counts the two as constant fallbacks and widened windows."""
    out = np.empty(s0.size)
    ok = np.zeros(s0.size, dtype=bool)
    if line:
        det = s0 * s2 - s1 * s1
        ok = (s0 > 0) & (s2 > 0) & (det > _DEGENERATE_TOL * (s0 * s2))
        out[ok] = (s2[ok] * t0[ok] - s1[ok] * t1[ok]) / det[ok]
    const = ~ok & (s0 > 0)
    out[const] = t0[const] / s0[const]
    none = ~ok & ~const
    out[none] = empty
    if flags is not None:
        flags.constant_fallbacks += int(const.sum())
        flags.widened_windows += int(none.sum())
    return out


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
    if bad.any():
        out[bad] = _solve_line(
            s00[bad], s10[bad], s20[bad], t0[bad], t1[bad], flags, empty, line_fallback
        )
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
    lo, hi = _support(x2s[by_x2], s2c, float(h2))
    Bt = np.zeros((x1s.size, s2c.size))
    for j in range(s2c.size):
        pts = by_x2[lo[j]:hi[j]]
        Bt[pts, j] = kernel((x2s[pts] - s2c[j]) / h2)
    V = np.stack([
        np.ones_like(x1s), x1s, x2s, x1s * x1s, x1s * x2s, x2s * x2s, zs, zs * x1s, zs * x2s
    ])
    lo, hi = _support(x1s, s1c, float(h1))
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

    Rank-deficient nodes drop to a local constant, and nodes whose window
    holds no weighted point take the weighted mean of the scatter; ``flags``
    counts both. Raises ValueError as ``local_linear_1d`` does.

    Returns
    -------
    ndarray of shape (len(grid1), len(grid2))
    """
    # Sorted by x1 once; from here on the result depends only on the sorted
    # scatter, so a caller's presorted copy gives the same bits.
    x1, x2, z, w, _ = _scatter((x1, x2, z), weights)
    g1 = np.asarray(grid1, dtype=float).ravel()
    g2 = np.asarray(grid2, dtype=float).ravel()
    h1, h2 = bandwidths
    if not (h1 > 0 and h2 > 0):
        raise ValueError(f"bandwidths must be positive, got {bandwidths}")

    c1 = 0.5 * (g1.min() + g1.max())
    c2 = 0.5 * (g2.min() + g2.max())
    x1c, x2c = x1 - c1, x2 - c2
    s1c, s2c = g1 - c1, g2 - c2

    i1, i2 = _node_index(x1, g1), _node_index(x2, g2)
    if i1 is not None and i2 is not None:
        moments = _lattice_moments(i1 * g2.size + i2, z, w, s1c, s2c, h1, h2, kernel)
    else:
        moments = _windowed_moments(x1c, x2c, z, w, s1c, s2c, h1, h2, kernel)

    return _solve_plane_batch(moments, flags, empty=_empty_fill(moments[0], z, w))


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
    surface ridge from being flattened. Degenerate targets drop the
    curvature term and keep the line along the diagonal, then fall back to
    a local constant.

    ``eval_points`` are diagonal locations in original coordinates.

    Only pairs in the band |o| < bandwidth with positive weight carry
    weight. A target whose window holds none of them takes the weighted
    mean of the band, or, where the band is empty, that of every pair
    given. Raises ValueError as ``local_linear_1d`` does.

    The band is found over ``_chunks`` of the pairs, and the rotated
    coordinates and across-diagonal kernel weights are formed on the band
    alone, so no float array runs over every pair given; without
    ``weights`` none is tested or gathered, since a unit weight leaves each
    product as it is. Each value is the elementwise one the whole scatter
    would give, and the stable sort of the band's diagonal coordinates
    orders it as before, so the window sums do not depend on the chunk
    size.
    """
    # Not sorted: the band's order of ties along the diagonal is the
    # caller's, and it sets the order of the window sums.
    x1, x2, z, w, _ = _scatter((x1, x2, z), weights, sort=False)
    s = np.atleast_1d(np.asarray(eval_points, dtype=float)).ravel()
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")

    rt2 = np.sqrt(2.0)
    targets = rt2 * s

    # Only pairs inside the band |o| < h carry weight; sorted along the
    # diagonal, each target's window is one contiguous slice of the band.
    weighted = weights is not None
    band = np.concatenate([np.empty(0, dtype=np.intp)] + [
        np.flatnonzero(
            (kernel((x2[sl] - x1[sl]) / rt2 / bandwidth) > 0) & ((w[sl] > 0) if weighted else True)
        ) + sl.start
        for sl in _chunks(z.size)
    ])
    band = band[np.argsort((x1[band] + x2[band]) / rt2, kind="stable")]
    bd = (x1[band] + x2[band]) / rt2
    bo = (x2[band] - x1[band]) / rt2
    bk, bw, bz = kernel(bo / bandwidth), w[band] if weighted else w[: band.size], z[band]
    bo2 = bo * bo
    lo, hi = _support(bd, targets, float(bandwidth))

    moments = np.empty((9, s.size))
    for i, target in enumerate(targets):
        win = slice(lo[i], hi[i])
        dc, o2, zz = bd[win] - target, bo2[win], bz[win]
        kw = kernel(dc / bandwidth) * bk[win] * bw[win]
        # in the order _solve_plane_batch takes them
        moments[:, i] = (kw.sum(), kw @ dc, kw @ o2, kw @ (dc * dc), kw @ (dc * o2),
                         kw @ (o2 * o2), kw @ zz, kw @ (zz * dc), kw @ (zz * o2))
    empty = _empty_fill(moments[0], *((bz, bw) if band.size else (z, w)))
    out = _solve_plane_batch(tuple(moments), flags, line_fallback=True, empty=empty)
    return out.reshape(np.shape(eval_points))


def bin_scatter_2d(
    x1: np.ndarray,
    x2: np.ndarray,
    z: np.ndarray | None,
    grid1: np.ndarray,
    grid2: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    pairs: tuple[np.ndarray, np.ndarray] | Iterable[tuple] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate a large 2-d scatter onto grid nodes by nearest-node snapping.

    Returns (x1, x2, z, weights) of the occupied nodes: weight is the total
    point weight in the node, z its weighted mean. Smoothing the aggregate
    with point weights approximates the unbinned fit; snapping error is at
    most half a grid step per axis. The aggregate lies on the grid, so
    ``local_linear_2d`` smooths it on the same grid at a cost set by the
    grid size alone, independent of the number of points binned.

    With ``pairs`` = (a, b), two index arrays, point k lies at
    (x1[a[k]], x2[b[k]]): x1 and x2 are then the coordinates of the
    observations the points pair up, while z and weights run over the
    points. ``pairs`` may instead be an iterable of (a, b, z) chunks, each
    a run of such points with their values, and ``z`` and ``weights`` None:
    the points are those of the chunks in turn, every one at unit weight,
    and no array runs over all of them. Each point's node is i *
    len(grid2) + j, with i and j the nearest nodes on each axis, found once
    per observation and gathered per chunk. Node counts are integer
    bincounts, and node sums are added into one lattice by ``np.add.at``,
    in point order as one ``bincount`` adds them, so the aggregate is that
    of the gathered points x1[a] and x2[b] bit for bit, however they are
    chunked.

    Raises ValueError, as the smoothers do, where z, the weights or, with
    ``pairs``, a and b are not one per point, a coordinate or z value is
    not finite, or a chunked scatter is given ``z`` or ``weights``.
    """
    g1 = np.asarray(grid1, dtype=float)
    g2 = np.asarray(grid2, dtype=float)
    x1, x2 = (np.asarray(c, dtype=float).ravel() for c in (x1, x2))
    if pairs is None or isinstance(pairs, tuple):
        z = np.asarray(z, dtype=float).ravel()
        a, b = (None, None) if pairs is None else (np.asarray(p).ravel() for p in pairs)
        lengths = [x1.size, x2.size, z.size] if pairs is None else [a.size, b.size, z.size]
        if len(set(lengths)) > 1:
            raise ValueError(f"scatter columns differ in length: {lengths}")
        w = None if weights is None else _as_weights(weights, z.size)
        chunks = [(a, b, z)]
    elif z is not None or weights is not None:
        raise ValueError("a chunked scatter carries its own values, at unit weight")
    else:
        w, chunks = None, pairs
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise ValueError("scatter points must be finite")
    i = _nearest_node(x1, g1) * g2.size
    j = _nearest_node(x2, g2)
    size = g1.size * g2.size
    counts, wsum, wzsum = np.zeros(size, dtype=np.intp), np.zeros(size), np.zeros(size)
    for a, b, cz in chunks:
        if not np.isfinite(cz).all():
            raise ValueError("scatter points must be finite")
        flat = i + j if a is None else i.take(a) + j.take(b)
        if w is None:
            counts += np.bincount(flat, minlength=size)
        else:
            np.add.at(wsum, flat, w)
        np.add.at(wzsum, flat, cz if w is None else w * cz)
    wsum = counts.astype(float) if w is None else wsum
    occ = wsum > 0
    ii, jj = np.divmod(np.flatnonzero(occ), g2.size)
    return g1[ii], g2[jj], wzsum[occ] / wsum[occ], wsum[occ]


def _nearest_node(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Index of the node of the evenly spaced ``grid`` nearest to each of
    ``x``, clipped to the grid: rint((x - g0) / step), elementwise."""
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    i = np.clip(np.rint((np.asarray(x, dtype=float).ravel() - grid[0]) / step), 0, grid.size - 1)
    return i.astype(np.intp)


def _bin_linear(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray | None, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, weights) of the scatter that a mean on ``grid`` is fitted to.

    A scatter of at most ``_MEAN_LATTICE`` points is itself, checked and
    sorted by ``_scatter``. A larger one is binned linearly onto
    ``_MEAN_LATTICE`` evenly spaced nodes spanning its points and ``grid``,
    so no point is clipped: each point's weight is split between its two
    neighbouring nodes in proportion to its nearness to each, which keeps
    the total weight and the weighted sums of x and y. Each node carries the
    weight it received and the weighted mean of its y (0 where it has none).
    The points are binned in their sorted order, so the bins do not depend
    on the order they are given in.
    """
    x, y, w, _ = _scatter((x, y), weights)
    g = np.asarray(grid, dtype=float).ravel()
    lo, hi = min(x[0], g.min()), max(x[-1], g.max())
    if x.size <= _MEAN_LATTICE or lo == hi:
        return x, y, w
    m = _MEAN_LATTICE
    i, frac = _lower_node((x - lo) / ((hi - lo) / (m - 1)), m)
    right = w * frac
    left = w - right
    wsum = np.bincount(i, left, m) + np.bincount(i + 1, right, m)
    ysum = np.bincount(i, left * y, m) + np.bincount(i + 1, right * y, m)
    ymean = np.divide(ysum, wsum, out=np.zeros(m), where=wsum > 0)
    return np.linspace(lo, hi, m), ymean, wsum


def _lower_node(pos: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, frac) of positions along a lattice of m nodes, given in node
    units: the lower node of each position's cell and its fraction of the
    way to the next node, both clipped to the lattice."""
    pos = np.clip(pos, 0.0, m - 1.0)
    i = np.minimum(pos.astype(np.intp), m - 2)
    return i, pos - i


def _bin_linear_2d(
    x1: np.ndarray, x2: np.ndarray, z: np.ndarray, w: np.ndarray,
    grid1: np.ndarray, grid2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x1, x2, z, weights) of the lattice that ``select_bandwidth_2d``
    scores its GCV candidates on, from a scatter checked by ``_scatter``.

    A scatter whose points all sit on nodes of ``grid1 x grid2`` (as
    ``bin_scatter_2d`` leaves them), or a grid of one node, is itself. Any
    other is binned linearly onto the grid: each point's weight is split
    bilinearly over the four nodes of its cell in proportion to its nearness
    to each, which keeps the total weight and the weighted sum of z, and
    those of x1 and x2 over the points within the grid; a point beyond it is
    moved onto its edge first. Each
    axis's position in node units is interpolated between the nodes, so the
    grids need not be evenly spaced. Returned are the nodes that received
    weight, with that weight and the weighted mean of their z.
    """
    g1, g2 = (np.asarray(g, dtype=float).ravel() for g in (grid1, grid2))
    on_nodes = _node_index(x1, g1) is not None and _node_index(x2, g2) is not None
    if on_nodes or min(g1.size, g2.size) < 2:
        return x1, x2, z, w
    (i, f1), (j, f2) = (
        _lower_node(np.interp(x, g, np.arange(g.size, dtype=float)), g.size)
        for x, g in ((x1, g1), (x2, g2))
    )
    m2, size = g2.size, g1.size * g2.size
    node = i * m2 + j
    wsum, zsum = np.zeros(size), np.zeros(size)
    for step, share in (
        (0, (1.0 - f1) * (1.0 - f2)), (m2, f1 * (1.0 - f2)), (1, (1.0 - f1) * f2), (m2 + 1, f1 * f2)
    ):
        part = w * share
        wsum += np.bincount(node + step, part, size)
        zsum += np.bincount(node + step, part * z, size)
    occ = wsum > 0
    ii, jj = np.divmod(np.flatnonzero(occ), m2)
    return g1[ii], g2[jj], zsum[occ] / wsum[occ], wsum[occ]


def _interp_slopes(grid_points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Node-to-node slopes of curves stacked in rows, as ``interp_linear``
    forms them."""
    xp = np.asarray(grid_points, dtype=float)
    return (values[..., 1:] - values[..., :-1]) / (xp[1:] - xp[:-1])


def interp_linear(
    grid_points: np.ndarray,
    values: np.ndarray,
    t: np.ndarray,
    slopes: np.ndarray | None = None,
) -> np.ndarray:
    """Piecewise-linear interpolation, clamped at the grid ends.

    ``values`` is one curve (G,) or curves stacked in rows (m, G), returning
    (m,) + t.shape in C order. Rows share one interval search and are
    computed as ``np.interp`` computes one curve, so for finite times each
    row equals ``np.interp`` of it bit for bit: the node value on a node and
    beyond either end, else slope * (t - left node) + left value. Stacked
    curves interpolated often may pass their ``_interp_slopes`` as
    ``slopes``, which are then not formed again.
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
    if slopes is None:
        slopes = _interp_slopes(xp, values)
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
    the search grid, so callers need not refit it; for a 1-d scatter of
    more than ``_MEAN_LATTICE`` points it is the fit to the scatter's
    linear binning (see ``select_bandwidth_1d``). A 2-d surface is always
    the fit to the points given: where they lie off the grid nodes, the
    candidates are scored on their linear binning and only the winner is
    fitted exactly (see ``select_bandwidth_2d``). LOSO-CV fits no full-data
    candidate and leaves it None.
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
        subjects = np.unique(subject_index)
        if subjects.size < 2:
            raise ValueError("loso-cv needs at least 2 subjects")
        for c in cands:
            sse = 0.0
            for sid in subjects:
                mask = subject_index == sid
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
        A scatter of more than ``_MEAN_LATTICE`` points is binned linearly
        once (``_bin_linear``) and each candidate is fitted to the binned
        lattice, so a candidate costs the lattice rather than the points;
        the residuals are still taken at the raw points and N is their
        total weight. ``fpca.estimate_mean`` fits a fixed or LOSO-CV mean
        bandwidth to the same lattice, so the two rules agree bit for bit.
    loso-cv
        Leave-one-subject-out squared prediction error; needs
        ``subject_index`` aligned with the points and at least 2 subjects.

    Raises
    ------
    ValueError
        Invalid points (see the module docstring), whatever the objective;
        no candidates, an unknown objective, loso-cv without 2 subjects, or
        no candidate with a finite score.
    """
    # Sorted once here, the scatter is cheap to sort again in each fit.
    x, y, w, subject_index = _scatter((x, y), weights, subject_index)
    g = np.asarray(grid, dtype=float).ravel()
    rng = float(g.max() - g.min())
    lattice_x, lattice_y, lattice_w = _bin_linear(x, y, w, g)

    def grid_fit(b):
        fit = local_linear_1d(
            lattice_x, lattice_y, g, b, kernel, weights=lattice_w, flags=flags
        )
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
    As in 1-d, GCV scores each candidate fitted to a lattice, with the
    residuals taken at the raw points by ``interp_bilinear`` and N their
    total weight. A scatter whose points all sit on grid nodes (the output
    of ``bin_scatter_2d``) is its own lattice: every candidate is fitted to
    it, ``flags`` counts every candidate's fit, and the winner's fit is
    ``fit``. Any other scatter is binned linearly onto ``grid1 x grid2``
    once (``_bin_linear_2d``), each candidate costs a fit of that lattice,
    and the winner is then fitted exactly to the raw points by
    ``local_linear_2d``: that exact fit is ``fit``, and it alone adds to
    ``flags``, so the counts describe the surface returned. LOSO-CV fits the
    raw points as the 1-d search does. Raises ValueError as
    ``select_bandwidth_1d`` does.
    """
    x1, x2, z, w, subject_index = _scatter((x1, x2, z), weights, subject_index)
    g1 = np.asarray(grid1, dtype=float).ravel()
    g2 = np.asarray(grid2, dtype=float).ravel()
    r1 = float(g1.max() - g1.min())
    r2 = float(g2.max() - g2.min())
    lattice = _bin_linear_2d(x1, x2, z, w, g1, g2)
    own = lattice[0] is x1  # the scatter is its own lattice

    def grid_fit(h):
        fit = local_linear_2d(
            *lattice[:3], g1, g2, h, kernel, weights=lattice[3], flags=flags if own else None
        )
        return fit, z - interp_bilinear(g1, g2, fit, x1, x2)

    def held_out(h, mask):
        fit = local_linear_2d(
            x1[~mask], x2[~mask], z[~mask], g1, g2, h, kernel, weights=w[~mask], flags=flags
        )
        return z[mask] - interp_bilinear(g1, g2, fit, x1[mask], x2[mask])

    k0 = kernel.at_zero
    sel = _search(
        [(float(a), float(b)) for a, b in candidates], objective, w, subject_index,
        grid_fit, held_out, lambda h: k0 * k0 * r1 * r2 / (h[0] * h[1]),
    )
    if sel.fit is None or own:
        return sel
    return replace(
        sel, fit=local_linear_2d(x1, x2, z, g1, g2, sel.chosen, kernel, weights=w, flags=flags)
    )
