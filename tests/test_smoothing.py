"""Kernel smoothers checked against brute-force weighted least squares."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparseflr import Interval, RegularGrid, SimConfig, estimate_mean, gen_pair
from sparseflr.data import pooled_points
import sparseflr.smoothing as smoothing
from sparseflr.fpca import raw_covariances
from sparseflr.smoothing import (
    _DEGENERATE_TOL,
    EPANECHNIKOV,
    QUARTIC,
    Kernel,
    SmoothFlags,
    bin_scatter_2d,
    get_kernel,
    interp_bilinear,
    interp_linear,
    local_diag_rotated,
    local_linear_1d,
    local_linear_2d,
    select_bandwidth_1d,
    select_bandwidth_2d,
)
from sparseflr.smoothing import _bin_linear, _node_index, _solve_plane_batch

RNG = np.random.default_rng(42)
finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def wls_line_at(x, y, s, b, kernel, weights=None):
    """Direct weighted line fit, solved through lstsq: the oracle path."""
    w = kernel.fn((x - s) / b)
    if weights is not None:
        w = w * weights
    keep = w > 0
    design = np.column_stack([np.ones(keep.sum()), x[keep] - s])
    sw = np.sqrt(w[keep])
    coef, *_ = np.linalg.lstsq(sw[:, None] * design, sw * y[keep], rcond=None)
    return coef[0]


def wls_plane_at(x1, x2, z, s1, s2, b1, b2, kernel):
    w = kernel.fn((x1 - s1) / b1) * kernel.fn((x2 - s2) / b2)
    keep = w > 0
    design = np.column_stack(
        [np.ones(keep.sum()), x1[keep] - s1, x2[keep] - s2]
    )
    sw = np.sqrt(w[keep])
    coef, *_ = np.linalg.lstsq(sw[:, None] * design, sw * z[keep], rcond=None)
    return coef[0]



def full_scatter_local_linear_1d(x, y, s, bandwidth, kernel=EPANECHNIKOV, weights=None, flags=None):
    """Reference for the windowed ``local_linear_1d``: the full-scatter body
    it replaced, which weighs every point at every evaluation point."""
    x, y, s = (np.asarray(a, dtype=float).ravel() for a in (x, y, s))
    w = np.ones(x.size) if weights is None else np.asarray(weights, dtype=float)
    out = np.empty(s.size)
    d = s[:, None] - x[None, :]
    kw = kernel(d / bandwidth) * w[None, :]
    s0 = kw.sum(axis=1)
    s1 = (kw * d).sum(axis=1)
    s2 = (kw * d * d).sum(axis=1)
    t0 = kw @ y
    t1 = (kw * d) @ y
    det = s0 * s2 - s1 * s1
    scale = s0 * s2
    ok = (scale > 0) & (det > _DEGENERATE_TOL * scale)
    out[ok] = (s2[ok] * t0[ok] - s1[ok] * t1[ok]) / det[ok]
    bad = ~ok
    if bad.any():
        s0b = s0[bad]
        safe = s0b > 0
        if flags is not None:
            flags.constant_fallbacks += int(safe.sum())
            flags.widened_windows += int((~safe).sum())
        const = np.empty(s0b.size)
        const[safe] = t0[bad][safe] / s0b[safe]
        if (~safe).any():
            const[~safe] = float(np.average(y, weights=w))
        out[bad] = const
    return out


def per_point_local_diag_rotated(x1, x2, z, s, bandwidth, kernel=EPANECHNIKOV, weights=None, flags=None):
    """Reference for the banded ``local_diag_rotated``: the per-target body
    it replaced, which weighs the full scatter at every target. As in
    ``full_scatter_local_linear_2d``, the plane solve is the module's own
    (``TestPlaneSolve`` checks it against LU), so a disagreement points at
    the moment sums."""
    x1, x2, z, s = (np.asarray(a, dtype=float).ravel() for a in (x1, x2, z, s))
    w = np.ones(x1.size) if weights is None else np.asarray(weights, dtype=float)
    rt2 = np.sqrt(2.0)
    dd = (x1 + x2) / rt2
    oo = (x2 - x1) / rt2
    o2 = oo * oo
    moments = np.empty((9, s.size))
    for i, si in enumerate(s):
        target = rt2 * si
        dc = dd - target
        kw = kernel(dc / bandwidth) * kernel(oo / bandwidth) * w
        moments[:, i] = [kw.sum(), kw @ dc, kw @ o2, kw @ (dc * dc), kw @ (dc * o2), kw @ (o2 * o2),
                         kw @ z, kw @ (z * dc), kw @ (z * o2)]
    # empty windows take the mean of the band, else of every pair
    band = (kernel(oo / bandwidth) > 0) & (w > 0)
    if not band.any():
        band = np.ones(z.size, dtype=bool)
    return _solve_plane_batch(tuple(moments), flags, line_fallback=True,
                              empty=float(np.average(z[band], weights=w[band])))


def lu_solve_plane_batch(moments, flags, line_fallback=False, empty=0.0):
    """Reference for the written-out plane solve: the body it replaced, which
    builds every correlation-scaled 3x3 system and LU-solves the batch."""
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
    ok = (s00 > 0) & (s20 > 0) & (s02 > 0) & np.isfinite(det_scaled) & (det_scaled > _DEGENERATE_TOL)
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
        s00f, t0f = s00.ravel()[badf], t0.ravel()[badf]
        safe = s00f > 0
        if flags is not None:
            flags.constant_fallbacks += int(safe.sum())
            flags.widened_windows += int((~safe).sum())
        const = np.full(s00f.size, empty)
        const[safe] = t0f[safe] / s00f[safe]
        out[badf] = const
    return out.reshape(shape)


def full_scatter_local_linear_2d(x1, x2, z, g1, g2, bandwidths, kernel=EPANECHNIKOV, weights=None, flags=None):
    """Reference for the windowed ``local_linear_2d``: the body it replaced,
    nine dense (n1 x npts) @ (npts x n2) products over every point. The plane
    solve is the module's own (``TestPlaneSolve`` checks it against LU), so
    a disagreement points at the moment sums."""
    x1, x2, z, g1, g2 = (np.asarray(a, dtype=float).ravel() for a in (x1, x2, z, g1, g2))
    h1, h2 = bandwidths
    w = np.ones(x1.size) if weights is None else np.asarray(weights, dtype=float)
    c1 = 0.5 * (g1.min() + g1.max())
    c2 = 0.5 * (g2.min() + g2.max())
    x1c, x2c = x1 - c1, x2 - c2
    s1c, s2c = g1 - c1, g2 - c2
    A = kernel((x1c[None, :] - s1c[:, None]) / h1) * w[None, :]
    Bt = kernel((x2c[None, :] - s2c[:, None]) / h2).T

    def cross(v):
        return (A * v[None, :]) @ Bt

    p00, p10, p01 = cross(np.ones_like(x1c)), cross(x1c), cross(x2c)
    p20, p11, p02 = cross(x1c * x1c), cross(x1c * x2c), cross(x2c * x2c)
    q0, q1, q2 = cross(z), cross(z * x1c), cross(z * x2c)
    S1, S2 = s1c[:, None], s2c[None, :]
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
    return _solve_plane_batch(moments, flags, empty=float(np.average(z, weights=w)))


# Scatters for the oracle comparisons. Coordinates sit on lattices offset
# from the evaluation points and bandwidths span at most four lattice steps,
# so no point lands on a kernel edge: near an edge a weight of 1e-16 relative
# can decide a line, and any change of summation order then moves the fit by
# far more than rounding. Evaluation points reach past the data by up to 1.75
# (empty windows, extrapolation); duplicate x and zero weights are common.
LATTICE = np.arange(0.0, 10.01, 0.5)
WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
KERNELS = st.sampled_from([EPANECHNIKOV, QUARTIC])


@st.composite
def scatters_1d(draw):
    n = draw(st.integers(1, 30))
    support = draw(st.lists(st.sampled_from(LATTICE), min_size=1, max_size=8))
    x = np.array(draw(st.lists(st.sampled_from(support), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    w = np.array(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
    w[0] = max(w[0], 1.0)
    steps = int(round((x.max() - x.min()) / 0.5)) + 7
    s = x.min() - 1.75 + 0.5 * np.array(draw(st.lists(st.integers(0, steps), min_size=1, max_size=6)))
    return x, y, w, s, 0.5 * draw(st.integers(1, 4)), draw(KERNELS)


@st.composite
def scatters_diag(draw):
    n = draw(st.integers(1, 30))
    support = draw(st.lists(st.sampled_from(LATTICE), min_size=1, max_size=8))
    x1 = np.array(draw(st.lists(st.sampled_from(support), min_size=n, max_size=n)))
    x2 = 0.25 + np.array(draw(st.lists(st.sampled_from(support), min_size=n, max_size=n)))
    z = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    w = np.array(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
    w[0] = max(w[0], 1.0)
    lo = min(x1.min(), x2.min())
    steps = int(round((max(x1.max(), x2.max()) - lo) / 0.25)) + 8
    s = lo - 1.0 + 0.25 * np.array(draw(st.lists(st.integers(0, steps), min_size=1, max_size=6)))
    h = 0.5 * draw(st.integers(1, 4)) / np.sqrt(2.0)
    return x1, x2, z, w, s, h, draw(KERNELS)


@st.composite
def scatters_2d(draw):
    """Lattice scatters for ``local_linear_2d``. The first axis lives on the
    0.5-lattice of ``LATTICE``; the second either on the same lattice (the
    covariance case) or, like a cross-covariance, on a 0.3-lattice of its own
    domain far from zero. Grid nodes sit half a step off each lattice and
    bandwidths are whole steps, so no point lands on a kernel edge."""
    n = draw(st.integers(1, 30))
    support1 = draw(st.lists(st.sampled_from(LATTICE), min_size=1, max_size=8))
    x1 = np.array(draw(st.lists(st.sampled_from(support1), min_size=n, max_size=n)))
    step2, origin2 = draw(st.sampled_from([(0.5, 0.0), (0.3, 40.0)]))
    support2 = origin2 + step2 * np.array(
        draw(st.lists(st.integers(0, 20), min_size=1, max_size=8)), dtype=float
    )
    x2 = np.array(draw(st.lists(st.sampled_from(support2.tolist()), min_size=n, max_size=n)))
    z = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    w = np.array(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
    w[0] = max(w[0], 1.0)
    k1 = draw(st.integers(0, int(round((x1.max() - x1.min()) / 0.5)) + 4))
    g1 = x1.min() - 1.75 + 0.5 * np.arange(draw(st.integers(2, 8)) + k1 // 3)
    k2 = draw(st.integers(0, 4))
    g2 = support2.min() - (k2 + 0.5) * step2 + step2 * np.arange(draw(st.integers(2, 8)) + k2)
    h = (0.5 * draw(st.integers(1, 4)), step2 * draw(st.integers(1, 4)))
    return x1, x2, z, w, g1, g2, h, draw(KERNELS)


def flag_counts(flags):
    return flags.widened_windows, flags.constant_fallbacks


def dense_pairs(n=400):
    """Raw covariance pairs (s1, s2, residual product) of a dense cohort."""
    sample, _, _ = gen_pair(SimConfig(n_subjects=n, sparsity="dense", seed=0), np.random.default_rng(0))
    raw = raw_covariances(sample, estimate_mean(sample, RegularGrid(Interval(0.0, 10.0), 51)))
    return raw.s1, raw.s2, raw.value


def lattice_case(x1, x2, z, g1, g2, h, kernel=EPANECHNIKOV, zero_every=0):
    """A ``scatters_2d`` case made of ``bin_scatter_2d`` output, so every
    point sits on a grid node; ``zero_every`` zeroes every so many weights."""
    b1, b2, bz, bw = bin_scatter_2d(x1, x2, z, g1, g2)
    if zero_every:
        bw[::zero_every] = 0.0
    return b1, b2, bz, bw, g1, g2, h, kernel


# Binned scatters for ``local_linear_2d``'s lattice path. Occupied nodes fill
# a rectangle and bandwidths span several grid steps, so no window holds
# points of the node's own row or column only.
S1, S2, Z12 = dense_pairs()
G51 = np.linspace(0.0, 10.0, 51)
G31 = np.linspace(0.0, 10.0, 31)
LOW = (S1 < 6.0) & (S2 < 6.0)
LATTICE_CASES = {
    "dense n=400": lattice_case(S1, S2, Z12, G51, G51, (0.8, 0.8)),
    "empty nodes": lattice_case(S1[LOW], S2[LOW], Z12[LOW], G51, G51, (1.0, 1.0), QUARTIC),
    "zero weights": lattice_case(S1, S2, Z12, G51, G51, (1.2, 1.2), QUARTIC, zero_every=5),
    "cross-covariance": lattice_case(S1, 40.0 + 1.2 * S2, Z12, G51, np.linspace(40.0, 52.0, 31),
                                     (0.8, 1.2)),
    "n_grid 31": lattice_case(S1, S2, Z12, G31, G31, (0.8, 0.8)),
}
# The same scatter with one point a single ulp off its node, which takes
# the windowed path.
OFF_LATTICE = list(LATTICE_CASES["dense n=400"])
OFF_LATTICE[0] = OFF_LATTICE[0].copy()
OFF_LATTICE[0][1000] = np.nextafter(OFF_LATTICE[0][1000], np.inf)
OFF_LATTICE = tuple(OFF_LATTICE)


def clustered_scatter():
    """Clusters of x rounded to 0.01 (duplicates) between gaps, a 400-fold
    atom alone in a gap, a zero-weight cluster and 10% zero weights: small
    bandwidths leave windows empty or holding a single distinct x, and
    larger ones span several clusters."""
    rng = np.random.default_rng(7)
    parts = [np.round(c + 0.4 * rng.uniform(size=600), 2) for c in (0.0, 3.0, 3.6, 7.0, 8.0, 10.0)]
    x = np.concatenate(parts + [np.full(400, 5.0)])
    w = (rng.uniform(size=x.size) > 0.1).astype(float)
    w[(x >= 8.0) & (x <= 8.4)] = 0.0
    y = np.sin(x) + 0.3 * rng.normal(size=x.size)
    return x, y, w, np.linspace(-0.5, 10.5, 111), (0.05, 0.2, 0.6, 1.5)


def pooled_cohort(offset=0.0):
    """The pooled predictor scatter of a sparse n=2000 cohort, shifted by
    ``offset``, with the mean search's bandwidth range."""
    sample, _, _ = gen_pair(SimConfig(n_subjects=2000, seed=0), np.random.default_rng(0))
    p = pooled_points(sample)
    s = np.linspace(0.0, 10.0, 51) + offset
    return p.times + offset, p.values, np.ones(p.times.size), s, (0.5, 1.1, 2.4, 3.5)


class TestWindowedSmoothersMatchFullScatter:
    """The support-windowed smoothers against the bodies they replaced.

    Sums run over the same terms in another order, so values agree to
    rounding (1e-12 of the larger of the data and fit magnitudes) and every
    fallback decision, hence every flag count, is identical.
    """

    @settings(derandomize=True, max_examples=60)
    @given(case=scatters_1d())
    # an empty window far left of the data
    @example(case=(np.array([8.0, 8.5, 9.0]), np.array([1.0, 2.0, 3.0]), np.ones(3),
                   np.array([-1.25, 8.25]), 0.5, EPANECHNIKOV))
    # one distinct weighted x: constant fallback inside, weighted mean outside
    @example(case=(np.array([3.0, 3.0, 6.0]), np.array([1.0, 5.0, 9.0]), np.array([1.0, 2.0, 0.0]),
                   np.array([3.25, 7.75]), 0.5, QUARTIC))
    def test_local_linear_1d(self, case):
        x, y, w, s, b, kernel = case
        new, old = SmoothFlags(), SmoothFlags()
        out = local_linear_1d(x, y, s, b, kernel, weights=w, flags=new)
        ref = full_scatter_local_linear_1d(x, y, s, b, kernel, weights=w, flags=old)
        scale = max(np.max(np.abs(y)), np.max(np.abs(ref)), 1e-300)
        assert np.max(np.abs(out - ref)) <= 1e-12 * scale
        assert flag_counts(new) == flag_counts(old)

    @settings(derandomize=True, max_examples=60)
    @given(case=scatters_diag())
    # a band holding a single pair; the far target's window is empty
    @example(case=(np.array([1.0, 3.0]), np.array([1.25, 9.25]), np.array([2.0, -4.0]), np.ones(2),
                   np.array([1.125, 5.0]), 0.5 / np.sqrt(2.0), EPANECHNIKOV))
    # three pairs along the diagonal: the line fallback, then targets beyond
    @example(case=(np.array([2.0, 4.0, 6.0]), np.array([2.25, 4.25, 6.25]),
                   np.array([1.0, 2.0, 4.0]), np.array([1.0, 0.5, 2.0]),
                   np.array([4.0, 0.0, 9.5]), 2.0 / np.sqrt(2.0), QUARTIC))
    # a far target with an empty window: the mean of the band's one pair,
    # not of the three weighted pairs
    @example(case=(np.where(np.arange(16) == 13, 5.5, 0.0), np.where(np.arange(16) == 5, 0.75, 0.25),
                   np.where(np.arange(16) == 5, 1.0, 0.0),
                   np.array([1.0, 0, 0, 0, 0, 0.5, 0, 0, 0, 0, 0, 0, 0, 2.0, 0, 0]),
                   np.array([6.25]), 0.5 / np.sqrt(2.0), QUARTIC))
    # an empty band: the mean of every pair given
    @example(case=(np.array([0.0]), np.array([0.75]), np.array([1.0]), np.ones(1),
                   np.array([-1.0]), 0.5 / np.sqrt(2.0), EPANECHNIKOV))
    def test_local_diag_rotated(self, case):
        x1, x2, z, w, s, h, kernel = case
        new, old = SmoothFlags(), SmoothFlags()
        out = local_diag_rotated(x1, x2, z, s, h, kernel, weights=w, flags=new)
        ref = per_point_local_diag_rotated(x1, x2, z, s, h, kernel, weights=w, flags=old)
        scale = max(np.max(np.abs(z)), np.max(np.abs(ref)), 1e-300)
        assert np.max(np.abs(out - ref)) <= 1e-12 * scale
        assert flag_counts(new) == flag_counts(old)

    @settings(derandomize=True, max_examples=80)
    @given(case=scatters_2d())
    # grid reaching past the data: every node but one empty, h1 != h2
    @example(case=(np.array([1.0, 1.5, 2.0, 1.0]), np.array([1.0, 2.0, 1.5, 1.5]),
                   np.array([3.0, -1.0, 2.0, 0.5]), np.array([1.0, 0.0, 2.0, 0.5]),
                   np.array([-0.25, 1.25, 4.75]), np.array([0.75, 1.75, 6.25]), (0.5, 1.0),
                   EPANECHNIKOV))
    # cross-covariance shape: unequal grids and a second axis far from zero
    @example(case=(np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.0]),
                   np.array([40.0, 40.3, 40.6, 40.3, 40.0, 40.9]),
                   np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), np.array([1.0, 1.0, 0.5, 2.0, 1.0, 1.0]),
                   np.array([0.25, 0.75, 1.25, 1.75]), np.array([39.85, 40.15, 40.45, 40.75, 41.05]),
                   (1.0, 0.6), QUARTIC))
    # binned scatters: the lattice path, and one point off it
    @example(case=LATTICE_CASES["dense n=400"])
    @example(case=LATTICE_CASES["empty nodes"])
    @example(case=LATTICE_CASES["zero weights"])
    @example(case=LATTICE_CASES["cross-covariance"])
    @example(case=LATTICE_CASES["n_grid 31"])
    @example(case=OFF_LATTICE)
    def test_local_linear_2d(self, case):
        x1, x2, z, w, g1, g2, h, kernel = case
        new, old = SmoothFlags(), SmoothFlags()
        out = local_linear_2d(x1, x2, z, g1, g2, h, kernel, weights=w, flags=new)
        ref = full_scatter_local_linear_2d(x1, x2, z, g1, g2, h, kernel, weights=w, flags=old)
        scale = max(np.max(np.abs(z)), np.max(np.abs(ref)), 1e-300)
        assert out.shape == (g1.size, g2.size)
        assert np.max(np.abs(out - ref)) <= 1e-12 * scale
        assert flag_counts(new) == flag_counts(old)

    def test_every_fallback_tier_is_reached(self):
        # the explicit examples above must exercise what they claim
        flags = SmoothFlags()
        local_linear_1d([8.0, 8.5, 9.0], [1.0, 2.0, 3.0], [-1.25], 0.5, flags=flags)
        assert flag_counts(flags) == (1, 0)
        # a single distinct weighted x: the local constant at 3.25 and the
        # weighted mean in the empty window at 7.75
        flags = SmoothFlags()
        out = local_linear_1d([3.0, 3.0, 6.0], [1.0, 5.0, 9.0], [3.25, 7.75], 0.5,
                              QUARTIC, weights=[1.0, 2.0, 0.0], flags=flags)
        assert flag_counts(flags) == (1, 1)
        assert np.allclose(out, 11.0 / 3.0, rtol=1e-15)
        # one pair in the band: a constant; the empty window at 5.0 takes
        # the band's mean, not the mean -1.0 of both pairs
        flags = SmoothFlags()
        out = local_diag_rotated([1.0, 3.0], [1.25, 9.25], [2.0, -4.0], [1.125, 5.0],
                                 0.5 / np.sqrt(2.0), flags=flags)
        assert flag_counts(flags) == (1, 1)
        assert out.tolist() == [2.0, 2.0]
        # an empty band: the mean of every pair given
        flags = SmoothFlags()
        out = local_diag_rotated([0.0], [0.75], [1.0], [-1.0], 0.5 / np.sqrt(2.0), flags=flags)
        assert flag_counts(flags) == (1, 0)
        assert out.tolist() == [1.0]

    def test_no_positive_weight_raises(self):
        # no weighted point leaves no mean for the empty windows to take
        x, w = np.array([1.0, 2.0, 3.0]), np.zeros(3)
        fits = [
            lambda: local_linear_1d(x, x, [2.0], 1.0, weights=w),
            lambda: local_linear_2d(x, x, x, x, x, (1.0, 1.0), weights=w),
            lambda: local_diag_rotated(x, x, x, [2.0], 1.0, weights=w),
        ]
        for fit in fits:
            with pytest.raises(ValueError, match="all points have zero weight"):
                fit()

    def test_lattice_examples_take_their_paths(self):
        for x1, x2, _, _, g1, g2, _, _ in LATTICE_CASES.values():
            assert _node_index(x1, g1) is not None and _node_index(x2, g2) is not None
        assert _node_index(OFF_LATTICE[0], OFF_LATTICE[4]) is None
        x1, x2, z, w, g1, g2, h, kernel = LATTICE_CASES["empty nodes"]
        flags = SmoothFlags()
        local_linear_2d(x1, x2, z, g1, g2, h, kernel, weights=w, flags=flags)
        assert flags.widened_windows > 0


class TestWholeBlockSums:
    """``local_linear_1d`` on scatters of thousands of points, against the
    full-scatter body. These are the scatters that once went through
    whole-block moment sums; the smoother now sums them directly like small
    ones. Values agree to 1e-11 of the data scale and every fallback
    decision, empty windows included, is identical."""

    CASES = {
        "sparse n=2000 cohort": pooled_cohort(),
        "clusters": clustered_scatter(),
        "x near 1000": pooled_cohort(1000.0),
    }

    @pytest.mark.parametrize("kernel", [EPANECHNIKOV, QUARTIC])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_full_scatter(self, case, kernel):
        x, y, w, s, bandwidths = self.CASES[case]
        empty = 0
        for b in bandwidths:
            new, old = SmoothFlags(), SmoothFlags()
            out = local_linear_1d(x, y, s, b, kernel, weights=w, flags=new)
            ref = full_scatter_local_linear_1d(x, y, s, b, kernel, weights=w, flags=old)
            scale = max(np.max(np.abs(y)), np.max(np.abs(ref)))
            assert np.max(np.abs(out - ref)) <= 1e-11 * scale
            assert flag_counts(new) == flag_counts(old)
            empty += new.widened_windows
        assert (empty > 0) == (case == "clusters")


def plane_moments(rng, n_nodes):
    """Moment sums (about 0) of random weighted 3-term fits, in the order
    ``_solve_plane_batch`` takes them. The third regressor is an affine map
    of the second plus noise of scale 10^-7..1, so det_scaled runs from well
    posed through the degeneracy threshold to collinear. The last three
    nodes carry no weight, an exactly collinear design and a single point."""
    cols = []
    for k in range(n_nodes):
        n = int(rng.integers(3, 15))
        u = rng.normal(size=n)
        v = rng.normal() * u + rng.normal() + 10.0 ** rng.uniform(-7, 0) * rng.normal(size=n)
        wt = rng.uniform(0.0, 2.0, n)
        if k == n_nodes - 3:
            wt[:] = 0.0
        elif k == n_nodes - 2:
            u = np.arange(n, dtype=float)
            v = 2.0 * u + 1.0
        elif k == n_nodes - 1:
            u, v, wt = u[:1], v[:1], wt[:1]
        z = rng.normal(size=u.size)
        cols.append([wt.sum(), wt @ u, wt @ v, wt @ (u * u), wt @ (u * v), wt @ (v * v),
                     wt @ z, wt @ (z * u), wt @ (z * v)])
    return np.array(cols).T


class TestPlaneSolve:
    """The written-out elimination of ``_solve_plane_batch`` against the LU
    solve it replaced. The ok/line/constant decisions come before either
    solve, so fallback nodes and counts are identical; solved nodes agree to
    a few ulps of the conditioning-amplified solution, the forward error both
    backward-stable solves share."""

    @pytest.mark.parametrize("line_fallback", [False, True])
    def test_matches_lu_solve(self, line_fallback):
        ms = plane_moments(np.random.default_rng(5), 3000)
        new, old = SmoothFlags(), SmoothFlags()
        out = _solve_plane_batch(tuple(ms), new, line_fallback, empty=-7.0)
        ref = lu_solve_plane_batch(tuple(ms), old, line_fallback, empty=-7.0)
        assert flag_counts(new) == flag_counts(old)

        s00, s10, s01, s20, s11, s02, t0, t1, t2 = ms
        d0, d1, d2 = np.sqrt(s00), np.sqrt(s20), np.sqrt(s02)
        with np.errstate(divide="ignore", invalid="ignore"):
            a, b, c = s10 / (d0 * d1), s01 / (d0 * d2), s11 / (d1 * d2)
            det = 1.0 + 2.0 * a * b * c - a * a - b * b - c * c
        ok = (s00 > 0) & (s20 > 0) & (s02 > 0) & (det > _DEGENERATE_TOL)
        near = det[ok] / _DEGENERATE_TOL
        assert ((near < 10.0).sum() >= 10) and (((det > 0) & (det <= _DEGENERATE_TOL)).sum() >= 10)
        assert np.array_equal(out[~ok], ref[~ok])
        # the one node without weight takes ``empty``; the rest of the
        # fallbacks, with line_fallback those that fail the line too, take
        # the local constant
        assert new.widened_windows == (s00 <= 0).sum() == 1
        assert out[s00 <= 0].tolist() == [-7.0]
        if not line_fallback:
            assert new.constant_fallbacks == (~ok).sum() - 1

        m = np.zeros((ok.sum(), 3, 3))
        m[:, 0, 0] = m[:, 1, 1] = m[:, 2, 2] = 1.0
        m[:, 0, 1] = m[:, 1, 0] = a[ok]
        m[:, 0, 2] = m[:, 2, 0] = b[ok]
        m[:, 1, 2] = m[:, 2, 1] = c[ok]
        rhs = np.stack([t0[ok] / d0[ok], t1[ok] / d1[ok], t2[ok] / d2[ok]], axis=-1)
        x = np.linalg.solve(m, rhs[..., None])[..., 0]
        bound = 4.0 * np.finfo(float).eps * np.linalg.cond(m) * np.abs(x).max(axis=1)
        assert (np.abs(out[ok] - ref[ok]) * d0[ok] <= bound).all()


class TestKernels:
    @pytest.mark.parametrize("kernel", [EPANECHNIKOV, QUARTIC])
    def test_unit_mass(self, kernel):
        u = np.linspace(-1.0, 1.0, 200_001)
        mass = np.trapezoid(kernel.fn(u), u)
        assert abs(mass - 1.0) < 1e-8

    @pytest.mark.parametrize("kernel", [EPANECHNIKOV, QUARTIC])
    def test_symmetric_nonnegative_compact(self, kernel):
        u = np.linspace(-2.0, 2.0, 4001)
        vals = kernel.fn(u)
        assert np.allclose(vals, kernel.fn(-u))
        assert (vals >= 0).all()
        assert (vals[np.abs(u) > 1.0] == 0).all()

    def test_at_zero_matches_fn(self):
        assert EPANECHNIKOV.fn(np.array([0.0]))[0] == EPANECHNIKOV.at_zero
        assert QUARTIC.fn(np.array([0.0]))[0] == QUARTIC.at_zero

    @pytest.mark.parametrize("kernel", [EPANECHNIKOV, QUARTIC])
    def test_fn_is_its_polynomial_inside_and_zero_outside(self, kernel):
        u = np.linspace(-1.0, 1.0, 2001)
        poly = np.polynomial.polynomial.polyval(u * u, kernel.coefficients)
        assert np.max(np.abs(kernel.fn(u) - poly)) <= 4 * np.finfo(float).eps
        assert kernel.fn(np.array([-1.0, 1.0])).tolist() == [0.0, 0.0]
        outside = np.concatenate([np.linspace(-3.0, -1.0, 1000, endpoint=False),
                                  np.nextafter(1.0, 2.0) + np.linspace(0.0, 2.0, 1000)])
        assert (kernel.fn(outside) == 0.0).all()

    def test_fn_keeps_the_textbook_forms(self):
        u = np.linspace(-1.5, 1.5, 3001)
        v = np.maximum(0.0, 1.0 - u * u)
        assert np.array_equal(EPANECHNIKOV.fn(u), 0.75 * v)
        assert np.array_equal(QUARTIC.fn(u), 0.9375 * v**2)

    def test_kernel_must_vanish_at_the_edge(self):
        with pytest.raises(ValueError, match="vanish"):
            Kernel("uniform", (0.5,))

    def test_get_kernel(self):
        assert get_kernel("quartic") is QUARTIC
        with pytest.raises(ValueError):
            get_kernel("gaussian")


class TestLocalLinear1d:
    def test_matches_direct_wls(self):
        x = np.array([0.1, 0.3, 0.45, 0.6, 0.9])
        y = np.array([1.0, -0.5, 2.0, 0.7, 1.3])
        out = local_linear_1d(x, y, np.array([0.5]), 1.0)
        assert abs(out[0] - wls_line_at(x, y, 0.5, 1.0, EPANECHNIKOV)) < 1e-12

    def test_matches_direct_wls_with_weights(self):
        x = np.linspace(0.0, 1.0, 9)
        y = RNG.normal(size=9)
        w = np.abs(RNG.normal(size=9)) + 0.1
        out = local_linear_1d(x, y, np.array([0.4]), 0.5, weights=w)
        assert abs(out[0] - wls_line_at(x, y, 0.4, 0.5, EPANECHNIKOV, w)) < 1e-12

    @given(
        slope=finite_floats,
        intercept=finite_floats,
        bandwidth=st.floats(min_value=0.3, max_value=5.0),
    )
    def test_reproduces_affine(self, slope, intercept, bandwidth):
        x = np.linspace(0.0, 10.0, 40)
        y = intercept + slope * x
        grid = np.linspace(0.0, 10.0, 11)
        out = local_linear_1d(x, y, grid, bandwidth)
        scale = 1.0 + abs(intercept) + abs(slope) * 10.0
        assert np.max(np.abs(out - (intercept + slope * grid))) < 1e-9 * scale

    def test_linear_in_responses(self):
        x = np.sort(RNG.uniform(0, 10, 30))
        y1 = RNG.normal(size=30)
        y2 = RNG.normal(size=30)
        grid = np.linspace(0, 10, 7)
        lhs = local_linear_1d(x, 2.0 * y1 + 3.0 * y2, grid, 1.5)
        rhs = 2.0 * local_linear_1d(x, y1, grid, 1.5) + 3.0 * local_linear_1d(
            x, y2, grid, 1.5
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_widens_empty_windows(self):
        x = np.array([8.0, 8.5, 9.0])
        y = np.array([1.0, 2.0, 3.0])
        w = np.array([1.0, 1.0, 2.0])
        flags = SmoothFlags()
        out = local_linear_1d(x, y, np.array([0.0, 8.5]), 0.5, weights=w, flags=flags)
        assert np.isfinite(out).all()
        assert flags.widened_windows == 1
        assert out[0] == np.average(y, weights=w)

    def test_constant_fallback_on_degenerate_window(self):
        x = np.full(5, 3.0)
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        flags = SmoothFlags()
        out = local_linear_1d(x, y, np.array([3.0]), 1.0, flags=flags)
        assert abs(out[0] - 3.0) < 1e-12
        assert flags.constant_fallbacks > 0


class TestLocalLinear2d:
    def test_matches_direct_wls_at_node(self):
        n = 40
        x1 = RNG.uniform(0, 10, n)
        x2 = RNG.uniform(0, 10, n)
        z = RNG.normal(size=n)
        g = np.linspace(0, 10, 5)
        surf = local_linear_2d(x1, x2, z, g, g, (2.5, 2.5))
        oracle = wls_plane_at(x1, x2, z, g[2], g[3], 2.5, 2.5, EPANECHNIKOV)
        assert abs(surf[2, 3] - oracle) < 1e-9

    @given(
        a=finite_floats,
        b1=finite_floats,
        b2=finite_floats,
    )
    def test_reproduces_plane(self, a, b1, b2):
        x1 = RNG.uniform(0, 10, 60)
        x2 = RNG.uniform(0, 10, 60)
        z = a + b1 * x1 + b2 * x2
        g = np.linspace(0, 10, 6)
        surf = local_linear_2d(x1, x2, z, g, g, (4.0, 4.0))
        truth = a + b1 * g[:, None] + b2 * g[None, :]
        scale = 1.0 + abs(a) + 10.0 * (abs(b1) + abs(b2))
        assert np.max(np.abs(surf - truth)) < 1e-9 * scale

    def test_zero_data_gives_zero_surface(self):
        x = RNG.uniform(0, 10, 30)
        g = np.linspace(0, 10, 4)
        surf = local_linear_2d(x, x[::-1], np.zeros(30), g, g, (3.0, 3.0))
        assert np.max(np.abs(surf)) < 1e-12

    def test_widens_empty_windows(self):
        x1 = np.array([9.0, 9.5, 10.0, 8.5])
        x2 = np.array([9.0, 9.5, 10.0, 8.5])
        z = np.array([1.0, 2.0, 3.0, 4.0])
        g = np.linspace(0, 10, 3)
        flags = SmoothFlags()
        surf = local_linear_2d(x1, x2, z, g, g, (0.5, 0.5), flags=flags)
        assert np.isfinite(surf).all()
        # only the node (10, 10) holds a point
        empty = np.ones((3, 3), dtype=bool)
        empty[2, 2] = False
        assert flags.widened_windows == empty.sum()
        assert (surf[empty] == np.mean(z)).all() and surf[2, 2] == 3.0


class TestLocalDiagRotated:
    def test_constant_surface(self):
        x1 = RNG.uniform(0, 10, 80)
        x2 = RNG.uniform(0, 10, 80)
        z = np.full(80, 4.2)
        out = local_diag_rotated(x1, x2, z, np.linspace(1, 9, 5), 2.0)
        assert np.max(np.abs(out - 4.2)) < 1e-9

    def test_linear_along_diagonal(self):
        # z = (x1 + x2) / 2 equals s on the diagonal and is flat across it
        x1 = RNG.uniform(0, 10, 200)
        x2 = RNG.uniform(0, 10, 200)
        z = 0.5 * (x1 + x2)
        pts = np.linspace(2, 8, 5)
        out = local_diag_rotated(x1, x2, z, pts, 2.0)
        assert np.max(np.abs(out - pts)) < 1e-8

    def test_sparse_windows_still_finite(self):
        x1 = np.array([1.0, 1.1])
        x2 = np.array([1.0, 1.1])
        z = np.array([2.0, 2.0])
        flags = SmoothFlags()
        out = local_diag_rotated(x1, x2, z, np.array([9.0]), 0.3, flags=flags)
        assert np.isfinite(out).all()

    # The third explicit example of ``test_local_diag_rotated``: a target
    # 13 bandwidths along the diagonal from the nearest weighted pair. Its
    # empty window takes the mean of the band, whose one pair (0, 0.25)
    # has z = 0.
    def test_empty_window_stays_within_the_data(self):
        i = np.arange(16)
        x1, x2 = np.where(i == 13, 5.5, 0.0), np.where(i == 5, 0.75, 0.25)
        z = np.where(i == 5, 1.0, 0.0)
        w = np.array([1.0, 0, 0, 0, 0, 0.5, 0, 0, 0, 0, 0, 0, 0, 2.0, 0, 0])
        flags = SmoothFlags()
        out = local_diag_rotated(x1, x2, z, np.array([6.25]), 0.5 / np.sqrt(2.0), QUARTIC,
                                 weights=w, flags=flags)
        assert flags.widened_windows == 1
        assert 0.0 <= out[0] <= 1.0
        assert out[0] == 0.0

    def test_band_is_the_same_across_chunk_boundaries(self, monkeypatch):
        # pairs on a coarse lattice tie along the diagonal, so the band's
        # order of ties sets the order of each window's sums; some weights
        # are zero, and chunks of 7 pairs split the band found over them
        rng = np.random.default_rng(24)
        x1, x2 = 0.5 * rng.integers(0, 21, (2, 300))
        z = rng.normal(size=300)
        w = np.where(rng.uniform(size=300) < 0.2, 0.0, rng.uniform(0.5, 2.0, 300))
        s = np.linspace(0.0, 10.0, 26)
        for weights in (w, None):
            want = local_diag_rotated(x1, x2, z, s, 0.8, QUARTIC, weights=weights)
            with monkeypatch.context() as m:
                m.setattr(smoothing, "_PAIR_CHUNK", 7)
                got = local_diag_rotated(x1, x2, z, s, 0.8, QUARTIC, weights=weights)
            assert np.array_equal(got, want)


def with_bad(values, bad):
    """A copy of ``values`` with ``bad`` at position 7."""
    out = values.copy()
    out[7] = bad
    return out


# Fifty points, and as pairs fifty (observation, observation) index pairs.
BIN_X1, BIN_X2 = np.linspace(0.0, 10.0, 50), np.linspace(10.0, 0.0, 50)
BIN_PAIRS = (np.arange(50), np.arange(50)[::-1])

# Defect -> (changed arguments of ``bin_scatter_2d``, error match).
BIN_DEFECTS = {
    "z longer": ({"z": np.ones(70)}, "differ in length"),
    "z shorter": ({"z": np.ones(40)}, "differ in length"),
    "x2 shorter": ({"x2": BIN_X2[:40]}, "differ in length"),
    "weights shorter": ({"weights": np.ones(40)}, "does not match"),
    "NaN x1": ({"x1": with_bad(BIN_X1, np.nan)}, "must be finite"),
    "inf x2": ({"x2": with_bad(BIN_X2, np.inf)}, "must be finite"),
    "NaN z": ({"z": with_bad(np.ones(50), np.nan)}, "must be finite"),
    "pairs, z shorter": ({"pairs": BIN_PAIRS, "z": np.ones(30)}, "differ in length"),
    "pairs, b shorter": ({"pairs": (BIN_PAIRS[0], BIN_PAIRS[1][:30])}, "differ in length"),
    "pairs, NaN observation": (
        {"pairs": BIN_PAIRS, "x1": with_bad(BIN_X1, np.nan)}, "must be finite"
    ),
}


class TestBinScatter2d:
    def test_weighted_mean_per_node(self):
        g = np.array([0.0, 1.0])
        x1 = np.array([0.1, 0.1, 0.9])
        x2 = np.array([0.1, 0.1, 0.9])
        z = np.array([1.0, 3.0, 5.0])
        b1, b2, bz, bw = bin_scatter_2d(x1, x2, z, g, g)
        # (0.1, 0.1) snaps twice to node (0,0); (0.9, 0.9) snaps to (1,1)
        order = np.argsort(b1)
        assert np.array_equal(bw[order], [2.0, 1.0])
        assert np.allclose(bz[order], [2.0, 5.0])

    def test_total_weight_preserved(self):
        g = np.linspace(0, 10, 6)
        x1 = RNG.uniform(0, 10, 500)
        x2 = RNG.uniform(0, 10, 500)
        z = RNG.normal(size=500)
        w = np.abs(RNG.normal(size=500)) + 0.5
        _, _, _, bw = bin_scatter_2d(x1, x2, z, g, g, weights=w)
        assert abs(bw.sum() - w.sum()) < 1e-9

    @pytest.mark.parametrize("weighted", [False, True])
    def test_pair_indices_bin_as_the_gathered_points(self, monkeypatch, weighted):
        # chunks of 7 points, so the gather crosses chunk boundaries; some
        # observations lie off the grid or on a midpoint between nodes
        monkeypatch.setattr(smoothing, "_PAIR_CHUNK", 7)
        rng = np.random.default_rng(23)
        g1, g2 = np.linspace(0, 10, 11), np.linspace(-1, 3, 9)
        t1 = np.concatenate([rng.uniform(-1, 11, 37), [0.5, 4.5, 9.5]])
        t2 = np.concatenate([rng.uniform(-2, 4, 28), [-0.75, 2.25]])
        a, b = rng.integers(0, t1.size, 100), rng.integers(0, t2.size, 100)
        z = rng.normal(size=100)
        w = rng.uniform(0, 2, 100) if weighted else None
        got = bin_scatter_2d(t1, t2, z, g1, g2, w, pairs=(a, b))
        want = bin_scatter_2d(t1[a], t2[b], z, g1, g2, w)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("defect", list(BIN_DEFECTS))
    def test_invalid_points_raise(self, defect):
        # z of 70 or 40 values once raised bincount's length error, a NaN
        # coordinate warned in the index cast, and a short z with pairs
        # raised a broadcast error
        g = np.linspace(0.0, 10.0, 11)
        for pairs in (None, BIN_PAIRS):
            bin_scatter_2d(BIN_X1, BIN_X2, np.ones(50), g, g, pairs=pairs)
        changes, match = BIN_DEFECTS[defect]
        args = {"x1": BIN_X1, "x2": BIN_X2, "z": np.ones(50), "weights": None, "pairs": None}
        args.update(changes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                bin_scatter_2d(grid1=g, grid2=g, **args)


class TestInterp:
    def test_linear_exact_at_nodes_and_clamped(self):
        g = np.linspace(0, 10, 11)
        v = RNG.normal(size=11)
        assert np.array_equal(interp_linear(g, v, g), v)
        assert interp_linear(g, v, np.array([-5.0]))[0] == v[0]
        assert interp_linear(g, v, np.array([15.0]))[0] == v[-1]

    def test_bilinear_exact_at_nodes_and_clamped(self):
        g1 = np.linspace(0, 10, 6)
        g2 = np.linspace(0, 4, 5)
        surf = RNG.normal(size=(6, 5))
        t1, t2 = np.meshgrid(g1, g2, indexing="ij")
        vals = interp_bilinear(g1, g2, surf, t1.ravel(), t2.ravel())
        assert np.allclose(vals.reshape(6, 5), surf, atol=1e-12)
        out = interp_bilinear(g1, g2, surf, np.array([-1.0]), np.array([99.0]))
        assert out[0] == surf[0, -1]


class TestBandwidthSelection:
    def gcv_score_1d(self, x, y, b, grid, kernel=EPANECHNIKOV):
        """Re-derive the documented objective with an independent code path."""
        fit = local_linear_1d(x, y, grid, b, kernel)
        resid = y - interp_linear(grid, fit, x)
        n = x.size
        trace = kernel.at_zero * (grid.max() - grid.min()) / b
        slack = 1.0 - trace / n
        if slack <= 0:
            return float("inf")
        return float((resid**2).sum() / slack**2)

    def test_gcv_matches_direct_tabulation(self):
        x = np.sort(RNG.uniform(0, 10, 120))
        y = np.sin(x) + RNG.normal(scale=0.3, size=120)
        grid = np.linspace(0, 10, 31)
        cands = [0.4, 0.8, 1.5, 3.0]
        sel = select_bandwidth_1d(x, y, cands, grid)
        direct = [self.gcv_score_1d(x, y, b, grid) for b in cands]
        assert np.allclose(sel.scores, direct, rtol=1e-10)
        assert sel.chosen == cands[int(np.argmin(direct))]

    def test_single_candidate_is_chosen(self):
        x = np.linspace(0, 10, 20)
        y = np.zeros(20)
        sel = select_bandwidth_1d(x, y, [2.0], np.linspace(0, 10, 11))
        assert sel.chosen == 2.0

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_bandwidth_1d(
                np.array([1.0]), np.array([1.0]), [], np.linspace(0, 1, 3)
            )

    def test_undersized_candidates_score_infinite(self):
        x = np.linspace(0, 10, 12)
        y = RNG.normal(size=12)
        sel = select_bandwidth_1d(x, y, [1e-4, 3.0], np.linspace(0, 10, 11))
        assert np.isinf(sel.scores[0])
        assert sel.chosen == 3.0

    def test_loso_requires_subject_index(self):
        x = np.linspace(0, 10, 12)
        with pytest.raises(ValueError):
            select_bandwidth_1d(
                x, np.zeros(12), [2.0], np.linspace(0, 10, 5), objective="loso-cv"
            )

    @pytest.mark.parametrize("objective", ["gcv", "loso-cv"])
    @pytest.mark.parametrize("n_index", [20, 80])
    def test_subject_index_must_match_the_scatter(self, objective, n_index):
        # 40 points: a longer index was once read silently and a shorter one
        # raised a bare IndexError
        rng = np.random.default_rng(12)
        x1, x2 = rng.uniform(0, 10, 40), rng.uniform(0, 10, 40)
        grid = np.linspace(0, 10, 11)
        idx = np.arange(n_index) % 10
        with pytest.raises(ValueError, match="subject_index"):
            select_bandwidth_1d(
                x1, x2, [2.0], grid, objective=objective, subject_index=idx
            )
        with pytest.raises(ValueError, match="subject_index"):
            select_bandwidth_2d(
                x1, x2, x1, [(2.0, 2.0)], grid, grid, objective=objective, subject_index=idx
            )

    def test_loso_runs_with_subjects(self):
        x = np.sort(RNG.uniform(0, 10, 40))
        y = x + RNG.normal(scale=0.1, size=40)
        idx = np.repeat(np.arange(10), 4)
        sel = select_bandwidth_1d(
            x, y, [1.0, 5.0], np.linspace(0, 10, 21),
            objective="loso-cv", subject_index=idx,
        )
        assert sel.chosen in (1.0, 5.0)
        assert np.isfinite(sel.scores).all()

    def test_gcv_returns_the_chosen_fit(self):
        x = RNG.uniform(0, 10, 90)
        y = np.sin(x) + RNG.normal(scale=0.3, size=90)
        grid = np.linspace(0, 10, 21)
        sel = select_bandwidth_1d(x, y, [0.8, 1.5, 3.0], grid)
        assert np.array_equal(sel.fit, local_linear_1d(x, y, grid, sel.chosen))
        x2 = RNG.uniform(0, 10, 90)
        sel = select_bandwidth_2d(x, x2, y, [(1.5, 1.5), (3.0, 2.0)], grid, grid)
        assert np.array_equal(sel.fit, local_linear_2d(x, x2, y, grid, grid, sel.chosen))

    @pytest.mark.parametrize("case", ["sparse n=2000 cohort", "clusters", "x near 1000"])
    def test_linear_binning_keeps_weight_and_first_moments(self, case):
        # the lattice spans the points and the grid, whichever is wider
        x, y, w, s, _ = TestWholeBlockSums.CASES[case]
        for grid in (s, s[10:-10]):
            nodes, ybar, wsum = _bin_linear(x, y, w, grid)
            assert nodes.size == 401 and (wsum >= 0).all()
            assert nodes[0] == min(x.min(), grid[0]) and nodes[-1] == max(x.max(), grid[-1])
            for raw, binned in ((w, wsum), (w * x, wsum * nodes), (w * y, wsum * ybar)):
                assert abs(binned.sum() - raw.sum()) <= 1e-12 * np.abs(raw).sum()

    @pytest.mark.parametrize("n", [401, 402])
    def test_gcv_fits_the_lattice_above_401_points(self, n):
        # up to 401 points the search fits the scatter exactly; from 402 it
        # fits the linear binning, and still scores residuals at the points
        rng = np.random.default_rng(n)
        x = rng.uniform(0, 10, n)
        y = np.sin(x) + rng.normal(scale=0.3, size=n)
        grid = np.linspace(0, 10, 51)
        sel = select_bandwidth_1d(x, y, [0.8, 1.5], grid)
        exact = local_linear_1d(x, y, grid, sel.chosen)
        nodes, ybar, wsum = _bin_linear(x, y, None, grid)
        if n == 401:
            assert np.array_equal(nodes, np.sort(x))
            assert np.array_equal(sel.fit, exact)
        else:
            binned = local_linear_1d(nodes, ybar, grid, sel.chosen, weights=wsum)
            assert np.array_equal(sel.fit, binned) and not np.array_equal(sel.fit, exact)
        resid = y - interp_linear(grid, sel.fit, x)
        slack = 1.0 - EPANECHNIKOV.at_zero * 10.0 / sel.chosen / n
        assert sel.scores[sel.candidates.index(sel.chosen)] == pytest.approx(
            float(resid @ resid) / slack**2, rel=1e-12
        )

    def test_loso_returns_no_fit(self):
        x = np.sort(RNG.uniform(0, 10, 40))
        sel = select_bandwidth_1d(
            x, x, [1.0, 5.0], np.linspace(0, 10, 21),
            objective="loso-cv", subject_index=np.repeat(np.arange(10), 4),
        )
        assert sel.fit is None

    def test_gcv_2d_matches_direct_tabulation(self):
        n = 150
        x1 = RNG.uniform(0, 10, n)
        x2 = RNG.uniform(0, 10, n)
        z = np.cos(x1) * np.cos(x2) + RNG.normal(scale=0.2, size=n)
        g = np.linspace(0, 10, 11)
        cands = [(1.5, 1.5), (3.0, 3.0)]
        sel = select_bandwidth_2d(x1, x2, z, cands, g, g)

        direct = []
        for h1, h2 in cands:
            surf = local_linear_2d(x1, x2, z, g, g, (h1, h2))
            resid = z - interp_bilinear(g, g, surf, x1, x2)
            trace = (
                EPANECHNIKOV.at_zero ** 2
                * (g.max() - g.min()) ** 2
                / (h1 * h2)
            )
            slack = 1.0 - trace / n
            direct.append(
                float("inf") if slack <= 0 else float((resid**2).sum() / slack**2)
            )
        assert np.allclose(sel.scores, direct, rtol=1e-10)
        assert sel.chosen == cands[int(np.argmin(direct))]


G11 = np.linspace(0.0, 10.0, 11)

# Each public entry point, with its number of columns, as a call on its
# columns and weights.
ENTRY_POINTS = {
    "local_linear_1d": (2, lambda c, w: local_linear_1d(*c, G11, 2.0, weights=w)),
    "select_bandwidth_1d": (2, lambda c, w: select_bandwidth_1d(*c, [2.0], G11, weights=w)),
    "local_linear_2d": (3, lambda c, w: local_linear_2d(*c, G11, G11, (2.0, 2.0), weights=w)),
    "local_diag_rotated": (3, lambda c, w: local_diag_rotated(*c, G11, 2.0, weights=w)),
    "select_bandwidth_2d": (
        3, lambda c, w: select_bandwidth_2d(*c, [(2.0, 2.0)], G11, G11, weights=w)
    ),
}


def invalid_scatters():
    """(entry point, defect) cases: a column after the first 10 points
    longer or shorter than the first, a NaN or inf in one column or in the
    weights (column k of k), or an empty scatter."""
    for name, (k, _) in ENTRY_POINTS.items():
        for col in range(1, k):
            for extra, how in ((10, "longer"), (-10, "shorter")):
                yield pytest.param(name, ("length", col, extra), id=f"{name}-column{col}-{how}")
        for col in range(k + 1):
            where = "weights" if col == k else f"column{col}"
            for bad in (np.nan, np.inf):
                yield pytest.param(name, ("value", col, bad), id=f"{name}-{where}-{bad}")
        yield pytest.param(name, ("empty",), id=f"{name}-empty")


@st.composite
def finite_scatters(draw):
    """Any finite scatter of 1 to 30 points with at least one positive
    weight, with evaluation points, a grid and bandwidths around it."""
    n = draw(st.integers(1, 30))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)

    x1, x2 = column(st.floats(-50.0, 50.0)), column(st.floats(-50.0, 50.0))
    z = column(st.floats(-1e3, 1e3))
    w = column(st.floats(0.0, 10.0))
    w[draw(st.integers(0, n - 1))] = draw(st.floats(0.0, 10.0, exclude_min=True))
    s = np.array(draw(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=8)))
    g = draw(st.floats(-60.0, 50.0)) + np.linspace(
        0.0, draw(st.floats(0.5, 60.0)), draw(st.integers(2, 12))
    )
    h = (draw(st.floats(0.05, 30.0)), draw(st.floats(0.05, 30.0)))
    return x1, x2, z, w, s, g, h, draw(KERNELS)


class TestScatterChecks:
    """All five entry points check their points through one helper."""

    @pytest.mark.parametrize("name, defect", list(invalid_scatters()))
    def test_invalid_scatter_raises(self, name, defect):
        # mismatched columns were once truncated or raised IndexError, and
        # a non-finite point was dropped or spread NaN through the fit
        k, fit = ENTRY_POINTS[name]
        rng = np.random.default_rng(5)
        cols, w = list(rng.uniform(0.0, 10.0, (k, 50))), np.ones(50)
        fit(cols, w)
        kind, *where = defect
        if kind == "length":
            col, extra = where
            cols[col] = np.resize(cols[col], 50 + extra)
            match = "differ in length"
        elif kind == "value":
            col, bad = where
            (w if col == k else cols[col])[7] = bad
            match = "must be finite"
        else:
            cols, w, match = [np.empty(0)] * k, None, "empty scatter"
        with pytest.raises(ValueError, match=match):
            fit(cols, w)

    @settings(derandomize=True, max_examples=60)
    @given(case=finite_scatters())
    def test_finite_scatters_give_finite_fits(self, case):
        x1, x2, z, w, s, g, h, kernel = case
        assert np.isfinite(local_linear_1d(x1, z, s, h[0], kernel, weights=w)).all()
        assert np.isfinite(local_linear_2d(x1, x2, z, g, g, h, kernel, weights=w)).all()
        assert np.isfinite(local_diag_rotated(x1, x2, z, s, h[0], kernel, weights=w)).all()
