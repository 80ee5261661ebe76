"""Dimensionality reduction for parameter-space point clouds.

Two projections to a low-dimensional view: PCA (linear, with an explicit
orthonormal basis that supports re-expansion back into parameter space)
and exact t-SNE (nonlinear, pairwise-affinity based, no inverse map).
PCA takes one thin SVD of the centred cloud, whatever its shape; one
Gram-Schmidt helper completes both PCA frames and random frames.

Input distances for t-SNE are computed from coordinate differences rather
than the usual norm-expansion identity, trading a little speed for
translation stability: clouds that differ only by a constant offset give
the same affinities up to rounding of the differences themselves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import _check_count, _check_real, _resolve_seed
from .simulator import _fits

_NORM_TOL = 1e-10
_RANK_TOL = 1e-12
# keeps every mean, variance, squared distance and affinity exponent of a
# cloud inside the float range; an angle this large is noise modulo 2*pi
_MAX_COORD = 1e100


@dataclass(frozen=True)
class PointCloud:
    """Points as rows of a (P, M) array.

    Coordinates must be finite and at most 1e100 in magnitude.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array of row vectors")
        if pts.shape[0] < 2:
            raise ValueError("a point cloud needs at least 2 points")
        if not np.all(np.abs(pts) <= _MAX_COORD):
            raise ValueError(f"points must be finite and at most {_MAX_COORD:g} in magnitude")
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SubspaceBasis:
    """Affine 2-D (or k-D) frame in parameter space: origin plus axis rows.

    Axis rows are unit length and mutually orthogonal. A row may instead be
    all zeros when the ambient space is too small to supply another
    direction (a 1-parameter circuit scanned over a 2-D grid); coordinates
    along a zero axis simply do not move the expanded point.
    """

    origin: np.ndarray
    axes: np.ndarray

    def __post_init__(self) -> None:
        origin = np.asarray(self.origin, dtype=float).reshape(-1)
        axes = np.asarray(self.axes, dtype=float)
        if axes.ndim != 2 or axes.shape[1] != origin.shape[0]:
            raise ValueError("axes must be rows of the same dimension as origin")
        norms = np.linalg.norm(axes, axis=1)
        for i, nrm in enumerate(norms):
            if abs(nrm - 1.0) > _NORM_TOL and abs(nrm) > _NORM_TOL:
                raise ValueError(f"axis {i} has norm {nrm}, expected 1 or 0")
        gram = axes @ axes.T
        off = gram - np.diag(np.diag(gram))
        if np.max(np.abs(off)) > _NORM_TOL:
            raise ValueError("axes are not mutually orthogonal")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "axes", axes)

    @property
    def n_axes(self) -> int:
        return self.axes.shape[0]

    def project(self, points) -> np.ndarray:
        """Coordinates of points in this frame: (points - origin) @ axes.T."""
        pts = np.asarray(points, dtype=float)
        return (pts - self.origin) @ self.axes.T

    def expand(self, coords) -> np.ndarray:
        """Map frame coordinates back to ambient space."""
        c = np.asarray(coords, dtype=float)
        return self.origin + c @ self.axes


def _cloud_points(cloud) -> np.ndarray:
    if isinstance(cloud, PointCloud):
        return cloud.points
    return PointCloud(np.asarray(cloud, dtype=float)).points


def _fix_signs(axes: np.ndarray) -> np.ndarray:
    """Flip each axis so its first component above 1e-12 is positive."""
    fixed = axes.copy()
    for i in range(fixed.shape[0]):
        for v in fixed[i]:
            if abs(v) > 1e-12:
                if v < 0:
                    fixed[i] = -fixed[i]
                break
    return fixed


def _gram_schmidt(axes: list[np.ndarray], candidates, needed: int) -> list[np.ndarray]:
    """Extend orthonormal axes to ``needed`` rows from candidates, in order.

    Each candidate loses its components along the axes so far and is kept,
    normalised, if its norm is still above 1e-8.
    """
    out = list(axes)
    for cand in candidates:
        if len(out) >= needed:
            break
        for ax in out:
            cand = cand - (cand @ ax) * ax
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            out.append(cand / nrm)
    return out


def pca(cloud, dims: int = 2):
    """Principal components of a point cloud.

    Returns (embedded, basis, explained) where embedded is (P, dims),
    basis is the SubspaceBasis whose origin is the mean point, and
    explained holds the fraction of total variance captured per axis,
    in non-increasing order.

    Axes and variances come from one thin SVD of the centred (P, M)
    cloud: axis i is the i-th right singular vector, with variance s_i²/P.
    Zero-variance clouds are rejected. An axis whose variance is at most
    1e-12 of the total is replaced by a deterministic filler (the next
    standard-basis direction, orthonormalized against the axes before it)
    and explains exactly 0.
    """
    pts = _cloud_points(cloud)
    n_points, dim = pts.shape
    _check_count(dims, "dims")
    if dim < dims:
        raise ValueError(f"cloud dimension {dim} is below dims={dims}")
    if n_points < dims + 1:
        raise ValueError(f"PCA onto {dims} axes needs at least {dims + 1} points")

    origin = pts.mean(axis=0)
    centered = pts - origin
    total_variance = float(np.sum(centered * centered)) / n_points
    if total_variance <= _RANK_TOL:
        raise ValueError("point cloud has rank 0 (zero variance); nothing to project")

    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    variances = s[:dims] ** 2 / n_points
    rank = np.count_nonzero(variances > _RANK_TOL * total_variance)
    variances[rank:] = 0.0
    axes = _gram_schmidt(list(vt[:rank]), np.eye(dim), dims)
    basis = SubspaceBasis(origin, _fix_signs(np.asarray(axes)))
    return basis.project(pts), basis, variances / total_variance


def random_basis(dim: int, dims: int = 2, seed=None) -> SubspaceBasis:
    """Random orthonormal frame at the origin: Gaussian draws, Gram-Schmidt.

    When dim < dims the surplus rows come out as zeros, matching the
    degenerate-axis allowance of SubspaceBasis.
    """
    _check_count(dim, "dim", 0)
    _check_count(dims, "dims")
    rng = np.random.default_rng(_resolve_seed(seed))
    needed = min(dims, dim)
    kept = _gram_schmidt([], (rng.standard_normal(dim) for _ in range(64 * needed)), needed)
    if len(kept) < needed:
        raise RuntimeError("failed to draw independent directions")
    axes = np.zeros((dims, dim))
    axes[:needed] = kept
    return SubspaceBasis(np.zeros(dim), axes)


def _pairwise_sq_dists(pts: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from explicit coordinate differences.

    The diagonal is x - x, exactly 0 for the finite points a cloud holds.
    """
    n, dim = pts.shape
    out = np.empty((n, n))
    block = max(1, (1 << 22) // max(1, n * dim))
    for start in range(0, n, block):
        stop = min(n, start + block)
        diff = pts[start:stop, None, :] - pts[None, :, :]
        out[start:stop] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def _affinities(sq_dists: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-conditional Gaussian affinities matching the target perplexity.

    Bandwidths come from a per-row binary search on the Shannon entropy
    (tolerance 1e-5, at most 50 halvings).
    """
    n = sq_dists.shape[0]
    target = math.log(perplexity)
    P = np.zeros((n, n))
    mask = ~np.eye(n, dtype=bool)
    for i in range(n):
        di = sq_dists[i][mask[i]]
        beta = 1.0
        beta_min, beta_max = -math.inf, math.inf
        pi = np.exp(-di * beta)
        for _ in range(50):
            total = pi.sum()
            if total <= 0.0:
                entropy = -math.inf
            else:
                entropy = math.log(total) + beta * float(di @ pi) / total
            diff = entropy - target
            if abs(diff) < 1e-5:
                break
            if diff > 0:
                beta_min = beta
                beta = beta * 2.0 if beta_max == math.inf else 0.5 * (beta + beta_max)
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -math.inf else 0.5 * (beta + beta_min)
            pi = np.exp(-di * beta)
        total = pi.sum()
        if total <= 0.0:
            pi = np.full(n - 1, 1.0 / (n - 1))
            total = 1.0
        P[i][mask[i]] = pi / total
    return P


# n x n float arrays an iteration holds at once: P, the kernel, Q, the
# exaggerated P, their difference and W
_TSNE_ARRAYS = 6


def _check_tsne(n: int, perplexity: float, iters: int) -> None:
    """ValueError unless t-SNE can embed n points at this perplexity over
    iters iterations in at most half of physical memory; raised before
    anything is allocated."""
    if n < 3:
        raise ValueError("t-SNE needs at least 3 points")
    _check_real(perplexity, "perplexity")
    if not perplexity < (n - 1) / 3.0:
        raise ValueError(
            f"perplexity {perplexity} too large for {n} points; "
            f"needs perplexity < {(n - 1) / 3.0}"
        )
    _check_count(iters, "iters")
    _fits(8 * _TSNE_ARRAYS * n * n, f"t-SNE of {n} points")


def tsne(cloud, dims: int = 2, perplexity: float = 30.0, iters: int = 1000,
         seed=None) -> np.ndarray:
    """Exact t-SNE embedding of a point cloud.

    Student-t low-dimensional kernel, gradient descent with per-coordinate
    gains, momentum 0.5 switching to 0.8 at iteration 250, and twelvefold
    early exaggeration over those first 250 iterations. Deterministic for
    a given seed. There is no inverse map, so overlays that need one must
    use PCA instead.
    """
    _check_count(dims, "dims")
    pts = _cloud_points(cloud)
    n = pts.shape[0]
    _check_tsne(n, perplexity, iters)
    rng = np.random.default_rng(_resolve_seed(seed))

    cond = _affinities(_pairwise_sq_dists(pts), perplexity)
    P = (cond + cond.T) / (2.0 * n)
    P = np.maximum(P, 1e-12)

    exaggeration = 12.0
    exploration_iters = 250
    learning_rate = 200.0

    Y = rng.standard_normal((n, dims)) * 1e-4
    increment = np.zeros((n, dims))
    gains = np.ones((n, dims))

    for it in range(iters):
        num = 1.0 / (1.0 + _pairwise_sq_dists(Y))
        np.fill_diagonal(num, 0.0)
        Q = np.maximum(num / num.sum(), 1e-12)

        P_eff = P * exaggeration if it < exploration_iters else P
        W = (P_eff - Q) * num
        grad = 4.0 * (W.sum(axis=1)[:, None] * Y - W @ Y)

        momentum = 0.5 if it < exploration_iters else 0.8
        same_sign = (grad > 0) == (increment > 0)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        gains = np.maximum(gains, 0.01)
        increment = momentum * increment - learning_rate * gains * grad
        Y = Y + increment
        Y = Y - Y.mean(axis=0)

    return Y
