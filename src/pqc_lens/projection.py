"""Dimensionality reduction for parameter-space point clouds.

Two projections to a low-dimensional view: PCA (linear, with an explicit
orthonormal basis that supports re-expansion back into parameter space)
and exact t-SNE (nonlinear, pairwise-affinity based, no inverse map).

Input distances for t-SNE are computed from coordinate differences rather
than the usual norm-expansion identity, trading a little speed for
translation stability: clouds that differ only by a constant offset give
the same affinities up to rounding of the differences themselves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-10
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class PointCloud:
    """Points as rows of a (P, M) array, with optional per-point tags."""

    points: np.ndarray
    labels: tuple | None = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array of row vectors")
        if pts.shape[0] < 2:
            raise ValueError("a point cloud needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != pts.shape[0]:
                raise ValueError(
                    f"{len(labels)} labels for {pts.shape[0]} points"
                )
            object.__setattr__(self, "labels", labels)

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


def _complete_basis(axes: list[np.ndarray], needed: int, dim: int) -> list[np.ndarray]:
    """Extend with standard-basis directions, orthonormalized, in index order."""
    out = list(axes)
    for j in range(dim):
        if len(out) >= needed:
            break
        cand = np.zeros(dim)
        cand[j] = 1.0
        for ax in out:
            cand = cand - (cand @ ax) * ax
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            out.append(cand / nrm)
    if len(out) < needed:
        raise ValueError(
            f"cannot build {needed} orthonormal axes in dimension {dim}"
        )
    return out


def pca(cloud, dims: int = 2):
    """Principal components of a point cloud.

    Returns (embedded, basis, explained) where embedded is (P, dims),
    basis is the SubspaceBasis whose origin is the mean point, and
    explained holds the fraction of total variance captured per axis,
    in non-increasing order.

    The eigenproblem is solved on the M x M covariance when M <= P and
    on the P x P Gram matrix otherwise, which keeps long trajectories in
    very wide parameter spaces cheap. Zero-variance clouds are rejected;
    a cloud whose rank is below dims gets deterministic filler axes
    (orthonormalized standard-basis directions) with zero explained
    variance.
    """
    pts = _cloud_points(cloud)
    n_points, dim = pts.shape
    if dims < 1:
        raise ValueError("dims must be positive")
    if dim < dims:
        raise ValueError(f"cloud dimension {dim} is below dims={dims}")
    if n_points < dims + 1:
        raise ValueError(f"PCA onto {dims} axes needs at least {dims + 1} points")

    origin = pts.mean(axis=0)
    centered = pts - origin
    total_variance = float(np.sum(centered * centered)) / n_points
    if total_variance <= _RANK_TOL:
        raise ValueError("point cloud has rank 0 (zero variance); nothing to project")

    if dim <= n_points:
        cov = (centered.T @ centered) / n_points
        evals, evecs = np.linalg.eigh(cov)
        order = np.argsort(evals)[::-1]
        evals = evals[order]
        evecs = evecs[:, order]
        variances = np.maximum(evals[:dims], 0.0)
        axes = [evecs[:, i] for i in range(dims)]
    else:
        gram = (centered @ centered.T) / n_points
        evals, evecs = np.linalg.eigh(gram)
        order = np.argsort(evals)[::-1]
        evals = evals[order]
        evecs = evecs[:, order]
        axes = []
        variances = []
        for i in range(min(dims, n_points)):
            lam = evals[i]
            if lam <= _RANK_TOL * total_variance:
                break
            axis = centered.T @ evecs[:, i]
            axes.append(axis / math.sqrt(n_points * lam))
            variances.append(lam)
        axes = _complete_basis(axes, dims, dim)
        variances = variances + [0.0] * (dims - len(variances))
        variances = np.asarray(variances)

    axis_matrix = _fix_signs(np.asarray(axes))
    basis = SubspaceBasis(origin, axis_matrix)
    embedded = basis.project(pts)
    explained = np.asarray(variances, dtype=float) / total_variance
    return embedded, basis, explained


def random_basis(dim: int, dims: int = 2, seed=None) -> SubspaceBasis:
    """Random orthonormal frame at the origin: Gaussian draws, Gram-Schmidt.

    When dim < dims the surplus rows come out as zeros, matching the
    degenerate-axis allowance of SubspaceBasis.
    """
    rng = np.random.default_rng(seed)
    axes = np.zeros((dims, dim))
    kept: list[np.ndarray] = []
    for i in range(dims):
        if len(kept) >= dim:
            break
        for _ in range(64):
            cand = rng.standard_normal(dim)
            for ax in kept:
                cand = cand - (cand @ ax) * ax
            nrm = np.linalg.norm(cand)
            if nrm > 1e-8:
                axes[i] = cand / nrm
                kept.append(axes[i])
                break
        else:
            raise RuntimeError("failed to draw an independent direction")
    return SubspaceBasis(np.zeros(dim), axes)


def _pairwise_sq_dists(pts: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from explicit coordinate differences."""
    n, dim = pts.shape
    out = np.empty((n, n))
    block = max(1, (1 << 22) // max(1, n * dim))
    for start in range(0, n, block):
        stop = min(n, start + block)
        diff = pts[start:stop, None, :] - pts[None, :, :]
        out[start:stop] = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(out, 0.0)
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


def _tsne_impl(pts: np.ndarray, dims: int, perplexity: float, iters: int,
               seed, record_kl: bool):
    n = pts.shape[0]
    if n < 3:
        raise ValueError("t-SNE needs at least 3 points")
    if not (math.isfinite(perplexity) and perplexity > 0):
        raise ValueError("perplexity must be finite and positive")
    if not perplexity < (n - 1) / 3.0:
        raise ValueError(
            f"perplexity {perplexity} too large for {n} points; "
            f"needs perplexity < {(n - 1) / 3.0}"
        )
    if iters < 1:
        raise ValueError("iters must be positive")

    cond = _affinities(_pairwise_sq_dists(pts), perplexity)
    P = (cond + cond.T) / (2.0 * n)
    P = np.maximum(P, 1e-12)

    exaggeration = 12.0
    exploration_iters = 250
    learning_rate = 200.0

    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((n, dims)) * 1e-4
    increment = np.zeros((n, dims))
    gains = np.ones((n, dims))
    kl_history: list[float] = []

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

        if record_kl:
            kl_history.append(float(np.sum(P * np.log(P / Q))))

    return Y, kl_history


def tsne(cloud, dims: int = 2, perplexity: float = 30.0, iters: int = 1000,
         seed=None) -> np.ndarray:
    """Exact t-SNE embedding of a point cloud.

    Student-t low-dimensional kernel, gradient descent with per-coordinate
    gains, momentum 0.5 switching to 0.8 at iteration 250, and twelvefold
    early exaggeration over those first 250 iterations. Deterministic for
    a given seed. There is no inverse map, so overlays that need one must
    use PCA instead.
    """
    pts = _cloud_points(cloud)
    embedded, _ = _tsne_impl(pts, dims, perplexity, iters, seed, record_kl=False)
    return embedded


def _tsne_with_history(cloud, dims: int = 2, perplexity: float = 30.0,
                       iters: int = 1000, seed=None):
    """tsne plus the per-iteration KL objective, for convergence checks."""
    pts = _cloud_points(cloud)
    return _tsne_impl(pts, dims, perplexity, iters, seed, record_kl=True)
