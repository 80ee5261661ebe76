import math

import numpy as np
import pytest

from oracles import tsne_with_history
from pqc_lens import PointCloud, SubspaceBasis, pca, random_basis, tsne


def _svd_reference(pts, dims):
    """Independent PCA via numpy SVD, for cross-checking both solver routes."""
    centered = pts - pts.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    coords = centered @ vt[:dims].T
    var = (s**2) / pts.shape[0]
    return coords, var[:dims] / float(np.sum(centered * centered) / pts.shape[0])


def _assert_same_up_to_axis_sign(a, b, tol):
    assert a.shape == b.shape
    for j in range(a.shape[1]):
        sign = 1.0 if float(a[:, j] @ b[:, j]) >= 0 else -1.0
        assert a[:, j] == pytest.approx(sign * b[:, j], abs=tol)


def _clusters(seed, centers, per=15, dim=6, spread=0.5):
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(c, spread, size=(per, dim)) for c in centers]
    return np.vstack(blocks)


class TestPointCloud:
    def test_exposes_shape(self):
        cloud = PointCloud(np.zeros((4, 3)) + np.arange(4)[:, None])
        assert cloud.n_points == 4
        assert cloud.dimension == 3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros(5))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, np.nan]]))
        with pytest.raises(ValueError, match="magnitude"):
            PointCloud(np.array([[0.0, 1e101], [0.0, 0.0]]))

    def test_labels_must_match_points(self):
        pts = np.zeros((3, 2)) + np.arange(3)[:, None]
        assert PointCloud(pts, labels=("a", "b", "c")).labels == ("a", "b", "c")
        with pytest.raises(ValueError):
            PointCloud(pts, labels=("a",))


class TestSubspaceBasis:
    def test_project_expand_round_trip(self):
        basis = SubspaceBasis(np.array([1.0, 2.0, 3.0]),
                              np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        pts = np.array([[1.5, 1.0, 3.0], [0.0, 4.0, 3.0]])
        assert basis.expand(basis.project(pts)) == pytest.approx(pts)

    def test_zero_axis_is_inert(self):
        basis = SubspaceBasis(np.zeros(1), np.array([[1.0], [0.0]]))
        assert basis.n_axes == 2
        out = basis.expand(np.array([[2.0, 99.0]]))
        assert out.reshape(-1) == pytest.approx([2.0])

    def test_rejects_non_unit_axes(self):
        with pytest.raises(ValueError, match="norm"):
            SubspaceBasis(np.zeros(2), np.array([[0.5, 0.0]]))

    def test_rejects_non_orthogonal_axes(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        with pytest.raises(ValueError, match="orthogonal"):
            SubspaceBasis(np.zeros(2), np.array([[1.0, 0.0], v]))


class TestPCA:
    def test_line_cloud_lives_on_first_axis(self):
        rng = np.random.default_rng(3)
        direction = rng.standard_normal(5)
        direction /= np.linalg.norm(direction)
        ts = np.linspace(-2, 2, 9)
        pts = np.array([1.0 + t * direction for t in ts])
        embedded, basis, explained = pca(pts, dims=2)
        assert explained[0] == pytest.approx(1.0, abs=1e-12)
        assert explained[1] == pytest.approx(0.0, abs=1e-12)
        assert embedded[:, 1] == pytest.approx(np.zeros(9), abs=1e-9)
        spacing = np.diff(embedded[:, 0])
        assert np.max(np.abs(np.abs(spacing) - 0.5)) < 1e-9

    def test_rank_two_reconstruction_is_exact(self):
        rng = np.random.default_rng(5)
        frame = np.linalg.qr(rng.standard_normal((6, 2)))[0].T
        coords = rng.standard_normal((12, 2)) * [3.0, 1.0]
        pts = 0.7 + coords @ frame
        embedded, basis, _ = pca(pts, dims=2)
        assert basis.expand(embedded) == pytest.approx(pts, abs=1e-9)

    def test_matches_svd_reference_covariance_route(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((40, 6)) * [5, 3, 2, 1, 0.5, 0.1]
        embedded, _, explained = pca(pts, dims=3)
        ref_coords, ref_explained = _svd_reference(pts, 3)
        _assert_same_up_to_axis_sign(embedded, ref_coords, 1e-9)
        assert explained == pytest.approx(ref_explained, abs=1e-12)

    def test_matches_svd_reference_gram_route(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((8, 50)) * np.linspace(4, 0.5, 50)
        embedded, basis, explained = pca(pts, dims=2)
        ref_coords, ref_explained = _svd_reference(pts, 2)
        _assert_same_up_to_axis_sign(embedded, ref_coords, 1e-9)
        assert explained == pytest.approx(ref_explained, abs=1e-12)
        assert basis.axes.shape == (2, 50)

    def test_explained_ratios_are_sorted_and_bounded(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((30, 5))
        _, _, explained = pca(pts, dims=4)
        assert np.all(np.diff(explained) <= 1e-12)
        assert 0.0 <= float(explained.sum()) <= 1.0 + 1e-12

    def test_rotation_preserves_geometry(self):
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((25, 4)) * [4, 2, 1, 0.3]
        rot = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        a, _, ea = pca(pts, dims=2)
        b, _, eb = pca(pts @ rot.T, dims=2)
        _assert_same_up_to_axis_sign(a, b, 1e-8)
        assert ea == pytest.approx(eb, abs=1e-10)

    def test_translation_leaves_embedding_unchanged(self):
        rng = np.random.default_rng(15)
        pts = rng.standard_normal((20, 4))
        a, _, _ = pca(pts, dims=2)
        b, _, _ = pca(pts + 100.0, dims=2)
        assert a == pytest.approx(b, abs=1e-9)

    def test_origin_is_the_mean(self):
        rng = np.random.default_rng(17)
        pts = rng.standard_normal((10, 3)) + [5, -2, 0]
        _, basis, _ = pca(pts, dims=2)
        assert basis.origin == pytest.approx(pts.mean(axis=0))

    def test_rank_deficient_cloud_gets_inert_filler_axis(self):
        # 20 points in 30 dims on a single line: Gram route, rank 1
        rng = np.random.default_rng(19)
        direction = rng.standard_normal(30)
        direction /= np.linalg.norm(direction)
        pts = np.outer(np.linspace(0, 1, 20), direction)
        embedded, basis, explained = pca(pts, dims=2)
        assert explained[1] == pytest.approx(0.0, abs=1e-12)
        assert embedded[:, 1] == pytest.approx(np.zeros(20), abs=1e-9)
        norms = np.linalg.norm(basis.axes, axis=1)
        assert norms == pytest.approx([1.0, 1.0], abs=1e-10)

    def test_rank_deficient_tall_cloud_gets_standard_filler_axis(self):
        # 10 points in 3 dims on a single line: more points than dimensions
        direction = np.array([1.0, 2.0, 2.0]) / 3.0
        pts = 0.5 + np.outer(np.linspace(0, 1, 10), direction)
        embedded, basis, explained = pca(pts, dims=2)
        assert basis.axes[0] == pytest.approx(direction, abs=1e-12)
        # e0 with its component along the line removed, normalised
        assert basis.axes[1] == pytest.approx(np.array([8.0, -2.0, -2.0]) / math.sqrt(72.0),
                                              abs=1e-12)
        assert explained[0] == pytest.approx(1.0, abs=1e-12)
        assert explained[1] == 0.0
        assert embedded[:, 1] == pytest.approx(np.zeros(10), abs=1e-12)

    def test_axis_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((15, 4))
        _, b1, _ = pca(pts, dims=2)
        _, b2, _ = pca(np.flipud(pts), dims=2)
        for axis in np.vstack([b1.axes, b2.axes]):
            lead = axis[np.abs(axis) > 1e-12][0]
            assert lead > 0

    def test_rejects_zero_variance_cloud(self):
        pts = np.ones((5, 3))
        with pytest.raises(ValueError, match="rank 0"):
            pca(pts, dims=2)

    def test_rejects_too_few_points_or_dims(self):
        rng = np.random.default_rng(23)
        with pytest.raises(ValueError, match="points"):
            pca(rng.standard_normal((2, 4)), dims=2)
        with pytest.raises(ValueError, match="dimension"):
            pca(rng.standard_normal((5, 1)), dims=2)


class TestRandomBasis:
    def test_orthonormal_rows(self):
        basis = random_basis(7, dims=2, seed=1)
        assert basis.axes @ basis.axes.T == pytest.approx(np.eye(2), abs=1e-10)
        assert basis.origin == pytest.approx(np.zeros(7))

    def test_deterministic_under_seed(self):
        a = random_basis(5, dims=2, seed=9)
        b = random_basis(5, dims=2, seed=9)
        assert np.array_equal(a.axes, b.axes)

    def test_narrow_space_pads_with_zero_rows(self):
        basis = random_basis(1, dims=2, seed=4)
        assert abs(basis.axes[0, 0]) == pytest.approx(1.0)
        assert basis.axes[1] == pytest.approx([0.0])


class TestTSNE:
    def test_deterministic_under_seed(self):
        pts = _clusters(31, centers=(-3.0, 3.0), per=10)
        a = tsne(pts, perplexity=5.0, iters=120, seed=2)
        b = tsne(pts, perplexity=5.0, iters=120, seed=2)
        assert np.array_equal(a, b)

    def test_translation_invariance_is_exact_for_dyadic_data(self):
        rng = np.random.default_rng(33)
        pts = rng.integers(0, 64, size=(24, 5)) / 8.0
        a = tsne(pts, perplexity=6.0, iters=150, seed=3)
        b = tsne(pts + 16.0, perplexity=6.0, iters=150, seed=3)
        assert np.array_equal(a, b)

    def test_separated_clusters_stay_separated(self):
        pts = _clusters(35, centers=(-6.0, 0.0, 6.0), per=15, spread=0.4)
        emb = tsne(pts, perplexity=10.0, seed=5)
        groups = [emb[i * 15:(i + 1) * 15] for i in range(3)]
        diameters = [np.max(np.linalg.norm(g - g.mean(axis=0), axis=1)) * 2
                     for g in groups]
        gaps = []
        for i in range(3):
            for j in range(i + 1, 3):
                gaps.append(np.linalg.norm(groups[i].mean(axis=0)
                                           - groups[j].mean(axis=0)))
        assert min(gaps) > 3.0 * max(diameters)

    def test_duplicate_points_stay_finite(self):
        base = _clusters(37, centers=(-2.0, 2.0), per=8, dim=3)
        pts = np.vstack([base, base[:4]])
        emb = tsne(pts, perplexity=4.0, iters=150, seed=6)
        assert np.all(np.isfinite(emb))

    def test_embedding_is_centered(self):
        pts = _clusters(39, centers=(-2.0, 2.0), per=8)
        emb = tsne(pts, perplexity=4.0, iters=80, seed=7)
        assert emb.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_kl_tail_is_nonincreasing_in_most_trials(self):
        passes = 0
        trials = 20
        for t in range(trials):
            rng = np.random.default_rng(1000 + t)
            k = int(rng.integers(2, 4))
            pts = np.vstack([
                rng.normal(rng.uniform(-5, 5, 4), 0.6, size=(12, 4))
                for _ in range(k)
            ])
            _, hist = tsne_with_history(pts, perplexity=5.0, iters=400, seed=t)
            tail = np.asarray(hist[-100:])
            if not np.any(np.diff(tail) > 1e-12):
                passes += 1
        assert passes / trials >= 0.95

    @pytest.mark.parametrize("cloud", ["clusters", "dyadic", "duplicates", "line", "wide"])
    def test_matches_reference_bit_for_bit(self, cloud):
        rng = np.random.default_rng(43)
        pts = {
            "clusters": lambda: _clusters(45, centers=(-3.0, 0.0, 3.0), per=8),
            "dyadic": lambda: rng.integers(0, 64, size=(20, 5)) / 8.0,
            "duplicates": lambda: np.vstack([_clusters(47, centers=(-2.0, 2.0), per=8, dim=3)] * 2),
            "line": lambda: np.outer(np.linspace(-1.0, 1.0, 18), rng.standard_normal(4)),
            "wide": lambda: rng.standard_normal((16, 40)),
        }[cloud]()
        expected, _ = tsne_with_history(pts, perplexity=4.0, iters=300, seed=8)
        assert np.array_equal(tsne(pts, perplexity=4.0, iters=300, seed=8), expected)

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(41)
        pts = rng.standard_normal((10, 3))
        with pytest.raises(ValueError, match="perplexity"):
            tsne(pts, perplexity=3.0)
        with pytest.raises(ValueError, match="at least 3"):
            tsne(pts[:2], perplexity=0.5)
        with pytest.raises(ValueError, match="positive"):
            tsne(pts, perplexity=-1.0)
        with pytest.raises(ValueError, match="iters"):
            tsne(pts, perplexity=2.0, iters=0)

    @pytest.mark.parametrize("perplexity", [math.nan, math.inf])
    def test_rejects_non_finite_perplexity(self, perplexity):
        pts = np.random.default_rng(41).standard_normal((10, 3))
        with pytest.raises(ValueError, match="perplexity must be finite"):
            tsne(pts, perplexity=perplexity)
