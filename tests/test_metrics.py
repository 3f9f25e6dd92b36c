import geometry_oracle as oracle
import numpy as np
import pytest

from colsfm.errors import TooFew
from colsfm.metrics import align_similarity, mean_reprojection_error
from colsfm.synthetic import generate
from conftest import projections, random_rotation, scene_cameras, seen_in


class TestAlignSimilarity:
    def test_identity(self, rng):
        pts = rng.normal(size=(10, 3))
        residuals = align_similarity(pts, pts)
        assert residuals.shape == (10,)
        assert np.max(residuals) < 1e-12

    def test_exact_similarity_recovered(self, rng):
        # a scaled and shifted copy aligns to rounding-level residuals; a
        # sheared one, which no similarity maps back, does not
        gt = rng.normal(size=(8, 3))
        est = 2.0 * gt + np.array([1.0, -2.0, 0.5])
        assert np.max(align_similarity(est, gt)) < 1e-12
        sheared = est @ np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.max(align_similarity(sheared, gt)) > 1e-2

    def test_random_similarity_recovered(self, rng):
        gt = rng.normal(size=(12, 3))
        R = random_rotation(rng)
        est = (gt @ R.T) * 0.7 + rng.normal(size=3)
        assert np.max(align_similarity(est, gt)) < 1e-10

    def test_collinear_set_aligned(self, rng):
        # the rotation about the line is free, and it moves no center
        d = rng.normal(size=3)
        gt = np.outer(np.linspace(0, 5, 6), d)
        R = random_rotation(rng)
        est = (gt @ R.T) * 1.4 + rng.normal(size=3)
        assert np.max(align_similarity(est, gt)) < 1e-9

    def test_too_few(self, rng):
        with pytest.raises(TooFew):
            align_similarity(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))

    def test_position_error_invariant_to_gauge(self, rng):
        scene = generate("general", 6, 8, seed=40)
        gt = scene.centers
        est = gt + 1e-3 * rng.normal(size=gt.shape)
        base = align_similarity(est, gt)
        R = random_rotation(rng)
        moved = (est @ R.T) * 3.1 + rng.normal(size=3)
        again = align_similarity(moved, gt)
        assert np.allclose(base, again, atol=1e-9)


class TestReprojectionError:
    def test_noiseless_oracle(self):
        scene = generate("general", 5, 10, seed=41)
        cams = list(projections(*scene_cameras(scene)))
        ts = scene.track_set()
        assert mean_reprojection_error(cams, *seen_in(ts, (0, 2, 4), (1, 3))) < 1e-8

    def test_noise_level_reflected(self):
        # Monte Carlo: observations with sigma noise give mean error ~ sigma
        scene = generate("general", 6, 60, seed=42)
        cams = list(projections(*scene_cameras(scene)))
        sigma = 1e-3
        ts = scene.track_set(pixel_noise=sigma)
        triples = [(i, i + 1, i + 2) for i in range(scene.n - 2)]
        err = mean_reprojection_error(cams, *seen_in(ts, *triples))
        assert 0.3 * sigma < err < 2.0 * sigma

    def test_skips_unreconstructed_views(self):
        scene = generate("general", 4, 8, seed=43)
        cams = list(projections(*scene_cameras(scene)))
        cams[3] = None
        ts = scene.track_set()
        assert mean_reprojection_error(cams, *seen_in(ts, (0, 1, 3))) < 1e-8


class TestReprojectionOracle:
    """The stacked reprojection error equals the per-track reference of
    tests/geometry_oracle.py bit for bit."""

    @staticmethod
    def _cameras(seed):
        scene = generate("general", 6, 30, seed=seed)
        cams = list(projections(*scene_cameras(scene)))
        cams[1] = cams[0].copy()  # views 0 and 1 alone triangulate ambiguously
        cams[4] = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0, 0]])  # reprojects at infinity
        cams[5] = None
        return scene, cams

    @pytest.mark.parametrize("seed", range(8))
    def test_partial_visibility(self, seed):
        scene, cams = self._cameras(seed)
        rng = np.random.default_rng(seed)
        ts = scene.track_set(pixel_noise=1e-3 * (seed % 3))
        points = ts.points.copy()
        points[:, 1] = points[:, 0]
        visible = rng.random(ts.visible.shape) < rng.uniform(0.2, 0.9)
        visible[:3] = [[True, True, False, False, False, True]] * 3  # ambiguous tracks
        visible[3] = [False, False, True, False, True, False]  # one usable view
        visible[4] = [True] * 6  # every view count from 2 to 5 occurs
        got = mean_reprojection_error(cams, points, visible)
        want = oracle.mean_reprojection_error(cams, points, visible)
        assert got == want and np.isfinite(got)
        for m in (2, 4, 6):  # tracks over the first m cameras only
            got = mean_reprojection_error(cams, points[:, :m], visible[:, :m])
            want = oracle.mean_reprojection_error(cams, points[:, :m], visible[:, :m])
            assert got == want or (np.isnan(got) and np.isnan(want))

    def test_nothing_usable_is_nan(self):
        scene, cams = self._cameras(0)
        ts = scene.track_set()
        points = ts.points.copy()
        points[:, 1] = points[:, 0]
        visible = np.zeros(ts.visible.shape, dtype=bool)
        assert np.isnan(mean_reprojection_error(cams, points, visible))
        visible[:, [0, 1, 5]] = True  # ambiguous or unreconstructed everywhere
        assert np.isnan(mean_reprojection_error(cams, points, visible))
        assert np.isnan(oracle.mean_reprojection_error(cams, points, visible))
        assert np.isnan(mean_reprojection_error(cams, points[:0], visible[:0]))
