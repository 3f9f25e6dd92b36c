import numpy as np
import pytest

from colsfm.geometry import bifocal_from_pair, essential_candidates, geodesic_angle, normalized_tensor, unit
from colsfm.nview import certify_collinear_essential, certify_collinear_fundamental
from colsfm.geometry import Track
from colsfm.synthetic import MeasurementNoise, TrackSet, generate, measure


def _line_distance(centers):
    """Max distance of centers to their best-fit line (independent oracle)."""
    C = centers - centers.mean(axis=0)
    _, _, Vt = np.linalg.svd(C)
    d = Vt[0]
    residual = C - np.outer(C @ d, d)
    return np.max(np.linalg.norm(residual, axis=1))


class TestGenerate:
    def test_collinear_centers_on_a_line(self):
        scene = generate("collinear", 8, 10, seed=0)
        assert _line_distance(scene.centers()) < 1e-12

    def test_determinism(self):
        a = generate("collinear", 5, 6, seed=9)
        b = generate("collinear", 5, 6, seed=9)
        assert np.array_equal(a.centers(), b.centers())
        assert np.array_equal(a.points, b.points)
        for ca, cb in zip(a.cameras, b.cameras):
            assert np.array_equal(ca.rotation, cb.rotation)
            assert np.array_equal(ca.intrinsics, cb.intrinsics)

    def test_mixed_layout_split(self):
        scene = generate("mixed", 12, 8, seed=1, collinear_fraction=0.5)
        assert _line_distance(scene.centers()[:6]) < 1e-12
        assert _line_distance(scene.centers()) > 0.1

    def test_all_points_in_front(self):
        scene = generate("general", 6, 20, seed=2)
        for X in scene.points:
            for cam in scene.cameras:
                assert cam.depth(X) > 0

    def test_varied_intrinsics_ranges(self):
        scene = generate("collinear", 5, 6, seed=3, intrinsics_mode="varied")
        for cam in scene.cameras:
            K = cam.intrinsics
            assert 0.8 <= K[0, 0] <= 1.2
            assert abs(K[0, 2]) <= 0.1 and abs(K[1, 2]) <= 0.1
        assert scene.exact_nview().kind == "fundamental"

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            generate("collinear", 2, 6, seed=0)


class TestMeasure:
    def test_noiseless_blocks_match_up_to_normalization(self):
        scene = generate("collinear", 5, 6, seed=4)
        m, _ = measure(scene, MeasurementNoise(), seed=0)
        for (i, j), t in m.blocks.items():
            truth = normalized_tensor(bifocal_from_pair(scene.cameras[i], scene.cameras[j]).matrix)
            assert np.allclose(t.matrix, truth, atol=1e-12)

    def test_noisy_blocks_remain_rank2(self):
        scene = generate("general", 6, 6, seed=5)
        m, _ = measure(scene, MeasurementNoise(rotation_deg=2.0, translation_dir_deg=2.0), seed=1)
        for t in m.blocks.values():
            s = t.singular_values()
            assert s[2] < 1e-12 * s[0]
            assert abs(s[0] - s[1]) < 1e-9 * s[0]

    def test_rotation_noise_calibration(self):
        # Monte Carlo oracle: mean geodesic error of extracted relative
        # rotations over many edges should sit near the requested level
        sigma = 0.5
        errs = []
        seed = 0
        while len(errs) < 200:
            scene = generate("general", 6, 6, seed=1000 + seed)
            m, _ = measure(scene, MeasurementNoise(rotation_deg=sigma), seed=seed)
            for (i, j), t in m.blocks.items():
                Rtrue = scene.cameras[i].rotation.T @ scene.cameras[j].rotation
                best = np.inf
                for R, _tdir in essential_candidates(t.matrix):
                    best = min(best, geodesic_angle(R, Rtrue))
                errs.append(np.rad2deg(best))
            seed += 1
        mean_err = float(np.mean(errs))
        assert sigma * 0.8 < mean_err < sigma * 1.2

    def test_pixel_noise_applied_to_tracks(self):
        scene = generate("collinear", 4, 30, seed=6)
        _, clean = measure(scene, MeasurementNoise(), seed=0)
        _, noisy = measure(scene, MeasurementNoise(pixel=0.01), seed=0)
        deltas = []
        for p in range(len(scene.points)):
            for i in range(scene.n):
                deltas.append(np.linalg.norm(noisy.observations[p][i][:2] - clean.observations[p][i][:2]))
        assert 0.005 < np.mean(deltas) < 0.02
        for p in range(len(scene.points)):
            for i in range(scene.n):
                assert noisy.observations[p][i][2] == 1.0


class TestOracleSoundness:
    def test_collinear_essential_certificates_pass(self):
        for seed in range(5):
            scene = generate("collinear", int(4 + seed), 6, seed=seed)
            assert certify_collinear_essential(scene.exact_nview(), tol=1e-8).passed

    def test_collinear_fundamental_certificates_pass(self):
        for seed in range(5):
            scene = generate("collinear", int(4 + seed), 6, seed=seed, intrinsics_mode="varied")
            assert certify_collinear_fundamental(scene.exact_nview()).passed


class TestTrackSet:
    def test_pair_and_triple_tracks(self):
        scene = generate("collinear", 4, 7, seed=8)
        ts = scene.track_set()
        pairs = ts.pair_tracks(0, 2)
        triples = ts.triple_tracks(0, 1, 3)
        assert len(pairs) == 7 and len(triples) == 7
        assert pairs[0].view_ids == (0, 2)
        x = triples[2].point(3)
        assert np.allclose(x, scene.cameras[3].project(scene.points[2]))

    def test_observations_checked_once_at_construction(self):
        good = np.array([0.1, 0.2, 1.0])
        with pytest.raises(ValueError, match="finite"):
            TrackSet([{0: good, 1: np.array([np.inf, 0.0, 1.0])}])
        with pytest.raises(ValueError, match="last coordinate"):
            TrackSet([{0: good}, {0: good, 3: np.array([0.0, 0.0, 1.5])}])
        TrackSet([])

    def test_tracks_equal_checked_tracks(self):
        ts = generate("collinear", 5, 6, seed=2).track_set(pixel_noise=1e-3)
        for ids in ((0, 3), (4, 1), (0, 2, 4)):
            drawn = ts.triple_tracks(*ids) if len(ids) == 3 else ts.pair_tracks(*ids)
            assert len(drawn) == 6
            for tr, obs in zip(drawn, ts.observations):
                ref = Track(ids, np.vstack([obs[v] for v in ids]))
                assert tr.view_ids == ref.view_ids
                assert np.array_equal(tr.points, ref.points)
                assert not tr.points.flags.writeable

    def test_partial_observations(self):
        p = np.array([0.0, 0.0, 1.0])
        ts = TrackSet([{0: p, 1: p}, {1: p, 2: p}, {0: p, 1: p, 2: p}])
        assert len(ts.pair_tracks(0, 1)) == 2
        assert len(ts.pair_tracks(1, 2)) == 2
        assert len(ts.triple_tracks(0, 1, 2)) == 1
