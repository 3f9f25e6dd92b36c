import hashlib
import time

import numpy as np
import pytest

from colsfm import synthetic
from colsfm.geometry import bifocal_from_pair, essential_candidates, normalized_tensor, unit
from colsfm.nview import certify_collinear_essential, certify_collinear_fundamental
from colsfm.synthetic import MeasurementNoise, TrackSet, generate, measure

from conftest import exact_nview, geodesic_angle


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
        assert exact_nview(scene).kind == "fundamental"

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            generate("collinear", 2, 6, seed=0)


def _scalar_line_positions(rng, n_line):
    """Reference sampler: redraw the whole layout one candidate at a time
    until every gap is at least 0.05.  Returns the positions and the number
    of candidates drawn."""
    alphas = np.sort(rng.uniform(-2.5, 2.5, size=n_line))
    drawn = 1
    while n_line and np.min(np.diff(alphas), initial=np.inf) < 0.05:
        alphas = np.sort(rng.uniform(-2.5, 2.5, size=n_line))
        drawn += 1
    return alphas, drawn


def _scene_digest(scene):
    h = hashlib.sha256()
    for cam in scene.cameras:
        for a in (cam.intrinsics, cam.rotation, cam.center):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    h.update(np.ascontiguousarray(scene.points, dtype=float).tobytes())
    return h.hexdigest()


class TestLinePositions:
    # seeds per n_line: acceptance falls from ~1/70 at n=20 to ~1/140,000
    # at n=32, and the reference loop pays for every candidate
    @pytest.mark.parametrize("n_line", range(33))
    def test_matches_scalar_reference(self, n_line):
        seeds = range(36) if n_line <= 24 else range(4) if n_line <= 30 else range(1)
        for seed in seeds:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = synthetic._line_positions(rng, n_line)
            want, _ = _scalar_line_positions(ref_rng, n_line)
            assert np.array_equal(got, want), (n_line, seed)
            # the generator ends where the reference left it
            assert np.array_equal(rng.uniform(size=5), ref_rng.uniform(size=5)), (n_line, seed)

    def test_reference_spans_several_full_chunks(self):
        # the comparison above covers acceptance past the doubling chunks
        # (1 + 2 + ... + _MAX_CHUNK candidates) and inside a later full chunk
        _, drawn = _scalar_line_positions(np.random.default_rng(0), 30)
        assert drawn > 3 * synthetic._MAX_CHUNK

    @pytest.mark.parametrize(
        "layout,n_cams,seeds",
        [("collinear", 5, range(12)), ("collinear", 26, range(3)), ("mixed", 18, range(12)),
         ("mixed", 40, range(3)), ("general", 6, range(3))],
    )
    def test_scenes_match_scalar_reference(self, monkeypatch, layout, n_cams, seeds):
        for seed in seeds:
            batched = generate(layout, n_cams, 8, seed=seed, intrinsics_mode="varied")
            with monkeypatch.context() as m:
                m.setattr(synthetic, "_line_positions",
                          lambda rng, n: _scalar_line_positions(rng, n)[0])
                reference = generate(layout, n_cams, 8, seed=seed, intrinsics_mode="varied")
            assert _scene_digest(batched) == _scene_digest(reference), (layout, n_cams, seed)

    def test_gap_rule_is_inclusive(self):
        rows = np.array([[-0.05, 0.0, 0.05], [-0.05, 0.0, 0.0499], [0.0, 1.0, 2.0]])
        assert synthetic._gaps_ok(rows).tolist() == [True, False, True]
        assert synthetic._gaps_ok(np.array([[1.0]])).tolist() == [True]

    @pytest.mark.parametrize("n_cams,seeds", [(40, range(2)), (100, range(5))])
    def test_large_line_finishes(self, n_cams, seeds):
        for seed in seeds:
            started = time.perf_counter()
            scene = generate("collinear", n_cams, 20, seed=seed)
            assert time.perf_counter() - started < 30.0
            C = scene.centers()
            assert _line_distance(C) < 1e-9
            steps = np.diff(C, axis=0)
            assert np.all(steps @ (C[-1] - C[0]) > 0)  # sorted along the line
            assert np.all(np.linalg.norm(steps, axis=1) >= 0.05 - 1e-12)
            assert np.linalg.norm(C[-1] - C[0]) <= 5.0 + 1e-12

    def test_constructive_fallback(self, monkeypatch):
        n_line, budget_rows = 30, 10
        monkeypatch.setattr(synthetic, "_REJECTION_BUDGET", budget_rows * n_line)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            got = synthetic._line_positions(rng, n_line)
            assert got.shape == (n_line,)
            assert np.all(np.diff(got) >= 0.05)
            assert -2.5 <= got[0] and got[-1] <= 2.5
            # every budgeted candidate was drawn and rejected, then one
            # constructive layout: sorted uniforms on the shortened line,
            # the k-th shifted by k gaps
            ref = np.random.default_rng(seed)
            candidates = np.sort(ref.uniform(-2.5, 2.5, size=(budget_rows, n_line)), axis=1)
            assert np.all(np.diff(candidates, axis=1).min(axis=1) < 0.05)
            shift = 0.05 * np.arange(n_line)
            want = np.sort(ref.uniform(-2.5, 2.5 - shift[-1], size=n_line)) + shift
            assert np.array_equal(got, want)
            assert np.array_equal(rng.uniform(size=5), ref.uniform(size=5))

    def test_fallback_scene_is_valid(self, monkeypatch):
        monkeypatch.setattr(synthetic, "_REJECTION_BUDGET", 1)
        scene = generate("collinear", 30, 20, seed=4)
        assert _line_distance(scene.centers()) < 1e-9

    def test_no_room_on_the_line_rejected(self):
        with pytest.raises(ValueError, match="do not fit"):
            generate("collinear", 101, 20, seed=0)
        with pytest.raises(ValueError, match="do not fit"):
            synthetic._line_positions(np.random.default_rng(0), 150)

    def test_no_line_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert synthetic._line_positions(rng, 0).shape == (0,)
        assert rng.bit_generator.state == before

    # sha256 of camera (K, R, center) and point bytes, recorded from the
    # scalar sampler
    @pytest.mark.parametrize(
        "args,kwargs,digest",
        [
            (("collinear", 30, 20), {"seed": 0},
             "baca968b0aea3c2d7906298045397e7d990fec2bfa285b230dd84a6156a3c9e1"),
            (("mixed", 18, 20), {"seed": 0},
             "1cc3270d21ea578460938c3421a9749f9cd087c8de33aea0663fd97662a3801c"),
            (("collinear", 12, 20), {"seed": 3, "intrinsics_mode": "varied"},
             "5a1ddc9eb36b93c43b971dab05e97984ce88542af99691af20a4d1907569138d"),
            (("mixed", 10, 20), {"seed": 5, "intrinsics_mode": "varied"},
             "354d7197586108bdb0b47d34b8f9f2ba083b55fc2aeba05dbed26bfdd35b3eb3"),
        ],
    )
    def test_golden_scene(self, args, kwargs, digest):
        assert _scene_digest(generate(*args, **kwargs)) == digest


class TestMeasure:
    def test_noiseless_blocks_match_up_to_normalization(self):
        scene = generate("collinear", 5, 6, seed=4)
        m, _ = measure(scene, MeasurementNoise(), seed=0)
        for (i, j), t in zip(m.pairs.tolist(), m.tensors):
            truth = normalized_tensor(bifocal_from_pair(scene.cameras[i], scene.cameras[j]))
            assert np.allclose(t, truth, atol=1e-12)

    def test_noisy_blocks_remain_rank2(self):
        scene = generate("general", 6, 6, seed=5)
        m, _ = measure(scene, MeasurementNoise(rotation_deg=2.0, translation_dir_deg=2.0), seed=1)
        for s in np.linalg.svd(m.tensors, compute_uv=False):
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
            for (i, j), t in zip(m.pairs.tolist(), m.tensors):
                Rtrue = scene.cameras[i].rotation.T @ scene.cameras[j].rotation
                best = np.inf
                for R in essential_candidates(t)[:2]:  # the two rotation branches
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
                deltas.append(np.linalg.norm(noisy.points[p, i, :2] - clean.points[p, i, :2]))
        assert 0.005 < np.mean(deltas) < 0.02
        for p in range(len(scene.points)):
            for i in range(scene.n):
                assert noisy.points[p, i, 2] == 1.0


class TestOracleSoundness:
    def test_collinear_essential_certificates_pass(self):
        for seed in range(5):
            scene = generate("collinear", int(4 + seed), 6, seed=seed)
            assert certify_collinear_essential(exact_nview(scene), tol=1e-8).passed

    def test_collinear_fundamental_certificates_pass(self):
        for seed in range(5):
            scene = generate("collinear", int(4 + seed), 6, seed=seed, intrinsics_mode="varied")
            assert certify_collinear_fundamental(exact_nview(scene)).passed


class TestTrackSet:
    def test_pair_and_triple_tracks(self):
        scene = generate("collinear", 4, 7, seed=8)
        ts = scene.track_set()
        pairs = ts.tracks((0, 2))
        triples = ts.tracks((0, 1, 3))
        assert len(pairs) == 7 and len(triples) == 7
        assert pairs.shape == (7, 2, 3)
        x = triples[2, 2]  # view 3, the third column
        assert np.allclose(x, scene.cameras[3].project(scene.points[2]))

    def test_one_projection_matrix_per_camera(self, monkeypatch):
        scene = generate("collinear", 5, 9, seed=9)
        want = [[c.project(X) for c in scene.cameras] for X in scene.points]
        built = []
        real = synthetic.CameraModel.projection_matrix

        def projection_matrix(cam):
            built.append(cam)
            return real(cam)

        monkeypatch.setattr(synthetic.CameraModel, "projection_matrix", projection_matrix)
        ts = scene.track_set()
        assert len(built) == scene.n
        assert np.array_equal(ts.points, np.array(want))

    def test_observations_checked_once_at_construction(self):
        good = [0.1, 0.2, 1.0]
        with pytest.raises(ValueError, match="finite"):
            TrackSet([[good, [np.inf, 0.0, 1.0]]], [[True, True]])
        with pytest.raises(ValueError, match="last coordinate"):
            TrackSet([[good] * 4, [good] * 3 + [[0.0, 0.0, 1.5]]],
                     [[True, False, False, False], [True, False, False, True]])
        with pytest.raises(ValueError, match="mask"):
            TrackSet([[good, good]], [[True]])
        TrackSet(np.zeros((0, 3, 3)), np.zeros((0, 3), dtype=bool))
        # unobserved entries are not image points and are not checked
        TrackSet([[good, [np.nan, 0.0, 0.0]]], [[True, False]])

    def test_tracks_equal_checked_tracks(self):
        ts = generate("collinear", 5, 6, seed=2).track_set(pixel_noise=1e-3)
        assert not ts.points.flags.writeable and not ts.visible.flags.writeable
        for ids in ((0, 3), (4, 1), (0, 2, 4)):
            drawn = ts.tracks(ids)
            assert drawn.shape == (6, len(ids), 3)
            assert np.array_equal(drawn, ts.points[:, list(ids)])

    def test_partial_observations(self):
        p = [0.0, 0.0, 1.0]
        ts = TrackSet([[p] * 3] * 3, [[True, True, False], [False, True, True], [True, True, True]])
        assert len(ts.tracks((0, 1))) == 2
        assert len(ts.tracks((1, 2))) == 2
        assert len(ts.tracks((0, 1, 2))) == 1
