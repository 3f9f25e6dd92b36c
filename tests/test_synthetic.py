import functools
import hashlib
import time

import numpy as np
import pytest

import synthetic_oracle as oracle
from colsfm import synthetic
from colsfm.errors import DegenerateGeometry, InvalidSceneSpec, ValidationError
from colsfm.geometry import CameraModel, bifocal_from_pair, essential_candidates, normalized_tensor, unit
from colsfm.nview import certify_collinear_essential, certify_collinear_fundamental
from colsfm.synthetic import MeasurementNoise, Scene, TrackSet, generate, measure

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


@functools.lru_cache(maxsize=None)
def _oracle_scene(layout, n, mode):
    return generate(layout, n, 20, seed=n, intrinsics_mode=mode)


def _measure_keeping_generator(monkeypatch, scene, noise, seed):
    """measure's output and the generator it drew from."""
    made = []
    real = np.random.default_rng

    def default_rng(*args):
        made.append(real(*args))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", default_rng)
        out = measure(scene, noise, seed=seed)
    assert len(made) == 1
    return out, made[0]


def _assert_same_measurements(got, want):
    (nview, tracks), (ref_nview, ref_tracks) = got, want
    assert nview.kind == ref_nview.kind and nview.n == ref_nview.n
    assert np.array_equal(nview.pairs, ref_nview.pairs)
    assert np.array_equal(nview.tensors, ref_nview.tensors)
    assert nview.tensors.tobytes() == ref_nview.tensors.tobytes()  # signed zeros too
    assert tracks.points.tobytes() == ref_tracks.points.tobytes()
    assert np.array_equal(tracks.visible, ref_tracks.visible)


ARMS = {"none": MeasurementNoise(), "rotation": MeasurementNoise(rotation_deg=0.5),
        "translation": MeasurementNoise(translation_dir_deg=0.7),
        "pixel": MeasurementNoise(pixel=1e-3), "all": MeasurementNoise(2.0, 3.0, 1e-2)}


class TestStackedMeasureOracle:
    """The stacked `measure` and `track_set` equal the per-pair and
    per-point reference of tests/synthetic_oracle.py bit for bit."""

    @pytest.mark.parametrize("mode", ["calibrated", "varied"])
    @pytest.mark.parametrize("n", [3, 10, 40])
    @pytest.mark.parametrize("layout", ["collinear", "general", "mixed"])
    @pytest.mark.parametrize("arm", list(ARMS))
    def test_matches_oracle(self, monkeypatch, layout, n, mode, arm):
        scene = _oracle_scene(layout, n, mode)
        got, rng = _measure_keeping_generator(monkeypatch, scene, ARMS[arm], seed=n + 1)
        ref_rng = np.random.default_rng(n + 1)
        _assert_same_measurements(got, oracle.measure(scene, ARMS[arm], rng=ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_part_calibrated_scene(self, monkeypatch):
        # pairs of two calibrated cameras keep E unmapped, the others are
        # mapped by the inverse intrinsics
        varied = _oracle_scene("mixed", 10, "varied")
        cams = [CameraModel(np.eye(3), c.rotation, c.center) if k % 3 == 0 else c
                for k, c in enumerate(varied.cameras)]
        scene = Scene(cams, varied.points, varied.layout, varied.seed)
        for arm, noise in ARMS.items():
            got, rng = _measure_keeping_generator(monkeypatch, scene, noise, seed=5)
            ref_rng = np.random.default_rng(5)
            _assert_same_measurements(got, oracle.measure(scene, noise, rng=ref_rng))
            assert got[0].kind == "fundamental"
            assert rng.bit_generator.state == ref_rng.bit_generator.state, arm

    @pytest.mark.parametrize("pixel", [0.0, 1e-3])
    def test_track_set_default_generator(self, pixel):
        scene = _oracle_scene("general", 10, "varied")
        got = scene.track_set(pixel_noise=pixel)
        assert got.points.tobytes() == oracle.track_set(scene, pixel_noise=pixel).points.tobytes()

    def test_coincident_centres_rejected(self):
        scene = _oracle_scene("general", 10, "calibrated")
        cams = list(scene.cameras)
        cams[4] = CameraModel(np.eye(3), cams[4].rotation, cams[7].center)
        bad = Scene(cams, scene.points, scene.layout, scene.seed)
        for noise in ARMS.values():
            for run in (measure, oracle.measure):
                with pytest.raises(ValueError, match="cannot normalize zero vector"):
                    run(bad, noise, seed=0)

    def test_nonfinite_direction_rejected(self):
        # a camera refuses a nan centre, but finite centres whose difference
        # overflows still give a nan direction: pairs (0, 1) and (0, 2) here,
        # while pair (1, 2) stays finite and non-zero
        scene = _oracle_scene("collinear", 3, "calibrated")
        cams = list(scene.cameras)
        with pytest.raises(ValueError, match="must be finite"):
            CameraModel(np.eye(3), cams[1].rotation, [np.nan, 0.0, 0.0])
        for c, t in enumerate(([-1e308, 0.0, 0.0], [1e308, 0.0, 0.0], [1e308, 1.0, 0.0])):
            cams[c] = CameraModel(np.eye(3), cams[c].rotation, t)
        bad = Scene(cams, scene.points, scene.layout, scene.seed)
        for noise in ARMS.values():
            for run in (measure, oracle.measure):
                with pytest.raises(ValueError, match="skew: vector must be finite"), \
                        np.errstate(over="ignore", invalid="ignore"):
                    run(bad, noise, seed=0)

    def test_point_at_infinity_rejected(self):
        scene = _oracle_scene("general", 3, "calibrated")
        cam = scene.cameras[1]
        points = scene.points.copy()
        points[2] = cam.center + cam.rotation[:, 0]  # on the principal plane of view 1
        bad = Scene(scene.cameras, points, scene.layout, scene.seed)
        for run in (lambda: bad.track_set(), lambda: oracle.track_set(bad),
                    lambda: measure(bad), lambda: oracle.measure(bad)):
            with pytest.raises(DegenerateGeometry, match="point projects to infinity"):
                run()

    def test_point_behind_camera_rejected(self, monkeypatch):
        # every camera turned to look away from the points (the x and z axes
        # negated, a proper rotation)
        real = synthetic.CameraModel
        monkeypatch.setattr(synthetic, "CameraModel",
                            lambda K, R, t: real(K, R * [-1.0, 1.0, -1.0], t))
        with pytest.raises(RuntimeError, match="point behind a camera"):
            generate("general", 5, 8, seed=0)

    def test_no_per_pair_builder_left(self):
        assert not hasattr(synthetic, "_perturbed_block")


class TestBadInputs:
    @pytest.mark.parametrize("fraction", [2.0, -0.5, 1.0000001, float("nan")])
    def test_collinear_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="collinear_fraction"):
            generate("mixed", 10, 20, collinear_fraction=fraction)

    def test_collinear_fraction_ends(self):
        assert generate("mixed", 10, 20, collinear_fraction=0.0).n == 10
        assert _line_distance(generate("mixed", 10, 20, collinear_fraction=1.0).centers()) < 1e-12

    @pytest.mark.parametrize("field", ["rotation_deg", "translation_dir_deg", "pixel"])
    @pytest.mark.parametrize("level", [-2.0, float("nan"), float("inf"), -1e-300])
    def test_noise_levels_finite_and_nonnegative(self, field, level):
        with pytest.raises(ValueError, match=f"noise level {field}"):
            MeasurementNoise(**{field: level})

    def test_zero_noise_levels_accepted(self):
        assert MeasurementNoise(0.0, 0, 0.0) == MeasurementNoise()

    @pytest.mark.parametrize("args,kwargs,message", [
        (("line", 5, 8), {}, "unknown layout 'line'"),
        (("general", 2, 8), {}, "need at least 3 cameras"),
        (("general", 5, 3), {}, "need at least 4 points"),
        (("mixed", 5, 8), {"collinear_fraction": 1.5}, "collinear_fraction"),
        (("collinear", 101, 8), {}, "101 cameras do not fit on the line .* at most 100"),
        (("mixed", 202, 8), {}, "101 cameras do not fit"),
        (("general", 5, 8), {"intrinsics_mode": "Varied"}, "unknown intrinsics_mode 'Varied'"),
    ])
    def test_request_errors_are_validation_errors(self, args, kwargs, message):
        # one class, caught as a ValidationError (CLI exit 2) and still a ValueError
        with pytest.raises(InvalidSceneSpec, match=message) as exc:
            generate(*args, **kwargs)
        assert isinstance(exc.value, ValidationError) and isinstance(exc.value, ValueError)

    def test_near_identity_intrinsics_are_not_calibrated(self):
        # within numpy's default relative tolerance of I, yet the tracks carry K
        scene = generate("general", 5, 8, seed=2)
        K = np.diag([1 + 5e-6, 1 + 5e-6, 1.0])
        cams = [CameraModel(K, c.rotation, c.center) if k == 3 else c for k, c in enumerate(scene.cameras)]
        nview, _ = measure(Scene(cams, scene.points, scene.layout, scene.seed))
        assert nview.kind == "fundamental"
        assert measure(scene)[0].kind == "essential"


class TestStackedGenerateOracle:
    """The stacked poses of `generate` equal the per-camera construction of
    tests/synthetic_oracle.py bit for bit, and the draws run in its order."""

    @pytest.mark.parametrize("mode", ["calibrated", "varied"])
    @pytest.mark.parametrize("n", [3, 7, 30])
    @pytest.mark.parametrize("layout", ["collinear", "general", "mixed"])
    def test_matches_oracle(self, monkeypatch, layout, n, mode):
        for seed in range(4):
            made = []
            real = np.random.default_rng
            monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
            got = generate(layout, n, 12, seed=seed, intrinsics_mode=mode)
            monkeypatch.undo()
            ref_rng = np.random.default_rng(seed)
            monkeypatch.setattr(np.random, "default_rng", lambda s: ref_rng)
            want = oracle.generate(layout, n, 12, seed=seed, intrinsics_mode=mode)
            monkeypatch.undo()
            assert got.points.tobytes() == want.points.tobytes()
            for a, b in zip(got.cameras, want.cameras, strict=True):
                for field in ("intrinsics", "rotation", "center"):
                    assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), (seed, field)
            assert made[0].bit_generator.state == ref_rng.bit_generator.state
