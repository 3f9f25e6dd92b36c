import functools
import hashlib
import time
import warnings

import numpy as np
import pytest

import synthetic_oracle as oracle
from colsfm import synthetic
from colsfm.errors import CoincidentCenters, DegenerateGeometry, InvalidSceneSpec, InvalidTracks, ValidationError
from colsfm.geometry import bifocal_from_pair, essential_candidates, image_point, normalized_tensor
from colsfm.nview import certify_collinear_essential, certify_collinear_fundamental
from colsfm.synthetic import MeasurementNoise, Scene, TrackSet, generate, measure

from conftest import exact_nview, geodesic_angle, projections, scene_cameras


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
        assert _line_distance(scene.centers) < 1e-12

    def test_determinism(self):
        a = generate("collinear", 5, 6, seed=9)
        b = generate("collinear", 5, 6, seed=9)
        for sa, sb in zip(scene_cameras(a), scene_cameras(b)):
            assert np.array_equal(sa, sb)
        assert np.array_equal(a.points, b.points)

    def test_mixed_layout_split(self):
        scene = generate("mixed", 12, 8, seed=1, collinear_fraction=0.5)
        assert _line_distance(scene.centers[:6]) < 1e-12
        assert _line_distance(scene.centers) > 0.1

    def test_all_points_in_front(self):
        scene = generate("general", 6, 20, seed=2)
        for X in scene.points:
            for R, t in zip(scene.rotations, scene.centers):
                assert (R.T @ (X - t))[2] > 0

    def test_varied_intrinsics_ranges(self):
        scene = generate("collinear", 5, 6, seed=3, intrinsics_mode="varied")
        for K in scene.intrinsics:
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
    for cam in zip(*scene_cameras(scene)):
        for a in cam:
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
            C = scene.centers
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
        assert _line_distance(scene.centers) < 1e-9

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
            truth = normalized_tensor(bifocal_from_pair(*scene_cameras(scene), i, j))
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
                Rtrue = scene.rotations[i].T @ scene.rotations[j]
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
        assert np.allclose(x, image_point(projections(*scene_cameras(scene))[3], scene.points[2]))

    def test_one_projection_matrix_per_camera(self):
        # the one stacked K R^T [I | -t] gives each camera's own 3x4 matrix
        # bit for bit
        for mode in ("calibrated", "varied"):
            scene = generate("collinear", 5, 9, seed=9, intrinsics_mode=mode)
            Ps = [projections(*cam) for cam in zip(*scene_cameras(scene))]
            want = [[image_point(P, X) for P in Ps] for X in scene.points]
            assert scene.track_set().points.tobytes() == np.array(want).tobytes(), mode

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
        K = varied.intrinsics.copy()
        K[::3] = np.eye(3)
        scene = Scene(K, varied.rotations, varied.centers, varied.points, varied.layout, varied.seed)
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
        # refused when the scene is built, before any measurement could meet
        # the zero direction
        scene = _oracle_scene("general", 10, "calibrated")
        C = scene.centers.copy()
        C[4] = C[7]
        with pytest.raises(CoincidentCenters, match="cameras 4 and 7 share a center"):
            Scene(scene.intrinsics, scene.rotations, C, scene.points, scene.layout, scene.seed)

    def test_nonfinite_direction_rejected(self):
        # a nan centre, and finite centres whose difference overflows (pairs
        # (0, 1) and (0, 2) here, while pair (1, 2) stays finite and
        # non-zero), are refused when the scene is built, without a warning
        scene = _oracle_scene("collinear", 3, "calibrated")
        for C, error, match in (
                ([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]], InvalidSceneSpec,
                 "camera 1: intrinsics, rotation and center must be finite"),
                ([[-1e308, 0.0, 0.0], [1e308, 0.0, 0.0], [1e308, 1.0, 0.0]], ValidationError,
                 "cameras 0 and 1 are too far apart")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error, match=match):
                    Scene(np.eye(3)[None].repeat(3, 0), scene.rotations, C, scene.points,
                          scene.layout, scene.seed)

    def test_point_at_infinity_rejected(self):
        scene = _oracle_scene("general", 3, "calibrated")
        points = scene.points.copy()
        points[2] = scene.centers[1] + scene.rotations[1][:, 0]  # on the principal plane of view 1
        bad = Scene(*scene_cameras(scene), points, scene.layout, scene.seed)
        for run in (lambda: bad.track_set(), lambda: oracle.track_set(bad),
                    lambda: measure(bad), lambda: oracle.measure(bad)):
            with pytest.raises(DegenerateGeometry, match="point projects to infinity"):
                run()

    def test_point_behind_camera_rejected(self, monkeypatch):
        # every camera turned to look away from the points: the first
        # rotation generate builds (the roll about each viewing direction)
        # negated, which negates every camera axis
        real, calls = synthetic.rotation_about, []

        def rotation_about(axis, angle):
            calls.append(axis)
            return -real(axis, angle) if len(calls) == 1 else real(axis, angle)

        monkeypatch.setattr(synthetic, "rotation_about", rotation_about)
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
        assert _line_distance(generate("mixed", 10, 20, collinear_fraction=1.0).centers) < 1e-12

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

    def test_scene_refuses_overflowing_distance(self):
        # a scene built in code meets the check scene files get, when it is
        # built, and without an overflow warning
        scene = generate("general", 3, 8, seed=2)
        C = [[0.0, 0.0, 0.0], [1e200, 0.0, 0.0], [-1e200, 0.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="cameras 0 and 1 are too far apart"):
                Scene(scene.intrinsics, scene.rotations, C, scene.points, scene.layout, scene.seed)

    # inputs built in code end as a ValidationError where they are taken,
    # not in numpy's errors further on
    def test_negative_seed_refused_by_generate_and_measure(self):
        # once numpy's ValueError "expected non-negative integer"
        scene = generate("collinear", 4, 6, seed=0)
        for run in (lambda: generate("collinear", 4, 6, seed=-1), lambda: measure(scene, seed=-1)):
            with pytest.raises(InvalidSceneSpec, match="^seed must be non-negative, got -1$"):
                run()

    def test_non_integer_seed_or_count_refused(self):
        # once a TypeError from numpy's generator or from an array size;
        # numpy integers are integers, and the scene keeps a Python int seed
        scene = generate("collinear", 4, 6, seed=0)
        for run, message in ((lambda: generate("collinear", 4, 6, seed=1.5), "seed must be an integer, got 1.5"),
                             (lambda: measure(scene, seed=1.5), "seed must be an integer, got 1.5"),
                             (lambda: measure(scene, seed=True), "seed must be an integer, got True"),
                             (lambda: generate("collinear", 4, 6.5),
                              "camera and point counts must be integers, got 4 and 6.5"),
                             (lambda: generate("collinear", 4.0, 6),
                              r"camera and point counts must be integers, got 4\.0 and 6")):
            with pytest.raises(InvalidSceneSpec, match=f"^{message}$"):
                run()
        same = generate("collinear", np.int64(4), np.int64(6), seed=np.int64(0))
        assert same.centers.tobytes() == scene.centers.tobytes() and type(same.seed) is int

    @pytest.mark.parametrize("level", [float("nan"), -1.0, "0.5"])
    def test_noise_level_error_is_validation_and_value_error(self, level):
        # once a plain ValueError (a TypeError for a string), not a
        # ValidationError
        with pytest.raises(InvalidSceneSpec, match="^noise level pixel must be finite") as exc:
            MeasurementNoise(pixel=level)
        assert isinstance(exc.value, ValidationError) and isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("fraction", ["0.5", None, [0.5]])
    def test_collinear_fraction_not_a_number_refused(self, fraction):
        # once a TypeError from the range check
        with pytest.raises(InvalidSceneSpec, match="^collinear_fraction must lie in") as exc:
            generate("mixed", 10, 20, collinear_fraction=fraction)
        assert isinstance(exc.value, ValidationError) and isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("points,visible,message", [
        (np.full((2, 3, 3), np.nan), np.ones((2, 3), bool), "^track points must be finite$"),
        (np.ones((2, 3, 2)), np.ones((2, 3), bool), r"^track points \(2, 3, 2\) and mask \(2, 3\) must be"),
        (np.full((2, 3, 3), 2.0), np.ones((2, 3), bool), "^track points must have last coordinate 1$"),
    ], ids=["non-finite", "shape", "not-normalized"])
    def test_track_set_errors_are_validation_and_value_errors(self, points, visible, message):
        # once a plain ValueError, not a ValidationError
        with pytest.raises(InvalidTracks, match=message) as exc:
            TrackSet(points, visible)
        assert isinstance(exc.value, ValidationError) and isinstance(exc.value, ValueError)

    def test_scene_points_checked_when_built(self):
        # once TrackSet's "track points must be finite" or a matmul
        # ValueError, both at measure; the points are a read-only stack
        scene = generate("general", 3, 6, seed=2)
        cameras = scene.intrinsics, scene.rotations, scene.centers
        points = scene.points.copy()
        points[1, 2] = np.inf
        with pytest.raises(ValidationError, match=r"^point 1 must be finite, got \["):
            Scene(*cameras, points, scene.layout, scene.seed)
        with pytest.raises(ValidationError, match=r"^points must be an \(N, 3\) array, got shape \(6, 2\)$"):
            Scene(*cameras, scene.points[:, :2], scene.layout, scene.seed)
        assert scene.points.dtype == float and not scene.points.flags.writeable
        assert Scene(*cameras, [], scene.layout, scene.seed).points.shape == (0, 3)

    def test_scene_seed_checked_when_built(self):
        # once numpy's ValueError at track_set, which draws from seed + 1
        scene = generate("general", 3, 6, seed=2)
        cameras = scene.intrinsics, scene.rotations, scene.centers
        for seed, message in ((-3, "seed must be non-negative, got -3"), (2.5, "seed must be an integer, got 2.5")):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                Scene(*cameras, scene.points, scene.layout, seed)

    def test_near_identity_intrinsics_are_not_calibrated(self):
        # within numpy's default relative tolerance of I, yet the tracks carry K
        scene = generate("general", 5, 8, seed=2)
        K = scene.intrinsics.copy()
        K[3] = np.diag([1 + 5e-6, 1 + 5e-6, 1.0])
        nview, _ = measure(Scene(K, scene.rotations, scene.centers, scene.points, scene.layout, scene.seed))
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
            for field in ("intrinsics", "rotations", "centers"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (seed, field)
            assert made[0].bit_generator.state == ref_rng.bit_generator.state
