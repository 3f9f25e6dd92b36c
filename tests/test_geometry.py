import calibrated_oracle as oracle
import numpy as np
import pytest

from colsfm.errors import (
    AmbiguousCheirality,
    CoincidentCenters,
    DegenerateGeometry,
    DegenerateLine,
    RankDeficient,
)
from colsfm.geometry import (
    CameraModel,
    bifocal_from_pair,
    epipole_table,
    epipoles,
    essential_candidates,
    fundamental_from_projections,
    nearest_rotation,
    cheirality_votes,
    rotation_about,
    skew,
    symmetric_epipolar_distance,
    triangulate_dlt,
    unit,
)
from colsfm.recovery import pair_poses
from conftest import geodesic_angle, random_rotation, unit_bifocal


class TestSkew:
    def test_zero(self):
        assert np.array_equal(skew([0, 0, 0]), np.zeros((3, 3)))

    def test_canonical_basis(self):
        expected = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        assert np.array_equal(skew([1, 0, 0]), expected)

    def test_matches_cross_product(self, rng):
        for _ in range(50):
            v, w = rng.normal(size=3), rng.normal(size=3)
            assert np.allclose(skew(v) @ w, np.cross(v, w))
            assert np.allclose(skew(v) @ v, 0)

    def test_antisymmetric_and_linear(self, rng):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert np.array_equal(skew(a), -skew(a).T)
        assert np.array_equal(skew(a + b), skew(a) + skew(b))


def _random_camera(rng, calibrated=True, center=None):
    t = rng.normal(size=3) if center is None else np.asarray(center, dtype=float)
    R = random_rotation(rng)
    if calibrated:
        K = np.eye(3)
    else:
        f = rng.uniform(0.8, 1.2)
        K = np.array([[f, 0, rng.uniform(-0.1, 0.1)], [0, f, rng.uniform(-0.1, 0.1)], [0, 0, 1.0]])
    return CameraModel(K, R, t)


class TestCameraModel:
    def test_rejects_non_rotation(self, rng):
        with pytest.raises(ValueError):
            CameraModel(np.eye(3), np.eye(3) * 2, np.zeros(3))

    def test_rejects_bad_intrinsics(self):
        K = np.array([[1.0, 0, 0], [0.5, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            CameraModel(K, np.eye(3), np.zeros(3))

    def test_projection_matrix_form(self, rng):
        cam = _random_camera(rng, calibrated=False)
        P = cam.projection_matrix()
        V = cam.v_matrix()
        expected = np.linalg.inv(V).T @ np.hstack([np.eye(3), -cam.center.reshape(3, 1)])
        assert np.allclose(P, expected, atol=1e-12)


class TestBifocalFromPair:
    def test_identity_rotations_gives_skew(self):
        ci = CameraModel(np.eye(3), np.eye(3), np.zeros(3))
        cj = CameraModel(np.eye(3), np.eye(3), np.array([1.0, 0, 0]))
        t = bifocal_from_pair(ci, cj)
        assert np.allclose(t, skew([-1.0, 0, 0]))

    def test_identical_cameras_rejected(self, rng):
        cam = _random_camera(rng)
        with pytest.raises(CoincidentCenters):
            bifocal_from_pair(cam, cam)

    def test_essential_singular_values_equal(self, rng):
        # oracle: SVD of the generated tensor
        for _ in range(20):
            ci, cj = _random_camera(rng), _random_camera(rng)
            s = np.linalg.svd(bifocal_from_pair(ci, cj), compute_uv=False)
            assert s[0] == pytest.approx(s[1], rel=1e-9)
            assert s[2] < 1e-9 * s[0]

    def test_transpose_symmetry(self, rng):
        ci, cj = _random_camera(rng, calibrated=False), _random_camera(rng, calibrated=False)
        assert np.allclose(
            bifocal_from_pair(ci, cj), bifocal_from_pair(cj, ci).T, atol=1e-12
        )

    def test_rank2_and_epipole_over_1000_random_pairs(self, rng):
        # invariant quantified over 1000 pairs at relative tolerance 1e-9:
        # rank exactly 2 and F e_right = 0 with e_right the image of the
        # other center
        for _ in range(1000):
            ci = _random_camera(rng, calibrated=bool(rng.integers(2)))
            cj = _random_camera(rng, calibrated=ci.is_calibrated)
            t = bifocal_from_pair(ci, cj)
            s = np.linalg.svd(t, compute_uv=False)
            assert s[1] > 1e-9 * s[0] and s[2] <= 1e-9 * s[0]
            e = epipoles(t)[0, 1]
            assert np.linalg.norm(t @ e) < 1e-9 * np.linalg.norm(t)
            img = unit(cj.projection_matrix() @ np.append(ci.center, 1.0))
            assert min(np.linalg.norm(e - img), np.linalg.norm(e + img)) < 1e-9

    def test_epipolar_constraint_on_synthetic_points(self, rng):
        for _ in range(20):
            ci, cj = _random_camera(rng, False), _random_camera(rng, False)
            F = unit_bifocal(ci, cj)
            X = rng.normal(size=3) + np.array([0, 0, 6.0])
            xi, xj = ci.project(X), cj.project(X)
            assert abs(xi @ F @ xj) < 1e-10


class TestEpipole:
    def test_skew_null_space(self):
        F = skew([0, 0, 1.0])
        assert np.allclose(epipoles(F)[0, 1], [0, 0, 1])

    def test_transpose_swaps_sides(self, rng):
        ci, cj = _random_camera(rng), _random_camera(rng)
        F = bifocal_from_pair(ci, cj)
        assert np.allclose(epipoles(F)[0, 0], epipoles(F.T)[0, 1], atol=1e-12)

    def test_right_epipole_is_image_of_other_center(self, rng):
        # oracle: project center i through camera j
        for _ in range(30):
            ci, cj = _random_camera(rng, False), _random_camera(rng, False)
            F = bifocal_from_pair(ci, cj)
            e = epipoles(F)[0, 1]
            img = cj.projection_matrix() @ np.append(ci.center, 1.0)
            img = img / np.linalg.norm(img)
            assert min(np.linalg.norm(e - img), np.linalg.norm(e + img)) < 1e-9

    def test_rank_deficient_rejected(self):
        M = np.outer([1.0, 0, 0], [0, 1.0, 0])
        with pytest.raises(RankDeficient):
            epipoles(M)[0, 1]

    def test_table_zeroes_rank_deficient_rows_only(self, rng):
        # the table marks a tensor without unique epipoles by zero rows and
        # leaves every other row as `epipoles` computes it
        F = np.array([unit_bifocal(_random_camera(rng), _random_camera(rng))
                      for _ in range(4)])
        F[2] = np.outer([1.0, 0, 0], [0, 1.0, 0])
        table = epipole_table(F)
        assert np.array_equal(table[2], np.zeros((2, 3)))
        for k in (0, 1, 3):
            assert np.array_equal(table[k], epipoles(F[k])[0])


class TestSymmetricEpipolarDistance:
    def test_exact_correspondence_zero(self, rng):
        ci, cj = _random_camera(rng), _random_camera(rng)
        F = unit_bifocal(ci, cj)
        X = rng.normal(size=3) + np.array([0, 0, 6.0])
        assert symmetric_epipolar_distance(F, ci.project(X), cj.project(X)) < 1e-18

    def test_quadratic_growth_normal_to_line(self, rng):
        # finite-difference slope: distance ~ delta^2 along the line normal
        ci, cj = _random_camera(rng), _random_camera(rng)
        F = unit_bifocal(ci, cj)
        X = rng.normal(size=3) + np.array([0, 0, 6.0])
        xi, xj = ci.project(X), cj.project(X)
        line = F @ xj
        normal = unit(np.array([line[0], line[1], 0.0]))
        d1 = symmetric_epipolar_distance(F, xi + 1e-4 * normal, xj)
        d2 = symmetric_epipolar_distance(F, xi + 2e-4 * normal, xj)
        assert d2 / d1 == pytest.approx(4.0, rel=1e-2)

    def test_swap_matches_transpose(self, rng):
        ci, cj = _random_camera(rng), _random_camera(rng)
        F = unit_bifocal(ci, cj)
        xi = np.array([0.1, -0.3, 1.0])
        xj = np.array([0.4, 0.2, 1.0])
        assert symmetric_epipolar_distance(F, xi, xj) == pytest.approx(
            symmetric_epipolar_distance(F.T, xj, xi), rel=1e-12
        )

    def test_degenerate_line(self):
        F = np.diag([0.0, 0.0, 1.0])  # F xj = (0,0,1): no image-plane part
        with pytest.raises(DegenerateLine):
            symmetric_epipolar_distance(F, np.array([0, 0, 1.0]), np.array([0, 0, 1.0]))

    def test_stack_matches_scalar_formula(self, rng):
        # the one-pair formula the stacked version replaced, bit for bit
        def scalar(F, xi, xj):
            li, lj = F @ xj, F.T @ xi
            r = float(xi @ F @ xj)
            return r * r * (1.0 / (li[0] ** 2 + li[1] ** 2) + 1.0 / (lj[0] ** 2 + lj[1] ** 2))

        for scale in (1e-3, 1.0, 1e3):
            F = scale * rng.normal(size=(3, 3))
            xi = np.c_[300.0 * rng.normal(size=(200, 2)), np.ones(200)]
            xj = np.c_[300.0 * rng.normal(size=(200, 2)), np.ones(200)]
            want = np.array([scalar(F, a, b) for a, b in zip(xi, xj)])
            assert np.array_equal(symmetric_epipolar_distance(F, xi, xj), want)
            assert all(symmetric_epipolar_distance(F, a, b) == w for a, b, w in zip(xi, xj, want))


class TestTriangulateDlt:
    def test_symmetric_two_camera_origin(self):
        c1 = CameraModel(np.eye(3), rotation_about([0, 1, 0], np.deg2rad(30)), np.array([-1.0, 0, -5.0]))
        c2 = CameraModel(np.eye(3), rotation_about([0, 1, 0], np.deg2rad(-30)), np.array([1.0, 0, -5.0]))
        tr = np.vstack([c1.project([0, 0, 0]), c2.project([0, 0, 0])])
        X = triangulate_dlt([c1, c2], tr)
        assert np.allclose(X[:3] / X[3], [0, 0, 0], atol=1e-10)

    def test_noiseless_three_view_reprojection(self, collinear_scene):
        cams = collinear_scene.cameras[:3]
        X = collinear_scene.points[0]
        tr = np.vstack([c.project(X) for c in cams])
        Xh = triangulate_dlt(cams, tr)
        for c, x in zip(cams, tr):
            reproj = c.projection_matrix() @ Xh
            assert np.linalg.norm(reproj / reproj[2] - x) < 1e-10

    def test_parallel_identical_rays(self, rng):
        cam = _random_camera(rng)
        x = cam.project(cam.center + cam.rotation @ np.array([0.1, 0.2, 3.0]))
        tr = np.vstack([x, x])
        with pytest.raises(DegenerateGeometry):
            triangulate_dlt([cam, cam], tr)


def _pair_points(ci, cj, points):
    return np.array([[ci.project(X), cj.project(X)] for X in points])


def _picked(E, points):
    """The cheirality-picked (R, t) of one pair, and its tie message or None."""
    poses = pair_poses([np.asarray(E)], [points])
    assert poses.sign_known[0]
    assert np.array_equal(poses.rotations[0, 0], poses.rotations[0, 1])
    return poses.rotations[0, 0], poses.t_dirs[0], poses.errors[0]


class TestRotationFromEssential:
    """The relative pose a pair's tracks pick among its four candidates."""

    def test_recovers_relative_rotation(self, rng):
        # oracle: R_i^T R_j and R_i^T(t_i - t_j) from the generating cameras
        for trial in range(10):
            ci, cj = _random_camera(rng), _random_camera(rng)
            mid = (ci.center + cj.center) / 2 + unit(np.cross(cj.center - ci.center, rng.normal(size=3))) * 4
            pts = mid + rng.uniform(-1, 1, size=(6, 3))
            if any(c.depth(X) <= 0 for c in (ci, cj) for X in pts):
                continue
            E = unit_bifocal(ci, cj)
            R, t, error = _picked(E, _pair_points(ci, cj, pts))
            assert error is None
            assert geodesic_angle(R, ci.rotation.T @ cj.rotation) < 1e-8
            assert np.allclose(t, unit(ci.rotation.T @ (ci.center - cj.center)), atol=1e-8)

    def test_pure_translation_identity_rotation(self, rng):
        R = random_rotation(rng)
        ci = CameraModel(np.eye(3), R, np.zeros(3))
        cj = CameraModel(np.eye(3), R, np.array([1.0, 0.2, 0.0]))
        look = R @ np.array([0, 0, 5.0])
        pts = look + rng.uniform(-1, 1, size=(5, 3))
        E = unit_bifocal(ci, cj)
        Rrel, _, _ = _picked(E, _pair_points(ci, cj, pts))
        assert geodesic_angle(Rrel, np.eye(3)) < 1e-8

    def test_single_track_unique_winner(self, rng):
        # a single generic track already selects the true decomposition
        ci = CameraModel(np.eye(3), np.eye(3), np.zeros(3))
        cj = CameraModel(np.eye(3), rotation_about([0, 1, 0], 0.2), np.array([1.0, 0, 0]))
        X = np.array([0.3, 0.1, 5.0])
        E = unit_bifocal(ci, cj)
        R, t, error = _picked(E, _pair_points(ci, cj, [X]))
        assert error is None
        assert geodesic_angle(R, ci.rotation.T @ cj.rotation) < 1e-8

    def test_ambiguous_when_votes_tie(self):
        # point on the baseline: triangulation degenerate in every candidate,
        # so all four vote counts are zero and no winner exists
        ci = CameraModel(np.eye(3), np.eye(3), np.zeros(3))
        cj = CameraModel(np.eye(3), np.eye(3), np.array([0.0, 0, 1.0]))
        E = unit_bifocal(ci, cj)
        tr = np.vstack([ci.project([0, 0, 5.0]), cj.project([0, 0, 5.0])])
        assert _picked(E, tr[None])[2] == "depth votes tie: [0, 0, 0, 0]"
        with pytest.raises(AmbiguousCheirality, match=r"depth votes tie: \[0, 0, 0, 0\]"):
            oracle.rotation_from_essential(E, tr[None])

    def test_ambiguous_when_nonzero_votes_tie(self, rng):
        # two tracks in front of both views under each of two candidates, so
        # two candidates get two votes each and none wins
        E = bifocal_from_pair(_random_camera(rng), _random_camera(rng))
        Ra, Rb, t = essential_candidates(E)
        pts = []
        for R in (Ra, Rb):
            placed = 0
            while placed < 2:
                X = rng.normal(size=3)
                y = R.T @ (X + t)  # the point in view j's frame
                if X[2] > 0 and y[2] > 0:
                    pts.append([X / X[2], y / y[2]])
                    placed += 1
        assert _picked(E, np.array(pts))[2] == "depth votes tie: [2, 0, 2, 0]"
        with pytest.raises(AmbiguousCheirality, match=r"depth votes tie: \[2, 0, 2, 0\]"):
            oracle.rotation_from_essential(E, np.array(pts))


def _votes_per_track(R, tdir, tracks):
    """The cheirality vote as one DLT triangulation per track: (votes,
    ambiguous tracks skipped, at-infinity tracks skipped)."""
    Pi = np.hstack([np.eye(3), np.zeros((3, 1))])
    Pj = np.hstack([R.T, (R.T @ tdir).reshape(3, 1)])
    votes = ambiguous = infinite = 0
    for tr in tracks:
        try:
            X = triangulate_dlt([Pi, Pj], tr)
        except DegenerateGeometry:
            ambiguous += 1
            continue
        if abs(X[3]) < 1e-14:
            infinite += 1
            continue
        Xe = X[:3] / X[3]
        if Xe[2] > 0 and (R.T @ (Xe + tdir))[2] > 0:
            votes += 1
    return votes, ambiguous, infinite


def _homogeneous(v):
    return v / v[2]


def _random_tracks(rng, R, t, count):
    """count 2-view tracks for the candidate (R, t), mixing generic points
    with identical image points, parallel rays and points on the baseline."""
    tracks = []
    for _ in range(count):
        x = np.append(rng.normal(size=2), 1.0)
        kind = rng.random()
        if kind < 0.15:
            y = x  # identical image points
        elif kind < 0.3:
            y = _homogeneous(R.T @ x)  # parallel rays: a point at infinity
        elif kind < 0.4:
            x, y = _homogeneous(-t), _homogeneous(R.T @ t)  # on the baseline
        else:
            y = np.append(rng.normal(size=2), 1.0)
        tracks.append(np.vstack([x, y]))
    return np.array(tracks)


class TestCheiralityVotes:
    def test_batched_vote_matches_per_track_triangulation(self, rng):
        # the (R, -t) votes are read off the mirrored (R, t) solution; each
        # candidate here is triangulated on its own, track by track
        skipped = np.zeros(2, dtype=int)
        for trial in range(40):
            E = bifocal_from_pair(_random_camera(rng), _random_camera(rng))
            Ra, Rb, t = essential_candidates(E)
            for k, (R, tk) in enumerate(((Ra, t), (Ra, -t), (Rb, t), (Rb, -t))):
                tracks = _random_tracks(rng, R, tk, int(rng.integers(1, 30)))
                votes, *skips = _votes_per_track(R, tk, tracks)
                assert cheirality_votes(np.stack([Ra, Rb])[None], t[None], tracks, [0])[0, k] == votes
                skipped += skips
        # both skip rules were exercised
        assert np.all(skipped > 0)

    def test_stacked_votes_equal_per_pair_oracle(self, rng):
        # random stacks of pairs, one DLT for all of them, against one
        # four-candidate DLT per pair
        for trial in range(30):
            K = int(rng.integers(1, 12))
            E = np.array([bifocal_from_pair(_random_camera(rng), _random_camera(rng))
                          for _ in range(K)])
            Ra, Rb, t = essential_candidates(E)
            tracks = [_random_tracks(rng, [Ra, Rb][int(rng.integers(2))][k],
                                     float(rng.choice([-1.0, 1.0])) * t[k], int(rng.integers(1, 20)))
                      for k in range(K)]
            starts = np.cumsum([0] + [len(p) for p in tracks[:-1]])
            got = cheirality_votes(np.stack([Ra, Rb], axis=1), t, np.concatenate(tracks), starts)
            for k in range(K):
                cands = oracle.essential_candidates(E[k])
                assert np.array_equal(cands[0][0], Ra[k]) and np.array_equal(cands[2][0], Rb[k])
                assert np.array_equal(cands[0][1], t[k])
                assert got[k].tolist() == oracle.cheirality_votes(cands, tracks[k]).tolist()


class TestFundamentalFromProjections:
    def test_matches_bifocal_from_pair(self, rng):
        for _ in range(10):
            ci, cj = _random_camera(rng, False), _random_camera(rng, False)
            F1 = fundamental_from_projections(ci.projection_matrix(), cj.projection_matrix())
            F2 = bifocal_from_pair(ci, cj)
            c = np.sum(F1 * F2) / (np.linalg.norm(F1) * np.linalg.norm(F2))
            assert abs(abs(c) - 1.0) < 1e-9


def _determinant_loop(Pi, Pj):
    """Oracle: the former nine separate 4x4 determinants."""
    F = np.zeros((3, 3))
    for p in range(3):
        Ai = np.delete(Pi, p, axis=0)
        for q in range(3):
            A = np.vstack([Ai, np.delete(Pj, q, axis=0)])
            F[p, q] = (-1) ** (p + q) * np.linalg.det(A)
    return F


class TestFundamentalFromProjectionsStacked:
    def test_matches_determinant_loop(self, rng):
        for _ in range(200):
            Pi, Pj = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
            assert np.array_equal(fundamental_from_projections(Pi, Pj), _determinant_loop(Pi, Pj))
        P = rng.normal(size=(3, 4))
        assert np.array_equal(fundamental_from_projections(P, P), _determinant_loop(P, P))

    def test_broadcast_stacks_match_pairwise_calls(self, rng):
        Pi, Pj = rng.normal(size=(6, 1, 3, 4)), rng.normal(size=(6, 5, 3, 4))
        F = fundamental_from_projections(Pi, Pj)
        assert F.shape == (6, 5, 3, 3)
        for t in range(6):
            for c in range(5):
                assert np.array_equal(F[t, c], fundamental_from_projections(Pi[t, 0], Pj[t, c]))


class TestNearestRotation:
    def test_projects_to_so3(self, rng):
        for _ in range(20):
            M = rng.normal(size=(3, 3))
            R = nearest_rotation(M)
            assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-12
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_fixed_point_on_rotations(self, rng):
        R = random_rotation(rng)
        assert np.allclose(nearest_rotation(R), R, atol=1e-12)

    def test_stack_matches_single(self, rng):
        M = rng.normal(size=(12, 3, 3))
        M[::2] *= -1.0  # mix reflected and proper polar factors
        assert np.array_equal(nearest_rotation(M), np.array([nearest_rotation(A) for A in M]))


class TestReducedDltSvd:
    @pytest.mark.parametrize("algorithm,layout,intrinsics,noise", [
        ("r4", "collinear", "calibrated", 0.5),
        ("vc", "mixed", "calibrated", 0.0),
        ("vc", "mixed", "calibrated", 0.5),
        ("r4", "collinear", "varied", 0.5),
        ("vc", "mixed", "varied", 0.0),
    ])
    def test_equals_full_svd_on_run_stacks(self, monkeypatch, algorithm, layout, intrinsics, noise):
        # the DLT stacks a run solves (cheirality votes, 3-view tracks,
        # evaluation) give the same singular values and right vectors
        # without the unused left vectors
        import colsfm.geometry
        import colsfm.recovery
        from colsfm.pipeline import run_pipeline
        from colsfm.synthetic import MeasurementNoise, generate, measure

        stacks, real_dlt = [], colsfm.geometry._dlt

        def dlt(A):
            stacks.append(np.array(A))
            return real_dlt(A)

        monkeypatch.setattr(colsfm.geometry, "_dlt", dlt)
        monkeypatch.setattr(colsfm.recovery, "_dlt", dlt)
        scene = generate(layout, 7, 12, seed=70, intrinsics_mode=intrinsics)
        m, tracks = measure(scene, MeasurementNoise(noise, noise), seed=70)
        regime = "calibrated" if intrinsics == "calibrated" else "uncalibrated"
        run_pipeline(m, tracks, algorithm, regime, scene)
        assert len(stacks) > 1
        for A in stacks:
            _, s, Vt = np.linalg.svd(A)
            _, s_red, Vt_red = np.linalg.svd(A, full_matrices=False)
            assert np.array_equal(s, s_red) and np.array_equal(Vt, Vt_red)
            X, ambiguous = real_dlt(A)
            assert np.array_equal(X, Vt[..., 3, :])
            assert np.array_equal(ambiguous, s[..., 2] - s[..., 3] < 1e-12 * s[..., 0])
