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
    BifocalTensor,
    CameraModel,
    Track,
    bifocal_from_pair,
    epipole,
    essential_candidates,
    fundamental_from_projections,
    geodesic_angle,
    nearest_rotation,
    rotation_about,
    rotation_from_essential,
    skew,
    symmetric_epipolar_distance,
    _cheirality_votes,
    triangulate_dlt,
    unit,
)
from conftest import random_rotation


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
        assert t.kind == "essential"
        assert np.allclose(t.matrix, skew([-1.0, 0, 0]))

    def test_identical_cameras_rejected(self, rng):
        cam = _random_camera(rng)
        with pytest.raises(CoincidentCenters):
            bifocal_from_pair(cam, cam)

    def test_essential_singular_values_equal(self, rng):
        # oracle: SVD of the generated tensor
        for _ in range(20):
            ci, cj = _random_camera(rng), _random_camera(rng)
            s = bifocal_from_pair(ci, cj).singular_values()
            assert s[0] == pytest.approx(s[1], rel=1e-9)
            assert s[2] < 1e-9 * s[0]

    def test_transpose_symmetry(self, rng):
        ci, cj = _random_camera(rng, calibrated=False), _random_camera(rng, calibrated=False)
        assert np.allclose(
            bifocal_from_pair(ci, cj).matrix, bifocal_from_pair(cj, ci).matrix.T, atol=1e-12
        )

    def test_rank2_and_epipole_over_1000_random_pairs(self, rng):
        # invariant quantified over 1000 pairs at relative tolerance 1e-9:
        # rank exactly 2 and F e_right = 0 with e_right the image of the
        # other center
        for _ in range(1000):
            ci = _random_camera(rng, calibrated=bool(rng.integers(2)))
            cj = _random_camera(rng, calibrated=ci.is_calibrated)
            t = bifocal_from_pair(ci, cj)
            assert t.is_rank2(1e-9)
            e = epipole(t, "right")
            assert np.linalg.norm(t.matrix @ e) < 1e-9 * np.linalg.norm(t.matrix)
            img = unit(cj.projection_matrix() @ np.append(ci.center, 1.0))
            assert min(np.linalg.norm(e - img), np.linalg.norm(e + img)) < 1e-9

    def test_epipolar_constraint_on_synthetic_points(self, rng):
        for _ in range(20):
            ci, cj = _random_camera(rng, False), _random_camera(rng, False)
            F = bifocal_from_pair(ci, cj).normalized().matrix
            X = rng.normal(size=3) + np.array([0, 0, 6.0])
            xi, xj = ci.project(X), cj.project(X)
            assert abs(xi @ F @ xj) < 1e-10


class TestEpipole:
    def test_skew_null_space(self):
        F = skew([0, 0, 1.0])
        assert np.allclose(epipole(F, "right"), [0, 0, 1])

    def test_transpose_swaps_sides(self, rng):
        ci, cj = _random_camera(rng), _random_camera(rng)
        F = bifocal_from_pair(ci, cj).matrix
        assert np.allclose(epipole(F, "left"), epipole(F.T, "right"), atol=1e-12)

    def test_right_epipole_is_image_of_other_center(self, rng):
        # oracle: project center i through camera j
        for _ in range(30):
            ci, cj = _random_camera(rng, False), _random_camera(rng, False)
            F = bifocal_from_pair(ci, cj).matrix
            e = epipole(F, "right")
            img = cj.projection_matrix() @ np.append(ci.center, 1.0)
            img = img / np.linalg.norm(img)
            assert min(np.linalg.norm(e - img), np.linalg.norm(e + img)) < 1e-9

    def test_rank_deficient_rejected(self):
        M = np.outer([1.0, 0, 0], [0, 1.0, 0])
        with pytest.raises(RankDeficient):
            epipole(M, "right")


class TestSymmetricEpipolarDistance:
    def test_exact_correspondence_zero(self, rng):
        ci, cj = _random_camera(rng), _random_camera(rng)
        F = bifocal_from_pair(ci, cj).normalized()
        X = rng.normal(size=3) + np.array([0, 0, 6.0])
        assert symmetric_epipolar_distance(F, ci.project(X), cj.project(X)) < 1e-18

    def test_quadratic_growth_normal_to_line(self, rng):
        # finite-difference slope: distance ~ delta^2 along the line normal
        ci, cj = _random_camera(rng), _random_camera(rng)
        F = bifocal_from_pair(ci, cj).normalized()
        X = rng.normal(size=3) + np.array([0, 0, 6.0])
        xi, xj = ci.project(X), cj.project(X)
        line = F.matrix @ xj
        normal = unit(np.array([line[0], line[1], 0.0]))
        d1 = symmetric_epipolar_distance(F, xi + 1e-4 * normal, xj)
        d2 = symmetric_epipolar_distance(F, xi + 2e-4 * normal, xj)
        assert d2 / d1 == pytest.approx(4.0, rel=1e-2)

    def test_swap_matches_transpose(self, rng):
        ci, cj = _random_camera(rng), _random_camera(rng)
        F = bifocal_from_pair(ci, cj).normalized().matrix
        xi = np.array([0.1, -0.3, 1.0])
        xj = np.array([0.4, 0.2, 1.0])
        assert symmetric_epipolar_distance(F, xi, xj) == pytest.approx(
            symmetric_epipolar_distance(F.T, xj, xi), rel=1e-12
        )

    def test_degenerate_line(self):
        F = np.diag([0.0, 0.0, 1.0])  # F xj = (0,0,1): no image-plane part
        with pytest.raises(DegenerateLine):
            symmetric_epipolar_distance(F, np.array([0, 0, 1.0]), np.array([0, 0, 1.0]))


class TestTriangulateDlt:
    def test_symmetric_two_camera_origin(self):
        c1 = CameraModel(np.eye(3), rotation_about([0, 1, 0], np.deg2rad(30)), np.array([-1.0, 0, -5.0]))
        c2 = CameraModel(np.eye(3), rotation_about([0, 1, 0], np.deg2rad(-30)), np.array([1.0, 0, -5.0]))
        tr = Track((0, 1), np.vstack([c1.project([0, 0, 0]), c2.project([0, 0, 0])]))
        X = triangulate_dlt([c1, c2], tr)
        assert np.allclose(X[:3] / X[3], [0, 0, 0], atol=1e-10)

    def test_noiseless_three_view_reprojection(self, collinear_scene):
        cams = collinear_scene.cameras[:3]
        X = collinear_scene.points[0]
        tr = Track((0, 1, 2), np.vstack([c.project(X) for c in cams]))
        Xh = triangulate_dlt(cams, tr)
        for c, x in zip(cams, tr.points):
            reproj = c.projection_matrix() @ Xh
            assert np.linalg.norm(reproj / reproj[2] - x) < 1e-10

    def test_parallel_identical_rays(self, rng):
        cam = _random_camera(rng)
        x = cam.project(cam.center + cam.rotation @ np.array([0.1, 0.2, 3.0]))
        tr = Track((0, 1), np.vstack([x, x]))
        with pytest.raises(DegenerateGeometry):
            triangulate_dlt([cam, cam], tr)


def _pair_points(ci, cj, points):
    return np.array([[ci.project(X), cj.project(X)] for X in points])


class TestRotationFromEssential:
    def test_recovers_relative_rotation(self, rng):
        # oracle: R_i^T R_j and R_i^T(t_i - t_j) from the generating cameras
        for trial in range(10):
            ci, cj = _random_camera(rng), _random_camera(rng)
            mid = (ci.center + cj.center) / 2 + unit(np.cross(cj.center - ci.center, rng.normal(size=3))) * 4
            pts = mid + rng.uniform(-1, 1, size=(6, 3))
            if any(c.depth(X) <= 0 for c in (ci, cj) for X in pts):
                continue
            E = bifocal_from_pair(ci, cj).normalized()
            R, t = rotation_from_essential(E, _pair_points(ci, cj, pts))
            assert geodesic_angle(R, ci.rotation.T @ cj.rotation) < 1e-8
            assert np.allclose(t, unit(ci.rotation.T @ (ci.center - cj.center)), atol=1e-8)

    def test_pure_translation_identity_rotation(self, rng):
        R = random_rotation(rng)
        ci = CameraModel(np.eye(3), R, np.zeros(3))
        cj = CameraModel(np.eye(3), R, np.array([1.0, 0.2, 0.0]))
        look = R @ np.array([0, 0, 5.0])
        pts = look + rng.uniform(-1, 1, size=(5, 3))
        E = bifocal_from_pair(ci, cj).normalized()
        Rrel, _ = rotation_from_essential(E, _pair_points(ci, cj, pts))
        assert geodesic_angle(Rrel, np.eye(3)) < 1e-8

    def test_single_track_unique_winner(self, rng):
        # a single generic track already selects the true decomposition
        ci = CameraModel(np.eye(3), np.eye(3), np.zeros(3))
        cj = CameraModel(np.eye(3), rotation_about([0, 1, 0], 0.2), np.array([1.0, 0, 0]))
        X = np.array([0.3, 0.1, 5.0])
        E = bifocal_from_pair(ci, cj).normalized()
        R, t = rotation_from_essential(E, _pair_points(ci, cj, [X]))
        assert geodesic_angle(R, ci.rotation.T @ cj.rotation) < 1e-8

    def test_ambiguous_when_votes_tie(self):
        # point on the baseline: triangulation degenerate in every candidate,
        # so all four vote counts are zero and no winner exists
        ci = CameraModel(np.eye(3), np.eye(3), np.zeros(3))
        cj = CameraModel(np.eye(3), np.eye(3), np.array([0.0, 0, 1.0]))
        E = bifocal_from_pair(ci, cj).normalized()
        tr = Track((0, 1), np.vstack([ci.project([0, 0, 5.0]), cj.project([0, 0, 5.0])]))
        with pytest.raises(AmbiguousCheirality):
            rotation_from_essential(E, np.array([tr.points]))

    def test_ambiguous_when_nonzero_votes_tie(self, rng):
        # two tracks in front of both views under each of two candidates, so
        # two candidates get two votes each and none wins
        E = bifocal_from_pair(_random_camera(rng), _random_camera(rng)).matrix
        cands = essential_candidates(E)
        pts = []
        for R, t in (cands[0], cands[2]):
            placed = 0
            while placed < 2:
                X = rng.normal(size=3)
                y = R.T @ (X + t)  # the point in view j's frame
                if X[2] > 0 and y[2] > 0:
                    pts.append([X / X[2], y / y[2]])
                    placed += 1
        with pytest.raises(AmbiguousCheirality, match=r"depth votes tie: \[2, 0, 2, 0\]"):
            rotation_from_essential(E, np.array(pts))


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


class TestCheiralityVotes:
    def test_batched_vote_matches_per_track_triangulation(self, rng):
        skipped = np.zeros(2, dtype=int)
        for trial in range(40):
            E = bifocal_from_pair(_random_camera(rng), _random_camera(rng)).matrix
            cands = essential_candidates(E)
            for k, (R, t) in enumerate(cands):
                tracks = []
                for _ in range(int(rng.integers(1, 30))):
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
                    tracks.append(Track((0, 1), np.vstack([x, y])))
                votes, *skips = _votes_per_track(R, t, tracks)
                assert _cheirality_votes(cands, np.array([tr.points for tr in tracks]))[k] == votes
                skipped += skips
        # both skip rules were exercised
        assert np.all(skipped > 0)


class TestFundamentalFromProjections:
    def test_matches_bifocal_from_pair(self, rng):
        for _ in range(10):
            ci, cj = _random_camera(rng, False), _random_camera(rng, False)
            F1 = fundamental_from_projections(ci.projection_matrix(), cj.projection_matrix())
            F2 = bifocal_from_pair(ci, cj).matrix
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


class TestTrackChecks:
    def test_public_constructor_still_checks(self):
        with pytest.raises(ValueError, match="finite"):
            Track((0, 1), [[0.0, np.nan, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="last coordinate"):
            Track((0, 1), [[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="2 or 3 views"):
            Track((0,), [[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="distinct"):
            Track((1, 1), [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])

    def test_derived_tracks_equal_checked_ones(self):
        tr = Track((4, 7, 9), [[0.1, 0.2, 1.0], [0.3, -0.4, 1.0], [0.5, 0.6, 1.0]])
        sub = tr.restrict((9, 4))
        assert sub.view_ids == (9, 4) and np.array_equal(sub.points, tr.points[[2, 0]])
        assert not sub.points.flags.writeable
        moved = tr.relabel({4: 0, 7: 1, 9: 2})
        assert moved.view_ids == (0, 1, 2) and np.array_equal(moved.points, tr.points)
        assert not moved.points.flags.writeable
        with pytest.raises(ValueError, match="distinct"):
            tr.relabel({4: 0, 7: 0, 9: 1})
        with pytest.raises(ValueError, match="2 or 3 views"):
            tr.restrict((4,))


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
