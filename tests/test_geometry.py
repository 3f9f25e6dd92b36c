import json
import re

import calibrated_oracle as oracle
import geometry_oracle
import numpy as np
import pytest

from colsfm.errors import (
    AmbiguousCheirality,
    CoincidentCenters,
    DegenerateGeometry,
    DegenerateLine,
    InvalidSceneSpec,
    RankDeficient,
    ValidationError,
)
from colsfm.geometry import (
    bifocal_from_pair,
    calibrated,
    camera_centers,
    image_point,
    normalized_tensor,
    norms,
    epipole_table,
    epipoles,
    essential_candidates,
    fundamental_from_projections,
    nearest_rotation,
    cheirality_votes,
    rotation_about,
    skew,
    symmetric_epipolar_distance,
    triangulate,
    unit,
)
from colsfm.cli import main
from colsfm.io import load_scene, save_scene
from colsfm.recovery import pair_poses
from colsfm.synthetic import Scene
from conftest import geodesic_angle, projections, ragged, random_rotation, scene_cameras, stacked


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
    return K, R, t


def _pair(ci, cj):
    """The pair tensor of two cameras given as (K, R, t)."""
    return bifocal_from_pair(*stacked(ci, cj), 0, 1)


def _project(cam, X):
    """The image of X under one camera given as (K, R, t)."""
    return image_point(projections(*cam), X)


def _table_cameras(part, value):
    """(K, R, C) stacks of three cameras with identity K and R at x = 0, 1
    and 2, camera 1's part ("K", "R" or "t") set to value."""
    K = np.eye(3)[None].repeat(3, axis=0)
    R = K.copy()
    C = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    {"K": K, "R": R, "t": C}[part][1] = value
    return K, R, C


def _first_entry(part, value):
    """Camera 1's part of `_table_cameras` with its first entry set to value."""
    a = {"K": np.eye(3), "R": np.eye(3), "t": np.array([1.0, 0, 0])}[part]
    a.flat[0] = value
    return a


_FINITE = "intrinsics, rotation and center must be finite"
_DIAGONAL = r"intrinsics must have positive diagonal and K\[2,2\]=1"
# the camera refusal table: camera 1 of three with one malformed part, and
# the message every way in (`Scene`, `load_scene`, `colsfm measure`) names it by
CAMERA_REFUSALS = {
    "non-rotation": ("R", 2 * np.eye(3), r"rotation must be orthogonal with det \+1"),
    "lower-triangular": ("K", [[1.0, 0, 0], [0.5, 1, 0], [0, 0, 1]], "intrinsics must be upper triangular"),
    "K0": ("K", np.diag([1.0, 1.0, 2.0]), _DIAGONAL),
    "K1": ("K", np.diag([1.0, -1.0, 1.0]), _DIAGONAL),
    **{f"{value}-{part}": (part, _first_entry(part, value), _FINITE)
       for part in ("K", "R", "t") for value in (np.nan, np.inf)},
}


def _refused_three_ways(row, tmp_path, capsys):
    """Row `row` of CAMERA_REFUSALS refused when a `Scene` is built, by
    `load_scene` as a malformed file, and by `colsfm measure` with exit 2,
    the message on stderr and no output file."""
    part, value, message = CAMERA_REFUSALS[row]
    K, R, C = _table_cameras(part, value)
    points = [[0.0, 0.0, 5.0]]
    with pytest.raises(InvalidSceneSpec, match=f"^camera 1: {message}"):
        Scene(K, R, C, points, "table", 0)
    path, out = tmp_path / "scene.json", tmp_path / "m.json"
    path.write_text(json.dumps({"cameras": [{"K": k.ravel().tolist(), "R": r.ravel().tolist(), "t": t.tolist()}
                                            for k, r, t in zip(K, R, C)], "points": points}))
    with pytest.raises(ValidationError, match=f"^malformed scene file: camera 1: {message}"):
        load_scene(path)
    capsys.readouterr()
    assert main(["measure", "--scene", str(path), "--out", str(out)]) == 2
    assert re.match(f"error: malformed scene file: camera 1: {message}", capsys.readouterr().err)
    assert not out.exists()


class TestCameraModel:
    """The camera model K R^T [I | -t] of a scene's cameras: each test runs
    its rows of CAMERA_REFUSALS, and together they run every row."""

    def test_rejects_non_rotation(self, tmp_path, capsys):
        _refused_three_ways("non-rotation", tmp_path, capsys)

    def test_rejects_bad_intrinsics(self, tmp_path, capsys):
        _refused_three_ways("lower-triangular", tmp_path, capsys)

    @pytest.mark.parametrize("K", ["K0", "K1"])
    def test_rejects_unnormalized_or_negative_diagonal(self, K, tmp_path, capsys):
        _refused_three_ways(K, tmp_path, capsys)

    @pytest.mark.parametrize("which", ["K", "R", "t"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, which, value, tmp_path, capsys):
        _refused_three_ways(f"{value}-{which}", tmp_path, capsys)

    def test_calibrated_without_relative_tolerance(self, tmp_path):
        # camera 1's K is within numpy's default rtol of the identity but not
        # within 1e-12, camera 2's is within 1e-12: a scene holds both, and
        # only camera 2 is calibrated
        near = np.diag([1 + 5e-6, 1 + 5e-6, 1.0])
        K, R, C = _table_cameras("K", near)
        K[2] = np.eye(3) + 1e-13 * np.triu(np.ones((3, 3)), 1)
        scene = Scene(K, R, C, [[0.0, 0.0, 5.0]], "table", 0)
        assert calibrated(scene.intrinsics).tolist() == [True, False, True]
        save_scene(scene, tmp_path / "scene.json")
        assert load_scene(tmp_path / "scene.json").intrinsics.tobytes() == scene.intrinsics.tobytes()
        K = np.array([np.eye(3), near, np.diag([1.0, 1.0 + 2e-12, 1.0])])
        assert calibrated(K).tolist() == [True, False, False]
        assert calibrated(np.eye(3)) and calibrated(K).shape == (3,)

    def test_projection_matrix_form(self, rng):
        # a scene projects by K R^T [I | -t] = V^{-T} [I | -t], V = K^{-T} R^T
        K, R, C = stacked(*(_random_camera(rng, calibrated=False) for _ in range(2)))
        X = rng.normal(size=(5, 3))
        V = np.linalg.inv(K).swapaxes(1, 2) @ R.swapaxes(1, 2)
        P = np.linalg.inv(V).swapaxes(1, 2) @ np.concatenate([np.eye(3)[None].repeat(2, 0), -C[..., None]], 2)
        got = Scene(K, R, C, X, "random", 0).track_set().points
        assert np.allclose(got, image_point(P, X[:, None]), atol=1e-12)


class TestBifocalFromPair:
    def test_identity_rotations_gives_skew(self):
        K = R = np.eye(3)[None].repeat(2, axis=0)
        t = bifocal_from_pair(K, R, [[0.0, 0, 0], [1.0, 0, 0]], 0, 1)
        assert np.allclose(t, skew([-1.0, 0, 0]))

    def test_identical_cameras_rejected(self, rng):
        cam = _random_camera(rng)
        with pytest.raises(CoincidentCenters):
            _pair(cam, cam)

    def test_essential_singular_values_equal(self, rng):
        # oracle: SVD of the generated tensor
        for _ in range(20):
            ci, cj = _random_camera(rng), _random_camera(rng)
            s = np.linalg.svd(_pair(ci, cj), compute_uv=False)
            assert s[0] == pytest.approx(s[1], rel=1e-9)
            assert s[2] < 1e-9 * s[0]

    def test_transpose_symmetry(self, rng):
        ci, cj = _random_camera(rng, calibrated=False), _random_camera(rng, calibrated=False)
        assert np.allclose(
            _pair(ci, cj), _pair(cj, ci).T, atol=1e-12
        )

    def test_rank2_and_epipole_over_1000_random_pairs(self, rng):
        # invariant quantified over 1000 pairs at relative tolerance 1e-9:
        # rank exactly 2 and F e_right = 0 with e_right the image of the
        # other center
        for _ in range(1000):
            both = bool(rng.integers(2))
            ci, cj = _random_camera(rng, calibrated=both), _random_camera(rng, calibrated=both)
            t = _pair(ci, cj)
            s = np.linalg.svd(t, compute_uv=False)
            assert s[1] > 1e-9 * s[0] and s[2] <= 1e-9 * s[0]
            e = epipoles(t)[0, 1]
            assert np.linalg.norm(t @ e) < 1e-9 * np.linalg.norm(t)
            img = unit(projections(*cj) @ np.append(ci[2], 1.0))  # centre i in image j
            assert min(np.linalg.norm(e - img), np.linalg.norm(e + img)) < 1e-9

    def test_epipolar_constraint_on_synthetic_points(self, rng):
        for _ in range(20):
            ci, cj = _random_camera(rng, False), _random_camera(rng, False)
            F = normalized_tensor(_pair(ci, cj))
            X = rng.normal(size=3) + np.array([0, 0, 6.0])
            xi, xj = _project(ci, X), _project(cj, X)
            assert abs(xi @ F @ xj) < 1e-10


class TestEpipole:
    def test_skew_null_space(self):
        F = skew([0, 0, 1.0])
        assert np.allclose(epipoles(F)[0, 1], [0, 0, 1])

    def test_transpose_swaps_sides(self, rng):
        ci, cj = _random_camera(rng), _random_camera(rng)
        F = _pair(ci, cj)
        assert np.allclose(epipoles(F)[0, 0], epipoles(F.T)[0, 1], atol=1e-12)

    def test_right_epipole_is_image_of_other_center(self, rng):
        # oracle: project center i through camera j
        for _ in range(30):
            ci, cj = _random_camera(rng, False), _random_camera(rng, False)
            F = _pair(ci, cj)
            e = epipoles(F)[0, 1]
            img = projections(*cj) @ np.append(ci[2], 1.0)  # centre i in image j
            img = img / np.linalg.norm(img)
            assert min(np.linalg.norm(e - img), np.linalg.norm(e + img)) < 1e-9

    def test_rank_deficient_rejected(self):
        M = np.outer([1.0, 0, 0], [0, 1.0, 0])
        with pytest.raises(RankDeficient):
            epipoles(M)[0, 1]

    def test_table_zeroes_rank_deficient_rows_only(self, rng):
        # the table marks a tensor without unique epipoles by zero rows and
        # leaves every other row as `epipoles` computes it
        F = np.array([normalized_tensor(_pair(_random_camera(rng), _random_camera(rng)))
                      for _ in range(4)])
        F[2] = np.outer([1.0, 0, 0], [0, 1.0, 0])
        table = epipole_table(F)
        assert np.array_equal(table[2], np.zeros((2, 3)))
        for k in (0, 1, 3):
            assert np.array_equal(table[k], epipoles(F[k])[0])


class TestSymmetricEpipolarDistance:
    def test_exact_correspondence_zero(self, rng):
        ci, cj = _random_camera(rng), _random_camera(rng)
        F = normalized_tensor(_pair(ci, cj))
        X = rng.normal(size=3) + np.array([0, 0, 6.0])
        assert symmetric_epipolar_distance(F, _project(ci, X), _project(cj, X)) < 1e-18

    def test_quadratic_growth_normal_to_line(self, rng):
        # finite-difference slope: distance ~ delta^2 along the line normal
        ci, cj = _random_camera(rng), _random_camera(rng)
        F = normalized_tensor(_pair(ci, cj))
        X = rng.normal(size=3) + np.array([0, 0, 6.0])
        xi, xj = _project(ci, X), _project(cj, X)
        line = F @ xj
        normal = unit(np.array([line[0], line[1], 0.0]))
        d1 = symmetric_epipolar_distance(F, xi + 1e-4 * normal, xj)
        d2 = symmetric_epipolar_distance(F, xi + 2e-4 * normal, xj)
        assert d2 / d1 == pytest.approx(4.0, rel=1e-2)

    def test_swap_matches_transpose(self, rng):
        ci, cj = _random_camera(rng), _random_camera(rng)
        F = normalized_tensor(_pair(ci, cj))
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
        c1 = (np.eye(3), rotation_about([0, 1, 0], np.deg2rad(30)), np.array([-1.0, 0, -5.0]))
        c2 = (np.eye(3), rotation_about([0, 1, 0], np.deg2rad(-30)), np.array([1.0, 0, -5.0]))
        tr = np.vstack([_project(c1, [0, 0, 0]), _project(c2, [0, 0, 0])])
        X, ambiguous = triangulate(np.array([projections(*c1), projections(*c2)]), tr)
        assert not ambiguous
        assert np.allclose(X[:3] / X[3], [0, 0, 0], atol=1e-10)

    def test_noiseless_three_view_reprojection(self, collinear_scene):
        cams = list(zip(*scene_cameras(collinear_scene)))[:3]
        X = collinear_scene.points[0]
        tr = np.vstack([_project(c, X) for c in cams])
        Xh, _ = triangulate(np.array([projections(*c) for c in cams]), tr)
        for c, x in zip(cams, tr):
            reproj = projections(*c) @ Xh
            assert np.linalg.norm(reproj / reproj[2] - x) < 1e-10

    def test_parallel_identical_rays(self, rng):
        cam = _random_camera(rng)
        _, R, t = cam
        x = _project(cam, t + R @ np.array([0.1, 0.2, 3.0]))
        tr = np.vstack([x, x])
        assert triangulate(np.array([projections(*cam)] * 2), tr)[1]
        with pytest.raises(DegenerateGeometry):
            geometry_oracle.triangulate_dlt([projections(*cam)] * 2, tr)


def _pair_points(ci, cj, points):
    return np.array([[_project(ci, X), _project(cj, X)] for X in points])


def _picked(E, points):
    """The cheirality-picked (R, t) of one pair, and its tie message or None."""
    poses = pair_poses([np.asarray(E)], ragged([points], 2))
    assert poses.sign_known[0]
    assert np.array_equal(poses.rotations[0, 0], poses.rotations[0, 1])
    return poses.rotations[0, 0], poses.t_dirs[0], poses.errors[0]


class TestRotationFromEssential:
    """The relative pose a pair's tracks pick among its four candidates."""

    def test_recovers_relative_rotation(self, rng):
        # oracle: R_i^T R_j and R_i^T(t_i - t_j) from the generating cameras
        for trial in range(10):
            ci, cj = _random_camera(rng), _random_camera(rng)
            (_, Ri, ti), (_, Rj, tj) = ci, cj
            mid = (ti + tj) / 2 + unit(np.cross(tj - ti, rng.normal(size=3))) * 4
            pts = mid + rng.uniform(-1, 1, size=(6, 3))
            if any((R.T @ (X - t))[2] <= 0 for R, t in ((Ri, ti), (Rj, tj)) for X in pts):
                continue
            E = normalized_tensor(_pair(ci, cj))
            R, t, error = _picked(E, _pair_points(ci, cj, pts))
            assert error is None
            assert geodesic_angle(R, Ri.T @ Rj) < 1e-8
            assert np.allclose(t, unit(Ri.T @ (ti - tj)), atol=1e-8)

    def test_pure_translation_identity_rotation(self, rng):
        R = random_rotation(rng)
        ci = (np.eye(3), R, np.zeros(3))
        cj = (np.eye(3), R, np.array([1.0, 0.2, 0.0]))
        look = R @ np.array([0, 0, 5.0])
        pts = look + rng.uniform(-1, 1, size=(5, 3))
        E = normalized_tensor(_pair(ci, cj))
        Rrel, _, _ = _picked(E, _pair_points(ci, cj, pts))
        assert geodesic_angle(Rrel, np.eye(3)) < 1e-8

    def test_single_track_unique_winner(self, rng):
        # a single generic track already selects the true decomposition
        ci = (np.eye(3), np.eye(3), np.zeros(3))
        cj = (np.eye(3), rotation_about([0, 1, 0], 0.2), np.array([1.0, 0, 0]))
        X = np.array([0.3, 0.1, 5.0])
        E = normalized_tensor(_pair(ci, cj))
        R, t, error = _picked(E, _pair_points(ci, cj, [X]))
        assert error is None
        assert geodesic_angle(R, cj[1]) < 1e-8  # camera i has R = I

    def test_ambiguous_when_votes_tie(self):
        # point on the baseline: triangulation degenerate in every candidate,
        # so all four vote counts are zero and no winner exists
        ci = (np.eye(3), np.eye(3), np.zeros(3))
        cj = (np.eye(3), np.eye(3), np.array([0.0, 0, 1.0]))
        E = normalized_tensor(_pair(ci, cj))
        tr = np.vstack([_project(ci, [0, 0, 5.0]), _project(cj, [0, 0, 5.0])])
        assert _picked(E, tr[None])[2] == "depth votes tie: [0, 0, 0, 0]"
        with pytest.raises(AmbiguousCheirality, match=r"depth votes tie: \[0, 0, 0, 0\]"):
            oracle.rotation_from_essential(E, tr[None])

    def test_ambiguous_when_nonzero_votes_tie(self, rng):
        # two tracks in front of both views under each of two candidates, so
        # two candidates get two votes each and none wins
        E = _pair(_random_camera(rng), _random_camera(rng))
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
            X = geometry_oracle.triangulate_dlt([Pi, Pj], tr)
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
            E = _pair(_random_camera(rng), _random_camera(rng))
            Ra, Rb, t = essential_candidates(E)
            for k, (R, tk) in enumerate(((Ra, t), (Ra, -t), (Rb, t), (Rb, -t))):
                tracks = _random_tracks(rng, R, tk, int(rng.integers(1, 30)))
                votes, *skips = _votes_per_track(R, tk, tracks)
                assert cheirality_votes(np.stack([Ra, Rb])[None], t[None], *ragged([tracks], 2))[0, k] == votes
                skipped += skips
        # both skip rules were exercised
        assert np.all(skipped > 0)

    def test_stacked_votes_equal_per_pair_oracle(self, rng):
        # random stacks of pairs, one DLT for all of them, against one
        # four-candidate DLT per pair
        for trial in range(30):
            K = int(rng.integers(1, 12))
            E = np.array([_pair(_random_camera(rng), _random_camera(rng))
                          for _ in range(K)])
            Ra, Rb, t = essential_candidates(E)
            tracks = [_random_tracks(rng, [Ra, Rb][int(rng.integers(2))][k],
                                     float(rng.choice([-1.0, 1.0])) * t[k], int(rng.integers(1, 20)))
                      for k in range(K)]
            got = cheirality_votes(np.stack([Ra, Rb], axis=1), t, *ragged(tracks, 2))
            for k in range(K):
                cands = oracle.essential_candidates(E[k])
                assert np.array_equal(cands[0][0], Ra[k]) and np.array_equal(cands[2][0], Rb[k])
                assert np.array_equal(cands[0][1], t[k])
                assert got[k].tolist() == oracle.cheirality_votes(cands, tracks[k]).tolist()


def _stress_pair(rng):
    """The candidates of one noisy essential matrix and up to 11 noisy
    tracks: baselines from 1e-3 to 3, tensor and pixel noise from 1e-6 to
    0.3, depths from -1 to 10 (points behind camera i), and tracks on the
    baseline, on either camera's principal plane (image points with last
    coordinate 0), with identical image points or with parallel rays."""
    R = random_rotation(rng)
    c = unit(rng.normal(size=3)) * 10.0 ** rng.uniform(-3, np.log10(3))  # camera j = R^T [I | -c]
    E = normalized_tensor(_pair((np.eye(3), np.eye(3), np.zeros(3)), (np.eye(3), R, c)))
    Ra, Rb, t = essential_candidates(E + 10.0 ** rng.uniform(-6, np.log10(0.3)) * rng.normal(size=(3, 3)))
    px = 10.0 ** rng.uniform(-6, np.log10(0.3))
    tracks = []
    for _ in range(int(rng.integers(1, 12))):
        X = np.append(rng.uniform(-1, 1, 2), 1.0) * rng.uniform(-1, 10)
        kind = rng.random()
        if kind < 0.08:
            X = c * rng.uniform(-2, 3)  # on the baseline
        elif kind < 0.16:
            X[2] = 0.0  # on camera i's principal plane
        elif kind < 0.24:
            X = X - (R[:, 2] @ (X - c)) * R[:, 2]  # on camera j's principal plane
        x = [X, R.T @ (X - c)]
        x = [v / v[2] if v[2] != 0 else v for v in x]
        if 0.24 <= kind < 0.32:
            x[1] = x[0]  # identical image points
        elif 0.32 <= kind < 0.4:
            x[1] = _homogeneous(R.T @ x[0])  # parallel rays
        tracks.append([v + px * np.append(rng.normal(size=2), 0.0) for v in x])
    return Ra, Rb, t, np.array(tracks)


class TestCheiralityCertificate:
    def test_sure_entries_vote_as_the_dlt(self, monkeypatch, rng):
        # per (branch, track) entry: a sure entry's closed-form depths vote
        # as the per-track DLT does, and every other entry goes to the DLT
        import colsfm.geometry
        from colsfm.geometry import _two_view_depths

        solved, real = [], colsfm.geometry.triangulate

        def triangulate(P, x):
            solved.append((np.array(P), np.array(x)))
            return real(P, x)

        monkeypatch.setattr(colsfm.geometry, "triangulate", triangulate)
        counts = np.zeros(2, dtype=int)  # sure, unsure
        for trial in range(1500):
            Ra, Rb, t, tracks = _stress_pair(rng)
            zi, zj, sure = _two_view_depths(np.stack([Ra, Rb])[:, None], t, tracks[:, 0], tracks[:, 1])
            oracle_votes = []
            for b, R in enumerate((Ra, Rb)):
                for n in range(len(tracks)):
                    want = [_votes_per_track(R, s * t, tracks[n:n + 1])[0] for s in (1.0, -1.0)]
                    oracle_votes.append(want)
                    if sure[b, n]:
                        assert [zi[b, n] > 0 and zj[b, n] > 0, zi[b, n] < 0 and zj[b, n] < 0] == want
            solved.clear()
            votes = cheirality_votes(np.stack([Ra, Rb])[None], t[None], *ragged([tracks], 2))
            assert votes[0].tolist() == np.reshape(oracle_votes, (2, -1, 2)).sum(axis=1).ravel().tolist()
            branch, n = np.nonzero(~sure)
            if len(n):
                [(P, x)] = solved
                assert np.array_equal(x, tracks[n])
                assert np.array_equal(P[:, 1, :, :3], np.stack([Ra.T, Rb.T])[branch])
            else:
                assert solved == []
            counts += np.count_nonzero(sure), np.count_nonzero(~sure)
        assert np.all(counts > 1000)


class TestFundamentalFromProjections:
    def test_matches_bifocal_from_pair(self, rng):
        for _ in range(10):
            ci, cj = _random_camera(rng, False), _random_camera(rng, False)
            F1 = fundamental_from_projections(projections(*ci), projections(*cj))
            F2 = _pair(ci, cj)
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
        # the DLT stacks a run solves (cheirality entries the closed-form
        # depths cannot certify, 3-view tracks, evaluation) give the same
        # singular values and right vectors without the unused left vectors
        import colsfm.geometry
        import colsfm.metrics
        import colsfm.recovery
        from colsfm.pipeline import run_pipeline
        from colsfm.synthetic import MeasurementNoise, generate, measure

        stacks, real = [], colsfm.geometry.triangulate

        def recorder(module):
            def triangulate(P, x):
                stacks.append((module, np.array(P), np.array(x)))
                return real(P, x)
            return triangulate

        for module in (colsfm.geometry, colsfm.recovery, colsfm.metrics):
            monkeypatch.setattr(module, "triangulate", recorder(module.__name__))
        scene = generate(layout, 7, 12, seed=70, intrinsics_mode=intrinsics)
        m, tracks = measure(scene, MeasurementNoise(noise, noise), seed=70)
        regime = "calibrated" if intrinsics == "calibrated" else "uncalibrated"
        run_pipeline(m, tracks, algorithm, regime, scene)
        # the evaluation always triangulates; within geometry only the
        # cheirality vote does, and on these scenes only when noisy and
        # calibrated
        assert stacks[-1][0] == "colsfm.metrics"
        votes_dlt = any(module == "colsfm.geometry" for module, _, _ in stacks)
        assert votes_dlt == (intrinsics == "calibrated" and noise > 0)
        for _, P, x in stacks:
            # the DLT system: the [x_i]_x P_i rows of every view of a track
            A = geometry_oracle.skews(x.reshape(-1, 3)).reshape(x.shape + (3,)) @ P
            A = A.reshape(A.shape[:-3] + (3 * A.shape[-3], 4))
            _, s, Vt = np.linalg.svd(A)
            _, s_red, Vt_red = np.linalg.svd(A, full_matrices=False)
            assert np.array_equal(s, s_red) and np.array_equal(Vt, Vt_red)
            X, ambiguous = real(P, x)
            assert np.array_equal(X, Vt[..., 3, :])
            assert np.array_equal(ambiguous, s[..., 2] - s[..., 3] < 1e-12 * s[..., 0])


def _same(a, b) -> bool:
    """Bit for bit: equal shapes and bytes, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStackedPrimitives:
    """Each primitive of one body takes one item or a stack: every row of a
    stack equals the per-item reference of tests/geometry_oracle.py, and a
    single item equals its row of the stack."""

    def test_norms(self, rng):
        for scale in (1e-150, 1.0, 1e150):
            x = scale * rng.normal(size=(200, 9))
            got = norms(x)
            assert all(got[k] == np.linalg.norm(row) for k, row in enumerate(x))
            assert all(norms(row) == got[k] for k, row in enumerate(x))
            assert _same(norms(x.reshape(20, 10, 9)), got.reshape(20, 10))

    def test_skew(self, rng):
        v = rng.normal(size=(4, 50, 3))
        v[0, 0] = [0.0, -0.0, 1.0]
        got = skew(v)
        assert got.shape == (4, 50, 3, 3)
        for idx in np.ndindex(4, 50):
            assert _same(got[idx], geometry_oracle.skew(v[idx]))
            assert _same(skew(v[idx]), got[idx])
        for bad in (np.nan, np.inf):
            v[2, 7, 1] = bad
            with pytest.raises(ValueError, match="skew: vector must be finite"):
                skew(v)
        # homogeneous 4-vectors, or anything not of 3 entries per row
        for bad in ([1.0, 2.0, 3.0, 4.0], np.ones((5, 4)), np.ones((3, 1)), 1.0):
            with pytest.raises(ValueError, match="skew: vectors must have 3 entries"):
                skew(bad)
        with pytest.raises(ValueError, match="skew: vectors must have 3 entries"):
            triangulate(np.ones((2, 3, 4)), np.ones((2, 4)))

    def test_unit(self, rng):
        v = rng.normal(size=(100, 3)) * rng.uniform(1e-3, 1e3, size=(100, 1))
        got = unit(v)
        for k, row in enumerate(v):
            assert _same(got[k], geometry_oracle.unit(row))
            assert _same(unit(row), got[k])
        v[40] = 0.0
        for bad in (v, v[40]):
            with pytest.raises(ValueError, match="cannot normalize zero vector"):
                unit(bad)

    def test_normalized_tensor(self, rng):
        M = rng.normal(size=(300, 3, 3)) * rng.uniform(1e-3, 1e3, size=(300, 1, 1))
        M[:5] = 0.0
        M[:5, 1, 2], M[:5, 0, 0] = -2.0, 2.0  # a tie: the first largest entry decides the sign
        M[5] = np.eye(3) * -1.0
        got = normalized_tensor(M)
        for k, block in enumerate(M):
            assert _same(got[k], geometry_oracle.normalized_tensor(block))
            assert _same(normalized_tensor(block), got[k])
        assert _same(normalized_tensor(M.reshape(30, 10, 3, 3)), got.reshape(30, 10, 3, 3))
        M[17] = 0.0
        for bad in (M, M[17]):
            with pytest.raises(ValueError, match="cannot normalize zero tensor"):
                normalized_tensor(bad)

    def test_rotation_about(self, rng):
        axes = rng.normal(size=(60, 3))
        angles = rng.uniform(-np.pi, np.pi, size=60)
        one = rotation_about(axes, 0.3)
        each = rotation_about(axes, angles)
        for k, axis in enumerate(axes):
            assert _same(one[k], geometry_oracle.rotation_about(axis, 0.3))
            assert _same(each[k], geometry_oracle.rotation_about(axis, angles[k]))
            assert _same(rotation_about(axis, angles[k]), each[k])
            assert _same(rotation_about(axis, np.float64(angles[k])), each[k])

    def test_image_point(self, rng):
        P = np.array([projections(*_random_camera(rng, calibrated=k % 2 == 0)) for k in range(5)])
        X = rng.normal(scale=3.0, size=(40, 3))
        got = image_point(P, X[:, None])
        assert got.shape == (40, 5, 3)
        for p, i in np.ndindex(40, 5):
            assert _same(got[p, i], geometry_oracle.image_point(P[i], X[p]))
            assert _same(image_point(P[i], X[p]), got[p, i])
        cam = _random_camera(rng)
        _, R, t = cam
        X[11] = t + R[:, 0]  # on the principal plane
        with pytest.raises(DegenerateGeometry, match="point projects to infinity"):
            image_point(projections(*cam), X)

    def test_camera_centers(self, rng):
        P = np.array([projections(*_random_camera(rng)) for _ in range(30)])
        P /= rng.uniform(0.5, 2.0, size=(30, 1, 1))  # not a scaled rotation any more
        got = camera_centers(P)
        for k in range(30):
            assert _same(got[k], geometry_oracle.camera_center(P[k]))
            assert _same(camera_centers(P[k]), got[k])

    def test_triangulate(self, rng):
        cams = [_random_camera(rng, calibrated=k % 2 == 0) for k in range(6)]
        P = np.array([projections(*c) for c in cams])
        ambiguous_seen = 0
        for k in range(2, 7):
            views = np.array([rng.choice(6, size=k, replace=False) for _ in range(40)])
            X = rng.normal(scale=2.0, size=(40, 3))
            x = np.array([[_project(cams[v], Xp) for v in vs] for Xp, vs in zip(X, views)])
            x[:, :, :2] += rng.normal(scale=1e-3, size=(40, k, 2))
            views[:3] = views[0, 0]  # identical cameras and rays: ambiguous
            x[:3] = x[:3, :1]
            got, ambiguous = triangulate(P[views], x)
            assert got.shape == (40, 4) and ambiguous.shape == (40,)
            for p in range(40):
                try:
                    want = geometry_oracle.triangulate_dlt(P[views[p]], x[p])
                except DegenerateGeometry:
                    assert ambiguous[p]
                    ambiguous_seen += 1
                    continue
                assert not ambiguous[p] and _same(got[p], want)
                one, flag = triangulate(P[views[p]], x[p])
                assert _same(one, got[p]) and not flag
        assert ambiguous_seen == 15
        # one camera pair broadcast over a stack of tracks
        two = triangulate(P[:2], x[:, :2])
        assert _same(two[0], triangulate(np.broadcast_to(P[:2], (40, 2, 3, 4)), x[:, :2])[0])
        with pytest.raises(ValueError, match="at least two views"):
            triangulate(P[:1], x[0, :1])
