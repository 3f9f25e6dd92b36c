import numpy as np
import pytest

from colsfm.errors import (
    DegenerateEpipole,
    DegenerateGeometry,
    InconsistentInput,
    InsufficientTracks,
    NotConnected,
)
from colsfm.geometry import (
    BifocalTensor,
    CameraModel,
    Track,
    bifocal_from_pair,
    fundamental_from_projections,
    geodesic_angle,
    normalized_tensor,
    triangulate_dlt,
    unit,
)
from colsfm.graphs import TripletCover, sequential_cover
from colsfm.metrics import align_similarity, mean_reprojection_error
from colsfm.recovery import (
    _a_system_rows,
    _alpha_least_squares,
    _canonical_pair_cameras,
    _triangulate_tracks3,
    closure_scales,
    eigen_rotation_averaging,
    recover_calibrated_collinear_triplet,
    recover_calibrated_general_triplet,
    recover_projective_collinear_triplet,
    recover_projective_general_triplet,
    pair_pose,
    register_global,
    resolve_essential_triplet,
)
from colsfm.synthetic import generate
from conftest import triplet_poses


def _local_tracks(scene, ids, n_points=None):
    """2-view and 3-view tracks of a camera triple in local indices 0,1,2."""
    ts = scene.track_set()
    mapping = {g: l for l, g in enumerate(sorted(ids))}
    tr3 = [t.relabel(mapping) for t in ts.triple_tracks(*sorted(ids))]
    if n_points:
        tr3 = tr3[:n_points]
    tr2 = {}
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        ga, gb = sorted(ids)[a], sorted(ids)[b]
        tr2[(a, b)] = [t.relabel({ga: a, gb: b}) for t in ts.pair_tracks(ga, gb)]
    return tr2, tr3


def _center(P):
    return -P[:, :3].T @ P[:, 3]


def _rebuilt_block_matches(P_i, P_j, tensor, tol=1e-8):
    F = fundamental_from_projections(P_i, P_j)
    a = normalized_tensor(F)
    b = normalized_tensor(tensor if isinstance(tensor, np.ndarray) else tensor.matrix)
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < tol


class TestResolveEssentialTriplet:
    def test_cycle_consistency_on_oracle(self):
        scene = generate("general", 3, 8, seed=50)
        E = scene.exact_triplet((0, 1, 2))
        blocks = {(i, j): E[3 * i:3 * i + 3, 3 * j:3 * j + 3] for (i, j) in ((0, 1), (0, 2), (1, 2))}
        geom = resolve_essential_triplet([pair_pose(b) for b in blocks.values()])
        assert geom.cycle_residual < 1e-9
        for (i, j), R in geom.rotations.items():
            Rtrue = scene.cameras[i].rotation.T @ scene.cameras[j].rotation
            assert geodesic_angle(R, Rtrue) < 1e-7

    def test_closure_scales_match_distances(self):
        scene = generate("general", 3, 8, seed=51)
        E = scene.exact_triplet((0, 1, 2))
        blocks = {
            (i, j): normalized_tensor(E[3 * i:3 * i + 3, 3 * j:3 * j + 3])
            for (i, j) in ((0, 1), (0, 2), (1, 2))
        }
        geom = resolve_essential_triplet([pair_pose(b) for b in blocks.values()])
        mu, signs, residual = closure_scales(geom)
        assert residual < 1e-9
        c = scene.centers()
        d01 = np.linalg.norm(c[0] - c[1])
        assert mu[(0, 2)] == pytest.approx(np.linalg.norm(c[0] - c[2]) / d01, rel=1e-8)
        assert mu[(1, 2)] == pytest.approx(np.linalg.norm(c[1] - c[2]) / d01, rel=1e-8)


class TestEigenRotationAveraging:
    def test_recovers_up_to_global_rotation(self, rng):
        from conftest import random_rotation

        Rs = [random_rotation(rng) for _ in range(5)]
        rel = {
            (i, j): Rs[i].T @ Rs[j] for i in range(5) for j in range(i + 1, 5)
        }
        Rh = eigen_rotation_averaging(rel, 5)
        W = Rs[0] @ Rh[0]  # global gauge
        for i in range(5):
            assert geodesic_angle(Rs[i] @ Rh[i], W) < 1e-7


class TestCalibratedCollinearRecovery:
    def test_oracle_round_trip(self):
        scene = generate("collinear", 3, 10, seed=52)
        E = scene.exact_triplet((0, 1, 2))
        tr2, tr3 = _local_tracks(scene, (0, 1, 2))
        rec = recover_calibrated_collinear_triplet(E, triplet_poses(E, tr2), tr3)
        est = np.vstack([_center(P) for P in rec.cameras])
        a = align_similarity(est, scene.centers())
        assert np.max(a.residuals) < 1e-8
        # recovered tensors reproduce the input blocks up to scale
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            assert _rebuilt_block_matches(
                rec.cameras[i], rec.cameras[j], E[3 * i:3 * i + 3, 3 * j:3 * j + 3]
            )

    def test_unit_normalized_blocks_work_too(self):
        # recovery is scale free: unit-normalizing every block changes nothing
        scene = generate("collinear", 3, 10, seed=53)
        E = scene.exact_triplet((0, 1, 2))
        En = np.zeros_like(E)
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            B = normalized_tensor(E[3 * i:3 * i + 3, 3 * j:3 * j + 3])
            En[3 * i:3 * i + 3, 3 * j:3 * j + 3] = B
            En[3 * j:3 * j + 3, 3 * i:3 * i + 3] = B.T
        tr2, tr3 = _local_tracks(scene, (0, 1, 2))
        rec = recover_calibrated_collinear_triplet(En, triplet_poses(En, tr2), tr3)
        est = np.vstack([_center(P) for P in rec.cameras])
        assert np.max(align_similarity(est, scene.centers()).residuals) < 1e-8

    def test_alpha_for_known_spacing(self):
        # centers at alpha = 0, 1, 2 along a line: t3 = 2 t2
        d = unit(np.array([1.0, 0.2, -0.1]))
        base = np.array([0.0, 0.0, 0.0])
        centers = [base, base + d, base + 2 * d]
        side = unit(np.cross(d, [0, 0, 1.0]))
        rngl = np.random.default_rng(3)
        points = base + 5 * side + rngl.uniform(-1, 1, size=(8, 3))
        cams = []
        for t in centers:
            fwd = unit(5 * side)  # look toward the points
            ref = np.array([0.0, 1.0, 0.0])
            x = unit(np.cross(ref, fwd))
            y = np.cross(fwd, x)
            cams.append(CameraModel(np.eye(3), np.column_stack([x, y, fwd]), t))
        E = np.zeros((9, 9))
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            B = bifocal_from_pair(cams[i], cams[j]).matrix
            E[3 * i:3 * i + 3, 3 * j:3 * j + 3] = B
            E[3 * j:3 * j + 3, 3 * i:3 * i + 3] = B.T
        tr2, tr3 = {(0, 1): [], (0, 2): [], (1, 2): []}, []
        for X in points:
            pts = [c.project(X) for c in cams]
            tr3.append(Track((0, 1, 2), np.vstack(pts)))
            for a, b in tr2:
                tr2[(a, b)].append(Track((a, b), np.vstack([pts[a], pts[b]])))
        rec = recover_calibrated_collinear_triplet(E, triplet_poses(E, tr2), tr3)
        assert rec.alpha_or_a == pytest.approx(2.0, abs=1e-8)

    def test_no_three_view_tracks_rejected(self):
        scene = generate("collinear", 3, 8, seed=54)
        E = scene.exact_triplet((0, 1, 2))
        tr2, _ = _local_tracks(scene, (0, 1, 2))
        with pytest.raises(InsufficientTracks):
            recover_calibrated_collinear_triplet(E, triplet_poses(E, tr2), [])

    def test_inconsistent_input_rejected(self, rng):
        S = rng.normal(size=(9, 9))
        S = (S + S.T) / 2
        for i in range(3):
            S[3 * i:3 * i + 3, 3 * i:3 * i + 3] = 0
        with pytest.raises(InconsistentInput):
            recover_calibrated_collinear_triplet(S, triplet_poses(S), [])


class TestCalibratedGeneralRecovery:
    def test_oracle_round_trip(self):
        scene = generate("general", 3, 8, seed=55)
        E = scene.exact_triplet((0, 1, 2))
        tr2, _ = _local_tracks(scene, (0, 1, 2))
        rec = recover_calibrated_general_triplet(triplet_poses(E, tr2))
        est = np.vstack([_center(P) for P in rec.cameras])
        a = align_similarity(est, scene.centers())
        assert np.max(a.residuals) < 1e-8

    def test_tracks_on_one_pair_suffice(self):
        scene = generate("general", 3, 8, seed=56)
        E = scene.exact_triplet((0, 1, 2))
        tr2, _ = _local_tracks(scene, (0, 1, 2))
        only01 = {(0, 1): tr2[(0, 1)]}
        rec = recover_calibrated_general_triplet(triplet_poses(E, only01))
        est = np.vstack([_center(P) for P in rec.cameras])
        assert np.max(align_similarity(est, scene.centers()).residuals) < 1e-8

    def test_no_tracks_rejected(self):
        scene = generate("general", 3, 8, seed=57)
        E = scene.exact_triplet((0, 1, 2))
        with pytest.raises(InsufficientTracks):
            recover_calibrated_general_triplet(triplet_poses(E))


class TestProjectiveCollinearRecovery:
    def _tensors(self, scene, ids=(0, 1, 2)):
        out = {}
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            gi, gj = sorted(ids)[i], sorted(ids)[j]
            out[(i, j)] = bifocal_from_pair(scene.cameras[gi], scene.cameras[gj]).normalized()
        return out

    def test_oracle_reprojection(self, collinear_projective_scene):
        scene = collinear_projective_scene
        F = self._tensors(scene)
        _, tr3 = _local_tracks(scene, (0, 1, 2))
        rec = recover_projective_collinear_triplet(F[(0, 1)], F[(1, 2)], F[(0, 2)], tr3)
        assert mean_reprojection_error(rec.cameras, tr3) < 1e-8
        assert _rebuilt_block_matches(rec.cameras[0], rec.cameras[1], F[(0, 1)].matrix)
        assert _rebuilt_block_matches(rec.cameras[1], rec.cameras[2], F[(1, 2)].matrix)
        assert _rebuilt_block_matches(rec.cameras[0], rec.cameras[2], F[(0, 2)].matrix)

    def test_two_tracks_determine_a_in_general_position(self):
        # with non-collinear cameras the third-tensor rows already pin a;
        # two tracks keep the solve consistent and stable
        scene = generate("general", 3, 10, seed=58, intrinsics_mode="varied")
        F = self._tensors(scene)
        _, tr3 = _local_tracks(scene, (0, 1, 2))
        rec2 = recover_projective_collinear_triplet(F[(0, 1)], F[(1, 2)], F[(0, 2)], tr3[:2])
        rec_all = recover_projective_collinear_triplet(F[(0, 1)], F[(1, 2)], F[(0, 2)], tr3)
        assert np.linalg.norm(np.asarray(rec2.alpha_or_a) - np.asarray(rec_all.alpha_or_a)) < 1e-10

    def test_exactly_collinear_needs_enough_tracks(self, collinear_projective_scene):
        # the third tensor constrains nothing here, so the track span rules
        scene = collinear_projective_scene
        F = self._tensors(scene)
        _, tr3 = _local_tracks(scene, (0, 1, 2))
        rec4 = recover_projective_collinear_triplet(F[(0, 1)], F[(1, 2)], F[(0, 2)], tr3[:4])
        held_out = tr3[4:]
        assert mean_reprojection_error(rec4.cameras, held_out) < 1e-7

    def test_ambiguous_track_does_not_count(self, collinear_projective_scene):
        # two tracks pass the count, but the second lies on the camera line,
        # so its DLT point from views 0-1 is ambiguous and it is skipped
        scene = collinear_projective_scene
        F = self._tensors(scene)
        _, tr3 = _local_tracks(scene, (0, 1, 2))
        c = scene.centers()
        X = c[0] + 2.7 * (c[1] - c[0])
        on_line = Track((0, 1, 2), np.vstack([scene.cameras[i].project(X) for i in range(3)]))
        P0, P1, _, _ = _canonical_pair_cameras(F[(0, 1)], F[(1, 2)])
        with pytest.raises(DegenerateGeometry):
            triangulate_dlt([P0, P1], on_line.restrict((0, 1)))
        with pytest.raises(InsufficientTracks):
            recover_projective_collinear_triplet(F[(0, 1)], F[(1, 2)], F[(0, 2)], [tr3[0], on_line])

    def test_all_tracks_at_epipole_rejected(self, collinear_projective_scene):
        scene = collinear_projective_scene
        F = self._tensors(scene)
        # synthesize tracks that sit exactly on the epipoles: project a point
        # on the camera line
        c = scene.centers()
        X = c[0] + 2.7 * (c[1] - c[0])
        pts = [scene.cameras[i].project(X) for i in range(3)]
        bad = [Track((0, 1, 2), np.vstack(pts))] * 3
        with pytest.raises((DegenerateEpipole, InsufficientTracks)):
            recover_projective_collinear_triplet(F[(0, 1)], F[(1, 2)], F[(0, 2)], bad)


class TestProjectiveGeneralRecovery:
    def test_oracle_round_trip_no_tracks(self):
        scene = generate("general", 3, 8, seed=59, intrinsics_mode="varied")
        F = {}
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            F[(i, j)] = bifocal_from_pair(scene.cameras[i], scene.cameras[j]).normalized()
        rec = recover_projective_general_triplet(F[(0, 1)], F[(1, 2)], F[(0, 2)])
        ts = scene.track_set()
        tr3 = [t.relabel({0: 0, 1: 1, 2: 2}) for t in ts.triple_tracks(0, 1, 2)]
        assert mean_reprojection_error(rec.cameras, tr3) < 1e-7

    def test_collinear_rejected(self, collinear_projective_scene):
        scene = collinear_projective_scene
        F = {}
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            F[(i, j)] = bifocal_from_pair(scene.cameras[i], scene.cameras[j]).normalized()
        with pytest.raises(DegenerateEpipole):
            recover_projective_general_triplet(F[(0, 1)], F[(1, 2)], F[(0, 2)])


class TestRegisterGlobal:
    def _recover_all(self, scene, cover):
        ts = scene.track_set()
        out = []
        for t in cover.triplets:
            ids = sorted(t)
            E = scene.exact_triplet(ids)
            mapping = {g: l for l, g in enumerate(ids)}
            tr3 = [x.relabel(mapping) for x in ts.triple_tracks(*ids)]
            tr2 = {}
            for (a, b) in ((0, 1), (0, 2), (1, 2)):
                tr2[(a, b)] = [x.relabel({ids[a]: a, ids[b]: b}) for x in ts.pair_tracks(ids[a], ids[b])]
            rec = recover_calibrated_collinear_triplet(
                E, triplet_poses(E, tr2), tr3, triplet_id=tuple(ids)
            )
            out.append(rec)
        return out

    def test_two_triplets_four_cameras(self):
        scene = generate("collinear", 4, 10, seed=60)
        cover = sequential_cover(4)
        recs = self._recover_all(scene, cover)
        reg = register_global(recs, cover, "euclidean")
        est = reg.centers()
        a = align_similarity(est, scene.centers())
        assert np.max(a.residuals) < 1e-8

    def test_twenty_camera_chain(self):
        scene = generate("collinear", 20, 10, seed=61)
        cover = sequential_cover(20)
        recs = self._recover_all(scene, cover)
        reg = register_global(recs, cover, "euclidean")
        a = align_similarity(reg.centers(), scene.centers())
        assert float(np.mean(a.residuals)) < 1e-7

    def test_single_triplet_identity(self):
        scene = generate("collinear", 3, 8, seed=62)
        cover = sequential_cover(3)
        recs = self._recover_all(scene, cover)
        reg = register_global(recs, cover, "euclidean")
        for P, Q in zip(reg.cameras, recs[0].cameras):
            assert np.allclose(P, Q, atol=1e-12)

    def test_disconnected_rejected(self):
        scene = generate("collinear", 6, 8, seed=63)
        cover = TripletCover.from_triplets([(0, 1, 2), (3, 4, 5)])
        recs = self._recover_all(scene, cover)
        with pytest.raises(NotConnected):
            register_global(recs, cover, "euclidean")

    def test_projective_chain_reprojection(self):
        scene = generate("collinear", 5, 12, seed=64, intrinsics_mode="varied")
        cover = sequential_cover(5)
        ts = scene.track_set()
        recs = []
        for t in cover.triplets:
            ids = sorted(t)
            mapping = {g: l for l, g in enumerate(ids)}
            tr3 = [x.relabel(mapping) for x in ts.triple_tracks(*ids)]
            F = {}
            for (a, b) in ((0, 1), (0, 2), (1, 2)):
                F[(a, b)] = bifocal_from_pair(scene.cameras[ids[a]], scene.cameras[ids[b]]).normalized()
            recs.append(
                recover_projective_collinear_triplet(
                    F[(0, 1)], F[(1, 2)], F[(0, 2)], tr3, triplet_id=tuple(ids)
                )
            )
        reg = register_global(recs, cover, "projective")
        all_tracks = []
        for i in range(3):
            all_tracks += ts.triple_tracks(i, i + 1, i + 2)
        assert mean_reprojection_error(reg.cameras, all_tracks) < 1e-6


class TestGaugeInvariance:
    def test_recovery_invariant_under_scene_similarity(self, rng):
        from conftest import random_rotation

        scene = generate("collinear", 3, 8, seed=65)
        E1 = scene.exact_triplet((0, 1, 2))
        # transform the whole scene by a similarity and rebuild
        Q = random_rotation(rng)
        s, d = 2.3, rng.normal(size=3)
        cams2 = [
            CameraModel(c.intrinsics, Q @ c.rotation, s * Q @ c.center + d)
            for c in scene.cameras
        ]
        E2 = np.zeros((9, 9))
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            B = bifocal_from_pair(cams2[i], cams2[j]).matrix
            E2[3 * i:3 * i + 3, 3 * j:3 * j + 3] = B
            E2[3 * j:3 * j + 3, 3 * i:3 * i + 3] = B.T
        # normalized blocks agree up to sign
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            a = normalized_tensor(E1[3 * i:3 * i + 3, 3 * j:3 * j + 3])
            b = normalized_tensor(E2[3 * i:3 * i + 3, 3 * j:3 * j + 3])
            assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < 1e-9


def _alpha_loop(P0, P1, Rh2, axis_dir, tracks3):
    """Oracle: the former per-track alpha solve."""
    num, den = 0.0, 0.0
    scale = 0.0
    used = 0
    for tr in tracks3:
        try:
            X = triangulate_dlt([P0, P1], tr.restrict((0, 1)))
        except DegenerateGeometry:
            continue
        if abs(X[3]) < 1e-12 * np.linalg.norm(X):
            continue
        Xe = X[:3] / X[3]
        u = Rh2 @ Xe
        b = Rh2 @ axis_dir
        x2 = tr.point(2)
        bx = np.cross(b, x2)
        ux = np.cross(u, x2)
        num += -float(bx @ ux)
        den += float(bx @ bx)
        scale += float(ux @ ux)
        used += 1
    if used == 0:
        raise InsufficientTracks("no usable 3-view track for the alpha solve")
    if den < 1e-18 * max(scale, 1.0):
        raise InsufficientTracks("3-view tracks are degenerate with the camera line")
    return num / den


def _a_rows_loop(P0, M2, e2, F02, tracks3):
    """Oracle: the former per-track a-system rows."""
    def P2_of(a):
        return np.hstack([M2, np.zeros((3, 1))]) + np.outer(e2, a)

    f0 = fundamental_from_projections(P0, P2_of(np.zeros(4))).ravel()
    L = np.zeros((9, 4))
    for k in range(4):
        ek = np.zeros(4)
        ek[k] = 1.0
        L[:, k] = fundamental_from_projections(P0, P2_of(ek)).ravel() - f0
    fhat = unit(np.asarray(F02, dtype=float).ravel())
    Proj = np.eye(9) - np.outer(fhat, fhat)
    rows = [Proj @ L]
    rhs = [-Proj @ f0]
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    for tr in tracks3:
        try:
            X = triangulate_dlt([P0, P1], tr.restrict((0, 1)))
        except DegenerateGeometry:
            continue
        x2 = tr.point(2)
        c = M2 @ X[:3]
        ex = np.cross(e2, x2)
        rows.append(np.outer(ex, X))
        rhs.append(-np.cross(c, x2))
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    norms = np.linalg.norm(A, axis=1)
    keep = norms > 1e-12 * max(float(np.max(norms)), 1.0)
    if not np.any(keep):
        raise DegenerateEpipole("every constraint row is degenerate (tracks at the epipole)")
    return A[keep] / norms[keep, None], b[keep] / norms[keep]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InsufficientTracks, DegenerateEpipole) as exc:
        return type(exc)


class TestStackedTrackSolves:
    """The stacked alpha and a-row solves against the per-track loops, on
    random tracks that include DLT-ambiguous and at-infinity points."""

    @staticmethod
    def _cases(rng):
        from conftest import random_rotation

        for _ in range(120):
            R0, R1, R2 = (random_rotation(rng) for _ in range(3))
            axis = unit(rng.normal(size=3))
            P0 = np.hstack([R0, np.zeros((3, 1))])
            P1 = np.hstack([R1, (R1 @ axis).reshape(3, 1)])
            P2 = np.hstack([R2, (rng.uniform(-3, 3) * R2 @ axis).reshape(3, 1)])
            tracks = []
            for kind in rng.integers(0, 6, size=int(rng.integers(1, 25))):
                if kind == 0:  # on the 0-1 baseline: ambiguous
                    Xh = np.append(-rng.uniform(-2, 2) * axis, 1.0)
                elif kind == 1:  # at infinity
                    Xh = np.append(rng.normal(size=3), 0.0)
                else:
                    Xh = np.append(3.0 * rng.normal(size=3), 1.0)
                xs = [P @ Xh for P in (P0, P1, P2)]
                if min(abs(x[2]) for x in xs) < 1e-3:
                    continue
                pts = np.array([x / x[2] for x in xs])
                if kind >= 4:
                    pts[:, :2] += rng.normal(scale=1e-3, size=(3, 2))
                tracks.append(Track((0, 1, 2), pts))
            if tracks:
                yield P0, P1, R2, axis, tracks

    def test_alpha_and_rows_equal_per_track_loops(self, rng):
        ambiguous = at_infinity = 0
        for P0, P1, R2, axis, tracks in self._cases(rng):
            _, X, amb = _triangulate_tracks3(P0, P1, tracks)
            ambiguous += int(np.sum(amb))
            at_infinity += int(np.sum(~amb & (np.abs(X[:, 3]) < 1e-12)))
            old = _outcome(_alpha_loop, P0, P1, R2, axis, tracks)
            new = _outcome(_alpha_least_squares, P0, P1, R2, axis, tracks)
            assert old is new if isinstance(old, type) else np.array_equal(old, new)
            M2, F02 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
            e2 = unit(rng.normal(size=3))
            old = _outcome(_a_rows_loop, P0, M2, e2, F02, tracks)
            new = _outcome(_a_system_rows, P0, M2, e2, F02, tracks)
            if isinstance(old, type):
                assert old is new
            else:
                assert np.array_equal(old[0], new[0]) and np.array_equal(old[1], new[1])
        assert ambiguous > 0 and at_infinity > 0  # both skip rules fired

    def test_tracks_in_any_view_order(self, rng):
        P0, P1, R2, axis, tracks = next(self._cases(rng))
        shuffled = [Track((2, 0, 1), tr.points[[2, 0, 1]]) for tr in tracks]
        assert np.array_equal(_triangulate_tracks3(P0, P1, tracks)[1],
                              _triangulate_tracks3(P0, P1, shuffled)[1])
