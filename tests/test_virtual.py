import numpy as np
import pytest

from colsfm.errors import MissingRecovery, NoValidPoint, RankDeficient
from colsfm.geometry import (
    BifocalTensor,
    CameraModel,
    bifocal_from_pair,
    epipole,
    fundamental_from_projections,
    normalized_tensor,
    symmetric_epipolar_distance,
    unit,
)
from colsfm.graphs import collinearity_score
from colsfm.nview import certify_general
from colsfm.averaging import project_general_essential
from colsfm.recovery import recover_projective_collinear_triplet
from colsfm.synthetic import generate
from colsfm.virtual import four_view_matrix, select_virtual_point, virtual_bifocals

from conftest import unit_bifocal


def _triplet_tensors(scene, ids=(0, 1, 2)):
    out = {}
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        ga, gb = ids[a], ids[b]
        out[(a, b)] = unit_bifocal(scene.cameras[ga], scene.cameras[gb])
    return out


def _local_tracks3(scene, ids=(0, 1, 2)):
    return scene.track_set().tracks(sorted(ids))


def _virtual_camera_model(scene, X, source=1):
    cam2 = scene.cameras[source]
    return CameraModel(cam2.intrinsics, cam2.rotation, X)


def _true_virtual_blocks(scene, X, ids=(0, 1, 2)):
    vc = _virtual_camera_model(scene, X)
    return [bifocal_from_pair(scene.cameras[i], vc) for i in ids]


class TestSelectVirtualPoint:
    def test_single_far_track_returned(self, collinear_scene):
        tensors = _triplet_tensors(collinear_scene)
        tracks = _local_tracks3(collinear_scene)[:1]
        assert np.array_equal(select_virtual_point(tracks, tensors), tracks[0])

    def test_all_tracks_near_epipole_rejected(self, collinear_scene):
        tensors = _triplet_tensors(collinear_scene)
        # a point on the camera line projects onto every epipole
        c = collinear_scene.centers()
        X = c[0] + 1.9 * (c[1] - c[0])
        pts = [collinear_scene.cameras[i].project(X) for i in range(3)]
        bad = np.vstack(pts)[None]
        with pytest.raises(NoValidPoint):
            select_virtual_point(bad, tensors)

    def test_noiseless_tracks_minimize_distance(self, collinear_scene):
        tensors = _triplet_tensors(collinear_scene)
        tracks = _local_tracks3(collinear_scene)
        chosen = select_virtual_point(tracks, tensors)
        total = 0.0
        from colsfm.geometry import symmetric_epipolar_distance

        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            total += symmetric_epipolar_distance(
                tensors[(i, j)], chosen[i], chosen[j]
            )
        assert total < 1e-15
        # deterministic selection
        assert np.array_equal(select_virtual_point(tracks, tensors), chosen)
        # exact ties break by track order: negated homogeneous points are the
        # same image points with bit-identical distances
        dup = np.stack([tracks[0], -tracks[0]])
        assert np.array_equal(select_virtual_point(dup, tensors), dup[0])
        assert np.array_equal(select_virtual_point(dup[::-1], tensors), dup[1])

    def test_each_epipole_computed_once(self, monkeypatch):
        import colsfm.virtual

        scene = generate("collinear", 3, 20, seed=3)
        tensors = _triplet_tensors(scene)
        tracks = _local_tracks3(scene)
        assert len(tracks) == 20
        calls = []

        def counted(t, side):
            calls.append(side)
            return epipole(t, side)

        monkeypatch.setattr(colsfm.virtual, "epipole", counted)
        select_virtual_point(tracks, tensors)
        assert len(calls) <= 6

    def test_no_tracks_rejected_before_any_epipole(self):
        # the rank-deficient tensor is never reached without a track
        tensors = {k: np.diag([1.0, 0.0, 0.0]) for k in ((0, 1), (0, 2), (1, 2))}
        with pytest.raises(NoValidPoint):
            select_virtual_point([], tensors)

    def test_rank_deficient_tensor_rejected(self, collinear_scene):
        tensors = dict(_triplet_tensors(collinear_scene))
        tensors[(1, 2)] = np.diag([1.0, 0.0, 0.0])
        with pytest.raises(RankDeficient):
            select_virtual_point(_local_tracks3(collinear_scene), tensors)


def _oracle_select(tracks3, tensors, margin=1e-2):
    """Index of the track the per-track loop that select_virtual_point
    replaced picks, or None when every track is within the margin."""
    def image(x):
        return None if abs(x[2]) < 1e-12 * np.linalg.norm(x) else x[:2] / x[2]

    def distance(x, e):
        if image(x) is None:
            return 0.0
        return np.inf if image(e) is None else float(np.linalg.norm(image(x) - image(e)))

    pairs = ((0, 1), (0, 2), (1, 2))
    best = None
    for idx, tr in enumerate(tracks3):
        if any(distance(tr[v], epipole(tensors[(i, j)], "left" if v == i else "right")) < margin
               for v in range(3) for (i, j) in pairs if v in (i, j)):
            continue
        total = sum(symmetric_epipolar_distance(tensors[p], tr[p[0]], tr[p[1]])
                    for p in pairs)
        if best is None or total < best[0]:
            best = (total, idx)
    return None if best is None else best[1]


def test_select_virtual_point_matches_loop_oracle():
    outcomes = set()
    for seed in range(24):
        scene = generate(("collinear", "general", "mixed")[seed % 3], 5, 25, seed=seed)
        tensors = _triplet_tensors(scene, (0, 2, 4))
        exact = _local_tracks3(scene, (0, 2, 4))
        noisy = scene.track_set(pixel_noise=1e-3).tracks((0, 2, 4))
        for cands in (exact, noisy):
            for margin in (1e-2, 0.3, 3.0):
                want = _oracle_select(cands, tensors, margin)
                if want is None:
                    with pytest.raises(NoValidPoint):
                        select_virtual_point(cands, tensors, margin)
                else:
                    assert np.array_equal(select_virtual_point(cands, tensors, margin), cands[want])
                outcomes.add(want is None)
    assert outcomes == {True, False}  # both a pick and a rejection are checked


class TestVirtualBifocals:
    def test_orientation_source_gives_skew(self, collinear_scene):
        # the middle camera's tensor is just the skew of its image point
        tr = _local_tracks3(collinear_scene)[0]
        tensors = _triplet_tensors(collinear_scene)
        out = virtual_bifocals(tensors, tr, "essential")
        from colsfm.geometry import skew

        expected = normalized_tensor(skew(tr[1]))
        assert np.allclose(out[1].matrix, expected, atol=1e-12)

    def test_matches_oracle_virtual_camera_calibrated(self, collinear_scene):
        scene = collinear_scene
        tracks = _local_tracks3(scene)
        tr = tracks[0]
        tensors = _triplet_tensors(scene)
        out = virtual_bifocals(tensors, tr, "essential", tracks=tracks)
        truth = _true_virtual_blocks(scene, scene.points[0])
        for est, tb in zip(out, truth):
            a = est.matrix
            b = normalized_tensor(tb.matrix)
            assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < 1e-9
            s = est.singular_values()
            assert s[2] < 1e-9 * s[0]

    def test_matches_oracle_from_recovered_projective_cameras(self, collinear_projective_scene):
        # the virtual camera lives in the recovered canonical frame (P1=[I|0],
        # so V_X = I): oracle is the tensor against [I | -X'] with X' the
        # track point triangulated in that frame
        scene = collinear_projective_scene
        tensors = _triplet_tensors(scene)
        tracks = _local_tracks3(scene)
        rec = recover_projective_collinear_triplet(
            tensors[(0, 1)], tensors[(1, 2)], tensors[(0, 2)], tracks
        )
        tr = tracks[2]
        out = virtual_bifocals(rec, tr, "fundamental")
        from colsfm.geometry import triangulate_dlt

        X = triangulate_dlt([rec.cameras[0], rec.cameras[1]], tr[:2])
        Xe = X[:3] / X[3]
        P_virtual = np.hstack([np.eye(3), -Xe.reshape(3, 1)])
        for i in range(3):
            a = out[i].matrix
            b = normalized_tensor(fundamental_from_projections(rec.cameras[i], P_virtual))
            assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < 1e-8

    def test_projection_scale_invariance(self, collinear_scene):
        tensors = _triplet_tensors(collinear_scene)
        tracks = _local_tracks3(collinear_scene)
        tr = tracks[0]
        out1 = virtual_bifocals(tensors, tr, "essential", tracks=tracks)
        # rescaling homogeneous points then re-dehomogenizing is a no-op here
        tr2 = (tr * 7.3) / 7.3
        out2 = virtual_bifocals(tensors, tr2, "essential", tracks=tracks)
        for a, b in zip(out1, out2):
            assert np.allclose(a.matrix, b.matrix, atol=1e-12)

    def test_projective_without_recovery_rejected(self, collinear_projective_scene):
        tensors = _triplet_tensors(collinear_projective_scene)
        tr = _local_tracks3(collinear_projective_scene)[0]
        with pytest.raises(MissingRecovery):
            virtual_bifocals(tensors, tr, "fundamental")

    def test_epipole_of_virtual_tensor_is_point_image(self, collinear_scene):
        # right epipole of F_iX = image of the virtual center X in view i
        scene = collinear_scene
        tracks = _local_tracks3(scene)
        tr = tracks[0]
        tensors = _triplet_tensors(scene)
        out = virtual_bifocals(tensors, tr, "essential", tracks=tracks)
        for i in range(3):
            e = epipole(out[i].matrix, "left")
            img = unit(tr[i])
            assert min(np.linalg.norm(e - img), np.linalg.norm(e + img)) < 1e-9


class TestFourViewMatrix:
    def test_oracle_consistent_rank6(self):
        for seed in range(3):
            scene = generate("collinear", 3, 8, seed=80 + seed)
            X = scene.points[0]
            real = {
                (i, j): bifocal_from_pair(scene.cameras[i], scene.cameras[j])
                for (i, j) in ((0, 1), (0, 2), (1, 2))
            }
            virt = _true_virtual_blocks(scene, X)
            m = four_view_matrix(real, virt)
            cert = certify_general(m, tol=1e-8)
            assert cert.passed
            assert cert.rank_estimate == 6
            assert cert.signature == (3, 3)
            assert cert.rotation_residual < 1e-9

    def test_virtual_point_on_camera_line_stays_rank4(self):
        scene = generate("collinear", 3, 8, seed=83)
        c = scene.centers()
        X = c[0] + 0.4 * (c[2] - c[0])  # on the line
        real = {
            (i, j): bifocal_from_pair(scene.cameras[i], scene.cameras[j])
            for (i, j) in ((0, 1), (0, 2), (1, 2))
        }
        virt = _true_virtual_blocks(scene, X)
        m = four_view_matrix(real, virt)
        cert = certify_general(m)
        assert not cert.passed
        assert cert.rank_estimate == 4

    def test_consistent_matrix_fixed_under_projection(self):
        scene = generate("collinear", 3, 8, seed=84)
        real = {
            (i, j): bifocal_from_pair(scene.cameras[i], scene.cameras[j])
            for (i, j) in ((0, 1), (0, 2), (1, 2))
        }
        virt = _true_virtual_blocks(scene, scene.points[1])
        M = four_view_matrix(real, virt).dense()
        P = project_general_essential(M).matrix
        assert np.linalg.norm(P - M) < 1e-10 * np.linalg.norm(M)


class TestReversedPairKeys:
    """A tensor given under the reversed key (1, 0) is F_10 = F_01^T, the
    orientation `NViewBifocal.assemble` reads; every tensor-dict consumer
    must see the same triplet as under the sorted key."""

    @staticmethod
    def _both_keyings():
        scene = generate("general", 3, 12, seed=5)
        tensors = _triplet_tensors(scene)
        F = tensors[(0, 1)]
        reversed_keys = {(1, 0): BifocalTensor(F.matrix.T, F.kind),
                         (0, 2): tensors[(0, 2)], (1, 2): tensors[(1, 2)]}
        return scene, tensors, reversed_keys

    def test_collinearity_score(self):
        _, tensors, reversed_keys = self._both_keyings()
        assert collinearity_score(reversed_keys) == collinearity_score(tensors)
        plain = {k: t.matrix for k, t in reversed_keys.items()}
        assert collinearity_score(plain) == collinearity_score(tensors)

    def test_select_virtual_point_and_bifocals(self):
        scene, tensors, reversed_keys = self._both_keyings()
        tracks = _local_tracks3(scene)
        track = select_virtual_point(tracks, tensors)
        assert np.array_equal(select_virtual_point(tracks, reversed_keys), track)
        want = virtual_bifocals(tensors, track, "essential", tracks=tracks)
        got = virtual_bifocals(reversed_keys, track, "essential", tracks=tracks)
        assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(got, want))
