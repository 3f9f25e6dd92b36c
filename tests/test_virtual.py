import numpy as np
import projective_oracle
import pytest

import colsfm.virtual
from colsfm.errors import NoValidPoint, RankDeficient
from colsfm.geometry import (
    CameraModel,
    bifocal_from_pair,
    epipole_table,
    epipoles,
    fundamental_from_projections,
    normalized_tensor,
    symmetric_epipolar_distance,
    unit,
)
from colsfm.nview import certify_general
from colsfm.averaging import project
from colsfm.graphs import pair_rows, sequential_cover
from colsfm.recovery import projective_systems, recover_projective_collinear_triplet
from colsfm.synthetic import MeasurementNoise, generate, measure
from colsfm.virtual import (
    select_virtual_point,
    v_matrices_from_cameras,
    v_matrices_from_essentials,
    virtual_bifocals,
)

from conftest import four_view, projective_system, unit_bifocal


PAIRS = ((0, 1), (0, 2), (1, 2))


def _triplet_tensors(scene, ids=(0, 1, 2)):
    """The (3, 3, 3) unit tensors of a triplet in local pair order."""
    return np.array([unit_bifocal(scene.cameras[ids[a]], scene.cameras[ids[b]])
                     for (a, b) in PAIRS])


def _select(tracks, tensors):
    return select_virtual_point(tracks, tensors, epipoles(tensors))


def _essential_bifocals(tensors, track, tracks):
    """virtual_bifocals of one calibrated triplet, its V-matrices resolved by
    the cheirality of tracks."""
    V, ties = v_matrices_from_essentials(tensors[None], [np.asarray(tracks)])
    assert ties == [None]
    return virtual_bifocals(V[0], track)


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
        assert np.array_equal(_select(tracks, tensors), tracks[0])

    def test_all_tracks_near_epipole_rejected(self, collinear_scene):
        tensors = _triplet_tensors(collinear_scene)
        # a point on the camera line projects onto every epipole
        c = collinear_scene.centers()
        X = c[0] + 1.9 * (c[1] - c[0])
        pts = [collinear_scene.cameras[i].project(X) for i in range(3)]
        bad = np.vstack(pts)[None]
        with pytest.raises(NoValidPoint):
            _select(bad, tensors)

    def test_noiseless_tracks_minimize_distance(self, collinear_scene):
        tensors = _triplet_tensors(collinear_scene)
        tracks = _local_tracks3(collinear_scene)
        chosen = _select(tracks, tensors)
        total = 0.0
        from colsfm.geometry import symmetric_epipolar_distance

        for k, (i, j) in enumerate(PAIRS):
            total += symmetric_epipolar_distance(tensors[k], chosen[i], chosen[j])
        assert total < 1e-15
        # deterministic selection
        assert np.array_equal(_select(tracks, tensors), chosen)
        # exact ties break by track order: negated homogeneous points are the
        # same image points with bit-identical distances
        dup = np.stack([tracks[0], -tracks[0]])
        assert np.array_equal(_select(dup, tensors), dup[0])
        assert np.array_equal(_select(dup[::-1], tensors), dup[1])

    def test_each_epipole_computed_once(self, monkeypatch):
        # the six epipoles come from the table, so selection makes no SVD
        scene = generate("collinear", 3, 20, seed=3)
        tensors = _triplet_tensors(scene)
        table = epipoles(tensors)
        tracks = _local_tracks3(scene)
        assert len(tracks) == 20
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0])
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        select_virtual_point(tracks, tensors, table)
        assert calls == []

    def test_no_tracks_rejected_before_any_epipole(self):
        # the rank-deficient tensor is never reached without a track
        # and no epipole is read: None would fail at the first lookup
        tensors = np.array([np.diag([1.0, 0.0, 0.0])] * 3)
        with pytest.raises(NoValidPoint):
            select_virtual_point([], tensors, None)

    def test_rank_deficient_tensor_rejected(self, collinear_scene):
        tensors = _triplet_tensors(collinear_scene)
        tensors[2] = np.diag([1.0, 0.0, 0.0])
        with pytest.raises(RankDeficient):
            _select(_local_tracks3(collinear_scene), tensors)


def _oracle_select(tracks3, tensors, margin=1e-2):
    """Index of the track the per-track loop that select_virtual_point
    replaced picks, or None when every track is within the margin."""
    def image(x):
        return None if abs(x[2]) < 1e-12 * np.linalg.norm(x) else x[:2] / x[2]

    def distance(x, e):
        if image(x) is None:
            return 0.0
        return np.inf if image(e) is None else float(np.linalg.norm(image(x) - image(e)))

    best = None
    for idx, tr in enumerate(tracks3):
        if any(distance(tr[v], epipoles(tensors[k])[0, int(v != i)]) < margin
               for v in range(3) for k, (i, j) in enumerate(PAIRS) if v in (i, j)):
            continue
        total = sum(symmetric_epipolar_distance(tensors[k], tr[i], tr[j])
                    for k, (i, j) in enumerate(PAIRS))
        if best is None or total < best[0]:
            best = (total, idx)
    return None if best is None else best[1]


def test_select_virtual_point_matches_loop_oracle(monkeypatch):
    outcomes = set()
    for seed in range(24):
        scene = generate(("collinear", "general", "mixed")[seed % 3], 5, 25, seed=seed)
        tensors = _triplet_tensors(scene, (0, 2, 4))
        exact = _local_tracks3(scene, (0, 2, 4))
        noisy = scene.track_set(pixel_noise=1e-3).tracks((0, 2, 4))
        for cands in (exact, noisy):
            for margin in (1e-2, 0.3, 3.0):
                monkeypatch.setattr(colsfm.virtual, "_EPIPOLE_MARGIN", margin)
                want = _oracle_select(cands, tensors, margin)
                if want is None:
                    with pytest.raises(NoValidPoint):
                        _select(cands, tensors)
                else:
                    assert np.array_equal(_select(cands, tensors), cands[want])
                outcomes.add(want is None)
    assert outcomes == {True, False}  # both a pick and a rejection are checked


class TestVirtualBifocals:
    def test_orientation_source_gives_skew(self, collinear_scene):
        # the middle camera's tensor is just the skew of its image point
        tr = _local_tracks3(collinear_scene)[0]
        tensors = _triplet_tensors(collinear_scene)
        out = _essential_bifocals(tensors, tr, tr[None])
        from colsfm.geometry import skew

        expected = normalized_tensor(skew(tr[1]))
        assert np.allclose(out[1], expected, atol=1e-12)

    def test_matches_oracle_virtual_camera_calibrated(self, collinear_scene):
        scene = collinear_scene
        tracks = _local_tracks3(scene)
        tr = tracks[0]
        tensors = _triplet_tensors(scene)
        out = _essential_bifocals(tensors, tr, tracks)
        truth = _true_virtual_blocks(scene, scene.points[0])
        for a, tb in zip(out, truth):
            b = normalized_tensor(tb)
            assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < 1e-9
            s = np.linalg.svd(a, compute_uv=False)
            assert s[2] < 1e-9 * s[0]

    def test_matches_oracle_from_recovered_projective_cameras(self, collinear_projective_scene):
        # the virtual camera lives in the recovered canonical frame (P1=[I|0],
        # so V_X = I): oracle is the tensor against [I | -X'] with X' the
        # track point triangulated in that frame
        scene = collinear_projective_scene
        tensors = _triplet_tensors(scene)
        tracks = _local_tracks3(scene)
        rec = recover_projective_collinear_triplet(projective_system(tensors[0], tensors[2], tensors[1], tracks), 0)
        tr = tracks[2]
        out = virtual_bifocals(v_matrices_from_cameras(rec), tr)
        from colsfm.geometry import triangulate

        X, ambiguous = triangulate(np.array(rec[:2]), tr[:2])
        assert not ambiguous
        Xe = X[:3] / X[3]
        P_virtual = np.hstack([np.eye(3), -Xe.reshape(3, 1)])
        for i in range(3):
            a = out[i]
            b = normalized_tensor(fundamental_from_projections(rec[i], P_virtual))
            assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < 1e-8

    def test_v_matrices_equal_per_camera_loop(self):
        # the one product against the former per-camera loop, bit for bit, on
        # projective triplets recovered from noisy measurements of both layouts
        checked = 0
        for seed in range(15):
            for layout in ("collinear", "general"):
                scene = generate(layout, 6, 10, seed=300 + seed, intrinsics_mode="varied")
                m, ts = measure(scene, MeasurementNoise(0.5, 0.5), seed=seed)
                triplets = sequential_cover(6).triplets
                pairs, rows = pair_rows(triplets)
                F = normalized_tensor(m.tensors[m.slots(pairs)])
                system = projective_systems(F, rows, epipole_table(F), [ts.tracks(t) for t in triplets])
                for k in range(len(triplets)):
                    cams = recover_projective_collinear_triplet(system, k)
                    assert np.array_equal(v_matrices_from_cameras(cams),
                                          projective_oracle.v_matrices_from_cameras(cams))
                    checked += 1
        assert checked == 120

    def test_projection_scale_invariance(self, collinear_scene):
        tensors = _triplet_tensors(collinear_scene)
        tracks = _local_tracks3(collinear_scene)
        tr = tracks[0]
        out1 = _essential_bifocals(tensors, tr, tracks)
        # rescaling homogeneous points then re-dehomogenizing is a no-op here
        tr2 = (tr * 7.3) / 7.3
        out2 = _essential_bifocals(tensors, tr2, tracks)
        assert np.allclose(out1, out2, atol=1e-12)

    def test_epipole_of_virtual_tensor_is_point_image(self, collinear_scene):
        # right epipole of F_iX = image of the virtual center X in view i
        scene = collinear_scene
        tracks = _local_tracks3(scene)
        tr = tracks[0]
        tensors = _triplet_tensors(scene)
        out = _essential_bifocals(tensors, tr, tracks)
        for i in range(3):
            e = epipoles(out[i])[0, 0]
            img = unit(tr[i])
            assert min(np.linalg.norm(e - img), np.linalg.norm(e + img)) < 1e-9


class TestFourViewMatrix:
    def test_oracle_consistent_rank6(self):
        for seed in range(3):
            scene = generate("collinear", 3, 8, seed=80 + seed)
            X = scene.points[0]
            real = [bifocal_from_pair(scene.cameras[i], scene.cameras[j]) for (i, j) in PAIRS]
            virt = _true_virtual_blocks(scene, X)
            m = four_view(real, virt, "essential")
            cert = certify_general(m, tol=1e-8)
            assert cert.passed
            assert cert.rank_estimate == 6
            assert cert.signature == (3, 3)
            assert cert.rotation_residual < 1e-9

    def test_virtual_point_on_camera_line_stays_rank4(self):
        scene = generate("collinear", 3, 8, seed=83)
        c = scene.centers()
        X = c[0] + 0.4 * (c[2] - c[0])  # on the line
        real = [bifocal_from_pair(scene.cameras[i], scene.cameras[j]) for (i, j) in PAIRS]
        virt = _true_virtual_blocks(scene, X)
        m = four_view(real, virt, "essential")
        cert = certify_general(m)
        assert not cert.passed
        assert cert.rank_estimate == 4

    def test_consistent_matrix_fixed_under_projection(self):
        scene = generate("collinear", 3, 8, seed=84)
        real = [bifocal_from_pair(scene.cameras[i], scene.cameras[j]) for (i, j) in PAIRS]
        virt = _true_virtual_blocks(scene, scene.points[1])
        M = four_view(real, virt, "essential").dense()
        P = project(M, "general", "essential")[0]
        assert np.linalg.norm(P - M) < 1e-10 * np.linalg.norm(M)
