"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import time

import numpy as np
import pytest

from colsfm.averaging import (
    average,
    project,
)
from colsfm.errors import AmbiguousCheirality, ValidationError
from colsfm.geometry import bifocal_from_pair, camera_centers
from colsfm.graphs import (
    TripletCover,
    enrich_connectivity,
    insert_virtual_and_prune,
    sequential_cover,
    triangles,
)
from colsfm.io import save_report
from colsfm.metrics import align_similarity, mean_reprojection_error
from colsfm.nview import (
    certify_collinear_essential,
    certify_collinear_fundamental,
    certify_general,
)
from colsfm.pipeline import run_pipeline
from colsfm.recovery import recover_projective_collinear_triplet, register_global
from colsfm.synthetic import MeasurementNoise, generate, measure
from conftest import (
    banded, center_spread, collinear_triplet, covered_edges, exact_nview, exact_triplet, four_view,
    meets_stop, min_weight_cover, projections, projective_system, scene_cameras, seen_in,
    triplet_matrix, unit_bifocal,
)


def _announce(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _stopped_by_rule(out):
    """Whether the run converged with its last log entry inside the stop:
    both residuals below max(1e-9, _EPS x the RMS misfit)."""
    return out.converged and meets_stop(out.averaging_log[-1], len(out.cover.triplets))


def _moved(errors, recorded):
    """The largest relative change of the position errors from the recorded
    ones, over the seeds recorded with an error."""
    return max(abs(e / r - 1.0) for e, r in zip(errors, recorded) if r is not None)


# per-seed position errors of criteria 5 and 10, and of criterion 5's scenes
# with direction noise, as recorded while ADMM stopped at an absolute 1e-9
# with a feasibility polish after it, and the collinear gate counted the
# consensus eigenvalues above 1e-6 of the largest; the misfit-relative stop
# may move none by more than 1%.  None marks a seed whose run raised.
_RECORDED_C5 = [
    0.00783905, 0.00856746, 0.0125448, 0.0220834, 0.00880696, 0.0104161, 0.010845, 0.0125773,
    0.00944793, 0.0107461, 0.00860034, 0.0108956, 0.0112501, 0.00910422, 0.0120301, 0.013751,
    0.0111744, 0.0109757, 0.0100493, 0.0126684, 0.0084495, 0.00815152, 0.0134748, 0.0141537,
    0.0140611, 0.00829327, 0.0170453, 0.00987161, 0.00887259, 0.0109105,
]
_RECORDED_C10 = {
    "general": [
        0.0188199, 0.0187565, 0.0160103, 0.0155457, 0.014416, 0.01624, 0.0169374, 0.0142065,
        0.0105704, 0.017105, 0.0187845, 0.0202818, 0.0152881, 0.0187844, 0.021858, 0.0150109,
        0.0233765, 0.0186239, 0.0138482, 0.0255094, 0.0110078, 0.0177287, 0.0192508, 0.0146615,
        0.0217441, 0.0231224, 0.019533, 0.0248792, 0.0169618, 0.0207668,
    ],
    "mixed": [
        0.0126794, 0.0143802, 0.0222066, 0.0168395, 0.0187583, 0.0181697, 0.0149144, 0.0209147,
        0.0101096, 0.0173226, 0.0114511, 0.0180105, 0.0123166, 0.017101, 0.0307115, 0.0327196,
        0.0144768, 0.0163999, 0.0244407, 0.0146468, 0.0161291, 0.0123174, 0.018014, 0.0224848,
        0.0279739, 0.0147421, 0.0175211, 0.0168705, 0.0151348, 0.0213509,
    ],
}
# ADMM iterations summed over the 30 runs of criterion 5 and of criterion 11
# per layout, as recorded when every spectral kernel ran a full
# eigendecomposition at each step: a warm kernel that reaches the same fixed
# point by a shorter path may not take more
_ITERATIONS_C5 = 301
_ITERATIONS_C11 = {"general": 403, "mixed": 509}
# seeds of `_RECORDED_C5_DIR` whose reconstruction failed: position errors of
# 0.10 to 0.93 on a line of unit scale, against 0.011 to 0.045 on the others
_FAILED_C5_DIR = {16, 22, 27}
_RECORDED_C5_DIR = [
    0.0449154, 0.0189258, 0.0272196, None, 0.0183845, 0.014421, 0.0321685, 0.0153245, 0.033573,
    0.0268874, 0.0296747, 0.0208062, 0.0187916, 0.0215311, 0.0325945, 0.0345512, 0.117956,
    0.025053, 0.0196494, 0.0224772, 0.017989, 0.0114748, 0.928959, 0.0424873, 0.0242345,
    0.0159773, 0.0204055, 0.10105, 0.0183348, 0.0162668,
]


def _scene_sizes(count, lo=4, hi=20):
    return [lo + (k % (hi - lo + 1)) for k in range(count)]


def _recover_scene_calibrated(scene):
    cover = sequential_cover(scene.n)
    ts = scene.track_set()
    recs = []
    for t in cover.triplets:
        ids = sorted(t)
        E = exact_triplet(scene, ids)
        tr3 = ts.tracks(ids)
        tr2 = {(a, b): ts.tracks((ids[a], ids[b])) for (a, b) in ((0, 1), (0, 2), (1, 2))}
        recs.append(collinear_triplet(E, tr2, tr3))
    cameras = register_global(recs, cover, "euclidean", scene.n)
    return align_similarity(camera_centers(np.array(cameras)), scene.centers)


def _recover_scene_projective(scene):
    cover = sequential_cover(scene.n)
    ts = scene.track_set()
    recs = []
    for t in cover.triplets:
        ids = sorted(t)
        tr3 = ts.tracks(ids)
        F = {}
        for (a, b) in ((0, 1), (0, 2), (1, 2)):
            F[(a, b)] = unit_bifocal(*scene_cameras(scene), ids[a], ids[b])
        recs.append(
            recover_projective_collinear_triplet(
                projective_system(F[(0, 1)], F[(1, 2)], F[(0, 2)], tr3), 0)
        )
    cameras = register_global(recs, cover, "projective", scene.n)
    tracks = seen_in(ts, *((i, i + 1, i + 2) for i in range(scene.n - 2)))
    return mean_reprojection_error(cameras, *tracks)


def test_criterion_1_thm1_necessary():
    started = time.perf_counter()
    worst_pattern = worst_ortho = 0.0
    for k, n in enumerate(_scene_sizes(100)):
        scene = generate("collinear", n, 6, seed=1000 + k)
        cert = certify_collinear_essential(exact_nview(scene), tol=1e-8)
        assert cert.passed and cert.rank_estimate == 4
        worst_pattern = max(worst_pattern, cert.pattern_residual)
        worst_ortho = max(worst_ortho, cert.orthogonality_residual)
    elapsed = time.perf_counter() - started
    ok = worst_pattern < 1e-8 and worst_ortho < 1e-8 and elapsed < 10.0
    _announce(1, ok, f"100 collinear certificates pass; worst pattern residual "
                     f"{worst_pattern:.2e}, worst orthogonality {worst_ortho:.2e}, "
                     f"{elapsed:.1f}s (< 10s)")


def test_criterion_2_round_trip():
    worst_pos = 0.0
    for k, n in enumerate(_scene_sizes(100)):
        scene = generate("collinear", n, 6, seed=1000 + k)
        res = _recover_scene_calibrated(scene)
        worst_pos = max(worst_pos, float(np.max(res)))
    worst_reproj = 0.0
    for k, n in enumerate(_scene_sizes(100, lo=4, hi=10)):
        scene = generate("collinear", n, 8, seed=3000 + k, intrinsics_mode="varied")
        worst_reproj = max(worst_reproj, _recover_scene_projective(scene))
    ok = worst_pos < 1e-7 and worst_reproj < 1e-7
    _announce(2, ok, f"round trips: worst calibrated center error {worst_pos:.2e} (< 1e-7), "
                     f"worst projective reprojection {worst_reproj:.2e} px (< 1e-7)")


def test_criterion_3_thm2():
    for k, n in enumerate(_scene_sizes(100, lo=4, hi=12)):
        scene = generate("collinear", n, 6, seed=2000 + k, intrinsics_mode="varied")
        cert = certify_collinear_fundamental(exact_nview(scene))
        assert cert.passed
        assert cert.rank_estimate == 4 and cert.signature == (2, 2)
        assert all(r == 2 for r in cert.block_row_ranks)
    failures_named = 0
    for k, n in enumerate(_scene_sizes(100, lo=4, hi=12)):
        scene = generate("general", n, 6, seed=2500 + k, intrinsics_mode="varied")
        cert = certify_collinear_fundamental(exact_nview(scene))
        assert not cert.passed
        rank_bad = not cert.conditions["rank4_signature"] and cert.rank_estimate == 6
        rows_bad = not cert.conditions["block_rows_rank2"] and any(
            r == 3 for r in cert.block_row_ranks
        )
        assert rank_bad or rows_bad
        failures_named += 1
    _announce(3, failures_named == 100,
              "100 collinear fundamental matrices pass (rank 4, signature (2,2), "
              "block rows 2); 100 general ones fail on the stated conditions")


def test_criterion_4_projections():
    rng = np.random.default_rng(7)
    projections = [
        (("collinear", "essential"), 2, True),
        (("collinear", "fundamental"), 2, False),
        (("general", "essential"), 3, True),
        (("general", "fundamental"), 3, False),
    ]
    worst_idem = 0.0
    for which, need, paired in projections:
        for _ in range(1000):
            S = rng.normal(size=(9, 9))
            S = (S + S.T) / 2
            P1 = project(S, *which)[0]
            P2 = project(P1, *which)[0]
            worst_idem = max(worst_idem, float(np.linalg.norm(P2 - P1)))
            w = np.sort(np.linalg.eigvalsh(P1))[::-1]
            scale = float(np.max(np.abs(w)))
            assert np.all(np.abs(w[need:-need]) <= 1e-10 * scale)
            assert np.sum(w > 1e-10 * scale) == need
            assert np.sum(w < -1e-10 * scale) == need
            if paired:
                for k in range(need):
                    assert abs(w[k] + w[-1 - k]) <= 1e-10 * scale
    ok = worst_idem < 1e-10
    _announce(4, ok, f"4 x 1000 random projections: idempotency worst {worst_idem:.2e} "
                     f"(< 1e-10), output spectra exact (rank / signature / pairing)")


def _single_projection_floor(scene, noisy, tracks):
    """Per-seed recovery floor: each noisy triplet projected once (no
    consensus), recovered and registered."""
    cover = sequential_cover(scene.n)
    recs = []
    for t in cover.triplets:
        ids = sorted(t)
        M = noisy.submatrix(ids)
        P = project(M, "collinear", "essential")[0]
        tr3 = tracks.tracks(ids)
        tr2 = {(a, b): tracks.tracks((ids[a], ids[b])) for (a, b) in ((0, 1), (0, 2), (1, 2))}
        recs.append(collinear_triplet(P, tr2, tr3, tol=0.1))
    cameras = register_global(recs, cover, "euclidean", scene.n)
    return float(np.mean(align_similarity(camera_centers(np.array(cameras)), scene.centers)))


def test_criterion_5_r4_under_noise():
    converged = 0
    iterations = 0
    worst_time = 0.0
    ratios = []
    errors = []
    for seed in range(30):
        scene = generate("collinear", 20, 12, seed=seed)
        noisy, tracks = measure(scene, MeasurementNoise(rotation_deg=0.5), seed=seed)
        started = time.perf_counter()
        out = run_pipeline(noisy, tracks, "r4", "calibrated", scene)
        worst_time = max(worst_time, time.perf_counter() - started)
        converged += _stopped_by_rule(out)
        iterations += len(out.averaging_log)
        floor = _single_projection_floor(scene, noisy, tracks)
        errors.append(out.report.mean_position_error)
        ratios.append(errors[-1] / floor)
    moved = _moved(errors, _RECORDED_C5)
    ok = (converged >= 28 and max(ratios) < 5.0 and worst_time < 5.0 and moved <= 0.01
          and iterations <= _ITERATIONS_C5)
    _announce(5, ok, f"noisy R4: {converged}/30 seeds converged (>= 28) in {iterations} ADMM "
                     f"iterations (<= {_ITERATIONS_C5}), error vs "
                     f"single-projection recovery floor max ratio {max(ratios):.2f} (< 5), "
                     f"worst runtime {worst_time:.2f}s (< 5s), largest move from the "
                     f"recorded errors {100 * moved:.2f}% (<= 1%)")


def test_r4_direction_noise_recovers_at_the_precision_stop():
    # the collinear gate reads the consensus, which the stop leaves feasible
    # only to the data's precision: runs raise where they raised before (seed
    # 3, a cheirality tie), every other run converges, and the rest keep their
    # recorded positions; the seeds whose recorded reconstruction failed are
    # held to criterion 5's bound against the single-projection floor instead
    noise = MeasurementNoise(rotation_deg=0.5, translation_dir_deg=0.5)
    errors = []
    for seed in range(30):
        scene = generate("collinear", 20, 12, seed=seed)
        noisy, tracks = measure(scene, noise, seed=seed)
        if _RECORDED_C5_DIR[seed] is None:
            with pytest.raises(AmbiguousCheirality):
                run_pipeline(noisy, tracks, "r4", "calibrated", scene)
            errors.append(None)
            continue
        out = run_pipeline(noisy, tracks, "r4", "calibrated", scene)
        assert out.report.failure_stage is None and out.converged, seed
        if seed in _FAILED_C5_DIR:
            floor = _single_projection_floor(scene, noisy, tracks)
            assert out.report.mean_position_error / floor < 5.0, seed
            errors.append(None)
        else:
            errors.append(out.report.mean_position_error)
    pinned = [None if seed in _FAILED_C5_DIR else r for seed, r in enumerate(_RECORDED_C5_DIR)]
    assert _moved(errors, pinned) <= 0.01


def test_criterion_6_virtual_four_view():
    worst_rot = 0.0
    for k in range(100):
        scene = generate("collinear", 3, 6, seed=4000 + k)
        real = [bifocal_from_pair(*scene_cameras(scene), i, j) for (i, j) in ((0, 1), (0, 2), (1, 2))]
        # a virtual camera at X with the intrinsics and rotation of camera 1
        X = scene.points[k % len(scene.points)]
        K, R, C = scene_cameras(scene)
        virt = bifocal_from_pair(K[[0, 1, 2, 1]], R[[0, 1, 2, 1]], np.vstack([C, X]), [0, 1, 2], 3)
        m = four_view(real, virt, "essential")
        cert = certify_general(m, tol=1e-8)
        assert cert.passed
        assert cert.rank_estimate == 6 and cert.signature == (3, 3)
        worst_rot = max(worst_rot, cert.rotation_residual)
    ok = worst_rot < 1e-9
    _announce(6, ok, f"100 virtual 4-view matrices consistent: rank 6, signature (3,3), "
                     f"worst block-rotation residual {worst_rot:.2e} (< 1e-9)")


def test_criterion_7_vc_end_to_end():
    scene = generate("mixed", 12, 20, seed=96)
    m, tracks = measure(scene, seed=0)
    out = run_pipeline(m, tracks, "vc", "calibrated", scene)
    full_set = out.report.n_reconstructed == 12
    err_ok = out.report.mean_position_error < 1e-6

    # same scene through rank-6 averaging without virtual cameras: the
    # collinear triplets cannot satisfy the general-position certificate
    cover = enrich_connectivity(min_weight_cover(m.n, [(i, j, 1.0) for (i, j) in m.pairs.tolist()]))
    collinear_triplets = [
        t for t in cover.triplets
        if center_spread(scene, t) < 0.01
    ]
    res = average(m, cover, "general")
    failing = sum(
        1 for t in collinear_triplets
        if not certify_general(triplet_matrix(res, t), kind="essential", tol=1e-6).passed
    )
    ok = full_set and err_ok and collinear_triplets and failing == len(collinear_triplets)
    _announce(7, ok, f"VC mixed scene: 12/12 cameras, position error "
                     f"{out.report.mean_position_error:.2e} (< 1e-6); without virtual "
                     f"cameras {failing}/{len(collinear_triplets)} collinear triplet "
                     f"certificates fail")


def test_criterion_8_cover_machinery():
    rng = np.random.default_rng(11)
    checked = enriched = 0
    for trial in range(50):
        n = int(rng.integers(4, 12))
        p = float(rng.uniform(0.4, 1.0))
        edges = [
            (i, j, float(rng.integers(1, 50)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.uniform() < p
        ]
        seq = sequential_cover(n)
        assert seq.is_connected()
        for a, b in seq.dual_edges:
            assert len(set(a) & set(b)) == 2
        tris = triangles(n, [e[:2] for e in edges])
        if not tris:
            continue
        cover = min_weight_cover(n, edges)
        for a, b in cover.dual_edges:
            assert len(set(a) & set(b)) == 2
        assert covered_edges(cover) <= {e[:2] for e in edges}
        # the greedy cover is connected exactly when the triangles are, so
        # enrichment is a connectivity check
        full = TripletCover.from_triplets(tris)
        assert cover.is_connected() == full.is_connected()
        if full.is_connected():
            assert enrich_connectivity(cover) is cover
            enriched += 1
        # pruning on an insertion pass never disconnects (BFS oracle)
        if cover.is_connected():
            k = int(rng.integers(0, len(cover.triplets) + 1))
            marked = set(map(tuple, list(cover.triplets)[:k]))
            builder = {t: n + v for v, t in enumerate(t for t in cover.triplets if t in marked)}
            pruned = insert_virtual_and_prune(cover, builder)
            assert pruned.is_connected()
        checked += 1
    _announce(8, checked > 0 and enriched > 0,
              f"{checked} random graphs: cover invariants hold, {enriched} enrichment "
              f"instances connected, pruning kept connectivity (BFS oracle)")


def test_criterion_9_determinism(tmp_path):
    blobs = []
    for run in range(2):
        scene = generate("collinear", 10, 12, seed=42)
        noisy, tracks = measure(scene, MeasurementNoise(rotation_deg=0.3), seed=7)
        out = run_pipeline(noisy, tracks, "r4", "calibrated", scene)
        path = tmp_path / f"report_{run}.json"
        save_report(out.report, path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    _announce(9, ok, "two identical pipeline runs produced byte-identical report.json")


def test_criterion_10_vc_under_noise():
    # rotation and translation-direction noise on every pair, as no other gate
    noise = MeasurementNoise(rotation_deg=0.5, translation_dir_deg=0.5)
    lines = []
    ok = True
    for layout in ("general", "mixed"):
        converged = 0
        errors = []
        for seed in range(30):
            scene = generate(layout, 10, 12, seed=seed)
            noisy, tracks = measure(scene, noise, seed=seed)
            out = run_pipeline(noisy, tracks, "vc", "calibrated", scene)
            converged += _stopped_by_rule(out)
            err = out.report.mean_position_error
            errors.append(np.inf if err is None else err)
        worst, moved = max(errors), _moved(errors, _RECORDED_C10[layout])
        ok = ok and converged >= 29 and worst < 0.05 and moved <= 0.01
        lines.append(f"{layout} {converged}/30 converged (>= 29), worst position error "
                     f"{worst:.4f} (< 0.05), largest move from the recorded errors "
                     f"{100 * moved:.2f}% (<= 1%)")
    _announce(10, ok, "noisy calibrated VC, n=10, 0.5 deg rotation and direction noise: "
                      + "; ".join(lines))


def test_criterion_10_mixed_seed_18_converges():
    # criterion 10's scene whose cover holds a triplet against a virtual
    # camera: its ADMM converges only with the warm-started retraction
    scene = generate("mixed", 10, 12, seed=18)
    noisy, tracks = measure(scene, MeasurementNoise(rotation_deg=0.5, translation_dir_deg=0.5), seed=18)
    out = run_pipeline(noisy, tracks, "vc", "calibrated", scene)
    assert out.cover.virtual_nodes
    assert _stopped_by_rule(out)


def test_banded_vc_stops_by_the_rule():
    # a sparse viewing graph (the blocks j - i <= 3) of noisy mixed scenes:
    # the cover inserts virtual cameras for the first cameras, which sit on
    # the scene's line, and ADMM must still stop by the rule within its
    # budget; every run finishes or raises a typed error
    stopped = 0
    for seed in range(32):
        scene = generate("mixed", 10, 12, seed=seed)
        noisy, tracks = measure(scene, MeasurementNoise(rotation_deg=0.5), seed=seed)
        try:
            out = run_pipeline(banded(noisy), tracks, "vc", "calibrated", scene)
        except ValidationError:
            continue
        stopped += _stopped_by_rule(out)
    assert stopped >= 31, f"{stopped}/32 banded runs stopped by the rule"


def test_criterion_11_uncalibrated_vc_under_noise():
    noise = MeasurementNoise(rotation_deg=0.5, translation_dir_deg=0.5)
    lines = []
    ok = True
    for layout in ("general", "mixed"):
        converged = 0
        iterations = 0
        worst = 0.0
        for seed in range(30):
            scene = generate(layout, 10, 12, seed=seed, intrinsics_mode="varied")
            noisy, tracks = measure(scene, noise, seed=seed)
            out = run_pipeline(noisy, tracks, "vc", "uncalibrated", scene)
            converged += _stopped_by_rule(out)
            iterations += len(out.averaging_log)
            err = out.report.mean_reprojection_error
            worst = max(worst, np.inf if err is None else err)
        ok = ok and converged >= 28 and worst < 0.03 and iterations <= _ITERATIONS_C11[layout]
        lines.append(f"{layout} {converged}/30 converged (>= 28) in {iterations} ADMM iterations "
                     f"(<= {_ITERATIONS_C11[layout]}), worst reprojection error {worst:.4f} (< 0.03)")
    _announce(11, ok, "noisy uncalibrated VC, n=10, varied intrinsics, 0.5 deg rotation and "
                      "direction noise: " + "; ".join(lines))


def test_criterion_12_uncalibrated_r4_at_the_pixel_floor():
    # every view scored (the report scores three); the floor is the same
    # score for the true cameras on the same noisy tracks
    noise = MeasurementNoise(rotation_deg=0.5, pixel=1e-3)
    ratios, typed = [], 0
    for seed in range(30):
        scene = generate("collinear", 30, 20, seed=seed, intrinsics_mode="varied")
        noisy, tracks = measure(scene, noise, seed=seed)
        floor = mean_reprojection_error(list(projections(*scene_cameras(scene))), tracks.points,
                                        tracks.visible)
        try:
            out = run_pipeline(noisy, tracks, "r4", "uncalibrated", scene)
        except ValidationError:
            typed += 1
            continue
        error = mean_reprojection_error(out.cameras, tracks.points, tracks.visible)
        ratios.append(error / floor if np.isfinite(error) else np.inf)
    ok = all(r <= 2.0 for r in ratios)
    _announce(12, ok, f"noisy uncalibrated R4, n=30, varied intrinsics, 0.5 deg rotation and "
                      f"1e-3 pixel noise: {typed}/30 runs typed, the rest at most "
                      f"{max(ratios, default=0.0):.3f} (<= 2) times the all-view pixel floor")
