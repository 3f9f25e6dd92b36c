import hashlib
import json

import numpy as np
import pytest

from colsfm.averaging import AdmmConfig
from colsfm.errors import DegenerateEpipole, ValidationError
from colsfm.io import (
    load_cameras,
    load_measurements,
    load_scene,
    save_cameras,
    save_measurements,
    save_report,
    save_scene,
    write_convergence_log,
)
from colsfm.nview import certify_general
from colsfm.pipeline import PipelineConfig, run_pipeline
from colsfm.synthetic import MeasurementNoise, generate, measure


class TestIO:
    def test_scene_round_trip(self, tmp_path):
        scene = generate("mixed", 6, 8, seed=90, intrinsics_mode="varied")
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        back = load_scene(path)
        assert back.n == scene.n
        assert np.array_equal(back.points, scene.points)
        for a, b in zip(scene.cameras, back.cameras):
            assert np.array_equal(a.intrinsics, b.intrinsics)
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.center, b.center)

    def test_measurements_round_trip(self, tmp_path):
        scene = generate("collinear", 5, 6, seed=91)
        nview, tracks = measure(scene, seed=0)
        path = tmp_path / "m.json"
        save_measurements(nview, tracks, path)
        nview2, tracks2 = load_measurements(path)
        assert nview2.n == nview.n and nview2.kind == nview.kind
        for e in nview.edges():
            assert np.array_equal(nview.blocks[e].matrix, nview2.blocks[e].matrix)
        assert len(tracks2.observations) == len(tracks.observations)
        assert np.array_equal(tracks2.observations[0][2], tracks.observations[0][2])

    def test_cameras_round_trip(self, tmp_path):
        cams = [np.arange(12, dtype=float).reshape(3, 4), None]
        path = tmp_path / "c.json"
        save_cameras(cams, "euclidean", path)
        back, frame = load_cameras(path)
        assert frame == "euclidean"
        assert np.array_equal(back[0], cams[0])
        assert back[1] is None

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"cameras": [{"K": [1,2]}], "points": []}')
        with pytest.raises(ValidationError):
            load_scene(path)

    def test_convergence_log_lines(self, tmp_path):
        path = tmp_path / "c.log"
        write_convergence_log(
            [{"iteration": 1, "objective": 0.5, "primal_residual": 1e-3, "dual_residual": 1e-4}],
            path,
        )
        lines = path.read_text().strip().splitlines()
        rec = json.loads(lines[0])
        assert rec["iteration"] == 1


class TestPipelineR4:
    def test_calibrated_noiseless_end_to_end(self):
        scene = generate("collinear", 20, 20, seed=92)
        m, tracks = measure(scene, seed=0)
        out = run_pipeline(m, tracks, "r4", "calibrated", scene)
        assert out.converged
        assert out.report.n_reconstructed == 20
        assert out.report.mean_position_error < 1e-7
        assert out.report.mean_reprojection_error < 1e-7

    def test_uncalibrated_noiseless(self):
        scene = generate("collinear", 8, 16, seed=93, intrinsics_mode="varied")
        m, tracks = measure(scene, seed=0)
        out = run_pipeline(m, tracks, "r4", "uncalibrated", scene)
        assert out.converged
        assert out.report.mean_position_error is None
        assert out.report.mean_reprojection_error < 1e-7

    def test_mixed_scene_rejected(self):
        scene = generate("mixed", 12, 16, seed=94)
        m, tracks = measure(scene, seed=0)
        with pytest.raises(ValidationError):
            run_pipeline(m, tracks, "r4", "calibrated", scene)


class TestPipelineVC:
    def test_fully_collinear_calibrated(self):
        scene = generate("collinear", 8, 16, seed=95)
        m, tracks = measure(scene, seed=0)
        out = run_pipeline(m, tracks, "vc", "calibrated", scene)
        assert out.converged
        assert out.report.mean_position_error < 1e-6
        assert len(out.cover.virtual_nodes) >= 1

    def test_mixed_scene_recovers_all(self):
        scene = generate("mixed", 12, 20, seed=96)
        m, tracks = measure(scene, seed=0)
        out = run_pipeline(m, tracks, "vc", "calibrated", scene)
        assert out.report.n_reconstructed == 12
        assert out.report.mean_position_error < 1e-6

    def test_mixed_uncalibrated(self):
        scene = generate("mixed", 9, 20, seed=97, intrinsics_mode="varied")
        m, tracks = measure(scene, seed=0)
        out = run_pipeline(m, tracks, "vc", "uncalibrated", scene)
        assert out.report.mean_reprojection_error < 1e-6

    def test_without_virtual_cameras_collinear_triplet_fails_certificate(self):
        # the failure mode the virtual cameras fix: plain rank-6 averaging on
        # a cover containing a collinear triplet cannot make it consistent
        scene = generate("mixed", 12, 20, seed=96)
        m, tracks = measure(scene, seed=0)
        from colsfm.averaging import average
        from colsfm.graphs import ViewingGraph, collinearity_score, enrich_connectivity, heuristic_cover

        g = ViewingGraph.from_edges(m.n, [(i, j, 1.0) for (i, j) in m.edges()])
        cover = enrich_connectivity(heuristic_cover(g), g.triangles())
        collinear_triplets = [
            t for t in cover.triplets
            if collinearity_score([scene.cameras[i].center for i in t]) < 0.01
        ]
        assert collinear_triplets, "cover should contain collinear triplets"
        res = average(m, cover, "general")
        bad = collinear_triplets[0]
        cert = certify_general(res.triplet_matrix(bad), kind="essential", tol=1e-6)
        assert not cert.passed


class TestPipelineNoVirtual:
    """insert_virtual=False: plain rank-6 averaging on a mixed scene whose
    cover holds collinear triplets, the failure the virtual cameras fix."""

    def test_calibrated_ends_in_named_failure(self):
        scene = generate("mixed", 9, 20, seed=96)
        m, tracks = measure(scene, seed=0)
        out = run_pipeline(m, tracks, "vc", "calibrated", scene, PipelineConfig(insert_virtual=False))
        assert not out.converged
        assert out.report.failure_stage.startswith("recovery after non-convergent averaging")
        assert out.report.n_reconstructed == 0
        assert out.cover.virtual_nodes == {}

    def test_uncalibrated_raises_degenerate_epipole(self):
        scene = generate("mixed", 9, 20, seed=96, intrinsics_mode="varied")
        m, tracks = measure(scene, seed=0)
        with pytest.raises(DegenerateEpipole):
            run_pipeline(m, tracks, "vc", "uncalibrated", scene, PipelineConfig(insert_virtual=False))


class TestPipelineDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        scene = generate("collinear", 10, 12, seed=98)
        m, tracks = measure(scene, MeasurementNoise(rotation_deg=0.2), seed=5)
        outs = []
        for run in range(2):
            out = run_pipeline(m, tracks, "r4", "calibrated", scene)
            path = tmp_path / f"report{run}.json"
            save_report(out.report, path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


# sha256 of the cameras and report files colsfm.io writes for seeded small
# scenes, recorded before triplet recovery was stacked over tracks (the
# noise-free uncalibrated vc run and the three-iteration run, which ends in
# a named failure stage, were recorded before the two pipeline paths were
# merged); they depend on the BLAS thread count (one thread here and in CI).
# A case's last field caps the ADMM iterations (None: the default).
GOLDEN_RUNS = [
    (("r4", "collinear", 8, "calibrated", 0.5, 11, None),
     "5b49fc41207b1974eefd68dc79be1ddc53b8301d6c5f66273fa18be5b13faf3b"),
    (("r4", "collinear", 8, "varied", 0.5, 12, None),
     "b4bcff63884b7a2088f148a6752543bb4d6bcb3a32ad68727cd54e27053d49a4"),
    (("vc", "mixed", 8, "calibrated", 0.0, 13, None),
     "59c686bdaf76728456138593b52cf8d99432467689ca74467924c79f170a3695"),
    (("r4", "collinear", 12, "calibrated", 0.0, 14, None),
     "974a65fb4c8830cd7f5e7210a0f44096dd1a7957194607e7d8d0b2ace45c78bf"),
    (("vc", "mixed", 8, "varied", 0.0, 15, None),
     "44e540993e80ee86891d922e5d1d83d52a1e02e3c5b424895dca675922cbc900"),
    (("r4", "collinear", 10, "calibrated", 1.0, 5, 3),
     "e443a881cd536180437bdd262fbf6b7090ec150657b99b5374f6b4411189e1c8"),
]


def _golden_id(case):
    algorithm, _, _, intrinsics, _, _, max_iters = case
    return f"{algorithm}-{intrinsics}" + (f"-max_iters{max_iters}" if max_iters else "")


@pytest.mark.parametrize("case,digest", GOLDEN_RUNS, ids=[_golden_id(c) for c, _ in GOLDEN_RUNS])
def test_golden_pipeline_outputs(case, digest, tmp_path):
    algorithm, layout, n, intrinsics, deg, seed, max_iters = case
    scene = generate(layout, n, 12, seed=seed, intrinsics_mode=intrinsics)
    noise = MeasurementNoise(rotation_deg=deg, translation_dir_deg=deg)
    nview, tracks = measure(scene, noise, seed=seed + 100)
    regime = "calibrated" if intrinsics == "calibrated" else "uncalibrated"
    cfg = PipelineConfig(admm=AdmmConfig(max_iters=max_iters)) if max_iters else None
    out = run_pipeline(nview, tracks, algorithm, regime, scene_gt=scene, cfg=cfg)
    # the capped run must take the named partial-result path, not raise
    assert (out.report.failure_stage is not None) == bool(max_iters)
    save_cameras(out.cameras, out.frame, tmp_path / "cameras.json")
    save_report(out.report, tmp_path / "report.json")
    data = (tmp_path / "cameras.json").read_bytes() + (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
