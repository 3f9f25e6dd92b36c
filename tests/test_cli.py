import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import colsfm.pipeline
from colsfm.cli import main
from colsfm.errors import NotConnected
from colsfm.io import load_measurements, save_measurements
from conftest import banded


def run_cli(args):
    return main(args)


def _eye_camera(x):
    """A scene file's camera with identity K and R, centred at (x, 0, 0)."""
    return {"K": np.eye(3).ravel().tolist(), "R": np.eye(3).ravel().tolist(), "t": [x, 0.0, 0.0]}


class TestCliFlow:
    def test_synth_measure_pipeline_eval(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        meas = tmp_path / "measurements.json"
        outdir = tmp_path / "run"
        assert run_cli(["synth", "--layout", "collinear", "--n-cams", "8",
                        "--n-points", "12", "--seed", "4", "--out", str(scene)]) == 0
        assert run_cli(["measure", "--scene", str(scene), "--seed", "1",
                        "--out", str(meas)]) == 0
        code = run_cli(["--json", "pipeline", "--measurements", str(meas),
                        "--scene", str(scene), "--algorithm", "r4",
                        "--regime", "calibrated", "--out", str(outdir)])
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["mean_position_error"] < 1e-7
        assert report["runtime_seconds"] is None
        assert (outdir / "cameras_out.json").exists()
        assert (outdir / "cover.json").exists()
        assert (outdir / "convergence.log").exists()
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["n_reconstructed"] == 8

        # standalone eval against the written cameras
        report2 = tmp_path / "report2.json"
        assert run_cli(["eval", "--cameras", str(outdir / "cameras_out.json"),
                        "--measurements", str(meas), "--scene", str(scene),
                        "--out", str(report2)]) == 0
        doc = json.loads(report2.read_text())
        assert doc["mean_position_error"] < 1e-7

    def test_average_and_recover_subcommands(self, tmp_path):
        scene = tmp_path / "scene.json"
        meas = tmp_path / "m.json"
        run_cli(["synth", "--layout", "collinear", "--n-cams", "6", "--n-points", "10",
                 "--seed", "7", "--out", str(scene)])
        run_cli(["measure", "--scene", str(scene), "--seed", "2", "--out", str(meas)])
        avgdir = tmp_path / "avg"
        assert run_cli(["average", "--measurements", str(meas), "--algorithm", "r4",
                        "--out", str(avgdir)]) == 0
        assert (avgdir / "convergence.log").exists()
        cams = tmp_path / "cams.json"
        assert run_cli(["recover", "--measurements", str(meas), "--algorithm", "r4",
                        "--out", str(cams)]) == 0
        doc = json.loads(cams.read_text())
        assert len(doc["cameras"]) == 6

    def test_validation_error_exit_code(self, tmp_path):
        scene = tmp_path / "scene.json"
        meas = tmp_path / "m.json"
        run_cli(["synth", "--layout", "mixed", "--n-cams", "9", "--n-points", "10",
                 "--seed", "3", "--out", str(scene)])
        run_cli(["measure", "--scene", str(scene), "--seed", "0", "--out", str(meas)])
        code = run_cli(["pipeline", "--measurements", str(meas), "--algorithm", "r4",
                        "--out", str(tmp_path / "out")])
        assert code == 2

    def test_malformed_track_exit_code(self, tmp_path):
        scene = tmp_path / "scene.json"
        meas = tmp_path / "m.json"
        run_cli(["synth", "--layout", "collinear", "--n-cams", "5", "--n-points", "6",
                 "--seed", "7", "--out", str(scene)])
        run_cli(["measure", "--scene", str(scene), "--seed", "2", "--out", str(meas)])
        out = str(tmp_path / "c.json")
        assert run_cli(["recover", "--measurements", str(meas), "--algorithm", "r4",
                        "--out", out]) == 0
        for breakage in ("view past n", "repeated view", "point missing"):
            doc = json.loads(meas.read_text())
            track = doc["tracks"][0]
            if breakage == "view past n":
                track["view_ids"][-1] = 5
            elif breakage == "repeated view":
                track["view_ids"][1] = track["view_ids"][0]
            else:
                track["points"].pop()
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            assert run_cli(["recover", "--measurements", str(bad), "--algorithm", "r4",
                            "--out", out]) == 2, breakage

    def test_bad_tensor_exit_code(self, tmp_path, capsys):
        # a zero or non-finite tensor is rejected at load, naming its edge,
        # instead of failing later in normalisation or an SVD
        scene = tmp_path / "scene.json"
        meas = tmp_path / "m.json"
        run_cli(["synth", "--layout", "mixed", "--n-cams", "8", "--seed", "15",
                 "--intrinsics", "varied", "--out", str(scene)])
        run_cli(["measure", "--scene", str(scene), "--seed", "0", "--out", str(meas)])
        for name, bad in (("zero", [0.0] * 9), ("nan", [float("nan")] + [1.0] * 8)):
            doc = json.loads(meas.read_text())
            k = next(k for k, e in enumerate(doc["edges"]) if (e["i"], e["j"]) == (0, 4))
            doc["edges"][k]["tensor"] = bad
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run_cli(["pipeline", "--measurements", str(path), "--algorithm", "vc",
                            "--regime", "uncalibrated", "--out", str(tmp_path / name)]) == 2, name
            assert f"edge {k} (0, 4)" in capsys.readouterr().err, name

    def test_underflowing_tensors_exit_code(self, tmp_path, capsys):
        # finite nonzero tensors about 1e-200 in size, whose norms underflow
        # to 0, are rejected at load, naming the first edge, instead of
        # ending in an untyped error from normalisation
        scene = tmp_path / "scene.json"
        meas = tmp_path / "m.json"
        run_cli(["synth", "--layout", "mixed", "--n-cams", "8", "--seed", "15", "--out", str(scene)])
        run_cli(["measure", "--scene", str(scene), "--seed", "0", "--out", str(meas)])
        doc = json.loads(meas.read_text())
        for e in doc["edges"]:
            e["tensor"] = [1e-200 * v for v in e["tensor"]]
        meas.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["pipeline", "--measurements", str(meas), "--algorithm", "vc",
                        "--out", str(tmp_path / "run")]) == 2
        first = doc["edges"][0]
        assert f"edge 0 ({first['i']}, {first['j']}): tensor and its norm" in capsys.readouterr().err

    def test_malformed_cameras_exit_code(self, tmp_path):
        scene = tmp_path / "scene.json"
        meas = tmp_path / "m.json"
        run_cli(["synth", "--layout", "collinear", "--n-cams", "5", "--n-points", "6",
                 "--seed", "7", "--out", str(scene)])
        run_cli(["measure", "--scene", str(scene), "--seed", "2", "--out", str(meas)])
        cams = tmp_path / "c.json"
        for doc in ({"frame": "euclidean", "cameras": [{"camera_id": 0, "P": [1.0, 2.0, 3.0]}]},
                    {"frame": "euclidean"},
                    {"frame": "metric", "cameras": [{"camera_id": 0, "P": None}]}):
            cams.write_text(json.dumps(doc))
            assert run_cli(["eval", "--cameras", str(cams), "--measurements", str(meas),
                            "--out", str(tmp_path / "r.json")]) == 2, doc
        # a float seed in the scene file is rejected, not truncated
        cams.write_text(json.dumps({"frame": "euclidean", "cameras": [{"camera_id": 0, "P": None}]}))
        scene.write_text(json.dumps(dict(json.loads(scene.read_text()), seed=2.7)))
        assert run_cli(["eval", "--cameras", str(cams), "--measurements", str(meas),
                        "--scene", str(scene), "--out", str(tmp_path / "r.json")]) == 2

    def test_non_camera_exit_code(self, tmp_path, capsys):
        # a NaN, inf or overflowing camera once ended in an SVD that did not
        # converge (exit 1), and an all-zero one counted as reconstructed
        meas = _measured(tmp_path, "collinear", 6, 4)
        assert run_cli(["pipeline", "--measurements", str(meas), "--out", str(tmp_path / "run")]) == 0
        cams = tmp_path / "run" / "cameras_out.json"
        doc = json.loads(cams.read_text())
        P = doc["cameras"][3]["P"]
        for Q in ([np.nan] + P[1:], P[:5] + [np.inf] + P[6:], [1e300 * v for v in P], [0.0] * 12):
            bad = tmp_path / "bad.json"
            doc["cameras"][3]["P"] = Q
            bad.write_text(json.dumps(doc))
            for scene in ([], ["--scene", str(tmp_path / "scene.json")]):
                capsys.readouterr()
                assert run_cli(["eval", "--cameras", str(bad), "--measurements", str(meas),
                                *scene, "--out", str(tmp_path / "r.json")]) == 2, Q
                assert "camera 3: P and its norm must be finite and nonzero" in capsys.readouterr().err

    def test_camera_count_mismatch_exit_code(self, tmp_path, capsys):
        # cameras, measurements and scene of different camera counts are
        # rejected with both counts named, not evaluated against each other
        files = {}
        for n in (6, 8):
            files[n] = tmp_path / f"scene{n}.json", tmp_path / f"m{n}.json"
            run_cli(["synth", "--layout", "collinear", "--n-cams", str(n), "--n-points", "10",
                     "--seed", "4", "--out", str(files[n][0])])
            run_cli(["measure", "--scene", str(files[n][0]), "--seed", "1", "--out", str(files[n][1])])
        assert run_cli(["pipeline", "--measurements", str(files[8][1]), "--scene", str(files[8][0]),
                        "--out", str(tmp_path / "run8")]) == 0
        cams = str(tmp_path / "run8" / "cameras_out.json")
        capsys.readouterr()
        cases = (
            (["eval", "--cameras", cams, "--measurements", str(files[8][1]),
              "--scene", str(files[6][0])], "cameras file holds 8 cameras, the scene 6"),
            (["eval", "--cameras", cams, "--measurements", str(files[6][1])],
             "cameras file holds 8 cameras, the measurements 6"),
            (["pipeline", "--measurements", str(files[6][1]), "--scene", str(files[8][0])],
             "scene holds 8 cameras, the measurements 6"),
        )
        for args, message in cases:
            assert run_cli(args + ["--out", str(tmp_path / "out")]) == 2, message
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command,doc,named", [
        ("average", {"n": 3, "kind": "essential", "edges": [], "tracks": [1]}, ""),
        ("average", [1, 2], ""),
        ("average", {"n": 3, "kind": "essential", "edges": ["x"]}, ""),
        ("measure", {"cameras": [1], "points": []}, ""),
        ("measure", {"cameras": [], "points": []}, ""),
        ("measure", {"cameras": [_eye_camera(0.0), _eye_camera(1.0), _eye_camera(0.0)], "points": []},
         "cameras 0 and 2 share a center"),
        ("average", {"n": 3, "kind": "projective", "edges": []}, "unknown tensor kind 'projective'"),
        ("measure", {"cameras": [_eye_camera(0.0), _eye_camera(1e200), _eye_camera(-1e200)],
                     "points": [[0.0, 1.0, 5.0], [1.0, 0.0, 6.0], [0.5, 0.5, 7.0], [1.0, 1.0, 8.0]]},
         "cameras 0 and 1 are too far apart"),
    ], ids=["track-not-object", "top-level-list", "edge-not-object", "camera-not-object",
            "no-cameras", "shared-center", "unknown-kind-no-edges", "overflowing-distance"])
    def test_malformed_file_exit_code(self, command, doc, named, tmp_path, capsys):
        # a structurally malformed input file is a validation error, not a crash
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        flag = "--measurements" if command == "average" else "--scene"
        assert run_cli([command, flag, str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_failed_pipeline_report_bytes(self, tmp_path, capsys):
        # r4 refuses a mixed scene before averaging; the report it leaves
        # names the failure and the cover stage that refused it, and holds
        # no camera, byte for byte as pinned (re-recorded when the report
        # began to name the stage)
        scene, meas = tmp_path / "scene.json", tmp_path / "m.json"
        run_cli(["synth", "--layout", "mixed", "--n-cams", "8", "--n-points", "10", "--seed", "3",
                 "--out", str(scene)])
        run_cli(["measure", "--scene", str(scene), "--seed", "1", "--out", str(meas)])
        assert run_cli(["pipeline", "--measurements", str(meas), "--scene", str(scene),
                        "--algorithm", "r4", "--out", str(tmp_path / "run")]) == 2
        assert "algorithm r4 requires a fully collinear camera set" in capsys.readouterr().err
        report = (tmp_path / "run" / "report.json").read_bytes()
        assert json.loads(report)["failure_stage"].startswith(
            "cover: algorithm r4 requires a fully collinear camera set")
        assert hashlib.sha256(report).hexdigest() == \
            "ffc94a855e6740b899c2bdc0639726fa76e6e0719e6aaf880488320dcbb88012"

    def test_calibrated_regime_on_fundamental_exit_code(self, tmp_path, capsys):
        # calibrated is the default regime; varied intrinsics measure fundamental tensors
        scene = tmp_path / "scene.json"
        meas = tmp_path / "m.json"
        run_cli(["synth", "--layout", "collinear", "--n-cams", "8", "--n-points", "10",
                 "--seed", "0", "--intrinsics", "varied", "--out", str(scene)])
        run_cli(["measure", "--scene", str(scene), "--seed", "0", "--out", str(meas)])
        capsys.readouterr()
        assert run_cli(["pipeline", "--measurements", str(meas), "--out", str(tmp_path / "out")]) == 2
        assert "regime 'calibrated' needs essential measurements, these are 'fundamental'" in \
            capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        code = run_cli(["recover", "--measurements", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path / "c.json")])
        assert code == 2

    def test_no_convergence_exit_code(self, tmp_path):
        scene = tmp_path / "scene.json"
        meas = tmp_path / "m.json"
        run_cli(["synth", "--layout", "collinear", "--n-cams", "10", "--n-points", "10",
                 "--seed", "5", "--out", str(scene)])
        run_cli(["measure", "--scene", str(scene), "--noise-rot-deg", "1.0",
                 "--seed", "0", "--out", str(meas)])
        code = run_cli(["pipeline", "--measurements", str(meas), "--scene", str(scene),
                        "--algorithm", "r4", "--max-iters", "3",
                        "--out", str(tmp_path / "out")])
        assert code == 3

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "colsfm.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "pipeline" in proc.stdout

    def test_byte_identical_pipeline_outputs(self, tmp_path):
        scene = tmp_path / "scene.json"
        meas = tmp_path / "m.json"
        run_cli(["synth", "--layout", "collinear", "--n-cams", "8", "--n-points", "10",
                 "--seed", "11", "--out", str(scene)])
        run_cli(["measure", "--scene", str(scene), "--noise-rot-deg", "0.2",
                 "--seed", "3", "--out", str(meas)])
        blobs = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            assert run_cli(["pipeline", "--measurements", str(meas), "--scene", str(scene),
                            "--algorithm", "r4", "--out", str(outdir)]) == 0
            blobs.append((outdir / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_vc_pipeline(self, tmp_path):
        scene = tmp_path / "scene.json"
        meas = tmp_path / "m.json"
        run_cli(["synth", "--layout", "mixed", "--n-cams", "9", "--n-points", "16",
                 "--seed", "6", "--out", str(scene)])
        run_cli(["measure", "--scene", str(scene), "--seed", "0", "--out", str(meas)])
        # a complete mixed graph needs no virtual camera: banded measurements do
        nview, tracks = load_measurements(meas)
        save_measurements(banded(nview), tracks, meas)
        outdir = tmp_path / "vc"
        code = run_cli(["pipeline", "--measurements", str(meas), "--scene", str(scene),
                        "--algorithm", "vc", "--out", str(outdir)])
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["n_reconstructed"] == 9
        assert report["mean_position_error"] < 1e-6
        cover = json.loads((outdir / "cover.json").read_text())
        assert cover["virtual_nodes"]


def _measured(tmp_path, layout, n, seed, noise_rot="0.0", band=False):
    """The measurements file of a synthetic scene, kept banded if band."""
    scene = tmp_path / "scene.json"
    meas = tmp_path / "m.json"
    assert run_cli(["synth", "--layout", layout, "--n-cams", str(n), "--n-points", "16",
                    "--seed", str(seed), "--out", str(scene)]) == 0
    assert run_cli(["measure", "--scene", str(scene), "--noise-rot-deg", noise_rot,
                    "--seed", "3", "--out", str(meas)]) == 0
    if band:
        nview, tracks = load_measurements(meas)
        save_measurements(banded(nview), tracks, meas)
    return meas


# sha256 of cover.json + convergence.log as `average` writes them, with its
# exit code, recorded while `average` still ran the full pipeline (the vc
# cases re-recorded on banded measurements with the collinearity-ranked
# cover, which needs no virtual camera on a complete mixed graph); they
# depend on the BLAS thread count (one thread here and in CI); all three
# were re-recorded when ADMM began to stop at the data's own precision and
# its log lost the phase key, and r4 and the plain run again when the
# collinear essential kernel kept the tied spectrum and the stop read the
# last iterate; vc and the plain run again when the general-essential
# retraction became one sweep from the previous rotations and centres; all
# three again when ADMM became Anderson-accelerated at rho 4 and its log
# gained the extrapolated key, and again when rho became 2; vc and the plain
# run again when the scale sync began to solve its normal equations and the
# start mean one stacked sum (the plain run still ends at exit 3); r4 again
# when the spectral kernels began to take a warm subspace step after the
# first iteration.  The r4 run
# passes a near tie of the collinear kernel's top eigenvalues and converges
# on its last iterate.  The plain run (the `no_virtual` ablation, recorded
# as `average --no-virtual` while that flag existed) averages collinear
# triplets under the rank-6 retraction: at rho 4 it converged in 97
# iterations to a consensus that recovery rejects, at rho 2 it does not
# converge in its 500 (exit 3), and no camera comes back either way
# (`test_no_virtual_pipeline_rejected`).
GOLDEN_AVERAGE = [
    (("r4", "collinear", 8, 11, "0.2", False), 0,
     "20332e0614a3a26fb9aa371ae06e8f5ce92cef774f82022d500d28ce3b4f3346"),
    (("vc", "mixed", 9, 6, "0.0", False), 0,
     "cae6eda41d53003076daf563864440ed48483c20cd49029b91fa733bccc27e03"),
    (("vc", "mixed", 9, 6, "0.0", True), 3,
     "5846e29aa222da6c7a740c7cd573c18e420b276ee5a8f7d4bcbd7286f8e7e545"),
]


class TestAverageCommand:
    @pytest.mark.parametrize("case,code,digest", GOLDEN_AVERAGE,
                             ids=["r4", "vc", "vc-no-virtual"])
    def test_golden_outputs(self, case, code, digest, tmp_path, request):
        algorithm, layout, n, seed, noise_rot, plain = case
        if plain:
            request.getfixturevalue("no_virtual")
        meas = _measured(tmp_path, layout, n, seed, noise_rot, band=algorithm == "vc")
        outdir = tmp_path / "avg"
        assert run_cli(["average", "--measurements", str(meas), "--algorithm", algorithm,
                        "--out", str(outdir)]) == code
        data = (outdir / "cover.json").read_bytes() + (outdir / "convergence.log").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        virtual = json.loads((outdir / "cover.json").read_text())["virtual_nodes"]
        assert bool(virtual) == (algorithm == "vc" and not plain)

    def test_no_virtual_pipeline_rejected(self, tmp_path, no_virtual):
        # the plain rank-6 consensus of collinear triplets gives no camera
        # back, and the report carries the refusal as its failure stage,
        # whether averaging converged (a typed error, exit 2) or not (exit
        # 3); `test_parallel_directions_name_the_rank` pins why on exact blocks
        meas = _measured(tmp_path, "mixed", 9, 6, "0.0", band=True)
        assert run_cli(["pipeline", "--measurements", str(meas), "--algorithm", "vc",
                        "--out", str(tmp_path / "out")]) != 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["n_reconstructed"] == 0
        assert report["failure_stage"]

    def test_stops_before_recovery(self, tmp_path, monkeypatch):
        # a recovery failure after converged averaging belongs to the later
        # stages: `average` never reaches them, while `pipeline` still exits
        # 2, with a report that keeps the convergence and names the stage
        def fail(*args, **kwargs):
            raise NotConnected("registration must not run")

        monkeypatch.setattr(colsfm.pipeline, "register_global", fail)
        meas = _measured(tmp_path, "collinear", 6, 7)
        outdir = tmp_path / "avg"
        assert run_cli(["average", "--measurements", str(meas), "--algorithm", "r4",
                        "--out", str(outdir)]) == 0
        assert (outdir / "cover.json").exists()
        assert run_cli(["pipeline", "--measurements", str(meas), "--algorithm", "r4",
                        "--out", str(tmp_path / "full")]) == 2
        report = json.loads((tmp_path / "full" / "report.json").read_text())
        assert report["converged"] is True
        assert report["failure_stage"] == "recovery: registration must not run"
        assert report["n_reconstructed"] == 0


class TestStageFlags:
    @pytest.mark.parametrize("command", ["average", "recover", "pipeline"])
    @pytest.mark.parametrize("flag,value", [
        ("--max-iters", "0"), ("--max-iters", "-2")])
    def test_bad_admm_value_exits_2_naming_flag(self, command, flag, value, tmp_path, capsys):
        meas = _measured(tmp_path, "collinear", 5, 0)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--measurements", str(meas), flag, value, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_average_takes_no_regime(self, tmp_path, capsys):
        # averaging is the same in both regimes: `average` reads no --regime
        # and runs on fundamental measurements, which calibrated `recover` rejects
        scene = tmp_path / "scene.json"
        meas = tmp_path / "m.json"
        run_cli(["synth", "--layout", "collinear", "--n-cams", "8", "--n-points", "10",
                 "--seed", "0", "--intrinsics", "varied", "--out", str(scene)])
        run_cli(["measure", "--scene", str(scene), "--seed", "0", "--out", str(meas)])
        assert run_cli(["average", "--measurements", str(meas), "--out", str(tmp_path / "avg")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(["average", "--measurements", str(meas), "--regime", "calibrated",
                     "--out", str(tmp_path / "avg2")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --regime calibrated" in capsys.readouterr().err
        assert run_cli(["recover", "--measurements", str(meas), "--regime", "calibrated",
                        "--out", str(tmp_path / "c.json")]) == 2


class TestSynthFlags:
    @pytest.mark.parametrize("value", ["2", "-0.1", "nan", "inf", "half"])
    def test_bad_collinear_fraction_exits_2_naming_flag(self, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["synth", "--layout", "mixed", "--n-cams", "10", "--collinear-fraction", value,
                     "--out", str(tmp_path / "scene.json")])
        assert exc.value.code == 2
        assert "argument --collinear-fraction: " in capsys.readouterr().err
        assert not (tmp_path / "scene.json").exists()

    @pytest.mark.parametrize("flag,value", [("--n-cams", "2"), ("--n-cams", "3.5"), ("--n-points", "3")])
    def test_too_small_scene_exits_2_naming_flag(self, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["synth", flag, value, "--out", str(tmp_path / "scene.json")])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--noise-rot-deg", "--noise-trans-deg", "--noise-px"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-2", "x"])
    def test_bad_noise_level_exits_2_naming_flag(self, flag, value, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        assert run_cli(["synth", "--n-cams", "4", "--n-points", "6", "--out", str(scene)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(["measure", "--scene", str(scene), flag, value, "--out", str(tmp_path / "m.json")])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command,value", [("synth", "-1"), ("measure", "-3"), ("synth", "0.5")])
    def test_bad_seed_exits_2_naming_flag(self, command, value, tmp_path, capsys):
        # a negative seed once ended in numpy's traceback from default_rng, exit 1
        scene = tmp_path / "scene.json"
        if command == "measure":
            assert run_cli(["synth", "--n-cams", "4", "--n-points", "6", "--out", str(scene)]) == 0
            capsys.readouterr()
        out = tmp_path / "out.json"
        source = ["--scene", str(scene)] if command == "measure" else []
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *source, "--seed", value, "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --seed: " in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_line_cameras_exits_2_naming_limit(self, tmp_path, capsys):
        # the flag parses, and the generator refuses the layout as a validation error
        assert run_cli(["synth", "--layout", "collinear", "--n-cams", "101",
                        "--out", str(tmp_path / "scene.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 101 cameras do not fit on the line") and "at most 100" in err
        assert not (tmp_path / "scene.json").exists()


@pytest.mark.parametrize("field,entry", [("t", 1), ("R", 4), ("K", 2)])
def test_nonfinite_scene_camera_exits_2(field, entry, tmp_path, capsys):
    # a nan centre or rotation entry is a malformed scene, not a traceback
    cams = [_eye_camera(float(x)) for x in range(3)]
    cams[1][field][entry] = float("nan")
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"cameras": cams, "points": [[0.0, 0.0, 5.0]]}))
    assert run_cli(["measure", "--scene", str(path), "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed scene file") and "must be finite" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("points,shape", [([[0.0, 0.0]] * 6, "(6, 2)"), ([[0.0, 0.0, 5.0, 1.0]] * 6, "(6, 4)"),
                                          ([0.0, 0.0, 5.0], "(3,)")], ids=["2-coordinate", "4-coordinate", "flat"])
def test_scene_points_not_3_vectors_exit_2(points, shape, tmp_path, capsys):
    # six 2- or 4-coordinate points were once read as four or eight points
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"cameras": [_eye_camera(float(x)) for x in range(3)], "points": points}))
    assert run_cli(["measure", "--scene", str(path), "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err.startswith(f"error: points must be an (N, 3) array, got shape {shape}")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("value", [float("nan"), float("-inf")])
def test_nonfinite_scene_point_exits_2(value, tmp_path, capsys):
    # once a `track points must be finite` ValueError traceback, exit 1
    cams = [_eye_camera(float(x)) for x in range(3)]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"cameras": cams, "points": [[0.0, 0.0, 5.0], [1.0, value, 5.0]]}))
    assert run_cli(["measure", "--scene", str(path), "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err.startswith("error: point 1 must be finite")
    assert not (tmp_path / "m.json").exists()
