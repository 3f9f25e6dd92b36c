"""Smoke test of the benchmark: every workload on its first scene group.

Runs the benchmark command as a subprocess, the way it is run for real, and
checks that every metric is printed with its unit, that the result file
parses and that the oracle check ran on each scene.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
STATUSES = {"ok", "failure_stage", "validation_error", "oracle_miss"}

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
import run  # noqa: E402
from tracing import HOOKS, PER_LAYER, Hook, Tracer, instrument, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS as SPECS, build_scene_set, solve  # noqa: E402


def _bench(workload: str, trace: int):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(run.DEFAULT_SEED), "--seconds", "0", "--trace", str(trace), "--groups", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True, proc.stdout
    assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
    tag = f"{workload}_seed{run.DEFAULT_SEED}_trace{trace}"
    if SPECS[workload].groups > 1:
        tag += "_groups1"
    result = json.loads((run.RESULTS / f"{tag}.json").read_text())
    assert result["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert all(s["status"] in STATUSES for s in result["scenes"])
    assert len(result["digest"]) == 64
    return lines, last, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_printed(workload):
    lines, last, result = _bench(workload, 0)
    for name, (unit, _) in run.END_TO_END.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines), name
    for spec in BENCH["end_to_end"]:
        metric = last["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0
    assert set(result["end_to_end"]) == set(run.END_TO_END)


def test_traced_run_reports_every_layer_metric():
    _, last, result = _bench("r4_line", 1)
    names = [m["name"] for m in BENCH["per_layer"]]
    assert set(names) == set(PER_LAYER)
    for name in names:
        assert (name in last["metrics"]) != (name in result["absent"]), name
    spans = (run.RESULTS / f"r4_line_seed{run.DEFAULT_SEED}_trace1_groups1_spans.jsonl").read_text().splitlines()
    assert spans and all(len(json.loads(s)) == 6 for s in spans)


def test_missing_hook_reports_absent_not_zero(tmp_path):
    wl = SPECS["r4_line"]
    scenes = build_scene_set(wl, run.DEFAULT_SEED, 1)
    hooks = [h for h in HOOKS if h.span != "averaging.project"]
    hooks.append(Hook("colsfm.averaging", "_PROJECTIONS", "averaging.project", key=("gone", "gone")))
    tracer = Tracer()
    with instrument(tracer, hooks):
        tracer.scene = 0
        out = solve(scenes[0], tmp_path, tracer)
    assert out.status == "ok"
    metrics, absent = per_layer_metrics(tracer, 0.0)
    for name in ("averaging.project_s", "averaging.project_calls", "averaging.project_us", "averaging.other_s"):
        assert name in absent and name not in metrics
    assert metrics["averaging.average_s"]["value"] > 0


def test_oracle_limits_catch_a_less_accurate_answer():
    from types import SimpleNamespace

    from workloads import _oracle_miss

    def report(pos, reproj):
        return SimpleNamespace(n_reconstructed=30, n_cameras=30,
                               mean_position_error=pos, mean_reprojection_error=reproj)

    noisy = SPECS["r4_line"].parts[0]
    assert _oracle_miss(noisy, report(0.012, 0.0018)) is None
    assert "position error" in _oracle_miss(noisy, report(0.12, 0.0018))
    assert "reprojection error" in _oracle_miss(noisy, report(0.012, 0.018))
    exact = SPECS["vc_dense"].parts[0]
    assert _oracle_miss(exact, report(2e-14, 1e-15)) is None
    assert _oracle_miss(exact, report(2e-14, 1e-6)) is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pass_count_follows_seconds_alone(workload):
    wl = SPECS[workload]
    assert run._pass_count(wl, run.RUN_SECONDS) == wl.passes
    assert run._pass_count(wl, 2 * run.RUN_SECONDS) == 2 * wl.passes
    assert run._pass_count(wl, 0) == 1


def test_reference_sampled_evenly_between_solves(tmp_path):
    scenes = build_scene_set(SPECS["uncal"], run.DEFAULT_SEED, 1)
    passes, ref = run._solve_passes(scenes, 2, tmp_path)
    assert [len(p) for p in passes] == [2, 2]
    assert len(ref) == run.REF_SAMPLES and all(0 < r < 10 for r in ref)
