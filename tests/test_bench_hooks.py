"""The benchmark's trace hooks must all resolve against the library.

bench/tracing.py patches library names by string; a rename or a removed
import in colsfm silently turns its metrics into "absent".  This test
imports the tracing module the way bench/run.py does and checks that every
hook still finds its target, and that the pipeline still calls each stage
through the patched names.
"""

import math
import sys
from pathlib import Path

import pytest

from colsfm import pipeline
from colsfm.synthetic import generate, measure

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


def _workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def test_every_trace_hook_resolves():
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        pass
    assert tracer.missing == set()


# a name bound once at import (say, a dispatch dict of recovery functions)
# escapes the patch: its span then never fires although the hook resolves
@pytest.mark.parametrize("algorithm,layout,intrinsics,seed", [
    ("r4", "collinear", "calibrated", 11),
    ("r4", "collinear", "varied", 12),
    ("vc", "mixed", "calibrated", 13),
    ("vc", "mixed", "varied", 15),
])
def test_traced_run_fires_every_stage(algorithm, layout, intrinsics, seed):
    tracing = _tracing()
    scene = generate(layout, 7, 12, seed=seed, intrinsics_mode=intrinsics)
    nview, tracks = measure(scene, seed=seed)
    regime = "calibrated" if intrinsics == "calibrated" else "uncalibrated"
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        out = pipeline.run_pipeline(nview, tracks, algorithm, regime, scene)
    assert out.report.failure_stage is None
    calls = {name: total[0] for name, total in tracing.span_totals(tracer).items()}
    for span in ("graphs.cover", "averaging.average", "metrics.eval"):
        assert calls.get(span, 0) >= 1, span
    if (algorithm, regime) == ("r4", "uncalibrated"):
        # one projective factorization of every camera: no triplet is
        # recovered, none registered
        assert "recovery.triplet" not in calls and "recovery.register" not in calls
    else:
        assert calls.get("recovery.triplet", 0) >= len(out.cover.triplets)
        assert calls.get("recovery.register", 0) >= 1


# a metric with no value drops out of the traced JSON line that
# bench/run.py prints, so a route change that stops a span (say, every
# recovery.triplet call of a workload) must show here, not in a run whose
# last line is no longer a result
@pytest.mark.parametrize("name", ["r4_line", "vc_dense", "vc_noisy", "uncal"])
def test_traced_workload_group_has_every_per_layer_metric(name, tmp_path):
    tracing, workloads = _tracing(), _workloads()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        scenes = workloads.build_scene_set(workloads.WORKLOADS[name], 0, 1)
        for k, sc in enumerate(scenes):
            tracer.scene = k
            assert not workloads.solve(sc, tmp_path, tracer).failed
    metrics, absent = tracing.per_layer_metrics(tracer, 0.0)
    assert absent == []
    assert all(math.isfinite(m["value"]) for m in metrics.values()), metrics
