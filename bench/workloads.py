"""The four benchmark workloads, their scene sets and the oracle check.

Each workload is a fixed number of scene groups (one scene, or for `uncal`
one collinear and one mixed scene).  Scene seeds come from the workload
seed alone and are never chosen by how a scene turns out.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from colsfm import io as cio
from colsfm import pipeline, synthetic
from colsfm.errors import ValidationError
from tracing import SOLVE_SPAN

N_POINTS = 20
# a noise-free scene must recover every camera to these errors
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class SceneSpec:
    layout: str
    n: int
    intrinsics: str  # "calibrated" | "varied"
    rotation_deg: float
    algorithm: str  # "r4" | "vc"
    # oracle limits of a noisy scene (noise-free ones use EXACT_TOL): about
    # twice the worst position and reprojection error of an ordinary scene of
    # this kind over workload seeds 1-10 (bench/README.md, "Checks")
    pos_tol: float = EXACT_TOL
    reproj_tol: float = EXACT_TOL

    @property
    def regime(self) -> str:
        return "calibrated" if self.intrinsics == "calibrated" else "uncalibrated"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parts: tuple  # SceneSpec per scene of a group
    groups: int  # scene groups in the scene set
    passes: int  # whole passes over the set in a run of the default length


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "r4_line",
            "collinear n=30, 0.5 deg, r4: rank-4 averaging and collinear recovery; "
            "chain cover bypasses graphs",
            (SceneSpec("collinear", 30, "calibrated", 0.5, "r4", pos_tol=0.06, reproj_tol=0.008),),
            6,
            3,
        ),
        Workload(
            "vc_dense",
            "mixed n=18, noise-free, vc: the O(T^3) heuristic cover dominates; "
            "ADMM stops after one iteration",
            (SceneSpec("mixed", 18, "calibrated", 0.0, "vc"),),
            2,
            1,
        ),
        Workload(
            "vc_noisy",
            "mixed n=10, 0.5 deg, vc: the rank-6 essential projection kernel dominates; "
            "ADMM does not converge",
            (SceneSpec("mixed", 10, "calibrated", 0.5, "vc", pos_tol=0.1, reproj_tol=0.03),),
            2,
            1,
        ),
        Workload(
            "uncal",
            "varied intrinsics: both fundamental projections and projective recovery "
            "(r4 n=30 at 0.5 deg, noise-free vc n=10)",
            (
                SceneSpec("collinear", 30, "varied", 0.5, "r4", reproj_tol=0.1),
                SceneSpec("mixed", 10, "varied", 0.0, "vc"),
            ),
            6,
            3,
        ),
    )
}


@dataclass
class Scene:
    spec: SceneSpec
    scene_seed: int
    measure_seed: int
    scene: object
    nview: object
    tracks: object


def scene_seeds(workload: Workload, seed: int) -> list:
    """(scene seed, measurement seed) per scene, in scene-set order."""
    salt = zlib.crc32(workload.name.encode())
    rng = np.random.default_rng([seed, salt])
    draws = rng.integers(0, 2**31 - 1, size=(workload.groups * len(workload.parts), 2))
    return [(int(a), int(b)) for a, b in draws]


def build_scene_set(workload: Workload, seed: int, groups: int) -> list:
    """Generate and measure the first `groups` scene groups of the set.

    The library functions are looked up on their module at call time so a
    traced run sees them.
    """
    seeds = scene_seeds(workload, seed)[: groups * len(workload.parts)]
    out = []
    for k, (s_scene, s_measure) in enumerate(seeds):
        spec = workload.parts[k % len(workload.parts)]
        scene = synthetic.generate(
            spec.layout, spec.n, N_POINTS, seed=s_scene, intrinsics_mode=spec.intrinsics
        )
        noise = synthetic.MeasurementNoise(rotation_deg=spec.rotation_deg)
        nview, tracks = synthetic.measure(scene, noise, seed=s_measure)
        out.append(Scene(spec, s_scene, s_measure, scene, nview, tracks))
    return out


@dataclass
class Outcome:
    """One run_pipeline call, checked against the scene oracle."""

    seconds: float  # run_pipeline wall time
    status: str  # ok | failure_stage | validation_error | oracle_miss | error
    detail: str | None
    converged: bool
    pos_err: float | None
    reproj_err: float | None
    digest: str  # sha256 of the bytes colsfm.io writes for this scene

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def _oracle_miss(spec: SceneSpec, report) -> str | None:
    """Why a finished run does not match the scene it came from, or None."""
    if report.n_reconstructed != report.n_cameras:
        return f"{report.n_reconstructed}/{report.n_cameras} cameras reconstructed"
    pos, reproj = report.mean_position_error, report.mean_reprojection_error
    if spec.regime == "calibrated":
        if pos is None or not math.isfinite(pos):
            return "no position error for a calibrated scene"
        if pos > spec.pos_tol:
            return f"position error {pos:.3e} above {spec.pos_tol:g}"
    if reproj is None or not math.isfinite(reproj):
        return "no finite reprojection error"
    if reproj > spec.reproj_tol:
        return f"reprojection error {reproj:.3e} above {spec.reproj_tol:g}"
    return None


def _written_bytes(out, workdir: Path) -> bytes:
    """Cameras and report (runtime left out) as colsfm.io writes them; the
    convergence log is written too but is not part of the digest."""
    cio.save_cameras(out.cameras, out.frame, workdir / "cameras_out.json")
    cio.save_report(out.report, workdir / "report.json")
    cio.write_convergence_log(out.averaging_log, workdir / "convergence.log")
    return (workdir / "cameras_out.json").read_bytes() + (workdir / "report.json").read_bytes()


def solve(sc: Scene, workdir: Path, tracer=None) -> Outcome:
    """Run the pipeline on one scene; every ending is recorded, none raises.

    Only the run_pipeline call is timed.  Exceptions other than the typed
    ValidationError are bugs: they are reported as status "error".
    """
    spec = sc.spec
    out = error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = pipeline.run_pipeline(sc.nview, sc.tracks, spec.algorithm, spec.regime, sc.scene)
        else:
            with tracer.span(SOLVE_SPAN):
                out = pipeline.run_pipeline(sc.nview, sc.tracks, spec.algorithm, spec.regime, sc.scene)
    except ValidationError as exc:
        error = ("validation_error", exc)
    except Exception as exc:  # noqa: BLE001 - the run must survive a bug and report it
        error = ("error", exc, traceback.format_exc())
    seconds = time.perf_counter() - t0
    if error is not None:
        status, exc, *trace = error
        text = f"{type(exc).__name__}: {exc}"
        detail = "\n".join([text, *trace])
        return Outcome(seconds, status, detail, False, None, None, _digest(text.encode()))
    report = out.report
    digest = _digest(_written_bytes(out, workdir))
    if report.failure_stage is not None:
        status, detail = "failure_stage", report.failure_stage
    else:
        detail = _oracle_miss(spec, report)
        status = "oracle_miss" if detail else "ok"
    return Outcome(
        seconds, status, detail, bool(out.converged),
        report.mean_position_error, report.mean_reprojection_error, digest,
    )


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
