"""One end-to-end driver for both averaging algorithms.

Every run takes one route: cover -> average -> recover -> register ->
evaluate.  The algorithm picks only the cover stage (`cover_and_average`)
and the per-triplet recovery.  "r4" (fully collinear cameras) averages the
sequential cover at rank 4 and recovers collinear triplets.  "vc" (mixed
collinearity) replaces the collinear triplets of the enriched heuristic
cover by sub-triplets against virtual cameras, averages at rank 6, recovers
general-position triplets and drops the virtual cameras after registration.

Stage functions are looked up as module globals when called, never bound
at import, so patching a name here (bench/tracing.py does) reaches every
call.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .averaging import AdmmConfig, AveragingResult, average
from .errors import ValidationError
from .graphs import (
    _LOCAL_PAIRS,
    TripletCover,
    ViewingGraph,
    collinearity_score,
    enrich_connectivity,
    heuristic_cover,
    insert_virtual_and_prune,
    sequential_cover,
    triplet_pairs,
)
from .geometry import Track
from .metrics import EvalReport, align_similarity, mean_reprojection_error
from .nview import NViewBifocal
from .recovery import (
    recover_calibrated_collinear_triplet,
    recover_calibrated_general_triplet,
    recover_projective_collinear_triplet,
    recover_projective_general_triplet,
    register_global,
)
from .synthetic import Scene, TrackSet
from .virtual import select_virtual_point, virtual_bifocals


@dataclass
class PipelineConfig:
    admm: AdmmConfig = field(default_factory=AdmmConfig)
    collinearity_threshold: float = 0.05
    insert_virtual: bool = True  # disable to reproduce the plain rank-6 failure


@dataclass
class PipelineOutput:
    report: EvalReport
    cameras: list
    cover: TripletCover
    averaging_log: list
    converged: bool
    frame: str


def _local_triple_tracks(tracks: TrackSet, ids):
    """3-view tracks of a triplet, relabelled to its local view ids 0, 1, 2."""
    ids = sorted(ids)
    mapping = {g: l for l, g in enumerate(ids)}
    return [t.relabel(mapping) for t in tracks.triple_tracks(*ids)]


def _pair_point_cache(tracks: TrackSet):
    """(i, j) -> (m, 2, 3) image points of the pair's tracks, each built once
    per run, since neighbouring triplets share pairs."""
    return functools.cache(lambda i, j: np.array([t.points for t in tracks.pair_tracks(i, j)]))


def _local_pair_tracks(pair_points, ids, n_real):
    """{local pair: its 2-view tracks, labelled with local view ids} over the
    pairs of real cameras in a triplet (a virtual camera has no tracks)."""
    ids = sorted(ids)
    return {(a, b): [Track._checked((a, b), p) for p in pair_points(ids[a], ids[b])]
            for a, b in _LOCAL_PAIRS if ids[b] < n_real}


def _triplet_tensor_dict(nview: NViewBifocal, ids):
    return {loc: nview.block(*e) for loc, e in zip(_LOCAL_PAIRS, triplet_pairs(ids))}


def _evaluate(cameras, n_real, tracks, scene_gt, regime, algorithm, converged, failure=None):
    reconstructed = [P for P in cameras[:n_real] if P is not None]
    mean_pos = median_pos = None
    if scene_gt is not None and regime == "calibrated":
        idx = [i for i in range(n_real) if cameras[i] is not None]
        if len(idx) >= 3:
            est = np.vstack([-cameras[i][:, :3].T @ cameras[i][:, 3] for i in idx])
            gt = scene_gt.centers()[idx]
            res = align_similarity(est, gt).residuals
            mean_pos = float(np.mean(res))
            median_pos = float(np.median(res))
    all_tracks = []
    if tracks is not None:
        for obs in tracks.observations:
            views = sorted(v for v in obs.keys() if v < n_real)
            if len(views) >= 2:
                all_tracks.append(Track(tuple(views[:3]), np.vstack([obs[v] for v in views[:3]])))
    reproj = mean_reprojection_error(cameras, all_tracks) if all_tracks else None
    if reproj is not None and not np.isfinite(reproj):
        reproj = None
    return EvalReport(
        algorithm=algorithm,
        regime=regime,
        n_cameras=n_real,
        n_reconstructed=len(reconstructed),
        mean_position_error=mean_pos,
        median_position_error=median_pos,
        mean_reprojection_error=reproj,
        converged=converged,
        failure_stage=failure,
    )


def _virtual_cover(measurements: NViewBifocal, tracks: TrackSet, cfg: PipelineConfig):
    """The enriched heuristic cover with each collinear triplet replaced by
    sub-triplets against a virtual camera; returns the cover and the
    measurements extended by the virtual cameras' tensors."""
    n = measurements.n
    g = ViewingGraph.from_edges(n, [(i, j, 1.0) for (i, j) in measurements.edges()])
    cover = enrich_connectivity(heuristic_cover(g), g.triangles())
    blocks = dict(measurements.blocks)
    virtual_ids = itertools.count(n)

    def builder(t):
        tensors = _triplet_tensor_dict(measurements, t)
        tr3 = _local_triple_tracks(tracks, t)
        track = select_virtual_point(tr3, tensors)
        if measurements.kind == "essential":
            vb = virtual_bifocals(tensors, track, "essential", tracks=tr3)
        else:
            rec = recover_projective_collinear_triplet(
                tensors[(0, 1)], tensors[(1, 2)], tensors[(0, 2)], tr3
            )
            vb = virtual_bifocals(rec, track, "fundamental")
        vid = next(virtual_ids)
        blocks.update(((i, vid), tensor) for i, tensor in zip(sorted(t), vb))
        return vid

    if cfg.insert_virtual:
        cover = insert_virtual_and_prune(
            cover, cfg.collinearity_threshold,
            lambda t: collinearity_score(_triplet_tensor_dict(measurements, t)), builder,
        )
    n_total = n + len(cover.virtual_nodes)
    return cover, NViewBifocal.assemble(n_total, blocks, kind=measurements.kind, strict=False)


def cover_and_average(
    measurements: NViewBifocal,
    tracks: TrackSet,
    algorithm: str,
    cfg: PipelineConfig | None = None,
) -> tuple[TripletCover, AveragingResult]:
    """The algorithm's cover stage, then ADMM averaging over that cover: rank 4
    on the collinear cover ("r4"), rank 6 on the virtual-camera cover ("vc").
    The result's tensors include the virtual cameras, numbered from n up."""
    cfg = cfg or PipelineConfig()
    if algorithm == "vc":
        cover, extended = _virtual_cover(measurements, tracks, cfg)
        return cover, average(extended, cover, "general", cfg.admm)
    if algorithm != "r4":
        raise ValidationError(f"unknown algorithm {algorithm!r}")
    cover = sequential_cover(measurements.n)
    for t in cover.triplets:
        score = collinearity_score(_triplet_tensor_dict(measurements, t))
        if score > cfg.collinearity_threshold:
            raise ValidationError(
                f"algorithm r4 requires a fully collinear camera set; triplet {t} "
                f"scores {score:.3f} above threshold {cfg.collinearity_threshold}"
            )
    return cover, average(measurements, cover, "collinear", cfg.admm)


def _recover_triplet(algorithm, regime, avg, ids, tracks, pair_points, n_real, gate):
    """Cameras of one cover triplet from the averaged tensors: collinear
    recovery for "r4", general-position recovery for "vc"."""
    if regime == "calibrated":
        M9 = avg.triplet_matrix(ids)
        tr2 = _local_pair_tracks(pair_points, ids, n_real)
        if algorithm == "r4":
            return recover_calibrated_collinear_triplet(
                M9, tr2, _local_triple_tracks(tracks, ids), triplet_id=ids,
                cert_tol=gate, cycle_tol=gate,
            )
        return recover_calibrated_general_triplet(M9, tr2, triplet_id=ids, cycle_tol=gate)
    F01, F02, F12 = (avg.nview.block(*e) for e in triplet_pairs(ids))
    if algorithm == "r4":
        return recover_projective_collinear_triplet(
            F01, F12, F02, _local_triple_tracks(tracks, ids), triplet_id=ids
        )
    return recover_projective_general_triplet(F01, F12, F02, triplet_id=ids)


def run_pipeline(
    measurements: NViewBifocal,
    tracks: TrackSet,
    algorithm: str,
    regime: str,
    scene_gt: Scene | None = None,
    cfg: PipelineConfig | None = None,
) -> PipelineOutput:
    started = time.perf_counter()
    cover, avg = cover_and_average(measurements, tracks, algorithm, cfg)
    n = measurements.n
    mode = "euclidean" if regime == "calibrated" else "projective"
    # sanity gates only when the iterate is coarse; the report stays honest
    gate = 1e-3 if avg.converged else 0.5
    pair_points = _pair_point_cache(tracks)
    failure = None
    try:
        recs = [_recover_triplet(algorithm, regime, avg, t, tracks, pair_points, n, gate)
                for t in sorted(cover.triplets)]
        # virtual cameras are scaffolding only
        cameras = register_global(recs, cover, mode, n_cameras=avg.nview.n).cameras[:n]
    except ValidationError as exc:
        if avg.converged:
            raise
        # unconverged averaging can leave triplets unrecoverable; emit the
        # partial result with the failing stage named instead of raising
        cameras = [None] * n
        failure = f"recovery after non-convergent averaging: {exc}"
    report = _evaluate(cameras, n, tracks, scene_gt, regime, algorithm, avg.converged, failure)
    report.runtime_seconds = time.perf_counter() - started
    return PipelineOutput(report, cameras, cover, avg.log, avg.converged, mode)
