"""End-to-end drivers for the two averaging algorithms.

rank4 path ("r4", fully collinear camera sets): sequential cover ->
rank-4 ADMM -> collinear triplet recovery -> registration -> metrics.

virtual-camera path ("vc", mixed collinearity): heuristic cover + enrichment
-> collinear triplets replaced by virtual-camera sub-triplets -> rank-6 ADMM
-> general-position recovery -> registration (virtual cameras dropped) ->
metrics.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .averaging import AdmmConfig, average
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
    epipole_margin: float = 1e-2
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
    """2-view tracks of the pairs of real cameras in a triplet (a virtual
    camera has no tracks), labelled with local view ids."""
    ids = sorted(ids)
    return [Track._checked((a, b), p)
            for a, b in _LOCAL_PAIRS if ids[b] < n_real
            for p in pair_points(ids[a], ids[b])]


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


def run_pipeline(
    measurements: NViewBifocal,
    tracks: TrackSet,
    algorithm: str,
    regime: str,
    scene_gt: Scene | None = None,
    cfg: PipelineConfig | None = None,
) -> PipelineOutput:
    cfg = cfg or PipelineConfig()
    started = time.perf_counter()
    if algorithm == "r4":
        out = _run_r4(measurements, tracks, regime, scene_gt, cfg)
    elif algorithm == "vc":
        out = _run_vc(measurements, tracks, regime, scene_gt, cfg)
    else:
        raise ValidationError(f"unknown algorithm {algorithm!r}")
    out.report.runtime_seconds = time.perf_counter() - started
    return out


def _run_r4(measurements, tracks, regime, scene_gt, cfg) -> PipelineOutput:
    n = measurements.n
    cover = sequential_cover(n)
    for t in cover.triplets:
        score = collinearity_score(_triplet_tensor_dict(measurements, t))
        if score > cfg.collinearity_threshold:
            raise ValidationError(
                f"algorithm r4 requires a fully collinear camera set; triplet {t} "
                f"scores {score:.3f} above threshold {cfg.collinearity_threshold}"
            )
    avg = average(measurements, cover, "collinear", cfg.admm)
    mode = "euclidean" if regime == "calibrated" else "projective"
    # sanity gates only when the iterate is coarse; the report stays honest
    gate = 1e-3 if avg.converged else 0.5
    pair_points = _pair_point_cache(tracks)
    try:
        recs = []
        for t in sorted(cover.triplets):
            tr3 = _local_triple_tracks(tracks, t)
            M9 = avg.triplet_matrix(t)
            if regime == "calibrated":
                tr2 = _local_pair_tracks(pair_points, t, n)
                recs.append(
                    recover_calibrated_collinear_triplet(
                        M9, tr2, tr3, triplet_id=tuple(sorted(t)),
                        cert_tol=gate, cycle_tol=gate,
                    )
                )
            else:
                blocks = _triplet_tensor_dict(avg.nview, t)
                recs.append(
                    recover_projective_collinear_triplet(
                        blocks[(0, 1)], blocks[(1, 2)], blocks[(0, 2)], tr3, triplet_id=tuple(sorted(t))
                    )
                )
        reg = register_global(recs, cover, mode, n_cameras=n)
    except ValidationError as exc:
        if avg.converged:
            raise
        # unconverged averaging can leave triplets unrecoverable; emit the
        # partial result with the failing stage named instead of raising
        report = _evaluate([None] * n, n, tracks, scene_gt, regime, "r4", False,
                           failure=f"recovery after non-convergent averaging: {exc}")
        return PipelineOutput(report, [None] * n, cover, avg.log, False, mode)
    report = _evaluate(reg.cameras, n, tracks, scene_gt, regime, "r4", avg.converged)
    return PipelineOutput(report, reg.cameras, cover, avg.log, avg.converged, mode)


def _run_vc(measurements, tracks, regime, scene_gt, cfg) -> PipelineOutput:
    n = measurements.n
    g = ViewingGraph.from_edges(n, [(i, j, 1.0) for (i, j) in measurements.edges()])
    cover = enrich_connectivity(heuristic_cover(g), g.triangles())

    extended_blocks = dict(measurements.blocks)
    next_id = [n]
    virtual_tracks = {}

    def score_fn(t):
        return collinearity_score(_triplet_tensor_dict(measurements, t))

    def builder(t):
        ids = sorted(t)
        tensors = _triplet_tensor_dict(measurements, t)
        tr3 = _local_triple_tracks(tracks, t)
        track = select_virtual_point(tr3, tensors, cfg.epipole_margin)
        if measurements.kind == "essential":
            vb = virtual_bifocals(tensors, track, "essential", tracks=tr3)
        else:
            rec = recover_projective_collinear_triplet(
                tensors[(0, 1)], tensors[(1, 2)], tensors[(0, 2)], tr3
            )
            vb = virtual_bifocals(rec, track, "fundamental")
        vid = next_id[0]
        next_id[0] += 1
        for local, tensor in enumerate(vb):
            extended_blocks[(ids[local], vid)] = tensor
        virtual_tracks[vid] = track
        return vid

    if cfg.insert_virtual:
        cover = insert_virtual_and_prune(cover, cfg.collinearity_threshold, score_fn, builder)
    n_total = next_id[0]
    extended = NViewBifocal.assemble(n_total, extended_blocks, kind=measurements.kind, strict=False)

    avg = average(extended, cover, "general", cfg.admm)
    mode = "euclidean" if regime == "calibrated" else "projective"
    gate = 1e-3 if avg.converged else 0.5
    pair_points = _pair_point_cache(tracks)
    try:
        recs = []
        for t in sorted(cover.triplets):
            ids = sorted(t)
            if regime == "calibrated":
                tr2 = _local_pair_tracks(pair_points, ids, n)
                M9 = avg.triplet_matrix(t)
                recs.append(
                    recover_calibrated_general_triplet(
                        M9, tr2, triplet_id=tuple(ids), cycle_tol=gate
                    )
                )
            else:
                blocks = _triplet_tensor_dict(avg.nview, t)
                recs.append(
                    recover_projective_general_triplet(
                        blocks[(0, 1)], blocks[(1, 2)], blocks[(0, 2)], triplet_id=tuple(ids)
                    )
                )
        reg = register_global(recs, cover, mode, n_cameras=n_total)
    except ValidationError as exc:
        if avg.converged:
            raise
        report = _evaluate([None] * n, n, tracks, scene_gt, regime, "vc", False,
                           failure=f"recovery after non-convergent averaging: {exc}")
        return PipelineOutput(report, [None] * n, cover, avg.log, False, mode)
    cameras = reg.cameras[:n]  # virtual cameras are scaffolding only
    report = _evaluate(cameras, n, tracks, scene_gt, regime, "vc", avg.converged)
    return PipelineOutput(report, cameras, cover, avg.log, avg.converged, mode)
