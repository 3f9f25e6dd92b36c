"""One end-to-end driver for both averaging algorithms.

Every run takes one route: cover -> average -> recover -> register ->
evaluate, except uncalibrated "r4", which is cover -> average -> factorize
-> evaluate.  The algorithm picks only the cover stage (`cover_and_average`)
and the recovery; the "calibrated" regime needs essential measurements and
refuses fundamental ones before the cover stage.
Measurements are one `NViewBifocal` stack, read by rows (`slots`): the
cover stage gathers its pairs' tensors from it, and the "vc" cover stage
appends each virtual camera's (3, 3, 3) tensors to it.  "r4" (fully
collinear cameras) averages the sequential cover at rank 4 and recovers
collinear triplets.  "vc" (mixed collinearity) lists the viewing graph's
triangles once (`triangles`), builds the heuristic cover from that list
ranked best-conditioned first, replaces the collinear triplets left in it
by sub-triplets against virtual cameras on every run, averages at rank 6,
recovers general-position triplets and drops the virtual cameras after
registration.
The "vc" cover stage is stacked passes over the triangles' pairs: one
epipole table (a pair without unique epipoles raises RankDeficient before
the cover is built), one score pass over all triangles, one pose pass for
every essential virtual camera (one projective pass for fundamental ones),
then each collinear triplet's track and virtual tensors.  After averaging, one
function (`_recovered_cameras`) picks the recovery route from the algorithm
and the regime: one projective factorization of every camera for
uncalibrated "r4"; otherwise its stacked passes over all triplets, each
triplet recovered from its row, and the registration of them all.
Per-triplet projective recovery serves the virtual cover and "vc" only.

Stage functions are looked up as module globals when called, never bound
at import, so patching a name here (bench/tracing.py does) reaches every
call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .averaging import _MAX_ITERS, AveragingResult, average
from .errors import AmbiguousCheirality, ValidationError
from .geometry import camera_centers, epipole_table, epipoles, normalized_tensor
from .graphs import (
    TripletCover,
    collinearity_score,
    enrich_connectivity,
    heuristic_cover,
    insert_virtual_and_prune,
    pair_rows,
    sequential_cover,
    triangles,
)
from .metrics import EvalReport, align_similarity, mean_reprojection_error
from .nview import NViewBifocal, block_index, block_matrix
from .recovery import (
    closure_scales,
    collinear_placement,
    pair_poses,
    projective_factorization,
    projective_systems,
    recover_calibrated_collinear_triplet,
    recover_calibrated_general_triplet,
    recover_projective_collinear_triplet,
    recover_projective_general_triplet,
    register_global,
    resolve_essential_triplet,
)
from .synthetic import Scene, TrackSet
from .virtual import (
    select_virtual_point,
    v_matrices_from_cameras,
    v_matrices_from_essentials,
    virtual_bifocals,
)


# a triplet scoring below this `collinearity_score` counts as collinear
_COLLINEARITY_THRESHOLD = 0.05


@contextmanager
def _stage(name: str, converged: bool = False):
    """Name this stage, and whether averaging converged, on a ValidationError raised inside."""
    try:
        yield
    except ValidationError as exc:
        exc.stage, exc.converged = name, converged
        raise


@dataclass
class PipelineOutput:
    report: EvalReport
    cameras: list
    cover: TripletCover
    averaging_log: list
    converged: bool
    frame: str


def _pair_blocks(nview: NViewBifocal, triplets):
    """The (P, 3, 3) blocks of the triplets' camera pairs (`pair_rows`) and
    the (T, 3) rows of every triplet's local pairs among them."""
    pairs, rows = pair_rows(triplets)
    return nview.tensors[nview.slots(pairs)], rows


def _evaluate(cameras, n_real, tracks, scene_gt, regime, algorithm, converged, failure=None):
    reconstructed = [P for P in cameras[:n_real] if P is not None]
    mean_pos = median_pos = None
    if scene_gt is not None and regime == "calibrated":
        idx = [i for i in range(n_real) if cameras[i] is not None]
        if len(idx) >= 3:
            res = align_similarity(camera_centers(np.array([cameras[i] for i in idx])), scene_gt.centers[idx])
            mean_pos, median_pos = float(np.mean(res)), float(np.median(res))
    # the first three real views of each track, and only tracks with two of
    # them: a track once held at most three views, and lifting the cap would
    # change the reprojection error that pinned reports hold
    seen = tracks.visible[:, :n_real]
    seen = seen & (np.cumsum(seen, axis=1) <= 3)
    keep = np.count_nonzero(seen, axis=1) >= 2
    reproj = mean_reprojection_error(cameras, tracks.points[keep, :n_real], seen[keep])
    return EvalReport(
        algorithm=algorithm,
        regime=regime,
        n_cameras=n_real,
        n_reconstructed=len(reconstructed),
        mean_position_error=mean_pos,
        median_position_error=median_pos,
        mean_reprojection_error=reproj if np.isfinite(reproj) else None,
        converged=converged,
        failure_stage=failure,
    )


def _virtual_cover(measurements: NViewBifocal, tracks: TrackSet):
    """The heuristic cover of the viewing graph's triangles, listed once and
    ranked by `collinearity_score`, best-conditioned first (ties in sorted
    order), checked for connectivity, with each collinear triplet left in it
    replaced by sub-triplets against a virtual camera, numbered n + k in
    cover order; returns the cover and the measurements extended by the
    virtual cameras' tensors.  One `epipoles` table of the triangles' pairs,
    which raises RankDeficient before the cover is built if a pair has no
    unique epipoles, feeds one score pass, which ranks the triangles and
    marks the collinear cover triplets, and every point selection; when it
    marks any, one pose pass (essential) or one projective pass
    (fundamental) gives the V-matrices of every virtual camera."""
    n = measurements.n
    tris = triangles(n, measurements.pairs.tolist())
    F, rows = _pair_blocks(measurements, tris)
    table = epipoles(F)
    scores = collinearity_score(table, rows)
    cover = enrich_connectivity(heuristic_cover(tris, scores))
    index = {t: k for k, t in enumerate(tris)}
    marked = [index[t] for t in cover.triplets if scores[index[t]] < _COLLINEARITY_THRESHOLD]
    collinear = [tris[k] for k in marked]
    points3, of = tracks.tracks(np.reshape(collinear, (-1, 3)))
    if marked and measurements.kind == "essential":
        V, ties = v_matrices_from_essentials(F[rows[marked]], (points3, of))
    elif marked:
        systems = projective_systems(F, rows[marked], table, (points3, of))
    virtual_tensors = []  # each collinear triplet's (3, 3, 3) stack
    for k, r in enumerate(rows[marked]):
        track = select_virtual_point(points3[of == k], F[r], table[r])
        if measurements.kind == "essential":
            if ties[k] is not None:
                raise AmbiguousCheirality(ties[k])
            Vk = V[k]
        else:
            Vk = v_matrices_from_cameras(recover_projective_collinear_triplet(systems, k))
        virtual_tensors.append(virtual_bifocals(Vk, track))
    cover = insert_virtual_and_prune(cover, {t: n + k for k, t in enumerate(collinear)})
    pairs = [(i, n + k) for k, t in enumerate(collinear) for i in t]
    return cover, NViewBifocal.assemble(
        n + len(collinear), np.concatenate([measurements.pairs, np.reshape(pairs, (-1, 2))]),
        np.concatenate([measurements.tensors, *virtual_tensors]), measurements.kind, strict=False)


def cover_and_average(
    measurements: NViewBifocal,
    tracks: TrackSet,
    algorithm: str,
    max_iters: int = _MAX_ITERS,
) -> tuple[TripletCover, AveragingResult]:
    """The algorithm's cover stage, then ADMM averaging over that cover, with
    a budget of max_iters iterations: rank 4 on the collinear cover ("r4"),
    rank 6 on the virtual-camera cover ("vc").  The result's tensors include
    the virtual cameras, numbered from n up."""
    if tracks is None:
        raise ValidationError("tracks are required")
    if tracks.points.shape[1] != measurements.n:
        raise ValidationError(f"tracks span {tracks.points.shape[1]} cameras, "
                              f"the measurements {measurements.n}")
    if algorithm == "vc":
        cover, extended = _virtual_cover(measurements, tracks)
        return cover, average(extended, cover, "general", max_iters)
    if algorithm != "r4":
        raise ValidationError(f"unknown algorithm {algorithm!r}")
    cover = sequential_cover(measurements.n)
    F, rows = _pair_blocks(measurements, cover.triplets)
    for t, score in zip(cover.triplets, collinearity_score(epipoles(F), rows)):
        if score > _COLLINEARITY_THRESHOLD:
            raise ValidationError(
                f"algorithm r4 requires a fully collinear camera set; triplet {t} "
                f"scores {score:.3f} above threshold {_COLLINEARITY_THRESHOLD}"
            )
    return cover, average(measurements, cover, "collinear", max_iters)


def _recovered_cameras(algorithm, mode, avg: AveragingResult, tracks: TrackSet, cover: TripletCover,
                       n: int, gate: float) -> list:
    """The n real cameras (3x4, None where no triplet holds one) from the
    consensus.  Uncalibrated "r4" factorizes every camera at once
    (`projective_factorization`) from the tracks seen in all views, its
    depths chained along the unit-norm consensus blocks (i, i + 1) and their
    one epipole table.  Otherwise stacked passes build the geometry of the
    sorted cover triplets ("euclidean": their pairs' poses, cheirality-voted
    on the tracks of real pairs, for "r4" the chain's only, then collinear
    placements for "r4" or direction closures for "vc"; "projective": the
    a-vector systems of the unit-norm blocks), storing each row's error;
    each triplet is then recovered from its row (collinear for calibrated
    "r4", general-position for "vc") and all are registered."""
    # the pairs whose tracks are read: r4's chain (i, i + 1), the only signs it reads; vc's real ones
    used = np.flatnonzero(np.diff(avg.pairs)[:, 0] == 1 if algorithm == "r4" else np.max(avg.pairs, 1) < n)
    if mode == "projective" and algorithm == "r4":
        F = normalized_tensor(avg.consensus[used])
        return list(projective_factorization(F, epipole_table(F), tracks.tracks(np.arange(n))))
    ks = range(len(cover.triplets))
    if mode == "euclidean":
        points, of = tracks.tracks(np.array(avg.pairs)[used])
        poses = pair_poses(avg.consensus, (points, used[of]))
        geom = resolve_essential_triplet(poses, avg.rows)
        if algorithm == "r4":
            E9 = block_matrix(avg.consensus, block_index(avg.rows))
            # the stop leaves each triplet about the data's precision from
            # rank 4; the rank gate allows one triplet holding the whole
            # residual of the m triplets at the threshold, 9 sqrt(m) times it
            # in Frobenius norm
            rank_tol = 9.0 * np.sqrt(len(avg.rows)) * avg.threshold
            placement = collinear_placement(E9, geom, tracks.tracks(cover.triplets), rank_tol)
            recs = [recover_calibrated_collinear_triplet(placement, geom, k, tol=gate) for k in ks]
        else:
            closures = closure_scales(geom)
            recs = [recover_calibrated_general_triplet(geom, closures, k, tol=gate) for k in ks]
    else:
        F = normalized_tensor(avg.consensus)
        systems = projective_systems(F, avg.rows, epipole_table(F))
        recs = [recover_projective_general_triplet(systems, k) for k in ks]
    # virtual cameras are scaffolding only
    return register_global(np.array(recs), cover, mode, avg.n)[:n]


def run_pipeline(
    measurements: NViewBifocal,
    tracks: TrackSet,
    algorithm: str,
    regime: str,
    scene_gt: Scene | None = None,
    max_iters: int = _MAX_ITERS,
) -> PipelineOutput:
    started = time.perf_counter()
    with _stage("input"):
        if scene_gt is not None and scene_gt.n != measurements.n:
            raise ValidationError(f"scene holds {scene_gt.n} cameras, the measurements {measurements.n}")
        if regime not in ("calibrated", "uncalibrated"):
            raise ValidationError(f"unknown regime {regime!r}")
        if regime == "calibrated" and measurements.kind != "essential":
            raise ValidationError(f"regime 'calibrated' needs essential measurements, "
                                  f"these are {measurements.kind!r}")
    with _stage("cover"):  # averaging refuses only a cover: disconnected, or a pair unmeasured
        cover, avg = cover_and_average(measurements, tracks, algorithm, max_iters)
    n = measurements.n
    mode = "euclidean" if regime == "calibrated" else "projective"
    # sanity gates only when the iterate is coarse; the report stays honest
    gate = 1e-3 if avg.converged else 0.5
    failure = None
    try:
        with _stage("recovery", avg.converged):
            cameras = _recovered_cameras(algorithm, mode, avg, tracks, cover, n, gate)
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
