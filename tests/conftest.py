import os
from itertools import combinations

import numpy as np
import pytest

from colsfm.averaging import stop_threshold
from colsfm.geometry import bifocal_from_pair, epipole_table, normalized_tensor
from colsfm.graphs import heuristic_cover, triangles, triplet_pairs
from colsfm.nview import NViewBifocal, block_matrix
from colsfm.recovery import (
    collinear_placement, pair_poses, projective_systems, recover_calibrated_collinear_triplet,
    resolve_essential_triplet,
)
from colsfm.synthetic import generate

# the BLAS/OpenMP thread variables CI pins (as bench/run.py pins them)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pytest_report_header(config):
    """numpy, its BLAS and the pinned thread variables: the golden digests
    depend on all of them, so a digest mismatch on another machine can be told
    from a regression by comparing this header with CI's."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in THREAD_VARS)
    return [f"numpy {np.__version__}, BLAS {blas.get('name', '?')} {blas.get('version', '?')}",
            f"threads: {threads}"]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q (as CI runs) hides the session header; a failing run still shows it
    if terminalreporter.stats.get("failed") and config.get_verbosity() < 0:
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def collinear_scene():
    return generate("collinear", n_cams=6, n_points=12, seed=3)


@pytest.fixture
def general_scene():
    return generate("general", n_cams=5, n_points=12, seed=5)


@pytest.fixture
def collinear_projective_scene():
    return generate("collinear", n_cams=5, n_points=12, seed=7, intrinsics_mode="varied")


def random_rotation(rng):
    A = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def unit_bifocal(ci, cj) -> np.ndarray:
    """The pair tensor of two cameras at unit Frobenius norm, largest entry positive."""
    return normalized_tensor(bifocal_from_pair(ci, cj))


def scene_kind(scene) -> str:
    """The kind of a scene's pair tensors: essential when every camera is calibrated."""
    return "essential" if all(c.is_calibrated for c in scene.cameras) else "fundamental"


def exact_nview(scene) -> NViewBifocal:
    """A scene's dense n-view matrix with true block scales (no normalization)."""
    pairs = list(combinations(range(scene.n), 2))
    return NViewBifocal.assemble(
        scene.n, pairs, [bifocal_from_pair(scene.cameras[i], scene.cameras[j]) for i, j in pairs],
        scene_kind(scene))


def exact_triplet(scene, ids) -> np.ndarray:
    """The 9x9 true-scale submatrix of a camera triple."""
    return block_matrix([bifocal_from_pair(scene.cameras[u], scene.cameras[v])
                         for u, v in combinations(sorted(ids), 2)])


def banded(nview, width=3) -> NViewBifocal:
    """The measurements nview keeps of a sparse viewing graph: the blocks
    (i, j) with j - i <= width.  A mixed scene's first cameras sit on its
    line, so the pairs among the first few then lie only in collinear
    triangles and the vc cover needs virtual cameras for them."""
    kept = nview.pairs[:, 1] - nview.pairs[:, 0] <= width
    return NViewBifocal.assemble(nview.n, nview.pairs[kept], nview.tensors[kept], nview.kind)


def without(nview, *pairs) -> NViewBifocal:
    """nview with the tensors of the given (i, j) pairs, i < j, dropped."""
    keep = np.ones(len(nview.pairs), dtype=bool)
    keep[nview.slots(pairs)] = False
    return NViewBifocal.assemble(nview.n, nview.pairs[keep], nview.tensors[keep], nview.kind,
                                 strict=False)


def averaged_nview(res, kind) -> NViewBifocal:
    """The averaged tensors of an `AveragingResult` as an n-view matrix: each
    consensus block of `res.pairs` at unit Frobenius norm, largest entry
    positive."""
    return NViewBifocal.assemble(res.n, res.pairs, [normalized_tensor(b) for b in res.consensus],
                                 kind, strict=False)


def triplet_matrix(res, ids) -> np.ndarray:
    """The consensus 9x9 submatrix of an `AveragingResult` over a camera
    triple whose pairs its cover holds."""
    return block_matrix(res.consensus[[res.pairs.index(e) for e in triplet_pairs(ids)]])


def meets_stop(rec, m) -> bool:
    """Whether both residuals of log entry rec of a run over m cover
    triplets are below its `stop_threshold`."""
    bound = stop_threshold(rec["objective"], m)
    return max(rec["primal_residual"], rec["dual_residual"]) < bound


def center_spread(scene, ids) -> float:
    """sigma_2 / sigma_1 of a camera triple's centered centers: 0 when the
    centers are collinear, 1 when maximally spread."""
    C = scene.centers()[list(ids)]
    s = np.linalg.svd(C - C.mean(axis=0), compute_uv=False)
    return 0.0 if s[0] == 0.0 else float(s[1] / s[0])


def four_view(real, virt, kind) -> NViewBifocal:
    """The 4-view matrix of a triplet's real (3, 3, 3) blocks, in local pair
    order (0,1), (0,2), (1,2), and the blocks (i, 3) of its virtual camera,
    virt[i]."""
    return NViewBifocal.assemble(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)],
                                 np.concatenate([real, virt]), kind)


def min_weight_cover(n, edges=None):
    """`heuristic_cover` of the viewing graph on n cameras with (i, j, weight)
    edges, i < j (complete at weight 1 if None), each triangle scored by its
    smallest edge weight."""
    if edges is None:
        edges = [(i, j, 1.0) for i, j in combinations(range(n), 2)]
    weights = {(i, j): w for i, j, w in edges}
    tris = triangles(n, weights)
    return heuristic_cover(tris, [min(weights[p] for p in triplet_pairs(t)) for t in tris])


def covered_edges(cover) -> set:
    """The camera pairs a cover's triplets hold."""
    return {p for t in cover.triplets for p in triplet_pairs(t)}


def geodesic_angle(Ra, Rb) -> float:
    """Angle of Ra^T Rb in radians."""
    c = (np.trace(Ra.T @ Rb) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def triplet_geometry(E9, tracks2=None):
    """The stacked geometry (one row) of a 9x9 triplet matrix's blocks, each
    pair cheirality-voted when tracks2 ({local pair: (N, 2, 3) 2-view track
    points}) has tracks for it."""
    E9 = np.asarray(E9, dtype=float)
    tracks2 = tracks2 or {}
    pairs = ((0, 1), (0, 2), (1, 2))
    poses = pair_poses(np.array([E9[3 * i:3 * i + 3, 3 * j:3 * j + 3] for (i, j) in pairs]),
                       [tracks2.get(p) for p in pairs])
    return resolve_essential_triplet(poses, [[0, 1, 2]])


def collinear_triplet(E9, tracks2, tracks3, tol=1e-3):
    """Collinear calibrated recovery of one 9x9 triplet matrix, its pairs
    cheirality-voted on tracks2 as in `triplet_geometry`, its third camera
    placed on its (N, 3, 3) 3-view tracks: row 0 of a one-row stacked pass."""
    geom = triplet_geometry(E9, tracks2)
    placement = collinear_placement(np.asarray(E9, dtype=float)[None], geom, [tracks3])
    return recover_calibrated_collinear_triplet(placement, geom, 0, tol=tol)


def projective_system(F01, F12, F02, tracks3=None):
    """The stacked projective systems (one row) of a triplet's tensors, with
    its (N, 3, 3) 3-view tracks when given."""
    F = np.array([F01, F02, F12], dtype=float)
    return projective_systems(F, [[0, 1, 2]], epipole_table(F),
                              None if tracks3 is None else [tracks3])


def seen_in(ts, *view_sets):
    """Points and mask of one copy of the TrackSet ts's tracks per view set,
    each copy observed in the views of its set only."""
    masks = []
    for ids in view_sets:
        masks.append(np.zeros(ts.visible.shape, dtype=bool))
        masks[-1][:, list(ids)] = True
    return np.concatenate([ts.points] * len(view_sets)), np.concatenate(masks)


def seen_everywhere(points):
    """Points and mask of (N, k, 3) tracks observed in all k views."""
    points = np.asarray(points, dtype=float)
    return points, np.ones(points.shape[:2], dtype=bool)
