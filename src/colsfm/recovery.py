"""Camera recovery from consistent tensors and dual-graph registration.

Per-triplet recovery is scale-free: rotations come from the blocks, the
translation direction from the anchor pair, and the remaining position
freedom (alpha in the calibrated collinear case, the 4-vector a in the
projective one) from 3-view tracks, all triangulated by one stacked DLT.
Each recovery returns its three cameras as one (3, 3, 4) array in the
triplet's sorted camera order.  Triplets are then chained into a common
frame along the breadth-first tree that the cover holds with its dual graph
(`TripletCover.dual`), as one (T, 3, 3, 4) camera stack in cover order
moved by the composed 4x4 maps of the tree's edges, each fitted on the
cameras whose ids match, and every camera's estimates merged in one pass.

Everything runs in stacked passes before any triplet is recovered:
`pair_poses` decomposes every essential block of a stage with one cheirality
vote over the tracks of the pairs it is given (closed-form depths; DLT only
for entries they cannot certify), `resolve_essential_triplet` picks and
averages every triplet's rotations (one eigendecomposition of the (T, 9, 9)
stack), `closure_scales` solves every direction closure in one SVD and
places every general triplet's cameras, `collinear_placement` gates every
collinear triplet on its eigenvalue pattern and places its cameras from one
DLT of all 3-view tracks, and `projective_systems` stacks the a-vector rows
of every triplet, normalizes and checks them together and solves each a on
its own slice.  Each of the four per-triplet recoveries reads its row and
raises its own error.  The passes take a stage's tracks as one ragged stack
(points, rows), as `TrackSet.tracks` gives them: every row's (N_r, k, 3)
points one row after another, and the row (pair or triplet) of each.

Uncalibrated "r4" recovers no triplet: `projective_factorization` recovers
every camera at once from the tracks seen in all views, with projective
depths chained along the consensus blocks (i, i + 1) (Sturm & Triggs, ECCV
1996).  Per-triplet projective recovery and projective registration serve
the virtual cover and "vc" only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    AlignmentIllConditioned,
    AmbiguousCheirality,
    CyclicInconsistency,
    DegenerateEpipole,
    InconsistentInput,
    InsufficientTracks,
    NotConnected,
    RankDeficient,
)
from .geometry import (
    camera_centers,
    cheirality_votes,
    essential_candidates,
    fundamental_from_projections,
    nearest_rotation,
    norms,
    skew,
    triangulate,
)
from .nview import block_index, block_matrix, collinear_pattern_residual, eigen_signature
# bench/tracing.py still hooks this name here for its nview.certify span (ROADMAP item 8)
from .nview import certify_collinear_essential  # noqa: F401


@dataclass(frozen=True)
class PairPoses:
    """Decompositions E ~ [t]_x R of K essential blocks of cameras i < j.

    rotations (K, 2, 3, 3) holds both rotation branches of R_i^T R_j, or the
    cheirality-picked one twice when the pair has 2-view tracks; t_dirs
    (K, 3) the unit directions R_i^T (t_i - t_j), their sign known
    (sign_known, (K,)) only when picked by cheirality; errors the message of
    each pair whose candidates tie on their depth votes, else None.
    """

    rotations: np.ndarray
    t_dirs: np.ndarray
    sign_known: np.ndarray
    errors: tuple


def pair_poses(blocks, tracks=None) -> PairPoses:
    """The poses of a (K, 3, 3) stack of essential blocks, every pair with
    tracks cheirality-voted in one stacked pass (closed-form depths; DLT only
    for entries they cannot certify): the candidate with the most tracks in
    front of both views wins.  tracks is the ragged stack of the pairs'
    2-view tracks, ordered (view i, view j); a pair with none stays unsigned."""
    Ra, Rb, t = essential_candidates(np.asarray(blocks, dtype=float).reshape(-1, 3, 3))
    rotations = np.stack([Ra, Rb], axis=1)
    points, pair = tracks if tracks is not None else (np.zeros((0, 2, 3)), np.zeros(0, dtype=int))
    sign_known = np.bincount(pair, minlength=len(t)) > 0
    errors = [None] * len(t)
    voted = np.flatnonzero(sign_known)
    if len(voted):
        votes = cheirality_votes(rotations[voted], t[voted], points, np.searchsorted(voted, pair))
        best = np.argmax(votes, axis=1)
        rotations[voted] = rotations[voted, best // 2][:, None]
        t[voted] = np.where((best % 2 == 1)[:, None], -t[voted], t[voted])
        tied = np.sort(votes, axis=1)[:, -2] == np.max(votes, axis=1)
        for k in np.flatnonzero(tied):
            errors[voted[k]] = f"depth votes tie: {votes[k].tolist()}"
    return PairPoses(rotations, t, sign_known, tuple(errors))


@dataclass(frozen=True)
class TripletGeometry:
    """Pairwise relative rotations and directions of T essential triplets,
    stacked in local pair order (0,1), (0,2), (1,2).

    rotations (T, 3, 3, 3) is R_i^T R_j of the branches that best close the
    rotation cycle, t_dirs (T, 3, 3) the unit directions R_i^T (t_i - t_j),
    sign_known (T, 3) marks the directions signed by track cheirality,
    cycle_residual (T,) is the cycle's closure residual, averaged (T, 3, 3, 3)
    the three R_i^T from `eigen_rotation_averaging`, and errors holds the
    first pair error of each triplet, else None.
    """

    rotations: np.ndarray
    t_dirs: np.ndarray
    sign_known: np.ndarray
    cycle_residual: np.ndarray
    averaged: np.ndarray
    errors: tuple


# the 8 (0,1), (0,2), (1,2) branch choices in product order, (0,1) outermost
_BRANCHES = np.array(list(product((0, 1), repeat=3)))


def resolve_essential_triplet(poses: PairPoses, rows) -> TripletGeometry:
    """The geometry of T triplets whose local pairs are the poses' rows
    (T, 3): of the 8 branch combinations (a pair picked by cheirality offers
    its rotation twice), the first smallest cycle residual
    ||R01 R12 R02^T - I|| wins."""
    rows = np.asarray(rows).reshape(-1, 3)
    R = poses.rotations[rows]  # (T, local pair, branch, 3, 3)
    R01, R02, R12 = (R[:, k, _BRANCHES[:, k]] for k in range(3))  # (T, 8, 3, 3)
    r = norms((R01 @ R12 @ R02.swapaxes(-1, -2) - np.eye(3)).reshape(len(rows), 8, 9))
    best = np.argmin(r, axis=1)
    residual = r[np.arange(len(rows)), best]
    rotations = R[np.arange(len(rows))[:, None], np.arange(3), _BRANCHES[best]]
    errors = tuple(next((poses.errors[k] for k in row if poses.errors[k]), None) for row in rows)
    return TripletGeometry(rotations, poses.t_dirs[rows], poses.sign_known[rows], residual,
                           eigen_rotation_averaging(rotations), errors)


def eigen_rotation_averaging(rel) -> np.ndarray:
    """Absolute orientations of T sets of m cameras from their relative ones
    (T, m(m-1)/2, 3, 3), every pair i < j in combinations order, via the top
    eigenvectors of the block matrix M_ij = R_i^T R_j (M_ii = I).  Returns
    the (T, m, 3, 3) R_i^T, each set up to one global rotation."""
    rel = np.asarray(rel, dtype=float)
    T, P = rel.shape[:2]
    M = block_matrix(rel, block_index(np.arange(T * P).reshape(T, P)))
    m = M.shape[-1] // 3
    M[:, np.arange(3 * m), np.arange(3 * m)] = 1.0
    _, V = np.linalg.eigh(M)
    B = V[..., -3:].reshape(T, m, 3, 3)
    B[..., 0] *= np.where(np.sum(np.linalg.det(B), axis=1) < 0, -1.0, 1.0)[:, None, None]
    return nearest_rotation(B)


@dataclass(frozen=True)
class TripletClosure:
    """Relative pair magnitudes of T triplets from the direction closure, in
    local pair order: dirs (T, 3, 3) the pair directions in the averaged
    frame, mu (T, 3) the magnitudes ||t_i - t_j|| with mu01 = 1, signs
    (T, 3) the direction signs, residual (T,) the closure residual; valid
    (T,) is False where no sign branch closes the triangle; spread (T,) is
    the ratio of the closure system's second singular value to its first,
    which no sign branch changes: near 0, the three directions are parallel
    (a collinear triplet), and the closure leaves the ratios of its
    baselines free; cameras (T, 3, 3, 4) are the averaged rotations placed."""

    dirs: np.ndarray
    mu: np.ndarray
    signs: np.ndarray
    residual: np.ndarray
    valid: np.ndarray
    spread: np.ndarray
    cameras: np.ndarray


# the 8 (s01, s02, s12) sign choices in product order, (0, 1) outermost, + before -
_SIGNS = 1.0 - 2.0 * _BRANCHES
# the least closure spread a general triplet may have: exactly collinear
# triplets read 1e-16 to 3e-16, every triplet of the vc bench sets and the
# banded and criterion-10 scenes at least 0.15
_SPREAD_TOL = 1e-8


def closure_scales(geom: TripletGeometry) -> TripletClosure:
    """Relative pair magnitudes from the closure (t_0 - t_1) + (t_1 - t_2) =
    (t_0 - t_2), searched over the free sign branches in one stacked SVD (a
    direction signed by cheirality keeps +; the first strictly smallest
    residual with nonnegative magnitudes wins)."""
    T = len(geom.t_dirs)
    Rh = geom.averaged[:, [0, 0, 1]].swapaxes(-1, -2)
    d = (Rh @ geom.t_dirs[..., None])[..., 0]
    A = np.stack([d[:, 0], d[:, 2], -d[:, 1]], axis=-1)[:, None] * _SIGNS[:, None, [0, 2, 1]]
    _, sv, Vt = np.linalg.svd(A)
    mu = Vt[..., 2, :] * np.where(np.sum(Vt[..., 2, :], axis=-1) < 0, -1.0, 1.0)[..., None]
    peak = np.max(np.abs(mu), axis=-1, keepdims=True)
    # tolerate a negligibly negative component (nearly degenerate pair
    # distance under noise) and clamp it away
    allowed = ~np.any(geom.sign_known[:, None] & (_SIGNS < 0), axis=-1)
    valid = allowed & np.all(mu > -1e-6 * peak, axis=-1)
    best = np.argmin(np.where(valid, sv[..., 2], np.inf), axis=1)
    at = np.arange(T), best
    mu = np.maximum(mu[at], 1e-12 * peak[at])
    mu = (mu / mu[:, :1])[:, [0, 2, 1]]
    t = np.concatenate([np.zeros((T, 1, 3)), 0.0 - (mu * _SIGNS[best])[:, :2, None] * d[:, :2]], axis=1)
    cameras = np.concatenate([geom.averaged, -geom.averaged @ t[..., None]], axis=-1)
    return TripletClosure(d, mu, _SIGNS[best], sv[at][:, 2], np.any(valid, axis=1),
                          sv[:, 0, 1] / sv[:, 0, 0], cameras)


def _rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for every row k, each as one vector dot product."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class CollinearPlacement:
    """The eigenvalue gate, the alpha solve and the cameras of T collinear
    calibrated triplets: count (T,) the significant eigenvalues, residual (T,)
    their deviation from (l, l, -l, -l), alpha (T,) camera 2's position on the
    line of cameras 0 and 1 at unit baseline, cameras (T, 3, 3, 4) the
    averaged rotations placed on that line (P2 nan where alpha is), errors
    the error each alpha solve raises (alpha nan), else None."""

    count: np.ndarray
    residual: np.ndarray
    alpha: np.ndarray
    cameras: np.ndarray
    errors: tuple


def collinear_placement(E9, geom: TripletGeometry, tracks3, rank_tol=None) -> CollinearPlacement:
    """The placement of the T triplets whose (T, 9, 9) matrices are E9, with
    the rows of geom and the ragged stack of their 3-view tracks, in one
    stacked pass: one eigendecomposition of E9, and one DLT from views 0-1 of
    every track through the cameras P0 and P1, whose alpha solves P2(alpha) X
    x x2 = 0 in least squares (ambiguous and at-infinity points skipped, sums
    in track order), then P2(alpha) of every triplet; count is of |w| >
    rank_tol, or of `nview.eigen_signature` where it is None."""
    w = np.linalg.eigh(E9)[0][:, ::-1]
    Rh, T = geom.averaged, len(E9)
    axis = Rh[:, 0].swapaxes(-1, -2) @ geom.t_dirs[:, 0, :, None]  # (T, 3, 1) world t_0 - t_1 direction
    P0 = np.concatenate([Rh[:, 0], np.zeros((T, 3, 1))], axis=2)
    P1 = np.concatenate([Rh[:, 1], Rh[:, 1] @ axis], axis=2)
    pts, of = tracks3  # of: each track's triplet
    X, ambiguous = triangulate(np.stack([P0, P1], axis=1)[of], pts[:, :2])
    keep = ~ambiguous & ~(np.abs(X[:, 3]) < 1e-12 * np.linalg.norm(X, axis=1))
    X, x2, used = X[keep], pts[keep, 2], of[keep]
    bx = np.cross((Rh[:, 2] @ axis)[used, :, 0], x2)
    ux = np.cross((Rh[used, 2] @ (X[:, :3] / X[:, 3:])[:, :, None])[:, :, 0], x2)
    dots = np.stack([-_rowwise_dot(bx, ux), _rowwise_dot(bx, bx), _rowwise_dot(ux, ux)], axis=1)
    # each triplet's sums in track order, zero-padded (a zero adds exactly)
    counts = np.bincount(used, minlength=T)
    rows = np.zeros((T, counts.max(initial=0) + 1, 3))
    rows[used, np.arange(len(used)) - (np.cumsum(counts) - counts)[used]] = dots
    num, den, scale = (0.0 + np.cumsum(rows, axis=1)[:, -1]).T
    failure = np.select(
        [np.bincount(of, minlength=T) == 0, counts == 0, den < 1e-18 * np.maximum(scale, 1.0)],
        ["alpha is undetermined without 3-view tracks", "no usable 3-view track for the alpha solve",
         "3-view tracks are degenerate with the camera line"], "")
    alpha = np.where(failure == "", num, np.nan) / np.where(failure == "", den, 1.0)
    errors = [InsufficientTracks(f) if f else None for f in failure.tolist()]
    P2 = np.concatenate([Rh[:, 2], (alpha[:, None, None] * Rh[:, 2]) @ axis], axis=2)
    count = (np.sum(eigen_signature(w), axis=0) if rank_tol is None
             else np.sum(np.abs(w) > rank_tol, axis=1))
    return CollinearPlacement(count, collinear_pattern_residual(w), alpha,
                              np.stack([P0, P1, P2], axis=1), tuple(errors))


def recover_calibrated_collinear_triplet(
    placement: CollinearPlacement,
    geom: TripletGeometry,
    k: int,
    tol: float = 1e-3,
) -> np.ndarray:
    """The (3, 3, 4) cameras of a collinear calibrated triplet: row k of its
    placement's cameras (the averaged rotations, the pair (0,1) fixing the
    line direction with unit baseline, and alpha placing the third camera
    along it), once row k of its geometry and placement passes the gates.
    The geometry is read only after the eigenvalue gate passes, so a
    rejected triplet reports the gate, not a pair error.

    The gate checks the eigenvalue pattern only (a sanity gate against junk
    input, with a tolerance tol sized for post-averaging noise floors that
    bounds the rotation cycle residual too, and the rank counted at the
    placement's own tolerance): measured blocks carry arbitrary scales, which
    leave the pattern intact but make the orthogonality condition of
    `certify_collinear_essential` meaningless before recovery.
    """
    if not (placement.count[k] == 4 and placement.residual[k] < tol):
        raise InconsistentInput(
            f"triplet matrix fails the collinear eigenvalue pattern "
            f"(rank {placement.count[k]}, residual {placement.residual[k]:.3e})"
        )
    _check_resolved(geom, k, tol)
    if not geom.sign_known[k, 0]:
        raise InsufficientTracks("pair (0,1) needs 2-view tracks to sign the baseline")
    if placement.errors[k] is not None:
        raise placement.errors[k]
    return placement.cameras[k]


def _check_resolved(geom: TripletGeometry, k: int, cycle_tol: float) -> None:
    """Raise row k's first pair error, else its rotation cycle residual if
    above cycle_tol."""
    if geom.errors[k] is not None:
        raise AmbiguousCheirality(geom.errors[k])
    residual = float(geom.cycle_residual[k])
    if residual > cycle_tol:
        raise CyclicInconsistency(f"rotation cycle residual {residual:.3e} above {cycle_tol:.1e}")


def recover_calibrated_general_triplet(
    geom: TripletGeometry,
    closure: TripletClosure,
    k: int,
    tol: float = 1e-3,
) -> np.ndarray:
    """The (3, 3, 4) cameras of a general-position calibrated triplet, row k
    of its closure's, once row k of its geometry and closure pass the checks:
    rotations and relative translation magnitudes come from the three pair
    poses alone (direction closure); only one pair needs to be picked by
    track cheirality, to fix the overall cheirality; tol bounds the rotation
    cycle residual.  A collinear triplet's directions do not fix its baseline
    ratios: its closure spread below `_SPREAD_TOL` raises RankDeficient."""
    _check_resolved(geom, k, tol)
    if not np.any(geom.sign_known[k]):
        raise InsufficientTracks("at least one pair needs tracks to anchor cheirality")
    if closure.spread[k] < _SPREAD_TOL:
        raise RankDeficient("collinear triplet: its translation directions are parallel, "
                            "so the closure does not fix its baseline ratios")
    if not closure.valid[k]:
        raise InconsistentInput("no sign branch closes the translation triangle")
    return closure.cameras[k]


@dataclass(frozen=True)
class ProjectiveSystems:
    """The a-vector systems of T triplets with pair tensors F01, F02, F12,
    for cameras P0 = [[e0]_x F01 | e0], P1 = [I | 0] and P2(a) = [M2 | 0] +
    e2 a^T, M2 = [e2]_x F12^T, e0 and e2 the images of center 1 in views 0
    and 2.  A (R, 4) and b (R,) stack the rows, triplet k's from offsets[k]
    to offsets[k + 1]: nine making the tensor of P0 and P2(a) proportional
    to F02, then three per 3-view track that triangulates from views 0-1;
    cameras (T, 3, 3, 4) hold P0, P1 and P2(a) solved on the route collinear
    names (P2 nan where errors holds the row's error, else None)."""

    A: np.ndarray
    b: np.ndarray
    offsets: np.ndarray
    collinear: bool
    cameras: np.ndarray
    errors: tuple


# the a of P2(0) and P2(e_k), k = 0..3: the affine map a -> tensor of P0, P2(a)
_A_BASIS = np.vstack([np.zeros(4), np.eye(4)])
_P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
_P1.setflags(write=False)


def projective_systems(F, rows, table, tracks3=None) -> ProjectiveSystems:
    """The systems of the T triplets whose local pairs are the rows (T, 3) of
    a (P, 3, 3) tensor stack F with epipoles `geometry.epipole_table(F)`, in
    one stacked pass: one tensor call for the cameras P2(0), P2(e_k) of every
    triplet, one DLT of every track of tracks3, every row normalized and
    dropped below 1e-12 of its triplet's largest (at least 1), every triplet
    checked, and each a that passes solved in least squares.  tracks3, the
    ragged stack of the triplets' 3-view tracks, selects the collinear route
    (a needs 2 that triangulate), None the general one (tensor rows alone,
    of rank 4)."""
    rows = np.asarray(rows).reshape(-1, 3)
    T = len(rows)
    e0, e2 = table[rows[:, 0], 0], table[rows[:, 2], 1]
    P0 = np.concatenate([skew(e0) @ F[rows[:, 0]], e0[:, :, None]], axis=2)
    M2 = skew(e2) @ F[rows[:, 2]].swapaxes(-1, -2)
    P2 = np.concatenate([M2, np.zeros((T, 3, 1))], axis=2)
    G = fundamental_from_projections(P0[:, None], P2[:, None] + e2[:, None, :, None] * _A_BASIS[:, None])
    f0 = G.reshape(T, 5, 9)[:, 0]
    L = np.ascontiguousarray((G.reshape(T, 5, 9)[:, 1:] - f0[:, None]).swapaxes(1, 2))
    f = F[rows[:, 1]].reshape(T, 9)
    norm = norms(f)
    fhat = f / np.where(norm == 0.0, 1.0, norm)[:, None]
    Proj = np.eye(9) - fhat[:, :, None] * fhat[:, None, :]
    collinear = tracks3 is not None
    pts, of = tracks3 if collinear else (np.zeros((0, 3, 3)), np.zeros(0, dtype=int))  # of: tracks' triplets
    few = np.bincount(of, minlength=T) < 2 * collinear
    X, ambiguous = triangulate(np.stack([P0, np.broadcast_to(_P1, P0.shape)], axis=1)[of], pts[:, :2])
    X, x2, of = X[~ambiguous], pts[~ambiguous, 2], of[~ambiguous]
    used = np.bincount(of, minlength=T)
    offsets = np.concatenate([[0], np.cumsum(9 + 3 * used)])
    tensor = np.arange(offsets[-1]) - np.repeat(offsets[:-1], 9 + 3 * used) < 9  # each triplet's first nine
    A, b = np.empty((offsets[-1], 4)), np.empty(offsets[-1])
    A[tensor], b[tensor] = (Proj @ L).reshape(-1, 4), ((-Proj) @ f0[:, :, None]).ravel()
    A[~tensor] = (np.cross(e2[of], x2)[:, :, None] * X[:, None, :]).reshape(-1, 4)
    b[~tensor] = -np.cross((M2[of] @ X[:, :3, None])[:, :, 0], x2).ravel()
    # row normalization keeps tensor rows and track rows commensurable
    rn, owner = np.linalg.norm(A, axis=1), np.repeat(np.arange(T), 9 + 3 * used)  # each row's triplet
    keep = rn > 1e-12 * np.maximum(np.maximum.reduceat(rn, offsets[:-1]), 1.0)[owner]
    An, bn, kept = A[keep] / rn[keep, None], b[keep] / rn[keep], np.bincount(owner[keep], minlength=T)
    start, ranked = np.cumsum(kept) - kept, np.zeros(T, dtype=bool)
    for m in () if collinear else np.unique(kept[kept >= 4]).tolist():
        # the general route's rank: one SVD per kept-row count, each matrix in its own shape
        at = np.flatnonzero(kept == m)
        sv = np.linalg.svd(An[start[at, None] + np.arange(m)], compute_uv=False)
        ranked[at] = sv[:, 3] >= 1e-10 * sv[:, 0]
    # each triplet's first error, in the per-triplet order
    errors = tuple(
        InsufficientTracks("the a-vector solve needs at least 2 three-view tracks") if short
        else RankDeficient("tensor has a two-dimensional null space") if not (p.any() and q.any())
        else RankDeficient("third tensor is zero") if n == 0.0
        else (DegenerateEpipole("every constraint row is degenerate (tracks at the epipole)") if not m
              else InsufficientTracks(f"the a-vector solve needs at least 2 three-view tracks; {u} "
                                      "triangulate unambiguously") if u < 2 else None) if collinear
        else None if r else DegenerateEpipole("third tensor does not determine a (collinear cameras?)")
        for short, p, q, n, m, u, r in zip(few, e0, e2, norm, kept.tolist(), used.tolist(), ranked))
    a = np.full((T, 4), np.nan)
    for k, s, m in [(k, start[k], kept[k]) for k, e in enumerate(errors) if e is None]:
        a[k] = np.linalg.lstsq(An[s:s + m], bn[s:s + m], rcond=None)[0]  # lstsq takes no stack
    cameras = np.stack([P0, np.broadcast_to(_P1, P0.shape), P2 + e2[:, :, None] * a[:, None, :]], axis=1)
    return ProjectiveSystems(A, b, offsets, collinear, cameras, errors)


def _row_cameras(system: ProjectiveSystems, k: int, collinear: bool) -> np.ndarray:
    """Row k's cameras, or the error it raises, from systems solved on this route."""
    if system.collinear is not collinear:
        raise ValueError("these projective systems were solved on the other route")
    if system.errors[k] is not None:
        raise system.errors[k]
    return system.cameras[k]


def recover_projective_collinear_triplet(system, k: int) -> np.ndarray:
    """The (3, 3, 4) projective cameras of a collinear triplet, row k of its
    `ProjectiveSystems` built with tracks: the canonical pair from F01, the
    family P2(a) compatible with F12, and a solved from the 3-view tracks."""
    return _row_cameras(system, k, collinear=True)


def recover_projective_general_triplet(system, k: int) -> np.ndarray:
    """The (3, 3, 4) projective cameras of a general-position triplet, row k
    of its `ProjectiveSystems` built without tracks: a is fully determined
    by proportionality to the third tensor, no tracks needed."""
    return _row_cameras(system, k, collinear=False)


# a link's depth denominator counts as vanishing below this many times
# |x_i| |x_{i+1}|, its largest possible magnitude; the tracks of the noisy
# bench `uncal` scenes read at least 0.34 of it
_EPIPOLE_TOL = 1e-10


def projective_factorization(F, table, points) -> np.ndarray:
    """The (n, 3, 4) projective cameras, each at unit Frobenius norm, of the
    (N, n, 3) points of N tracks seen in all n views, from the (n - 1, 3, 3)
    unit-norm chain blocks F of the pairs (i, i + 1) and their
    `geometry.epipole_table`, by Sturm & Triggs' factorization: each
    track's projective depths chained along the blocks from 1 in view 0,
    lambda_{i+1} = lambda_i |e x x_i|^2 / ((e x x_i) . (F x_{i+1})), e the
    left epipole (one cumulative product); the (N, n, 3) stack of lambda x
    scaled to unit norm by camera row-triplets, then by point columns, three
    times; the rank-4 SVD of its 3n x N matrix.  A track whose depth
    denominator vanishes in some link (a view at an epipole, or any view of
    a block without unique epipoles, whose table row is zero) is dropped;
    fewer than 4 tracks left raise InsufficientTracks."""
    x = np.asarray(points, dtype=float)
    lines = np.cross(table[:, 0], x[:, :-1])  # (N, n - 1, 3) the lines e x x_i
    den = np.sum(lines * (F @ x[:, 1:, :, None])[..., 0], axis=-1)
    kept = np.all(np.abs(den) > _EPIPOLE_TOL * norms(x[:, :-1]) * norms(x[:, 1:]), axis=1)
    if np.count_nonzero(kept) < 4:
        raise InsufficientTracks(f"projective factorization needs 4 tracks seen in every view and "
                                 f"off the epipoles; {np.count_nonzero(kept)} are")
    ratio = np.sum(lines * lines, axis=-1)[kept] / den[kept]
    depths = np.cumprod(np.concatenate([np.ones((len(ratio), 1)), ratio], axis=1), axis=1)
    W = depths[..., None] * x[kept]
    for _ in range(3):
        W = W / np.sqrt(np.sum(W * W, axis=(0, 2)))[:, None]
        W = W / norms(W.reshape(len(W), -1))[:, None, None]
    n = x.shape[1]
    U, s, _ = np.linalg.svd(W.transpose(1, 2, 0).reshape(3 * n, -1), full_matrices=False)
    P = (U[:, :4] * s[:4]).reshape(n, 3, 4)
    return P / norms(P.reshape(n, 12))[:, None, None]


# the 24x18 homography system as a gather from [Pc (24), -Pp (24), 0]:
# equation 12k + 4r + c, (Pc[k] @ G)[r, c] = sum_m Pc[k][r, m] G[m, c],
# reads Pc[k][r, m] at column 4m + c and -Pp[k][r, c] at column 16 + k
_HOMOGRAPHY_SYSTEM = np.fromfunction(
    lambda eq, j: np.where(j < 16, np.where(j % 4 == eq % 4, eq - eq % 4 + j // 4, 48),
                           np.where(j - 16 == eq // 12, 24 + eq, 48)), (24, 18), dtype=int)


def _align_edge(parent: np.ndarray, child: np.ndarray, p, c, mode: str) -> np.ndarray:
    """The (K, 4, 4) maps H that move the (K, 3, 3, 4) child cameras of K
    edges into the frames of the (K, 3, 3, 4) parent ones, child @ H, each
    through the two cameras the edge shares, at the parent's local slots p[k]
    and the child's slots c[k] ((K, 2) each); an ill-conditioned edge raises.

    mode="euclidean": per edge [[Q^T, -Q^T d], [0, s]], inverting the
    similarity (s, Q, d) from child-frame points to parent-frame ones, Q
    the rotation mean of the shared cameras' relative rotations, s the
    ratio of their baselines.
    mode="projective": per edge the 4x4 G with P_parent,k ~ P_child,k @ G on
    both shared cameras, the null vector of the stacked 24x18 system in the
    unknowns (G row-major, lambda_0, lambda_1) at unit norm, its
    largest-magnitude entry positive.
    """
    edge = np.arange(len(child))[:, None]
    Pp, Pc = parent[edge, p], child[edge, c]  # (K, 2, 3, 4) the shared cameras
    if mode == "euclidean":
        Rp, Rc = Pp[..., :3].swapaxes(-1, -2), Pc[..., :3]
        cp, cc = camera_centers(Pp), camera_centers(Pc)
        Q = nearest_rotation(Rp[:, 0] @ Rc[:, 0] + Rp[:, 1] @ Rc[:, 1])  # R_parent @ R_child^T
        base_c, base_p = norms(cc[:, 0] - cc[:, 1]), norms(cp[:, 0] - cp[:, 1])
        if (base_c < 1e-10 * np.maximum(base_p, 1.0)).any():
            raise AlignmentIllConditioned("shared camera centers coincide in the child frame")
        s, H = base_p / base_c, np.zeros((len(child), 4, 4))
        H[:, :3, :3], H[:, 3, 3] = Q.swapaxes(-1, -2), s
        H[:, :3, 3] = 0.5 * np.sum(s[:, None, None] * cc - cp @ Q, axis=1)  # -Q^T d
        return H
    A = np.concatenate([Pc.reshape(-1, 24), -Pp.reshape(-1, 24), np.zeros((len(child), 1))], axis=1)
    _, sv, Vt = np.linalg.svd(A[:, _HOMOGRAPHY_SYSTEM], full_matrices=False)
    if (sv[:, -2] < 1e-10 * sv[:, 0]).any():
        raise AlignmentIllConditioned("projective alignment system is rank deficient")
    G = Vt[:, -1, :16]
    G = np.where(G[edge[:, 0], np.argmax(np.abs(G), axis=1)][:, None] < 0, -G, G)  # deterministic orientation
    return (G / norms(G)[:, None]).reshape(-1, 4, 4)


def register_global(stack, cover, mode: str, n_cameras: int) -> list:
    """The n_cameras cameras (3x4, None where no triplet holds one) of the
    (T, 3, 3, 4) stack of recovered triplet cameras in cover order, chained
    into one frame along the cover's dual BFS tree (`TripletCover.dual`):
    one `_align_edge` call fits each edge's map H in the two triplets' own
    frames, on the two cameras whose ids match, composed in BFS order as
    to_root[k] = H[k] @ to_root[parent[k]], which equals aligning onto placed
    parents where the fits are equivariant (similarities; exact homographies).

    mode="euclidean": per-edge similarity, multi-visit cameras merged by
    chordal rotation mean and center mean, summed in BFS order.
    mode="projective": per-edge 4x4 homography, each composed map oriented
    as an edge's is; the first visit wins.
    """
    if mode not in ("euclidean", "projective"):
        raise ValueError("mode must be 'euclidean' or 'projective'")
    stack = np.asarray(stack, dtype=float)
    if not cover.triplets or stack.shape != (len(cover.triplets), 3, 3, 4):
        raise ValueError("registration needs one recovered triplet per cover triplet")
    if not cover.is_connected():
        raise NotConnected("cover dual graph does not reach every triplet")
    ids = np.array(cover.triplets)
    order, parent, _ = cover.dual
    kids, ups = order[1:], parent[order[1:]]
    _, c, p = np.nonzero(ids[kids][:, :, None] == ids[ups][:, None, :])
    H = _align_edge(stack[ups], stack[kids], p.reshape(-1, 2), c.reshape(-1, 2), mode)
    to_root = np.tile(np.eye(4), (len(ids), 1, 1))
    for k, up, h in zip(kids.tolist(), ups.tolist(), H):
        to_root[k] = h @ to_root[up]
    if mode == "projective":
        peak = np.abs(to_root).reshape(-1, 16).argmax(axis=1)
        to_root *= np.sign(to_root.reshape(-1, 16)[np.arange(len(ids)), peak])[:, None, None]
    placed = stack[order] @ to_root[order][:, None]  # in BFS order, in the root frame
    estimates, of = placed.reshape(-1, 3, 4), ids[order].ravel()
    cams, first, counts = np.unique(of, return_index=True, return_counts=True)
    if mode == "euclidean":
        # grouped by a stable sort and padded with -0.0 (x + -0.0 == x), so
        # each sum adds its camera's estimates one by one in BFS order
        estimates = estimates[np.argsort(of, kind="stable")]
        estimates[..., 3] = camera_centers(estimates)  # [R | centre]
        rows = np.full((counts.max(), len(cams), 3, 4), -0.0)
        rows[np.arange(len(of)) - np.repeat(np.cumsum(counts) - counts, counts),
             np.repeat(np.arange(len(cams)), counts)] = estimates
        total = np.sum(rows, axis=0)
        R = nearest_rotation(total[..., :3])
        merged = np.concatenate([R, -R @ (total[..., 3:] / counts[:, None, None])], axis=-1)
    else:
        merged = estimates[first] / norms(estimates[first].reshape(-1, 12))[:, None, None]
    held = dict(zip(cams.tolist(), merged))
    return [held.get(i) for i in range(n_cameras)]
