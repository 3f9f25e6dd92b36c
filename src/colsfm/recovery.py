"""Camera recovery from consistent tensors and dual-graph registration.

Per-triplet recovery is scale-free: rotations come from the blocks, the
translation direction from the anchor pair, and the remaining position
freedom (alpha in the calibrated collinear case, the 4-vector a in the
projective one) from 3-view tracks, all triangulated by one stacked DLT.
Each recovery returns its three cameras as one (3, 3, 4) array in the
triplet's sorted camera order.  Triplets are then chained into a common
frame along the breadth-first tree that the cover holds with its dual graph
(`TripletCover.dual`), as one (T, 3, 3, 4) camera stack in cover order
aligned edge by edge on the cameras whose ids match.

Everything but the per-triplet solves runs in stacked passes before any
triplet is recovered: `pair_poses` decomposes every essential block of a
stage with one cheirality vote over the tracks of all its pairs
(closed-form depths; DLT only for entries they cannot certify),
`resolve_essential_triplet` picks and averages every triplet's rotations
(one eigendecomposition of the (T, 9, 9) stack), `closure_scales` solves
every direction closure in one SVD, `collinear_placement` gates every
collinear triplet on its eigenvalue pattern (one eigendecomposition of the
(T, 9, 9) stack), solves every alpha from one DLT of all 3-view tracks and
places every triplet's cameras in one (T, 3, 3, 4) stack, and
`projective_systems` builds every projective a-vector system from one
epipole table, one tensor call for all cameras P2(0), P2(e_k) and one DLT of
all 3-view tracks.  Each of the four per-triplet recoveries then reads its
row and raises its own error.
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
    ordered_sum,
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


def pair_poses(blocks, points) -> PairPoses:
    """The poses of a (K, 3, 3) stack of essential blocks, every pair with
    tracks (points[k]: (N, 2, 3) image points ordered (view i, view j), or
    None) cheirality-voted in one stacked pass (closed-form depths; DLT only
    for entries they cannot certify): the candidate with the most tracks in
    front of both views wins."""
    Ra, Rb, t = essential_candidates(np.asarray(blocks, dtype=float).reshape(-1, 3, 3))
    rotations = np.stack([Ra, Rb], axis=1)
    sign_known = np.array([p is not None and len(p) > 0 for p in points], dtype=bool)
    errors = [None] * len(t)
    voted = np.flatnonzero(sign_known)
    if len(voted):
        sizes = [len(points[k]) for k in voted]
        pts = np.concatenate([np.asarray(points[k], dtype=float) for k in voted])
        starts = np.cumsum([0] + sizes[:-1])
        votes = cheirality_votes(rotations[voted], t[voted], pts, starts)
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
    baselines free."""

    dirs: np.ndarray
    mu: np.ndarray
    signs: np.ndarray
    residual: np.ndarray
    valid: np.ndarray
    spread: np.ndarray


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
    mu = mu / mu[:, :1]
    return TripletClosure(d, mu[:, [0, 2, 1]], _SIGNS[best], sv[at][:, 2], np.any(valid, axis=1),
                          sv[:, 0, 1] / sv[:, 0, 0])


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
    the rows of geom and each triplet's (N, 3, 3) 3-view tracks, in one
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
    pts = [np.asarray(tr, dtype=float).reshape(-1, 3, 3) for tr in tracks3]
    of = np.repeat(np.arange(T), [len(p) for p in pts])  # each track's triplet
    pts = np.concatenate([np.zeros((0, 3, 3)), *pts])
    X, ambiguous = triangulate(np.stack([P0, P1], axis=1)[of], pts[:, :2])
    keep = ~ambiguous & ~(np.abs(X[:, 3]) < 1e-12 * np.linalg.norm(X, axis=1))
    X, x2, used = X[keep], pts[keep, 2], of[keep]
    bx = np.cross((Rh[:, 2] @ axis)[used, :, 0], x2)
    ux = np.cross((Rh[used, 2] @ (X[:, :3] / X[:, 3:])[:, :, None])[:, :, 0], x2)
    dots = np.stack([-_rowwise_dot(bx, ux), _rowwise_dot(bx, bx), _rowwise_dot(ux, ux)], axis=1)
    alpha, errors = np.empty(T), []
    for k, rows in enumerate(np.split(dots, np.cumsum(np.bincount(used, minlength=T))[:-1])):
        num, den, scale = (ordered_sum(c) for c in rows.T) if len(rows) else (0.0, 0.0, 0.0)
        failure = ("alpha is undetermined without 3-view tracks" if not np.any(of == k)
                   else "no usable 3-view track for the alpha solve" if not len(rows)
                   else "3-view tracks are degenerate with the camera line"
                   if den < 1e-18 * max(scale, 1.0) else None)
        errors.append(failure and InsufficientTracks(failure))
        alpha[k] = np.nan if failure else num / den
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
    """The (3, 3, 4) cameras of a general-position calibrated triplet from
    row k of its geometry and closure: rotations and relative translation
    magnitudes come from the three pair poses alone (direction closure); only
    one pair needs to be picked by track cheirality, to fix the overall
    cheirality; tol bounds the rotation cycle residual.  A collinear
    triplet's directions do not fix its baseline ratios: its closure spread
    below `_SPREAD_TOL` raises RankDeficient."""
    _check_resolved(geom, k, tol)
    if not np.any(geom.sign_known[k]):
        raise InsufficientTracks("at least one pair needs tracks to anchor cheirality")
    if closure.spread[k] < _SPREAD_TOL:
        raise RankDeficient("collinear triplet: its translation directions are parallel, "
                            "so the closure does not fix its baseline ratios")
    if not closure.valid[k]:
        raise InconsistentInput("no sign branch closes the translation triangle")
    Rh = geom.averaged[k]
    step = (closure.mu[k] * closure.signs[k])[:, None] * closure.dirs[k]  # t_0 - t_j per pair
    t0 = np.zeros(3)
    t = [t0, t0 - step[0], t0 - step[1]]
    return np.array([np.hstack([Rh[i], (-Rh[i] @ t[i]).reshape(3, 1)]) for i in range(3)])


@dataclass(frozen=True)
class ProjectiveSystems:
    """The a-vector systems of T triplets with pair tensors F01, F02, F12:
    cameras P0 = [[e0]_x F01 | e0] (T, 3, 4), P1 = [I | 0] and P2(a) = [M2 |
    0] + e2 a^T, M2 = [e2]_x F12^T (T, 3, 3), e0 and e2 the images of center 1
    in views 0 and 2.  rows holds each triplet's (A, b): nine rows making the
    tensor of P0 and P2(a) proportional to F02, then three per 3-view track
    that triangulates unambiguously from views 0-1; errors the error each
    triplet raises before its solve, else None."""

    P0: np.ndarray
    M2: np.ndarray
    e2: np.ndarray
    rows: list
    errors: tuple


# the a of P2(0) and P2(e_k), k = 0..3: the affine map a -> tensor of P0, P2(a)
_A_BASIS = np.vstack([np.zeros(4), np.eye(4)])
_P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
_P1.setflags(write=False)


def projective_systems(F, rows, table, tracks3=None) -> ProjectiveSystems:
    """The systems of the T triplets whose local pairs are the rows (T, 3) of
    a (P, 3, 3) tensor stack F with epipoles `geometry.epipole_table(F)`, in
    one stacked pass: one tensor call for the cameras P2(0), P2(e_k) of every
    triplet, and one DLT of every track of tracks3 (each triplet's (N, 3, 3)
    3-view tracks; None: no track rows, no track count)."""
    rows = np.asarray(rows).reshape(-1, 3)
    T = len(rows)
    e0, e2 = table[rows[:, 0], 0], table[rows[:, 2], 1]
    P0 = np.concatenate([skew(e0) @ F[rows[:, 0]], e0[:, :, None]], axis=2)
    M2 = skew(e2) @ F[rows[:, 2]].swapaxes(-1, -2)
    P2 = np.concatenate([M2, np.zeros((T, 3, 1))], axis=2)[:, None]
    G = fundamental_from_projections(P0[:, None], P2 + e2[:, None, :, None] * _A_BASIS[:, None])
    f0 = G.reshape(T, 5, 9)[:, 0]
    L = np.ascontiguousarray((G.reshape(T, 5, 9)[:, 1:] - f0[:, None]).swapaxes(1, 2))
    f = F[rows[:, 1]].reshape(T, 9)
    norm = norms(f)
    fhat = f / np.where(norm == 0.0, 1.0, norm)[:, None]
    Proj = np.eye(9) - fhat[:, :, None] * fhat[:, None, :]
    A, b = Proj @ L, ((-Proj) @ f0[:, :, None])[:, :, 0]
    pts = [np.asarray(tr, dtype=float).reshape(-1, 3, 3) for tr in tracks3 or ()]
    too_few = [len(p) < 2 for p in pts] if tracks3 is not None else [False] * T
    of = np.repeat(np.arange(len(pts)), [len(p) for p in pts])  # each track's triplet
    pts = np.concatenate([np.zeros((0, 3, 3)), *pts])
    X, ambiguous = triangulate(np.stack([P0, np.broadcast_to(_P1, P0.shape)], axis=1)[of], pts[:, :2])
    X, x2, of = X[~ambiguous], pts[~ambiguous, 2], of[~ambiguous]
    cuts = 3 * np.cumsum(np.bincount(of, minlength=T))[:-1]
    track_A = np.split((np.cross(e2[of], x2)[:, :, None] * X[:, None, :]).reshape(-1, 4), cuts)
    track_b = np.split(-np.cross((M2[of] @ X[:, :3, None])[:, :, 0], x2).ravel(), cuts)
    # the error each triplet raises before its solve, in the per-triplet order
    errors = tuple(
        InsufficientTracks("the a-vector solve needs at least 2 three-view tracks") if few
        else RankDeficient("tensor has a two-dimensional null space") if not (a.any() and c.any())
        else ValueError("cannot normalize zero vector") if n == 0.0 else None
        for few, a, c, n in zip(too_few, e0, e2, norm))
    systems = [(np.vstack([A[k], track_A[k]]), np.concatenate([b[k], track_b[k]])) for k in range(T)]
    return ProjectiveSystems(P0, M2, e2, systems, errors)


def _solve_a(system: ProjectiveSystems, k: int, collinear: bool) -> np.ndarray:
    """The (3, 3, 4) cameras of row k: its rows and right-hand sides divided
    by the rows' norms, checked (enough tracks for a collinear triplet, full
    rank for a general one) and solved for a in least squares."""
    if system.errors[k] is not None:
        raise system.errors[k]
    A, b = system.rows[k]
    used = (len(A) - 9) // 3  # three rows per track after the tensor's nine
    # row normalization keeps tensor rows and track rows commensurable
    norms = np.linalg.norm(A, axis=1)
    keep = norms > 1e-12 * max(float(np.max(norms)), 1.0)
    A, b = A[keep] / norms[keep, None], b[keep] / norms[keep]
    if not collinear:
        sv = np.linalg.svd(A, compute_uv=False)  # tensor rows only: none kept on collinear centres
        if len(sv) < 4 or sv[3] < 1e-10 * sv[0]:
            raise DegenerateEpipole("third tensor does not determine a (collinear cameras?)")
    elif not len(A):
        raise DegenerateEpipole("every constraint row is degenerate (tracks at the epipole)")
    elif used < 2:
        raise InsufficientTracks(f"the a-vector solve needs at least 2 three-view tracks; {used} "
                                 "triangulate unambiguously")
    a, *_ = np.linalg.lstsq(A, b, rcond=None)
    P2 = np.hstack([system.M2[k], np.zeros((3, 1))]) + np.outer(system.e2[k], a)
    return np.array([system.P0[k], _P1, P2])


def recover_projective_collinear_triplet(system, k: int) -> np.ndarray:
    """The (3, 3, 4) projective cameras of a collinear triplet from row k of
    its `ProjectiveSystems`: the canonical pair from F01, the family P2(a)
    compatible with F12, and a solved in least squares from the 3-view tracks
    (the third tensor constrains nothing when the centers are exactly
    collinear, so at least enough generic tracks to span the solve are
    required; a track whose point is ambiguous from views 0-1 does not
    count)."""
    return _solve_a(system, k, collinear=True)


def recover_projective_general_triplet(system, k: int) -> np.ndarray:
    """The (3, 3, 4) projective cameras of a general-position triplet from
    row k of its `ProjectiveSystems`: a is fully determined by
    proportionality to the third tensor, no tracks needed."""
    return _solve_a(system, k, collinear=False)


def _align_edge(parent: np.ndarray, child: np.ndarray, p, c, mode: str) -> np.ndarray:
    """The (3, 3, 4) child cameras moved into the frame of the (3, 3, 4)
    parent ones through the two cameras they share, at the parent's local
    slots p and the child's slots c.

    mode="euclidean": the similarity (s, Q, d) mapping child-frame points
    into the parent frame, Q the rotation mean of the shared cameras'
    relative rotations and s the ratio of their baselines.
    mode="projective": the 4x4 G with P_parent,k ~ P_child,k @ G on both
    shared cameras, up to scale the null vector of the stacked 24x18 system
    in the unknowns (G row-major, lambda_0, lambda_1).
    """
    if mode == "euclidean":
        Rp, Rc = parent[p, :, :3], child[c, :, :3]
        cp, cc = camera_centers(parent[p]), camera_centers(child)
        Q = nearest_rotation(Rp[0].T @ Rc[0] + Rp[1].T @ Rc[1])  # R_parent @ R_child^T
        base_c = np.linalg.norm(cc[c[0]] - cc[c[1]])
        base_p = np.linalg.norm(cp[0] - cp[1])
        if base_c < 1e-10 * max(base_p, 1.0):
            raise AlignmentIllConditioned("shared camera centers coincide in the child frame")
        s = base_p / base_c
        d = 0.5 * ((cp[0] - s * Q @ cc[c[0]]) + (cp[1] - s * Q @ cc[c[1]]))
        R = child[:, :, :3] @ Q.T
        t = (s * Q @ cc[..., None])[..., 0] + d
        return np.concatenate([R, -R @ t[..., None]], axis=-1)
    # equation 12k + 4r + c: (Pc[k] @ G)[r, c] = sum_m Pc[k][r, m] G[m, c]
    A = np.zeros((24, 18))
    same_c = np.eye(4, dtype=bool)[:, None]  # axes (c, m, c')
    A[:, :16] = np.where(same_c, child[c][:, :, None, :, None], 0.0).reshape(24, 16)
    A[np.arange(24), 16 + np.arange(24) // 12] = -parent[p].ravel()
    _, sv, Vt = np.linalg.svd(A)
    if sv[-2] < 1e-10 * sv[0]:
        raise AlignmentIllConditioned("projective alignment system is rank deficient")
    G = Vt[-1, :16].reshape(4, 4)
    if G.flat[int(np.argmax(np.abs(G)))] < 0:  # deterministic orientation
        G = -G
    return child @ (G / np.linalg.norm(G))


def register_global(stack, cover, mode: str, n_cameras: int) -> list:
    """The n_cameras cameras (3x4, None where no triplet holds one) of the
    (T, 3, 3, 4) stack of recovered triplet cameras in cover order, chained
    into one frame along the cover's dual BFS tree (`TripletCover.dual`):
    each tree edge moves its child into its parent's frame (`_align_edge`)
    through the two cameras whose ids match.

    mode="euclidean": per-edge similarity, multi-visit cameras merged by
    chordal rotation mean and center mean.  mode="projective": per-edge 4x4
    homography, the first visit wins.
    """
    if mode not in ("euclidean", "projective"):
        raise ValueError("mode must be 'euclidean' or 'projective'")
    stack = np.asarray(stack, dtype=float)
    if not cover.triplets or stack.shape != (len(cover.triplets), 3, 3, 4):
        raise ValueError("registration needs one recovered triplet per cover triplet")
    if not cover.is_connected():
        raise NotConnected("cover dual graph does not reach every triplet")
    ids = np.array(cover.triplets)
    dual = cover.dual
    placed = stack.copy()  # in the root frame
    for k in dual.order[1:].tolist():
        up = dual.parent[k]
        c, p = np.nonzero(ids[k][:, None] == ids[up])
        placed[k] = _align_edge(placed[up], stack[k], p, c, mode)

    # every camera's estimates, in BFS order
    estimates, of = placed[dual.order].reshape(-1, 3, 4), ids[dual.order].ravel()
    cameras = [None] * n_cameras
    for cam_id in np.unique(of).tolist():
        Ps = estimates[of == cam_id]
        if mode == "euclidean":
            R = nearest_rotation(np.sum(Ps[:, :, :3], axis=0))
            cameras[cam_id] = np.hstack([R, (-R @ np.mean(camera_centers(Ps), axis=0)).reshape(3, 1)])
        else:
            cameras[cam_id] = Ps[0] / np.linalg.norm(Ps[0])
    return cameras
