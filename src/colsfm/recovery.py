"""Camera recovery from consistent tensors and dual-graph registration.

Per-triplet recovery is scale-free: rotations come from the blocks, the
translation direction from the anchor pair, and the remaining position
freedom (alpha in the calibrated collinear case, the 4-vector a in the
projective one) from 3-view tracks, all triangulated by one stacked DLT.
Triplets are then chained into a common frame by traversing the cover's
dual graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlignmentIllConditioned,
    CyclicInconsistency,
    DegenerateEpipole,
    InconsistentInput,
    InsufficientTracks,
    NotConnected,
)
from .geometry import (
    _as_matrix,
    _dlt,
    _skews,
    epipole,
    essential_candidates,
    fundamental_from_projections,
    nearest_rotation,
    rotation_from_essential,
    skew,
    unit,
)
from .graphs import _LOCAL_PAIRS, dual_adjacency, dual_bfs
from .nview import certify_collinear_essential


@dataclass
class TripletCameras:
    """Three recovered 3x4 cameras in a local gauge.

    camera order follows sorted(camera_ids); frame is "euclidean" or
    "projective"; alpha_or_a holds the track-resolved free parameter.
    """

    triplet_id: tuple
    cameras: list
    frame: str
    alpha_or_a: np.ndarray | float


@dataclass(frozen=True)
class PairPose:
    """Decomposition of one essential block E ~ [t]_x R of cameras i < j.

    rotations holds the cheirality-picked R_i^T R_j when the pair has 2-view
    tracks, else both rotation branches; t_dir is the unit direction
    R_i^T (t_i - t_j), its sign known only when picked by cheirality.
    """

    rotations: tuple
    t_dir: np.ndarray
    sign_known: bool


def pair_pose(block, points=None) -> PairPose:
    """The pose of one essential block, cheirality-voted when the pair has
    tracks ((N, 2, 3) image points, ordered (view i, view j))."""
    if points is not None and len(points):
        R, t = rotation_from_essential(block, points)
        return PairPose((R,), t, True)
    four = essential_candidates(_as_matrix(block))
    return PairPose((four[0][0], four[2][0]), four[0][1], False)


@dataclass
class TripletGeometry:
    """Pairwise relative rotations/directions of an essential triplet.

    rotations[(i, j)] is R_i^T R_j, t_dirs[(i, j)] the unit direction
    R_i^T (t_i - t_j); sign_known marks pairs whose direction sign was fixed
    by track cheirality rather than left free.
    """

    rotations: dict
    t_dirs: dict
    sign_known: dict
    cycle_residual: float


def resolve_essential_triplet(poses, cycle_tol: float = 1e-3) -> TripletGeometry:
    """Pick the rotation branch of every pair left with two (no tracks), the
    branches that best close the rotation cycle winning.

    poses: the PairPose of local pairs (0,1), (0,2), (1,2), in that order.
    """
    poses = dict(zip(_LOCAL_PAIRS, poses))
    best = None
    for R01 in poses[(0, 1)].rotations:
        for R02 in poses[(0, 2)].rotations:
            for R12 in poses[(1, 2)].rotations:
                r = float(np.linalg.norm(R01 @ R12 @ R02.T - np.eye(3)))
                if best is None or r < best[0]:
                    best = (r, R01, R02, R12)
    residual, *rotations = best
    if residual > cycle_tol:
        raise CyclicInconsistency(f"rotation cycle residual {residual:.3e} above {cycle_tol:.1e}")
    return TripletGeometry(
        dict(zip(_LOCAL_PAIRS, rotations)),
        {k: p.t_dir for k, p in poses.items()},
        {k: p.sign_known for k, p in poses.items()},
        residual,
    )


def eigen_rotation_averaging(rel: dict, m: int) -> list:
    """Absolute orientations from relative ones via the top eigenvectors of
    the block matrix M_ij = R_i^T R_j (M_ii = I); returns R_i^T up to one
    global rotation."""
    M = np.zeros((3 * m, 3 * m))
    for i in range(m):
        M[3 * i:3 * i + 3, 3 * i:3 * i + 3] = np.eye(3)
    for (i, j), R in rel.items():
        M[3 * i:3 * i + 3, 3 * j:3 * j + 3] = R
        M[3 * j:3 * j + 3, 3 * i:3 * i + 3] = R.T
    w, V = np.linalg.eigh(M)
    B = V[:, -3:].reshape(m, 3, 3)
    if np.sum(np.linalg.det(B)) < 0:
        B[..., 0] = -B[..., 0]
    return list(nearest_rotation(B))


def closure_scales(geom: TripletGeometry):
    """Relative pair magnitudes ||t_i - t_j|| from the direction closure
    (t_0 - t_1) + (t_1 - t_2) = (t_0 - t_2), searched over the free sign
    branches; returns ({pair: mu}, {pair: sign}, residual) with mu01 = 1."""
    Rh = eigen_rotation_averaging(geom.rotations, 3)
    d = {k: Rh[k[0]].T @ geom.t_dirs[k] for k in _LOCAL_PAIRS}
    sign_options = {
        k: ((1.0,) if geom.sign_known[k] else (1.0, -1.0)) for k in _LOCAL_PAIRS
    }
    best = None
    for s01 in sign_options[(0, 1)]:
        for s02 in sign_options[(0, 2)]:
            for s12 in sign_options[(1, 2)]:
                A = np.column_stack([s01 * d[(0, 1)], s12 * d[(1, 2)], -s02 * d[(0, 2)]])
                _, sv, Vt = np.linalg.svd(A)
                mu = Vt[2]
                if np.sum(mu) < 0:
                    mu = -mu
                # tolerate a negligibly negative component (nearly degenerate
                # pair distance under noise) and clamp it away
                if np.all(mu > -1e-6 * np.max(np.abs(mu))):
                    mu = np.maximum(mu, 1e-12 * np.max(np.abs(mu)))
                    if best is None or sv[2] < best[0]:
                        best = (sv[2], mu, (s01, s02, s12))
    if best is None:
        return None
    residual, mu, signs = best
    mu = mu / mu[0]
    return (
        {(0, 1): float(mu[0]), (1, 2): float(mu[1]), (0, 2): float(mu[2])},
        {(0, 1): signs[0], (0, 2): signs[1], (1, 2): signs[2]},
        float(residual),
    )


def _triangulate_tracks3(P0, P1, tracks3):
    """One stacked DLT of every 3-view track from views 0 and 1; returns the
    (N, 3, 3) track points in view order 0, 1, 2, the (N, 4) points and
    which of them are ambiguous."""
    pts = np.array([tr.points[[tr.view_ids.index(v) for v in (0, 1, 2)]] for tr in tracks3])
    X, ambiguous = _dlt(np.concatenate([_skews(pts[:, 0]) @ P0, _skews(pts[:, 1]) @ P1], axis=1))
    return pts, X, ambiguous


def _ordered_sum(values) -> float:
    """0.0 + values[0] + values[1] + ..., summed left to right."""
    return 0.0 + float(np.cumsum(values)[-1])


def _rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for every row k, each as one vector dot product."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _alpha_least_squares(P0, P1, Rh2, axis_dir, tracks3):
    """alpha from P2(alpha) X x x2 = 0 over all 3-view tracks, X from views
    0-1; ambiguous and at-infinity points are skipped."""
    pts, X, ambiguous = _triangulate_tracks3(P0, P1, tracks3)
    at_infinity = np.abs(X[:, 3]) < 1e-12 * np.linalg.norm(X, axis=1)
    keep = ~ambiguous & ~at_infinity
    if not np.any(keep):
        raise InsufficientTracks("no usable 3-view track for the alpha solve")
    X, x2 = X[keep], pts[keep, 2]
    Xe = X[:, :3] / X[:, 3:]
    u = (Rh2 @ Xe[:, :, None])[:, :, 0]
    b = Rh2 @ axis_dir
    bx = np.cross(b, x2)
    ux = np.cross(u, x2)
    num = _ordered_sum(-_rowwise_dot(bx, ux))
    den = _ordered_sum(_rowwise_dot(bx, bx))
    scale = _ordered_sum(_rowwise_dot(ux, ux))
    if den < 1e-18 * max(scale, 1.0):
        raise InsufficientTracks("3-view tracks are degenerate with the camera line")
    return num / den


def recover_calibrated_collinear_triplet(
    E9: np.ndarray,
    poses,
    tracks3,
    triplet_id=(0, 1, 2),
    cert_tol: float = 1e-3,
    cycle_tol: float = 1e-3,
) -> TripletCameras:
    """Cameras of a collinear calibrated triplet from its consistent 9x9 matrix.

    The pair poses of E9's blocks (`pair_pose`, in the order of
    `resolve_essential_triplet`) give the relative rotations, averaged to
    absolute ones; the pair (0,1) fixes the line direction with unit
    baseline, and alpha places the third camera along it using the 3-view
    tracks.  poses is read only after the certificate passes, so a lazy
    iterable decomposes nothing for a rejected triplet.

    The certificate precondition checks the eigenvalue pattern only (a sanity
    gate against junk input, with a tolerance sized for post-averaging noise
    floors): measured blocks carry arbitrary scales, which leave the pattern
    intact but make the orthogonality condition meaningless before recovery.
    """
    E9 = np.asarray(E9, dtype=float)
    cert = certify_collinear_essential(E9, tol=cert_tol)
    if not (cert.conditions["eigen_count"] and cert.conditions["eigen_pattern"]):
        raise InconsistentInput(
            f"triplet matrix fails the collinear eigenvalue pattern "
            f"(rank {cert.rank_estimate}, residual {cert.pattern_residual:.3e})"
        )
    geom = resolve_essential_triplet(poses, cycle_tol)
    if not geom.sign_known[(0, 1)]:
        raise InsufficientTracks("pair (0,1) needs 2-view tracks to sign the baseline")
    Rh = eigen_rotation_averaging(geom.rotations, 3)
    t12 = geom.t_dirs[(0, 1)]
    axis = Rh[0].T @ t12  # world direction of t_0 - t_1 in the local gauge
    P0 = np.hstack([Rh[0], np.zeros((3, 1))])
    P1 = np.hstack([Rh[1], (Rh[1] @ axis).reshape(3, 1)])
    if len(tracks3) == 0:
        raise InsufficientTracks("alpha is undetermined without 3-view tracks")
    alpha = _alpha_least_squares(P0, P1, Rh[2], axis, tracks3)
    P2 = np.hstack([Rh[2], (alpha * Rh[2] @ axis).reshape(3, 1)])
    return TripletCameras(tuple(triplet_id), [P0, P1, P2], "euclidean", alpha)


def recover_calibrated_general_triplet(
    poses,
    triplet_id=(0, 1, 2),
    cycle_tol: float = 1e-3,
) -> TripletCameras:
    """Cameras of a general-position calibrated triplet: rotations and relative
    translation magnitudes come from the three pair poses alone (direction
    closure); only one pair needs to be picked by track cheirality, to fix
    the overall cheirality."""
    geom = resolve_essential_triplet(poses, cycle_tol)
    if not any(geom.sign_known.values()):
        raise InsufficientTracks("at least one pair needs tracks to anchor cheirality")
    sol = closure_scales(geom)
    if sol is None:
        raise InconsistentInput("no sign branch closes the translation triangle")
    mu, signs, residual = sol
    Rh = eigen_rotation_averaging(geom.rotations, 3)
    d = {k: Rh[k[0]].T @ geom.t_dirs[k] for k in _LOCAL_PAIRS}
    t = [np.zeros(3)]
    t.append(t[0] - mu[(0, 1)] * signs[(0, 1)] * d[(0, 1)])
    t.append(t[0] - mu[(0, 2)] * signs[(0, 2)] * d[(0, 2)])
    cams = [np.hstack([Rh[i], (-Rh[i] @ t[i]).reshape(3, 1)]) for i in range(3)]
    return TripletCameras(tuple(triplet_id), cams, "euclidean", float(mu[(0, 2)]))


def _canonical_pair_cameras(F01, F12):
    F01 = _as_matrix(F01)
    F12 = _as_matrix(F12)
    e0 = epipole(F01, "left")    # image of center 1 in view 0
    P0 = np.hstack([skew(e0) @ F01, e0.reshape(3, 1)])
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    e2 = epipole(F12, "right")   # image of center 1 in view 2
    M2 = skew(e2) @ F12.T
    return P0, P1, M2, e2


def _a_system_rows(P0, M2, e2, F02, tracks3):
    """LS rows for the 4-vector a: proportionality of the third tensor plus
    one cross-product row set per 3-view track whose point is not ambiguous;
    returns (A, b, number of tracks used)."""
    def P2_of(a):
        return np.hstack([M2, np.zeros((3, 1))]) + np.outer(e2, a)

    f0 = fundamental_from_projections(P0, P2_of(np.zeros(4))).ravel()
    L = np.zeros((9, 4))
    for k in range(4):
        ek = np.zeros(4)
        ek[k] = 1.0
        L[:, k] = fundamental_from_projections(P0, P2_of(ek)).ravel() - f0
    fhat = unit(_as_matrix(F02).ravel())
    Proj = np.eye(9) - np.outer(fhat, fhat)
    rows = [Proj @ L]
    rhs = [-Proj @ f0]
    used = 0
    if len(tracks3):
        P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
        pts, X, ambiguous = _triangulate_tracks3(P0, P1, tracks3)
        X, x2 = X[~ambiguous], pts[~ambiguous, 2]
        used = len(X)
        c = (M2 @ X[:, :3, None])[:, :, 0]
        ex = np.cross(e2, x2)
        rows.append((ex[:, :, None] * X[:, None, :]).reshape(-1, 4))
        rhs.append(-np.cross(c, x2).ravel())
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    # row normalization keeps tensor rows and track rows commensurable
    norms = np.linalg.norm(A, axis=1)
    keep = norms > 1e-12 * max(float(np.max(norms)), 1.0)
    if not np.any(keep):
        raise DegenerateEpipole("every constraint row is degenerate (tracks at the epipole)")
    A = A[keep] / norms[keep, None]
    b = b[keep] / norms[keep]
    return A, b, used


def recover_projective_collinear_triplet(
    F01, F12, F02, tracks3, triplet_id=(0, 1, 2)
) -> TripletCameras:
    """Projective cameras of a collinear triplet: the canonical pair from
    F01, the family P2(a) compatible with F12, and a solved in least squares
    from the 3-view tracks (the third tensor constrains nothing when the
    centers are exactly collinear, so at least enough generic tracks to span
    the solve are required; a track whose point is ambiguous from views 0-1
    does not count)."""
    tracks3 = list(tracks3)
    if len(tracks3) < 2:
        raise InsufficientTracks("the a-vector solve needs at least 2 three-view tracks")
    P0, P1, M2, e2 = _canonical_pair_cameras(F01, F12)
    A, b, used = _a_system_rows(P0, M2, e2, F02, tracks3)
    if used < 2:
        raise InsufficientTracks(
            f"the a-vector solve needs at least 2 three-view tracks; {used} triangulate "
            "unambiguously"
        )
    a, *_ = np.linalg.lstsq(A, b, rcond=None)
    P2 = np.hstack([M2, np.zeros((3, 1))]) + np.outer(e2, a)
    return TripletCameras(tuple(triplet_id), [P0, P1, P2], "projective", a)


def recover_projective_general_triplet(F01, F12, F02, triplet_id=(0, 1, 2)) -> TripletCameras:
    """Projective cameras of a general-position triplet: a is fully
    determined by proportionality to the third tensor, no tracks needed."""
    P0, P1, M2, e2 = _canonical_pair_cameras(F01, F12)
    A, b, _ = _a_system_rows(P0, M2, e2, F02, tracks3=[])
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[3] < 1e-10 * sv[0]:
        raise DegenerateEpipole("third tensor does not determine a (collinear cameras?)")
    a, *_ = np.linalg.lstsq(A, b, rcond=None)
    P2 = np.hstack([M2, np.zeros((3, 1))]) + np.outer(e2, a)
    return TripletCameras(tuple(triplet_id), [P0, P1, P2], "projective", a)


@dataclass
class RegistrationResult:
    cameras: list           # n entries, 3x4 ndarray or None
    frame: str
    merge_residuals: dict = field(default_factory=dict)

    def centers(self) -> np.ndarray:
        out = []
        for P in self.cameras:
            if P is None:
                out.append(np.full(3, np.nan))
            else:
                out.append(-P[:, :3].T @ P[:, 3])
        return np.vstack(out)


def _euclidean_pose(P):
    R_T = P[:, :3]
    t = -R_T.T @ P[:, 3]
    return R_T, t


def _edge_similarity(parent: TripletCameras, child: TripletCameras, shared):
    """Similarity (s, Q, d) mapping child-frame points into the parent frame."""
    Qs, cp, cc = [], [], []
    for cam in shared:
        Rp_T, tp = _euclidean_pose(parent.cameras[parent.triplet_id.index(cam)])
        Rc_T, tc = _euclidean_pose(child.cameras[child.triplet_id.index(cam)])
        Qs.append(Rp_T.T @ Rc_T)  # R_parent @ R_child^T
        cp.append(tp)
        cc.append(tc)
    Q = nearest_rotation(Qs[0] + Qs[1])
    base_c = np.linalg.norm(cc[0] - cc[1])
    base_p = np.linalg.norm(cp[0] - cp[1])
    if base_c < 1e-10 * max(base_p, 1.0):
        raise AlignmentIllConditioned("shared camera centers coincide in the child frame")
    s = base_p / base_c
    d = 0.5 * ((cp[0] - s * Q @ cc[0]) + (cp[1] - s * Q @ cc[1]))
    return s, Q, d


def _edge_homography(parent: TripletCameras, child: TripletCameras, shared):
    """4x4 G with P_parent,k ~ P_child,k @ G for the two shared cameras.

    Unknown vector is (G row-major, lambda_0, lambda_1); the null vector of
    the stacked 24x18 system gives G up to scale.
    """
    Pp = [parent.cameras[parent.triplet_id.index(c)] for c in shared]
    Pc = [child.cameras[child.triplet_id.index(c)] for c in shared]
    A = np.zeros((24, 18))
    for k in range(2):
        for r in range(3):
            for c in range(4):
                eq = 12 * k + r * 4 + c
                # (Pc[k] @ G)[r, c] = sum_m Pc[k][r, m] G[m, c]
                for mcol in range(4):
                    A[eq, 4 * mcol + c] = Pc[k][r, mcol]
                A[eq, 16 + k] = -Pp[k][r, c]
    _, sv, Vt = np.linalg.svd(A)
    if sv[-2] < 1e-10 * sv[0]:
        raise AlignmentIllConditioned("projective alignment system is rank deficient")
    v = Vt[-1]
    G = v[:16].reshape(4, 4)
    # deterministic orientation
    k = int(np.argmax(np.abs(G)))
    if G.flat[k] < 0:
        G = -G
    return G / np.linalg.norm(G)


def _bfs_order(triplets, cover):
    keys = [tuple(t.triplet_id) for t in triplets]
    index = {k: i for i, k in enumerate(keys)}
    in_cover = set(map(tuple, cover.triplets))
    adj = {k: [] for k in keys}
    adj.update(dual_adjacency([k for k in keys if k in in_cover]))
    order, parents = [], {}
    for cur, parent in dual_bfs(adj, [min(keys)]):
        order.append(cur)
        if parent is not None:
            parents[cur] = parent
    if len(order) != len(keys):
        raise NotConnected("cover dual graph does not reach every triplet")
    return order, parents, index


def register_global(triplets, cover, mode: str, n_cameras: int | None = None) -> RegistrationResult:
    """Chain per-triplet cameras into one frame by BFS over the dual graph.

    mode="euclidean": per-edge similarity from the two shared cameras,
    multi-visit cameras merged by chordal rotation mean and center mean.
    mode="projective": per-edge 4x4 homography, first visit wins and later
    disagreements are logged as residuals.
    """
    triplets = sorted(triplets, key=lambda t: tuple(t.triplet_id))
    if not triplets:
        raise ValueError("nothing to register")
    if n_cameras is None:
        n_cameras = max(max(t.triplet_id) for t in triplets) + 1
    order, parents, index = _bfs_order(triplets, cover)
    placed = {}   # triplet key -> list of 3x4 cameras in root frame
    by_key = {tuple(t.triplet_id): t for t in triplets}

    for key in order:
        trip = by_key[key]
        if key not in parents:
            placed[key] = list(trip.cameras)
            continue
        pkey = parents[key]
        shared = sorted(set(key) & set(pkey))
        parent_rooted = TripletCameras(pkey, placed[pkey], trip.frame, None)
        if mode == "euclidean":
            s, Q, d = _edge_similarity(parent_rooted, trip, shared)
            cams = []
            for P in trip.cameras:
                R_T, t = _euclidean_pose(P)
                R_T2 = R_T @ Q.T
                t2 = s * Q @ t + d
                cams.append(np.hstack([R_T2, (-R_T2 @ t2).reshape(3, 1)]))
            placed[key] = cams
        elif mode == "projective":
            G = _edge_homography(parent_rooted, trip, shared)
            placed[key] = [P @ G for P in trip.cameras]
        else:
            raise ValueError("mode must be 'euclidean' or 'projective'")

    estimates = {}
    for key in order:
        for cam_id, P in zip(key, placed[key]):
            estimates.setdefault(cam_id, []).append(P)

    cameras = [None] * n_cameras
    merge_residuals = {}
    for cam_id, Ps in sorted(estimates.items()):
        if mode == "euclidean":
            Rs = [P[:, :3] for P in Ps]
            ts = [_euclidean_pose(P)[1] for P in Ps]
            R_T = nearest_rotation(np.sum(Rs, axis=0))
            t = np.mean(ts, axis=0)
            cameras[cam_id] = np.hstack([R_T, (-R_T @ t).reshape(3, 1)])
            if len(Ps) > 1:
                merge_residuals[cam_id] = float(
                    max(np.linalg.norm(P[:, :3] - R_T) for P in Ps)
                )
        else:
            Pn = Ps[0] / np.linalg.norm(Ps[0])
            cameras[cam_id] = Pn
            if len(Ps) > 1:
                rs = []
                for P in Ps[1:]:
                    Q = P / np.linalg.norm(P)
                    rs.append(float(min(np.linalg.norm(Q - Pn), np.linalg.norm(Q + Pn))))
                merge_residuals[cam_id] = max(rs)
    return RegistrationResult(cameras, mode, merge_residuals)
