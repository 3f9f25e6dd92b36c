"""Elementary multiview geometry: cameras, pairwise tensors, epipoles, triangulation.

Conventions used throughout the package:

* A camera is P = K R^T [I | -t] with center t (world units), orientation
  R in SO(3) and upper-triangular intrinsics K (identity when calibrated).
  Writing V = K^{-T} R^T gives P = V^{-T} [I | -t].
* The pairwise tensor between views i and j is
      F_ij = V_i ([t_i]_x - [t_j]_x) V_j^T,
  which satisfies x_i^T F_ij x_j = 0 for corresponding image points and
  F_ji = F_ij^T.  For calibrated pairs this reduces to the essential matrix
  E_ij = R_i^T ([t_i]_x - [t_j]_x) R_j = [t_ij]_x (R_i^T R_j) with
  t_ij = R_i^T (t_i - t_j).
"""

from __future__ import annotations

import numpy as np

from .errors import CoincidentCenters, DegenerateGeometry, DegenerateLine, RankDeficient

_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, of one vector or of each row of a
    stack, computed as np.linalg.norm computes that of one vector: the
    square root of a dot (norm(axis=-1) differs from it in the last bit on
    some rows)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0, 0]


def ordered_sum(values) -> float:
    """0.0 + values[0] + values[1] + ..., summed left to right."""
    return 0.0 + float(np.cumsum(values)[-1])


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]_x with [v]_x w = v x w, of one 3-vector or
    of each row of a (..., 3) stack."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"skew: vectors must have 3 entries, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("skew: vector must be finite")
    a, b, c = v[..., 0], v[..., 1], v[..., 2]
    z = np.zeros_like(a)
    return np.stack([z, -c, b, c, z, -a, -b, a, z], axis=-1).reshape(v.shape[:-1] + (3, 3))


def unit(v: np.ndarray) -> np.ndarray:
    """One vector, or each row of a stack, scaled to unit length."""
    v = np.asarray(v, dtype=float)
    n = norms(v)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize zero vector")
    return v / n[..., None]


def normalized_tensor(M: np.ndarray) -> np.ndarray:
    """Unit Frobenius norm with the (first) largest-magnitude entry
    positive, of one matrix or of each matrix of a stack."""
    M = np.asarray(M, dtype=float)
    flat = M.reshape(M.shape[:-2] + (-1,))
    n = norms(flat)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize zero tensor")
    flat = flat / n[..., None]
    big = np.take_along_axis(flat, np.argmax(np.abs(flat), axis=-1)[..., None], axis=-1)
    return np.where(big < 0, -flat, flat).reshape(M.shape)


def nearest_rotation(M: np.ndarray) -> np.ndarray:
    """Closest rotation in Frobenius norm (SVD polar with det correction),
    of one 3x3 matrix or of each matrix of a stack."""
    U, _, Vt = np.linalg.svd(np.asarray(M, dtype=float))
    R = U @ Vt
    reflected = np.linalg.det(R) < 0
    if np.any(reflected):
        # U diag(1, 1, -1) Vt, rebuilt for the reflected matrices only
        R[reflected] = (U[reflected] * [1.0, 1.0, -1.0]) @ Vt[reflected]
    return R


def rotation_about(axis: np.ndarray, angle_rad) -> np.ndarray:
    """Rodrigues rotation about a non-zero axis, or about each row of a
    (..., 3) stack of axes by one angle or by one angle per row."""
    K = skew(unit(axis))
    angle = np.asarray(angle_rad, dtype=float)[..., None, None]
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def calibrated(K: np.ndarray) -> np.ndarray:
    """Whether one 3x3 intrinsics matrix, or each of a stack, is the
    identity: every entry within 1e-12 of it, with no relative tolerance."""
    return np.all(np.abs(np.asarray(K, dtype=float) - np.eye(3)) <= 1e-12, axis=(-2, -1))


def image_point(P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The image P [X, 1] of a world point under a 3x4 camera, scaled to
    last coordinate 1, or of each point of a (..., 3) stack under each
    camera of a broadcastable (..., 3, 4) stack."""
    X = np.asarray(X, dtype=float)
    x = (P @ np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1)[..., None])[..., 0]
    if np.any(np.abs(x[..., 2]) < 1e-15):
        raise DegenerateGeometry("point projects to infinity")
    return x / x[..., 2:]


def camera_centers(P: np.ndarray) -> np.ndarray:
    """The center -R^T t of a Euclidean camera [R | t], or of each camera
    of a (..., 3, 4) stack."""
    P = np.asarray(P, dtype=float)
    return (-P[..., :3].swapaxes(-1, -2) @ P[..., 3:])[..., 0]


def bifocal_from_pair(K, R, C, i, j) -> np.ndarray:
    """Pairwise tensor V_i ([t_i]_x - [t_j]_x) V_j^T, V = K^{-T} R^T, of
    cameras i and j of the (n, 3, 3) intrinsics K and rotations R and the
    (n, 3) centres C; i and j are indices, or index arrays for a stack.

    Raises CoincidentCenters when two centres are closer than 1e-12.
    """
    K, R, C = (np.asarray(a, dtype=float) for a in (K, R, C))
    if np.any(norms(C[i] - C[j]) < 1e-12):
        raise CoincidentCenters("camera centers coincide; tensor would vanish")
    Vi, Vj = (np.linalg.inv(K[k]).swapaxes(-1, -2) @ R[k].swapaxes(-1, -2) for k in (i, j))
    return Vi @ (skew(C[i]) - skew(C[j])) @ Vj.swapaxes(-1, -2)


# row p of _OTHER_ROWS lists the rows of a camera left after deleting row p
_OTHER_ROWS = np.array([[1, 2], [0, 2], [0, 1]])
_COFACTOR_SIGNS = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])


def fundamental_from_projections(Pi: np.ndarray, Pj: np.ndarray) -> np.ndarray:
    """Pairwise tensor of two arbitrary 3x4 cameras, x_i^T F x_j = 0 (up to
    scale), or of each pair of two broadcastable (..., 3, 4) stacks, from one
    det of all the 4x4 minors.

    Entry (p, q) is (-1)^{p+q} det of P_i with row p removed stacked over
    P_j with row q removed.
    """
    Ri = np.asarray(Pi, dtype=float)[..., _OTHER_ROWS, :]  # (..., p, 2, 4)
    Rj = np.asarray(Pj, dtype=float)[..., _OTHER_ROWS, :]
    Ai, Aj = np.broadcast_arrays(Ri[..., :, None, :, :], Rj[..., None, :, :, :])
    return _COFACTOR_SIGNS * np.linalg.det(np.concatenate([Ai, Aj], axis=-2))


def epipole_table(F) -> np.ndarray:
    """Both unit-norm null vectors of each tensor of a (K, 3, 3) stack, from
    one SVD: (K, 2, 3), [k, 0] the left epipole (e^T F = 0, in image i, the
    image of center j) and [k, 1] the right one (F e = 0, in image j, the
    image of center i).  Signs fixed so the largest-magnitude component is
    positive.  A tensor with a two-dimensional null space (second singular
    value below 1e-9 of the first) has no unique epipoles: its rows are zero."""
    U, s, Vt = np.linalg.svd(np.asarray(F, dtype=float).reshape(-1, 3, 3))
    e = np.stack([U[..., 2], Vt[:, 2]], axis=1)
    big = np.take_along_axis(e, np.argmax(np.abs(e), axis=-1)[..., None], axis=-1)
    return np.where((s[:, 1] < 1e-9 * s[:, 0])[:, None, None], 0.0, np.where(big < 0, -e, e))


def epipoles(F) -> np.ndarray:
    """The `epipole_table` of a stack of rank-2 tensors; raises
    RankDeficient if one has a two-dimensional null space."""
    table = epipole_table(F)
    if not np.all(np.any(table, axis=-1)):
        raise RankDeficient("tensor has a two-dimensional null space")
    return table


def symmetric_epipolar_distance(F: np.ndarray, xi: np.ndarray, xj: np.ndarray) -> float | np.ndarray:
    """(x_i^T F x_j)^2 (1/||(F x_j)_{1:2}||^2 + 1/||(F^T x_i)_{1:2}||^2), of
    one point pair, or of each row pair of two (m, 3) point stacks."""
    F = np.asarray(F, dtype=float)
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim == 1
    xi = xi.reshape(-1, 1, 3)
    xj = np.asarray(xj, dtype=float).reshape(-1, 3, 1)
    li = (F @ xj)[..., 0]                       # epipolar lines in image i
    lj = (F.T @ xi.swapaxes(1, 2))[..., 0]      # epipolar lines in image j
    # float_power calls C pow, as `x ** 2` on a float does; np.square can differ in the last bit
    ni = np.float_power(li[:, 0], 2) + np.float_power(li[:, 1], 2)
    nj = np.float_power(lj[:, 0], 2) + np.float_power(lj[:, 1], 2)
    if np.any(ni == 0.0) or np.any(nj == 0.0):
        raise DegenerateLine("epipolar line has no image-plane part")
    r = ((xi @ F) @ xj)[:, 0, 0]
    d = r * r * (1.0 / ni + 1.0 / nj)
    return float(d[0]) if single else d


def triangulate(P: np.ndarray, x: np.ndarray):
    """DLT points of tracks: minimize ||A X|| over unit X, A stacking the
    [x_i]_x P_i rows of a track's views.  P (..., k, 3, 4) holds the
    cameras and x (..., k, 3) the image points of each track, k >= 2 views,
    broadcast together.  Returns the (..., 4) points and whether each is
    ambiguous: its two smallest singular values equal."""
    A = skew(x) @ P
    k = A.shape[-3]
    if k < 2:
        raise ValueError("triangulation needs at least two views")
    _, s, Vt = np.linalg.svd(A.reshape(A.shape[:-3] + (3 * k, 4)), full_matrices=False)
    return Vt[..., 3, :], s[..., 2] - s[..., 3] < 1e-12 * s[..., 0]


def essential_candidates(E: np.ndarray):
    """The rotation branches Ra = U W V^T, Rb = U W^T V^T and the unit
    direction t = U[:, 2] of one essential matrix or of each of a stack, with
    E ~ [t]_x R: R is the relative rotation R_i^T R_j, t the direction
    R_i^T (t_i - t_j) up to sign, so (Ra, +-t) and (Rb, +-t) are the four
    candidate poses."""
    U, _, Vt = np.linalg.svd(np.asarray(E, dtype=float))
    U = np.where((np.linalg.det(U) < 0)[..., None, None], -U, U)
    Vt = np.where((np.linalg.det(Vt) < 0)[..., None, None], -Vt, Vt)
    return U @ _W @ Vt, U @ _W.T @ Vt, U[..., 2].copy()


# an entry's closed-form depths are sure when both exceed this many times
# their error bound; the DLT judges the rest
_CERTAINTY = 10.0


def _two_view_depths(R: np.ndarray, t: np.ndarray, xi: np.ndarray, xj: np.ndarray):
    """Depths z_i, z_j of the two-ray point of each entry of broadcast
    (..., 3, 3) rotations, (..., 3) directions and image points x_i, x_j,
    camera i at [I | 0] and camera j at R^T [I | t]: a x_i - b R x_j = -t
    in least squares from the 2x2 normal equations, z_i = a (x_i)_z and
    z_j = b (x_j)_z.  Also returns whether each entry is sure: its rays are
    not near-parallel and both |z| exceed _CERTAINTY (r + 1e-9 |t|) /
    sin(theta), r the two-ray residual and theta the angle between the rays."""
    v = (R @ xj[..., None])[..., 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        uu, vv, uv = np.sum(xi * xi, -1), np.sum(v * v, -1), np.sum(xi * v, -1)
        ut, vt = np.sum(xi * t, -1), np.sum(v * t, -1)
        det = uu * vv - uv * uv  # |u x v|^2
        a = (uv * vt - vv * ut) / det
        b = (uu * vt - uv * ut) / det
        r = norms(a[..., None] * xi - b[..., None] * v + t)
        bound = _CERTAINTY * (r + 1e-9 * norms(t)) * np.sqrt(uu * vv / det)
        zi, zj = a * xi[..., 2], b * xj[..., 2]
        sure = (det > 1e-10 * uu * vv) & (np.abs(zi) > bound) & (np.abs(zj) > bound)
    return zi, zj, sure


def cheirality_votes(rotations: np.ndarray, t: np.ndarray, points: np.ndarray, pair):
    """Votes of the candidates (Ra, t), (Ra, -t), (Rb, t), (Rb, -t) of K
    pairs: the tracks triangulated in front of both views, ambiguous and
    at-infinity points not voting.

    rotations: (K, 2, 3, 3) branches Ra, Rb; t: (K, 3) directions; points:
    the (N, 2, 3) image points (view i, view j) of 2-view tracks, and pair
    (N,) the pair each one belongs to; a pair without tracks gets no votes.
    Closed-form depths; DLT only for entries they cannot certify: each
    (branch, track) entry takes its two-view depths (`_two_view_depths`),
    and one stacked DLT solves the entries that are not sure.  Negating t
    negates both closed-form depths, and maps a DLT solution X to
    +-(-X_1, -X_2, -X_3, X_4) with the same singular values, so an (R, -t)
    point is the mirrored (R, t) point and lies in front of both views
    where that one lies behind both.  Returns the (K, 4) votes.
    """
    zi, zj, sure = _two_view_depths(rotations[pair].swapaxes(0, 1), t[pair], points[:, 0], points[:, 1])
    doubt = np.nonzero(~sure)  # (branch, track) entries the DLT judges
    if len(doubt[0]):
        # gauge: camera i at origin with identity rotation, camera j placed by (R, t)
        Rt = np.ascontiguousarray(rotations.swapaxes(-1, -2))  # (K, 2, 3, 3)
        P = np.zeros((2, len(Rt), 2, 3, 4))  # (branch, K, view, 3, 4)
        P[:, :, 0, :, :3] = np.eye(3)
        P[:, :, 1] = np.concatenate([Rt, Rt @ t[:, None, :, None]], axis=3).swapaxes(0, 1)
        k = pair[doubt[1]]
        X, ambiguous = triangulate(P[doubt[0], k], points[doubt[1]])
        finite = ~ambiguous & ~(np.abs(X[..., 3]) < 1e-14)
        Xe = X[..., :3] / np.where(finite, X[..., 3], 1.0)[..., None]
        # a point that does not vote gets zero depths
        zi[doubt] = np.where(finite, Xe[..., 2], 0.0)
        zj[doubt] = np.where(finite, (Rt[k, doubt[0]] @ (Xe + t[k])[..., None])[..., 2, 0], 0.0)
    front = np.stack([(zi > 0) & (zj > 0), (zi < 0) & (zj < 0)], axis=-1)
    votes = np.zeros((len(t), 4), dtype=int)
    np.add.at(votes, pair, front.swapaxes(0, 1).reshape(-1, 4))  # (2, N, 2) -> (N, 4) in candidate order
    return votes
