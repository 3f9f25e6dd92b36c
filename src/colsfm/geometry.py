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

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentCenters, DegenerateGeometry, DegenerateLine, RankDeficient

_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]_x with [v]_x w = v x w."""
    v = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError("skew: vector must be finite")
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize zero vector")
    return v / n


def fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip sign so the largest-magnitude entry is positive (deterministic)."""
    v = np.asarray(v, dtype=float)
    k = int(np.argmax(np.abs(v)))
    return -v if v.flat[k] < 0 else v


def normalized_tensor(M: np.ndarray) -> np.ndarray:
    """Unit Frobenius norm with the largest-magnitude entry positive."""
    M = np.asarray(M, dtype=float)
    n = np.linalg.norm(M)
    if n == 0.0:
        raise ValueError("cannot normalize zero tensor")
    return fix_sign(M / n)


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


def rotation_about(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation about a (non-zero) axis."""
    a = unit(axis)
    K = skew(a)
    return np.eye(3) + np.sin(angle_rad) * K + (1.0 - np.cos(angle_rad)) * (K @ K)


@dataclass(frozen=True)
class CameraModel:
    """Calibrated or projective camera K R^T [I | -t].

    intrinsics: 3x3 upper triangular, K[2,2] = 1, positive diagonal.
    rotation:   3x3, orthogonal with det +1.
    center:     3-vector in world units.
    """

    intrinsics: np.ndarray
    rotation: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        K = np.asarray(self.intrinsics, dtype=float).reshape(3, 3).copy()
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3).copy()
        t = np.asarray(self.center, dtype=float).reshape(3).copy()
        if np.linalg.norm(R.T @ R - np.eye(3)) > 1e-10 or np.linalg.det(R) < 0:
            raise ValueError("rotation must be orthogonal with det +1")
        if abs(K[2, 2] - 1.0) > 1e-12 or np.any(np.diag(K) <= 0):
            raise ValueError("intrinsics must have positive diagonal and K[2,2]=1")
        if abs(K[1, 0]) > 1e-12 or abs(K[2, 0]) > 1e-12 or abs(K[2, 1]) > 1e-12:
            raise ValueError("intrinsics must be upper triangular")
        for a in (K, R, t):
            a.setflags(write=False)
        object.__setattr__(self, "intrinsics", K)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "center", t)

    @property
    def is_calibrated(self) -> bool:
        return bool(np.allclose(self.intrinsics, np.eye(3), atol=1e-12))

    def v_matrix(self) -> np.ndarray:
        """V = K^{-T} R^T."""
        return np.linalg.inv(self.intrinsics).T @ self.rotation.T

    def projection_matrix(self) -> np.ndarray:
        """3x4 projection K R^T [I | -t]."""
        return self.intrinsics @ self.rotation.T @ np.hstack(
            [np.eye(3), -self.center.reshape(3, 1)]
        )

    def project(self, X: np.ndarray) -> np.ndarray:
        """Project a world point to a homogeneous image point with last coord 1."""
        return image_point(self.projection_matrix(), X)

    def depth(self, X: np.ndarray) -> float:
        """Projective depth (z in the camera frame); positive means in front."""
        return float((self.rotation.T @ (np.asarray(X, dtype=float) - self.center))[2])


def image_point(P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The image P [X, 1] of a world point under a 3x4 camera, scaled to
    last coordinate 1."""
    x = P @ np.append(np.asarray(X, dtype=float), 1.0)
    if abs(x[2]) < 1e-15:
        raise DegenerateGeometry("point projects to infinity")
    return x / x[2]


def bifocal_from_pair(ci: CameraModel, cj: CameraModel) -> np.ndarray:
    """Pairwise tensor V_i ([t_i]_x - [t_j]_x) V_j^T between two cameras.

    Raises CoincidentCenters when the centers are closer than 1e-12.
    """
    if np.linalg.norm(ci.center - cj.center) < 1e-12:
        raise CoincidentCenters("camera centers coincide; tensor would vanish")
    return ci.v_matrix() @ (skew(ci.center) - skew(cj.center)) @ cj.v_matrix().T


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


def _as_projection(cam) -> np.ndarray:
    if isinstance(cam, CameraModel):
        return cam.projection_matrix()
    return np.asarray(cam, dtype=float).reshape(3, 4)


def _dlt(A: np.ndarray):
    """Unit null vectors of DLT systems (one, or a stack) and whether each is
    ambiguous: its two smallest singular values equal."""
    _, s, Vt = np.linalg.svd(A, full_matrices=False)
    return Vt[..., 3, :], s[..., 2] - s[..., 3] < 1e-12 * s[..., 0]


def triangulate_dlt(cams, points: np.ndarray) -> np.ndarray:
    """DLT point: minimize ||A X|| over unit X, A stacking [x_i]_x P_i rows;
    points holds one image point per camera, in camera order."""
    Ps = [_as_projection(c) for c in cams]
    if len(Ps) < 2:
        raise ValueError("triangulation needs at least two views")
    rows = [skew(points[k]) @ Ps[k] for k in range(len(Ps))]
    X, ambiguous = _dlt(np.vstack(rows))
    if ambiguous:
        raise DegenerateGeometry("ambiguous point: two smallest singular values equal")
    return X


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


def _skews(x: np.ndarray) -> np.ndarray:
    """Stacked cross-product matrices [x_k]_x of the rows of an (N, 3) array."""
    a, b, c, z = x[:, 0], x[:, 1], x[:, 2], np.zeros(len(x))
    return np.stack([z, -c, b, c, z, -a, -b, a, z], axis=1).reshape(-1, 3, 3)


def cheirality_votes(rotations: np.ndarray, t: np.ndarray, points: np.ndarray, starts):
    """Votes of the candidates (Ra, t), (Ra, -t), (Rb, t), (Rb, -t) of K
    pairs: the tracks triangulated in front of both views, ambiguous and
    at-infinity points not voting.

    rotations: (K, 2, 3, 3) branches Ra, Rb; t: (K, 3) directions; points:
    the (N, 2, 3) image points (view i, view j) of every pair's 2-view
    tracks, pair k's from row starts[k] on (each pair has at least one).
    One stacked DLT solves the (R, t) candidates.  Negating camera j's
    translation column maps a DLT solution X to +-(-X_1, -X_2, -X_3, X_4)
    with the same singular values, so an (R, -t) point is the mirrored
    (R, t) point and lies in front of both views where that one lies behind
    both.  Returns the (K, 4) votes.
    """
    # gauge: camera i at origin with identity rotation, camera j placed by (R, t)
    Pi = np.hstack([np.eye(3), np.zeros((3, 1))])
    Rt = np.ascontiguousarray(rotations.swapaxes(-1, -2))  # (K, 2, 3, 3)
    Pj = np.concatenate([Rt, Rt @ t[:, None, :, None]], axis=3)
    pair = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(points))))
    Rt, Pj, tj = Rt[pair].swapaxes(0, 1), Pj[pair].swapaxes(0, 1), t[pair]  # (2, N, ...)
    A = np.broadcast_arrays(_skews(points[:, 0]) @ Pi, _skews(points[:, 1]) @ Pj)
    X, ambiguous = _dlt(np.concatenate(A, axis=2))
    finite = ~ambiguous & ~(np.abs(X[..., 3]) < 1e-14)
    Xe = X[..., :3] / np.where(finite, X[..., 3], 1.0)[..., None]
    zi = Xe[..., 2]
    zj = (Rt @ (Xe + tj)[..., None])[..., 2, 0]
    front = np.stack([finite & (zi > 0) & (zj > 0), finite & (zi < 0) & (zj < 0)], axis=-1)
    # (2, N, 2) -> (N, 4) in candidate order
    return np.add.reduceat(front.swapaxes(0, 1).reshape(-1, 4).astype(int), starts)
