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

from .errors import (
    AmbiguousCheirality,
    CoincidentCenters,
    DegenerateGeometry,
    DegenerateLine,
    InsufficientTracks,
    RankDeficient,
)

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
        R = np.where(reflected[..., None, None], U @ np.diag([1.0, 1.0, -1.0]) @ Vt, R)
    return R


def rotation_about(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation about a (non-zero) axis."""
    a = unit(axis)
    K = skew(a)
    return np.eye(3) + np.sin(angle_rad) * K + (1.0 - np.cos(angle_rad)) * (K @ K)


def geodesic_angle(Ra: np.ndarray, Rb: np.ndarray) -> float:
    """Angle of Ra^T Rb in radians."""
    c = (np.trace(Ra.T @ Rb) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


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
        x = self.projection_matrix() @ np.append(np.asarray(X, dtype=float), 1.0)
        if abs(x[2]) < 1e-15:
            raise DegenerateGeometry("point projects to infinity")
        return x / x[2]

    def depth(self, X: np.ndarray) -> float:
        """Projective depth (z in the camera frame); positive means in front."""
        return float((self.rotation.T @ (np.asarray(X, dtype=float) - self.center))[2])


@dataclass(frozen=True)
class BifocalTensor:
    """Pairwise essential or fundamental matrix, rank 2 by construction."""

    matrix: np.ndarray
    kind: str  # "essential" | "fundamental"
    scale_fixed: bool = False

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float).reshape(3, 3).copy()
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        if self.kind not in ("essential", "fundamental"):
            raise ValueError(f"unknown tensor kind {self.kind!r}")

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.matrix, compute_uv=False)

    def rank2_residual(self) -> float:
        """sigma_3 / sigma_1; near zero for a valid tensor."""
        s = self.singular_values()
        return float(s[2] / s[0]) if s[0] > 0 else 1.0

    def is_rank2(self, tol: float = 1e-9) -> bool:
        s = self.singular_values()
        return s[0] > 0 and s[1] > tol * s[0] and s[2] <= tol * s[0]

    def equal_singulars_residual(self) -> float:
        s = self.singular_values()
        return float((s[0] - s[1]) / s[0]) if s[0] > 0 else 1.0

    def normalized(self) -> "BifocalTensor":
        return BifocalTensor(normalized_tensor(self.matrix), self.kind, scale_fixed=True)


def _as_matrix(t: BifocalTensor | np.ndarray) -> np.ndarray:
    """The 3x3 float matrix of a tensor or of a plain array."""
    return t.matrix if isinstance(t, BifocalTensor) else np.asarray(t, dtype=float)


def _track_ids(view_ids) -> tuple:
    ids = tuple(int(i) for i in view_ids)
    if len(ids) not in (2, 3):
        raise ValueError("a track spans 2 or 3 views")
    if len(set(ids)) != len(ids):
        raise ValueError("view ids must be distinct")
    return ids


def _check_image_points(pts: np.ndarray) -> None:
    """Raise ValueError unless every row is a finite homogeneous image point
    with last coordinate 1."""
    if not np.all(np.isfinite(pts)):
        raise ValueError("track points must be finite")
    if len(pts) and np.max(np.abs(pts[:, 2] - 1.0)) > 1e-9:
        raise ValueError("track points must have last coordinate 1")


@dataclass(frozen=True)
class Track:
    """Point correspondence across 2 or 3 views.

    points are homogeneous 3-vectors with last coordinate 1, one per view id.
    """

    view_ids: tuple
    points: np.ndarray

    def __post_init__(self):
        ids = _track_ids(self.view_ids)
        pts = np.asarray(self.points, dtype=float).reshape(len(ids), 3).copy()
        _check_image_points(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "view_ids", ids)
        object.__setattr__(self, "points", pts)

    @classmethod
    def _checked(cls, view_ids, points: np.ndarray) -> "Track":
        """Track over a (k, 3) float array of already-checked image points,
        which it takes over read-only; only the view ids are checked."""
        track = object.__new__(cls)
        points.setflags(write=False)
        object.__setattr__(track, "view_ids", _track_ids(view_ids))
        object.__setattr__(track, "points", points)
        return track

    def point(self, view_id: int) -> np.ndarray:
        return self.points[self.view_ids.index(view_id)]

    def restrict(self, view_ids) -> "Track":
        """Sub-track over the given view ids (order preserved as given)."""
        idx = [self.view_ids.index(v) for v in view_ids]
        return Track._checked(view_ids, self.points[idx])

    def relabel(self, mapping: dict) -> "Track":
        return Track._checked((mapping[v] for v in self.view_ids), self.points)


def bifocal_from_pair(ci: CameraModel, cj: CameraModel) -> BifocalTensor:
    """Pairwise tensor V_i ([t_i]_x - [t_j]_x) V_j^T between two cameras.

    Raises CoincidentCenters when the centers are closer than 1e-12.
    """
    if np.linalg.norm(ci.center - cj.center) < 1e-12:
        raise CoincidentCenters("camera centers coincide; tensor would vanish")
    M = ci.v_matrix() @ (skew(ci.center) - skew(cj.center)) @ cj.v_matrix().T
    kind = "essential" if (ci.is_calibrated and cj.is_calibrated) else "fundamental"
    return BifocalTensor(M, kind)


# row p of _OTHER_ROWS lists the rows of a camera left after deleting row p
_OTHER_ROWS = np.array([[1, 2], [0, 2], [0, 1]])
_COFACTOR_SIGNS = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])


def fundamental_from_projections(Pi: np.ndarray, Pj: np.ndarray) -> np.ndarray:
    """Pairwise tensor of two arbitrary 3x4 cameras, x_i^T F x_j = 0 (up to scale).

    Entry (p, q) is (-1)^{p+q} det of P_i with row p removed stacked over
    P_j with row q removed.
    """
    Pi = np.asarray(Pi, dtype=float).reshape(3, 4)
    Pj = np.asarray(Pj, dtype=float).reshape(3, 4)
    Ai, Aj = np.broadcast_arrays(Pi[_OTHER_ROWS][:, None], Pj[_OTHER_ROWS][None, :])
    return _COFACTOR_SIGNS * np.linalg.det(np.concatenate([Ai, Aj], axis=2))


def epipole(t: BifocalTensor | np.ndarray, side: str) -> np.ndarray:
    """Unit-norm null vector of a rank-2 tensor.

    side="right": F e = 0, the epipole in image j (image of center i).
    side="left":  e^T F = 0, the epipole in image i (image of center j).
    Sign fixed so the largest-magnitude component is positive.
    """
    U, s, Vt = np.linalg.svd(_as_matrix(t))
    if s[1] < 1e-9 * s[0]:
        raise RankDeficient("tensor has a two-dimensional null space")
    if side == "right":
        e = Vt[2]
    elif side == "left":
        e = U[:, 2]
    else:
        raise ValueError("side must be 'left' or 'right'")
    return fix_sign(e)


def symmetric_epipolar_distance(
    t: BifocalTensor | np.ndarray, xi: np.ndarray, xj: np.ndarray
) -> float:
    """(x_i^T F x_j)^2 (1/||(F x_j)_{1:2}||^2 + 1/||(F^T x_i)_{1:2}||^2)."""
    F = _as_matrix(t)
    xi = np.asarray(xi, dtype=float).reshape(3)
    xj = np.asarray(xj, dtype=float).reshape(3)
    li = F @ xj          # epipolar line in image i
    lj = F.T @ xi        # epipolar line in image j
    ni = li[0] ** 2 + li[1] ** 2
    nj = lj[0] ** 2 + lj[1] ** 2
    if ni == 0.0 or nj == 0.0:
        raise DegenerateLine("epipolar line has no image-plane part")
    r = float(xi @ F @ xj)
    return r * r * (1.0 / ni + 1.0 / nj)


def _as_projection(cam) -> np.ndarray:
    if isinstance(cam, CameraModel):
        return cam.projection_matrix()
    return np.asarray(cam, dtype=float).reshape(3, 4)


def _dlt(A: np.ndarray):
    """Unit null vectors of DLT systems (one, or a stack) and whether each is
    ambiguous: its two smallest singular values equal."""
    _, s, Vt = np.linalg.svd(A)
    return Vt[..., 3, :], s[..., 2] - s[..., 3] < 1e-12 * s[..., 0]


def triangulate_dlt(cams, track: Track) -> np.ndarray:
    """DLT point: minimize ||A X|| over unit X, A stacking [x_i]_x P_i rows."""
    Ps = [_as_projection(c) for c in cams]
    if len(Ps) < 2:
        raise ValueError("triangulation needs at least two views")
    rows = [skew(track.points[k]) @ Ps[k] for k in range(len(Ps))]
    X, ambiguous = _dlt(np.vstack(rows))
    if ambiguous:
        raise DegenerateGeometry("ambiguous point: two smallest singular values equal")
    return X


def essential_candidates(E: np.ndarray):
    """Four (R, t) with E ~ [t]_x R; R is the relative rotation R_i^T R_j,
    t the unit direction R_i^T (t_i - t_j) up to sign."""
    U, _, Vt = np.linalg.svd(np.asarray(E, dtype=float))
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    Ra = U @ _W @ Vt
    Rb = U @ _W.T @ Vt
    tdir = U[:, 2]
    return [(Ra, tdir), (Ra, -tdir), (Rb, tdir), (Rb, -tdir)]


def _skews(x: np.ndarray) -> np.ndarray:
    """Stacked cross-product matrices [x_k]_x of the rows of an (N, 3) array."""
    a, b, c, z = x[:, 0], x[:, 1], x[:, 2], np.zeros(len(x))
    return np.stack([z, -c, b, c, z, -a, -b, a, z], axis=1).reshape(-1, 3, 3)


def _cheirality_votes(cands, pts: np.ndarray) -> np.ndarray:
    """Votes of each candidate (R, t): the tracks triangulated in front of
    both views, from their (N, 2, 3) image points in view i and view j, all
    candidates in one stacked DLT; ambiguous and at-infinity points do not
    vote."""
    # gauge: camera i at origin with identity rotation, camera j placed by (R, t)
    Pi = np.hstack([np.eye(3), np.zeros((3, 1))])
    Rt = np.array([R.T for R, _ in cands])
    t = np.array([tdir for _, tdir in cands])
    Pj = np.concatenate([Rt, Rt @ t[:, :, None]], axis=2)
    A = np.broadcast_arrays(_skews(pts[:, 0]) @ Pi, _skews(pts[:, 1]) @ Pj[:, None])
    X, ambiguous = _dlt(np.concatenate(A, axis=2))
    finite = ~ambiguous & ~(np.abs(X[..., 3]) < 1e-14)
    Xe = X[..., :3] / np.where(finite, X[..., 3], 1.0)[..., None]
    zj = (Rt[:, None] @ (Xe + t[:, None])[..., None])[..., 2, 0]
    return np.count_nonzero(finite & (Xe[..., 2] > 0) & (zj > 0), axis=1)


def rotation_from_essential(e: BifocalTensor | np.ndarray, points):
    """Relative rotation R_i^T R_j and signed unit translation t_ij from an
    essential tensor, the candidate with the most positive triangulated depths
    in both views winning.

    points: (N, 2, 3) image points of 2-view tracks, ordered (view i, view j).
    Raises AmbiguousCheirality when two candidates tie.
    """
    E = _as_matrix(e)
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise InsufficientTracks("cheirality vote needs at least one track")
    cands = essential_candidates(E)
    votes = _cheirality_votes(cands, pts).tolist()
    best = int(np.argmax(votes))
    if sorted(votes)[-2] == votes[best]:
        raise AmbiguousCheirality(f"depth votes tie: {votes}")
    return cands[best]
