"""Reference implementations of the geometric primitives: one vector, one
matrix, one point and one track at a time, as colsfm computed them before
each primitive got one stacked body.  The oracle tests compare the stacked
primitives, `metrics.mean_reprojection_error` and the other oracles' callers
with these bit for bit, so this code keeps its per-item order of operations
and never calls the primitives it checks."""

import numpy as np

from colsfm.errors import DegenerateGeometry


def skew(v):
    """Cross-product matrix [v]_x of one 3-vector."""
    v = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError("skew: vector must be finite")
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def skews(x):
    """Stacked cross-product matrices of the rows of an (N, 3) array."""
    a, b, c, z = x[:, 0], x[:, 1], x[:, 2], np.zeros(len(x))
    return np.stack([z, -c, b, c, z, -a, -b, a, z], axis=1).reshape(-1, 3, 3)


def unit(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize zero vector")
    return v / n


def fix_sign(v):
    """Flip sign so the largest-magnitude entry is positive."""
    v = np.asarray(v, dtype=float)
    k = int(np.argmax(np.abs(v)))
    return -v if v.flat[k] < 0 else v


def normalized_tensor(M):
    """Unit Frobenius norm with the largest-magnitude entry positive."""
    M = np.asarray(M, dtype=float)
    n = np.linalg.norm(M)
    if n == 0.0:
        raise ValueError("cannot normalize zero tensor")
    return fix_sign(M / n)


def rotation_about(axis, angle_rad):
    """Rodrigues rotation about one non-zero axis."""
    a = unit(axis)
    K = skew(a)
    return np.eye(3) + np.sin(angle_rad) * K + (1.0 - np.cos(angle_rad)) * (K @ K)


def image_point(P, X):
    """The image of one world point under one 3x4 camera, last coordinate 1."""
    x = P @ np.append(np.asarray(X, dtype=float), 1.0)
    if abs(x[2]) < 1e-15:
        raise DegenerateGeometry("point projects to infinity")
    return x / x[2]


def camera_center(P):
    """The center -R^T t of one Euclidean camera [R | t]."""
    return -P[:, :3].T @ P[:, 3]


def dlt(A):
    """Unit null vectors of DLT systems and whether each is ambiguous."""
    _, s, Vt = np.linalg.svd(A, full_matrices=False)
    return Vt[..., 3, :], s[..., 2] - s[..., 3] < 1e-12 * s[..., 0]


def triangulate_dlt(cams, points):
    """One DLT point from one image point per 3x4 camera; an ambiguous point
    raises DegenerateGeometry."""
    Ps = [np.asarray(c, dtype=float).reshape(3, 4) for c in cams]
    if len(Ps) < 2:
        raise ValueError("triangulation needs at least two views")
    rows = [skew(points[k]) @ Ps[k] for k in range(len(Ps))]
    X, ambiguous = dlt(np.vstack(rows))
    if ambiguous:
        raise DegenerateGeometry("ambiguous point: two smallest singular values equal")
    return X


def triangulate_tracks3(P0, P1, pts):
    """One stacked DLT of every (N, 3, 3) 3-view track from views 0 and 1."""
    return dlt(np.concatenate([skews(pts[:, 0]) @ P0, skews(pts[:, 1]) @ P1], axis=1))


def mean_reprojection_error(cams, points, visible):
    """Mean distance between observations and reprojections, track by track."""
    total, count = 0.0, 0
    for pts, seen in zip(points, visible):
        views = [v for v in np.flatnonzero(seen).tolist() if cams[v] is not None]
        if len(views) < 2:
            continue
        try:
            X = triangulate_dlt([cams[v] for v in views], pts[views])
        except DegenerateGeometry:
            continue
        for v in views:
            x = cams[v] @ X
            if abs(x[2]) < 1e-15:
                continue
            x = x / x[2]
            total += float(np.linalg.norm(x[:2] - pts[v, :2]))
            count += 1
    return total / count if count else float("nan")
