"""Reference implementation of projective triplet recovery: one triplet at
a time, as colsfm computed it before its stacked pass.  The oracle tests
compare the stacked pass with this bit for bit, so this code keeps its
per-triplet order of operations."""

import numpy as np

from colsfm.errors import DegenerateEpipole, InsufficientTracks, RankDeficient
from colsfm.geometry import epipoles, fundamental_from_projections
from geometry_oracle import skew, triangulate_tracks3, unit


def epipole(t, side):
    """One tensor's epipole on one side, "left" or "right"."""
    return epipoles(np.asarray(t, dtype=float))[0, 0 if side == "left" else 1]


def canonical_pair_cameras(F01, F12):
    F01 = np.asarray(F01, dtype=float)
    F12 = np.asarray(F12, dtype=float)
    e0 = epipole(F01, "left")    # image of center 1 in view 0
    P0 = np.hstack([skew(e0) @ F01, e0.reshape(3, 1)])
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    e2 = epipole(F12, "right")   # image of center 1 in view 2
    M2 = skew(e2) @ F12.T
    return P0, P1, M2, e2


def a_system_rows(P0, M2, e2, F02, tracks3):
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
    if not np.any(F02):
        raise RankDeficient("third tensor is zero")
    fhat = unit(np.asarray(F02, dtype=float).ravel())
    Proj = np.eye(9) - np.outer(fhat, fhat)
    rows = [Proj @ L]
    rhs = [-Proj @ f0]
    used = 0
    if len(tracks3):
        P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
        X, ambiguous = triangulate_tracks3(P0, P1, tracks3)
        X, x2 = X[~ambiguous], tracks3[~ambiguous, 2]
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
    A = A[keep] / norms[keep, None]
    b = b[keep] / norms[keep]
    return A, b, used


def recover_collinear(F01, F12, F02, tracks3):
    tracks3 = np.asarray(tracks3, dtype=float)
    if len(tracks3) < 2:
        raise InsufficientTracks("the a-vector solve needs at least 2 three-view tracks")
    P0, P1, M2, e2 = canonical_pair_cameras(F01, F12)
    A, b, used = a_system_rows(P0, M2, e2, F02, tracks3)
    if not len(A):
        raise DegenerateEpipole("every constraint row is degenerate (tracks at the epipole)")
    if used < 2:
        raise InsufficientTracks(
            f"the a-vector solve needs at least 2 three-view tracks; {used} triangulate "
            "unambiguously"
        )
    a, *_ = np.linalg.lstsq(A, b, rcond=None)
    P2 = np.hstack([M2, np.zeros((3, 1))]) + np.outer(e2, a)
    return np.array([P0, P1, P2])


def recover_general(F01, F12, F02):
    P0, P1, M2, e2 = canonical_pair_cameras(F01, F12)
    A, b, _ = a_system_rows(P0, M2, e2, F02, tracks3=())
    sv = np.linalg.svd(A, compute_uv=False)  # no rows kept when the centres are collinear
    if len(sv) < 4 or sv[3] < 1e-10 * sv[0]:
        raise DegenerateEpipole("third tensor does not determine a (collinear cameras?)")
    a, *_ = np.linalg.lstsq(A, b, rcond=None)
    P2 = np.hstack([M2, np.zeros((3, 1))]) + np.outer(e2, a)
    return np.array([P0, P1, P2])


def v_matrices_from_cameras(cams):
    """The V-matrices A_i A_m^{-1} (m the middle view) of three cameras
    [A_i | a_i], one camera at a time."""
    A2 = cams[1][:, :3]
    return np.array([cams[i][:, :3] @ np.linalg.inv(A2) for i in range(3)])
