"""Reference registration: one dual-tree edge at a time and one camera at a
time, as colsfm registered triplets before its level-by-level pass.  The
oracle tests compare `register_global` with it bit for bit, so this code
keeps its per-edge and per-camera order of operations."""

import numpy as np

from colsfm.errors import AlignmentIllConditioned
from colsfm.geometry import camera_centers, nearest_rotation


def align_edge(parent, child, p, c, mode):
    """The (3, 3, 4) child cameras moved into the frame of the (3, 3, 4)
    parent ones through the two cameras they share, at the parent's local
    slots p and the child's slots c."""
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


def register_global(stack, cover, mode, n_cameras):
    """The cameras of a (T, 3, 3, 4) stack in cover order, chained edge by
    edge along the cover's dual BFS tree, then merged camera by camera."""
    stack = np.asarray(stack, dtype=float)
    ids = np.array(cover.triplets)
    dual = cover.dual
    placed = stack.copy()  # in the root frame
    for k in dual.order[1:].tolist():
        up = dual.parent[k]
        c, p = np.nonzero(ids[k][:, None] == ids[up])
        placed[k] = align_edge(placed[up], stack[k], p, c, mode)

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
