"""Virtual cameras at 3D track points.

A 3-view track defines a virtual camera centered at its (unknown) 3D point
with the orientation copied from the middle real camera; the tensors between
the virtual camera and the real ones are computable from image data alone:

    F_iX ~ [x_i]_x V_i2,     V_i2 = V_i^{-T} V_2^T,

the overall scale being discarded.  Choosing the point away from the
epipoles puts the virtual center off the camera line, turning a collinear
triplet into a general-position 4-view problem.

The cover stage (`colsfm.pipeline`) drives these in stacked passes: a
triplet's three pair tensors are a (3, 3, 3) stack in local pair order
(0,1), (0,2), (1,2), its six epipoles are rows of one table of all cover
pairs, and the calibrated V-matrices of all collinear triplets come from one
pose pass.  Its three virtual tensors are a (3, 3, 3) stack too, of pairs
(i, X) in the triplet's camera order, which the cover stage appends to the
measured pair stack.
"""

from __future__ import annotations

import numpy as np

from .errors import NoValidPoint
from .geometry import normalized_tensor, skew, symmetric_epipolar_distance
from .graphs import _LOCAL_PAIRS, _VIEW_EPIPOLES
from .recovery import pair_poses

# image distance within which a track point counts as at an epipole
_EPIPOLE_MARGIN = 1e-2


def _epipole_distances(points: np.ndarray, epipoles: np.ndarray) -> np.ndarray:
    """Image distance of each (m, 6, 3) track point from its (6, 3) epipole:
    0 for a point at infinity, inf for an epipole at infinity (it never
    blocks a finite point)."""
    fx, fe = (np.abs(x[..., 2]) >= 1e-12 * np.linalg.norm(x, axis=-1) for x in (points, epipoles))
    xy = points[..., :2] / np.where(fx, points[..., 2], 1.0)[..., None]
    exy = epipoles[:, :2] / np.where(fe, epipoles[:, 2], 1.0)[:, None]
    return np.where(fx, np.where(fe, np.linalg.norm(xy - exy, axis=-1), np.inf), 0.0)


def select_virtual_point(tracks3, tensors, epipoles) -> np.ndarray:
    """The (3, 3) image points of the 3-view track farthest from degeneracy:
    among the (N, 3, 3) tracks3 at least _EPIPOLE_MARGIN away from every
    relevant epipole in every view (epipoles: the triplet's (3, 2, 3) rows of
    a `geometry.epipoles` table), the one minimizing the total symmetric
    epipolar distance over the three pairs.  Ties break by track order."""
    P = np.asarray(tracks3, dtype=float)  # (track, view, xyz)
    if not len(P):
        raise NoValidPoint("no candidate track")
    v, pair, side = _VIEW_EPIPOLES.T
    near = _epipole_distances(P[:, v], np.asarray(epipoles)[pair, side])
    far = np.flatnonzero(~np.any(near < _EPIPOLE_MARGIN, axis=1))
    if not len(far):
        raise NoValidPoint("every candidate track is within the epipole margin")
    total = 0.0
    for k, (i, j) in enumerate(_LOCAL_PAIRS):
        total = total + symmetric_epipolar_distance(tensors[k], P[far, i], P[far, j])
    return P[far[np.argmin(total)]]


def v_matrices_from_cameras(cams: np.ndarray) -> np.ndarray:
    """The V-matrices A_i A_m^{-1} (m the middle view) of three recovered
    cameras [A_i | a_i], a (3, 3, 4) stack, as (3, 3, 3); projective virtual
    tensors need them, since the third camera depends on the resolved
    a-vector."""
    return cams[:, :, :3] @ np.linalg.inv(cams[1, :, :3])


def v_matrices_from_essentials(tensors, tracks) -> tuple:
    """The calibrated V-matrices R_i^T R_m (m the middle view) of V
    triplets, (V, 3, 3, 3), from their (V, 3, 3, 3) essential stacks: those
    of views 0 and 2 from blocks (0,1) and (1,2)^T, each rotation branch
    picked by the cheirality of its triplet's 3-view tracks (the ragged
    stack (points, rows) of `TrackSet.tracks`), all 2V pairs in one
    `pair_poses` pass.  Also returns each triplet's pose-tie message, else
    None."""
    E = np.asarray(tensors, dtype=float).reshape(-1, 3, 3, 3)
    points, rows = tracks
    poses = pair_poses(np.stack([E[:, 0], E[:, 2].swapaxes(-1, -2)], axis=1).reshape(-1, 3, 3),
                       (np.concatenate([points[:, [0, 1]], points[:, [2, 1]]]),
                        np.concatenate([2 * rows, 2 * rows + 1])))
    R = poses.rotations[:, 0].reshape(-1, 2, 3, 3)
    V = np.stack([R[:, 0], np.broadcast_to(np.eye(3), R[:, 0].shape), R[:, 1]], axis=1)
    return V, [a or b for a, b in zip(poses.errors[::2], poses.errors[1::2])]


def virtual_bifocals(V, track: np.ndarray) -> np.ndarray:
    """The unit-normalized tensors F_0X, F_1X, F_2X, a (3, 3, 3) stack,
    between the three real views and the virtual camera at the 3D point of
    track, its (3, 3) image points, from the triplet's (3, 3, 3) V-matrices;
    they are of the kind of the triplet's measured tensors."""
    return normalized_tensor(skew(track) @ V)
