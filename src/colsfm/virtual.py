"""Virtual cameras at 3D track points.

A 3-view track defines a virtual camera centered at its (unknown) 3D point
with the orientation copied from the middle real camera; the tensors between
the virtual camera and the real ones are computable from image data alone:

    F_iX ~ [x_i]_x V_i2,     V_i2 = V_i^{-T} V_2^T,

the overall scale being discarded.  Choosing the point away from the
epipoles puts the virtual center off the camera line, turning a collinear
triplet into a general-position 4-view problem.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingRecovery, NoValidPoint, RotationAmbiguity
from .geometry import (
    BifocalTensor,
    _as_matrix,
    epipole,
    normalized_tensor,
    oriented_pairs,
    skew,
    symmetric_epipolar_distance,
)
from .graphs import _LOCAL_PAIRS
from .nview import NViewBifocal
from .recovery import TripletCameras, pair_poses


# (view, pair, side) of each epipole a track point must keep clear of: in
# view v, the epipole of each pair holding v
_EPIPOLE_VIEWS = tuple((v, (i, j), "left" if v == i else "right")
                       for v in range(3) for (i, j) in _LOCAL_PAIRS if v in (i, j))


def _epipole_distances(points: np.ndarray, epipoles: np.ndarray) -> np.ndarray:
    """Image distance of each (m, 6, 3) track point from its (6, 3) epipole:
    0 for a point at infinity, inf for an epipole at infinity (it never
    blocks a finite point)."""
    fx, fe = (np.abs(x[..., 2]) >= 1e-12 * np.linalg.norm(x, axis=-1) for x in (points, epipoles))
    xy = points[..., :2] / np.where(fx, points[..., 2], 1.0)[..., None]
    exy = epipoles[:, :2] / np.where(fe, epipoles[:, 2], 1.0)[:, None]
    return np.where(fx, np.where(fe, np.linalg.norm(xy - exy, axis=-1), np.inf), 0.0)


def select_virtual_point(tracks3, tensors: dict, epipole_margin: float = 1e-2) -> np.ndarray:
    """The (3, 3) image points of the 3-view track farthest from degeneracy:
    among the (N, 3, 3) tracks3 at least epipole_margin away from every
    relevant epipole in every view, the one minimizing the total symmetric
    epipolar distance over the three pairs.  Ties break by track order."""
    P = np.asarray(tracks3, dtype=float)  # (track, view, xyz)
    if not len(P):
        raise NoValidPoint("no candidate track")
    tensors = oriented_pairs(tensors)
    epipoles = np.array([epipole(tensors[pair], side) for _, pair, side in _EPIPOLE_VIEWS])
    near = _epipole_distances(P[:, [v for v, _, _ in _EPIPOLE_VIEWS]], epipoles)
    far = np.flatnonzero(~np.any(near < epipole_margin, axis=1))
    if not len(far):
        raise NoValidPoint("every candidate track is within the epipole margin")
    total = 0.0
    for (i, j) in _LOCAL_PAIRS:
        total = total + symmetric_epipolar_distance(tensors[(i, j)], P[far, i], P[far, j])
    return P[far[np.argmin(total)]]


def _v_matrices_from_cameras(cams: TripletCameras) -> list:
    P2 = cams.cameras[1]
    A2 = P2[:, :3]
    return [cams.cameras[i][:, :3] @ np.linalg.inv(A2) for i in range(3)]


def _v_matrices_from_tensors(blocks: dict, tracks) -> list:
    """Calibrated route: V_i2 = R_i^T R_2 extracted from the (i, 2)-pair
    block, the rotation branch picked by the cheirality of the (N, 3, 3)
    tracks; both pairs are decomposed in one stacked pass."""
    poses = pair_poses(np.stack([_as_matrix(blocks[(0, 1)]), _as_matrix(blocks[(1, 2)]).T]),
                       [tracks[:, [0, 1]], tracks[:, [2, 1]]])
    for error in poses.errors:
        if error is not None:
            raise RotationAmbiguity(error)
    return [poses.rotations[0, 0], np.eye(3), poses.rotations[1, 0]]


def virtual_bifocals(source, track: np.ndarray, kind: str, tracks=None) -> list:
    """Unit-normalized tensors [F_0X, F_1X, F_2X] between the three real views
    and the virtual camera at the 3D point of track, its (3, 3) image points.

    source: a TripletCameras (either frame), or for the calibrated case the
    dict of three pairwise essential blocks (the (N, 3, 3) tracks, or the
    track alone, then disambiguate the relative rotations).  Projective
    tensors require recovered cameras, since the third V-matrix depends on
    the resolved a-vector.
    """
    if isinstance(source, TripletCameras):
        V = _v_matrices_from_cameras(source)
    elif kind == "essential":
        if tracks is None or not len(tracks):
            tracks = track[None]
        V = _v_matrices_from_tensors(oriented_pairs(source), np.asarray(tracks, dtype=float))
    else:
        raise MissingRecovery(
            "projective virtual tensors need recovered cameras (the a-vector)"
        )
    out = []
    for i in range(3):
        M = skew(track[i]) @ V[i]
        out.append(BifocalTensor(normalized_tensor(M), kind))
    return out


def four_view_matrix(real_blocks: dict, virtual_blocks, kind: str | None = None) -> NViewBifocal:
    """The 4-view matrix of a triplet augmented with its virtual camera:
    real pairwise blocks at (0,1), (0,2), (1,2) and the virtual ones at
    (i, 3).  Consistent input passes the general-position certificate."""
    blocks = {}
    inferred = kind
    for (i, j) in _LOCAL_PAIRS:
        t = real_blocks[(i, j)]
        if not isinstance(t, BifocalTensor):
            t = BifocalTensor(np.asarray(t, dtype=float), inferred or "fundamental")
        blocks[(i, j)] = t
        inferred = inferred or t.kind
    for i in range(3):
        t = virtual_blocks[i]
        if not isinstance(t, BifocalTensor):
            t = BifocalTensor(np.asarray(t, dtype=float), inferred)
        blocks[(i, 3)] = t
    return NViewBifocal.assemble(4, blocks, kind=inferred)
