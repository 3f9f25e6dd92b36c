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

import functools
from dataclasses import dataclass

import numpy as np

from .errors import MissingRecovery, NoValidPoint, RotationAmbiguity
from .geometry import (
    AmbiguousCheirality,
    BifocalTensor,
    Track,
    _as_matrix,
    epipole,
    normalized_tensor,
    rotation_from_essential,
    skew,
    symmetric_epipolar_distance,
)
from .graphs import _LOCAL_PAIRS
from .nview import NViewBifocal
from .recovery import TripletCameras


@dataclass(frozen=True)
class VirtualCamera:
    anchor_triplet: tuple
    track: Track
    orientation_source: int = 1  # local index of the middle camera
    point_world: np.ndarray | None = None  # oracle bookkeeping only


def _dehomogenize(x: np.ndarray) -> np.ndarray | None:
    if abs(x[2]) < 1e-12 * np.linalg.norm(x):
        return None
    return x[:2] / x[2]


def _epipole_distance(x: np.ndarray, e: np.ndarray) -> float:
    xi = _dehomogenize(x)
    ei = _dehomogenize(e)
    if xi is None:
        return 0.0
    if ei is None:
        return np.inf  # epipole at infinity never blocks a finite point
    return float(np.linalg.norm(xi - ei))


def select_virtual_point(tracks3, tensors: dict, epipole_margin: float = 1e-2) -> Track:
    """The 3-view track farthest from degeneracy: among tracks at least
    epipole_margin away from every relevant epipole in every view, the one
    minimizing the total symmetric epipolar distance over the three pairs.
    Ties break by track order."""
    tensors = {tuple(sorted(k)): v for k, v in tensors.items()}
    # each of the six epipoles is computed on first use, then reused
    epipole_of = functools.cache(lambda pair, side: epipole(tensors[pair], side))
    best = None
    for idx, tr in enumerate(tracks3):
        ok = True
        for v in range(3):
            for (i, j) in _LOCAL_PAIRS:
                if v not in (i, j):
                    continue
                e = epipole_of((i, j), "left" if v == i else "right")
                if _epipole_distance(tr.points[v], e) < epipole_margin:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        total = 0.0
        for (i, j) in _LOCAL_PAIRS:
            total += symmetric_epipolar_distance(tensors[(i, j)], tr.points[i], tr.points[j])
        if best is None or total < best[0]:
            best = (total, idx, tr)
    if best is None:
        raise NoValidPoint("every candidate track is within the epipole margin")
    return best[2]


def _v_matrices_from_cameras(cams: TripletCameras) -> list:
    P2 = cams.cameras[1]
    A2 = P2[:, :3]
    return [cams.cameras[i][:, :3] @ np.linalg.inv(A2) for i in range(3)]


def _v_matrices_from_tensors(blocks: dict, tracks) -> list:
    """Calibrated route: V_i2 = R_i^T R_2 extracted from the (i, 2)-pair
    block, the rotation branch picked by track cheirality."""
    out = []
    for i in range(3):
        if i == 1:
            out.append(np.eye(3))
            continue
        key = (min(i, 1), max(i, 1))
        M = _as_matrix(blocks[key])
        if key != (i, 1):
            M = M.T
        pts = np.array([tr.points[[i, 1]] for tr in tracks or []])
        try:
            R, _ = rotation_from_essential(M, pts)
        except AmbiguousCheirality as exc:
            raise RotationAmbiguity(str(exc)) from exc
        out.append(R)
    return out


def virtual_bifocals(source, track: Track, kind: str, tracks=None) -> list:
    """Unit-normalized tensors [F_0X, F_1X, F_2X] between the three real views
    and the virtual camera at the track's 3D point.

    source: a TripletCameras (either frame), or for the calibrated case the
    dict of three pairwise essential blocks (tracks then disambiguate the
    relative rotations).  Projective tensors require recovered cameras, since
    the third V-matrix depends on the resolved a-vector.
    """
    if isinstance(source, TripletCameras):
        V = _v_matrices_from_cameras(source)
    elif kind == "essential":
        blocks = {tuple(sorted(k)): v for k, v in source.items()}
        V = _v_matrices_from_tensors(blocks, tracks or [track])
    else:
        raise MissingRecovery(
            "projective virtual tensors need recovered cameras (the a-vector)"
        )
    out = []
    for i in range(3):
        M = skew(track.points[i]) @ V[i]
        out.append(BifocalTensor(normalized_tensor(M), kind, scale_fixed=True))
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
