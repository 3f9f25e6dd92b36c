"""Ground-truth scene generator and measurement corrupter.

Scenes are the verification oracle: every certificate and recovery routine is
checked against cameras and points generated here.  Generation is
deterministic for a fixed seed (numpy PCG64 streams are stable across
platforms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateGeometry
from .geometry import CameraModel, _skews, rotation_about, unit
from .nview import NViewBifocal


@dataclass
class MeasurementNoise:
    """Pose-space noise levels: degrees for rotations and translation
    directions, image units for track points; each finite and non-negative."""

    rotation_deg: float = 0.0
    translation_dir_deg: float = 0.0
    pixel: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            level = getattr(self, f.name)
            if not (math.isfinite(level) and level >= 0):
                raise ValueError(f"noise level {f.name} must be finite and non-negative, got {level!r}")


@dataclass(frozen=True)
class TrackSet:
    """The observations of the scene points as two read-only arrays:
    points[p, i] is the image of point p in view i, a homogeneous 3-vector
    with last coordinate 1, wherever visible[p, i]; the other entries are
    ignored.  Every visible point is checked once, here."""

    points: np.ndarray   # (P, n, 3)
    visible: np.ndarray  # (P, n) bool

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        vis = np.array(self.visible, dtype=bool)
        if pts.ndim != 3 or pts.shape[2] != 3 or vis.shape != pts.shape[:2]:
            raise ValueError(f"track points {pts.shape} and mask {vis.shape} "
                             "must be (P, n, 3) and (P, n)")
        seen = pts[vis]
        if not np.all(np.isfinite(seen)):
            raise ValueError("track points must be finite")
        if len(seen) and np.max(np.abs(seen[:, 2] - 1.0)) > 1e-9:
            raise ValueError("track points must have last coordinate 1")
        for a in (pts, vis):
            a.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "visible", vis)

    def tracks(self, ids) -> np.ndarray:
        """(N, k, 3) points of the tracks seen in every view of ids: rows in
        track order, columns in the order of ids."""
        ids = list(ids)
        rows = np.flatnonzero(np.all(self.visible[:, ids], axis=1))
        return self.points[np.ix_(rows, ids)]


@dataclass
class Scene:
    """Synthetic scene with known cameras and points."""

    cameras: list
    points: np.ndarray
    layout: str
    seed: int

    @property
    def n(self) -> int:
        return len(self.cameras)

    def centers(self) -> np.ndarray:
        return np.vstack([c.center for c in self.cameras])

    def track_set(self, pixel_noise: float = 0.0, rng=None) -> TrackSet:
        """Every point seen in every view: one stacked (P, n) projection by
        the cameras' 3x4 matrices, each image scaled to last coordinate 1,
        plus Gaussian pixel noise of standard deviation pixel_noise on the
        first two coordinates, drawn as one (P, n, 2) array (x then y of
        each image, points outer, views inner).  rng defaults to a generator
        of seed + 1.  Raises DegenerateGeometry for a point at infinity."""
        rng = rng if rng is not None else np.random.default_rng(self.seed + 1)
        Ps = np.array([cam.projection_matrix() for cam in self.cameras]).reshape(-1, 3, 4)
        X = np.column_stack([self.points, np.ones(len(self.points))])
        x = (Ps @ X[:, None, :, None])[..., 0]  # (P, n, 3)
        if np.any(np.abs(x[..., 2]) < 1e-15):
            raise DegenerateGeometry("point projects to infinity")
        pts = x / x[..., 2:]
        if pixel_noise > 0.0:
            pts[..., :2] += rng.normal(0, pixel_noise, size=pts.shape[:2] + (2,))
        return TrackSet(pts, np.ones(pts.shape[:2], dtype=bool))


def _look_rotation(forward: np.ndarray, rng) -> np.ndarray:
    """Rotation whose camera z-axis points along `forward`, random roll."""
    z = unit(forward)
    ref = np.array([0.0, 1.0, 0.0])
    if abs(z @ ref) > 0.9:
        ref = np.array([1.0, 0.0, 0.0])
    x = unit(np.cross(ref, z))
    y = np.cross(z, x)
    R = np.column_stack([x, y, z])
    roll = rotation_about(z, rng.uniform(-np.pi, np.pi))
    return roll @ R


def _random_K(rng) -> np.ndarray:
    f = rng.uniform(0.8, 1.2)
    px, py = rng.uniform(-0.1, 0.1, size=2)
    return np.array([[f, 0.0, px], [0.0, f, py], [0.0, 0.0, 1.0]])


_LINE_HALF = 2.5  # camera positions on the line lie in [-2.5, 2.5]
_MIN_GAP = 0.05  # smallest spacing between two positions on the line
_MAX_CHUNK = 128  # candidate layouts drawn and checked at once; more adds peak memory
# uniforms spent on rejected layouts before sampling constructively; about
# 1.1M candidates at n_line=30, where one in ~29,000 is accepted
_REJECTION_BUDGET = 2 ** 25


def _gaps_ok(alphas: np.ndarray) -> np.ndarray:
    """Per row of sorted positions: is every gap at least _MIN_GAP?"""
    return np.diff(alphas, axis=-1).min(axis=-1, initial=np.inf) >= _MIN_GAP


def _line_positions(rng, n_line: int) -> np.ndarray:
    """Sorted positions of n_line cameras on the line, pairwise gaps >= _MIN_GAP.

    Rejection sampling: draw the whole layout uniformly on [-2.5, 2.5] and
    redraw it until every gap is wide enough.  Candidates are drawn in
    chunks of doubling size, and when one is accepted the generator is
    rewound to just after it, so the positions and the generator state
    afterwards equal those of redrawing one layout at a time.  Once the
    rejected candidates have used _REJECTION_BUDGET uniforms (large n_line,
    where acceptance is rare), the layout is drawn constructively from the
    same distribution instead.
    """
    if (n_line - 1) * _MIN_GAP >= 2 * _LINE_HALF:
        raise ValueError(f"{n_line} cameras do not fit on the line with gaps of {_MIN_GAP}")
    if n_line == 0:
        return np.empty(0)
    rows_left = max(1, _REJECTION_BUDGET // n_line)
    rows = 1
    while rows_left > 0:
        rows = min(rows, rows_left)
        start = rng.bit_generator.state
        chunk = rng.uniform(-_LINE_HALF, _LINE_HALF, size=(rows, n_line))
        chunk.sort(axis=1)
        accepted = np.flatnonzero(_gaps_ok(chunk))
        if accepted.size:
            k = accepted[0]
            rng.bit_generator.state = start
            rng.uniform(size=(k + 1) * n_line)  # consume exactly the candidates up to k
            return chunk[k]
        rows_left -= rows
        rows = min(2 * rows, _MAX_CHUNK)
    # sorted uniforms on a line shortened by the gaps, each k-th one shifted
    # by k gaps: uniform on the layouts the rejection sampler accepts
    shift = _MIN_GAP * np.arange(n_line)
    while True:
        alphas = np.sort(rng.uniform(-_LINE_HALF, _LINE_HALF - shift[-1], size=n_line)) + shift
        # rounding in the shift may break a gap or the bound; redraw then
        if _gaps_ok(alphas) and alphas[-1] <= _LINE_HALF:
            return alphas


def generate(
    layout: str,
    n_cams: int,
    n_points: int,
    seed: int = 0,
    intrinsics_mode: str = "calibrated",
    collinear_fraction: float = 0.5,
) -> Scene:
    """Deterministic synthetic scene.

    layout: "collinear" | "general" | "mixed" (first round(f*n) cameras on a
    line, the rest in general position).  Points sit in a bounded box off the
    camera line, in front of every camera.

    The cameras on the line sit at sorted positions in [-2.5, 2.5] with every
    gap at least 0.05, drawn uniformly among such layouts by rejection.  The
    candidates are drawn in batches, but the generator is rewound to just
    after the accepted one, so every scene equals the one drawn candidate by
    candidate.  Where acceptance is too rare (about n >= 35), a fixed budget
    of rejected draws runs out and the layout is drawn constructively from
    the same distribution.  More than 100 cameras on the line raise
    ValueError, since no layout has room for them.
    """
    if n_cams < 3:
        raise ValueError("need at least 3 cameras")
    if n_points < 4:
        raise ValueError("need at least 4 points")
    if not 0.0 <= collinear_fraction <= 1.0:
        raise ValueError(f"collinear_fraction must lie in [0, 1], got {collinear_fraction!r}")
    rng = np.random.default_rng(seed)

    # camera line along a random direction, points in a box displaced sideways
    d = unit(rng.normal(size=3))
    c0 = rng.normal(scale=0.5, size=3)
    side = unit(np.cross(d, rng.normal(size=3)))
    box_center = c0 + 6.0 * side
    points = box_center + rng.uniform(-1.5, 1.5, size=(n_points, 3))

    if layout == "collinear":
        n_line = n_cams
    elif layout == "general":
        n_line = 0
    elif layout == "mixed":
        n_line = int(round(collinear_fraction * n_cams))
    else:
        raise ValueError(f"unknown layout {layout!r}")

    centers = []
    for a in _line_positions(rng, n_line):
        centers.append(c0 + a * d)
    for _ in range(n_cams - n_line):
        p = c0 + rng.uniform(-2.5, 2.5) * d + rng.uniform(0.5, 2.0) * unit(np.cross(d, rng.normal(size=3)))
        centers.append(p)

    cams = []
    for t in centers:
        look = _look_rotation(box_center - t, rng)
        jitter = rotation_about(unit(rng.normal(size=3)), np.deg2rad(rng.uniform(0, 5.0)))
        R = jitter @ look
        K = _random_K(rng) if intrinsics_mode == "varied" else np.eye(3)
        cams.append(CameraModel(K, R, t))

    # visibility: every point in front of every camera (look-at geometry
    # guarantees it for the box used; verify rather than trust): the (P, n)
    # depths, camera z-axis dot (X - t)
    axes = np.array([cam.rotation[:, 2] for cam in cams])
    depths = ((points[:, None, :] - np.array(centers))[:, :, None, :] @ axes[:, :, None])[..., 0, 0]
    if np.any(depths <= 0):
        raise RuntimeError("generator produced a point behind a camera")
    return Scene(cams, points, layout, seed)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (N, k) array, computed as
    np.linalg.norm computes that of one vector: the square root of a dot
    (norm(axis=-1) differs from it in the last bit on some rows)."""
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _units(v: np.ndarray) -> np.ndarray:
    """The rows of an (N, 3) array scaled to unit length, as `unit` scales one."""
    n = _norms(v)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize zero vector")
    return v / n[:, None]


def _rotations_about(axes: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rodrigues rotations by one angle about each row of an (N, 3) array of
    non-zero axes, as `rotation_about` builds one."""
    K = _skews(_units(axes))
    return np.eye(3) + np.sin(angle_rad) * K + (1.0 - np.cos(angle_rad)) * (K @ K)


def measure(scene: Scene, noise: MeasurementNoise | None = None, seed: int = 0):
    """Measured pair tensors of every camera pair (unit-normalized, in
    sorted pair order) and noisy tracks, both from one generator of `seed`.

    All pairs are rebuilt at once, as (E, 3, 3) stacks, from noise-perturbed
    relative poses.  Rotation noise turns R_i^T R_j by exactly `rotation_deg`
    about a uniformly random axis; translation noise turns the direction
    t_ij = R_i^T (t_i - t_j) by exactly `translation_dir_deg` about a random
    axis perpendicular to it.  The axes are one (E, k, 3) normal draw, k the
    number of active arms: per pair the rotation axis, then the translation
    one.  A pair with an uncalibrated camera becomes K_i^{-T} E K_j^{-1}.
    Every block stays a true tensor of some pose, so rank 2 holds exactly.
    The tracks follow from `Scene.track_set` with pixel noise `pixel`.

    Raises ValueError where two centres coincide (a zero direction).
    """
    noise = noise or MeasurementNoise()
    rng = np.random.default_rng(seed)
    calibrated = np.array([c.is_calibrated for c in scene.cameras], dtype=bool)
    kind = "essential" if calibrated.all() else "fundamental"
    I, J = np.triu_indices(scene.n, 1)
    R = np.array([c.rotation for c in scene.cameras]).reshape(-1, 3, 3)
    C = np.array([c.center for c in scene.cameras]).reshape(-1, 3)
    Rt = R[I].swapaxes(1, 2)
    Rrel = Rt @ R[J]  # R_i^T R_j
    tdir = _units((Rt @ (C[I] - C[J])[:, :, None])[:, :, 0])
    arms = (noise.rotation_deg > 0) + (noise.translation_dir_deg > 0)
    axes = rng.normal(size=(len(I), arms, 3))
    if noise.rotation_deg > 0:
        Rrel = _rotations_about(axes[:, 0], np.deg2rad(noise.rotation_deg)) @ Rrel
    if noise.translation_dir_deg > 0:
        # normalised here and again inside _rotations_about, as the
        # per-pair construction did: the tensors' bits depend on both
        perp = _units(np.cross(tdir, axes[:, -1]))
        tdir = (_rotations_about(perp, np.deg2rad(noise.translation_dir_deg)) @ tdir[:, :, None])[:, :, 0]
    if not np.all(np.isfinite(tdir)):
        raise ValueError("skew: vector must be finite")
    T = _skews(tdir) @ Rrel
    mapped = ~(calibrated[I] & calibrated[J])
    if np.any(mapped):
        Kinv = np.linalg.inv(np.array([c.intrinsics for c in scene.cameras]))
        T[mapped] = Kinv[I[mapped]].swapaxes(1, 2) @ T[mapped] @ Kinv[J[mapped]]
    # unit Frobenius norm with the largest-magnitude entry positive
    flat = T.reshape(-1, 9)
    norms = _norms(flat)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize zero tensor")
    flat = flat / norms[:, None]
    big = np.take_along_axis(flat, np.argmax(np.abs(flat), axis=1)[:, None], axis=1)
    T = np.where(big < 0, -flat, flat).reshape(-1, 3, 3)
    nview = NViewBifocal.assemble(scene.n, np.column_stack([I, J]), T, kind)
    tracks = scene.track_set(pixel_noise=noise.pixel, rng=rng)
    return nview, tracks
