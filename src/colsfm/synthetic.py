"""Ground-truth scene generator and measurement corrupter.

Scenes are the verification oracle: every certificate and recovery routine is
checked against cameras and points generated here.  Generation is
deterministic for a fixed seed (numpy PCG64 streams are stable across
platforms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    BifocalTensor,
    CameraModel,
    image_point,
    normalized_tensor,
    rotation_about,
    skew,
    unit,
)
from .nview import NViewBifocal


@dataclass
class MeasurementNoise:
    """Pose-space noise levels: degrees for rotations and translation
    directions, image units for track points."""

    rotation_deg: float = 0.0
    translation_dir_deg: float = 0.0
    pixel: float = 0.0


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
        rng = rng if rng is not None else np.random.default_rng(self.seed + 1)
        Ps = [cam.projection_matrix() for cam in self.cameras]
        pts = np.empty((len(self.points), self.n, 3))
        for p, X in enumerate(self.points):
            for i, P in enumerate(Ps):
                x = image_point(P, X)
                if pixel_noise > 0.0:
                    x = x + np.array([rng.normal(0, pixel_noise), rng.normal(0, pixel_noise), 0.0])
                pts[p, i] = x
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

    scene = Scene(cams, points, layout, seed)
    # visibility: every point in front of every camera (look-at geometry
    # guarantees it for the box used; verify rather than trust)
    for X in points:
        for cam in cams:
            if cam.depth(X) <= 0:
                raise RuntimeError("generator produced a point behind a camera")
    return scene


def _perturbed_block(
    ci: CameraModel, cj: CameraModel, calibrated: bool, noise: MeasurementNoise, rng
) -> np.ndarray:
    """Rebuild the pairwise tensor from a noise-perturbed relative pose.

    Rotation noise: rotation of exactly `rotation_deg` about a uniformly
    random axis.  Translation noise: the direction t_ij is rotated by exactly
    `translation_dir_deg` about a random axis perpendicular to it.  Rank 2 is
    preserved exactly because the block stays a true tensor of some pose.
    """
    Rrel = ci.rotation.T @ cj.rotation  # R_i^T R_j
    tdir = unit(ci.rotation.T @ (ci.center - cj.center))
    if noise.rotation_deg > 0:
        Rrel = rotation_about(rng.normal(size=3), np.deg2rad(noise.rotation_deg)) @ Rrel
    if noise.translation_dir_deg > 0:
        axis = unit(np.cross(tdir, rng.normal(size=3)))
        tdir = rotation_about(axis, np.deg2rad(noise.translation_dir_deg)) @ tdir
    E = skew(tdir) @ Rrel
    if calibrated:
        return E
    Ki = np.linalg.inv(ci.intrinsics)
    Kj = np.linalg.inv(cj.intrinsics)
    return Ki.T @ E @ Kj


def measure(scene: Scene, noise: MeasurementNoise | None = None, seed: int = 0):
    """Measured n-view matrix (unit-normalized blocks) and noisy tracks."""
    noise = noise or MeasurementNoise()
    rng = np.random.default_rng(seed)
    calibrated = [c.is_calibrated for c in scene.cameras]
    kind = "essential" if all(calibrated) else "fundamental"
    blocks = {}
    for i in range(scene.n):
        for j in range(i + 1, scene.n):
            B = _perturbed_block(
                scene.cameras[i], scene.cameras[j], calibrated[i] and calibrated[j], noise, rng
            )
            blocks[(i, j)] = BifocalTensor(normalized_tensor(B), kind)
    nview = NViewBifocal.assemble(scene.n, blocks)
    tracks = scene.track_set(pixel_noise=noise.pixel, rng=rng)
    return nview, tracks
