"""Ground-truth scene generator and measurement corrupter.

Scenes are the verification oracle: every certificate and recovery routine is
checked against cameras and points generated here.  Generation is
deterministic for a fixed seed (numpy PCG64 streams are stable across
platforms).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import CoincidentCenters, InvalidSceneSpec, InvalidTracks, ValidationError
from .geometry import calibrated, image_point, normalized_tensor, rotation_about, skew, unit
from .nview import NViewBifocal


@dataclass
class MeasurementNoise:
    """Pose-space noise levels: degrees for rotations and translation
    directions, image units for track points; each finite and non-negative,
    else InvalidSceneSpec."""

    rotation_deg: float = 0.0
    translation_dir_deg: float = 0.0
    pixel: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            level = getattr(self, f.name)
            if not (isinstance(level, numbers.Real) and math.isfinite(level) and level >= 0):
                raise InvalidSceneSpec(f"noise level {f.name} must be finite and non-negative, got {level!r}")


@dataclass(frozen=True)
class TrackSet:
    """The observations of the scene points as two read-only arrays:
    points[p, i] is the image of point p in view i, a homogeneous 3-vector
    with last coordinate 1, wherever visible[p, i]; the other entries are
    ignored.  Every visible point is checked once, here (InvalidTracks)."""

    points: np.ndarray   # (P, n, 3)
    visible: np.ndarray  # (P, n) bool

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        vis = np.array(self.visible, dtype=bool)
        if pts.ndim != 3 or pts.shape[2] != 3 or vis.shape != pts.shape[:2]:
            raise InvalidTracks(f"track points {pts.shape} and mask {vis.shape} "
                             "must be (P, n, 3) and (P, n)")
        seen = pts[vis]
        if not np.all(np.isfinite(seen)):
            raise InvalidTracks("track points must be finite")
        if len(seen) and np.max(np.abs(seen[:, 2] - 1.0)) > 1e-9:
            raise InvalidTracks("track points must have last coordinate 1")
        for a in (pts, vis):
            a.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "visible", vis)

    def tracks(self, ids):
        """(N, k, 3) points of the tracks seen in every view of ids: rows in
        track order, columns in the order of ids.  A (T, k) stack of ids
        gives one ragged stack in one pass: the points of row 0's tracks,
        then row 1's and so on, and the (N,) row each track belongs to."""
        views = np.asarray(ids, dtype=int).reshape(-1, np.shape(ids)[-1])
        rows, of = np.nonzero(np.all(self.visible[:, views], axis=2).T)  # (T, P) -> row, point
        points = self.points[of[:, None], views[rows]]
        return (points, rows) if np.ndim(ids) == 2 else points


def _check_seed(seed, error=InvalidSceneSpec) -> None:
    """Refuse, with error, a seed numpy's generator would refuse."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise error(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise error(f"seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class Scene:
    """Synthetic scene with known cameras and points.  Camera i is
    K R^T [I | -t] with K = intrinsics[i], R = rotations[i] and
    t = centers[i], held with the (N, 3) points as four read-only stacks and
    checked once, here: ValidationError for the first non-finite point or
    points of another shape, fewer than 2 cameras and a seed that is not a
    non-negative integer; InvalidSceneSpec for the first camera with a
    non-finite entry, a rotation not orthogonal with det +1 (within 1e-10)
    or intrinsics not upper triangular with a positive diagonal and
    K[2, 2] = 1 (within 1e-12); ValidationError for the first pair whose
    squared distance overflows (found on centres scaled to at most 1, where
    nothing overflows), and CoincidentCenters for the first pair closer
    than 1e-12."""

    intrinsics: np.ndarray  # (n, 3, 3)
    rotations: np.ndarray   # (n, 3, 3)
    centers: np.ndarray     # (n, 3)
    points: np.ndarray
    layout: str
    seed: int

    def __post_init__(self):
        names = ("intrinsics", "rotations", "centers", "points")
        K, R, C, X = (np.array(getattr(self, name), dtype=float) for name in names)
        X = X.reshape(0, 3) if X.shape == (0,) else X
        if X.ndim != 2 or X.shape[1] != 3:
            raise ValidationError(f"points must be an (N, 3) array, got shape {X.shape}")
        bad = np.flatnonzero(~np.all(np.isfinite(X), axis=1))
        if len(bad):
            raise ValidationError(f"point {bad[0]} must be finite, got {X[bad[0]].tolist()}")
        if (n := len(C) if C.ndim else 0) < 2:
            raise ValidationError(f"a scene needs at least 2 cameras, got {n}")
        _check_seed(self.seed, ValidationError)  # `track_set` draws from a generator of seed + 1
        if not K.shape == R.shape == C.shape[:1] + (3, 3) or C.shape[1:] != (3,):
            raise InvalidSceneSpec(f"intrinsics {K.shape}, rotations {R.shape} and centers {C.shape} "
                                "must be (n, 3, 3), (n, 3, 3) and (n, 3) stacks")

        def refuse(bad, message):
            if np.any(bad):
                raise InvalidSceneSpec(f"camera {np.argmax(bad)}: {message}")

        refuse(~np.isfinite(np.hstack([K.reshape(n, 9), R.reshape(n, 9), C])).all(axis=1),
               "intrinsics, rotation and center must be finite")
        skewed = np.linalg.norm(R.swapaxes(1, 2) @ R - np.eye(3), axis=(1, 2)) > 1e-10
        refuse(skewed | (np.linalg.det(R) < 0), "rotation must be orthogonal with det +1")
        diagonal = np.diagonal(K, axis1=1, axis2=2)
        refuse((np.abs(diagonal[:, 2] - 1.0) > 1e-12) | np.any(diagonal <= 0, axis=1),
               "intrinsics must have positive diagonal and K[2,2]=1")
        refuse(np.any(np.abs(K[:, [1, 2, 2], [0, 0, 1]]) > 1e-12, axis=1),
               "intrinsics must be upper triangular")
        scale = float(np.max(np.abs(C), initial=0.0)) or 1.0
        D = C[:, None] / scale - C[None] / scale
        top = float(np.finfo(float).max) / scale
        far = np.triu(np.sum(D * D, axis=-1) > top / scale, 1)
        if np.any(far):
            i, j = np.argwhere(far)[0].tolist()
            raise ValidationError(f"cameras {i} and {j} are too far apart: their distance overflows")
        shared = np.triu(np.linalg.norm(C[:, None] - C[None], axis=-1) < 1e-12, 1)
        if np.any(shared):
            i, j = np.argwhere(shared)[0].tolist()
            raise CoincidentCenters(f"cameras {i} and {j} share a center")
        for name, a in zip(names, (K, R, C, X)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n(self) -> int:
        return len(self.centers)

    def track_set(self, pixel_noise: float = 0.0, rng=None) -> TrackSet:
        """Every point seen in every view: one stacked (P, n) projection by
        the cameras' 3x4 matrices K R^T [I | -t], each image scaled to last
        coordinate 1, plus Gaussian pixel noise of standard deviation
        pixel_noise on the first two coordinates, drawn as one (P, n, 2)
        array (x then y of each image, points outer, views inner).  rng
        defaults to a generator of seed + 1.  Raises DegenerateGeometry for
        a point at infinity."""
        rng = rng if rng is not None else np.random.default_rng(self.seed + 1)
        Ps = self.intrinsics @ self.rotations.swapaxes(1, 2) @ np.concatenate(
            [np.broadcast_to(np.eye(3), (self.n, 3, 3)), -self.centers[:, :, None]], axis=2)
        pts = image_point(Ps, self.points[:, None])  # (P, n, 3)
        if pixel_noise > 0.0:
            pts[..., :2] += rng.normal(0, pixel_noise, size=pts.shape[:2] + (2,))
        return TrackSet(pts, np.ones(pts.shape[:2], dtype=bool))


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
        raise InvalidSceneSpec(f"{n_line} cameras do not fit on the line with gaps of {_MIN_GAP}; "
                               f"at most {int(2 * _LINE_HALF / _MIN_GAP)} do")
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
    InvalidSceneSpec, since no layout has room for them; so do an unknown
    layout or intrinsics mode ("calibrated" | "varied"), counts that are not
    integers, a seed that is not a non-negative integer, too few cameras or
    points and a fraction that is not a real number in [0, 1].
    """
    if not (isinstance(n_cams, numbers.Integral) and isinstance(n_points, numbers.Integral)):
        raise InvalidSceneSpec(f"camera and point counts must be integers, got {n_cams!r} and {n_points!r}")
    _check_seed(seed)
    if n_cams < 3:
        raise InvalidSceneSpec("need at least 3 cameras")
    if n_points < 4:
        raise InvalidSceneSpec("need at least 4 points")
    if not (isinstance(collinear_fraction, numbers.Real) and 0.0 <= collinear_fraction <= 1.0):
        raise InvalidSceneSpec(f"collinear_fraction must lie in [0, 1], got {collinear_fraction!r}")
    if intrinsics_mode not in ("calibrated", "varied"):
        raise InvalidSceneSpec(f"unknown intrinsics_mode {intrinsics_mode!r}")
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
        raise InvalidSceneSpec(f"unknown layout {layout!r}")

    # the draws camera by camera, in the order of the per-camera
    # construction: off-line centres (position along the line, distance from
    # it, direction off it), then per camera roll, jitter axis, jitter angle
    # and intrinsics; the poses are then built as one stacked pass
    alphas = _line_positions(rng, n_line)
    off = np.array([(rng.uniform(-2.5, 2.5), rng.uniform(0.5, 2.0), *rng.normal(size=3))
                    for _ in range(n_cams - n_line)]).reshape(-1, 5)
    centers = np.concatenate([c0 + alphas[:, None] * d,
                              c0 + off[:, :1] * d + off[:, 1:2] * unit(np.cross(d, off[:, 2:]))])
    roll, axis, angle, K = zip(*[(rng.uniform(-np.pi, np.pi), rng.normal(size=3), rng.uniform(0, 5.0),
                                  _random_K(rng) if intrinsics_mode == "varied" else np.eye(3))
                                 for _ in range(n_cams)])

    # look at the box centre with a random roll, the y axis as the up
    # reference unless the view nearly runs along it, then a jitter of up to 5 deg
    z = unit(box_center - centers)
    ref = np.where(np.abs(z[:, 1:2]) > 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    x = unit(np.cross(ref, z))
    look = rotation_about(z, np.array(roll)) @ np.stack([x, np.cross(z, x), z], axis=-1)
    R = rotation_about(unit(np.array(axis)), np.deg2rad(angle)) @ look

    # visibility: every point in front of every camera (look-at geometry
    # guarantees it for the box used; verify rather than trust): the (P, n)
    # depths, camera z-axis dot (X - t)
    depths = ((points[:, None, :] - centers)[:, :, None, :] @ R[:, :, 2, None])[..., 0, 0]
    if np.any(depths <= 0):
        raise RuntimeError("generator produced a point behind a camera")
    return Scene(K, R, centers, points, layout, seed)


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
    The tracks follow from `Scene.track_set` with pixel noise `pixel`.  A
    seed that is not a non-negative integer raises InvalidSceneSpec.
    """
    _check_seed(seed)
    noise = noise or MeasurementNoise()
    rng = np.random.default_rng(seed)
    K, R, C = scene.intrinsics, scene.rotations, scene.centers
    is_calibrated = calibrated(K)
    kind = "essential" if is_calibrated.all() else "fundamental"
    I, J = np.triu_indices(scene.n, 1)
    Rt = R[I].swapaxes(1, 2)
    Rrel = Rt @ R[J]  # R_i^T R_j
    tdir = unit((Rt @ (C[I] - C[J])[:, :, None])[:, :, 0])
    arms = (noise.rotation_deg > 0) + (noise.translation_dir_deg > 0)
    axes = rng.normal(size=(len(I), arms, 3))
    if noise.rotation_deg > 0:
        Rrel = rotation_about(axes[:, 0], np.deg2rad(noise.rotation_deg)) @ Rrel
    if noise.translation_dir_deg > 0:
        # normalised here and again inside rotation_about, as the per-pair
        # construction did: the tensors' bits depend on both
        perp = unit(np.cross(tdir, axes[:, -1]))
        tdir = (rotation_about(perp, np.deg2rad(noise.translation_dir_deg)) @ tdir[:, :, None])[:, :, 0]
    T = skew(tdir) @ Rrel
    mapped = ~(is_calibrated[I] & is_calibrated[J])
    if np.any(mapped):
        Kinv = np.linalg.inv(K)
        T[mapped] = Kinv[I[mapped]].swapaxes(1, 2) @ T[mapped] @ Kinv[J[mapped]]
    T = normalized_tensor(T)
    nview = NViewBifocal.assemble(scene.n, np.column_stack([I, J]), T, kind)
    tracks = scene.track_set(pixel_noise=noise.pixel, rng=rng)
    return nview, tracks
