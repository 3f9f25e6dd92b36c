"""Reference implementations of the scene generator and the measurement
simulator: one camera, one camera pair and one image point at a time, as
colsfm computed them before its stacked passes.  The oracle tests compare
`synthetic.generate`, `synthetic.measure` and `Scene.track_set` with these
bit for bit, so this code keeps its per-item order of operations and of
random draws, on the per-item primitives of tests/geometry_oracle.py.  A
camera is its intrinsics K, rotation R and centre t, read from or stacked
into the scene's three stacks."""

from itertools import combinations

import numpy as np

from colsfm.nview import NViewBifocal
from colsfm.synthetic import MeasurementNoise, Scene, TrackSet, _line_positions, _random_K
from geometry_oracle import image_point, normalized_tensor, rotation_about, skew, unit


def look_rotation(forward, rng):
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


def generate(layout, n_cams, n_points, seed=0, intrinsics_mode="calibrated", collinear_fraction=0.5):
    """The scene of `synthetic.generate`, camera by camera (its input checks
    left out)."""
    rng = np.random.default_rng(seed)
    d = unit(rng.normal(size=3))
    c0 = rng.normal(scale=0.5, size=3)
    side = unit(np.cross(d, rng.normal(size=3)))
    box_center = c0 + 6.0 * side
    points = box_center + rng.uniform(-1.5, 1.5, size=(n_points, 3))
    n_line = {"collinear": n_cams, "general": 0,
              "mixed": int(round(collinear_fraction * n_cams))}[layout]
    centers = []
    for a in _line_positions(rng, n_line):
        centers.append(c0 + a * d)
    for _ in range(n_cams - n_line):
        p = c0 + rng.uniform(-2.5, 2.5) * d + rng.uniform(0.5, 2.0) * unit(np.cross(d, rng.normal(size=3)))
        centers.append(p)
    cams = []
    for t in centers:
        look = look_rotation(box_center - t, rng)
        jitter = rotation_about(unit(rng.normal(size=3)), np.deg2rad(rng.uniform(0, 5.0)))
        R = jitter @ look
        K = _random_K(rng) if intrinsics_mode == "varied" else np.eye(3)
        cams.append((K, R, t))
    for K, R, t in cams:
        if any((R.T @ (X - t))[2] <= 0 for X in points):
            raise RuntimeError("generator produced a point behind a camera")
    return Scene(*(np.array(stack) for stack in zip(*cams)), points, layout, seed)


def perturbed_block(scene, i, j, calibrated, noise, rng):
    """The pair tensor of a noise-perturbed relative pose: rotation noise of
    exactly `rotation_deg` about a random axis, then the direction t_ij
    rotated by exactly `translation_dir_deg` about a random axis
    perpendicular to it, between cameras i and j of the scene."""
    Ri, Rj = scene.rotations[i], scene.rotations[j]
    Rrel = Ri.T @ Rj  # R_i^T R_j
    tdir = unit(Ri.T @ (scene.centers[i] - scene.centers[j]))
    if noise.rotation_deg > 0:
        Rrel = rotation_about(rng.normal(size=3), np.deg2rad(noise.rotation_deg)) @ Rrel
    if noise.translation_dir_deg > 0:
        axis = unit(np.cross(tdir, rng.normal(size=3)))
        tdir = rotation_about(axis, np.deg2rad(noise.translation_dir_deg)) @ tdir
    E = skew(tdir) @ Rrel
    if calibrated:
        return E
    Ki = np.linalg.inv(scene.intrinsics[i])
    Kj = np.linalg.inv(scene.intrinsics[j])
    return Ki.T @ E @ Kj


def track_set(scene, pixel_noise=0.0, rng=None):
    """Every point projected into every view, pixel noise drawn x then y."""
    rng = rng if rng is not None else np.random.default_rng(scene.seed + 1)
    Ps = [K @ R.T @ np.hstack([np.eye(3), -t.reshape(3, 1)])
          for K, R, t in zip(scene.intrinsics, scene.rotations, scene.centers)]
    pts = np.empty((len(scene.points), scene.n, 3))
    for p, X in enumerate(scene.points):
        for i, P in enumerate(Ps):
            x = image_point(P, X)
            if pixel_noise > 0.0:
                x = x + np.array([rng.normal(0, pixel_noise), rng.normal(0, pixel_noise), 0.0])
            pts[p, i] = x
    return TrackSet(pts, np.ones(pts.shape[:2], dtype=bool))


def measure(scene, noise=None, seed=0, rng=None):
    """Pair tensors in sorted pair order, then the tracks, from one
    generator (`rng`, or a fresh one of `seed`)."""
    noise = noise or MeasurementNoise()
    rng = rng if rng is not None else np.random.default_rng(seed)
    calibrated = [bool(np.all(np.abs(K - np.eye(3)) <= 1e-12)) for K in scene.intrinsics]
    kind = "essential" if all(calibrated) else "fundamental"
    pairs = list(combinations(range(scene.n), 2))
    tensors = [normalized_tensor(perturbed_block(scene, i, j, calibrated[i] and calibrated[j], noise, rng))
               for i, j in pairs]
    nview = NViewBifocal.assemble(scene.n, pairs, tensors, kind)
    return nview, track_set(scene, pixel_noise=noise.pixel, rng=rng)
