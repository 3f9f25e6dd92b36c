"""Reference implementations of the measurement simulator: one camera pair
and one image point at a time, as colsfm computed them before its stacked
passes.  The oracle tests compare `synthetic.measure` and
`Scene.track_set` with these bit for bit, so this code keeps its per-item
order of operations and of random draws."""

from itertools import combinations

import numpy as np

from colsfm.geometry import image_point, normalized_tensor, rotation_about, skew, unit
from colsfm.nview import NViewBifocal
from colsfm.synthetic import MeasurementNoise, TrackSet


def perturbed_block(ci, cj, calibrated, noise, rng):
    """The pair tensor of a noise-perturbed relative pose: rotation noise of
    exactly `rotation_deg` about a random axis, then the direction t_ij
    rotated by exactly `translation_dir_deg` about a random axis
    perpendicular to it."""
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


def track_set(scene, pixel_noise=0.0, rng=None):
    """Every point projected into every view, pixel noise drawn x then y."""
    rng = rng if rng is not None else np.random.default_rng(scene.seed + 1)
    Ps = [cam.projection_matrix() for cam in scene.cameras]
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
    calibrated = [c.is_calibrated for c in scene.cameras]
    kind = "essential" if all(calibrated) else "fundamental"
    pairs = list(combinations(range(scene.n), 2))
    tensors = [normalized_tensor(perturbed_block(scene.cameras[i], scene.cameras[j],
                                                 calibrated[i] and calibrated[j], noise, rng))
               for i, j in pairs]
    nview = NViewBifocal.assemble(scene.n, pairs, tensors, kind)
    return nview, track_set(scene, pixel_noise=noise.pixel, rng=rng)
