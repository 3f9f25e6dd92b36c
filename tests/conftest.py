import numpy as np
import pytest

from colsfm.recovery import pair_pose
from colsfm.synthetic import generate


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def collinear_scene():
    return generate("collinear", n_cams=6, n_points=12, seed=3)


@pytest.fixture
def general_scene():
    return generate("general", n_cams=5, n_points=12, seed=5)


@pytest.fixture
def collinear_projective_scene():
    return generate("collinear", n_cams=5, n_points=12, seed=7, intrinsics_mode="varied")


def random_rotation(rng):
    A = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def triplet_poses(E9, tracks2=None):
    """The pair poses of a 9x9 triplet matrix's blocks in local pair order,
    each cheirality-voted when tracks2 ({local pair: 2-view tracks}) has
    tracks for it."""
    E9 = np.asarray(E9, dtype=float)
    tracks2 = tracks2 or {}
    return [pair_pose(E9[3 * i:3 * i + 3, 3 * j:3 * j + 3],
                      np.array([t.points for t in tracks2.get((i, j), [])]))
            for (i, j) in ((0, 1), (0, 2), (1, 2))]
