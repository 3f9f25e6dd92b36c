"""Gauge alignment and reconstruction error metrics."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import TooFew
from .geometry import norms, ordered_sum, triangulate


def align_similarity(est_centers: np.ndarray, gt_centers: np.ndarray) -> np.ndarray:
    """The (n,) distances of the estimated centers from ground truth once
    the least-squares similarity (Umeyama) maps them onto it.  Collinear
    point sets are allowed: the rotation about their line is then free, and
    it moves no center."""
    est, gt = np.asarray(est_centers, dtype=float), np.asarray(gt_centers, dtype=float)
    if est.shape[0] < 3:
        raise TooFew("similarity alignment needs at least 3 correspondences")
    mu_e, mu_g = est.mean(axis=0), gt.mean(axis=0)
    de, dg = est - mu_e, gt - mu_g
    cov = dg.T @ de / est.shape[0]
    U, s, Vt = np.linalg.svd(cov)
    S = np.diag([1.0, 1.0, -1.0 if np.linalg.det(U) * np.linalg.det(Vt) < 0 else 1.0])
    R = U @ S @ Vt
    var_e = float(np.mean(np.sum(de ** 2, axis=1)))
    scale = float(np.trace(np.diag(s) @ S) / var_e) if var_e > 0 else 1.0
    t = mu_g - scale * R @ mu_e
    return np.linalg.norm(scale * est @ R.T + t - gt, axis=1)


def mean_reprojection_error(cams, points: np.ndarray, visible: np.ndarray) -> float:
    """Mean pixel distance between observations and the reprojection of the
    point re-triangulated from the estimated cameras.

    cams: list of 3x4 projections (None allowed for unreconstructed views);
    points, visible: (P, m, 3) image points of P tracks over the first m
    cameras and the (P, m) mask of where each track is observed.  Each track
    seen by at least two reconstructed cameras is triangulated from all of
    them, one stacked DLT per view count; a track with an ambiguous point
    and a reprojection at infinity do not count, and the distances are
    summed in track order, views in camera order.  nan when none counts.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[1]
    have = np.array([cams[v] is not None for v in range(m)], dtype=bool)
    P = np.array([cams[v] if have[v] else np.zeros((3, 4)) for v in range(m)]).reshape(m, 3, 4)
    used = np.asarray(visible, dtype=bool) & have
    views_of = np.count_nonzero(used, axis=1)
    dist, counted = np.zeros(used.shape), np.zeros(used.shape, dtype=bool)
    for k in np.unique(views_of[views_of >= 2]).tolist():
        rows = np.flatnonzero(views_of == k)
        views = np.nonzero(used[rows])[1].reshape(-1, k)
        Pk, xk = P[views], points[rows[:, None], views]
        X, ambiguous = triangulate(Pk, xk)
        x = (Pk @ X[:, None, :, None])[..., 0]
        finite = ~(np.abs(x[..., 2]) < 1e-15)
        d = norms(x[..., :2] / np.where(finite, x[..., 2], 1.0)[..., None] - xk[..., :2])
        dist[rows[:, None], views] = d
        counted[rows[:, None], views] = ~ambiguous[:, None] & finite
    count = int(np.count_nonzero(counted))
    return ordered_sum(dist[counted]) / count if count else float("nan")


@dataclass
class EvalReport:
    algorithm: str
    regime: str
    n_cameras: int
    n_reconstructed: int
    mean_position_error: float | None
    median_position_error: float | None
    mean_reprojection_error: float | None
    runtime_seconds: float | None = None
    converged: bool = True
    failure_stage: str | None = None

    def to_dict(self, include_runtime: bool = False) -> dict:
        # measured wall time is volatile; kept out of the byte-stable report
        # unless explicitly requested
        return {**asdict(self), "runtime_seconds": self.runtime_seconds if include_runtime else None}
