"""Reference implementations of the n-view certificates' spectral steps, as
colsfm computed them before each step had one implementation in `nview`:
the eigenspace alignment bracketed on a 64-point grid and polished by
Newton's method, the block-rotation residual minimised over the 8 sign
cases one case at a time, and one SVD per block row.  The oracle tests
compare the certificates' verdicts with these."""

import math

import numpy as np

from colsfm.nview import (
    _FIT,
    _RANK_TOL,
    _REFLECTIONS,
    _SAMPLE_BASES,
    _SIGN_CASES,
    _basis_changes,
    _block_gram_residuals,
    _spectrum,
    _terms,
    collinear_pattern_residual,
)

_GRID = 2.0 * np.pi * np.arange(64) / 64
_GRID_TERMS = _terms(_GRID)


def newton_polish(coef, theta, h):
    """Newton's method on the derivative of the polynomial with coefficients
    coef, from the grid point theta and kept within h of it; where the
    curvature is not positive it steps h/2 downhill instead."""
    a, b = coef[1:5].tolist(), coef[5:].tolist()
    lo, hi = theta - h, theta + h
    for _ in range(8):
        d1 = d2 = 0.0
        for k, ak, bk in zip((1, 2, 3, 4), a, b):
            c, s = math.cos(k * theta), math.sin(k * theta)
            d1 += k * (bk * c - ak * s)
            d2 -= k * k * (ak * c + bk * s)
        step = -d1 / d2 if d2 > 0 else -math.copysign(h / 2, d1)
        moved = min(max(theta + step, lo), hi)
        if abs(moved - theta) < 1e-13:
            return moved
        theta = moved
    return theta


def vhat_alignment(X, Y, n):
    """(max residual, V_hat) of the O(2) alignment: the grid minimum of the
    fitted polynomial per reflection, polished, the grid point kept where
    polishing did not lower the polynomial."""
    bx = X.reshape(n, 3, 2)
    by = Y.reshape(n, 3, 2)
    _, per_block = _block_gram_residuals(bx, by, _SAMPLE_BASES, n)
    coef = np.sum(per_block, axis=-1) @ _FIT
    grid = coef @ _GRID_TERMS.T
    k = np.argmin(grid, axis=1)
    start = _GRID[k]
    theta = np.array([newton_polish(c, t, _GRID[1]) for c, t in zip(coef, start.tolist())])
    values = np.sum(coef * _terms(theta), axis=1)
    worse = values > grid[[0, 1], k]
    theta = np.where(worse, start, theta)
    values = np.where(worse, grid[[0, 1], k], values)
    best = int(np.argmin(values))
    Q = _basis_changes(theta[best], _REFLECTIONS[best])
    Vh, per_block = _block_gram_residuals(bx, by, Q, n)
    return float(np.max(np.sqrt(per_block))), Vh.reshape(3 * n, 2)


def block_row_rank(M, i):
    s = np.linalg.svd(M[3 * i:3 * i + 3, :], compute_uv=False)
    if s[0] == 0:
        return 0
    return int(np.sum(s > _RANK_TOL * s[0]))


def block_rotation_residual(X, Y, n):
    """Min over the 2^3 relative column-sign choices of the deviation of the
    sqrt(n) * sqrt(0.5)(X + Y) blocks from rotations; also returns V_hat."""
    best = (np.inf, None)
    for signs in _SIGN_CASES:
        Vh = np.sqrt(0.5) * (X + Y * signs)
        blocks = np.sqrt(n) * Vh.reshape(n, 3, 3)
        G = np.einsum("nij,nik->njk", blocks, blocks) - np.eye(3)
        ortho = float(np.max(np.sqrt(np.sum(G * G, axis=(1, 2)))))
        dets = np.array([np.linalg.det(b) for b in blocks])
        if np.sum(dets) < 0:
            dets = -dets  # global column-pair flip makes all dets positive
        det_res = float(np.max(np.abs(dets - 1.0)))
        r = max(ortho, det_res)
        if r < best[0]:
            best = (r, Vh)
    return best


def collinear_essential_conditions(M, tol=1e-6):
    _, n, w, V, (pos, neg) = _spectrum(M)
    ortho, _ = vhat_alignment(V[:, [0, 1]], V[:, [len(w) - 1, len(w) - 2]], n)
    return {
        "eigen_count": pos + neg == 4,
        "eigen_pattern": float(collinear_pattern_residual(w)) < tol,
        "orthogonality": ortho < tol,
    }


def collinear_fundamental_conditions(M):
    M, n, _, _, (pos, neg) = _spectrum(M)
    return {
        "rank4_signature": (pos, neg) == (2, 2),
        "block_rows_rank2": all(block_row_rank(M, i) == 2 for i in range(n)),
    }


def general_conditions(M, kind, tol=1e-6):
    _, n, w, V, (pos, neg) = _spectrum(M)
    conditions = {"rank6_signature": (pos, neg) == (3, 3)}
    if kind == "essential":
        lam = np.array([(w[k] - w[len(w) - 1 - k]) / 2.0 for k in range(3)])
        if np.all(lam > 0):
            dev = [abs(w[k] - lam[k]) for k in range(3)]
            dev += [abs(w[len(w) - 1 - k] + lam[k]) for k in range(3)]
            if len(w) > 6:
                dev.append(float(np.max(np.abs(w[3:-3]))))
            pattern = float(max(dev) / lam[0])
        else:
            pattern = 1.0
        X = V[:, [0, 1, 2]]
        Y = V[:, [len(w) - 1, len(w) - 2, len(w) - 3]]
        rotation, _ = block_rotation_residual(X, Y, n)
        conditions["eigen_pairing"] = pattern < tol
        conditions["block_rotation"] = rotation < tol
    return conditions
