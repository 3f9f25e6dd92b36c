"""The 3n x 3n symmetric block-matrix formalism and consistency certificates.

The measured pair tensors are one stack (`NViewBifocal`): sorted (E, 2)
camera pairs, (E, 3, 3) tensors and one kind, checked once by `assemble`;
every stage reads it through `slots`, which maps pairs to stack rows and
names the first missing pair.  Every block matrix of the package comes from
one assembler (`block_index` lays pair blocks out, `block_matrix` fills the
layout).

A collinear-consistent essential matrix has eigenvalues (l, l, -l, -l) and,
for the right in-plane pairing of the two eigenspaces, every 3x2 block V_i of
sqrt(0.5)(X + Y) satisfies V_i^T V_i = I/n.  The pairing is an O(2) basis
change whose squared residual is a degree-4 trigonometric polynomial of its
angle, so it is found in closed form rather than searched.  A
collinear-consistent fundamental matrix has rank 4 with signature (2, 2) and
rank-2 block rows.
General-position triplets instead have rank 6 with paired spectrum and (for
essential kind) block-rotation structure in sqrt(0.5)(X + Y).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DuplicateEdge, IndexOutOfRange, MissingBlock, RankNot2

# eigenvalues (singular values) at most this fraction of the largest in
# magnitude count as zero, in the certificates and the projections alike
_RANK_TOL = 1e-6


@dataclass(frozen=True)
class NViewBifocal:
    """Pairwise tensors of one kind over the measured camera pairs: `pairs`
    (E, 2), i < j in sorted order, and `tensors` (E, 3, 3), each oriented
    (i, j), both read-only.  The symmetric 3n x 3n block matrix is implied."""

    n: int
    pairs: np.ndarray
    tensors: np.ndarray
    kind: str

    @staticmethod
    def assemble(n: int, pairs, tensors, kind: str, strict: bool = True) -> "NViewBifocal":
        """Validate and store the stack; a pair given as (j, i) stores its
        tensor transposed.  With strict, every tensor must be rank 2.

        Raises ValueError (unknown kind), IndexOutOfRange, DuplicateEdge, RankNot2.
        """
        if kind not in ("essential", "fundamental"):
            raise ValueError(f"unknown tensor kind {kind!r}")
        pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
        tensors = np.asarray(tensors, dtype=float).reshape(-1, 3, 3)
        if len(pairs) != len(tensors):
            raise ValueError(f"{len(pairs)} pairs but {len(tensors)} tensors")
        diagonal = pairs[:, 0] == pairs[:, 1]
        if np.any(diagonal):
            i = pairs[np.argmax(diagonal), 0]
            raise IndexOutOfRange(f"diagonal block ({i},{i}) not allowed")
        outside = np.any((pairs < 0) | (pairs >= n), axis=1)
        if np.any(outside):
            i, j = pairs[np.argmax(outside)]
            raise IndexOutOfRange(f"edge ({i},{j}) outside [0,{n})")
        flip = (pairs[:, 0] > pairs[:, 1])[:, None, None]
        pairs, tensors = np.sort(pairs, axis=1), np.where(flip, tensors.swapaxes(1, 2), tensors)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs, tensors = pairs[order], tensors[order]
        repeated = np.all(pairs[1:] == pairs[:-1], axis=1)
        if np.any(repeated):
            i, j = pairs[np.argmax(repeated)]
            raise DuplicateEdge(f"edge ({i},{j}) given twice")
        if strict:
            s = np.linalg.svd(tensors, compute_uv=False)
            bad = ~((s[:, 0] > 0) & (s[:, 1] > 1e-9 * s[:, 0]) & (s[:, 2] <= 1e-9 * s[:, 0]))
            if np.any(bad):
                i, j = pairs[np.argmax(bad)]
                raise RankNot2(f"block ({i},{j}) is not rank 2")
        for a in (pairs, tensors):
            a.setflags(write=False)
        return NViewBifocal(n, pairs, tensors, kind)

    def slots(self, pairs) -> np.ndarray:
        """The stack rows of the given (i, j) pairs, i < j; raises
        MissingBlock for the first one that has no tensor."""
        pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
        rows = np.searchsorted(self.pairs @ [self.n, 1], pairs @ [self.n, 1])
        # a row past the end reads the (-1, -1) sentinel
        found = np.append(self.pairs, [[-1, -1]], axis=0)[rows]
        missing = np.any(found != pairs, axis=1)
        if np.any(missing):
            i, j = pairs[np.argmax(missing)].tolist()
            raise MissingBlock(f"cover edge {(i, j)} has no measured tensor")
        return rows

    def dense(self) -> np.ndarray:
        """Full 3n x 3n symmetric matrix, zero diagonal blocks; every pair
        must have a tensor (MissingBlock names the first that has not)."""
        return self.submatrix(range(self.n))

    def submatrix(self, ids) -> np.ndarray:
        """Dense sub-block matrix over the given camera ids, in sorted order."""
        return block_matrix(self.tensors[self.slots(list(combinations(sorted(ids), 2)))])


def block_index(slots) -> np.ndarray:
    """Layout of symmetric block matrices over a flat stack of 3x3 pair
    blocks: slots (..., P), P = k(k-1)/2, are the stack positions of each
    matrix's pairs in combinations(range(k), 2) order.  The (..., 3k, 3k)
    result indexes the stack's entries followed by one zero: pair (u, v)
    above the diagonal, its transpose below, the zero on diagonal blocks."""
    slots = np.asarray(slots)
    k = int(round((1.0 + math.sqrt(1.0 + 8.0 * slots.shape[-1])) / 2.0))
    rows, cols = np.triu_indices(k, 1)  # combinations order
    pair = np.zeros((k, k), dtype=int)
    pair[rows, cols] = pair[cols, rows] = np.arange(len(rows))
    u, a = np.divmod(np.arange(3 * k), 3)
    U, V, A, B = u[:, None], u[None, :], a[:, None], a[None, :]
    entry = np.where(U < V, 3 * A + B, A + 3 * B)
    # C order: the stacks gathered with it then sum like any other stack
    return np.ascontiguousarray(np.where(U == V, -1, 9 * slots[..., pair[U, V]] + entry))


@functools.cache
def _stack_index(P: int) -> np.ndarray:
    """The read-only `block_index` of one matrix over a stack of P pairs."""
    index = block_index(np.arange(P))
    index.setflags(write=False)
    return index


def block_matrix(blocks, index=None) -> np.ndarray:
    """The symmetric 3k x 3k matrix of pair blocks (P, 3, 3) given in
    combinations(range(k), 2) order, with zero diagonal blocks; with an
    index from `block_index`, the stack of matrices that index lays out."""
    blocks = np.asarray(blocks, dtype=float)
    if index is None:
        index = _stack_index(len(blocks))
    return np.append(blocks.ravel(), 0.0)[index]


@dataclass
class ConsistencyCertificate:
    regime: str
    eigenvalues: np.ndarray
    rank_estimate: int
    signature: tuple
    conditions: dict
    passed: bool
    block_row_ranks: list = field(default_factory=list)
    orthogonality_residual: float | None = None
    pattern_residual: float | None = None
    rotation_residual: float | None = None
    v_hat: np.ndarray | None = field(default=None, repr=False)

    def __bool__(self):
        return self.passed


def eigen_signature(w: np.ndarray):
    """The (positive, negative) counts of the eigenvalues w (..., m) clearly
    off zero: beyond _RANK_TOL of the largest in magnitude."""
    amax = np.max(np.abs(w), axis=-1, keepdims=True)
    return np.sum(w > _RANK_TOL * amax, axis=-1), np.sum(w < -_RANK_TOL * amax, axis=-1)


def collinear_pattern_residual(w: np.ndarray) -> np.ndarray:
    """The largest deviation of descending eigenvalues w (..., m) from the
    pattern (l, l, 0, ..., 0, -l, -l), l their mean magnitude over the four
    extremes, relative to l; 1 where l is not positive."""
    lam = (w[..., 0] + w[..., 1] - w[..., -1] - w[..., -2]) / 4.0
    dev = np.concatenate([w[..., [0, 1, -1, -2]] - lam[..., None] * [1.0, 1.0, -1.0, -1.0],
                          w[..., 2:-2]], axis=-1)
    return np.where(lam > 0, np.max(np.abs(dev), axis=-1) / np.where(lam > 0, lam, 1.0), 1.0)


def _eig_sorted(M: np.ndarray):
    w, V = np.linalg.eigh(M)
    order = np.argsort(w)[::-1]  # descending
    w = w[order]
    V = V[:, order]
    # deterministic eigenvector signs: each column's largest-magnitude entry
    # positive, as fix_sign makes it
    top = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return w, np.where(top < 0, -V, V)


# the alignment objective is a trigonometric polynomial of degree 4 in the
# basis angle; its coefficients (a_0, a_1..a_4, b_1..b_4) multiply the terms
# (1, cos k theta, sin k theta), and the discrete Fourier fit _FIT recovers
# them exactly from its values at 9 equispaced angles.  Its minimum is
# bracketed on a grid of the polynomial and polished by Newton's method.
_HARMONICS = np.arange(1, 5)


def _terms(theta) -> np.ndarray:
    kt = np.multiply.outer(theta, _HARMONICS)
    return np.concatenate([np.ones_like(kt[..., :1]), np.cos(kt), np.sin(kt)], axis=-1)


_SAMPLES = 2.0 * np.pi * np.arange(9) / 9
_FIT = _terms(_SAMPLES) * np.r_[1.0, np.full(8, 2.0)] / 9
_GRID = 2.0 * np.pi * np.arange(64) / 64
_GRID_TERMS = _terms(_GRID)
_REFLECTIONS = np.array([1.0, -1.0])


def _basis_changes(theta: np.ndarray, refl: np.ndarray) -> np.ndarray:
    """Stack of Rot(theta) @ diag(1, refl), broadcast over theta and refl."""
    c, s = np.broadcast_arrays(np.cos(theta), np.sin(theta), refl)[:2]
    return np.stack([np.stack([c, -refl * s], -1), np.stack([s, refl * c], -1)], -2)


# (reflection, sample) stack of the basis changes at the 9 sample angles
_SAMPLE_BASES = _basis_changes(_SAMPLES, _REFLECTIONS[:, None])


def _newton_polish(coef: np.ndarray, theta: float, h: float) -> float:
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


def _block_gram_residuals(bx, by, Q, n: int):
    """V_hat = sqrt(.5)(X + Y Q) as (..., n, 3, 2) blocks and each block's
    squared deviation ||V_i^T V_i - I/n||^2."""
    Vh = np.sqrt(0.5) * (bx + by @ Q[..., None, :, :])
    G = np.swapaxes(Vh, -1, -2) @ Vh - np.eye(2) / n
    return Vh, np.sum(G * G, axis=(-2, -1))


def _vhat_alignment(X: np.ndarray, Y: np.ndarray, n: int):
    """Find the relative O(2) basis rotation between the two eigenspaces
    that minimizes the V_i^T V_i = I/n residual; return (max residual, V_hat).

    The individual eigenvectors of a doubly degenerate eigenvalue carry an
    arbitrary in-plane basis; the orthogonality condition holds only for the
    aligned choice, so it must be found, not assumed.  For each reflection
    the summed squared residual f(theta) is a trigonometric polynomial of
    degree 4: its coefficients come from one stacked evaluation at 9 angles.
    """
    bx = X.reshape(n, 3, 2)
    by = Y.reshape(n, 3, 2)
    _, per_block = _block_gram_residuals(bx, by, _SAMPLE_BASES, n)
    coef = np.sum(per_block, axis=-1) @ _FIT
    grid = coef @ _GRID_TERMS.T
    k = np.argmin(grid, axis=1)
    start = _GRID[k]
    theta = np.array([_newton_polish(c, t, _GRID[1]) for c, t in zip(coef, start.tolist())])
    values = np.sum(coef * _terms(theta), axis=1)
    # keep a grid point where polishing did not lower the polynomial
    worse = values > grid[[0, 1], k]
    theta = np.where(worse, start, theta)
    values = np.where(worse, grid[[0, 1], k], values)
    best = int(np.argmin(values))  # ties keep the proper rotation
    Q = _basis_changes(theta[best], _REFLECTIONS[best])
    Vh, per_block = _block_gram_residuals(bx, by, Q, n)
    return float(np.max(np.sqrt(per_block))), Vh.reshape(3 * n, 2)


def _spectrum(m: NViewBifocal | np.ndarray):
    """The matrix M of m, its camera count, its descending eigenpairs and its
    signature (pos, neg).  Global certificates are statements about complete
    matrices: `dense` raises MissingBlock on sparse inputs, which are
    certified per-triplet submatrix instead."""
    M = m.dense() if isinstance(m, NViewBifocal) else np.asarray(m, dtype=float)
    w, V = _eig_sorted(M)
    return M, M.shape[0] // 3, w, V, tuple(int(c) for c in eigen_signature(w))


def certify_collinear_essential(m: NViewBifocal | np.ndarray, tol: float = 1e-6) -> ConsistencyCertificate:
    """Collinear-consistency certificate for an essential n-view matrix.

    Condition 1: exactly four significant eigenvalues in the pattern
    (l, l, -l, -l).  Condition 2: the aligned V_i^T V_i = I/n orthogonality.
    """
    _, n, w, V, (pos, neg) = _spectrum(m)
    pattern_residual = float(collinear_pattern_residual(w))
    X = V[:, [0, 1]]
    Y = V[:, [len(w) - 1, len(w) - 2]]
    ortho_residual, v_hat = _vhat_alignment(X, Y, n)
    conditions = {
        "eigen_count": pos + neg == 4,  # the eigenvalues clearly off zero
        "eigen_pattern": pattern_residual < tol,
        "orthogonality": ortho_residual < tol,
    }
    return ConsistencyCertificate(
        regime="collinear-essential",
        eigenvalues=w,
        rank_estimate=pos + neg,
        signature=(pos, neg),
        orthogonality_residual=ortho_residual,
        pattern_residual=pattern_residual,
        conditions=conditions,
        passed=all(conditions.values()),
        v_hat=v_hat,
    )


def _block_row_rank(M: np.ndarray, i: int) -> int:
    row = M[3 * i:3 * i + 3, :]
    s = np.linalg.svd(row, compute_uv=False)
    if s[0] == 0:
        return 0
    return int(np.sum(s > _RANK_TOL * s[0]))


def certify_collinear_fundamental(m: NViewBifocal | np.ndarray) -> ConsistencyCertificate:
    """Collinear-consistency certificate for a fundamental n-view matrix:
    rank 4 with signature (2, 2), every 3 x 3n block row of rank 2."""
    M, n, w, _, (pos, neg) = _spectrum(m)
    row_ranks = [_block_row_rank(M, i) for i in range(n)]
    conditions = {
        "rank4_signature": (pos, neg) == (2, 2),
        "block_rows_rank2": all(r == 2 for r in row_ranks),
    }
    return ConsistencyCertificate(
        regime="collinear-fundamental",
        eigenvalues=w,
        rank_estimate=pos + neg,
        signature=(pos, neg),
        block_row_ranks=row_ranks,
        conditions=conditions,
        passed=all(conditions.values()),
    )


# relative column signs of Y tried against the block-rotation structure:
# row b has +1 in column k when bit k of b is set
_SIGN_CASES = np.array([[1.0 if b & (1 << k) else -1.0 for k in range(3)] for b in range(8)])


def _block_rotation_residual(X: np.ndarray, Y: np.ndarray, n: int):
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


def certify_general(
    m: NViewBifocal | np.ndarray,
    kind: str | None = None,
    tol: float = 1e-6,
) -> ConsistencyCertificate:
    """General-position certificate: rank 6 with signature (3, 3); essential
    kind additionally requires the paired spectrum l_i = -l_{7-i} and the
    block-rotation structure of sqrt(0.5)(X + Y)."""
    if isinstance(m, NViewBifocal):
        kind = kind or m.kind
    elif kind is None:
        raise ValueError("kind required for raw matrices")
    _, n, w, V, (pos, neg) = _spectrum(m)
    conditions = {"rank6_signature": (pos, neg) == (3, 3)}
    pattern_residual = None
    rotation_residual = None
    v_hat = None
    if kind == "essential":
        lam = np.array([(w[k] - w[len(w) - 1 - k]) / 2.0 for k in range(3)])
        if np.all(lam > 0):
            dev = [abs(w[k] - lam[k]) for k in range(3)]
            dev += [abs(w[len(w) - 1 - k] + lam[k]) for k in range(3)]
            if len(w) > 6:
                dev.append(float(np.max(np.abs(w[3:-3]))))
            pattern_residual = float(max(dev) / lam[0])
        else:
            pattern_residual = 1.0
        X = V[:, [0, 1, 2]]
        Y = V[:, [len(w) - 1, len(w) - 2, len(w) - 3]]
        rotation_residual, v_hat = _block_rotation_residual(X, Y, n)
        conditions["eigen_pairing"] = pattern_residual < tol
        conditions["block_rotation"] = rotation_residual < tol
    return ConsistencyCertificate(
        regime=f"general-{kind}",
        eigenvalues=w,
        rank_estimate=pos + neg,
        signature=(pos, neg),
        pattern_residual=pattern_residual,
        rotation_residual=rotation_residual,
        conditions=conditions,
        passed=all(conditions.values()),
        v_hat=v_hat,
    )
