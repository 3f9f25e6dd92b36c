"""The 3n x 3n symmetric block-matrix formalism and consistency certificates.

The measured pair tensors are one stack (`NViewBifocal`): sorted (E, 2)
camera pairs, (E, 3, 3) tensors and one kind, checked once by `assemble`;
every stage reads it through `slots`, which maps pairs to stack rows and
names the first missing pair.  Every block matrix of the package comes from
one assembler (`block_index` lays pair blocks out, `block_matrix` fills the
layout).

Each spectral condition of the paper's characterisation has one
implementation here, which the certificates and the projection kernels of
`averaging` share.  "Clearly off zero" is `eigen_signature`.  A
collinear-consistent essential matrix has eigenvalues (l, l, -l, -l)
(`collinear_pattern_residual`) and, for the right in-plane pairing of the
two eigenspaces, every 3x2 block V_i of sqrt(0.5)(X + Y) satisfies
V_i^T V_i = I/n.  The pairing is an O(2) basis change whose squared residual
is a degree-4 trigonometric polynomial of its angle, minimised at a root of
its derivative.  A collinear-consistent fundamental matrix has signature
(2, 2) and rank-2 block rows (one SVD of the block-row stack).
General-position matrices have signature (3, 3), and essential ones a paired
spectrum and blocks of sqrt(0.5)(X + Y S) that are rotations up to scale for
one sign case S (`block_rotation_frames`, whose frames also start the
general-essential retraction).
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
# them exactly from its values at 9 equispaced angles.  Its minimum lies at a
# root of the derivative, a polynomial of degree 8 in e^(i theta).
_HARMONICS = np.arange(1, 5)


def _terms(theta) -> np.ndarray:
    kt = np.multiply.outer(theta, _HARMONICS)
    return np.concatenate([np.ones_like(kt[..., :1]), np.cos(kt), np.sin(kt)], axis=-1)


_SAMPLES = 2.0 * np.pi * np.arange(9) / 9
_FIT = _terms(_SAMPLES) * np.r_[1.0, np.full(8, 2.0)] / 9
_REFLECTIONS = np.array([1.0, -1.0])


def _basis_changes(theta: np.ndarray, refl: np.ndarray) -> np.ndarray:
    """Stack of Rot(theta) @ diag(1, refl), broadcast over theta and refl."""
    c, s = np.broadcast_arrays(np.cos(theta), np.sin(theta), refl)[:2]
    return np.stack([np.stack([c, -refl * s], -1), np.stack([s, refl * c], -1)], -2)


# (reflection, sample) stack of the basis changes at the 9 sample angles
_SAMPLE_BASES = _basis_changes(_SAMPLES, _REFLECTIONS[:, None])


def _critical_angles(coef: np.ndarray) -> np.ndarray:
    """The angles of the roots of z^4 f'(theta), z = e^(i theta), for the
    polynomial f with coefficients coef, and theta = 0: with
    f' = sum_k k (b_k cos k theta - a_k sin k theta), the coefficient of
    z^(4+k) is (k/2)(b_k + i a_k) and that of z^(4-k) its conjugate."""
    half = _HARMONICS / 2.0 * (coef[5:] + 1j * coef[1:5])
    return np.append(np.angle(np.roots(np.concatenate([half[::-1], [0.0], np.conj(half)]))), 0.0)


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
    degree 4: its coefficients come from one stacked evaluation at 9 angles,
    and its minimum is the least of its values at its critical angles.
    """
    bx = X.reshape(n, 3, 2)
    by = Y.reshape(n, 3, 2)
    _, per_block = _block_gram_residuals(bx, by, _SAMPLE_BASES, n)
    best = []  # (value, angle) of each reflection's minimum
    for coef in np.sum(per_block, axis=-1) @ _FIT:
        theta = _critical_angles(coef)
        values = _terms(theta) @ coef
        k = int(np.argmin(values))
        best.append((values[k], theta[k]))
    r = min(range(2), key=lambda r: best[r][0])  # ties keep the proper rotation
    Q = _basis_changes(best[r][1], _REFLECTIONS[r])
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


def certify_collinear_fundamental(m: NViewBifocal | np.ndarray) -> ConsistencyCertificate:
    """Collinear-consistency certificate for a fundamental n-view matrix:
    rank 4 with signature (2, 2), every 3 x 3n block row of rank 2."""
    M, n, w, _, (pos, neg) = _spectrum(m)
    s = np.linalg.svd(M.reshape(n, 3, 3 * n), compute_uv=False)
    row_ranks = np.sum(s > _RANK_TOL * s[:, :1], axis=1).tolist()
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
# the sign search as one linear map: the 36 entries of a block's Gram matrix
# [X Y]^T [X Y] -> the 9 entries of X^T X + X^T Y S + S Y^T X + S Y^T Y S for
# each of the 8 sign cases S = diag(s); the coefficient of (X or Y column j,
# X or Y column k) is 1 or s_j times 1 or s_k
_SIGN_FACTORS = np.stack([np.ones_like(_SIGN_CASES), _SIGN_CASES], axis=1)  # (case, X/Y, column)
_SIGN_GRAM = np.einsum(
    "cpj,cqk,jJ,kK->pjqkcJK", _SIGN_FACTORS, _SIGN_FACTORS, np.eye(3), np.eye(3)
).reshape(36, 72)


def block_rotation_frames(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The (m, k, 3, 3) blocks of sqrt(0.5)(X + Y S) for the three most
    positive and most negative eigenvectors X, Y (m, 3k, 3) of a stack of
    matrices, each ordered by descending magnitude.  S = diag(s) is the sign
    case whose blocks, scaled by sqrt(k), are closest to orthonormal in
    summed squares (the first best of the 8 wins), and column 0 is negated
    where the block determinants sum negative.  For a consistent essential
    matrix the scaled blocks are its rotations, up to one global rotation."""
    m, d = X.shape[:2]
    k = d // 3
    # block-orthogonality per case: the squares of
    # G_b = (k/2)(X^T X + X^T Y S + S Y^T X + S Y^T Y S) - I summed over blocks b
    XY = np.concatenate([X, Y], axis=-1).reshape(m, k, 3, 6)
    K = XY.swapaxes(-1, -2) @ XY
    G = (k / 2.0) * (K.reshape(m, k, 36) @ _SIGN_GRAM).reshape(m, k, 8, 9) - np.eye(3).ravel()
    r = np.sum(G * G, axis=(1, 3))
    V = (np.sqrt(0.5) * (X + Y * _SIGN_CASES[np.argmin(r, axis=1)][:, None, :])).reshape(m, k, 3, 3)
    V[..., 0] *= np.where(np.sum(np.linalg.det(V), axis=1) < 0, -1.0, 1.0)[:, None, None]
    return V


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
        top, bottom = w[:3], w[::-1][:3]
        lam = (top - bottom) / 2.0
        if np.all(lam > 0):
            dev = np.concatenate([np.abs(top - lam), np.abs(bottom + lam), np.abs(w[3:-3])])
            pattern_residual = float(np.max(dev) / lam[0])
        else:
            pattern_residual = 1.0
        frames = block_rotation_frames(V[None, :, :3], V[None, :, :-4:-1])[0]
        B = np.sqrt(n) * frames
        G = B.swapaxes(1, 2) @ B - np.eye(3)
        rotation_residual = float(max(np.max(np.sqrt(np.sum(G * G, axis=(1, 2)))),
                                      np.max(np.abs(np.linalg.det(B) - 1.0))))
        v_hat = frames.reshape(3 * n, 3)
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
