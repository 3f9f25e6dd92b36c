"""Rank-constrained projections and the ADMM consensus driver.

Per-triplet constraint sets (9x9 submatrices):

* collinear essential:   rank 4, tied spectrum (l, l, -l, -l)
* collinear fundamental: rank 4, signature (2, 2)
* general essential:     E_uv = Q_u [c_u - c_v]x Q_v^T, rotations Q_u and
                         centres c_u (zero diagonal blocks, rank 6, paired)
* general fundamental:   rank 6, signature (3, 3)

All sets except the general-essential one are invariant to per-block
rescaling, so unit-normalized measurements of consistent triplets are exact
fixed points.  The camera-parametrised set is scale sensitive; for that
regime the driver first restores consistent relative block scales from the
pairwise decompositions (closure of the translation directions) and
synchronizes them across triplets sharing a block; the decompositions and
closures of all cover triplets are one stacked pass of `recovery`, and the
synchronisation is (T, 3) arrays walked over the cover's `TripletCover.dual`.

The projections are batched kernels over (m, 3k, 3k) stacks, each call one
stacked eigendecomposition (`nview.eigen_signature` flags the
signature-deficient rows, whose eigenpairs one vectorized pass selects), and
`project` runs one on a single matrix; the general-essential kernel is a
retraction (`_general_essential`): one block-coordinate sweep, a stacked 3x3
SVD per camera, from rotations and centres (cold: from the sign-searched
`nview.block_rotation_frames` and one more SVD).  Its output has exactly
zero diagonal blocks, like the consensus, so the two sets can meet on covers
whose dual graph has cycles.  The driver runs it cold at its first iteration
only; later ones, inexact warm steps (Boyd et al. 2011, §3.4.4), start from
the previous rotations and centres, with no eigendecomposition, and hand on
the flags of the first spectral start: in this regime `signature_flags`
counts triplets whose start was deficient.
The driver holds its triplet state as (m, 9, 9) stacks and the consensus as
(E, 3, 3) camera-pair blocks, linked by one `nview.block_index` layout built
once per run, so each ADMM iteration gathers the consensus into the triplet
stack with one indexing operation and makes one kernel call for all
triplets.  The result hands on that (E, 3, 3) stack, with its pairs and
rows, as the one copy of the averaged tensors.

Every stack the driver builds is exactly symmetric: `nview.block_matrix`
mirrors each pair block bit for bit, the outer-product kernels return sums of
l x x^T, and the general-essential retraction symmetrizes its output once, so
the consensus update reads each pair's block of Z + U above the diagonal
alone.  Each kernel call symmetrizes its input once, at entry, for callers
such as `project` whose matrices are not exactly symmetric.

The run stops on the last iterate once its residuals reach the data's own
precision (Boyd et al. 2011, §3.3, `stop_threshold`).  Every collinear
essential triplet has the tied spectrum (l, l, -l, -l), and its kernel keeps
it: it reads the two kept eigenspaces only through their projectors, so it is
continuous where the top two eigenvalues tie, and the iterates settle there.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NotConnected
from .geometry import nearest_rotation, normalized_tensor, skew
from .graphs import _LOCAL_PAIRS, DualGraph, TripletCover, pair_rows
from .nview import NViewBifocal, block_index, block_matrix, block_rotation_frames, eigen_signature
from .recovery import closure_scales, pair_poses, resolve_essential_triplet

_ROWS, _COLS = zip(*_LOCAL_PAIRS)  # block row and column of each local pair


# the stop relative to the RMS misfit (`stop_threshold`); on seeds 30-59 of criterion 5,
# 1e-3 moved scenes by up to 7% against the absolute 1e-9 stop, 1e-4 by under 0.5%
_EPS = 1e-4


@dataclass
class AdmmConfig:
    # unit penalty stalls on noisy desk-scale problems; rho 5 reaches the
    # stop well inside the iteration budget
    rho: float = 5.0
    max_iters: int = 500
    tol: float = 1e-9  # floor of the stop on both the primal and the dual residual

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if not all(math.isfinite(v) and v > 0 for v in (self.rho, self.max_iters, self.tol)):
            raise ValueError("all ADMM parameters must be positive and finite")


def stop_threshold(objective: float, m: int, tol: float) -> float:
    """The stop on both ADMM residuals (RMS over the 81 m entries of m
    triplets): max(tol, _EPS x the RMS misfit sqrt(objective / 81 m))."""
    return max(tol, _EPS * math.sqrt(objective / (81.0 * m)))


def _outer(a: np.ndarray) -> np.ndarray:
    """Stacked np.outer(a, a) over the last axis."""
    return a[..., :, None] * a[..., None, :]


def _truncate(S: np.ndarray, need: int):
    """(positive eigenvectors, values, negative eigenvectors, values, flags)
    kept per matrix of a symmetric stack, `need` per sign by descending
    magnitude.  Rows with `need` clear eigenvalues of each sign keep the
    extreme ones.  The signature-deficient rest, selected in one pass over
    those rows, keep their clear ones and pad each short side from the others
    by descending magnitude (ties in index order) with the sign forced, so the
    output signature is exact and the map stays idempotent; a zero matrix
    keeps +0 on both sides."""
    w_asc, V_asc = np.linalg.eigh(S)
    w, V = w_asc[:, ::-1], V_asc[..., ::-1]  # descending order
    pos, neg = eigen_signature(w)
    flags = (pos < need) | (neg < need)
    X, pv, Y, nv = V[..., :need], w[:, :need], V_asc[..., :need], w_asc[:, :need]
    bad = np.flatnonzero(flags)
    if len(bad):
        X, pv, Y, nv = X.copy(), pv.copy(), Y.copy(), nv.copy()
        wb, d, j = w[bad], w.shape[1], np.arange(need)
        # the clear eigenvalues lead each side: the first cp and the last cn
        cp, cn = np.minimum(pos[bad], need)[:, None], np.minimum(neg[bad], need)[:, None]
        free = (np.arange(d) >= cp) & (np.arange(d) < d - cn)
        rest = np.argsort(np.where(free, -np.abs(wb), np.inf), axis=1, kind="stable")
        # each side: its clear ones, then the next of the rest (the positive
        # side pads first), reordered by descending magnitude
        for clear, first, pad, vecs, vals in ((cp, j, 0, X, pv), (cn, d - 1 - j, need - cp, Y, nv)):
            at = np.take_along_axis(rest, np.maximum(pad + j - clear, 0), axis=1)
            side = np.where(j < clear, first, at)
            mags = np.abs(np.take_along_axis(wb, side, axis=1))
            order = np.argsort(-mags, axis=1, kind="stable")
            vecs[bad] = np.take_along_axis(V[bad], np.take_along_axis(side, order, axis=1)[:, None], axis=2)
            vals[bad] = np.take_along_axis(mags, order, axis=1)
        nv[bad] = np.where(np.any(wb, axis=1, keepdims=True), -nv[bad], 0.0)
    return X, pv, Y, nv, flags


def _symmetrized(out: np.ndarray) -> np.ndarray:
    return (out + out.swapaxes(-1, -2)) / 2.0


def _collinear_essential(S: np.ndarray, warm=None):
    """Nearest matrix with the tied spectrum (l, l, -l, -l) of every collinear
    triplet: l (X X^T - Y Y^T) on the eigenspaces X of the two largest and Y
    of the two most negative eigenvalues, at their mean magnitude
    l = (p1 + p2 - n1 - n2) / 4.  It reads X and Y only through their
    projectors, so it is continuous where p1 and p2 (or n1 and n2) tie."""
    X, pv, Y, nv, flags = _truncate(_symmetrized(S), 2)
    lam = (pv[:, 0] + pv[:, 1] - nv[:, 0] - nv[:, 1]) / 4.0
    out = sum(_outer(X[..., k]) - _outer(Y[..., k]) for k in range(2))
    return lam[:, None, None] * out, flags, None


def _signature_kernel(need: int):
    """Kernel keeping the `need` largest and `need` most negative eigenvalues
    unchanged, zeroing the rest."""

    def kernel(S: np.ndarray, warm=None):
        X, pv, Y, nv, flags = _truncate(_symmetrized(S), need)
        vecs = np.concatenate([X, Y], axis=-1)
        vals = np.concatenate([pv, nv], axis=-1)
        return sum(vals[:, k, None, None] * _outer(vecs[..., k]) for k in range(2 * need)), flags, None

    return kernel


_collinear_fundamental = _signature_kernel(2)
_general_fundamental = _signature_kernel(3)


def _centres(Q: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(m, k, 3) mean-zero centres minimising sum_uv |W_uv - Q_u [c_u - c_v]x Q_v^T|^2
    for fixed rotations Q (m, k, 3, 3) and blocks W (m, k, k, 3, 3):
    c_u = (1/k) sum_v vee(skew(Q_u^T W_uv Q_v)), v != u."""
    k = Q.shape[1]
    M = Q.swapaxes(-1, -2)[:, :, None] @ W @ Q[:, None]
    x = 0.5 * np.stack([M[..., 2, 1] - M[..., 1, 2], M[..., 0, 2] - M[..., 2, 0],
                        M[..., 1, 0] - M[..., 0, 1]], axis=-1)
    c = np.stack([sum(x[:, u, v] for v in range(k) if v != u) / k for u in range(k)], axis=1)
    return c - sum(c[:, u] for u in range(k))[:, None] / k


def _general_essential(S: np.ndarray, warm=None):
    """Retraction onto the consistent essential matrices
    E_uv = Q_u [c_u - c_v]x Q_v^T of k cameras (rotations Q_u, mean-zero
    centres c_u), which have zero diagonal blocks: one block-coordinate
    sweep of sum_uv |S_uv - Q_u [c_u - c_v]x Q_v^T|^2 from a start (Q, c).

    Cold (warm None), Q starts from the sqrt(0.5)(X + Y S) blocks of the
    rank-6 paired eigenvectors at the sign case S that
    `nview.block_rotation_frames` picks (8 cases, the first best wins),
    projected to rotations, and c at `_centres`; warm, from the (Q, c,
    flags) a previous call returned, whose spectral start's flags it hands
    on.  The sweep updates each Q_u in turn by Procrustes at the start's
    centres, then sets `_centres` for the new rotations.  Each update is an
    exact block minimisation, so the output never scores worse than its
    start, consistent input is a fixed point and the cold map is idempotent.
    """
    m, d = S.shape[:2]
    k = d // 3
    S = _symmetrized(S)
    W = np.ascontiguousarray(S.reshape(m, k, 3, k, 3).swapaxes(2, 3))
    if warm is None:
        X, _, Y, _, flags = _truncate(S, 3)
        Q = nearest_rotation(np.sqrt(k) * block_rotation_frames(X, Y))
        c = _centres(Q, W)
    else:
        Q, c, flags = warm[0].copy(), warm[1], warm[2]
    S = skew(c[:, None] - c[:, :, None])  # S[:, u, v] = [c_v - c_u]x
    for u in range(k):
        # argmin over Q_u of sum_v |W_uv - Q_u [c_u - c_v]x Q_v^T|^2
        Q[:, u] = nearest_rotation(sum(W[:, u, v] @ Q[:, v] @ S[:, u, v] for v in range(k) if v != u))
    c = _centres(Q, W)
    Z = Q[:, :, None] @ skew(c[:, :, None] - c[:, None])
    Z = (Z @ Q.swapaxes(-1, -2)[:, None]).swapaxes(2, 3).reshape(m, d, d)
    return _symmetrized(Z), flags, (Q, c, flags)


# the batched kernel of each (regime, kind): (stack, warm) -> (stack, flags,
# warm), warm None for a cold call or the one the previous call returned (None
# but from the general-essential retraction: its rotations, centres and flags)
_PROJECTIONS = {
    ("collinear", "essential"): _collinear_essential,
    ("collinear", "fundamental"): _collinear_fundamental,
    ("general", "essential"): _general_essential,
    ("general", "fundamental"): _general_fundamental,
}


def project(S: np.ndarray, regime: str, kind: str) -> tuple:
    """The (regime, kind) projection of one matrix S: its `_PROJECTIONS`
    kernel, looked up when called, run cold on a stack of one.  Returns
    (projected matrix, signature_deficient)."""
    M, flags, _ = _PROJECTIONS[(regime, kind)](np.asarray(S, dtype=float)[None])
    return M[0], bool(flags[0])


@dataclass
class AveragingResult:
    n: int  # cameras, virtual ones included
    log: list
    converged: bool
    iterations: int
    objective: float
    signature_flags: int
    threshold: float  # the stop threshold at the returned iterate's objective
    consensus: np.ndarray = field(repr=False)  # (E, 3, 3) un-normalised blocks of `pairs`
    pairs: list = field(repr=False)  # the cover's camera pairs in `pair_rows` order
    rows: np.ndarray = field(repr=False)  # (T, 3) each sorted cover triplet's pairs in `pairs`


def _local_scale_factors(blocks, rows) -> np.ndarray:
    """(T, 3) signed scale factors of each triplet's blocks in local pair
    order, from its direction closure, normalized to a unit geometric mean
    (all 1 where no sign branch closes the triangle); blocks (P, 3, 3) and
    rows (T, 3) as `pair_rows` orders them.  One stacked pass decomposes
    each pair block once and closes every triplet."""
    geom = resolve_essential_triplet(pair_poses(blocks, [None] * len(blocks)), rows)
    closure = closure_scales(geom)
    # the decomposition reproduces the stored block only up to sign
    recon = skew(geom.t_dirs.reshape(-1, 3)) @ geom.rotations.reshape(-1, 3, 3)
    agree = np.sum(recon * blocks[rows.ravel()], axis=(1, 2)) >= 0
    raw = closure.mu * closure.signs * np.where(agree, 1.0, -1.0).reshape(-1, 3)
    mean = np.exp(np.mean(np.log(np.abs(raw)), axis=1, keepdims=True))
    return np.where(closure.valid[:, None], raw / mean, 1.0)


def _consistent_scale_factors(blocks, rows, dual: DualGraph) -> np.ndarray:
    """(T, 3) signed scale factors restoring consistent relative block
    scales for the general-essential regime, for the cover triplets with
    pair blocks and rows as in `_local_scale_factors` and their dual graph.

    The stored sign convention (largest entry positive) is unrelated to the
    consistent orientation, so the closure solve's signs are kept.  Across
    triplets a per-triplet sign gauge is fixed along the dual BFS tree
    (global negation preserves the constraint set) and the magnitudes are
    synchronized by least squares on log scales over the dual edges.
    """
    local = _local_scale_factors(blocks, rows)
    child = dual.order[1:]
    up = dual.parent[child]
    # a and b: the columns of the one pair slot that dual neighbours share
    _, a, b = np.nonzero(rows[child][:, :, None] == rows[up][:, None, :])
    agree = np.where(local[up, b] * local[child, a] >= 0, 1.0, -1.0)
    sign = np.ones(len(rows))
    for t, p, s in zip(child.tolist(), up.tolist(), agree.tolist()):
        sign[t] = sign[p] * s

    i, j = dual.edges.T
    k, a, b = np.nonzero(rows[i][:, :, None] == rows[j][:, None, :])
    A = np.zeros((len(i) + 1, len(rows)))
    A[k, i], A[k, j], A[-1, 0] = 1.0, -1.0, 1.0  # the last row fixes the first factor at 1
    rhs = np.append(np.log(np.abs(local[j, b])) - np.log(np.abs(local[i, a])), 0.0)
    g, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return sign[:, None] * local * np.exp(g)[:, None]


def _sq_total(A: np.ndarray, weight: float = 1.0) -> float:
    """Sum of weight x each stacked matrix's sum of squares, added left to right."""
    return float(np.cumsum(np.sum(A * A, axis=(1, 2)) * weight)[-1])


def average(
    measured: NViewBifocal,
    cover: TripletCover,
    regime: str,
    cfg: AdmmConfig | None = None,
) -> AveragingResult:
    """Consensus ADMM over the triplet cover.

    Each triplet keeps a constrained copy Z_k of its 9x9 submatrix (the
    regime's projection is the constraint step, the quadratic
    attachment to the measured submatrix the proximal step); blocks shared
    between triplets live in a single consensus variable with zero diagonal
    blocks, updated in deterministic triplet order; scaled duals close the
    loop.  The residuals are the last step's, primal Z - C and dual
    rho (C - C_old); the run stops on the last iterate once both are below
    `stop_threshold` of the objective, the squared misfit of Z to the
    measurements.  Non-convergence is reported on the result, not raised,
    and hands back the iterate of least primal residual.

    The triplet variables are (m, 9, 9) stacks in sorted triplet order and
    the consensus an (E, 3, 3) stack in the order of `pair_rows`, which the
    result carries un-normalised with its pairs and rows.
    """
    cfg = cfg or AdmmConfig()
    if not cover.is_connected():
        raise NotConnected("triplet cover dual graph is disconnected")
    triplets = cover.triplets
    edges, edge_of = pair_rows(triplets)  # edge_of (m, 3): each triplet's slots in edges
    # a missing pair raises in order of first use, as a walk over the triplets meets it
    normed = normalized_tensor(measured.tensors[measured.slots(edges)])
    projection = _PROJECTIONS[(regime, measured.kind)]

    m = len(triplets)
    scales = (_consistent_scale_factors(normed, edge_of, cover.dual)
              if regime == "general" and measured.kind == "essential" else np.ones((m, 3)))

    gather = block_index(edge_of)  # the consensus -> (m, 9, 9) layout
    Ehat = block_matrix(scales[..., None, None] * normed[edge_of],
                        block_index(np.arange(3 * m).reshape(m, 3)))
    # each pair block starts at the mean scale of its users, taken in
    # triplet order one pair at a time, so the sum runs as np.mean runs it
    by_edge = np.argsort(edge_of.ravel(), kind="stable")
    counts = np.bincount(edge_of.ravel(), minlength=len(edges))
    mean = [np.mean(u) for u in np.split(scales.ravel()[by_edge], np.cumsum(counts)[:-1])]
    consensus = np.array(mean)[:, None, None] * normed
    U = np.zeros((m, 9, 9))
    C = block_matrix(consensus, gather)
    warm = None  # the kernel's warm start, carried from one iteration to the next
    log = []
    converged = False
    total = 81.0 * m
    best_state = None  # (primal, consensus, objective) of the best iterate

    for iteration in range(1, cfg.max_iters + 1):
        W = (2.0 * Ehat + cfg.rho * (C - U)) / (2.0 + cfg.rho)
        Z, deficient, warm = projection(W, warm)
        flags = int(np.count_nonzero(deficient))

        # consensus: each pair block averages its users' blocks of Z + U,
        # accumulated in triplet order (both stacks are exactly symmetric, so
        # the block above the diagonal is the pair's whole block)
        blocks = (Z + U).reshape(m, 3, 3, 3, 3).swapaxes(2, 3)[:, _ROWS, _COLS]
        sums = np.zeros_like(consensus)
        np.add.at(sums, edge_of.ravel(), blocks.reshape(3 * m, 3, 3))
        consensus = sums / counts[:, None, None]

        C_old, C = C, block_matrix(consensus, gather)
        D = Z - C
        U = U + D
        primal = np.sqrt(_sq_total(D) / total)
        dual = np.sqrt(_sq_total(C - C_old, cfg.rho ** 2) / total)
        objective = _sq_total(Z - Ehat)

        log.append({
            "iteration": iteration,
            "objective": objective,
            "primal_residual": primal,
            "dual_residual": dual,
        })
        if best_state is None or primal < best_state[0]:
            best_state = (primal, consensus, objective)
        if max(primal, dual) < stop_threshold(objective, m, cfg.tol):
            converged = True
            break

    if not converged:
        # the contract on non-convergence is the best iterate, not the last:
        # diverging runs (nonconvex duals can blow up on inconsistent data)
        # hand back their most consensus-feasible state
        _, consensus, objective = best_state

    return AveragingResult(
        n=measured.n,
        log=log,
        converged=converged,
        iterations=iteration,
        objective=objective,
        signature_flags=flags,
        threshold=stop_threshold(objective, m, cfg.tol),
        consensus=consensus,
        pairs=edges,
        rows=edge_of,
    )
