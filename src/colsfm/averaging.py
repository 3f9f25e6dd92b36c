"""Rank-constrained projections and the ADMM consensus driver.

Per-triplet constraint sets (9x9 submatrices):

* collinear essential:   rank 4, spectrum (l1, l2, -l2, -l1) paired
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
stacked eigendecomposition (signature-deficient rows select per row, and
`nview.eigen_signature` flags them), and `project` runs one on a single
matrix; the general-essential kernel is a retraction (`_general_essential`)
started from the sign-searched `nview.block_rotation_frames` with one
stacked 3x3 SVD, and one more per camera in each sweep.  Its output has exactly zero diagonal blocks, like
the consensus, so the two sets can meet on covers whose dual graph has
cycles.  The driver runs it cold at its first iteration only; later ones
warm-start `_WARM_SWEEPS` sweeps from the previous rotations, an
(m, 3, 3, 3) stack in `average`'s locals, with no eigendecomposition, and
hand on the flags of that first spectral start: in this regime
`signature_flags` counts triplets whose start was deficient.
The driver holds its triplet state as (m, 9, 9) stacks and the consensus as
(E, 3, 3) camera-pair blocks, linked by one `nview.block_index` layout built
once per run, so each ADMM iteration gathers the consensus into the triplet
stack with one indexing operation and makes one kernel call for all
triplets.  The result hands on that (E, 3, 3) stack, with its pairs and
rows, as the one copy of the averaged tensors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NotConnected
from .geometry import nearest_rotation, normalized_tensor, skew
from .graphs import _LOCAL_PAIRS, DualGraph, TripletCover, pair_rows
from .nview import (
    _RANK_TOL, NViewBifocal, block_index, block_matrix, block_rotation_frames, eigen_signature,
)
from .recovery import closure_scales, pair_poses, resolve_essential_triplet

_ROWS, _COLS = zip(*_LOCAL_PAIRS)  # block row and column of each local pair


@dataclass
class AdmmConfig:
    # unit penalty stalls around 1e-7 residuals on noisy desk-scale problems;
    # rho 5 reaches 1e-9 well inside the iteration budget
    rho: float = 5.0
    max_iters: int = 500
    tol: float = 1e-9  # on both the primal and the dual residual

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if not all(math.isfinite(v) and v > 0 for v in (self.rho, self.max_iters, self.tol)):
            raise ValueError("all ADMM parameters must be positive and finite")


def _outer(a: np.ndarray) -> np.ndarray:
    """Stacked np.outer(a, a) over the last axis."""
    return a[..., :, None] * a[..., None, :]


def _select_signed(w: np.ndarray, need: int):
    """Pick `need` eigenvalues per sign for the truncation.

    Normal case: the most positive and most negative ones, untouched.  When a
    side is short the remaining indices pad it by descending magnitude with
    the sign forced, so the output signature is exact and the map stays
    idempotent; the deficiency is flagged.
    """
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if scale == 0.0:
        idx = list(range(2 * need))
        return idx[:need], [0.0] * need, idx[need:], [0.0] * need, True
    pos = [k for k in range(len(w)) if w[k] > _RANK_TOL * scale][:need]
    neg = [k for k in reversed(range(len(w))) if w[k] < -_RANK_TOL * scale][:need]
    flag = len(pos) < need or len(neg) < need
    taken = set(pos) | set(neg)
    rest = sorted((k for k in range(len(w)) if k not in taken), key=lambda k: -abs(w[k]))
    while len(pos) < need:
        pos.append(rest.pop(0))
    while len(neg) < need:
        neg.append(rest.pop(0))
    pos = sorted(pos, key=lambda k: -abs(w[k]))
    neg = sorted(neg, key=lambda k: -abs(w[k]))
    pos_vals = [abs(w[k]) for k in pos]
    neg_vals = [-abs(w[k]) for k in neg]
    return pos, pos_vals, neg, neg_vals, flag


def _truncate(S: np.ndarray, need: int):
    """(positive eigenvectors, values, negative eigenvectors, values, flags)
    kept per matrix of a stack, `need` per sign by descending magnitude.
    Rows with `need` clear eigenvalues of each sign keep the extreme ones;
    the signature-deficient rest take their choice from `_select_signed`."""
    w_asc, V_asc = np.linalg.eigh((S + S.swapaxes(-1, -2)) / 2.0)
    w, V = w_asc[:, ::-1], V_asc[..., ::-1]  # descending order
    pos, neg = eigen_signature(w)
    flags = (pos < need) | (neg < need)
    X, pv, Y, nv = V[..., :need], w[:, :need], V_asc[..., :need], w_asc[:, :need]
    if flags.any():
        X, pv, Y, nv = X.copy(), pv.copy(), Y.copy(), nv.copy()
    for i in np.flatnonzero(flags):
        pos, pv[i], neg, nv[i], _ = _select_signed(w[i], need)
        X[i], Y[i] = V[i][:, pos], V[i][:, neg]
    return X, pv, Y, nv, flags


def _symmetrized(out: np.ndarray) -> np.ndarray:
    return (out + out.swapaxes(-1, -2)) / 2.0


def _collinear_essential(S: np.ndarray, warm=None):
    """Nearest spectrum with rank 4 and pairing l1 = -l4, l2 = -l3: keep the
    two largest and two most negative eigenvalues, average each pair."""
    X, pv, Y, nv, flags = _truncate(S, 2)
    out = np.zeros_like(S)
    for k in range(2):
        lam = (pv[:, k] - nv[:, k]) / 2.0
        out += lam[:, None, None] * (_outer(X[..., k]) - _outer(Y[..., k]))
    return _symmetrized(out), flags, None


def _signature_kernel(need: int):
    """Kernel keeping the `need` largest and `need` most negative eigenvalues
    unchanged, zeroing the rest."""

    def kernel(S: np.ndarray, warm=None):
        X, pv, Y, nv, flags = _truncate(S, need)
        vecs = np.concatenate([X, Y], axis=-1)
        vals = np.concatenate([pv, nv], axis=-1)
        out = sum(vals[:, k, None, None] * _outer(vecs[..., k]) for k in range(2 * need))
        return _symmetrized(out), flags, None

    return kernel


_collinear_fundamental = _signature_kernel(2)
_general_fundamental = _signature_kernel(3)

# Gauss-Seidel sweeps of the general-essential retraction after its spectral
# start, and after a warm start from the previous ADMM iteration's rotations
_SWEEPS = 3
_WARM_SWEEPS = 2


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
    centres c_u), which have zero diagonal blocks.

    Cold (warm None): the rotations start from the sqrt(0.5)(X + Y S) blocks
    of the rank-6 paired eigenvectors at the sign case S that
    `nview.block_rotation_frames` picks (8 cases, the first best wins),
    projected to rotations.  Each of `_SWEEPS` sweeps then sets the centres
    to their least-squares values, c_u = (1/k) sum_v vee(skew(Q_u^T S_uv
    Q_v)), and updates each Q_u in turn by Procrustes against its block row.
    The output is assembled from the final rotations and centres, so
    consistent input is a fixed point and the cold map is idempotent.

    Warm (the (rotations, flags) a previous call returned, as at every
    `average` iteration after the first): `_WARM_SWEEPS` sweeps from those
    rotations, handing on the flags of the spectral start they descend from.
    """
    m, d = S.shape[:2]
    k = d // 3
    if warm is None:
        X, _, Y, _, flags = _truncate(S, 3)
        Q = nearest_rotation(np.sqrt(k) * block_rotation_frames(X, Y))
    else:
        Q, flags = warm[0].copy(), warm[1]
    W = np.ascontiguousarray(_symmetrized(S).reshape(m, k, 3, k, 3).swapaxes(2, 3))
    for _ in range(_SWEEPS if warm is None else _WARM_SWEEPS):
        c = _centres(Q, W)
        S = skew(c[:, None] - c[:, :, None])  # S[:, u, v] = [c_v - c_u]x
        for u in range(k):
            # argmin over Q_u of sum_v |W_uv - Q_u [c_u - c_v]x Q_v^T|^2
            Q[:, u] = nearest_rotation(sum(W[:, u, v] @ Q[:, v] @ S[:, u, v] for v in range(k) if v != u))
    c = _centres(Q, W)
    Z = Q[:, :, None] @ skew(c[:, :, None] - c[:, None])
    Z = (Z @ Q.swapaxes(-1, -2)[:, None]).swapaxes(2, 3).reshape(m, d, d)
    return _symmetrized(Z), flags, (Q, flags)


# the batched kernel of each (regime, kind): (stack, warm) -> (stack, flags,
# warm), warm None for a cold call or the one the previous call returned (None
# except from the general-essential retraction, which hands on its rotations)
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
    loop.  Non-convergence is reported on the result, not raised.

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
    warm = None  # the kernel's warm start, carried from one iteration to the next
    log = []
    converged = False
    total = 81.0 * m
    best_state = None  # (primal, consensus, objective) of the best iterate

    # the nonconvex dual dynamics settle into a small limit cycle near the
    # solution; a feasibility polish (plain alternating projections with a
    # geometric-sequence extrapolation) finishes the run off.  The polish
    # drops the measurement anchor, which is only safe once the iterate is
    # already nearly consensus-feasible, hence the residual gate.
    switch = max(50, cfg.max_iters // 5)
    polish_enter = 1e3 * cfg.tol
    polish = False
    extrap_every = 25
    diff_prev = None
    since_extrap = 0
    jump_state = None  # (pre-jump consensus, pre-jump primal) for rollback
    jump_pending_fresh = False
    last_primal = np.inf

    for iteration in range(1, cfg.max_iters + 1):
        if not polish and iteration > switch and last_primal < polish_enter:
            polish = True

        C_prev = block_matrix(consensus, gather)
        W = C_prev if polish else (2.0 * Ehat + cfg.rho * (C_prev - U)) / (2.0 + cfg.rho)
        Z, deficient, warm = projection(W, warm)
        flags = int(np.count_nonzero(deficient))

        # consensus: each pair block averages its users' symmetrized blocks,
        # accumulated in triplet order
        prev = consensus
        ZU = Z if polish else Z + U
        halves = (0.5 * (ZU + ZU.swapaxes(1, 2))).reshape(m, 3, 3, 3, 3).swapaxes(2, 3)[:, _ROWS, _COLS]
        sums = np.zeros_like(consensus)
        np.add.at(sums, edge_of.ravel(), halves.reshape(3 * m, 3, 3))
        consensus = sums / counts[:, None, None]

        if polish and jump_state is None:
            diff = consensus - prev
            dn = np.sqrt(_sq_total(diff))
            since_extrap += 1
            if diff_prev is not None and since_extrap >= extrap_every:
                dp = np.sqrt(_sq_total(diff_prev))
                if 0.0 < dn < 0.9999 * dp:
                    r = dn / dp
                    fac = min(r / (1.0 - r), 1e4)
                    jump_state = (consensus, last_primal)
                    jump_pending_fresh = True
                    consensus = consensus + fac * diff
                    since_extrap = 0
            diff_prev = diff

        C = block_matrix(consensus, gather)
        D = Z - C
        if not polish:
            U = U + D
        primal = np.sqrt(_sq_total(D) / total)
        dual = np.sqrt(_sq_total(C - C_prev, cfg.rho ** 2) / total)
        objective = _sq_total(Z - Ehat)

        # jump validation one iteration later: a good jump lowers the
        # feasibility residual; otherwise rewind to the saved consensus
        if polish and jump_state is not None and not jump_pending_fresh:
            pre_consensus, pre_primal = jump_state
            jump_state = None
            if primal > pre_primal:
                consensus = pre_consensus
                diff_prev = None
                since_extrap = 0
        jump_pending_fresh = False

        log.append({
            "iteration": iteration,
            "phase": "polish" if polish else "admm",
            "objective": objective,
            "primal_residual": primal,
            "dual_residual": dual,
        })
        last_primal = primal
        if best_state is None or primal < best_state[0]:
            best_state = (primal, consensus, objective)
        if primal < cfg.tol and dual < cfg.tol:
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
        consensus=consensus,
        pairs=edges,
        rows=edge_of,
    )
