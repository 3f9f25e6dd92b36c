"""Rank-constrained spectral projections and the ADMM consensus driver.

Per-triplet constraint sets (9x9 submatrices):

* collinear essential:   rank 4, spectrum (l1, l2, -l2, -l1) paired
* collinear fundamental: rank 4, signature (2, 2)
* general essential:     rank 6, paired spectrum, block-rotation eigenvectors
* general fundamental:   rank 6, signature (3, 3)

All sets except the general-essential one are invariant to per-block
rescaling, so unit-normalized measurements of consistent triplets are exact
fixed points.  The block-rotation constraint is scale sensitive; for that
regime the driver first restores consistent relative block scales from the
pairwise decompositions (closure of the translation directions) and
synchronizes them across triplets sharing a block.

The projections are batched kernels over (m, 3k, 3k) stacks.  The driver
holds its triplet state as (m, 9, 9) stacks and the consensus as (E, 3, 3)
camera-pair blocks, linked by index arrays built once per run, so each ADMM
iteration makes one kernel call for all triplets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingBlock, NotConnected
from .geometry import BifocalTensor, nearest_rotation, normalized_tensor, skew
from .graphs import (
    _LOCAL_PAIRS, TripletCover, build_dual_edges, dual_adjacency, dual_bfs, pair_index,
    triplet_pairs,
)
from .nview import NViewBifocal
from .recovery import closure_scales, pair_pose, resolve_essential_triplet

_ROWS, _COLS = zip(*_LOCAL_PAIRS)  # block row and column of each local pair


@dataclass
class AdmmConfig:
    # unit penalty stalls around 1e-7 residuals on noisy desk-scale problems;
    # rho 5 reaches 1e-9 well inside the iteration budget
    rho: float = 5.0
    max_iters: int = 500
    primal_tol: float = 1e-9
    dual_tol: float = 1e-9
    rank_tol: float = 1e-6

    def __post_init__(self):
        if min(self.rho, self.max_iters, self.primal_tol, self.dual_tol, self.rank_tol) <= 0:
            raise ValueError("all ADMM parameters must be positive")


@dataclass
class ProjectionResult:
    matrix: np.ndarray
    signature_deficient: bool = False


def _outer(a: np.ndarray) -> np.ndarray:
    """Stacked np.outer(a, a) over the last axis."""
    return a[..., :, None] * a[..., None, :]


def _diag(d: np.ndarray) -> np.ndarray:
    """Stacked np.diag of the rows of d."""
    return np.where(np.eye(d.shape[-1], dtype=bool), d[..., None, :], 0.0)


def _eig_desc(S: np.ndarray):
    w, V = np.linalg.eigh((S + S.swapaxes(-1, -2)) / 2.0)
    order = np.argsort(w, axis=-1)[..., ::-1]
    return np.take_along_axis(w, order, -1), np.take_along_axis(V, order[..., None, :], -1)


def _select_signed(w: np.ndarray, need: int, rank_tol: float):
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
    pos = [k for k in range(len(w)) if w[k] > rank_tol * scale][:need]
    neg = [k for k in reversed(range(len(w))) if w[k] < -rank_tol * scale][:need]
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


def _truncate(S: np.ndarray, need: int, rank_tol: float):
    """(positive eigenvectors, values, negative eigenvectors, values, flags)
    kept per matrix of a stack, `need` per sign by descending magnitude.
    Rows with `need` clear eigenvalues of each sign keep the extreme ones;
    the signature-deficient rest take their choice from `_select_signed`."""
    w, V = _eig_desc(S)
    pos = np.tile(np.arange(need), (len(w), 1))
    neg = w.shape[-1] - 1 - pos
    thr = rank_tol * np.max(np.abs(w), axis=-1, keepdims=True)
    flags = ~(np.all(w[:, :need] > thr, axis=-1) & np.all(w[:, -need:] < -thr, axis=-1))
    pv, nv = np.take_along_axis(w, pos, -1), np.take_along_axis(w, neg, -1)
    for i in np.flatnonzero(flags):
        pos[i], pv[i], neg[i], nv[i], _ = _select_signed(w[i], need, rank_tol)
    X = np.take_along_axis(V, pos[:, None, :], -1)
    Y = np.take_along_axis(V, neg[:, None, :], -1)
    return X, pv, Y, nv, flags


def _symmetrized(out: np.ndarray) -> np.ndarray:
    return (out + out.swapaxes(-1, -2)) / 2.0


def _collinear_essential(S: np.ndarray, rank_tol: float = 1e-6):
    X, pv, Y, nv, flags = _truncate(S, 2, rank_tol)
    out = np.zeros_like(S)
    for k in range(2):
        lam = (pv[:, k] - nv[:, k]) / 2.0
        out += lam[:, None, None] * (_outer(X[..., k]) - _outer(Y[..., k]))
    return _symmetrized(out), flags


def _signature_kernel(need: int):
    """Kernel keeping the `need` extreme eigenvalues of each sign, zeroing the rest."""

    def kernel(S: np.ndarray, rank_tol: float = 1e-6):
        X, pv, Y, nv, flags = _truncate(S, need, rank_tol)
        vecs = np.concatenate([X, Y], axis=-1)
        vals = np.concatenate([pv, nv], axis=-1)
        out = sum(vals[:, k, None, None] * _outer(vecs[..., k]) for k in range(2 * need))
        return _symmetrized(out), flags

    return kernel


_collinear_fundamental = _signature_kernel(2)
_general_fundamental = _signature_kernel(3)

# relative column signs of Y tried by the general-essential projection:
# row b has +1 in column k when bit k of b is set
_SIGN_CASES = np.array([[1.0 if b & (1 << k) else -1.0 for k in range(3)] for b in range(8)])


def _general_essential(S: np.ndarray, rank_tol: float = 1e-6):
    m, d = S.shape[:2]
    n = d // 3
    X, pv, Y, nv, flags = _truncate(S, 3, rank_tol)
    lam = (pv - nv) / 2.0
    Vh = np.sqrt(0.5) * (X[:, None] + Y[:, None] * _SIGN_CASES[:, None, :])
    blocks = np.sqrt(n) * Vh.reshape(m, 8, n, 3, 3)
    G = np.einsum("...nij,...nik->...njk", blocks, blocks) - np.eye(3)
    r = np.sum((G * G).reshape(m, 8, -1), axis=-1)
    Ys = Y * _SIGN_CASES[np.argmin(r, axis=1)][:, None, :]
    dets = np.linalg.det((np.sqrt(0.5) * (X + Ys)).reshape(m, n, 3, 3))
    flip = np.where(np.sum(dets, axis=1) < 0, -1.0, 1.0)
    X[..., 0] *= flip[:, None]
    Ys[..., 0] *= flip[:, None]
    Vh = np.sqrt(0.5) * (X + Ys)
    Uh = np.sqrt(0.5) * (X - Ys)
    Vrot = nearest_rotation(np.sqrt(n) * Vh.reshape(m, n, 3, 3)).reshape(m, d, 3) / np.sqrt(n)
    U2 = Uh - Vrot @ (Vrot.swapaxes(-1, -2) @ Uh)
    Q, R = np.linalg.qr(U2)
    U2 = Q @ _diag(np.sign(np.diagonal(R, axis1=-2, axis2=-1)))
    L = _diag(lam)
    out = U2 @ L @ Vrot.swapaxes(-1, -2) + Vrot @ L @ U2.swapaxes(-1, -2)
    return _symmetrized(out), flags


def _project_one(kernel, S, rank_tol) -> ProjectionResult:
    M, flags = kernel(np.asarray(S, dtype=float)[None], rank_tol)
    return ProjectionResult(M[0], bool(flags[0]))


def project_collinear_essential(S: np.ndarray, rank_tol: float = 1e-6) -> ProjectionResult:
    """Nearest spectrum with rank 4 and pairing l1 = -l4, l2 = -l3: keep the
    two largest and two most negative eigenvalues, average each pair."""
    return _project_one(_collinear_essential, S, rank_tol)


def project_collinear_fundamental(S: np.ndarray, rank_tol: float = 1e-6) -> ProjectionResult:
    """Keep the two largest and two most negative eigenvalues unchanged, zero the rest."""
    return _project_one(_collinear_fundamental, S, rank_tol)


def project_general_fundamental(S: np.ndarray, rank_tol: float = 1e-6) -> ProjectionResult:
    """Keep the three largest and three most negative eigenvalues unchanged."""
    return _project_one(_general_fundamental, S, rank_tol)


def project_general_essential(S: np.ndarray, rank_tol: float = 1e-6) -> ProjectionResult:
    """Rank-6 paired-spectrum truncation followed by projecting the
    sqrt(0.5)(X + Y) blocks to rotations and reassembling.

    The relative column signs of Y are searched (8 cases, the first best
    wins) for the best block-orthogonality; the left factor is
    re-orthonormalized against the rotated right factor so the output has
    the exact paired spectrum and the map is idempotent.
    """
    return _project_one(_general_essential, S, rank_tol)


# the batched kernel of each (regime, kind): (stack, rank_tol) -> (stack, flags)
_PROJECTIONS = {
    ("collinear", "essential"): _collinear_essential,
    ("collinear", "fundamental"): _collinear_fundamental,
    ("general", "essential"): _general_essential,
    ("general", "fundamental"): _general_fundamental,
}


@dataclass
class AveragingResult:
    nview: NViewBifocal
    log: list
    converged: bool
    iterations: int
    objective: float
    signature_flags: int
    consensus: dict = field(repr=False, default_factory=dict)

    def triplet_matrix(self, ids) -> np.ndarray:
        """Consensus 9x9 submatrix for a camera triple."""
        blocks = np.array([self.consensus.get(e, np.zeros((3, 3))) for e in triplet_pairs(ids)])
        return _gathered(blocks, _block_gather(np.arange(3)[None]))[0]


def _consistent_scale_factors(measured: NViewBifocal, cover: TripletCover) -> dict:
    """Per-triplet, per-edge signed scale factors restoring consistent
    relative block scales for the general-essential regime.

    The stored sign convention (largest entry positive) is unrelated to the
    consistent orientation, so the closure solve's signs are kept.  Across
    triplets a per-triplet sign gauge is fixed by BFS over the dual graph
    (global negation preserves the constraint set) and the magnitudes are
    synchronized by least squares on log scales.
    """
    triplets = sorted(cover.triplets)
    # each pair block is decomposed once, though neighbouring triplets share it
    pose_of = functools.cache(lambda i, j: pair_pose(measured.block(i, j)))
    local = {}
    for t in triplets:
        edges = triplet_pairs(t)
        blocks = {loc: measured.block(*e) for loc, e in zip(_LOCAL_PAIRS, edges)}
        geom = resolve_essential_triplet([pose_of(*e) for e in edges], cycle_tol=np.inf)
        sol = closure_scales(geom)
        if sol is None:
            local[t] = {e: 1.0 for e in edges}
            continue
        mu, signs, _ = sol
        raw = {}
        for loc, e in zip(_LOCAL_PAIRS, edges):
            # the decomposition reproduces the stored block only up to sign
            recon = skew(geom.t_dirs[loc]) @ geom.rotations[loc]
            tau = 1.0 if float(np.sum(recon * blocks[loc])) >= 0 else -1.0
            raw[e] = mu[loc] * signs[loc] * tau
        mean = np.exp(np.mean([np.log(abs(v)) for v in raw.values()]))
        local[t] = {e: v / mean for e, v in raw.items()}

    # per-triplet sign gauge: BFS over the dual graph
    index = {t: i for i, t in enumerate(triplets)}
    adj = dual_adjacency(triplets)
    sign_gauge = {}
    for root in triplets:
        if root in sign_gauge:
            continue
        for cur, parent in dual_bfs(adj, [root]):
            sign = 1.0
            if parent is not None:
                shared = tuple(sorted(set(parent) & set(cur)))
                r = local[parent][shared] * local[cur][shared]
                sign = sign_gauge[parent] * (1.0 if r >= 0 else -1.0)
            sign_gauge[cur] = sign

    # magnitude synchronization over dual edges
    dual = build_dual_edges(triplets)
    A = np.zeros((len(dual) + 1, len(triplets)))
    A[-1, 0] = 1.0  # gauge: first triplet factor 1
    rhs = np.zeros(len(dual) + 1)
    for k, (a, b) in enumerate(dual):
        shared = tuple(sorted(set(a) & set(b)))
        A[k, index[a]], A[k, index[b]] = 1.0, -1.0
        rhs[k] = np.log(abs(local[b][shared])) - np.log(abs(local[a][shared]))
    g, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return {
        t: {e: float(sign_gauge[t] * local[t][e] * np.exp(g[index[t]])) for e in triplet_pairs(t)}
        for t in triplets
    }


def _block_gather(slots: np.ndarray) -> np.ndarray:
    """(m, 9, 9) indices into a flat array of 3x3 blocks followed by a zero
    (`_gathered`): triplet k's local pair a reads block slots[k, a] above the
    diagonal and its transpose below; the diagonal blocks read the zero."""
    gather = np.full((len(slots), 9, 9), -1)
    for a, (u, v) in enumerate(_LOCAL_PAIRS):
        flat = 9 * slots[:, a, None, None] + np.arange(9).reshape(3, 3)
        gather[:, 3 * u:3 * u + 3, 3 * v:3 * v + 3] = flat
        gather[:, 3 * v:3 * v + 3, 3 * u:3 * u + 3] = flat.swapaxes(1, 2)
    return gather


def _gathered(blocks: np.ndarray, gather: np.ndarray) -> np.ndarray:
    return np.append(blocks.ravel(), 0.0)[gather]


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
    regime's spectral projection is the constraint step, the quadratic
    attachment to the measured submatrix the proximal step); blocks shared
    between triplets live in a single consensus variable with zero diagonal
    blocks, updated in deterministic triplet order; scaled duals close the
    loop.  Output blocks are the consensus renormalized to unit Frobenius
    norm.  Non-convergence is reported on the result, not raised.

    The triplet variables are (m, 9, 9) stacks in sorted triplet order and
    the consensus an (E, 3, 3) stack in the order of `pair_index`.
    """
    cfg = cfg or AdmmConfig()
    if not cover.is_connected():
        raise NotConnected("triplet cover dual graph is disconnected")
    triplets = sorted(cover.triplets)
    for t in triplets:
        for e in triplet_pairs(t):
            if e not in measured.blocks:
                raise MissingBlock(f"cover edge {e} has no measured tensor")
    norm_blocks = {k: normalized_tensor(measured.blocks[k].matrix) for k in measured.blocks}
    projection = _PROJECTIONS[(regime, measured.kind)]

    if regime == "general" and measured.kind == "essential":
        normalized = NViewBifocal.assemble(
            measured.n,
            {k: BifocalTensor(v, "essential", True) for k, v in norm_blocks.items()},
            strict=False,
        )
        scale_factors = _consistent_scale_factors(normalized, cover)
    else:
        scale_factors = {t: {e: 1.0 for e in triplet_pairs(t)} for t in triplets}

    m = len(triplets)
    edge_users = pair_index(triplets)
    edges = list(edge_users)
    slot = {e: k for k, e in enumerate(edges)}
    edge_of = np.array([[slot[e] for e in triplet_pairs(t)] for t in triplets])  # (m, 3)
    gather = _block_gather(edge_of)
    users = np.array([len(edge_users[e]) for e in edges], dtype=float)[:, None, None]

    Ehat = _gathered(
        np.array([[scale_factors[t][e] * norm_blocks[e] for e in triplet_pairs(t)] for t in triplets]),
        _block_gather(np.arange(3 * m).reshape(m, 3)),
    )
    consensus = np.array([
        np.mean([scale_factors[t][e] for t in edge_users[e]]) * norm_blocks[e] for e in edges
    ])
    U = np.zeros((m, 9, 9))
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
    polish_enter = 1e3 * cfg.primal_tol
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

        C = _gathered(consensus, gather)
        W = C if polish else (2.0 * Ehat + cfg.rho * (C - U)) / (2.0 + cfg.rho)
        Z, deficient = projection(W, cfg.rank_tol)
        flags = int(np.count_nonzero(deficient))

        # consensus: each pair block averages its users' symmetrized blocks,
        # accumulated in triplet order
        prev = consensus
        ZU = Z if polish else Z + U
        halves = (0.5 * (ZU + ZU.swapaxes(1, 2))).reshape(m, 3, 3, 3, 3).swapaxes(2, 3)[:, _ROWS, _COLS]
        sums = np.zeros_like(consensus)
        np.add.at(sums, edge_of.ravel(), halves.reshape(3 * m, 3, 3))
        consensus = sums / users

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

        C = _gathered(consensus, gather)
        D = Z - C
        if not polish:
            U = U + D
        primal = np.sqrt(_sq_total(D) / total)
        dual = np.sqrt(_sq_total(C - _gathered(prev, gather), cfg.rho ** 2) / total)
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
        if primal < cfg.primal_tol and dual < cfg.dual_tol:
            converged = True
            break

    if not converged:
        # the contract on non-convergence is the best iterate, not the last:
        # diverging runs (nonconvex duals can blow up on inconsistent data)
        # hand back their most consensus-feasible state
        _, consensus, objective = best_state

    blocks = {e: consensus[k].copy() for k, e in enumerate(edges)}
    out_blocks = {
        e: BifocalTensor(normalized_tensor(blocks[e]), measured.kind, True) for e in sorted(blocks)
    }
    nview = NViewBifocal.assemble(measured.n, out_blocks, kind=measured.kind, strict=False)
    return AveragingResult(
        nview=nview,
        log=log,
        converged=converged,
        iterations=iteration,
        objective=objective,
        signature_flags=flags,
        consensus=blocks,
    )
