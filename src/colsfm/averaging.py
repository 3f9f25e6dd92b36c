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
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingBlock, NotConnected
from .geometry import BifocalTensor, nearest_rotation, normalized_tensor, skew
from .graphs import (
    TripletCover, build_dual_edges, dual_adjacency, dual_bfs, pair_index, triplet_pairs,
)
from .nview import NViewBifocal
from .recovery import closure_scales, resolve_essential_triplet


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
class TripletProblem:
    triplet_id: int
    camera_ids: tuple
    measured: np.ndarray  # 9x9 symmetric, zero diagonal blocks
    regime: str
    kind: str


@dataclass
class ProjectionResult:
    matrix: np.ndarray
    signature_deficient: bool = False


def _eig_desc(S: np.ndarray):
    w, V = np.linalg.eigh((S + S.T) / 2.0)
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


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


def project_collinear_essential(S: np.ndarray, rank_tol: float = 1e-6) -> ProjectionResult:
    """Nearest spectrum with rank 4 and pairing l1 = -l4, l2 = -l3: keep the
    two largest and two most negative eigenvalues, average each pair."""
    w, V = _eig_desc(S)
    pos, pv, neg, nv, flag = _select_signed(w, 2, rank_tol)
    out = np.zeros_like(S)
    for k in range(2):
        l = (pv[k] - nv[k]) / 2.0
        out += l * (np.outer(V[:, pos[k]], V[:, pos[k]]) - np.outer(V[:, neg[k]], V[:, neg[k]]))
    return ProjectionResult((out + out.T) / 2.0, flag)


def project_collinear_fundamental(S: np.ndarray, rank_tol: float = 1e-6) -> ProjectionResult:
    """Keep the two largest and two most negative eigenvalues unchanged, zero the rest."""
    w, V = _eig_desc(S)
    pos, pv, neg, nv, flag = _select_signed(w, 2, rank_tol)
    out = sum(v * np.outer(V[:, k], V[:, k]) for k, v in zip(pos + neg, pv + nv))
    return ProjectionResult((out + out.T) / 2.0, flag)


def project_general_fundamental(S: np.ndarray, rank_tol: float = 1e-6) -> ProjectionResult:
    """Keep the three largest and three most negative eigenvalues unchanged."""
    w, V = _eig_desc(S)
    pos, pv, neg, nv, flag = _select_signed(w, 3, rank_tol)
    out = sum(v * np.outer(V[:, k], V[:, k]) for k, v in zip(pos + neg, pv + nv))
    return ProjectionResult((out + out.T) / 2.0, flag)


def project_general_essential(S: np.ndarray, rank_tol: float = 1e-6) -> ProjectionResult:
    """Rank-6 paired-spectrum truncation followed by projecting the
    sqrt(0.5)(X + Y) blocks to rotations and reassembling.

    The relative column signs of Y are searched (8 cases) for the best
    block-orthogonality; the left factor is re-orthonormalized against the
    rotated right factor so the output has the exact paired spectrum and the
    map is idempotent.
    """
    w, V = _eig_desc(S)
    n = S.shape[0] // 3
    pos, pv, neg, nv, flag = _select_signed(w, 3, rank_tol)
    lam = np.array([(pv[k] - nv[k]) / 2.0 for k in range(3)])
    X = V[:, pos].copy()
    Y = V[:, neg].copy()
    best = None
    for bits in range(8):
        signs = np.array([1.0 if bits & (1 << k) else -1.0 for k in range(3)])
        Vh = np.sqrt(0.5) * (X + Y * signs)
        blocks = np.sqrt(n) * Vh.reshape(n, 3, 3)
        G = np.einsum("nij,nik->njk", blocks, blocks) - np.eye(3)
        r = float(np.sum(G * G))
        if best is None or r < best[0]:
            best = (r, signs)
    Ys = Y * best[1]
    Vh = np.sqrt(0.5) * (X + Ys)
    dets = [np.linalg.det(Vh[3 * i:3 * i + 3]) for i in range(n)]
    if np.sum(dets) < 0:
        X[:, 0] = -X[:, 0]
        Ys[:, 0] = -Ys[:, 0]
        Vh = np.sqrt(0.5) * (X + Ys)
    Uh = np.sqrt(0.5) * (X - Ys)
    Vrot = np.zeros_like(Vh)
    for i in range(n):
        Vrot[3 * i:3 * i + 3] = nearest_rotation(np.sqrt(n) * Vh[3 * i:3 * i + 3]) / np.sqrt(n)
    U2 = Uh - Vrot @ (Vrot.T @ Uh)
    Q, R = np.linalg.qr(U2)
    U2 = Q @ np.diag(np.sign(np.diag(R)))
    L = np.diag(lam)
    out = U2 @ L @ Vrot.T + Vrot @ L @ U2.T
    return ProjectionResult((out + out.T) / 2.0, flag)


_PROJECTIONS = {
    ("collinear", "essential"): project_collinear_essential,
    ("collinear", "fundamental"): project_collinear_fundamental,
    ("general", "essential"): project_general_essential,
    ("general", "fundamental"): project_general_fundamental,
}


@dataclass
class AveragingResult:
    nview: NViewBifocal
    log: list
    converged: bool
    iterations: int
    objective: float
    signature_flags: int
    triplet_ids: list
    consensus: dict = field(repr=False, default_factory=dict)

    def triplet_matrix(self, ids) -> np.ndarray:
        """Consensus 9x9 submatrix for a camera triple."""
        key = tuple(sorted(ids))
        M = np.zeros((9, 9))
        trip = list(key)
        for u in range(3):
            for v in range(u + 1, 3):
                e = (trip[u], trip[v])
                B = self.consensus.get(e, np.zeros((3, 3)))
                M[3 * u:3 * u + 3, 3 * v:3 * v + 3] = B
                M[3 * v:3 * v + 3, 3 * u:3 * u + 3] = B.T
        return M


def build_triplet_problems(measured: NViewBifocal, cover: TripletCover, regime: str) -> list:
    problems = []
    for k, t in enumerate(sorted(cover.triplets)):
        M = measured.submatrix(t)
        problems.append(TripletProblem(k, tuple(sorted(t)), M, regime, measured.kind))
    return problems


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
    local = {}
    for t in triplets:
        edges = triplet_pairs(t)
        blocks = {}
        for loc, e in zip(((0, 1), (0, 2), (1, 2)), edges):
            blocks[loc] = measured.block(*e)
        try:
            geom = resolve_essential_triplet(blocks, tracks=None, cycle_tol=np.inf)
            sol = closure_scales(geom)
        except Exception:
            sol = None
        if sol is None:
            local[t] = {e: 1.0 for e in edges}
            continue
        mu, signs, _ = sol
        raw = {}
        for loc, e in zip(((0, 1), (0, 2), (1, 2)), edges):
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
    rows, rhs = [], []
    for a, b in build_dual_edges(triplets):
        shared = tuple(sorted(set(a) & set(b)))
        row = np.zeros(len(triplets))
        row[index[a]] = 1.0
        row[index[b]] = -1.0
        rows.append(row)
        rhs.append(np.log(abs(local[b][shared])) - np.log(abs(local[a][shared])))
    rows.append(np.eye(len(triplets))[0])  # gauge: first triplet factor 1
    rhs.append(0.0)
    g, *_ = np.linalg.lstsq(np.vstack(rows), np.asarray(rhs), rcond=None)
    factors = {}
    for t in triplets:
        factors[t] = {
            e: float(sign_gauge[t] * local[t][e] * np.exp(g[index[t]]))
            for e in triplet_pairs(t)
        }
    return factors


def average(
    measured: NViewBifocal,
    cover: TripletCover,
    regime: str,
    cfg: AdmmConfig | None = None,
    threads: int | None = None,
) -> AveragingResult:
    """Consensus ADMM over the triplet cover.

    Each triplet keeps a constrained copy Z_k of its 9x9 submatrix (the
    regime's spectral projection is the constraint step, the quadratic
    attachment to the measured submatrix the proximal step); blocks shared
    between triplets live in a single consensus variable with zero diagonal
    blocks, updated in deterministic triplet order; scaled duals close the
    loop.  Output blocks are the consensus renormalized to unit Frobenius
    norm.  Non-convergence is reported on the result, not raised.
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

    def assemble(blocks_by_edge, t):
        M = np.zeros((9, 9))
        for (u, v), e in zip(((0, 1), (0, 2), (1, 2)), triplet_pairs(t)):
            B = blocks_by_edge[e]
            M[3 * u:3 * u + 3, 3 * v:3 * v + 3] = B
            M[3 * v:3 * v + 3, 3 * u:3 * u + 3] = B.T
        return M

    Ehat = {}
    for t in triplets:
        scaled = {e: scale_factors[t][e] * norm_blocks[e] for e in triplet_pairs(t)}
        Ehat[t] = assemble(scaled, t)

    consensus = {}
    for e, users in edge_users.items():
        consensus[e] = np.mean([scale_factors[t][e] for t in users]) * norm_blocks[e]

    Z = {t: Ehat[t].copy() for t in triplets}
    U = {t: np.zeros((9, 9)) for t in triplets}
    log = []
    converged = False
    flags = 0
    total = 81.0 * m
    objective = 0.0
    best_state = None  # (primal, consensus copy, objective) of the best iterate

    # the nonconvex dual dynamics settle into a small limit cycle near the
    # solution; a feasibility polish (plain alternating projections with a
    # geometric-sequence extrapolation) finishes the run off.  The polish
    # drops the measurement anchor, which is only safe once the iterate is
    # already nearly consensus-feasible, hence the residual gate.
    switch = max(50, cfg.max_iters // 5)
    polish_enter = 1e3 * cfg.primal_tol
    polish_latched = False
    extrap_every = 25
    diff_prev = None
    since_extrap = 0
    jump_state = None  # (pre-jump consensus, pre-jump primal) for rollback
    jump_pending_fresh = False
    last_primal = np.inf

    iteration = 0
    for iteration in range(1, cfg.max_iters + 1):
        if not polish_latched and iteration > switch and last_primal < polish_enter:
            polish_latched = True
        polish = polish_latched

        def z_step(t):
            if polish:
                W = assemble(consensus, t)
            else:
                W = (2.0 * Ehat[t] + cfg.rho * (assemble(consensus, t) - U[t])) / (2.0 + cfg.rho)
            return projection(W, cfg.rank_tol)

        if threads and threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(z_step, triplets))
        else:
            results = [z_step(t) for t in triplets]
        flags = 0
        for t, res in zip(triplets, results):
            Z[t] = res.matrix
            if res.signature_deficient:
                flags += 1

        prev = {e: consensus[e].copy() for e in consensus}
        sums = {e: np.zeros((3, 3)) for e in consensus}
        for t in triplets:
            ZU = Z[t] if polish else Z[t] + U[t]
            for (u, v), e in zip(((0, 1), (0, 2), (1, 2)), triplet_pairs(t)):
                upper = ZU[3 * u:3 * u + 3, 3 * v:3 * v + 3]
                lower = ZU[3 * v:3 * v + 3, 3 * u:3 * u + 3]
                sums[e] += 0.5 * (upper + lower.T)
        for e in consensus:
            consensus[e] = sums[e] / len(edge_users[e])

        if polish and jump_state is None:
            diff = {e: consensus[e] - prev[e] for e in consensus}
            dn = np.sqrt(sum(float(np.sum(d * d)) for d in diff.values()))
            since_extrap += 1
            if diff_prev is not None and since_extrap >= extrap_every:
                dp = np.sqrt(sum(float(np.sum(d * d)) for d in diff_prev.values()))
                if 0.0 < dn < 0.9999 * dp:
                    r = dn / dp
                    fac = min(r / (1.0 - r), 1e4)
                    jump_state = ({e: consensus[e].copy() for e in consensus}, last_primal)
                    jump_pending_fresh = True
                    for e in consensus:
                        consensus[e] = consensus[e] + fac * diff[e]
                    since_extrap = 0
            diff_prev = diff

        primal_sq = 0.0
        dual_sq = 0.0
        objective = 0.0
        for t in triplets:
            Ct = assemble(consensus, t)
            Pt = assemble(prev, t)
            diff_t = Z[t] - Ct
            if not polish:
                U[t] = U[t] + diff_t
            primal_sq += float(np.sum(diff_t * diff_t))
            dual_sq += float(np.sum((Ct - Pt) ** 2)) * cfg.rho ** 2
            objective += float(np.sum((Z[t] - Ehat[t]) ** 2))
        primal = np.sqrt(primal_sq / total)
        dual = np.sqrt(dual_sq / total)

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
            best_state = (primal, {e: consensus[e].copy() for e in consensus}, objective)
        if primal < cfg.primal_tol and dual < cfg.dual_tol:
            converged = True
            break

    if not converged and best_state is not None:
        # the contract on non-convergence is the best iterate, not the last:
        # diverging runs (nonconvex duals can blow up on inconsistent data)
        # hand back their most consensus-feasible state
        _, consensus, objective = best_state

    out_blocks = {}
    for e in sorted(consensus):
        out_blocks[e] = BifocalTensor(normalized_tensor(consensus[e]), measured.kind, True)
    nview = NViewBifocal.assemble(measured.n, out_blocks, kind=measured.kind, strict=False)
    return AveragingResult(
        nview=nview,
        log=log,
        converged=converged,
        iterations=iteration,
        objective=objective,
        signature_flags=flags,
        triplet_ids=triplets,
        consensus={e: consensus[e].copy() for e in consensus},
    )
