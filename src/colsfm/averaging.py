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
synchronisation is (T, 3) arrays over the cover's `TripletCover.dual`, its
log magnitudes one solve of the normal equations of the dual edges.

The projections are batched kernels over (m, 3k, 3k) stacks, and `project`
runs one cold on a single matrix.  Every kernel runs cold at the driver's
first iteration only; later ones are inexact warm steps (Boyd et al. 2011,
§3.4.4) from what the previous step kept, with no eigendecomposition of the
(m, 3k, 3k) stack.  A cold spectral kernel makes one stacked
eigendecomposition (`nview.eigen_signature` flags the signature-deficient
rows, whose eigenpairs one vectorized pass selects); a warm one takes one
step of orthogonal iteration with a Rayleigh-Ritz step from the previous
step's kept eigenvectors (Golub & Van Loan): one stacked QR and the small
Ritz matrices, whose eigenvalues must keep the kernel's signature or the row
is redone cold.  So `signature_flags` counts the rows deficient at the last
step.  The general-essential kernel is a retraction (`_general_essential`):
one block-coordinate sweep, a stacked 3x3 SVD per camera, from rotations and
centres (cold: from the sign-searched `nview.block_rotation_frames` and one
more SVD; warm: the previous rotations and centres).  Its output has exactly
zero diagonal blocks, like the consensus, so the two sets can meet on covers
whose dual graph has cycles.  It hands on the flags of its first, spectral,
start: in this regime `signature_flags` counts triplets whose start was
deficient.

The driver holds its triplet state as (m, 9, 9) stacks and the consensus as
(E, 3, 3) camera-pair blocks, linked by one `nview.block_index` layout built
once per run, so each ADMM iteration gathers the consensus into the triplet
stack with one indexing operation and makes one kernel call for all
triplets.  The result hands on that (E, 3, 3) stack, with its pairs and
rows, as the one copy of the averaged tensors.

Every stack the driver builds is exactly symmetric: `nview.block_matrix`
mirrors each pair block bit for bit, the cold spectral kernels return sums of
l x x^T, and the warm ones and the general-essential retraction symmetrize
their output once, so the consensus update reads each pair's block of Z + U
above the diagonal alone.  Each kernel call symmetrizes its input once, at
entry, for callers such as `project` whose matrices are not exactly
symmetric.

One plain ADMM step, `_plain_step`, is a fixed-point map g of the state
x = (consensus blocks, scaled dual U), flattened into one vector, and the
driver runs it under safeguarded type-II Anderson acceleration (Walker & Ni
2011; the safeguard as Zhang, Peng, Ouyang & Deng 2019 apply it to ADMM):
each step starts from g of the last step minus a combination of the last
`_MEMORY` differences of g, fitted to the residuals g(x) - x through an
incrementally kept Gram matrix.  An extrapolated start is kept only if its
step's residual |g(x) - x| falls below that of the last kept step;
otherwise the run takes that step's plain iterate and clears the history,
which a singular or non-finite Gram solve also leaves to a plain step.  The
kernels never see the difference: each call is one plain step, and the
extrapolation, a loop of elementwise updates, keeps U exactly symmetric.

The run stops on the last iterate once the residuals of its last step,
measured from where that step started, reach the data's own precision
(Boyd et al. 2011, §3.3, `stop_threshold`).  Every collinear
essential triplet has the tied spectrum (l, l, -l, -l), and its kernel keeps
it: cold or warm, it reads the two kept eigenspaces only through their
projectors, so it is continuous where the top two eigenvalues tie, and the
iterates settle there.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

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
_TOL = 1e-9  # floor of the stop on both residuals, reached on exact data only
# the ADMM penalty, which moves the accelerated run's path but not its fixed
# point: on criterion-style scenes (seeds 30-59) 2 took the fewest iterations
# of 1, 2, 3, 4, 5, 8 and 12; against 4, criteria 5, 10 and 11 (seeds 0-29)
# take 8-33% fewer and their errors move by at most 0.31%, and the bench sets
# (seed 0) 90 -> 60 on r4_line and 102 -> 78 on uncal.  At 2 the plain rank-6
# averaging of collinear triplets, which vc replaces by virtual cameras, does
# not converge
_RHO = 2.0
# the Anderson memory: at 4 the same scenes took 3-17% more iterations, at 12 at most 5% fewer
_MEMORY = 8
_MAX_ITERS = 500  # the default iteration budget, the one ADMM setting


def stop_threshold(objective: float, m: int) -> float:
    """The stop on both ADMM residuals (RMS over the 81 m entries of m
    triplets): max(_TOL, _EPS x the RMS misfit sqrt(objective / 81 m))."""
    return max(_TOL, _EPS * math.sqrt(objective / (81.0 * m)))


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


def _collinear_cold(S: np.ndarray):
    """The tied-spectrum projection of a symmetric stack from its full
    eigendecomposition: l (X X^T - Y Y^T) on the eigenspaces X of the two
    largest and Y of the two most negative eigenvalues, at their mean
    magnitude l = (p1 + p2 - n1 - n2) / 4.  Returns (Z, flags, [X Y])."""
    X, pv, Y, nv, flags = _truncate(S, 2)
    lam = (pv[:, 0] + pv[:, 1] - nv[:, 0] - nv[:, 1]) / 4.0
    out = sum(_outer(X[..., k]) - _outer(Y[..., k]) for k in range(2))
    return lam[:, None, None] * out, flags, np.concatenate([X, Y], axis=-1)


def _collinear_ritz(Q: np.ndarray, H: np.ndarray):
    """The tied-spectrum projection within span Q, from the Ritz matrix H:
    l Q sign(H) Q^T, l = tr(H sign(H)) / 4, sign(H) from one stacked 4x4
    eigendecomposition.  Returns (Z, Ritz values)."""
    theta, W = np.linalg.eigh(H)
    R = Q @ W
    lam = np.sum(np.abs(theta), axis=-1) / 4.0
    return (R * (lam[:, None] * np.sign(theta))[:, None]) @ R.swapaxes(-1, -2), theta


def _signature_cold(need: int):
    """The projection keeping the `need` largest and `need` most negative
    eigenvalues of a symmetric stack unchanged, zeroing the rest, from its
    full eigendecomposition.  Returns (Z, flags, kept eigenvectors)."""

    def cold(S: np.ndarray):
        X, pv, Y, nv, flags = _truncate(S, need)
        vecs = np.concatenate([X, Y], axis=-1)
        vals = np.concatenate([pv, nv], axis=-1)
        return sum(vals[:, k, None, None] * _outer(vecs[..., k]) for k in range(2 * need)), flags, vecs

    return cold


def _signature_ritz(Q: np.ndarray, H: np.ndarray):
    """P S P on the projector P = Q Q^T, which is Q H Q^T: no
    eigendecomposition but the Ritz values' check.  Returns (Z, Ritz values)."""
    return Q @ H @ Q.swapaxes(-1, -2), np.linalg.eigvalsh(H)


def _spectral_kernel(need: int, cold, ritz):
    """A kernel (S, warm) -> (Z, flags, V) onto a spectral set that keeps
    `need` eigenvalues of each sign; V (m, 3k, 2 need) spans the kept
    eigenvectors, the next call's warm start.

    Cold (warm None), `cold` runs `_truncate` on the full eigendecomposition.
    Warm, one step of orthogonal iteration with a Rayleigh-Ritz step from V:
    Q an orthonormal basis of S V (one stacked QR), H = Q^T S Q, and `ritz`
    projects within span Q.  A row whose Ritz values lack `need` clear ones
    of each sign (`nview.eigen_signature`) is redone cold, with its padding
    and flag; the others are not deficient.  Where V spans the invariant
    subspace the cold map keeps, the two maps agree.  Each warm output is
    symmetrized once, at exit."""

    def kernel(S: np.ndarray, warm=None):
        S = _symmetrized(S)
        if warm is None:
            return cold(S)
        Q = np.linalg.qr(S @ warm)[0]
        Z, theta = ritz(Q, Q.swapaxes(-1, -2) @ S @ Q)
        pos, neg = eigen_signature(theta)
        flags = np.zeros(len(S), dtype=bool)
        bad = np.flatnonzero((pos < need) | (neg < need))
        if len(bad):
            Z[bad], flags[bad], Q[bad] = cold(S[bad])
        return _symmetrized(Z), flags, Q

    return kernel


# collinear essential: the tied spectrum (l, l, -l, -l) of every collinear
# triplet; it reads the two kept eigenspaces only through their projectors, so
# it is continuous where p1 and p2 (or n1 and n2) tie
_collinear_essential = _spectral_kernel(2, _collinear_cold, _collinear_ritz)
_collinear_fundamental = _spectral_kernel(2, _signature_cold(2), _signature_ritz)
_general_fundamental = _spectral_kernel(3, _signature_cold(3), _signature_ritz)


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
# warm), warm None for a cold call or the one the previous call returned (the
# spectral kernels' kept eigenvectors, the general-essential retraction's
# rotations, centres and flags)
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
    rejected: int  # extrapolated starts the safeguard threw back
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
    geom = resolve_essential_triplet(pair_poses(blocks), rows)
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
    (global negation preserves the constraint set); the log magnitudes g_t,
    g_0 = 0, fit the log scale ratio of each dual edge's shared block in
    least squares, one solve of the T x T normal equations.
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
    _, a, b = np.nonzero(rows[i][:, :, None] == rows[j][:, None, :])
    r, T = np.log(np.abs(local[j, b])) - np.log(np.abs(local[i, a])), len(rows)
    # the dual-graph Laplacian plus e_0 e_0^T (the gauge), nonsingular on a connected cover
    N = np.diag(np.bincount(np.append(dual.edges, 0), minlength=T).astype(float))
    N[i, j] = N[j, i] = -1.0
    g = np.linalg.solve(N, np.bincount(i, r, T) - np.bincount(j, r, T))
    return sign[:, None] * local * np.exp(g)[:, None]


def _sq_total(A: np.ndarray, weight: float = 1.0) -> float:
    """weight x the sum of squares of A's entries, one dot product."""
    return weight * float(np.vdot(A, A))


class _Run(NamedTuple):
    """What one `average` call holds fixed across its steps."""
    Ehat: np.ndarray  # (m, 9, 9) scaled measured submatrices
    gather: np.ndarray  # the consensus -> (m, 9, 9) `block_index` layout
    entries: np.ndarray  # (27 m,) 9 slot + entry of each entry of the triplets' pair blocks
    counts: np.ndarray  # (E,) users of each consensus block
    projection: object  # the regime's `_PROJECTIONS` kernel


def _plain_step(x: np.ndarray, run: _Run, warm):
    """One plain ADMM step g(x) from x = (consensus blocks, scaled dual U),
    flattened: the attachment W, the kernel, the consensus update and the
    dual update.  Returns (g(x), (primal, dual, objective), deficient
    flags, the kernel's warm start), the residuals measured from x: primal
    Z - C_new, dual rho (C_new - C), objective |Z - Ehat|^2."""
    m, E = len(run.Ehat), len(run.counts)
    consensus, U = x[:9 * E].reshape(E, 3, 3), x[9 * E:].reshape(m, 9, 9)
    C = block_matrix(consensus, run.gather)
    W = (2.0 * run.Ehat + _RHO * (C - U)) / (2.0 + _RHO)
    Z, deficient, warm = run.projection(W, warm)

    # consensus: each pair block averages its users' blocks of Z + U,
    # accumulated in triplet order into zeros by one bincount (both stacks
    # are exactly symmetric, so the block above the diagonal is the pair's
    # whole block)
    blocks = (Z + U).reshape(m, 3, 3, 3, 3).swapaxes(2, 3)[:, _ROWS, _COLS]
    sums = np.bincount(run.entries, blocks.ravel(), 9 * E).reshape(E, 3, 3)
    consensus = sums / run.counts[:, None, None]

    C_new = block_matrix(consensus, run.gather)
    D = Z - C_new
    total = 81.0 * m
    residuals = (math.sqrt(_sq_total(D) / total), math.sqrt(_sq_total(C_new - C, _RHO ** 2) / total),
                 _sq_total(Z - run.Ehat))
    return np.concatenate([consensus.ravel(), (U + D).ravel()]), residuals, deficient, warm


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point map g (Walker & Ni
    2011) over the last `_MEMORY` steps: the next point is
    g_k - sum_j gamma_j dG_j, with gamma the least-squares fit of the
    residual f_k = g_k - x_k by the residual differences dF_j.  The normal
    equations read a Gram matrix of the dF_j, one new row per step; the
    extrapolation is a loop of elementwise updates, so it keeps every
    exactly symmetric part of the state symmetric."""

    def __init__(self):
        self.dF = self.dG = None  # (_MEMORY, size) each, from the first difference on
        self.gram = np.empty((_MEMORY, _MEMORY))
        self.clear()

    def clear(self) -> None:
        self.pushed = 0  # differences stored; slot pushed % _MEMORY takes the next
        self.last = None  # (f, g) of the last point

    def next_point(self, f: np.ndarray, g: np.ndarray):
        """The point after the step (f, g): extrapolated, or g itself where
        there is no history yet or the Gram solve is singular or non-finite."""
        if self.last is not None:
            if self.dF is None:  # a run that stops at its first step holds no history
                self.dF, self.dG = np.empty((2, _MEMORY, f.size))
            s = self.pushed % _MEMORY
            np.subtract(f, self.last[0], out=self.dF[s])
            np.subtract(g, self.last[1], out=self.dG[s])
            self.pushed += 1
            k = min(self.pushed, _MEMORY)
            self.gram[s, :k] = self.gram[:k, s] = self.dF[:k] @ self.dF[s]
        self.last = (f, g)
        k = min(self.pushed, _MEMORY)
        if k == 0:
            return g
        try:
            gamma = np.linalg.solve(self.gram[:k, :k], self.dF[:k] @ f)
        except np.linalg.LinAlgError:
            return g
        if not np.all(np.isfinite(gamma)):
            return g
        x, step = g.copy(), np.empty_like(g)
        for j in range(k):
            x -= np.multiply(gamma[j], self.dG[j], out=step)
        return x


def average(
    measured: NViewBifocal,
    cover: TripletCover,
    regime: str,
    max_iters: int = _MAX_ITERS,
) -> AveragingResult:
    """Consensus ADMM over the triplet cover, Anderson-accelerated.

    Each triplet keeps a constrained copy Z_k of its 9x9 submatrix (the
    regime's projection is the constraint step, the quadratic
    attachment to the measured submatrix the proximal step); blocks shared
    between triplets live in a single consensus variable with zero diagonal
    blocks, updated in deterministic triplet order; scaled duals close the
    loop.  That step, `_plain_step`, runs under the safeguarded Anderson
    acceleration the module docstring describes.

    Each log record holds its step's residuals, primal Z - C_new and dual
    rho (C_new - C) from the step's start C, and whether that start was
    extrapolated; the run stops on the last iterate once both are below
    `stop_threshold` of the objective, the squared misfit of Z to the
    measurements.  Non-convergence is reported on the result, not raised,
    and hands back the iterate of least primal residual.

    The triplet variables are (m, 9, 9) stacks in sorted triplet order and
    the consensus an (E, 3, 3) stack in the order of `pair_rows`, which the
    result carries un-normalised with its pairs and rows.
    """
    if isinstance(max_iters, bool) or not isinstance(max_iters, numbers.Integral):
        raise ValueError(f"max_iters must be an integer, got {max_iters!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be positive and finite")
    if not cover.is_connected():
        raise NotConnected("triplet cover dual graph is disconnected")
    triplets = cover.triplets
    edges, edge_of = pair_rows(triplets)  # edge_of (m, 3): each triplet's slots in edges
    # a missing pair raises in order of first use, as a walk over the triplets meets it
    normed = normalized_tensor(measured.tensors[measured.slots(edges)])

    m = len(triplets)
    scales = (_consistent_scale_factors(normed, edge_of, cover.dual)
              if regime == "general" and measured.kind == "essential" else np.ones((m, 3)))

    Ehat = block_matrix(scales[..., None, None] * normed[edge_of],
                        block_index(np.arange(3 * m).reshape(m, 3)))
    # each pair block starts at the mean scale of its users, all in one
    # stacked sum (exactly 1 where every scale is 1)
    counts = np.bincount(edge_of.ravel(), minlength=len(edges))
    mean = np.bincount(edge_of.ravel(), scales.ravel(), len(edges)) / counts
    entries = (9 * edge_of[..., None] + np.arange(9)).ravel()
    run = _Run(Ehat, block_index(edge_of), entries, counts, _PROJECTIONS[(regime, measured.kind)])
    x = np.concatenate([(mean[:, None, None] * normed).ravel(), np.zeros(81 * m)])
    split = x.size - 81 * m  # x[:split] the consensus, x[split:] U
    warm = None  # the kernel's warm start, carried from one step to the next
    anderson = _Anderson()
    extrapolated = False  # whether x came from `anderson`
    kept = None  # (|f|^2, g) of the last kept step
    rejected = 0
    log = []
    converged = False
    best_state = None  # (primal, consensus, objective) of the best iterate

    for iteration in range(1, max_iters + 1):
        g, (primal, dual, objective), deficient, warm = _plain_step(x, run, warm)
        flags = int(np.count_nonzero(deficient))
        log.append({
            "iteration": iteration,
            "objective": objective,
            "primal_residual": primal,
            "dual_residual": dual,
            "extrapolated": extrapolated,
        })
        consensus = g[:split].reshape(-1, 3, 3)
        if best_state is None or primal < best_state[0]:
            best_state = (primal, consensus, objective)
        if max(primal, dual) < stop_threshold(objective, m):
            converged = True
            break

        f = g - x
        size = float(f @ f)
        if extrapolated and size >= kept[0]:
            # the safeguard: back to the last kept step's plain iterate
            rejected += 1
            anderson.clear()
            x, extrapolated = kept[1], False
            continue
        kept = (size, g)
        x = anderson.next_point(f, g)
        extrapolated = x is not g

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
        rejected=rejected,
        threshold=stop_threshold(objective, m),
        consensus=consensus,
        pairs=edges,
        rows=edge_of,
    )
