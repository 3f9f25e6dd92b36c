"""Reference implementations of the calibrated pair and triplet geometry:
one pair and one triplet at a time, as colsfm computed them before its
stacked passes (the collinear recovery with its full certificate and its
own alpha solve), and the scale synchronisation over per-triplet dicts.  The
oracle tests compare the stacked passes with these bit for bit, so this
code keeps its per-item order of operations."""

from itertools import combinations, product

import numpy as np

from colsfm.errors import (
    AmbiguousCheirality,
    CyclicInconsistency,
    InconsistentInput,
    InsufficientTracks,
    RankDeficient,
)
from colsfm.geometry import _W, nearest_rotation, ordered_sum
from colsfm.averaging import _local_scale_factors
from colsfm.graphs import _LOCAL_PAIRS, dual_adjacency, dual_bfs, triplet_pairs
from colsfm.nview import block_matrix, certify_collinear_essential
from colsfm.recovery import _SPREAD_TOL, _rowwise_dot
from geometry_oracle import dlt, skew, skews, triangulate_tracks3


def essential_candidates(E):
    """Four (R, t) with E ~ [t]_x R, in the order (Ra, t), (Ra, -t), (Rb, t), (Rb, -t)."""
    U, _, Vt = np.linalg.svd(np.asarray(E, dtype=float))
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    Ra = U @ _W @ Vt
    Rb = U @ _W.T @ Vt
    tdir = U[:, 2]
    return [(Ra, tdir), (Ra, -tdir), (Rb, tdir), (Rb, -tdir)]


def cheirality_votes(cands, pts):
    """Votes of each candidate (R, t) on one pair's (N, 2, 3) tracks, all
    four candidates solved in one DLT stack."""
    Pi = np.hstack([np.eye(3), np.zeros((3, 1))])
    Rt = np.array([R.T for R, _ in cands])
    t = np.array([tdir for _, tdir in cands])
    Pj = np.concatenate([Rt, Rt @ t[:, :, None]], axis=2)
    A = np.broadcast_arrays(skews(pts[:, 0]) @ Pi, skews(pts[:, 1]) @ Pj[:, None])
    X, ambiguous = dlt(np.concatenate(A, axis=2))
    finite = ~ambiguous & ~(np.abs(X[..., 3]) < 1e-14)
    Xe = X[..., :3] / np.where(finite, X[..., 3], 1.0)[..., None]
    zj = (Rt[:, None] @ (Xe + t[:, None])[..., None])[..., 2, 0]
    return np.count_nonzero(finite & (Xe[..., 2] > 0) & (zj > 0), axis=1)


def rotation_from_essential(E, points):
    """The candidate with the most tracks in front of both views."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise InsufficientTracks("cheirality vote needs at least one track")
    cands = essential_candidates(E)
    votes = cheirality_votes(cands, pts).tolist()
    best = int(np.argmax(votes))
    if sorted(votes)[-2] == votes[best]:
        raise AmbiguousCheirality(f"depth votes tie: {votes}")
    return cands[best]


def pair_pose(block, points=None):
    """(rotations, t_dir, sign_known) of one essential block."""
    if points is not None and len(points):
        R, t = rotation_from_essential(block, points)
        return (R,), t, True
    four = essential_candidates(block)
    return (four[0][0], four[2][0]), four[0][1], False


def resolve_essential_triplet(poses, cycle_tol=1e-3):
    """(rotations, t_dirs, sign_known, residual) dicts keyed by local pair;
    poses: the pair_pose of (0,1), (0,2), (1,2), consumed in that order."""
    poses = dict(zip(_LOCAL_PAIRS, poses))
    best = None
    for R01 in poses[(0, 1)][0]:
        for R02 in poses[(0, 2)][0]:
            for R12 in poses[(1, 2)][0]:
                r = float(np.linalg.norm(R01 @ R12 @ R02.T - np.eye(3)))
                if best is None or r < best[0]:
                    best = (r, R01, R02, R12)
    residual, *rotations = best
    if residual > cycle_tol:
        raise CyclicInconsistency(f"rotation cycle residual {residual:.3e} above {cycle_tol:.1e}")
    return (dict(zip(_LOCAL_PAIRS, rotations)), {k: p[1] for k, p in poses.items()},
            {k: p[2] for k, p in poses.items()}, residual)


def eigen_rotation_averaging(rel, m):
    """R_i^T of m cameras from the dict of relative rotations of every pair."""
    from itertools import combinations

    M = block_matrix([rel[p] for p in combinations(range(m), 2)])
    np.fill_diagonal(M, 1.0)
    _, V = np.linalg.eigh(M)
    B = V[:, -3:].reshape(m, 3, 3)
    if np.sum(np.linalg.det(B)) < 0:
        B[..., 0] = -B[..., 0]
    return list(nearest_rotation(B))


def closure_scales(geom):
    """({pair: mu}, {pair: sign}, residual, Rh, {pair: d}) or None; the
    sign branches of one triplet in one stacked SVD."""
    rotations, t_dirs, sign_known, _ = geom
    Rh = eigen_rotation_averaging(rotations, 3)
    d = {k: Rh[k[0]].T @ t_dirs[k] for k in _LOCAL_PAIRS}
    branches = np.array(list(product(*(
        (1.0,) if sign_known[k] else (1.0, -1.0) for k in _LOCAL_PAIRS
    ))))
    A = np.stack([d[(0, 1)], d[(1, 2)], -d[(0, 2)]], axis=-1) * branches[:, None, [0, 2, 1]]
    _, sv, Vt = np.linalg.svd(A)
    mu = Vt[:, 2] * np.where(np.sum(Vt[:, 2], axis=1) < 0, -1.0, 1.0)[:, None]
    peak = np.max(np.abs(mu), axis=1, keepdims=True)
    valid = np.all(mu > -1e-6 * peak, axis=1)
    if not np.any(valid):
        return None
    best = int(np.argmin(np.where(valid, sv[:, 2], np.inf)))
    mu = np.maximum(mu[best], 1e-12 * peak[best])
    mu = mu / mu[0]
    s01, s02, s12 = branches[best].tolist()
    return (
        {(0, 1): float(mu[0]), (1, 2): float(mu[1]), (0, 2): float(mu[2])},
        {(0, 1): s01, (0, 2): s02, (1, 2): s12},
        float(sv[best, 2]),
        Rh,
        d,
    )


def scale_factors(blocks):
    """The local scale factors of one triplet of measured blocks in local
    pair order, as the scale synchronisation computed them per triplet."""
    geom = resolve_essential_triplet([pair_pose(b) for b in blocks], cycle_tol=np.inf)
    sol = closure_scales(geom)
    if sol is None:
        return [1.0, 1.0, 1.0]
    mu, signs = sol[:2]
    raw = []
    for loc, block in zip(_LOCAL_PAIRS, blocks):
        recon = skew(geom[1][loc]) @ geom[0][loc]
        tau = 1.0 if float(np.sum(recon * block)) >= 0 else -1.0
        raw.append(mu[loc] * signs[loc] * tau)
    mean = np.exp(np.mean([np.log(abs(v)) for v in raw]))
    return [v / mean for v in raw]


def alpha_least_squares(P0, P1, Rh2, axis_dir, tracks3):
    """alpha from P2(alpha) X x x2 = 0 over one triplet's 3-view tracks, X
    from views 0-1; ambiguous and at-infinity points are skipped."""
    X, ambiguous = triangulate_tracks3(P0, P1, tracks3)
    at_infinity = np.abs(X[:, 3]) < 1e-12 * np.linalg.norm(X, axis=1)
    keep = ~ambiguous & ~at_infinity
    if not np.any(keep):
        raise InsufficientTracks("no usable 3-view track for the alpha solve")
    X, x2 = X[keep], tracks3[keep, 2]
    Xe = X[:, :3] / X[:, 3:]
    u = (Rh2 @ Xe[:, :, None])[:, :, 0]
    b = Rh2 @ axis_dir
    bx = np.cross(b, x2)
    ux = np.cross(u, x2)
    num = ordered_sum(-_rowwise_dot(bx, ux))
    den = ordered_sum(_rowwise_dot(bx, bx))
    scale = ordered_sum(_rowwise_dot(ux, ux))
    if den < 1e-18 * max(scale, 1.0):
        raise InsufficientTracks("3-view tracks are degenerate with the camera line")
    return num / den


def recover_collinear(E9, poses, tracks3, cert_tol=1e-3, cycle_tol=1e-3):
    """The (3, 3, 4) cameras of a collinear calibrated triplet; poses is consumed only
    after the certificate passes."""
    cert = certify_collinear_essential(np.asarray(E9, dtype=float), tol=cert_tol)
    if not (cert.conditions["eigen_count"] and cert.conditions["eigen_pattern"]):
        raise InconsistentInput(
            f"triplet matrix fails the collinear eigenvalue pattern "
            f"(rank {cert.rank_estimate}, residual {cert.pattern_residual:.3e})"
        )
    rotations, t_dirs, sign_known, _ = resolve_essential_triplet(poses, cycle_tol)
    if not sign_known[(0, 1)]:
        raise InsufficientTracks("pair (0,1) needs 2-view tracks to sign the baseline")
    Rh = eigen_rotation_averaging(rotations, 3)
    axis = Rh[0].T @ t_dirs[(0, 1)]
    P0 = np.hstack([Rh[0], np.zeros((3, 1))])
    P1 = np.hstack([Rh[1], (Rh[1] @ axis).reshape(3, 1)])
    tracks3 = np.asarray(tracks3, dtype=float)
    if len(tracks3) == 0:
        raise InsufficientTracks("alpha is undetermined without 3-view tracks")
    alpha = alpha_least_squares(P0, P1, Rh[2], axis, tracks3)
    P2 = np.hstack([Rh[2], (alpha * Rh[2] @ axis).reshape(3, 1)])
    return np.array([P0, P1, P2])


def recover_general(poses, cycle_tol=1e-3):
    """The (3, 3, 4) cameras of a general-position calibrated triplet."""
    geom = resolve_essential_triplet(poses, cycle_tol)
    if not any(geom[2].values()):
        raise InsufficientTracks("at least one pair needs tracks to anchor cheirality")
    Rh = eigen_rotation_averaging(geom[0], 3)
    sv = np.linalg.svd([Rh[k[0]].T @ geom[1][k] for k in _LOCAL_PAIRS], compute_uv=False)
    if sv[1] < _SPREAD_TOL * sv[0]:
        raise RankDeficient("collinear triplet: its translation directions are parallel, "
                            "so the closure does not fix its baseline ratios")
    sol = closure_scales(geom)
    if sol is None:
        raise InconsistentInput("no sign branch closes the translation triangle")
    mu, signs, _, Rh, d = sol
    t = [np.zeros(3)]
    t.append(t[0] - mu[(0, 1)] * signs[(0, 1)] * d[(0, 1)])
    t.append(t[0] - mu[(0, 2)] * signs[(0, 2)] * d[(0, 2)])
    return np.array([np.hstack([Rh[i], (-Rh[i] @ t[i]).reshape(3, 1)]) for i in range(3)])


def consistent_scale_factors(blocks, rows, triplets):
    """{triplet: {pair: factor}} of the sorted, connected cover triplets, as
    the general-essential scale synchronisation computed them with dicts: a
    sign gauge by BFS over the dual adjacency, then magnitudes by least
    squares over the dual pairs in combinations order."""
    local = {t: dict(zip(triplet_pairs(t), row))
             for t, row in zip(triplets, _local_scale_factors(blocks, rows).tolist())}

    index = {t: i for i, t in enumerate(triplets)}
    adj = {t: [triplets[u] for u in nbrs] for t, nbrs in zip(triplets, dual_adjacency(triplets))}
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

    dual = [(a, b) for a, b in combinations(triplets, 2) if len(set(a) & set(b)) == 2]
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
