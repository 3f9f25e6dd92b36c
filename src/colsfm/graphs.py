"""Triangles of the viewing graph, triplet covers and collinearity scoring.

The viewing graph enters only as its list of triangles (`triangles`, built
once per run from sorted adjacency sets), which the greedy cover takes ranked
by one score per triangle.  The dual graph has one node per selected 3-clique
and an edge wherever two cliques share two cameras; a connected dual graph is
the rigidity-like condition that makes triplet-wise consistency determine
all cameras.

Every dual-graph question is answered from one index, built in O(T) from T
triplets: each sorted camera pair -> the triplets holding it.  Two triplets
are dual neighbours iff they share a bucket and differ as camera sets, so an
adjacency costs the sum of squared bucket sizes instead of O(T^2) pair tests.
A `TripletCover` builds its dual graph once, as index arrays (`DualGraph`);
connectivity, `to_json`, scale sync and registration all read that one graph.
The greedy cover is connected exactly when the triangles' dual graph is, so
`enrich_connectivity` only checks it.

Triplet-wise tensor data is stacked over the camera pairs of a cover
(`pair_rows`): one `collinearity_score` call scores every triplet from an
epipole table of those pairs, and `insert_virtual_and_prune` is handed the
virtual camera of each collinear triplet, so it only replaces and prunes.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NoTriangles, TooFewCameras, Unconnectable

_LOCAL_PAIRS = ((0, 1), (0, 2), (1, 2))  # the three pairs of a triplet, in local view ids
# the six epipoles of a triplet, two per view v: (v, local pair, side) of each
# pair holding v in `_LOCAL_PAIRS` order, side 0 (left) in view i, 1 (right) in view j
_VIEW_EPIPOLES = np.array([(v, p, int(v == j)) for v in range(3)
                           for p, (i, j) in enumerate(_LOCAL_PAIRS) if v in (i, j)])


def triangles(n: int, edges) -> list:
    """The 3-cliques (a, b, c), a < b < c, of the viewing graph on n cameras
    with the given (i, j) edges, i != j, in sorted order: (a, b, c) for each
    higher neighbour b of a and each c that is a higher neighbour of both."""
    higher = [set() for _ in range(n)]
    for i, j in edges:
        higher[min(i, j)].add(max(i, j))
    return [(a, b, c) for a in range(n) for b in sorted(higher[a])
            for c in sorted(higher[a] & higher[b])]


def triplet_pairs(t) -> tuple:
    """The three sorted camera pairs of a triplet."""
    a, b, c = sorted(t)
    return (a, b), (a, c), (b, c)


def pair_rows(triplets):
    """The camera pairs of triplets, each once in order of first use, and the
    (T, 3) positions of every triplet's sorted pairs in that list."""
    t = np.sort(np.asarray(triplets, dtype=int).reshape(-1, 3), axis=1)
    ends = t[:, np.array(_LOCAL_PAIRS)].reshape(-1, 2)
    _, first, inverse = np.unique(ends[:, 0] * (t.max(initial=0) + 1) + ends[:, 1],
                                  return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))  # each pair's place in order of first use
    return list(map(tuple, ends[np.sort(first)].tolist())), rank[inverse].reshape(-1, 3)


def dual_adjacency(triplets) -> dict:
    """Triplet -> its dual neighbours in sorted order, for sorted, distinct
    triplets (so no two share all three cameras)."""
    adj = {t: set() for t in triplets}
    index = defaultdict(list)  # sorted camera pair -> the triplets holding it
    for t in adj:
        for p in triplet_pairs(t):
            index[p].append(t)
    for bucket in index.values():
        for t in bucket:
            adj[t].update(bucket)
    return {t: sorted(nbrs - {t}) for t, nbrs in adj.items()}


def dual_bfs(adj, sources, blocked=frozenset()):
    """Breadth-first walk of a dual adjacency from all sources at once,
    never entering a blocked triplet; yields (triplet, parent) in visiting
    order, parent None for a source."""
    seen = set(sources) | blocked
    queue = deque((s, None) for s in sources)
    while queue:
        cur, parent = queue.popleft()
        yield cur, parent
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, cur))


class DualGraph(NamedTuple):
    """The dual graph of sorted, distinct triplets as indices into them."""

    order: np.ndarray  # (V,) breadth-first visiting order from triplet 0, sorted neighbours
    parent: np.ndarray  # (T,) the tree parent of each visited triplet; -1 at 0 and unvisited
    edges: np.ndarray  # (D, 2) neighbours i < j, sorted by i, then j


@dataclass
class TripletCover:
    """Selected 3-cliques, sorted and distinct, plus their dual graph."""

    triplets: list = field(default_factory=list)
    virtual_nodes: dict = field(default_factory=dict)  # original triplet -> camera id

    @staticmethod
    def from_triplets(triplets, virtual_nodes=None) -> "TripletCover":
        return TripletCover(sorted({tuple(sorted(t)) for t in triplets}), dict(virtual_nodes or {}))

    @cached_property
    def dual(self) -> DualGraph:
        """The dual graph, built on first read."""
        index = {t: k for k, t in enumerate(self.triplets)}
        adj = [[index[u] for u in nbrs] for nbrs in dual_adjacency(self.triplets).values()]
        walk = list(dual_bfs(adj, [0] if adj else []))
        parent = np.full(len(adj), -1)
        for cur, up in walk[1:]:
            parent[cur] = up
        edges = [(i, j) for i, nbrs in enumerate(adj) for j in nbrs if j > i]
        return DualGraph(np.array([cur for cur, _ in walk], dtype=int), parent,
                         np.array(edges, dtype=int).reshape(-1, 2))

    @property
    def dual_edges(self) -> list:
        """Triplet pairs (a, b), a < b, sharing two cameras, in `dual.edges` order."""
        return [(self.triplets[i], self.triplets[j]) for i, j in self.dual.edges.tolist()]

    def is_connected(self) -> bool:
        return 0 < len(self.triplets) == len(self.dual.order)

    def to_json(self) -> str:
        doc = {
            "triplets": [list(t) for t in self.triplets],
            "dual_edges": [[list(a), list(b)] for a, b in self.dual_edges],
            "virtual_nodes": [
                {"triplet": list(t), "camera": int(v)} for t, v in sorted(self.virtual_nodes.items())
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def sequential_cover(n: int) -> TripletCover:
    """Consecutive camera triplets (i-1, i, i+1); the chain dual graph."""
    if n < 3:
        raise TooFewCameras("a triplet cover needs at least 3 cameras")
    return TripletCover.from_triplets([(i, i + 1, i + 2) for i in range(n - 2)])


def heuristic_cover(tris, scores) -> TripletCover:
    """Greedy cover: the sorted 3-cliques tris (`triangles`) ranked by their
    scores (descending, ties in sorted order), each added when it covers a
    new edge or joins dual components.  May return a disconnected cover,
    exactly when the triangles' dual graph is; see enrich_connectivity."""
    if not tris:
        raise NoTriangles("viewing graph has no 3-clique")
    ranked = [t for _, t in sorted(zip((-float(s) for s in scores), tris))]
    # one pass: a pair -> its first chosen triplet answers "covers a new edge"
    # (none) and, through a union-find over the chosen triplets' dual
    # components, "joins" (t's neighbours have two or more roots); one per pair
    # is enough, as each chosen triplet joins the roots of all its pairs
    chosen, by_pair, parent = [], {}, {}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for t in ranked:
        pairs = triplet_pairs(t)
        held = [by_pair[p] for p in pairs if p in by_pair]
        roots = {find(u) for u in held}
        if len(held) == 3 and len(roots) < 2:
            continue
        parent[t] = t
        for r in roots:
            parent[r] = t
        for p in pairs:
            by_pair.setdefault(p, t)
        chosen.append(t)
    return TripletCover.from_triplets(chosen)


def enrich_connectivity(cover: TripletCover) -> TripletCover:
    """The heuristic cover, checked for a connected dual graph.  The greedy
    cover leaves every triangle edge covered and takes every triangle that
    joins two dual components, so no triangle can connect it further: it is
    connected exactly when the viewing graph's triangles are."""
    if not cover.is_connected():
        raise Unconnectable("no dual path joins the two largest components")
    return cover


def collinearity_score(table, rows) -> np.ndarray:
    """0 = perfectly collinear triplet, 1 = maximally spread.

    The (T,) scores of T triplets from a (P, 2, 3) `geometry.epipoles` table
    of pair tensors and the (T, 3) rows of the triplets' local pairs in it,
    each the smallest epipole-coincidence angle across the views (sine of the
    angle between the two epipoles seen in one image), which vanishes
    exactly when the centers are aligned.
    """
    e = table[np.asarray(rows)[:, _VIEW_EPIPOLES[:, 1]], _VIEW_EPIPOLES[:, 2]]
    # matmul rounds each per-view product as np.dot does; an elementwise
    # sum can differ in the last bit, which scores near 0 amplify
    c = np.abs((e[:, 0::2, None, :] @ e[:, 1::2, :, None])[..., 0, 0])  # (T, view)
    return np.min(np.sin(np.arccos(np.clip(c, 0.0, 1.0))), axis=1)


def insert_virtual_and_prune(cover: TripletCover, virtual_nodes: dict) -> TripletCover:
    """Replace each cover triplet that virtual_nodes maps to a virtual camera
    id by its three sub-triplets against that camera, then greedily prune.

    Pruning removes a triplet when the dual graph stays connected, every
    camera stays covered, at least two sub-triplets of each virtual insertion
    remain, and every real edge outside the replaced triplets stays covered.
    The virtual ids are new, distinct cameras, so each one's count of remaining
    triplets is its insertion's count of remaining sub-triplets.
    """
    replaced = {t: [tuple(sorted((*p, virtual_nodes[t]))) for p in triplet_pairs(t)]
                for t in cover.triplets if t in virtual_nodes}
    kept = [t for t in cover.triplets if t not in replaced]
    required_edges = {p for t in kept for p in triplet_pairs(t)}
    pruned = sorted(set(kept + [s for subs in replaced.values() for s in subs]))
    # the dual graph of any subset is the subgraph its triplets induce here
    adj = dual_adjacency(pruned)
    # the full set covers every camera, required edge and sub-triplet, so
    # apart from connectivity a removal is checked at the dropped triplet
    cameras = Counter(c for t in pruned for c in t)
    # the fewest triplets a removal may leave a camera in
    floor = dict.fromkeys((virtual_nodes[t] for t in replaced), 2)
    edges = Counter(p for t in pruned for p in triplet_pairs(t))
    dropped = set()

    def stays_connected(t) -> bool:
        # the remaining dual graph is connected, so it stays connected
        # without t iff t's remaining neighbours stay joined; a leaf never
        # disconnects it
        left = {u for u in adj[t] if u not in dropped}
        for u, _ in dual_bfs(adj, [min(left)], dropped | {t}):
            left.discard(u)
            if not left:
                return True
        return False

    def removable(t) -> bool:
        return (all(cameras[c] > floor.get(c, 1) for c in t)
                and all(edges[p] > 1 or p not in required_edges for p in triplet_pairs(t)))

    if pruned and sum(1 for _ in dual_bfs(adj, pruned[:1])) == len(pruned):
        for t in reversed(pruned):
            # a last triplet's cameras count 1, so it is never removable
            if removable(t) and stays_connected(t):
                dropped.add(t)
                cameras.subtract(t)
                edges.subtract(triplet_pairs(t))
    virtual_nodes = {**cover.virtual_nodes, **{t: virtual_nodes[t] for t in replaced}}
    return TripletCover.from_triplets([t for t in pruned if t not in dropped], virtual_nodes)
