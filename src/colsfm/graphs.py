"""Viewing graph, triplet covers and collinearity scoring.

The dual graph has one node per selected 3-clique and an edge wherever two
cliques share two cameras; a connected dual graph is the rigidity-like
condition that makes triplet-wise consistency determine all cameras.

Every dual-graph question is answered from one index, built in O(T) from T
triplets: each sorted camera pair -> the triplets holding it.  Two triplets
are dual neighbours iff they share a bucket and differ as camera sets, so an
adjacency costs the sum of squared bucket sizes instead of O(T^2) pair tests.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import NoTriangles, TooFewCameras, Unconnectable
from .geometry import epipole

_LOCAL_PAIRS = ((0, 1), (0, 2), (1, 2))  # the three pairs of a triplet, in local view ids


@dataclass
class ViewingGraph:
    """Cameras as vertices, measured pairs as weighted edges (i < j)."""

    n: int
    edges: dict  # (i, j) -> weight

    @staticmethod
    def from_edges(n: int, edges) -> "ViewingGraph":
        out = {}
        for e in edges:
            if len(e) == 3:
                i, j, w = e
            else:
                (i, j), w = e, 1.0
            i, j = int(i), int(j)
            if i == j:
                raise ValueError("self loops not allowed")
            a, b = (i, j) if i < j else (j, i)
            out[(a, b)] = float(w)
        return ViewingGraph(n, out)

    @staticmethod
    def complete(n: int) -> "ViewingGraph":
        return ViewingGraph(n, {(i, j): 1.0 for i in range(n) for j in range(i + 1, n)})

    def has_edge(self, i: int, j: int) -> bool:
        a, b = (i, j) if i < j else (j, i)
        return (a, b) in self.edges

    def triangles(self) -> list:
        out = []
        for a, b, c in combinations(range(self.n), 3):
            if self.has_edge(a, b) and self.has_edge(a, c) and self.has_edge(b, c):
                out.append((a, b, c))
        return out


def triplet_pairs(t) -> tuple:
    """The three sorted camera pairs of a triplet."""
    a, b, c = sorted(t)
    return (a, b), (a, c), (b, c)


def pair_index(triplets) -> dict:
    """Sorted camera pair -> the triplets holding it, in input order."""
    index = defaultdict(list)
    for t in triplets:
        for p in triplet_pairs(t):
            index[p].append(t)
    return index


def dual_adjacency(triplets) -> dict:
    """Triplet -> its dual neighbours in sorted order."""
    adj = {t: set() for t in triplets}
    for bucket in pair_index(adj).values():
        for t in bucket:
            adj[t].update(bucket)
    same = defaultdict(set)  # triplets on one camera set share three cameras, not two
    for t in adj:
        same[frozenset(t)].add(t)
    return {t: sorted(nbrs - same[frozenset(t)]) for t, nbrs in adj.items()}


def dual_bfs(adj, sources):
    """Breadth-first walk of a dual adjacency from all sources at once;
    yields (triplet, parent) in visiting order, parent None for a source."""
    seen = set(sources)
    queue = deque((s, None) for s in sources)
    while queue:
        cur, parent = queue.popleft()
        yield cur, parent
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, cur))


def build_dual_edges(triplets) -> list:
    """Pairs (a, b) sharing exactly two cameras, in the order in which
    combinations(sorted(triplets), 2) yields them, repeats included."""
    ts = sorted(triplets)
    adj, count = dual_adjacency(ts), Counter(ts)
    return [(t, u) for t in ts for u in adj[t] if u > t for _ in range(count[u])]


def _components(triplets) -> list:
    adj = dual_adjacency(triplets)
    seen, comps = set(), []
    for t in sorted(adj):
        if t not in seen:
            comps.append([u for u, _ in dual_bfs(adj, [t])])
            seen.update(comps[-1])
    return comps


@dataclass
class TripletCover:
    """Selected 3-cliques plus their shared-two-camera adjacency."""

    triplets: list = field(default_factory=list)
    dual_edges: list = field(default_factory=list)
    virtual_nodes: dict = field(default_factory=dict)  # original triplet -> camera id

    @staticmethod
    def from_triplets(triplets, virtual_nodes=None) -> "TripletCover":
        ts = sorted(tuple(sorted(t)) for t in set(map(tuple, triplets)))
        return TripletCover(ts, build_dual_edges(ts), dict(virtual_nodes or {}))

    def is_connected(self) -> bool:
        if not self.triplets:
            return False
        return len(_components(self.triplets)) == 1

    def covered_edges(self) -> set:
        return {p for t in self.triplets for p in triplet_pairs(t)}

    def to_json(self) -> str:
        doc = {
            "triplets": [list(t) for t in self.triplets],
            "dual_edges": [[list(a), list(b)] for a, b in self.dual_edges],
            "virtual_nodes": [
                {"triplet": list(t), "camera": int(v)} for t, v in sorted(self.virtual_nodes.items())
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "TripletCover":
        doc = json.loads(text)
        cover = TripletCover(
            [tuple(t) for t in doc["triplets"]],
            [(tuple(a), tuple(b)) for a, b in doc["dual_edges"]],
            {tuple(e["triplet"]): int(e["camera"]) for e in doc.get("virtual_nodes", [])},
        )
        return cover


def sequential_cover(n: int) -> TripletCover:
    """Consecutive camera triplets (i-1, i, i+1); the chain dual graph."""
    if n < 3:
        raise TooFewCameras("a triplet cover needs at least 3 cameras")
    return TripletCover.from_triplets([(i, i + 1, i + 2) for i in range(n - 2)])


def heuristic_cover(g: ViewingGraph) -> TripletCover:
    """Greedy cover: 3-cliques sorted by minimum edge weight (descending),
    added when they cover a new edge or join dual components.  May return a
    disconnected cover; see enrich_connectivity."""
    tris = g.triangles()
    if not tris:
        raise NoTriangles("viewing graph has no 3-clique")

    def min_weight(t):
        a, b, c = t
        return min(g.edges[(a, b)], g.edges[(a, c)], g.edges[(b, c)])

    ranked = sorted(tris, key=lambda t: (-min_weight(t), t))
    # one pass: a pair -> chosen-triplets index answers "covers a new edge"
    # (an empty bucket) and, through a union-find over the chosen triplets'
    # dual components, "joins" (the neighbours of t have two or more roots)
    chosen, by_pair, parent = [], defaultdict(list), {}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for t in ranked:
        pairs = triplet_pairs(t)
        roots = {find(u) for p in pairs for u in by_pair[p]}
        if all(by_pair[p] for p in pairs) and len(roots) < 2:
            continue
        parent[t] = t
        for r in roots:
            parent[r] = t
        for p in pairs:
            by_pair[p].append(t)
        chosen.append(t)
    return TripletCover.from_triplets(chosen)


def enrich_connectivity(cover: TripletCover, candidates) -> TripletCover:
    """Connect the cover by splicing in shortest dual paths through the
    candidate triplets (typically every triangle of the viewing graph),
    largest two components first."""
    candidates = {tuple(sorted(t)) for t in candidates}
    triplets = list(cover.triplets)
    while True:
        comps = _components(triplets)
        if len(comps) <= 1:
            break
        comps = sorted(comps, key=len, reverse=True)
        src, dst = set(comps[0]), set(comps[1])
        path = _shortest_dual_path(candidates, src, dst)
        if path is None:
            raise Unconnectable("no dual path joins the two largest components")
        triplets.extend(t for t in path if t not in triplets)
    return TripletCover.from_triplets(triplets, cover.virtual_nodes)


def _shortest_dual_path(candidates: set, src: set, dst: set):
    adj = dual_adjacency(candidates | src | dst)
    prev = {}
    for cur, parent in dual_bfs(adj, sorted(src)):
        prev[cur] = parent
        if cur in dst:
            path = [cur]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return path[::-1]
    return None


def collinearity_score(cams_or_tensors) -> float:
    """0 = perfectly collinear triplet, 1 = maximally spread.

    With camera centers: sigma_2 / sigma_1 of the centered center matrix.
    With the three pairwise tensors: the smallest epipole-coincidence angle
    across the views (sine of the angle between the two epipoles seen in one
    image), which vanishes exactly when the centers are aligned.
    """
    if isinstance(cams_or_tensors, dict):
        tensors = {tuple(sorted(k)): v for k, v in cams_or_tensors.items()}
        best = np.inf
        for v in range(3):
            others = [p for p in _LOCAL_PAIRS if v in p]
            es = []
            for (i, j) in others:
                es.append(epipole(tensors[(i, j)], "left" if v == i else "right"))
            c = abs(float(np.dot(es[0], es[1])))
            angle = np.arccos(np.clip(c, 0.0, 1.0))
            best = min(best, float(np.sin(angle)))
        return best
    centers = np.vstack([
        c.center if hasattr(c, "center") else np.asarray(c, dtype=float) for c in cams_or_tensors
    ])
    C = centers - centers.mean(axis=0)
    s = np.linalg.svd(C, compute_uv=False)
    if s[0] == 0.0:
        return 0.0
    return float(s[1] / s[0])


def insert_virtual_and_prune(
    cover: TripletCover,
    threshold: float,
    score_fn,
    virtual_builder,
) -> TripletCover:
    """Replace collinear triplets (score below threshold) with the three
    sub-triplets against a fresh virtual camera, then greedily prune.

    virtual_builder(triplet) -> virtual camera id (and is expected to make
    the virtual tensors available to the caller).  Pruning removes a triplet
    when the dual graph stays connected, every camera stays covered, at least
    two sub-triplets of each virtual insertion remain, and every real edge
    outside the replaced triplets stays covered.
    """
    triplets = list(cover.triplets)
    virtual_nodes = dict(cover.virtual_nodes)
    replaced = {}
    for t in list(triplets):
        if score_fn(t) < threshold:
            vid = virtual_builder(t)
            virtual_nodes[t] = vid
            triplets.remove(t)
            a, b, c = t
            subs = [tuple(sorted(x)) for x in ((a, b, vid), (a, c, vid), (b, c, vid))]
            triplets.extend(subs)
            replaced[t] = subs

    required_edges = set()
    for t in triplets:
        if not any(t in subs for subs in replaced.values()):
            required_edges.update(triplet_pairs(t))
    required_cameras = set()
    for t in triplets:
        required_cameras.update(t)

    pruned = sorted(set(triplets))
    # the dual graph of any subset is the subgraph its triplets induce here
    adj = dual_adjacency(pruned)

    def connected(remaining) -> bool:
        keep = set(remaining)
        sub = {t: [u for u in adj[t] if u in keep] for t in keep}
        return sum(1 for _ in dual_bfs(sub, [min(keep)])) == len(keep)

    def valid(remaining) -> bool:
        if set().union(*remaining) != required_cameras:
            return False
        if not required_edges <= {p for t in remaining for p in triplet_pairs(t)}:
            return False
        for orig, subs in replaced.items():
            if sum(1 for s in subs if s in remaining) < 2:
                return False
        return bool(remaining) and connected(remaining)

    if valid(pruned):
        for t in sorted(pruned, reverse=True):
            trial = [x for x in pruned if x != t]
            if trial and valid(trial):
                pruned = trial
    return TripletCover.from_triplets(pruned, virtual_nodes)
