import hashlib
from collections import defaultdict
from itertools import combinations

import numpy as np
import pytest

from colsfm.errors import NoTriangles, TooFewCameras, Unconnectable
from colsfm.geometry import epipoles
from colsfm.graphs import (
    TripletCover,
    collinearity_score,
    dual_adjacency,
    dual_bfs,
    enrich_connectivity,
    heuristic_cover,
    insert_virtual_and_prune,
    sequential_cover,
    triangles,
    triplet_pairs,
)
from colsfm.synthetic import generate

import graphs_oracle
from conftest import covered_edges, min_weight_cover, scene_cameras, unit_bifocal


def _oracle_dual_edges(triplets):
    """Brute-force dual edges: every pair of sorted triplets sharing two cameras."""
    return [(a, b) for a, b in combinations(sorted(triplets), 2) if len(set(a) & set(b)) == 2]


def _bfs_connected(triplets):
    """Independent connectivity oracle over shared-two-camera adjacency."""
    if not triplets:
        return False
    nodes = list(triplets)
    adj = {t: [] for t in nodes}
    for a in nodes:
        for b in nodes:
            if a < b and len(set(a) & set(b)) == 2:
                adj[a].append(b)
                adj[b].append(a)
    seen = {nodes[0]}
    queue = [nodes[0]]
    while queue:
        cur = queue.pop(0)
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == len(nodes)


class TestSequentialCover:
    def test_n3(self):
        c = sequential_cover(3)
        assert c.triplets == [(0, 1, 2)]
        assert c.dual_edges == []

    def test_n5(self):
        c = sequential_cover(5)
        assert len(c.triplets) == 3
        assert len(c.dual_edges) == 2
        assert c.is_connected()

    def test_too_few(self):
        with pytest.raises(TooFewCameras):
            sequential_cover(2)


class TestTriangles:
    def test_match_combinations_filter(self):
        # sorted 3-cliques from adjacency sets against the brute-force filter
        # of every camera triple, edges given in either orientation
        empty = 0
        for seed in range(50):
            rng = np.random.default_rng([seed, 2])
            n = int(rng.integers(3, 12))
            p = float(rng.uniform(0.05, 1.0))
            edges = [(i, j) if rng.uniform() < 0.5 else (j, i)
                     for i, j in combinations(range(n), 2) if rng.uniform() < p]
            has = {tuple(sorted(e)) for e in edges}
            tris = triangles(n, edges)
            assert tris == [t for t in combinations(range(n), 3)
                            if all(e in has for e in triplet_pairs(t))], seed
            if not tris:
                empty += 1
                with pytest.raises(NoTriangles):
                    heuristic_cover(tris, [])
        assert 0 < empty < 50


class TestHeuristicCover:
    def test_complete_k4_covers_all_edges(self):
        c = min_weight_cover(4)
        assert len(c.triplets) >= 2
        # brute-force edge coverage oracle
        assert covered_edges(c) == set(combinations(range(4), 2))

    def test_triangle_free(self):
        tris = triangles(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(NoTriangles):
            heuristic_cover(tris, [])

    def test_two_triangles_sharing_edge(self):
        tris = triangles(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        c = heuristic_cover(tris, [1.0] * len(tris))
        assert c.triplets == [(0, 1, 2), (1, 2, 3)]
        assert len(c.dual_edges) == 1

    def test_scores_rank_triangles(self):
        # K4's triangles (0,1,2), (0,1,3), (0,2,3), (1,2,3): the greedy pass
        # skips the last-ranked one, whose edges the others already cover
        tris = triangles(4, combinations(range(4), 2))
        assert min_weight_cover(4).triplets == [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
        assert heuristic_cover(tris, [0.5] * 4).triplets == [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
        assert heuristic_cover(tris, [0.1, 0.2, 0.9, 0.9]).triplets == [(0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_random_graphs_invariants(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(4, 10))
            p = rng.uniform(0.5, 1.0)
            edges = [
                (i, j, float(rng.integers(1, 100)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.uniform() < p
            ]
            if not triangles(n, [e[:2] for e in edges]):
                continue
            c = min_weight_cover(n, edges)
            for a, b in c.dual_edges:
                assert len(set(a) & set(b)) == 2
            # every triangle edge covered by some triplet is a graph edge
            assert covered_edges(c) <= {e[:2] for e in edges}


def _all_members_cover(tris, scores):
    """Reference greedy cover: each pair keeps every chosen triplet holding
    it, and a triangle's dual roots are the finds of all of them."""
    ranked = [t for _, t in sorted(zip((-float(s) for s in scores), tris))]
    chosen, by_pair, parent = [], defaultdict(list), {}

    def find(t):
        while parent[t] != t:
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
    return chosen


def test_one_triplet_per_pair_matches_all_members():
    # the chosen triplets holding one pair share a dual component, so one of
    # them stands for all: the covers equal the reference's, ties included
    graphs = [_random_graph(seed) for seed in range(80)]
    graphs += [(n, list(combinations(range(n), 2))) for n in (12, 20)]
    connected = disconnected = 0
    for k, (n, edges) in enumerate(graphs):
        tris = triangles(n, [e[:2] for e in edges])
        if not tris:
            continue
        scores = np.random.default_rng([k, 2]).integers(0, 3, len(tris)) / 2.0  # most tie
        assert heuristic_cover(tris, scores).triplets == sorted(_all_members_cover(tris, scores)), k
        full = TripletCover.from_triplets(tris).is_connected()
        connected, disconnected = connected + full, disconnected + (not full)
    assert connected > 0 and disconnected > 0


def test_greedy_cover_matches_tuple_keyed_oracle():
    # integer triangle and pair ids against the tuple-keyed pass, on random
    # graphs up to n=30 whose scores are random or rounded to 0.1, so ties
    # take the sorted order
    rng = np.random.default_rng(11)
    sizes, tied = [], 0
    for trial in range(40):
        n = int(rng.integers(4, 31))
        p = float(rng.uniform(0.2, 1.0))
        tris = triangles(n, [e for e in combinations(range(n), 2) if rng.uniform() < p])
        if not tris:
            continue
        for scores in (rng.random(len(tris)), np.round(rng.random(len(tris)), 1)):
            want = sorted(graphs_oracle.heuristic_cover(tris, scores))
            assert heuristic_cover(tris, scores).triplets == want, trial
            tied += len(np.unique(scores)) < len(scores)
        sizes.append(n)
    assert max(sizes) >= 25 and tied >= 20


class TestEnrichConnectivity:
    def test_already_connected_unchanged(self):
        c = sequential_cover(5)
        assert enrich_connectivity(c) is c

    def test_unconnectable(self):
        cover = TripletCover.from_triplets([(0, 1, 2), (3, 4, 5)])
        with pytest.raises(Unconnectable, match="no dual path joins the two largest components"):
            enrich_connectivity(cover)

    def test_heuristic_cover_connected_iff_triangles_are(self):
        # the greedy cover leaves every triangle edge covered and takes every
        # triangle that joins two dual components, so no triangle could
        # connect it further
        connected = disconnected = 0
        for seed in range(300):
            n, edges = _random_graph(seed)
            tris = triangles(n, [e[:2] for e in edges])
            if not tris:
                continue
            cover = (heuristic_cover(tris, np.random.default_rng([seed, 1]).random(len(tris)))
                     if seed % 2 else min_weight_cover(n, edges))
            full = TripletCover.from_triplets(tris).is_connected()
            assert cover.is_connected() == full, seed
            connected, disconnected = connected + full, disconnected + (not full)
        assert connected > 0 and disconnected > 0


class TestCollinearityScore:
    def test_tensor_route_collinear_vs_general(self):
        col = generate("collinear", 3, 6, seed=70)
        gen = generate("general", 3, 6, seed=71)

        def score(scene):
            tensors = [unit_bifocal(*scene_cameras(scene), i, j) for (i, j) in ((0, 1), (0, 2), (1, 2))]
            return collinearity_score(epipoles(tensors), [[0, 1, 2]])[0]

        assert score(col) < 1e-6
        assert score(gen) > 0.05


class TestInsertVirtualAndPrune:
    def test_no_collinear_unchanged(self):
        cover = sequential_cover(5)
        out = insert_virtual_and_prune(cover, {})
        assert out.triplets == cover.triplets
        assert out.virtual_nodes == {}

    def test_single_collinear_triplet_two_subs_retained(self):
        cover = TripletCover.from_triplets([(0, 1, 2)])
        out = insert_virtual_and_prune(cover, {(0, 1, 2): 3})
        assert out.virtual_nodes == {(0, 1, 2): 3}
        subs = [t for t in out.triplets if 3 in t]
        assert len(subs) == 2
        assert _bfs_connected(out.triplets)

    def test_mixed_cover_pruning_keeps_connectivity(self):
        # middle triplet collinear, neighbors general
        cover = sequential_cover(5)
        out = insert_virtual_and_prune(cover, {(1, 2, 3): 5})
        assert (1, 2, 3) not in out.triplets
        assert (1, 2, 3) in out.virtual_nodes
        assert _bfs_connected(out.triplets)
        # real edges of surviving real triplets stay covered
        for e in [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]:
            assert e in covered_edges(out)

    def test_pruning_never_disconnects_random(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(5, 9))
            cover = sequential_cover(n)
            k = int(rng.integers(0, len(cover.triplets)))
            collinear = set(tuple(t) for t in rng.permuted(cover.triplets)[:k].tolist())
            marked = [t for t in cover.triplets if t in collinear]
            out = insert_virtual_and_prune(cover, {t: n + v for v, t in enumerate(marked)})
            assert _bfs_connected(out.triplets)


def _random_triplets(rng):
    """Up to 24 random triplets; ids up to n + 2 stand in for virtual
    cameras, and permutations and repeats exercise unsorted and duplicated
    triplets."""
    n = int(rng.integers(3, 9))
    ts = [tuple(int(x) for x in rng.choice(n + 3, size=3, replace=False))
          for _ in range(int(rng.integers(0, 25)))]
    ts += [ts[i] for i in rng.integers(0, len(ts), size=len(ts) // 4)] if ts else []
    return [tuple(rng.permutation(t).tolist()) if rng.uniform() < 0.3 else t for t in ts]


def _distinct(ts):
    """The sorted camera sets of triplets, each once."""
    return sorted({tuple(sorted(t)) for t in ts})


class TestDualEdges:
    def test_shared_two_only(self):
        ts = [(0, 1, 2), (1, 2, 3), (0, 4, 5)]
        c = TripletCover.from_triplets(ts)
        assert c.dual_edges == [((0, 1, 2), (1, 2, 3))]
        assert c.dual.edges.tolist() == [[0, 2]]  # (0, 4, 5) sorts between them

    @pytest.mark.parametrize(
        "ts",
        [
            [(2, 0, 1), (1, 2, 3), (3, 1, 0)],  # unsorted triplets
            [(0, 1, 2), (0, 1, 2), (1, 2, 3)],  # a repeated triplet: deduplicated
            [(0, 1, 2), (2, 1, 0), (1, 0, 2)],  # one camera set three ways: one triplet
            [(0, 1, 7), (1, 2, 7), (0, 2, 7), (0, 1, 2)],  # virtual camera 7 > n = 3
        ],
    )
    def test_edge_cases_match_oracle(self, ts):
        c = TripletCover.from_triplets(ts)
        assert c.triplets == _distinct(ts)
        assert c.dual_edges == _oracle_dual_edges(_distinct(ts))

    def test_random_sets_match_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(200):
            ts = _random_triplets(rng)
            assert TripletCover.from_triplets(ts).dual_edges == _oracle_dual_edges(_distinct(ts))

    def test_bfs_tree_matches_dual_bfs(self):
        # the tree the cover holds is the walk of the dual adjacency from
        # its first triplet, as indices; covers may be disconnected
        rng = np.random.default_rng(6)
        partial = 0
        for trial in range(200):
            c = TripletCover.from_triplets(_random_triplets(rng))
            adj = {t: [c.triplets[u] for u in nbrs] for t, nbrs in zip(c.triplets, dual_adjacency(c.triplets))}
            walk = list(dual_bfs(adj, c.triplets[:1]))
            assert [c.triplets[k] for k in c.dual.order] == [t for t, _ in walk]
            parent = {t: -1 if p is None else c.triplets.index(p) for t, p in walk}
            assert c.dual.parent.tolist() == [parent.get(t, -1) for t in c.triplets]
            assert c.is_connected() == (0 < len(walk) == len(c.triplets))
            partial += 0 < len(walk) < len(c.triplets)
        assert partial > 0


def _random_graph(seed):
    """A seeded random weighted viewing graph, as n and its (i, j, weight)
    edges; weights in 1..5 tie often."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 17))
    p = float(rng.uniform(0.3, 1.0))
    edges = [(i, j, float(rng.integers(1, 6)))
             for i in range(n) for j in range(i + 1, n) if rng.uniform() < p]
    return n, edges


def _golden_stages(seed):
    """cover.json of heuristic_cover -> enrich_connectivity ->
    insert_virtual_and_prune on a seeded random weighted graph; weights in
    1..5 tie often, so the digests also pin the greedy tie order."""
    n, edges = _random_graph(seed)
    cover = min_weight_cover(n, edges)
    out = [cover.to_json()]
    try:
        cover = enrich_connectivity(cover)
    except Unconnectable:
        return out
    out.append(cover.to_json())
    marked = [t for t in cover.triplets if sum(t) % 3 == 0]
    cover = insert_virtual_and_prune(cover, {t: n + k for k, t in enumerate(marked)})
    out.append(cover.to_json())
    return out


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the covers the original O(T^3) implementation produced
GOLDEN_COMPLETE_18 = "296b5c3a921dc77ab9fb75cd2a5a4a19a10f541c4e568c278e06b17cf1c51f65"
GOLDEN_RANDOM = {
    0: "4fda4293f7765d6fe44e5ebda3a30431dd4831ab0e88a0a90de9151ff184a656",
    1: "fd392a602a001d71d812d0d44377f824b8022883b821de4389aea5aff72550af",
    2: "9a07ad438d17128e70dc431319f7418bfe091a0e69caa34e56e6e3d64b09182e",
    3: "8614cc1a6c985fdc98c2b418c336d47c4baa986e14dd64fbffdf55c9cb0e4414",
    4: "ddc5fe725a8d2296c93a41f97f45661ea1e21de5df1a63a1a61d3e24b7c39c75",
    5: "1f9a7f4d516ebb99eef7fb6aec08a04ab92b545de70383028ef02443208cd39b",
    6: "3572f8e338e14087c99237e7fb20ee2d31f6f35d2569e413f467272c65d4e4db",
    7: "e81ad7a5072df94bd0ac75e744acc1b7d6e379ccb74e98bbb7b2c16c4a3cccbd",
    8: "7e78dbfb8cfe996c2c266b0f24228e26b16a275582f6979462ee35ea384c3f4a",
    9: "ae0267d91ed8ea7fd833113c9ec07933cd1b03570c9f5dbd26854899b0a8b781",  # unconnectable
    10: "8646055387128d2d40e5fb6cc5f5e367189dceb4929504dd84ce2151fd4d86a5",
    11: "857997f2967eabd204bdf5d35080628595095a2d8672069139a5580b250800a7",
    12: "df4ad09bac0a6d3729167c6d98166cca34b27bd5ad8da64cef4a10556095556e",
    13: "d6b04cb6a1455244d6182d0cec880d08f2f797b56d8e3bca97048210995bd2b4",
    15: "bf36a2b2987651d7247f9b66ca32a01675136df7415d90440f2418aeb7758eb3",
    16: "de8f64227108728521fb8b3763d78d1061f98a1f8071a7b7d7d01775f8b6182e",
    17: "0553934a6e2cf5b30e7ee9f5fcd6e17c4ffe70a04748e3c762851f6ca60a4c92",  # unconnectable
    18: "2f5d3fdb807f2f3264d898864047ab64759539769eb95c5a6ad2f65e3dbb7988",
    19: "e1614c207fa785fa7b6fbd8819997f95c5353646df81768317ffbb7948332560",
    20: "05243dab23aa5fcb3e70f45e5a6753fc500de2b573b4c798b0bd392c593922b6",
    21: "0854f68e67984f2f1d9b537a73f06dc576a22699abe9b5336cb9865bfbec549d",
}


class TestGoldenCovers:
    def test_complete_18(self):
        assert _sha(min_weight_cover(18).to_json()) == GOLDEN_COMPLETE_18

    @pytest.mark.parametrize("seed", sorted(GOLDEN_RANDOM))
    def test_random_graph_pipeline(self, seed):
        assert _sha("\n".join(_golden_stages(seed))) == GOLDEN_RANDOM[seed]


def _prune_by_components(cover, marked):
    """insert_virtual_and_prune with the dual connectivity of every trial
    checked by a fresh dual graph of the trial set."""
    triplets = list(cover.triplets)
    virtual_nodes = dict(cover.virtual_nodes)
    replaced = {}
    for t in list(triplets):
        if t in marked:
            vid = marked[t]
            virtual_nodes[t] = vid
            triplets.remove(t)
            a, b, c = t
            replaced[t] = [tuple(sorted(x)) for x in ((a, b, vid), (a, c, vid), (b, c, vid))]
            triplets.extend(replaced[t])
    required_edges = {p for t in triplets if not any(t in subs for subs in replaced.values())
                      for p in triplet_pairs(t)}
    required_cameras = set().union(*triplets)

    def valid(remaining):
        return (set().union(*remaining) == required_cameras
                and required_edges <= {p for t in remaining for p in triplet_pairs(t)}
                and all(sum(s in remaining for s in subs) >= 2 for subs in replaced.values())
                and TripletCover.from_triplets(remaining).is_connected())

    pruned = sorted(set(triplets))
    if valid(pruned):
        for t in sorted(pruned, reverse=True):
            trial = [x for x in pruned if x != t]
            if trial and valid(trial):
                pruned = trial
    return TripletCover.from_triplets(pruned, virtual_nodes)


def test_prune_matches_components_rule():
    """On the seeded random covers, pruning with one dual adjacency keeps
    exactly the cover that a fresh component pass per trial keeps."""
    checked = 0
    for seed in sorted(GOLDEN_RANDOM):
        n, edges = _random_graph(seed)
        try:
            cover = enrich_connectivity(min_weight_cover(n, edges))
        except Unconnectable:
            continue
        for modulus in (2, 3, 5):
            marked = [t for t in cover.triplets if sum(t) % modulus == 0]
            marked = {t: n + k for k, t in enumerate(marked)}
            outs = [prune(cover, marked).to_json()
                    for prune in (insert_virtual_and_prune, _prune_by_components)]
            assert outs[0] == outs[1]
            checked += 1
    assert checked >= 50


def test_pruned_cover_holds_its_own_dual_graph():
    """The pruned cover's dual graph, read from the superset's adjacency
    through the induced subgraph, equals the one a fresh cover of its
    triplets builds; with no marked triplet the superset is the cover."""
    checked = 0
    for seed in sorted(GOLDEN_RANDOM):
        n, edges = _random_graph(seed)
        try:
            cover = enrich_connectivity(min_weight_cover(n, edges))
        except Unconnectable:
            continue
        for modulus in (None, 2, 3, 5):
            marked = [t for t in cover.triplets if modulus and sum(t) % modulus == 0]
            out = insert_virtual_and_prune(cover, {t: n + k for k, t in enumerate(marked)})
            fresh = TripletCover.from_triplets(out.triplets, out.virtual_nodes).dual
            for got, want in zip(out.dual, fresh):
                assert np.array_equal(got, want), (seed, modulus)
            checked += len(out.triplets) < len(cover.triplets) + 2 * len(marked)
    assert checked >= 20


def test_complete_30_cover_enrich_prune():
    """4060 triangles: cover, connectivity check and prune with one marked triplet keep
    the criterion-8 invariants, checked against the brute-force oracles."""
    edges = set(combinations(range(30), 2))
    cover = enrich_connectivity(min_weight_cover(30))
    assert covered_edges(cover) == edges
    marked = cover.triplets[len(cover.triplets) // 2]
    out = insert_virtual_and_prune(cover, {marked: 30})
    assert out.virtual_nodes == {marked: 30}
    assert _bfs_connected(out.triplets)
    assert out.dual_edges == _oracle_dual_edges(out.triplets)
    a, b, c = marked
    replaced = {(a, b), (a, c), (b, c)}
    assert edges - replaced <= covered_edges(out)
