"""Reference greedy cover: triangles ranked by sorting (-score, triangle)
tuples and keyed by their camera-pair tuples, as colsfm built the cover
before it walked integer triangle and pair ids.  The oracle tests compare
`heuristic_cover` with it triplet for triplet."""

from colsfm.graphs import triplet_pairs


def heuristic_cover(tris, scores) -> list:
    """The chosen triangles, in the order the greedy pass takes them."""
    ranked = [t for _, t in sorted(zip((-float(s) for s in scores), tris))]
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
    return chosen
