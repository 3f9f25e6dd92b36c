"""The package's public surface carries no test-only code.

Every name `colsfm/__init__.py` re-exports must be used by the library
itself (a module other than the one defining it), by the benchmark, or by
the acceptance suite.  A name that only unit tests use is library surface
kept alive for its own tests, and should be deleted instead.
"""

import inspect
import re
from pathlib import Path

import colsfm
from colsfm import averaging, errors, geometry, graphs, nview, pipeline, recovery, synthetic, virtual

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "colsfm"

# names exported for a reason other than a caller
ALLOWED = {
    "ConsistencyCertificate": "the return type of the nview certificates",
}


def _exported() -> list:
    """Public names bound in `colsfm` to a class or function of a submodule."""
    return [n for n in dir(colsfm) if not n.startswith("_")
            and getattr(getattr(colsfm, n), "__module__", "").startswith("colsfm.")]


def _sources(defining_module: str) -> list:
    own = PACKAGE / (defining_module.split(".")[-1] + ".py")
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py" and p != own]
    files += sorted((ROOT / "bench").rglob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return [p.read_text(encoding="utf-8") for p in files]


def test_every_export_has_a_caller_outside_unit_tests():
    names = _exported()
    assert "average" in names and "NViewBifocal" in names  # the scan sees the exports
    unused = []
    for name in names:
        if name in ALLOWED:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for text in _sources(getattr(colsfm, name).__module__)):
            unused.append(name)
    assert unused == [], f"exported but used only by unit tests: {unused}"


def test_allow_list_names_real_exports():
    assert set(ALLOWED) <= set(_exported())


def test_test_only_surface_stays_deleted():
    # not re-exported, so the scan above cannot see them; unit tests use
    # their own helpers (tests/conftest.py)
    assert not hasattr(geometry.BifocalTensor, "normalized")
    assert not hasattr(geometry, "geodesic_angle")
    assert not hasattr(synthetic.Scene, "exact_triplet")
    assert not hasattr(synthetic.Scene, "exact_nview")
    assert not hasattr(graphs.TripletCover, "covered_edges")
    # tracks are arrays in TrackSet, not objects
    assert not hasattr(geometry, "Track")
    assert not hasattr(synthetic.TrackSet, "pair_tracks")
    assert not hasattr(synthetic.TrackSet, "triple_tracks")
    # fields that were written and never read
    assert "scale_fixed" not in geometry.BifocalTensor.__dataclass_fields__
    assert "tolerances" not in nview.ConsistencyCertificate.__dataclass_fields__
    assert "primal_tol" not in averaging.AdmmConfig.__dataclass_fields__
    # the cover stage takes (3, 3, 3) stacks in local pair order and no callbacks
    assert not hasattr(geometry, "oriented_pairs")
    assert not hasattr(errors, "MissingRecovery")
    assert not hasattr(virtual, "_v_matrices_from_tensors")
    assert not hasattr(pipeline, "_triplet_tensor_dict")
    assert list(inspect.signature(graphs.insert_virtual_and_prune).parameters) == [
        "cover", "virtual_nodes"]
    # projective recovery is one stacked pass read row by row, with no
    # per-triplet path beside it
    assert not hasattr(geometry, "epipole")
    assert not hasattr(recovery, "_canonical_pair_cameras")
    assert not hasattr(recovery, "_a_system_rows")
    # the cover holds the one dual graph that scale sync and registration
    # walk; scale factors and the consensus are arrays over the cover pairs
    assert not hasattr(recovery, "_bfs_order")
    assert not hasattr(graphs, "build_dual_edges")
    assert "rank_tol" not in averaging.AdmmConfig.__dataclass_fields__
    m, _ = synthetic.measure(synthetic.generate("collinear", 5, 6, seed=0), seed=0)
    res = averaging.average(m, graphs.sequential_cover(5), "collinear")
    assert not isinstance(res.consensus, dict)
    assert res.consensus.shape == (len(res.pairs), 3, 3) == (7, 3, 3)
    # the consensus stack is the one copy of the averaged tensors, and
    # registration aligns stacked cameras with one per-edge helper
    assert "nview" not in averaging.AveragingResult.__dataclass_fields__
    assert res.n == 5
    assert not hasattr(recovery, "_euclidean_pose")
    assert not hasattr(recovery, "_edge_similarity")
    assert not hasattr(recovery, "_edge_homography")
