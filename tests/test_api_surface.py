"""The package's public surface carries no test-only code.

Every name `colsfm/__init__.py` re-exports must be used by the library
itself (a module other than the one defining it), by the benchmark, or by
the acceptance suite.  A name that only unit tests use is library surface
kept alive for its own tests, and should be deleted instead.
"""

import argparse
import ast
import inspect
import re
from pathlib import Path

import numpy as np

import colsfm
from colsfm import averaging, errors, geometry, graphs, nview, pipeline, recovery, synthetic, virtual
from colsfm.cli import build_parser

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
    assert not hasattr(geometry, "geodesic_angle")
    assert not hasattr(synthetic.Scene, "exact_triplet")
    assert not hasattr(synthetic.Scene, "exact_nview")
    assert not hasattr(graphs.TripletCover, "covered_edges")
    # tracks are arrays in TrackSet, not objects
    assert not hasattr(geometry, "Track")
    assert not hasattr(synthetic.TrackSet, "pair_tracks")
    assert not hasattr(synthetic.TrackSet, "triple_tracks")
    # fields that were written and never read
    assert "tolerances" not in nview.ConsistencyCertificate.__dataclass_fields__
    # the cover stage takes (3, 3, 3) stacks in local pair order and no callbacks
    assert not hasattr(geometry, "oriented_pairs")
    assert not hasattr(errors, "MissingRecovery")
    # a virtual camera's pose tie is the depth-vote tie of any pair pose
    assert not hasattr(errors, "RotationAmbiguity")
    assert not hasattr(virtual, "_v_matrices_from_tensors")
    assert not hasattr(pipeline, "_triplet_tensor_dict")
    # one function takes the consensus to the real cameras, with no per-regime
    # stacked value or per-triplet dispatch beside it
    assert not hasattr(pipeline, "_calibrated_geometry")
    assert not hasattr(pipeline, "_projective_systems")
    assert not hasattr(pipeline, "_recover_triplet")
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
    # collinear recovery reads a row of one stacked pass, like the other
    # three, and the certificate it used to run is gone from it; the cover's
    # enrichment is a connectivity check; the two one-value knobs are constants
    assert not hasattr(averaging.AveragingResult, "triplet_matrix")
    assert not hasattr(recovery, "_alpha_least_squares")
    assert list(inspect.signature(recovery.recover_calibrated_collinear_triplet).parameters) == [
        "placement", "geom", "k", "tol"]
    # the stacked placement builds every triplet's cameras, and the truncation
    # selects the deficient rows' eigenpairs in one pass, with no per-row helper
    assert "cameras" in recovery.CollinearPlacement.__dataclass_fields__
    assert not hasattr(averaging, "_select_signed")
    assert not hasattr(graphs, "_shortest_dual_path")
    assert not hasattr(graphs, "_components")
    assert list(inspect.signature(graphs.enrich_connectivity).parameters) == ["cover"]
    assert "epipole_margin" not in inspect.signature(virtual.select_virtual_point).parameters
    # the cover stage reads one triangle list; the weighted graph class and
    # the 4-view assembler only tests called are gone
    assert not hasattr(graphs, "ViewingGraph")
    assert not hasattr(virtual, "four_view_matrix")
    assert list(inspect.signature(graphs.heuristic_cover).parameters) == ["tris", "scores"]
    # pair tensors are one sorted (E, 3, 3) stack of one kind: no per-block
    # tensor object, no dict of blocks, no zero-filled block lookup
    assert not hasattr(geometry, "BifocalTensor")
    assert not hasattr(geometry, "_as_matrix")
    assert "blocks" not in nview.NViewBifocal.__dataclass_fields__
    for name in ("blocks", "block", "edges", "is_dense"):
        assert not hasattr(nview.NViewBifocal, name), name
    assert list(inspect.signature(virtual.virtual_bifocals).parameters) == ["V", "track"]
    assert list(inspect.signature(nview.NViewBifocal.assemble).parameters) == [
        "n", "pairs", "tensors", "kind", "strict"]
    assert m.pairs.shape == (10, 2) and m.tensors.shape == (10, 3, 3)
    # each spectral step has one implementation, in nview: the retraction and
    # the general certificate share one sign search, the eigenspace alignment
    # is a polynomial root, and the block-row ranks come from one stacked SVD
    for name in ("_newton_polish", "_GRID", "_GRID_TERMS", "_block_rotation_residual",
                 "_block_row_rank"):
        assert not hasattr(nview, name), name
    for name in ("_SIGN_GRAM", "_SIGN_CASES", "_spectral_rotations"):
        assert not hasattr(averaging, name), name
    assert "__bool__" not in vars(nview.ConsistencyCertificate)
    # each geometric primitive has one body, in geometry, taking one item or
    # a stack: no single-item twin beside a stacked one, no per-item loop
    for name in ("triangulate_dlt", "fix_sign", "_dlt", "_skews", "_as_projection"):
        assert not hasattr(geometry, name), name
    for name in ("_norms", "_units", "_rotations_about", "_look_rotation"):
        assert not hasattr(synthetic, name), name
    for name in ("_triangulate_tracks3", "_centers"):
        assert not hasattr(recovery, name), name
    assert not hasattr(colsfm, "triangulate_dlt") and colsfm.triangulate is geometry.triangulate
    # recovered cameras are (3, 3, 4) arrays stacked in cover order, and
    # registration returns the camera list: no wrapper, no triplet ids, no
    # merge residuals; one `project` runs any kernel on a single matrix
    for name in ("TripletCameras", "RegistrationResult"):
        assert not hasattr(recovery, name) and not hasattr(colsfm, name), name
    for name in ("ProjectionResult", "_project_one", "project_collinear_essential",
                 "project_collinear_fundamental", "project_general_essential",
                 "project_general_fundamental"):
        assert not hasattr(averaging, name) and not hasattr(colsfm, name), name
    for name, fn in inspect.getmembers(recovery, inspect.isfunction):
        assert "triplet_id" not in inspect.signature(fn).parameters, name
    assert list(inspect.signature(recovery.register_global).parameters) == [
        "stack", "cover", "mode", "n_cameras"]
    # a scene's cameras are three stacks checked once, when it is built: no
    # per-camera object, no centre check with an option beside it, and the
    # reference tensor formula reads the stacks
    assert not hasattr(geometry, "CameraModel") and not hasattr(colsfm, "CameraModel")
    assert list(synthetic.Scene.__dataclass_fields__) == [
        "intrinsics", "rotations", "centers", "points", "layout", "seed"]
    assert not hasattr(synthetic, "check_center_distances")
    assert list(inspect.signature(geometry.bifocal_from_pair).parameters) == ["K", "R", "C", "i", "j"]


def test_admm_has_no_polish_phase():
    # ADMM stops at the data's own precision with no feasibility polish after
    # it: one setting, its iteration budget, and five log keys, with no phase
    # among them; the penalty, the stop floor and the Anderson memory are
    # constants, with no flag
    assert not hasattr(averaging, "AdmmConfig") and not hasattr(colsfm, "AdmmConfig")
    assert list(inspect.signature(averaging.average).parameters) == [
        "measured", "cover", "regime", "max_iters"]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {f for p in sub.choices.values() for a in p._actions for f in a.option_strings}
    assert "--max-iters" in flags and not flags & {"--rho", "--tol", "--memory"}
    scene = synthetic.generate("collinear", 5, 6, seed=0)
    m, _ = synthetic.measure(scene, synthetic.MeasurementNoise(rotation_deg=0.5), seed=0)
    res = averaging.average(m, graphs.sequential_cover(5), "collinear")
    assert len(res.log) > 1
    for rec in res.log:
        assert set(rec) == {"iteration", "objective", "primal_residual", "dual_residual", "extrapolated"}


def test_pipeline_has_one_setting():
    # the vc cover stage inserts virtual cameras on every run: no config
    # object, no flag to skip them, and the ADMM budget is the one setting
    assert not hasattr(pipeline, "PipelineConfig") and not hasattr(colsfm, "PipelineConfig")
    assert list(inspect.signature(pipeline.run_pipeline).parameters) == [
        "measurements", "tracks", "algorithm", "regime", "scene_gt", "max_iters"]
    assert list(inspect.signature(pipeline.cover_and_average).parameters) == [
        "measurements", "tracks", "algorithm", "max_iters"]
    assert list(inspect.signature(pipeline._virtual_cover).parameters) == ["measurements", "tracks"]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        assert "--no-virtual" not in parser._option_string_actions, name


def test_admm_stops_on_the_last_iterate():
    # the collinear essential kernel keeps the tied spectrum, continuous where
    # its top two eigenvalues tie, so the stop reads the last iterate: no
    # window of iterates, and no deque to hold one
    assert not hasattr(averaging, "_WINDOW")
    assert not hasattr(averaging, "deque")


def test_no_per_item_primitive_calls():
    # no loop or comprehension in src/ calls a stack-capable primitive on
    # its loop variable, that is once per item
    primitives = {"normalized_tensor", "skew", "unit", "triangulate", "rotation_about", "image_point",
                  "camera_centers"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(loop, ast.For):
                targets, bodies = [loop.target], loop.body
            elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                targets, bodies = [g.target for g in loop.generators], [loop]
            else:
                continue
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            for call in (c for b in bodies for c in ast.walk(b) if isinstance(c, ast.Call)):
                if getattr(call.func, "id", None) in primitives and any(
                        isinstance(n, ast.Name) and n.id in names for a in call.args for n in ast.walk(a)):
                    found.append(f"{path.name}:{call.lineno}")
    assert found == []


def test_tracks_and_alignments_are_plain_arrays():
    # a stage's tracks are one ragged stack that every stacked pass reads as
    # is, with no per-row list or None placeholder; an alignment is its
    # residuals, with no transform that nothing reads
    from colsfm import metrics

    assert not hasattr(metrics, "SimilarityAlignment")
    assert list(inspect.signature(recovery.pair_poses).parameters) == ["blocks", "tracks"]
    assert list(inspect.signature(geometry.cheirality_votes).parameters)[-1] == "pair"
    _, ts = synthetic.measure(synthetic.generate("collinear", 5, 6, seed=0), seed=0)
    points, rows = ts.tracks([(0, 1, 2), (2, 3, 4)])
    assert points.shape == (12, 3, 3) and rows.tolist() == [0] * 6 + [1] * 6
    assert np.array_equal(points[rows == 1], ts.tracks((2, 3, 4)))
    residuals = metrics.align_similarity(ts.points[:4, 0], ts.points[:4, 0])
    assert isinstance(residuals, np.ndarray) and residuals.shape == (4,)
