"""JSON file formats: scenes, measurements, recovered cameras, reports.

All matrices are row-major float64 lists; files are UTF-8 with sorted keys so
identical runs produce byte-identical output.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import CoincidentCenters, ValidationError
from .geometry import CameraModel, norms
from .metrics import EvalReport
from .nview import NViewBifocal
from .synthetic import Scene, TrackSet, check_center_distances


def _dump(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_scene(scene: Scene, path) -> None:
    doc = {
        "layout": scene.layout,
        "seed": scene.seed,
        "cameras": [
            {
                "K": [float(v) for v in c.intrinsics.ravel()],
                "R": [float(v) for v in c.rotation.ravel()],
                "t": [float(v) for v in c.center],
            }
            for c in scene.cameras
        ],
        "points": [[float(v) for v in p] for p in scene.points],
    }
    _dump(doc, path)


def load_scene(path) -> Scene:
    doc = _load(path)
    try:
        cams = [
            CameraModel(
                np.array(c["K"], dtype=float).reshape(3, 3),
                np.array(c["R"], dtype=float).reshape(3, 3),
                np.array(c["t"], dtype=float),
            )
            for c in doc["cameras"]
        ]
        points = np.array(doc["points"], dtype=float).reshape(-1, 3)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed scene file: {exc}") from exc
    if len(cams) < 2:
        raise ValidationError(f"a scene needs at least 2 cameras, got {len(cams)}")
    C = np.array([c.center for c in cams])
    check_center_distances(C)
    shared = np.triu(np.linalg.norm(C[:, None] - C[None], axis=-1) < 1e-12, 1)
    if np.any(shared):
        i, j = np.argwhere(shared)[0].tolist()
        raise CoincidentCenters(f"cameras {i} and {j} share a center")
    return Scene(cams, points, doc.get("layout", "unknown"), _index(doc.get("seed", 0), "seed"))


def save_measurements(nview: NViewBifocal, tracks: TrackSet | None, path) -> None:
    doc = {
        "n": nview.n,
        "kind": nview.kind,
        "edges": [
            {"i": i, "j": j, "tensor": [float(v) for v in M.ravel()]}
            for (i, j), M in zip(nview.pairs.tolist(), nview.tensors)
        ],
        "tracks": [],
    }
    if tracks is not None:
        for pts, seen in zip(tracks.points, tracks.visible):
            views = np.flatnonzero(seen).tolist()
            doc["tracks"].append(
                {
                    "view_ids": views,
                    "points": [[float(v) for v in pts[i]] for i in views],
                }
            )
    _dump(doc, path)


def _index(value, field: str) -> int:
    """An integer field of an input file: a float, bool or string there is
    rejected, never truncated to an integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{field} must be an integer, got {value!r}")
    return value


def load_measurements(path):
    doc = _load(path)
    try:
        n = _index(doc["n"], "n")
        kind = doc["kind"]
        pairs, tensors = [], []
        for k, e in enumerate(doc["edges"]):
            M = np.array(e["tensor"], dtype=float).reshape(3, 3)
            pairs.append((_index(e["i"], f"edge {k}: i"), _index(e["j"], f"edge {k}: j")))
            tensors.append(M)
        nview = NViewBifocal.assemble(n, pairs, tensors, kind, strict=False)
        doc_tracks = doc.get("tracks", [])
        points = np.zeros((len(doc_tracks), n, 3))
        visible = np.zeros((len(doc_tracks), n), dtype=bool)
        for p, tr in enumerate(doc_tracks):
            views = [_index(v, f"track {p}: view id") for v in tr["view_ids"]]
            x = np.array(tr["points"], dtype=float)
            if len(x) != len(views):
                raise ValidationError(f"track {p}: {len(views)} view ids but {len(x)} points")
            if not all(0 <= v < n for v in views):
                raise ValidationError(f"track {p}: view ids {views} outside [0, {n})")
            if len(set(views)) != len(views):
                raise ValidationError(f"track {p}: view ids {views} repeat a view")
            points[p, views] = x.reshape(len(views), 3)
            visible[p, views] = True
        return nview, TrackSet(points, visible)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed measurements file: {exc}") from exc


def save_cameras(cameras, frame: str, path) -> None:
    doc = {
        "frame": frame,
        "cameras": [
            {
                "camera_id": i,
                "P": None if P is None else [float(v) for v in np.asarray(P).ravel()],
            }
            for i, P in enumerate(cameras)
        ],
    }
    _dump(doc, path)


def load_cameras(path):
    doc = _load(path)
    entries = doc.get("cameras") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ValidationError("malformed cameras file: no 'cameras' list")
    cams = []
    for k, c in enumerate(entries):
        try:
            P = None if c["P"] is None else np.array(c["P"], dtype=float).reshape(3, 4)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"camera {k}: P must be null or 12 numbers ({exc})") from exc
        if P is not None:
            with np.errstate(over="ignore"):  # an overflowing norm is refused below
                norm = norms(P.ravel())
            if not (np.isfinite(norm) and norm > 0.0):
                raise ValidationError(f"camera {k}: P and its norm must be finite and nonzero")
        cams.append(P)
    frame = doc.get("frame", "euclidean")
    if frame not in ("euclidean", "projective"):
        raise ValidationError(f"frame must be 'euclidean' or 'projective', got {frame!r}")
    return cams, frame


def save_report(report: EvalReport, path, include_runtime: bool = False) -> None:
    _dump(report.to_dict(include_runtime=include_runtime), path)


def write_convergence_log(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")
