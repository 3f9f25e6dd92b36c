"""Spans around the public functions of each colsfm layer, patched in from
outside the library.

The hooks replace names where the library looks them up at call time: the
names `colsfm.pipeline` and `colsfm.recovery` import, the entries of the
projection table in `colsfm.averaging`, and the `colsfm.synthetic` and
`colsfm.io` functions the benchmark calls through their modules.  A hook
whose target no longer exists is recorded as missing; every metric that
depends on it is then reported as absent rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

# layers with spans inside run_pipeline; `synthetic` and `io` get spans
# outside it, and `geometry` is only ever called from inside the others
IN_PIPELINE = ("graphs", "virtual", "averaging", "nview", "recovery", "metrics")


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    span: str
    key: tuple | None = None  # entry of a dict-valued attribute


_RECOVER = (
    "recover_calibrated_collinear_triplet",
    "recover_calibrated_general_triplet",
    "recover_projective_collinear_triplet",
    "recover_projective_general_triplet",
)

HOOKS = (
    Hook("colsfm.synthetic", "generate", "synthetic.generate"),
    Hook("colsfm.synthetic", "measure", "synthetic.measure"),
    Hook("colsfm.pipeline", "sequential_cover", "graphs.cover"),
    Hook("colsfm.pipeline", "heuristic_cover", "graphs.cover"),
    Hook("colsfm.pipeline", "enrich_connectivity", "graphs.enrich"),
    Hook("colsfm.pipeline", "insert_virtual_and_prune", "graphs.prune"),
    Hook("colsfm.pipeline", "collinearity_score", "graphs.score"),
    Hook("colsfm.pipeline", "select_virtual_point", "virtual.select"),
    Hook("colsfm.pipeline", "virtual_bifocals", "virtual.bifocals"),
    Hook("colsfm.pipeline", "average", "averaging.average"),
    *(Hook("colsfm.averaging", "_PROJECTIONS", "averaging.project", key=(regime, kind))
      for regime in ("collinear", "general") for kind in ("essential", "fundamental")),
    *(Hook("colsfm.pipeline", name, "recovery.triplet") for name in _RECOVER),
    Hook("colsfm.pipeline", "register_global", "recovery.register"),
    Hook("colsfm.recovery", "certify_collinear_essential", "nview.certify"),
    Hook("colsfm.pipeline", "align_similarity", "metrics.eval"),
    Hook("colsfm.pipeline", "mean_reprojection_error", "metrics.eval"),
    Hook("colsfm.io", "save_cameras", "io.write"),
    Hook("colsfm.io", "save_report", "io.write"),
    Hook("colsfm.io", "write_convergence_log", "io.write"),
)

# the root span the benchmark opens around each run_pipeline call
SOLVE_SPAN = "pipeline.run"


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, scene,
    ok] with `parent` the index of the enclosing span (-1 at the root) and
    `scene` the identifier shared by every span of one scene."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.scene = -1
        self.missing: set = set()  # span names with at least one hook gone
        # counts taken from hooked calls' arguments and results
        self.notes: dict = {}
        # scene -> size of the last cover its graphs stage produced
        self.last_cover: dict = {}

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.scene, True])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, ok: bool = True) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = ok
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self.close(idx, ok)

    def note(self, key: str, value: float) -> None:
        self.notes[key] = self.notes.get(key, 0.0) + value

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent, scene, ok."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, scene, ok in self.spans:
                fh.write(json.dumps([name, start, end, parent, scene, ok]))
                fh.write("\n")


def _record(tracer: Tracer, span: str, args, result) -> None:
    """Counts taken at the hook boundary, from the call's arguments and result."""
    if span == "graphs.prune":
        before = args[0]
        tracer.note("graphs.triplets_before_prune", len(before.triplets))
        tracer.note("graphs.virtual_inserted", len(result.virtual_nodes) - len(before.virtual_nodes))
    if span in ("graphs.cover", "graphs.enrich", "graphs.prune"):
        # the last cover a scene's graphs stage produces is the one averaged
        tracer.last_cover[tracer.scene] = len(result.triplets)
    elif span == "averaging.average":
        tracer.note("averaging.iters", result.iterations)
        tracer.note("averaging.signature_flags", result.signature_flags)


def _wrap(tracer: Tracer, fn, span: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, ok=False)
            raise
        tracer.close(idx)
        _record(tracer, span, args, result)
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer, hooks=HOOKS):
    """Patch every hook that still resolves; restore all of them on exit."""
    undo = []
    try:
        for hook in hooks:
            module = importlib.import_module(hook.module)
            holder = getattr(module, hook.attr, None)
            if hook.key is not None:
                if not isinstance(holder, dict) or hook.key not in holder:
                    tracer.missing.add(hook.span)
                    continue
                original = holder[hook.key]
                holder[hook.key] = _wrap(tracer, original, hook.span)
                undo.append(functools.partial(holder.__setitem__, hook.key, original))
            else:
                if not callable(holder):
                    tracer.missing.add(hook.span)
                    continue
                setattr(module, hook.attr, _wrap(tracer, holder, hook.span))
                undo.append(functools.partial(setattr, module, hook.attr, holder))
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


def span_totals(tracer: Tracer) -> dict:
    """name -> (calls, inclusive seconds, self seconds, failed calls)."""
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _, _ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, _, _, ok) in enumerate(tracer.spans):
        calls, incl, self_s, failed = totals.get(name, (0, 0.0, 0.0, 0))
        dur = end - start
        totals[name] = (calls + 1, incl + dur, self_s + dur - child_time[i], failed + (not ok))
    return totals


# per-layer metric -> (unit, better, spans whose hooks it needs)
PER_LAYER = {
    "synthetic.generate_s": ("s", "lower", ("synthetic.generate",)),
    "synthetic.measure_s": ("s", "lower", ("synthetic.measure",)),
    "graphs.cover_s": ("s", "lower", ("graphs.cover",)),
    "graphs.enrich_s": ("s", "lower", ("graphs.enrich",)),
    "graphs.prune_self_s": ("s", "lower", ("graphs.prune",)),
    "graphs.score_s": ("s", "lower", ("graphs.score",)),
    "graphs.score_calls": ("count", "lower", ("graphs.score",)),
    "graphs.triplets_before_prune": ("count", "lower", ("graphs.prune",)),
    "graphs.triplets": ("count", "lower", ("graphs.cover", "graphs.enrich", "graphs.prune")),
    "graphs.virtual_inserted": ("count", "lower", ("graphs.prune",)),
    "virtual.select_s": ("s", "lower", ("virtual.select",)),
    "virtual.bifocals_s": ("s", "lower", ("virtual.bifocals",)),
    "virtual.calls": ("count", "lower", ("virtual.bifocals",)),
    "averaging.average_s": ("s", "lower", ("averaging.average",)),
    "averaging.iters": ("count", "lower", ("averaging.average",)),
    "averaging.s_per_iter": ("s", "lower", ("averaging.average",)),
    "averaging.project_calls": ("count", "lower", ("averaging.project",)),
    "averaging.project_s": ("s", "lower", ("averaging.project",)),
    "averaging.project_us": ("us", "lower", ("averaging.project",)),
    "averaging.other_s": ("s", "lower", ("averaging.average", "averaging.project")),
    "averaging.signature_flags": ("count", "lower", ("averaging.average",)),
    "recovery.triplet_s": ("s", "lower", ("recovery.triplet",)),
    "recovery.triplet_calls": ("count", "lower", ("recovery.triplet",)),
    "recovery.register_s": ("s", "lower", ("recovery.register",)),
    "recovery.ok_frac": ("ratio", "higher", ("recovery.triplet",)),
    "nview.certify_s": ("s", "lower", ("nview.certify",)),
    "nview.certify_calls": ("count", "lower", ("nview.certify",)),
    "metrics.eval_s": ("s", "lower", ("metrics.eval",)),
    "io.write_s": ("s", "lower", ("io.write",)),
    "pipeline.self_s": ("s", "lower", ()),
    "trace.covered_frac": ("ratio", "higher", ()),
    "trace.overhead_s": ("s", "lower", ()),
}


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> tuple[dict, list]:
    """Per-layer metrics over one traced pass of a scene set.

    Times and counts are totals over the pass.  Returns (metrics, absent
    names).
    """
    tot = span_totals(tracer)

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0, 0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0, 0))[1]

    def self_s(*names):
        return sum(tot.get(n, (0, 0.0, 0.0, 0))[2] for n in names)

    solve_s = incl(SOLVE_SPAN)
    layer_self = self_s(*(n for n in tot if n.split(".")[0] in IN_PIPELINE))
    values = {
        "synthetic.generate_s": incl("synthetic.generate"),
        "synthetic.measure_s": incl("synthetic.measure"),
        "graphs.cover_s": incl("graphs.cover"),
        "graphs.enrich_s": incl("graphs.enrich"),
        "graphs.prune_self_s": self_s("graphs.prune"),
        "graphs.score_s": incl("graphs.score"),
        "graphs.score_calls": calls("graphs.score"),
        "graphs.triplets_before_prune": tracer.notes.get("graphs.triplets_before_prune", 0.0),
        "graphs.triplets": sum(tracer.last_cover.values()),
        "graphs.virtual_inserted": tracer.notes.get("graphs.virtual_inserted", 0.0),
        "virtual.select_s": incl("virtual.select"),
        "virtual.bifocals_s": incl("virtual.bifocals"),
        "virtual.calls": calls("virtual.bifocals"),
        "averaging.average_s": incl("averaging.average"),
        "averaging.iters": tracer.notes.get("averaging.iters", 0.0),
        "averaging.project_calls": calls("averaging.project"),
        "averaging.project_s": incl("averaging.project"),
        "averaging.other_s": incl("averaging.average") - incl("averaging.project"),
        "averaging.signature_flags": tracer.notes.get("averaging.signature_flags", 0.0),
        "recovery.triplet_s": incl("recovery.triplet"),
        "recovery.triplet_calls": calls("recovery.triplet"),
        "recovery.register_s": incl("recovery.register"),
        "nview.certify_s": incl("nview.certify"),
        "nview.certify_calls": calls("nview.certify"),
        "metrics.eval_s": incl("metrics.eval"),
        "io.write_s": incl("io.write"),
        "pipeline.self_s": solve_s - layer_self,
        "trace.covered_frac": layer_self / solve_s if solve_s > 0 else None,
        "trace.overhead_s": overhead_s,
    }
    iters = values["averaging.iters"]
    values["averaging.s_per_iter"] = values["averaging.average_s"] / iters if iters else None
    pcalls = values["averaging.project_calls"]
    values["averaging.project_us"] = 1e6 * values["averaging.project_s"] / pcalls if pcalls else None
    tcalls = values["recovery.triplet_calls"]
    failed = tot.get("recovery.triplet", (0, 0.0, 0.0, 0))[3]
    values["recovery.ok_frac"] = (tcalls - failed) / tcalls if tcalls else None

    out, absent = {}, []
    for name, (unit, _, needs) in PER_LAYER.items():
        value = values.get(name)
        if value is None or any(s in tracer.missing for s in needs):
            absent.append(name)
            continue
        out[name] = {"value": float(value), "unit": unit}
    return out, absent
