"""colsfm benchmark: one workload, closed loop, checked against the scene oracle.

    python3 bench/run.py --workload r4_line --seed 0 --seconds 20 --trace 0

Run from the repository root.  The process pins BLAS/OpenMP to one thread,
builds the workload's scene set from --seed, then solves the set scene after
scene with `colsfm.pipeline.run_pipeline`, in whole passes.  The pass count
follows from --seconds alone (at least one pass), so every run of a seed
attempts the same solves.  Between solves it samples a host-speed
reference in a fresh interpreter, and it scales the solve and set-up wall
times to a fixed host speed with it.  It prints every end-to-end metric
with its unit, writes a results file under
`.bench_results/`, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 it first makes one untraced pass, then one traced pass with
spans around each layer (see tracing.py), and the JSON line carries the
per-layer metrics instead.  The metric names of the JSON line are the ones
BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

# the seed used when none is given, and one kept back for re-checking a
# claim on inputs that were not looked at while the change was written
DEFAULT_SEED = 0
RECHECK_SEED = 7919
# the run length BENCHMARK.json gives; workloads set their pass counts for it
RUN_SECONDS = 20.0
# set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3
IMPORT_CODE = "import colsfm.pipeline, colsfm.io"
# host-speed reference: a fixed pure-Python loop that a fresh, isolated
# interpreter times on itself, so nothing the program holds in memory can
# change its time.  It is sampled REF_SAMPLES times, spread evenly between
# the solves of a run, and solve_s and setup_s are the wall times scaled by
# REF_NOMINAL_S over the median sample: seconds on a host where the loop
# takes REF_NOMINAL_S.  The host's speed shifts by 25-40% between sets of
# runs (bench/README.md, "Host noise"); fixed, REF_NOMINAL_S only sets the unit.
REF_CODE = ("import time\nt = time.perf_counter()\ns = 0\n"
            "for i in range(600000):\n    s += i * i % 7\nprint(time.perf_counter() - t)")
REF_SAMPLES = 15
REF_NOMINAL_S = 0.1
# outputs depend on the BLAS thread count; main() pins these before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# end-to-end metrics: unit and meaning; the JSON line carries the subset
# BENCHMARK.json lists (a metric there must never read 0 on any workload)
END_TO_END = {
    "solve_s": ("s", "solve_wall_s x REF_NOMINAL_S / host_ref_s (seconds at the reference host speed)"),
    "setup_s": ("s", "setup_wall_s x REF_NOMINAL_S / host_ref_s (seconds at the reference host speed)"),
    "solve_wall_s": ("s", "run_pipeline wall time summed over the scene set (per-scene median over passes)"),
    "setup_wall_s": ("s", "fresh-interpreter import of colsfm plus generate and measure of the scene set "
                     "(medians of the repeats)"),
    "host_ref_s": ("s", "median time of the host-speed reference loop over the run"),
    "converged_frac": ("ratio", "scenes whose averaging converged / scenes attempted"),
    "failed_frac": ("ratio", "scenes that raised, returned a failure_stage or missed the oracle / attempted"),
    "pos_err": ("scene_units", "mean position error over calibrated scenes that did not fail"),
    "reproj_err": ("image_units", "mean reprojection error over scenes that did not fail"),
    "peak_rss_mb": ("MiB", "peak resident memory of this process"),
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--groups", type=int, default=None,
                   help="solve only the first N scene groups of the set (smoke runs)")
    return p.parse_args(argv)


def _contract_names() -> tuple[list, list]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in doc["end_to_end"]], [m["name"] for m in doc["per_layer"]]


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "machine": platform.machine(),
    }


def _import_seconds() -> float:
    """Median wall time of a fresh interpreter importing colsfm."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, check=True, timeout=60)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _build_timed(wl, seed, groups):
    """Build the scene set: (scenes, wall time)."""
    from workloads import build_scene_set

    t0 = time.perf_counter()
    scenes = build_scene_set(wl, seed, groups)
    return scenes, time.perf_counter() - t0


def _pass_count(wl, seconds) -> int:
    """Passes a run of `seconds` makes: fixed by `seconds` alone, never by the
    host's speed, so two runs of one seed attempt the same solves."""
    return max(1, round(wl.passes * seconds / RUN_SECONDS))


def _reference_seconds() -> float:
    """One sample of the host-speed reference, as the child times it."""
    out = subprocess.run([sys.executable, "-I", "-S", "-c", REF_CODE], check=True, timeout=60,
                         capture_output=True, text=True)
    return float(out.stdout)


def _solve_passes(scenes, n_passes, workdir):
    """Closed loop over `n_passes` whole passes: one list of outcomes per
    pass, and the reference samples taken evenly in the gaps between solves."""
    from workloads import solve

    solves = n_passes * len(scenes)
    gaps = solves + 1
    passes, ref = [[] for _ in range(n_passes)], []
    for k in range(gaps):
        ref += [_reference_seconds() for _ in range((k + 1) * REF_SAMPLES // gaps - k * REF_SAMPLES // gaps)]
        if k < solves:
            passes[k // len(scenes)].append(solve(scenes[k % len(scenes)], workdir))
    return passes, ref


def _solve_sum(passes) -> float:
    """Sum over scenes of each scene's median time across passes."""
    return sum(statistics.median(p[k].seconds for p in passes) for k in range(len(passes[0])))


def _summary(scenes, passes) -> dict:
    """End-to-end metrics of the scene set from its passes."""
    first = passes[0]
    ok = [o for o in first if not o.failed]
    pos = [o.pos_err for sc, o in zip(scenes, first) if not o.failed and sc.spec.regime == "calibrated"]
    reproj = [o.reproj_err for o in ok]
    return {
        "solve_wall_s": _solve_sum(passes),
        "converged_frac": sum(o.converged for o in first) / len(first),
        "failed_frac": sum(o.failed for o in first) / len(first),
        "pos_err": statistics.fmean(pos) if pos else None,
        "reproj_err": statistics.fmean(reproj) if reproj else None,
    }


def _checks(scenes, passes) -> list:
    """Problems that make the run incorrect (failures alone do not)."""
    problems = []
    for k, sc in enumerate(scenes):
        outs = [p[k] for p in passes]
        label = f"scene {k} (seed {sc.scene_seed}, {sc.spec.layout} n={sc.spec.n} {sc.spec.algorithm})"
        if len({o.digest for o in outs}) > 1:
            problems.append(f"{label}: output bytes differ between passes")
        for o in outs:
            if o.status == "error":
                problems.append(f"{label}: unexpected {o.detail}")
            elif o.status == "failure_stage" and not o.detail:
                problems.append(f"{label}: failure without a named stage")
            elif o.status == "oracle_miss" and sc.spec.rotation_deg == 0.0:
                problems.append(f"{label}: noise-free scene missed the oracle: {o.detail}")
    return problems


def _scene_records(scenes, passes) -> list:
    return [
        {
            "spec": vars(sc.spec),
            "scene_seed": sc.scene_seed,
            "measure_seed": sc.measure_seed,
            "status": passes[0][k].status,
            "detail": passes[0][k].detail,
            "converged": passes[0][k].converged,
            "pos_err": passes[0][k].pos_err,
            "reproj_err": passes[0][k].reproj_err,
            "seconds": [p[k].seconds for p in passes],
            "digest": passes[0][k].digest,
        }
        for k, sc in enumerate(scenes)
    ]


def _set_digest(passes) -> str:
    return hashlib.sha256("".join(o.digest for o in passes[0]).encode()).hexdigest()


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "colsfm" / "__init__.py").is_file():
        print(f"colsfm sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    from tracing import Tracer, instrument, per_layer_metrics
    from workloads import WORKLOADS, solve

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    groups = wl.groups if args.groups is None else max(1, min(args.groups, wl.groups))
    e2e_names, layer_names = _contract_names()
    env = _environment()

    result = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "groups": groups,
        "default_seed": DEFAULT_SEED, "recheck_seed": RECHECK_SEED,
        "trace": args.trace, "seconds": args.seconds, "environment": env,
    }
    # a run on part of the set must not overwrite the results of a full one
    tag = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    if groups < wl.groups:
        tag += f"_groups{groups}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="io-", dir=RESULTS) as tmp:
        workdir = Path(tmp)
        import_s = _import_seconds()
        builds = [_build_timed(wl, args.seed, groups) for _ in range(SETUP_REPEATS)]
        scenes = builds[0][0]
        setup_s = import_s + statistics.median(b[1] for b in builds)
        del builds
        if args.trace:
            passes, ref = _solve_passes(scenes, 1, workdir)
            tracer = Tracer()
            with instrument(tracer):
                traced_scenes = _build_timed(wl, args.seed, groups)[0]
                outs = []
                for k, sc in enumerate(traced_scenes):
                    tracer.scene = k
                    outs.append(solve(sc, workdir, tracer))
            passes.append(outs)
            overhead = _solve_sum(passes[1:]) - _solve_sum(passes[:1])
            metrics, absent = per_layer_metrics(tracer, overhead)
            tracer.write(RESULTS / f"{tag}_spans.jsonl")
            result["missing_hooks"] = sorted(tracer.missing)
            result["absent"] = absent
            emit = {k: v for k, v in metrics.items() if k in layer_names}
        else:
            passes, ref = _solve_passes(scenes, _pass_count(wl, args.seconds), workdir)
    summary = _summary(scenes, passes[:1] if args.trace else passes)
    host_ref_s = statistics.median(ref)
    scale = REF_NOMINAL_S / host_ref_s
    summary.update(setup_wall_s=setup_s, host_ref_s=host_ref_s,
                   solve_s=summary["solve_wall_s"] * scale, setup_s=setup_s * scale)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = _checks(scenes, passes)
    attempted = sum(len(p) for p in passes)
    failed = sum(o.failed for p in passes for o in p)

    print(f"bench {wl.name} seed={args.seed} trace={args.trace}: {len(scenes)} scenes, "
          f"{len(passes)} passes, {attempted} solves, {failed} failed")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (unit, meaning) in END_TO_END.items():
        print(f"  {name:<16} {_fmt(summary[name]):>14} {unit:<12} {meaning}")
    if args.trace:
        for name in layer_names:
            m = metrics.get(name)
            print(f"  {name:<30} {'absent' if m is None else _fmt(m['value']):>14} "
                  f"{'' if m is None else m['unit']}")
    if not args.trace:
        missing = [n for n in e2e_names if summary.get(n) is None]
        if missing:
            problems.append(f"end-to-end metrics without a value: {missing}")
        emit = {n: {"value": float(summary[n]), "unit": END_TO_END[n][0]}
                for n in e2e_names if n not in missing}
    for line in problems:
        print("INCORRECT " + line)
    digest = _set_digest(passes)
    print(f"digest {wl.name} seed={args.seed}: sha256 {digest}")
    result.update(
        correct=not problems, problems=problems, attempted=attempted, failed=failed,
        end_to_end={n: {"value": summary[n], "unit": END_TO_END[n][0]} for n in END_TO_END},
        metrics=emit, digest=digest, scenes=_scene_records(scenes, passes), host_ref_samples=ref,
    )
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": emit}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
