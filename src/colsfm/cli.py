"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 averaging did not converge.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import io as cio
from .averaging import _MAX_ITERS
from .errors import ValidationError
from .metrics import EvalReport
from .pipeline import _evaluate, cover_and_average, run_pipeline
from .synthetic import MeasurementNoise, generate, measure

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_synth(args) -> int:
    scene = generate(
        args.layout,
        args.n_cams,
        args.n_points,
        seed=args.seed,
        intrinsics_mode=args.intrinsics,
        collinear_fraction=args.collinear_fraction,
    )
    cio.save_scene(scene, args.out)
    _emit(args, {"cameras": scene.n, "points": len(scene.points), "out": str(args.out)},
          f"wrote scene with {scene.n} cameras, {len(scene.points)} points to {args.out}")
    return EXIT_OK


def cmd_measure(args) -> int:
    scene = cio.load_scene(args.scene)
    noise = MeasurementNoise(args.noise_rot_deg, args.noise_trans_deg, args.noise_px)
    nview, tracks = measure(scene, noise, seed=args.seed)
    cio.save_measurements(nview, tracks, args.out)
    _emit(args, {"n": nview.n, "edges": len(nview.pairs), "out": str(args.out)},
          f"wrote {len(nview.pairs)} measured tensors over {nview.n} cameras to {args.out}")
    return EXIT_OK


def cmd_average(args) -> int:
    measurements, tracks = cio.load_measurements(args.measurements)
    cover, avg = cover_and_average(measurements, tracks, args.algorithm, args.max_iters)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    cio.write_convergence_log(avg.log, outdir / "convergence.log")
    (outdir / "cover.json").write_text(cover.to_json() + "\n", encoding="utf-8")
    _emit(args, {"converged": avg.converged, "iterations": len(avg.log)},
          f"averaging {'converged' if avg.converged else 'did NOT converge'} "
          f"in {len(avg.log)} iterations ({avg.n} cameras incl. virtual)")
    return EXIT_OK if avg.converged else EXIT_NO_CONVERGENCE


def cmd_recover(args) -> int:
    measurements, tracks = cio.load_measurements(args.measurements)
    out = run_pipeline(measurements, tracks, args.algorithm, args.regime, None, args.max_iters)
    cio.save_cameras(out.cameras, out.frame, args.out)
    _emit(args, {"n_reconstructed": out.report.n_reconstructed, "out": str(args.out)},
          f"recovered {out.report.n_reconstructed} cameras ({out.frame} frame) to {args.out}")
    return EXIT_OK if out.converged else EXIT_NO_CONVERGENCE


def cmd_eval(args) -> int:
    cameras, frame = cio.load_cameras(args.cameras)
    measurements, tracks = cio.load_measurements(args.measurements)
    scene = cio.load_scene(args.scene) if args.scene else None
    for source, n in (("measurements", measurements.n), ("scene", scene.n if scene else None)):
        if n is not None and n != len(cameras):
            raise ValidationError(f"cameras file holds {len(cameras)} cameras, the {source} {n}")
    regime = "calibrated" if frame == "euclidean" else "uncalibrated"
    report = _evaluate(cameras, len(cameras), tracks, scene, regime, args.algorithm, True)
    cio.save_report(report, args.out, include_runtime=args.timing)
    _emit(args, report.to_dict(), _report_text(report))
    return EXIT_OK


def _report_text(report: EvalReport) -> str:
    parts = [f"{report.algorithm}/{report.regime}:",
             f"{report.n_reconstructed}/{report.n_cameras} cameras"]
    if report.mean_position_error is not None:
        parts.append(f"mean position error {report.mean_position_error:.3e}")
        parts.append(f"median {report.median_position_error:.3e}")
    if report.mean_reprojection_error is not None:
        parts.append(f"mean reprojection error {report.mean_reprojection_error:.3e}")
    if not report.converged:
        parts.append("(averaging did not converge)")
    return " ".join(parts)


def cmd_pipeline(args) -> int:
    scene = cio.load_scene(args.scene) if args.scene else None
    measurements, tracks = cio.load_measurements(args.measurements)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        out = run_pipeline(measurements, tracks, args.algorithm, args.regime, scene, args.max_iters)
    except ValidationError as exc:
        n = measurements.n
        report = _evaluate([None] * n, n, tracks, None, args.regime, args.algorithm, False, str(exc))
        cio.save_report(report, outdir / "report.json", include_runtime=args.timing)
        raise
    cio.save_report(out.report, outdir / "report.json", include_runtime=args.timing)
    cio.save_cameras(out.cameras, out.frame, outdir / "cameras_out.json")
    (outdir / "cover.json").write_text(out.cover.to_json() + "\n", encoding="utf-8")
    cio.write_convergence_log(out.averaging_log, outdir / "convergence.log")
    _emit(args, out.report.to_dict(), _report_text(out.report))
    return EXIT_OK if out.converged else EXIT_NO_CONVERGENCE


def _checked(kind, ok, requirement: str):
    """An argparse type: a finite number of the given kind for which ok
    holds; any other value is refused with the requirement."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


def _at_least(low: int):
    return _checked(int, lambda v: v >= low, f"an integer of at least {low}")


_NONNEGATIVE = _checked(float, lambda v: v >= 0, "non-negative and finite")
_FRACTION = _checked(float, lambda v: 0 <= v <= 1, "a fraction in [0, 1]")


def _add_common(p, regime: bool = True) -> None:
    p.add_argument("--algorithm", choices=["r4", "vc"], default="r4")
    if regime:
        p.add_argument("--regime", choices=["calibrated", "uncalibrated"], default="calibrated")
    p.add_argument("--max-iters", type=_at_least(1), default=_MAX_ITERS,
                   help="ADMM iteration budget")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="colsfm",
        description="Bifocal tensor averaging and camera recovery for collinear camera networks",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable diagnostics")
    ap.add_argument("--timing", action="store_true",
                    help="include measured runtime in report.json (breaks byte determinism)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--layout", choices=["collinear", "general", "mixed"], default="collinear")
    p.add_argument("--n-cams", type=_at_least(3), default=10)
    p.add_argument("--n-points", type=_at_least(4), default=20)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--intrinsics", choices=["calibrated", "varied"], default="calibrated")
    p.add_argument("--collinear-fraction", type=_FRACTION, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("measure", help="simulate measured tensors and tracks")
    p.add_argument("--scene", required=True)
    p.add_argument("--noise-rot-deg", type=_NONNEGATIVE, default=0.0)
    p.add_argument("--noise-trans-deg", type=_NONNEGATIVE, default=0.0)
    p.add_argument("--noise-px", type=_NONNEGATIVE, default=0.0)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("average", help="run the ADMM averaging stage")
    p.add_argument("--measurements", required=True)
    p.add_argument("--out", required=True, help="output directory (cover + log)")
    _add_common(p, regime=False)  # averaging is the same in both regimes
    p.set_defaults(func=cmd_average)

    p = sub.add_parser("recover", help="average + camera recovery")
    p.add_argument("--measurements", required=True)
    p.add_argument("--out", required=True, help="cameras_out.json path")
    _add_common(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("eval", help="evaluate recovered cameras")
    p.add_argument("--cameras", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument("--scene", default=None, help="ground truth scene for position errors")
    p.add_argument("--algorithm", choices=["r4", "vc"], default="r4")
    p.add_argument("--out", required=True, help="report.json path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="full run: average, recover, evaluate")
    p.add_argument("--measurements", required=True)
    p.add_argument("--scene", default=None)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
