"""Command-line front end.

Subcommands: speckle (inject synthetic speckle), calibrate (tune the
shrinkage threshold against a clean reference), despeckle (apply a
threshold), baseline (median/Lee filters), metrics (assessment report),
and surface (controller output surface export).

Machine-readable results go to stdout as JSON lines or CSV; diagnostics
and errors go to stderr. Every command is deterministic for fixed flags
and seeds. Image inputs may be binary PGM or the raw F64 format (detected
by magic); image outputs are PGM, written 8-bit when the rounded pixel
values fit in 0..255 and big-endian 16-bit otherwise.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .fuzzy import output_surface, surface_to_csv
from .image import PgmError, read_f64, read_pgm, write_pgm
from .metrics import MetricsReport, full_report
from .pipeline import (
    SHRINKERS,
    PipelineConfig,
    calibrate,
    despeckle,
    lee_filter,
    median_filter_homomorphic,
    trace_to_csv,
)
from .speckle import KINDS, SpeckleSpec, apply_speckle
from .wavelet import SUPPORTED_BANKS

__all__ = ["main"]


def _read_image(path: str) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:2] == b"P5":
        reader = read_pgm
    elif data[:4] == b"F64\n":
        reader = read_f64
    else:
        raise PgmError(f"{path}: unrecognized image magic {data[:4]!r}")
    try:
        return reader(data)
    except PgmError as exc:
        raise PgmError(f"{path}: {exc}") from exc


def _write_image(path: str, img: np.ndarray) -> None:
    # rint(clip(img, 0)).max() <= 255, since both are monotone; rint(255.5) is 256
    maxval = 255 if img.max() < 255.5 else 65535
    Path(path).write_bytes(write_pgm(img, maxval))


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _speckle_spec(args) -> SpeckleSpec:
    return SpeckleSpec(kind=args.kind, looks=args.looks, seed=args.seed)


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(wavelet=args.wavelet, shrink=args.shrink)


def cmd_speckle(args) -> int:
    img = _read_image(args.input)
    spec = _speckle_spec(args)
    _write_image(args.output, apply_speckle(img, spec))
    _emit({"kind": spec.kind, "looks": spec.looks, "seed": spec.seed})
    return 0


def cmd_calibrate(args) -> int:
    clean = _read_image(args.clean)
    result = calibrate(
        clean,
        _speckle_spec(args),
        cfg=_pipeline_config(args),
        epsilon=args.epsilon,
        max_iter=args.max_iter,
    )
    if args.trace_out:
        Path(args.trace_out).write_text(trace_to_csv(result.trace))
    _emit(
        {
            "lambda_star": result.lambda_star,
            "iterations": result.iterations,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
        }
    )
    return 0


def cmd_despeckle(args) -> int:
    img = _read_image(args.input)
    _write_image(args.output, despeckle(img, args.lam, _pipeline_config(args)))
    _emit({"lambda": args.lam})
    return 0


def cmd_baseline(args) -> int:
    if args.looks < 1:
        raise ValueError(f"looks must be a positive integer, got {args.looks}")
    img = _read_image(args.input)
    payload = {"filter": args.filter, "kernel": args.kernel}
    if args.filter == "median":
        out = median_filter_homomorphic(img, kernel=args.kernel)
    else:
        out = lee_filter(img, kernel=args.kernel, noise_var_ratio=1.0 / args.looks)
        payload["looks"] = args.looks
    _write_image(args.output, out)
    _emit(payload)
    return 0


def cmd_metrics(args) -> int:
    report = full_report(
        _read_image(args.clean),
        _read_image(args.noisy),
        _read_image(args.despeckled),
        block=args.block,
        tau=args.tau,
        alpha=args.alpha,
    )
    print(MetricsReport.CSV_HEADER)
    print(report.to_csv_row())
    print(report.to_table(), file=sys.stderr)
    return 0


def cmd_surface(args) -> int:
    surface = output_surface(args.grid_n)
    Path(args.output).write_text(surface_to_csv(surface))
    _emit({"grid_n": args.grid_n})
    return 0


def _add_speckle_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", choices=KINDS, default="gamma", help="speckle distribution")
    parser.add_argument("--looks", type=int, default=3, help="look count for gamma speckle")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--wavelet", choices=SUPPORTED_BANKS, default="haar", help="filter bank")
    parser.add_argument("--shrink", choices=tuple(SHRINKERS), default="hard", help="shrinker")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="despeckle", description="Wavelet-shrinkage despeckling toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("speckle", help="multiply an image by synthetic speckle")
    p.add_argument("input")
    p.add_argument("output")
    _add_speckle_flags(p)
    p.set_defaults(func=cmd_speckle)

    p = sub.add_parser("calibrate", help="tune the shrinkage threshold on a clean image")
    p.add_argument("clean")
    _add_speckle_flags(p)
    _add_pipeline_flags(p)
    p.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="stop when the worst-pixel error drops to or below this (gray levels); "
        "default 2%% of peak",
    )
    p.add_argument("--max-iter", type=int, default=100, help="iteration cap")
    p.add_argument("--trace-out", default=None, help="write the per-iteration trace CSV here")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("despeckle", help="apply a calibrated threshold to an image")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="shrinkage threshold")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_despeckle)

    p = sub.add_parser("baseline", help="run a baseline speckle filter")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--filter", choices=("median", "lee"), default="median")
    p.add_argument("--kernel", type=int, default=3, help="odd window size")
    p.add_argument("--looks", type=int, default=3, help="look count (Lee noise variance = 1/looks)")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("metrics", help="assessment report for a clean/noisy/despeckled triple")
    p.add_argument("clean")
    p.add_argument("noisy")
    p.add_argument("despeckled")
    p.add_argument("--block", type=int, default=25, help="ENL tile size")
    p.add_argument("--tau", type=float, default=0.2, help="edge-detector threshold fraction")
    p.add_argument("--alpha", type=float, default=1.0 / 9.0, help="FOM distance constant")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("surface", help="export the controller output surface as CSV")
    p.add_argument("output")
    p.add_argument("--grid-n", type=int, default=101, help="lattice size per axis")
    p.set_defaults(func=cmd_surface)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
