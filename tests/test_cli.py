"""Every CLI command, in two tables, run in-process through ``cli.main``.

A success row is one command line and the public API call it makes. The
command must exit 0 and print exactly what that call's result prints: a
JSON line, or for ``metrics`` the CSV header and row on stdout and the
table on stderr. It must write exactly the files the row names, each equal
byte for byte to the API's result written at the maxval the row names.

An error row is one command line that fails. The command must exit 1 (2
for argparse), print nothing on stdout, write no file, and print the row's
whole message on stderr.

Every row runs in a fresh directory that holds ``clean.pgm``, ``noisy.f64``
and ``despeckled.f64``, and the files of the row's ``setup``.
"""

import json
import os
import subprocess
import sys
from typing import Callable, NamedTuple

import numpy as np
import pytest

from despeckle import cli
from despeckle.fuzzy import output_surface, surface_to_csv
from despeckle.image import write_f64, write_pgm
from despeckle.metrics import full_report
from despeckle.pipeline import (
    PipelineConfig,
    calibrate,
    despeckle,
    lee_filter,
    median_filter_homomorphic,
    trace_to_csv,
)
from despeckle.speckle import SpeckleSpec, apply_speckle

from conftest import make_phantom

CLEAN = make_phantom(64)
NOISY = apply_speckle(CLEAN, SpeckleSpec(seed=4))
DESPECKLED = despeckle(NOISY, 1.0)
INPUTS = {
    "clean.pgm": write_pgm(CLEAN, 255),
    "noisy.f64": write_f64(NOISY),
    "despeckled.f64": write_f64(DESPECKLED),
}


class Out(NamedTuple):
    stdout: str
    files: dict = {}  # name -> bytes
    stderr: str = ""


class Ok(NamedTuple):
    id: str
    argv: str
    expect: Callable[[], Out]


def _json(**payload):
    return json.dumps(payload) + "\n"


def _speckled(spec, looks, maxval):
    out = write_pgm(apply_speckle(CLEAN, spec), maxval)
    return Out(_json(kind=spec.kind, looks=looks, seed=spec.seed), {"out.pgm": out})


def _calibrated(spec, cfg=None, epsilon=None, max_iter=100, trace_out=False, **pinned):
    """calibrate's JSON line, whose ``pinned`` fields must read as given."""
    result = calibrate(CLEAN, spec, cfg, epsilon, max_iter)
    fields = ("lambda_star", "iterations", "converged", "stop_reason")
    payload = {name: getattr(result, name) for name in fields} | pinned
    files = {"trace.csv": trace_to_csv(result.trace).encode()} if trace_out else {}
    return Out(_json(**payload), files)


def _despeckled(lam, cfg, maxval):
    out = write_pgm(despeckle(NOISY, lam, cfg), maxval)
    return Out(_json(**{"lambda": lam}), {"out.pgm": out})


def _filtered(out, maxval, **payload):
    return Out(_json(**payload), {"out.pgm": write_pgm(out, maxval)})


def _reported(**kwargs):
    report = full_report(CLEAN, NOISY, DESPECKLED, **kwargs)
    return Out(f"NV,MSD,NMV,NSD,ENL,DR,FOM\n{report.to_csv_row()}\n", {}, report.to_table() + "\n")


def _surface(grid_n):
    return Out(_json(grid_n=grid_n), {"out.csv": surface_to_csv(output_surface(grid_n)).encode()})


OK_ROWS = [
    Ok("speckle-gamma-looks4", "speckle clean.pgm out.pgm --kind gamma --looks 4 --seed 9",
       lambda: _speckled(SpeckleSpec("gamma", 4, 9), 4, 65535)),
    Ok("speckle-rayleigh", "speckle clean.pgm out.pgm --kind rayleigh",
       lambda: _speckled(SpeckleSpec("rayleigh", 3, 0), 1, 65535)),
    Ok("speckle-exponential", "speckle clean.pgm out.pgm --kind exponential --seed 1",
       lambda: _speckled(SpeckleSpec("exponential", 3, 1), 1, 65535)),
    Ok("calibrate-db2-soft-trace",
       "calibrate clean.pgm --seed 4 --wavelet db2 --shrink soft --trace-out trace.csv",
       lambda: _calibrated(SpeckleSpec(seed=4), PipelineConfig("db2", "soft"), trace_out=True)),
    Ok("calibrate-max-iter-1", "calibrate clean.pgm --max-iter 1",
       lambda: _calibrated(SpeckleSpec(), max_iter=1, iterations=1, stop_reason="max_iter")),
    Ok("calibrate-vacuous-epsilon", "calibrate clean.pgm --epsilon 1e9 --max-iter 50",
       lambda: _calibrated(SpeckleSpec(), epsilon=1e9, max_iter=50, iterations=1,
                           converged=True, stop_reason="converged")),
    Ok("despeckle-haar-hard", "despeckle noisy.f64 out.pgm --lambda 2.5",
       lambda: _despeckled(2.5, None, 65535)),
    Ok("despeckle-db4-soft", "despeckle noisy.f64 out.pgm --lambda 0.5 --wavelet db4 --shrink soft",
       lambda: _despeckled(0.5, PipelineConfig("db4", "soft"), 65535)),
    Ok("despeckle-zero-is-identity", "despeckle clean.pgm out.pgm --lambda 0",
       lambda: Out(_json(**{"lambda": 0.0}), {"out.pgm": INPUTS["clean.pgm"]})),
    Ok("baseline-median-k3", "baseline noisy.f64 out.pgm",
       lambda: _filtered(median_filter_homomorphic(NOISY, 3), 65535, filter="median", kernel=3)),
    Ok("baseline-median-k5", "baseline noisy.f64 out.pgm --filter median --kernel 5",
       lambda: _filtered(median_filter_homomorphic(NOISY, 5), 255, filter="median", kernel=5)),
    Ok("baseline-lee-defaults", "baseline noisy.f64 out.pgm --filter lee",
       lambda: _filtered(lee_filter(NOISY, 3, 1.0 / 3.0), 65535, filter="lee", kernel=3, looks=3)),
    Ok("baseline-lee-looks1", "baseline noisy.f64 out.pgm --filter lee --looks 1",
       lambda: _filtered(lee_filter(NOISY, 3, 1.0), 65535, filter="lee", kernel=3, looks=1)),
    Ok("baseline-lee-k5-looks4", "baseline noisy.f64 out.pgm --filter lee --kernel 5 --looks 4",
       lambda: _filtered(lee_filter(NOISY, 5, 0.25), 65535, filter="lee", kernel=5, looks=4)),
    Ok("metrics-defaults", "metrics clean.pgm noisy.f64 despeckled.f64", _reported),
    Ok("metrics-block-tau-alpha",
       "metrics clean.pgm noisy.f64 despeckled.f64 --block 16 --tau 0.3 --alpha 0.5",
       lambda: _reported(block=16, tau=0.3, alpha=0.5)),
    Ok("surface-default-grid", "surface out.csv", lambda: _surface(101)),
    Ok("surface", "surface out.csv --grid-n 5", lambda: _surface(5)),
]


def _error(message):
    return f"error: {message}\n"


def _f64_triple(seed, scale):
    """Three distinct 64x64 F64 images of gray levels in [scale, 2 * scale)."""
    rng = np.random.default_rng(seed)
    return {f"{n}.f64": write_f64((1.0 + rng.uniform(size=(64, 64))) * scale) for n in "abc"}


class Fails(NamedTuple):
    id: str
    argv: str
    stderr: str
    setup: Callable[[], dict] = dict  # extra input files: name -> bytes
    code: int = 1


THRESHOLD = "threshold must be a non-negative number, got {}"
LOOKS = "looks must be a positive integer below 2**63, got {}"
ALPHA = "alpha must be positive and finite, got {}"
SPECKLE_OVERFLOW = _error("speckled image overflowed to a non-finite value")
USAGE = cli.build_parser().format_usage()

FAIL_ROWS = [
    Fails("speckle-missing-input", "speckle absent.pgm out.pgm",
          _error("[Errno 2] No such file or directory: 'absent.pgm'")),
    Fails("calibrate-too-small", "calibrate tiny.pgm",
          _error("image (2, 2) is too small to seed the threshold: the 'cdd' subband holds "
                 "1 coefficient(s), need at least 2"),
          lambda: {"tiny.pgm": write_pgm(np.full((2, 2), 100.0), 255)}),
    Fails("despeckle-nan-hard", "despeckle clean.pgm out.pgm --lambda nan",
          _error(THRESHOLD.format("nan"))),
    Fails("despeckle-nan-soft", "despeckle clean.pgm out.pgm --lambda nan --shrink soft",
          _error(THRESHOLD.format("nan"))),
    Fails("despeckle-inf", "despeckle clean.pgm out.pgm --lambda inf",
          _error(THRESHOLD.format("inf"))),
    Fails("despeckle-1e400", "despeckle clean.pgm out.pgm --lambda 1e400",
          _error(THRESHOLD.format("inf"))),
    Fails("baseline-even-kernel", "baseline clean.pgm out.pgm --kernel 2",
          _error("kernel must be an odd integer >= 3, got 2")),
    Fails("baseline-lee-looks0", "baseline clean.pgm out.pgm --filter lee --looks 0",
          _error(LOOKS.format(0))),
    Fails("baseline-median-looks-2", "baseline clean.pgm out.pgm --filter median --looks -2",
          _error(LOOKS.format(-2))),
    Fails("baseline-lee-looks-10**400",
          f"baseline clean.pgm out.pgm --filter lee --looks {10**400}",
          _error(LOOKS.format(10**400))),
    Fails("baseline-median-looks-2**63",
          f"baseline clean.pgm out.pgm --filter median --looks {2**63}",
          _error(LOOKS.format(2**63))),
    # one row's uniforms are 512 PiB, more than any address space holds, so
    # the allocation fails at once
    Fails("speckle-out-of-memory", f"speckle clean.pgm out.pgm --looks {2**50}",
          _error(f"Unable to allocate 512. PiB for an array with shape (1, {2**50}, 64) "
                 "and data type float64")),
    Fails("metrics-alpha-nan", "metrics clean.pgm noisy.f64 despeckled.f64 --alpha nan",
          _error(ALPHA.format("nan"))),
    Fails("metrics-alpha-inf", "metrics clean.pgm noisy.f64 despeckled.f64 --alpha inf",
          _error(ALPHA.format("inf"))),
    Fails("metrics-smaller-than-one-enl-tile", "metrics tiny.pgm tiny.pgm tiny.pgm",
          _error("image (20, 20) smaller than one 25x25 block"),
          lambda: {"tiny.pgm": write_pgm(np.arange(400.0).reshape(20, 20) % 256, 255)}),
    # finite gray levels near 1e300, whose variance overflows float64
    Fails("metrics-overflow", "metrics a.f64 b.f64 c.f64",
          _error("NV overflowed to a non-finite value"), lambda: _f64_triple(40, 1e300)),
    # distinct finite gray levels near 1e-170, whose variance underflows to 0
    Fails("metrics-underflow", "metrics a.f64 b.f64 c.f64",
          _error("NV underflowed to 0 on pixels that differ"), lambda: _f64_triple(42, 1e-170)),
    # finite gray levels near 1e160, whose local mean of squares overflows
    Fails("baseline-lee-overflow", "baseline huge.f64 out.pgm --filter lee",
          _error("Lee local variance overflowed to a non-finite value"),
          lambda: {"huge.f64": write_f64(
              np.random.default_rng(41).gamma(3.0, 1.0 / 3.0, size=(32, 32)) * 1e160)}),
    # finite gray levels near float64's maximum overflow where speckle exceeds 1.06
    Fails("speckle-overflow", "speckle huge.f64 out.pgm --kind rayleigh --seed 1",
          SPECKLE_OVERFLOW, lambda: {"huge.f64": write_f64(np.full((8, 8), 1.7e308))}),
    Fails("calibrate-speckle-overflow", "calibrate huge.f64 --kind rayleigh --seed 1",
          SPECKLE_OVERFLOW, lambda: {"huge.f64": write_f64(np.full((8, 8), 1.7e308))}),
    Fails("metrics-f64-nan", "metrics clean.pgm clean.pgm bad.f64",
          _error("bad.f64: non-finite sample nan at byte 32770"),
          lambda: {"bad.f64": write_f64(CLEAN)[:-8] + np.float64(np.nan).tobytes()}),
    Fails("metrics-pgm-truncated", "metrics clean.pgm clean.pgm bad.pgm",
          _error("bad.pgm: truncated payload at byte 4099: expected 4096 bytes, got 4086"),
          lambda: {"bad.pgm": INPUTS["clean.pgm"][:-10]}),
    Fails("unrecognized-magic", "despeckle bad.img out.pgm --lambda 1",
          _error("bad.img: unrecognized image magic b'XXXX'"), lambda: {"bad.img": b"XXXX\n"}),
    Fails("unknown-flag", "speckle clean.pgm out.pgm --unknown-flag 1",
          USAGE + "despeckle: error: unrecognized arguments: --unknown-flag 1\n", code=2),
    Fails("no-command", "",
          USAGE + "despeckle: error: the following arguments are required: command\n", code=2),
]


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, data in INPUTS.items():
        (tmp_path / name).write_bytes(data)
    return tmp_path


def _run(workdir, argv):
    """``cli.main``'s exit code and the files the run added to ``workdir``."""
    before = set(os.listdir(workdir))
    try:
        code = cli.main(argv.split())
    except SystemExit as exc:  # argparse
        code = exc.code
    return code, {p.name: p.read_bytes() for p in workdir.iterdir() if p.name not in before}


@pytest.mark.parametrize("row", OK_ROWS, ids=[row.id for row in OK_ROWS])
def test_command_equals_its_api_call(workdir, capsys, row):
    want = row.expect()
    code, written = _run(workdir, row.argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (0, want.stdout, want.stderr)
    assert written == want.files


@pytest.mark.parametrize("row", FAIL_ROWS, ids=[row.id for row in FAIL_ROWS])
def test_command_fails_with_its_message(workdir, capsys, row):
    for name, data in row.setup().items():
        (workdir / name).write_bytes(data)
    code, written = _run(workdir, row.argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (row.code, "", row.stderr)
    assert written == {}


def test_despeckle_command_does_not_import_scipy_ndimage(workdir):
    # scipy.ndimage is loaded only by the baselines and the metrics that use it
    code = (
        "import sys, despeckle, despeckle.cli\n"
        f"assert despeckle.cli.main(['despeckle', {str(workdir / 'clean.pgm')!r}, "
        f"{str(workdir / 'out.pgm')!r}, '--lambda', '1']) == 0\n"
        "print('scipy.ndimage' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "peak, maxval",
    [(np.nextafter(255.5, 0.0), 255), (255.5, 65535), (-1.0, 255)],
    ids=["below-half", "half-rounds-up", "all-negative"],
)
def test_write_image_depth_from_rounded_peak(tmp_path, peak, maxval):
    # 8-bit exactly when the clamped, rounded pixels fit in 0..255
    out = tmp_path / "o.pgm"
    img = np.full((2, 2), -3.0)
    img[1, 1] = peak
    cli._write_image(str(out), img)
    assert out.read_bytes() == write_pgm(img, maxval)
