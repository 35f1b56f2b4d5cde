import json
import subprocess
import sys

import numpy as np
import pytest

from despeckle import cli
from despeckle.image import PgmError, read_f64, read_pgm, write_f64, write_pgm

from conftest import make_phantom


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "despeckle", *map(str, args)],
        capture_output=True,
        text=True,
    )


@pytest.fixture()
def clean_pgm(tmp_path):
    path = tmp_path / "clean.pgm"
    path.write_bytes(write_pgm(make_phantom(64), 255))
    return path


def test_speckle_writes_output_and_reports_spec(clean_pgm, tmp_path):
    out = tmp_path / "noisy.pgm"
    proc = run_cli("speckle", clean_pgm, out, "--kind", "gamma", "--looks", "3", "--seed", "9")
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    payload = json.loads(proc.stdout)
    assert payload == {"kind": "gamma", "looks": 3, "seed": 9}


def test_speckle_missing_input_fails(tmp_path):
    proc = run_cli("speckle", tmp_path / "absent.pgm", tmp_path / "out.pgm")
    assert proc.returncode != 0
    assert proc.stderr.strip()
    assert proc.stdout == ""


def test_speckle_preserves_peaks_in_16bit(clean_pgm, tmp_path):
    out = tmp_path / "noisy.pgm"
    run_cli("speckle", clean_pgm, out, "--kind", "exponential", "--seed", "1")
    img = read_pgm(out.read_bytes())
    assert img.max() > 255  # spikes survive because the writer switched to 16-bit


def test_calibrate_reports_result_and_trace(clean_pgm, tmp_path):
    trace = tmp_path / "trace.csv"
    proc = run_cli(
        "calibrate", clean_pgm, "--seed", "42", "--max-iter", "8", "--trace-out", trace
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["lambda_star"] > 0
    assert isinstance(payload["converged"], bool)
    assert payload["stop_reason"] in ("converged", "stalled", "max_iter")
    assert payload["converged"] == (payload["stop_reason"] == "converged")
    assert 1 <= payload["iterations"] <= 8
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "iter,e,de,dlambda,lambda,me"
    assert len(lines) - 1 == payload["iterations"]


def test_calibrate_vacuous_epsilon(clean_pgm):
    proc = run_cli("calibrate", clean_pgm, "--epsilon", "1e9", "--max-iter", "50")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["converged"] is True and payload["iterations"] == 1
    assert payload["stop_reason"] == "converged"


def test_calibrate_too_small_image_fails(tmp_path):
    tiny = tmp_path / "tiny.pgm"
    tiny.write_bytes(write_pgm(np.full((2, 2), 100.0), 255))
    proc = run_cli("calibrate", tiny)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "image (2, 2) is too small to seed the threshold" in proc.stderr
    assert "holds 1 coefficient" in proc.stderr


def test_despeckle_echoes_lambda_and_zero_is_identity(clean_pgm, tmp_path):
    out = tmp_path / "out.pgm"
    proc = run_cli("despeckle", clean_pgm, out, "--lambda", "0.0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"lambda": 0.0}
    assert out.read_bytes() == clean_pgm.read_bytes()


@pytest.mark.parametrize("shrink", ["hard", "soft"])
def test_despeckle_nan_lambda_fails(clean_pgm, tmp_path, shrink):
    out = tmp_path / "out.pgm"
    proc = run_cli("despeckle", clean_pgm, out, "--lambda", "nan", "--shrink", shrink)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: threshold must be a non-negative number, got nan")
    assert not out.exists()


@pytest.mark.parametrize("lam", ["inf", "1e400"])
def test_despeckle_infinite_lambda_fails(clean_pgm, tmp_path, lam):
    out = tmp_path / "out.pgm"
    proc = run_cli("despeckle", clean_pgm, out, "--lambda", lam)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: threshold must be a non-negative number, got inf")
    assert not out.exists()


def test_despeckle_command_does_not_import_scipy_ndimage(clean_pgm, tmp_path):
    # scipy.ndimage is loaded only by the baselines and the metrics that use it
    code = (
        "import sys, despeckle, despeckle.cli\n"
        f"assert despeckle.cli.main(['despeckle', {str(clean_pgm)!r}, "
        f"{str(tmp_path / 'out.pgm')!r}, '--lambda', '1']) == 0\n"
        "print('scipy.ndimage' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_baseline_median_and_lee(clean_pgm, tmp_path):
    for name in ("median", "lee"):
        out = tmp_path / f"{name}.pgm"
        proc = run_cli("baseline", clean_pgm, out, "--filter", name, "--kernel", "3")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["filter"] == name
        assert out.exists()


def test_baseline_even_kernel_rejected(clean_pgm, tmp_path):
    proc = run_cli("baseline", clean_pgm, tmp_path / "o.pgm", "--kernel", "2")
    assert proc.returncode != 0
    assert "kernel" in proc.stderr


@pytest.mark.parametrize("name, looks", [("lee", "0"), ("median", "-2")])
def test_baseline_nonpositive_looks_rejected(clean_pgm, tmp_path, name, looks):
    out = tmp_path / "o.pgm"
    proc = run_cli("baseline", clean_pgm, out, "--filter", name, "--looks", looks)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: looks must be a positive integer, got {looks}")
    assert not out.exists()


def test_metrics_prints_table_order(clean_pgm, tmp_path):
    noisy = tmp_path / "noisy.pgm"
    denoised = tmp_path / "denoised.pgm"
    run_cli("speckle", clean_pgm, noisy, "--seed", "4")
    run_cli("despeckle", noisy, denoised, "--lambda", "1.0")
    proc = run_cli("metrics", clean_pgm, noisy, denoised)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "NV,MSD,NMV,NSD,ENL,DR,FOM"
    values = [float(v) for v in lines[1].split(",")]
    assert len(values) == 7 and all(np.isfinite(values))
    assert "NV" in proc.stderr  # human-readable table goes to stderr


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_metrics_nonfinite_alpha_fails(clean_pgm, alpha):
    proc = run_cli("metrics", clean_pgm, clean_pgm, clean_pgm, "--alpha", alpha)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: alpha must be positive and finite, got {alpha}")


def test_metrics_image_smaller_than_one_enl_tile_fails(tmp_path):
    tiny = tmp_path / "tiny.pgm"
    tiny.write_bytes(write_pgm(np.arange(400.0).reshape(20, 20) % 256, 255))
    proc = run_cli("metrics", tiny, tiny, tiny)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: image (20, 20) smaller than one 25x25 block")


def test_metrics_overflow_fails_naming_the_figure(tmp_path):
    # finite F64 gray levels near 1e300, whose variance overflows float64
    rng = np.random.default_rng(40)
    paths = []
    for name in ("clean", "noisy", "despeckled"):
        path = tmp_path / f"{name}.f64"
        path.write_bytes(write_f64((1.0 + rng.uniform(size=(64, 64))) * 1e300))
        paths.append(path)
    proc = run_cli("metrics", *paths)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: NV overflowed to a non-finite value\n"


def test_metrics_underflow_fails_naming_the_figure(tmp_path):
    # distinct finite F64 gray levels near 1e-170, whose variance underflows to 0
    rng = np.random.default_rng(42)
    paths = []
    for name in ("clean", "noisy", "despeckled"):
        path = tmp_path / f"{name}.f64"
        path.write_bytes(write_f64((1.0 + rng.uniform(size=(64, 64))) * 1e-170))
        paths.append(path)
    proc = run_cli("metrics", *paths)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: NV underflowed to 0 on pixels that differ\n"


def test_baseline_lee_overflow_fails_naming_the_statistic(tmp_path):
    # finite F64 gray levels near 1e160, whose local mean of squares overflows
    levels = np.random.default_rng(41).gamma(3.0, 1.0 / 3.0, size=(32, 32))
    noisy = tmp_path / "noisy.f64"
    noisy.write_bytes(write_f64(levels * 1e160))
    out = tmp_path / "lee.pgm"
    proc = run_cli("baseline", noisy, out, "--filter", "lee")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: Lee local variance overflowed to a non-finite value\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["speckle", "calibrate"])
def test_speckle_overflow_fails_naming_the_image(tmp_path, command):
    # finite F64 gray levels near float64's maximum overflow where speckle exceeds 1.06
    clean = tmp_path / "clean.f64"
    clean.write_bytes(write_f64(np.full((8, 8), 1.7e308)))
    out = tmp_path / "noisy.pgm"
    args = [clean, out] if command == "speckle" else [clean]
    proc = run_cli(command, *args, "--kind", "rayleigh", "--seed", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: speckled image overflowed to a non-finite value\n"
    assert not out.exists()


def _f64_with_nan_last_sample(pgm_bytes):
    return write_f64(read_pgm(pgm_bytes))[:-8] + np.float64(np.nan).tobytes()


@pytest.mark.parametrize(
    "corrupt, reader",
    [(_f64_with_nan_last_sample, read_f64), (lambda data: data[:-10], read_pgm)],
    ids=["f64-nan", "pgm-truncated"],
)
def test_metrics_read_error_names_the_file(clean_pgm, tmp_path, corrupt, reader):
    data = corrupt(clean_pgm.read_bytes())
    bad = tmp_path / "bad.img"
    bad.write_bytes(data)
    with pytest.raises(PgmError, match=r" at byte \d+") as exc:
        reader(data)
    proc = run_cli("metrics", clean_pgm, clean_pgm, bad)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {bad}: {exc.value}\n"


def test_unrecognized_magic_names_the_file_once(tmp_path):
    bad = tmp_path / "bad.img"
    bad.write_bytes(b"XXXX\n")
    proc = run_cli("despeckle", bad, tmp_path / "o.pgm", "--lambda", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {bad}: unrecognized image magic b'XXXX'\n"


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


def test_surface_csv(tmp_path):
    out = tmp_path / "surface.csv"
    proc = run_cli("surface", out, "--grid-n", "5")
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "e_min,e_max,n"
    grid = [[float(v) for v in line.split(",")] for line in lines[2:]]
    flat = [v for row in grid for v in row]
    assert len(flat) == 25
    assert grid[0][0] == -1.0 and grid[-1][-1] == 1.0


def test_unknown_flag_is_error(clean_pgm, tmp_path):
    proc = run_cli("speckle", clean_pgm, tmp_path / "o.pgm", "--unknown-flag", "1")
    assert proc.returncode != 0
