import json
import subprocess
import sys

import numpy as np
import pytest

from despeckle.image import read_pgm, write_pgm

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


def test_speckle_deterministic(clean_pgm, tmp_path):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    assert run_cli("speckle", clean_pgm, a, "--seed", "3").returncode == 0
    assert run_cli("speckle", clean_pgm, b, "--seed", "3").returncode == 0
    assert a.read_bytes() == b.read_bytes()


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
    assert 1 <= payload["iterations"] <= 8
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "iter,e,de,dlambda,lambda,me"
    assert len(lines) - 1 == payload["iterations"]


def test_calibrate_vacuous_epsilon(clean_pgm):
    proc = run_cli("calibrate", clean_pgm, "--epsilon", "1e9", "--max-iter", "50")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["converged"] is True and payload["iterations"] == 1


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
