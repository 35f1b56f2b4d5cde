"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with ``pytest -s``)."""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from despeckle.fuzzy import LABEL_CENTERS, RULES, fuzzify, infer
from despeckle.image import write_pgm
from despeckle.metrics import (
    deflection_ratio,
    detect_edges,
    enl_blocked,
    msd,
    nmv_nv_nsd,
    pratt_fom,
)
from despeckle.pipeline import (
    calibrate,
    despeckle,
    lee_filter,
    median_filter_homomorphic,
)
from despeckle.speckle import SpeckleSpec, apply_speckle, generate_speckle
from despeckle.thresholding import (
    hard_threshold,
    mad_sigma,
    soft_threshold,
    universal_threshold,
)
from despeckle.wavelet import dwt2, idwt2

from conftest import make_phantom


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_perfect_reconstruction_and_parseval():
    with criterion(1, "perfect reconstruction"):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        banks = ("haar", "db2", "db4")
        for _ in range(50):
            img = rng.standard_normal((64, 64))
            peak = np.abs(img).max()
            energy = float(np.sum(img * img))
            for bank in banks:
                sub = dwt2(img, bank)
                assert np.abs(idwt2(sub, bank) - img).max() <= 1e-10 * peak
                coeff_energy = float(np.sum(sub.ca**2)) + sum(
                    float(np.sum(b**2)) for b in (sub.chd, sub.cvd, sub.cdd)
                )
                assert coeff_energy == pytest.approx(energy, rel=1e-8)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_2_membership_table_fidelity():
    with criterion(2, "membership table fidelity"):
        grid = (-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0)
        table = {
            "PB": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 1.0),
            "PS": (0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 0.5, 0.0),
            "AZ": (0.0, 0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0, 0.0),
            "NS": (0.0, 0.5, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0),
            "NB": (1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        }
        checked = 0
        for label, row in table.items():
            for u, expected in zip(grid, row):
                assert fuzzify(u)[label] == expected, (label, u)
                checked += 1
        assert checked == 45


def test_criterion_3_rule_table_fidelity_and_antisymmetry():
    with criterion(3, "rule table fidelity"):
        for i, de_center in enumerate(LABEL_CENTERS.values()):
            for j, e_center in enumerate(LABEL_CENTERS.values()):
                out = infer(fuzzify(e_center), fuzzify(de_center))
                assert out == LABEL_CENTERS[RULES[i][j]], (i, j)
        grid = np.linspace(-1.0, 1.0, 101)
        grades = {u: fuzzify(u) for u in grid}
        neg_grades = {u: fuzzify(-u) for u in grid}
        for e in grid:
            for de in grid:
                forward = infer(grades[e], grades[de])
                backward = infer(neg_grades[e], neg_grades[de])
                assert abs(forward + backward) <= 1e-12


def test_criterion_4_estimator_accuracy():
    with criterion(4, "estimator accuracy"):
        rng = np.random.default_rng(4)
        for sigma in (0.5, 2.0, 10.0):
            samples = rng.normal(0.0, sigma, size=100_000)
            assert mad_sigma(samples) == pytest.approx(sigma, rel=0.05)
        for delta, n in ((0.5, 64), (4.447739, 5), (12.0, 10_000)):
            est = universal_threshold(delta, n)
            assert est.lam == pytest.approx(delta * math.sqrt(2.0 * math.log(n)), rel=1e-12)


def test_criterion_5_speckle_statistics():
    with criterion(5, "speckle statistics"):
        start = time.perf_counter()
        for kind, looks in (("rayleigh", 1), ("exponential", 1), ("gamma", 3)):
            field = generate_speckle(1000, 1000, SpeckleSpec(kind=kind, looks=looks, seed=55))
            assert field.mean() == pytest.approx(1.0, rel=0.005), kind
        gamma3 = generate_speckle(1000, 1000, SpeckleSpec(kind="gamma", looks=3, seed=56))
        assert gamma3.var() == pytest.approx(1.0 / 3.0, rel=0.02)
        for looks in (1, 3, 8):
            field = generate_speckle(
                512, 512, SpeckleSpec(kind="gamma", looks=looks, seed=57 + looks)
            )
            assert enl_blocked(field, 25) == pytest.approx(looks, rel=0.10)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"


def test_criterion_6_shrinkage_identities():
    with criterion(6, "shrinkage identities"):
        rng = np.random.default_rng(6)
        img = rng.uniform(0.0, 255.0, size=(64, 64))
        for shrink in ("hard", "soft"):
            from despeckle.pipeline import PipelineConfig

            out = despeckle(img, 0.0, PipelineConfig(shrink=shrink))
            assert np.abs(out - img).max() <= 1e-10
        # oddness and idempotence hold bitwise on arbitrary floats
        x = rng.standard_normal(10_000) * 5.0
        lam = 1.5
        np.testing.assert_array_equal(
            hard_threshold(hard_threshold(x, lam), lam), hard_threshold(x, lam)
        )
        np.testing.assert_array_equal(hard_threshold(-x, lam), -hard_threshold(x, lam))
        np.testing.assert_array_equal(soft_threshold(-x, lam), -soft_threshold(x, lam))
        # the composition law is exact on a dyadic lattice
        q = rng.integers(-64, 65, size=10_000).astype(np.float64) / 4.0
        np.testing.assert_array_equal(
            soft_threshold(soft_threshold(q, 1.25), 0.75), soft_threshold(q, 2.0)
        )


def test_criterion_7_fixed_seed_benchmark():
    with criterion(7, "fixed-seed benchmark"):
        start = time.perf_counter()
        clean = make_phantom(256)
        spec = SpeckleSpec(kind="gamma", looks=3, seed=42)
        result = calibrate(clean, spec, max_iter=100)
        assert result.iterations <= 100
        assert result.converged or result.lambda_star > 0  # best-threshold fallback

        noisy = apply_speckle(clean, spec)
        output = despeckle(noisy, result.lambda_star)

        assert msd(clean, output) < msd(clean, noisy)  # (a)
        assert enl_blocked(output, 25) > enl_blocked(noisy, 25)  # (b)
        ideal = detect_edges(clean, 0.2)
        fom_out = pratt_fom(detect_edges(output, 0.2), ideal, alpha=1.0 / 9.0)
        fom_noisy = pratt_fom(detect_edges(noisy, 0.2), ideal, alpha=1.0 / 9.0)
        assert fom_out >= fom_noisy  # (c)
        # qualitative direction of the reference comparison
        assert nmv_nv_nsd(output)[1] < nmv_nv_nsd(noisy)[1]
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"


def test_criterion_8_metric_oracles():
    with criterion(8, "metric oracles"):
        ideal = np.zeros((32, 32), dtype=bool)
        ideal[10, 4:28] = True
        ideal[4:28, 20] = True
        assert pratt_fom(ideal, ideal) == 1.0

        rng = np.random.default_rng(8)
        img = rng.uniform(0.0, 255.0, size=(25, 25))
        assert abs(deflection_ratio(img, img)) <= 1e-12
        assert msd(img, img) == 0.0
        mean, var, sd = nmv_nv_nsd(img)
        assert sd * sd == pytest.approx(var, rel=1e-12)

        small = rng.uniform(0.0, 255.0, size=(16, 16))
        for kernel in (3, 5):
            # an odd window's np.median is one of its elements, so the
            # median filter equals the oracle bit for bit
            padded = np.pad(small, kernel // 2, mode="edge")
            med_oracle = np.empty_like(small)
            for r in range(16):
                for c in range(16):
                    window = padded[r : r + kernel, c : c + kernel]
                    med_oracle[r, c] = np.median(np.log(window + 1.0))
            want = np.exp(med_oracle) - 1.0
            assert median_filter_homomorphic(small, kernel).tobytes() == want.tobytes()
        padded = np.pad(small, 1, mode="edge")
        mean_oracle = np.empty_like(small)
        var_oracle = np.empty_like(small)
        for r in range(16):
            for c in range(16):
                window = padded[r : r + 3, c : c + 3]
                mean_oracle[r, c] = window.mean()
                var_oracle[r, c] = ((window - window.mean()) ** 2).mean()
        ratio = 0.25
        gain = np.maximum(var_oracle - mean_oracle**2 * ratio, 0.0) / np.where(
            var_oracle > 0, var_oracle, 1.0
        )
        lee_oracle = mean_oracle + gain * (small - mean_oracle)
        np.testing.assert_allclose(lee_filter(small, 3, ratio), lee_oracle, rtol=0, atol=1e-10)


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI determinism"):
        clean = tmp_path / "clean.pgm"
        clean.write_bytes(write_pgm(make_phantom(64), 255))

        def run(*args):
            proc = subprocess.run(
                [sys.executable, "-m", "despeckle", *map(str, args)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        # name -> (stdout lines, files written, command)
        commands = {
            "speckle": (1, ["noisy.pgm"], lambda out: run(
                "speckle", clean, out / "noisy.pgm", "--kind", "gamma", "--looks", "3",
                "--seed", "42",
            )),
            "calibrate": (1, ["trace.csv"], lambda out: run(
                "calibrate", clean, "--seed", "42", "--max-iter", "6",
                "--trace-out", out / "trace.csv",
            )),
            "despeckle": (1, ["despeckled.pgm"], lambda out: run(
                "despeckle", clean, out / "despeckled.pgm", "--lambda", "1.5"
            )),
            "baseline": (1, ["lee.pgm"], lambda out: run(
                "baseline", clean, out / "lee.pgm", "--filter", "lee", "--kernel", "5"
            )),
            "metrics": (2, [], lambda out: run("metrics", clean, clean, clean)),
            "surface": (1, ["surface.csv"], lambda out: run(
                "surface", out / "surface.csv", "--grid-n", "9"
            )),
        }
        for name, (lines, files, invoke) in commands.items():
            dir_a = tmp_path / f"{name}_a"
            dir_b = tmp_path / f"{name}_b"
            dir_a.mkdir()
            dir_b.mkdir()
            stdout_a = invoke(dir_a)
            stdout_b = invoke(dir_b)
            assert stdout_a == stdout_b, name
            assert len(stdout_a.splitlines()) == lines, name
            files_a = sorted(p.name for p in dir_a.iterdir())
            files_b = sorted(p.name for p in dir_b.iterdir())
            assert files_a == files_b == files, name
            for fname in files_a:
                assert (dir_a / fname).read_bytes() == (dir_b / fname).read_bytes(), (
                    name,
                    fname,
                )


def test_criterion_7_metrics_triple_smoke():
    # companion check: the composite report on the benchmark triple is finite
    # and internally consistent
    clean = make_phantom(128)
    spec = SpeckleSpec(kind="gamma", looks=3, seed=42)
    noisy = apply_speckle(clean, spec)
    output = despeckle(noisy, calibrate(clean, spec, max_iter=30).lambda_star)
    from despeckle.metrics import full_report

    report = full_report(clean, noisy, output)
    values = [report.nv, report.msd, report.nmv, report.nsd, report.enl, report.dr, report.fom]
    assert all(np.isfinite(values))
    assert report.nsd**2 == pytest.approx(report.nv, rel=1e-12)
    assert 0.0 <= report.fom <= 1.0
