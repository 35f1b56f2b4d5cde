"""README.md's "Reproduction status" stays true: its table is recomputed
here and must match README cell by cell at the printed precision, and each
of its sentences is a fact asserted below."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from despeckle import (
    PipelineConfig,
    SpeckleSpec,
    apply_speckle,
    calibrate,
    despeckle,
    enl_blocked,
    initial_threshold,
    msd,
)
from despeckle.image import exp_domain, log_domain
from despeckle.metrics import detect_edges, pratt_fom
from despeckle.pipeline import _analyse, _synthesise, lee_filter, median_filter_homomorphic

from conftest import make_phantom

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
_STATUS = _README.split("## Reproduction status", 1)[1].split("\n## ", 1)[0]
_PROSE = " ".join(_STATUS.split())  # sentences as one line each, whatever their wrapping

# speckle kind -> the field's variance, which is Lee's noise_var_ratio
VARIANCE = {"gamma": 1.0 / 3.0, "rayleigh": 4.0 / math.pi - 1.0, "exponential": 1.0}
SEEDS = (0, 1)
CHAINS = {"haar hard": PipelineConfig("haar", "hard"), "db4 soft": PipelineConfig("db4", "soft")}
MEDIAN, LEE = "median k=3", "Lee k=5"
# column -> its printed format
COLUMNS = {"clean MSE": "{:.0f}", "ENL": "{:.2f}", "FOM": "{:.3f}", "edges (%)": "{:.1f}"}
GRID_POINTS = 61
GRID_TOLERANCE = 0.002  # of the best clean MSE on the grid


def _span(values, fmt):
    return f"{fmt.format(min(values))}–{fmt.format(max(values))}"


@pytest.fixture(scope="module")
def status():
    """Per input (kind, seed): each row's figures, and what the sentences
    read: calibration stops, the grid's best clean MSE, and the medians."""
    clean = make_phantom(256)
    ideal = detect_edges(clean)
    inputs = {}
    for kind in VARIANCE:
        for seed in SEEDS:
            spec = SpeckleSpec(kind=kind, looks=3, seed=seed)
            noisy = apply_speckle(clean, spec)
            outputs, stops, grid_ratio = {}, [], {}
            for name, cfg in CHAINS.items():
                lam0 = initial_threshold(noisy, cfg).lam
                result = calibrate(clean, spec, cfg)
                stops.append((result.stop_reason, result.iterations))
                outputs[f"chain {name}, λ0"] = despeckle(noisy, lam0, cfg)
                outputs[f"chain {name}, λ*"] = despeckle(noisy, result.lambda_star, cfg)
                # the grid's outputs as calibrate makes them: one analysis,
                # one synthesis per threshold, each equal to despeckle's
                sub = _analyse(noisy, cfg)
                shrunk = tuple(np.empty_like(d) for d in (sub.chd, sub.cvd, sub.cdd))
                grid = np.linspace(0.0, 3.0 * lam0, GRID_POINTS)
                best = min(msd(clean, _synthesise(sub, lam, cfg, shrunk)) for lam in grid)
                grid_ratio[name] = msd(clean, outputs[f"chain {name}, λ0"]) / best
            outputs[MEDIAN] = median_filter_homomorphic(noisy, 3)
            outputs[LEE] = lee_filter(noisy, 5, VARIANCE[kind])
            plain = {}
            for k in (3, 5):
                median = ndimage.median_filter(noisy, size=k, mode="nearest")
                ours = median_filter_homomorphic(noisy, k)
                plain[k] = ours.tobytes() == exp_domain(log_domain(median)).tobytes()
            figures = {}
            for row, out in outputs.items():
                edges = detect_edges(out)
                figures[row] = {
                    "clean MSE": msd(clean, out),
                    "ENL": enl_blocked(out),
                    "FOM": pratt_fom(edges, ideal),
                    "edges (%)": 100.0 * edges.mean(),
                }
            inputs[kind, seed] = {
                "figures": figures,
                "stops": stops,
                "grid_ratio": grid_ratio,
                "plain_median": plain,
            }
    return {"ideal_share": 100.0 * ideal.mean(), "inputs": inputs}


def _readme_table():
    """README's table: row label -> column name -> printed cell."""
    lines = [line.strip() for line in _STATUS.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    table = {}
    for line in lines[2:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        table[cells[0]] = dict(zip(header[1:], cells[1:]))
    return table


def _column(status, row, column):
    return [run["figures"][row][column] for run in status["inputs"].values()]


def test_table_matches_readme(status):
    rows = next(iter(status["inputs"].values()))["figures"]
    table = _readme_table()
    assert list(table) == list(rows), "README's rows differ from the recomputed ones"
    moved = []
    for row in rows:
        for column, fmt in COLUMNS.items():
            printed, recomputed = table[row].get(column), _span(_column(status, row, column), fmt)
            if printed != recomputed:
                moved.append(
                    f"row {row!r}, column {column!r}: "
                    f"README says {printed}, recomputed {recomputed}"
                )
    assert not moved, "\n".join(moved)


def test_median_beats_the_chain_and_the_seed_is_near_the_best_threshold(status):
    for key, run in status["inputs"].items():
        mse = {row: figures["clean MSE"] for row, figures in run["figures"].items()}
        chain = [row for row in mse if row.startswith("chain ")]
        assert all(mse[MEDIAN] < mse[row] for row in chain), (key, mse)
        assert all(r <= 1.0 + GRID_TOLERANCE for r in run["grid_ratio"].values()), (key, run)
    grid = f"within {GRID_TOLERANCE:.1%} of the best clean MSE on a {GRID_POINTS}-point grid"
    assert grid in _PROSE


def test_fom_cannot_rank_the_chain_and_the_median(status):
    rows = [r for r in next(iter(status["inputs"].values()))["figures"] if r != LEE]
    shares = [v for row in rows for v in _column(status, row, "edges (%)")]
    foms = [v for row in rows for v in _column(status, row, "FOM")]
    sentences = [
        f"mark {_span(shares, '{:.0f}')}% of pixels",
        f"the ideal map's {status['ideal_share']:.1f}%",
        f"their FOMs lie in {_span(foms, '{:.3f}')}",
        f"(FOM {_span(_column(status, LEE, 'FOM'), '{:.3f}')})",
    ]
    missing = [s for s in sentences if s not in _PROSE]
    assert not missing, f"README does not say: {missing}"
    # the median, lowest in clean MSE on every input, has the lowest FOM of
    # these rows on some input
    assert any(
        min(rows, key=lambda row: run["figures"][row]["FOM"]) == MEDIAN
        for run in status["inputs"].values()
    )


def test_every_calibration_stalls_at_the_default_epsilon(status):
    stops = [stop for run in status["inputs"].values() for stop in run["stops"]]
    assert {reason for reason, _ in stops} == {"stalled"}
    steps = [iterations for _, iterations in stops]
    assert f"stops `stalled` after {_span(steps, '{}')} steps" in _PROSE


def test_homomorphic_median_is_the_plain_median(status):
    for key, run in status["inputs"].items():
        assert all(run["plain_median"].values()), (key, run["plain_median"])
