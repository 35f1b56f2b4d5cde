import contextlib
import io
import threading

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from despeckle import _strips, cli
from despeckle.image import write_pgm
from despeckle.metrics import detect_edges, full_report
from despeckle.pipeline import calibrate, median_filter_homomorphic
from despeckle.speckle import SpeckleSpec, apply_speckle
from despeckle.wavelet import _diagonal_detail, dwt2, idwt2


@pytest.mark.parametrize(
    "lines, line_bytes, count",
    [(1, 8, 1), (256, 2048, 1), (2048, 16384, 32), (1031, 4120, 4), (3, 1 << 22, 3)],
)
def test_bounds_cover_lines_in_order(lines, line_bytes, count):
    parts = _strips._bounds(lines, line_bytes)
    assert len(parts) == count
    assert [i for part in parts for i in range(lines)[part]] == list(range(lines))
    if count > 1:
        assert min(len(range(lines)[p]) for p in parts) * line_bytes >= _strips._STRIP_BYTES


def test_no_thread_starts_at_any_size(phantom, tmp_path):
    # Strips run in the caller: neither the 256^2 paths (one strip) nor a
    # multi-strip transform, edge map and report start a thread.
    before = threading.active_count()
    calibrate(phantom, SpeckleSpec(kind="gamma", looks=3, seed=42), max_iter=5)
    clean, noisy, out = (str(tmp_path / f) for f in ("clean.pgm", "noisy.pgm", "out.pgm"))
    (tmp_path / "clean.pgm").write_bytes(write_pgm(phantom))
    noisy_img = apply_speckle(phantom, SpeckleSpec(kind="gamma", looks=3, seed=7))
    (tmp_path / "noisy.pgm").write_bytes(write_pgm(noisy_img))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["despeckle", noisy, out, "--lambda", "2.68"]) == 0
        assert cli.main(["metrics", clean, noisy, out]) == 0
    img = np.random.default_rng(30).uniform(1.0, 255.0, size=(1031, 515))
    assert len(_strips._bounds(img.shape[0], img[0].nbytes)) > 1
    bank = "db4"
    idwt2(dwt2(img, bank), bank)
    full_report(img, img * 1.5, img)
    assert threading.active_count() == before


# (shape, bank): the transforms of 600x1100 and 1031x515 cut into several
# blocks of half-size rows, and their edge maps and 3x3 medians into
# several strips. At 16 KiB strips the 1031x515 db4 blocks are 1 half-size
# row, so each analysis block's 6-row trailing halo spans the next three
# blocks and each synthesis block's 3-row leading halo the previous three;
# on 2x2, 4x6 and 9x1 the halo wraps past the whole axis. Haar has no halo,
# so its 1031x515 windows are views of the arrays they read.
STRIP_CASES = [
    ((600, 1100), "db2"),
    ((1031, 515), "db4"),
    ((1031, 515), "haar"),
    ((2, 2), "db4"),
    ((4, 6), "db4"),
    ((9, 1), "db4"),
]


@pytest.mark.parametrize("strip_bytes", [1 << 14, 1 << 40])
def test_results_do_not_depend_on_strip_size(monkeypatch, strip_bytes):
    rng = np.random.default_rng(32)
    images = [
        (rng.uniform(0.0, 255.0, size=shape), name) for shape, name in STRIP_CASES
    ]

    def run():
        results = []
        for img, bank in images:
            sub = dwt2(img, bank)
            results += [sub.ca, sub.chd, sub.cvd, sub.cdd, idwt2(sub, bank)]
            results += [_diagonal_detail(img, bank), detect_edges(img)]
            if min(img.shape) >= 3:
                results.append(median_filter_homomorphic(img, 3))
        return results

    default = run()
    monkeypatch.setattr(_strips, "_STRIP_BYTES", strip_bytes)
    for got, want in zip(run(), default, strict=True):
        assert_array_equal(got, want)
