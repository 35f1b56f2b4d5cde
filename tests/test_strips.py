import contextlib
import inspect
import io
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from despeckle import _strips, cli
from despeckle.image import write_pgm
from despeckle.metrics import detect_edges, full_report
from despeckle.pipeline import calibrate
from despeckle.speckle import SpeckleSpec, apply_speckle
from despeckle.wavelet import bank_by_name, dwt2, idwt2


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "despeckle" or name.startswith("despeckle."))
    ]


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
    bank = bank_by_name("db4")
    idwt2(dwt2(img, bank), bank)
    full_report(img, img * 1.5, img)
    assert threading.active_count() == before


def test_strip_functions_are_private(monkeypatch):
    # The benchmark's tracer wraps every public package function; a public
    # strip function would count one span per strip.
    helper = _strips._for_each_strip
    strip_functions = []

    def recording(fn, lines, line_bytes):
        strip_functions.append(fn)
        return helper(fn, lines, line_bytes)

    for mod in _package_modules():
        for attr, obj in list(vars(mod).items()):
            if obj is helper:
                monkeypatch.setattr(mod, attr, recording)

    rng = np.random.default_rng(31)
    img = rng.uniform(1.0, 255.0, size=(1031, 515))
    bank = bank_by_name("db4")
    idwt2(dwt2(img, bank), bank)
    detect_edges(img)
    full_report(img, img * 1.5, img)
    assert len(strip_functions) >= 5
    assert all(fn.__name__.startswith("_") for fn in strip_functions)
    exported = {id(obj) for mod in _package_modules() for obj in vars(mod).values()}
    assert not exported & {id(fn) for fn in strip_functions}
    assert not [
        name
        for name, obj in vars(_strips).items()
        if inspect.isfunction(obj) and obj.__module__ == _strips.__name__ and name[0] != "_"
    ]


@pytest.mark.parametrize("strip_bytes", [1 << 14, 1 << 40])
def test_results_do_not_depend_on_strip_size(monkeypatch, strip_bytes):
    rng = np.random.default_rng(32)
    img = rng.uniform(0.0, 255.0, size=(600, 1100))
    bank = bank_by_name("db2")

    def run():
        sub = dwt2(img, bank)
        return (sub.ca, sub.chd, sub.cvd, sub.cdd, idwt2(sub, bank), detect_edges(img))

    default = run()
    monkeypatch.setattr(_strips, "_STRIP_BYTES", strip_bytes)
    for got, want in zip(run(), default):
        assert_array_equal(got, want)
