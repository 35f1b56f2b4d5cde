"""Every argument rule of the public API, in two tables.

A row is one public callable and one of its number- or name-valued
parameters: a call that passes a value for it, the rule's message with
``{}`` where the value's repr goes, the kind of value the rule asks for,
the out-of-range values of that row alone, and one value it takes.

Every row must reject the shared values and those of its kind with a
``ValueError`` whose whole message is the row's, naming the value. A real
row must give the same bytes for numpy floats (and a Python int) as for
the Python float of equal value, an integer row the same for numpy
integers as for the Python int. The size rows reject 2**62, whose float64
array numpy cannot index, with a message of its own.

The image table has a row per public callable and image parameter. Every
row must reject the shared bad images with the whole message of each, and
give integer and float32 images the bytes of the equal float64 image.
"""

import math
import pickle
from typing import Callable, NamedTuple

import numpy as np
import pytest

from despeckle.fuzzy import control_step, fuzzify, output_surface, scalarize
from despeckle.image import as_image, exp_domain, log_domain, subtract, write_f64, write_pgm
from despeckle.metrics import (
    deflection_ratio,
    detect_edges,
    enl_blocked,
    full_report,
    msd,
    nmv_nv_nsd,
    pratt_fom,
)
from despeckle.pipeline import (
    PipelineConfig,
    calibrate,
    despeckle,
    initial_threshold,
    lee_filter,
    median_filter_homomorphic,
)
from despeckle.speckle import KINDS, SpeckleSpec, apply_speckle, generate_speckle
from despeckle.thresholding import hard_threshold, soft_threshold, universal_threshold
from despeckle.wavelet import dwt2, idwt2

from conftest import make_phantom

CLEAN = make_phantom(32)
GAMMA = SpeckleSpec(kind="gamma", looks=3, seed=0)
NOISY = CLEAN * generate_speckle(32, 32, GAMMA)
EDGES, IDEAL = detect_edges(NOISY), detect_edges(CLEAN)
COEFFS = np.linspace(-2.0, 2.0, 9)
SOFT = PipelineConfig(shrink="soft")
HAAR = dwt2(NOISY, "haar")

# Values that no argument takes (but for None, calibrate's default epsilon):
# each row rejects every one that it does not take. A 0-d array is no
# scalar, whatever its dtype.
SHARED = {
    "str": "1",
    "None": None,
    "True": True,
    "np.True_": np.True_,
    "list": [1],
    "-huge": -(10**400),
    "nan": math.nan,
    "np.float64(nan)": np.float64(math.nan),
    "1j": 1j,
    "0-d array": np.array(1.0),
}
# Values that a rule of each kind rejects besides. 10**400 is a real that no
# float holds, but an integer that max_iter and n take (calibrate and
# universal_threshold return results for it), so it is an own value of the
# integer rows that reject it: looks, seed, the field sizes, the kernels,
# grid_n and maxval.
BY_KIND = {
    "real": {"huge": 10**400},
    "name": {"huge": 10**400},
    "integer": {"2.5": 2.5, "3.0": 3.0, "np.float64(3.0)": np.float64(3.0)},
}
# Scalar types that each kind of row takes: each must give the bytes of the
# Python value it converts to.
ACCEPTED = {"real": (np.float32, np.float64, int), "integer": (np.int64, np.uint16, np.uint64)}
PYTHON = {"real": float, "integer": int}


class Row(NamedTuple):
    id: str
    call: Callable
    message: str
    kind: str
    own: tuple = ()
    good: object = None
    takes: tuple = ()  # ids of shared values that the row takes


def _spec(**fields):
    spec = SpeckleSpec(**fields)
    return repr(spec), spec, generate_speckle(8, 9, spec)


THRESHOLD = "threshold must be a non-negative number, got {}"
TAU = "tau must lie in (0, 1), got {}"
ALPHA = "alpha must be positive and finite, got {}"
MEMBERSHIP = "membership input must be a number, got {}"
KERNEL = "kernel must be an odd integer >= 3, got {}"
BLOCK = "block must be >= 2, got {}"
WAVELET = "unknown wavelet {}; supported: haar, db2, db4"
INF = math.inf

ROWS = [
    Row("despeckle-lambda_star", lambda v: despeckle(NOISY, v), THRESHOLD,
        "real", (-1.0, INF, -INF), 1.0),
    Row("despeckle-soft-lambda_star", lambda v: despeckle(NOISY, v, SOFT), THRESHOLD,
        "real", (-1.0, INF), 1.0),
    Row("hard_threshold-lam", lambda v: hard_threshold(COEFFS, v), THRESHOLD,
        "real", (-1.0, INF), 1.0),
    Row("soft_threshold-lam", lambda v: soft_threshold(COEFFS, v), THRESHOLD,
        "real", (-0.5, INF), 1.0),
    Row("universal_threshold-delta_mad", lambda v: universal_threshold(v, 10),
        "delta_mad must be a non-negative finite real, got {}", "real", (-1.0, INF), 0.5),
    Row("lee_filter-noise_var_ratio", lambda v: lee_filter(NOISY, 3, v),
        "noise_var_ratio must be a non-negative real, got {}", "real", (-0.1, INF), 1.0),
    Row("calibrate-epsilon", lambda v: calibrate(CLEAN, GAMMA, epsilon=v),
        "epsilon must be positive and finite, got {}", "real", (-1.0, 0.0, INF), 2.0,
        takes=("None",)),  # the default: 2% of the clean image's peak
    Row("detect_edges-tau", lambda v: detect_edges(NOISY, v), TAU,
        "real", (0.0, 1.0, 1.5, -0.5), 0.25),
    Row("full_report-tau", lambda v: full_report(CLEAN, NOISY, NOISY, block=8, tau=v), TAU,
        "real", (0.0, 1.0, 1.5), 0.25),
    Row("pratt_fom-alpha", lambda v: pratt_fom(EDGES, IDEAL, v), ALPHA,
        "real", (0.0, -1.0, INF), 0.5),
    Row("full_report-alpha", lambda v: full_report(CLEAN, NOISY, NOISY, block=8, alpha=v), ALPHA,
        "real", (0.0, -1.0, INF), 0.5),
    Row("fuzzify-u", fuzzify, MEMBERSHIP, "real", (), 0.25),
    Row("control_step-e", lambda v: control_step(v, 0.5), MEMBERSHIP, "real", (), 0.25),
    Row("control_step-de", lambda v: control_step(0.5, v), MEMBERSHIP, "real", (), 0.25),
    Row("calibrate-max_iter", lambda v: calibrate(CLEAN, GAMMA, max_iter=v),
        "max_iter must be a positive integer, got {}", "integer", (0, -1), 3),
    Row("SpeckleSpec-looks", lambda v: _spec(looks=v),
        "looks must be a positive integer below 2**63, got {}", "integer", (0, -1, 10**400), 3),
    Row("SpeckleSpec-seed", lambda v: _spec(seed=v),
        "seed must be an unsigned 64-bit integer, got {}", "integer", (-1, 2**64, 10**400), 5),
    Row("generate_speckle-rows", lambda v: generate_speckle(v, 9, GAMMA),
        "rows must be a positive integer below 2**63, got {}", "integer",
        (0, -1, 2**63, 10**400), 8),
    Row("generate_speckle-cols", lambda v: generate_speckle(8, v, GAMMA),
        "cols must be a positive integer below 2**63, got {}", "integer",
        (0, -1, False, 10**400), 9),
    Row("median_filter_homomorphic-kernel", lambda v: median_filter_homomorphic(NOISY, v),
        KERNEL, "integer", (4, 2, 1, -3, 4.5, 10**400), 3),
    Row("lee_filter-kernel", lambda v: lee_filter(NOISY, v), KERNEL,
        "integer", (4, 2, 1, -3, 4.5, 10**400), 5),
    Row("universal_threshold-n", lambda v: universal_threshold(1.0, v),
        "n must be >= 2, got {}", "integer", (1, 0), 10),
    Row("enl_blocked-block", lambda v: enl_blocked(NOISY, v), BLOCK, "integer", (1, 0), 8),
    Row("full_report-block", lambda v: full_report(CLEAN, NOISY, NOISY, block=v), BLOCK,
        "integer", (1, 0), 8),
    Row("output_surface-grid_n", output_surface,
        "grid_n must be >= 2 and below 2**63, got {}", "integer", (1, 0, 10**400), 5),
    Row("write_pgm-maxval", lambda v: write_pgm(NOISY, v),
        "maxval must be 255 or 65535, got {}", "integer", (1024, 0, 254, 256, 65536, 10**400), 255),
    Row("PipelineConfig-wavelet", lambda v: PipelineConfig(wavelet=v), WAVELET,
        "name", ("db15", ("haar",), ["haar"], np.array("haar"))),
    Row("PipelineConfig-shrink", lambda v: PipelineConfig(shrink=v),
        "shrink must be one of ('hard', 'soft'), got {}", "name", ("firm", ("hard",), ["hard"])),
    Row("dwt2-wavelet", lambda v: dwt2(NOISY, v), WAVELET, "name", ("sym4", ("haar",), ["haar"])),
    Row("idwt2-wavelet", lambda v: idwt2(HAAR, v), WAVELET, "name", ("sym4", ("haar",), ["haar"])),
    Row("SpeckleSpec-kind", lambda v: SpeckleSpec(kind=v),
        f"unknown speckle kind {{}}; supported: {KINDS}", "name",
        ("poisson", np.array("gamma"), np.array(["gamma", "rayleigh"]), ["gamma"])),
]


def _rejections():
    for row in ROWS:
        values = {**SHARED, **BY_KIND[row.kind], **{repr(v): v for v in row.own}}
        for value_id, value in values.items():
            if value_id not in row.takes:
                yield pytest.param(row, value, id=f"{row.id}-{value_id}")


def _acceptances():
    for row in ROWS:
        for scalar_type in ACCEPTED.get(row.kind, ()):
            # a Python int stands in for a real only where it holds the value
            value = scalar_type(row.good)
            if value == row.good:
                yield pytest.param(row, value, id=f"{row.id}-{scalar_type.__name__}")


@pytest.mark.parametrize("row, value", _rejections())
def test_rejected_argument_is_named_in_the_rules_message(row, value):
    with pytest.raises(ValueError) as raised:
        row.call(value)
    assert str(raised.value) == row.message.format(repr(value))


# 2**62 passes the size rules, but the float64 array that it asks for has
# more bytes than numpy can index, whose own error names no argument.
TOO_LARGE = {
    row_id: f"{what} = {shape} is larger than a float64 array that numpy can index"
    for row_id, what, shape in [
        ("SpeckleSpec-looks", "one row's uniforms (looks, cols)", (2**62, 9)),
        ("generate_speckle-rows", "field (rows, cols)", (2**62, 9)),
        ("generate_speckle-cols", "field (rows, cols)", (8, 2**62)),
        ("output_surface-grid_n", "surface (grid_n, grid_n)", (2**62, 2**62)),
    ]
}


@pytest.mark.parametrize(
    "row", [pytest.param(row, id=f"{row.id}-2**62") for row in ROWS if row.id in TOO_LARGE]
)
def test_size_numpy_cannot_index_names_its_arguments(row):
    with pytest.raises(ValueError) as raised:
        row.call(2**62)
    assert str(raised.value) == TOO_LARGE[row.id]


@pytest.mark.parametrize("row, value", _acceptances())
def test_numpy_scalar_gives_the_bytes_of_the_python_value(row, value):
    expected = row.call(PYTHON[row.kind](value))
    assert pickle.dumps(row.call(value)) == pickle.dumps(expected)


DTYPE = "image must hold integers or floats, got dtype {}"
OBJECT = "image of dtype object must hold only reals that float64 holds"
MASKED = "image must not be a masked array; fill its masked pixels first"
BAD_IMAGES = {
    "bool": (NOISY > 100.0, DTYPE.format("bool")),
    "complex": (NOISY + 0j, DTYPE.format("complex128")),
    "str": (np.full((32, 32), "1"), DTYPE.format("<U1")),
    "datetime64": (np.zeros((32, 32), "datetime64[D]"), DTYPE.format("datetime64[D]")),
    "timedelta64": (np.zeros((32, 32), "timedelta64[s]"), DTYPE.format("timedelta64[s]")),
    "None": (np.full((32, 32), None), OBJECT),
    "list-huge-int": ([[10**400] * 32] * 32, OBJECT),
    "masked": (np.ma.masked_less(NOISY, 50.0), MASKED),
    "nan": (np.where(np.eye(32), np.nan, NOISY), "image contains non-finite pixel values"),
}
if np.finfo(np.longdouble).max > np.finfo(np.float64).max:  # where long double is wider
    BAD_IMAGES["longdouble"] = (
        np.full((32, 32), np.longdouble("1e400")), "image pixel values lie beyond float64's range"
    )
IMAGE_ROWS = {
    "as_image": as_image,
    "write_pgm": write_pgm,
    "write_f64": write_f64,
    "log_domain": log_domain,
    "exp_domain": exp_domain,
    "subtract-a": lambda v: subtract(v, NOISY),
    "subtract-b": lambda v: subtract(NOISY, v),
    "scalarize": scalarize,
    "nmv_nv_nsd": nmv_nv_nsd,
    "msd-reference": lambda v: msd(v, NOISY),
    "msd-candidate": lambda v: msd(NOISY, v),
    "enl_blocked": lambda v: enl_blocked(v, 8),
    "deflection_ratio-candidate": lambda v: deflection_ratio(v, NOISY),
    "deflection_ratio-stats_source": lambda v: deflection_ratio(NOISY, v),
    "detect_edges": detect_edges,
    "full_report-clean": lambda v: full_report(v, NOISY, NOISY, block=8),
    "full_report-noisy": lambda v: full_report(CLEAN, v, NOISY, block=8),
    "full_report-despeckled": lambda v: full_report(CLEAN, NOISY, v, block=8),
    "initial_threshold": initial_threshold,
    "calibrate": lambda v: calibrate(v, GAMMA),
    "despeckle": lambda v: despeckle(v, 1.0),
    "median_filter_homomorphic": median_filter_homomorphic,
    "lee_filter": lee_filter,
    "apply_speckle": lambda v: apply_speckle(v, GAMMA),
    "dwt2": lambda v: dwt2(v, "haar"),
}


@pytest.mark.parametrize(
    "call, img, message",
    [
        pytest.param(call, img, message, id=f"{row_id}-{image_id}")
        for row_id, call in IMAGE_ROWS.items()
        for image_id, (img, message) in BAD_IMAGES.items()
    ],
)
def test_bad_image_is_rejected_with_its_message(call, img, message):
    with pytest.raises(ValueError) as raised:
        call(img)
    assert str(raised.value) == message


GRAY = np.clip(np.rint(NOISY), 0.0, 255.0)  # gray levels that every dtype below holds


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32])
@pytest.mark.parametrize("call", IMAGE_ROWS.values(), ids=IMAGE_ROWS)
def test_integer_and_float32_images_give_the_float64_bytes(call, dtype):
    assert pickle.dumps(call(GRAY.astype(dtype))) == pickle.dumps(call(GRAY))
