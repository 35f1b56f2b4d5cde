"""Every message the package raises on inputs of the right type, in one table.

A row is a call on concrete data, the exception class it raises and its
whole message, which names the problem. The argument and image tables
(``test_arguments.py``) and the CLI error table (``test_cli.py``) hold the
other messages, and ``test_every_raise_has_a_row`` checks that the three
tables assert each message that a ``raise`` of the package builds.
"""

import ast
import re
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from despeckle.image import PgmError, as_image, exp_domain, log_domain, read_f64, read_pgm
from despeckle.image import subtract, write_f64
from despeckle.metrics import deflection_ratio, enl_blocked, full_report, msd
from despeckle.metrics import nearest_edge_distances, nmv_nv_nsd, pratt_fom
from despeckle.pipeline import calibrate, despeckle, initial_threshold, lee_filter
from despeckle.pipeline import median_filter_homomorphic
from despeckle.speckle import KINDS, SpeckleSpec, apply_speckle
from despeckle.thresholding import mad_sigma, universal_threshold
from despeckle.wavelet import Subbands

import test_arguments
import test_cli


class Row(NamedTuple):
    id: str
    call: Callable[[], object]
    error: type
    message: str


# Malformed file data: each message names the byte offset. Header fields
# are ASCII decimal, without int()'s signs and digit separators.
FILES = {
    "pgm-magic": (b"P4\n2 2\n255\n" + bytes(4), "expected magic 'P5' at byte 0, got b'P4'"),
    "pgm-header-ends-in-comment": (b"P5 2 1 #c", "unexpected end of header at byte 9"),
    "pgm-width-xy": (b"P5\nxy 2\n255\n" + bytes(4), "invalid width b'xy' at byte 3"),
    "pgm-width-underscore": (b"P5\n1_0 1\n255\n" + bytes(10), "invalid width b'1_0' at byte 3"),
    "pgm-width-plus": (b"P5\n+2 1\n255\n" + bytes(2), "invalid width b'+2' at byte 3"),
    "pgm-height-minus": (b"P5\n2 -1\n255\n" + bytes(2), "invalid height b'-1' at byte 5"),
    "pgm-maxval-underscore": (b"P5\n2 1\n2_55\n" + bytes(2), "invalid maxval b'2_55' at byte 7"),
    "pgm-zero-width": (b"P5 0 1 255\n", "width must be positive, got 0 at byte 3"),
    "pgm-maxval-65536": (b"P5\n1 1\n65536\n" + bytes(2),
                         "maxval 65536 out of range (> 65535) in header ending at byte 12"),
    "pgm-no-whitespace": (b"P5 1 1 255#x\n\x00", "missing whitespace before samples at byte 10"),
    "pgm-truncated": (b"P5\n2 2\n255\n" + bytes([1, 2, 3]),
                      "truncated payload at byte 14: expected 4 bytes, got 3"),
    "pgm-trailing": (b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4, 5]),
                     "1 unexpected byte(s) after the last sample at byte 15"),
    "pgm-above-maxval-8bit": (b"P5\n2 2\n200\n" + bytes([0, 200, 201, 7]),
                              "sample 201 exceeds maxval 200 at byte 13"),
    "pgm-above-maxval-16bit": (b"P5\n2 1\n1000\n" + bytes([0x03, 0xE8, 0x03, 0xE9]),
                               "sample 1001 exceeds maxval 1000 at byte 14"),
    "f64-magic": (b"F32\n1 1\n" + bytes(8), "expected magic 'F64\\n' at byte 0, got b'F32\\n'"),
    "f64-unterminated": (b"F64\n1 1", "unterminated F64 dimension line at byte 7"),
    "f64-one-field": (b"F64\n1\n" + bytes(8), "expected '<rows> <cols>' at byte 4, got b'1'"),
    "f64-plus-underscore": (b"F64\n+1 0_1\n" + bytes(8),
                            "invalid F64 dimensions b'+1 0_1' at byte 4"),
    "f64-underscore": (b"F64\n1_0 1\n" + bytes(80), "invalid F64 dimensions b'1_0 1' at byte 4"),
    "f64-minus": (b"F64\n-1 1\n" + bytes(8), "invalid F64 dimensions b'-1 1' at byte 4"),
    "f64-zero": (b"F64\n0 1\n", "F64 dimensions must be positive, got 0x1 at byte 4"),
    "f64-truncated": (b"F64\n2 2\n" + bytes(8),
                      "truncated payload at byte 16: expected 32 bytes, got 8"),
    "f64-trailing": (write_f64(np.zeros((1, 2))) + b"\n",
                     "1 unexpected byte(s) after the last sample at byte 24"),
    "f64-nan": (b"F64\n2 3\n" + np.array([0, 1, 2, 3, 4, np.nan]).astype("<f8").tobytes(),
                "non-finite sample nan at byte 48"),
    "f64-inf": (b"F64\n2 3\n" + np.array([np.inf, 1, 2, 3, 4, 5]).astype("<f8").tobytes(),
                "non-finite sample inf at byte 8"),
}
READERS = {"pgm": read_pgm, "f64": read_f64}

# finite gray levels whose squares overflow float64
HUGE, HUGE_1 = (np.random.default_rng(seed).uniform(1.0, 2.0, (64, 64)) * 1e160 for seed in (0, 1))
# 4x4 tiles of +-1e160 in a checkerboard: every tile's mean is exactly 0 and
# its variance overflows, so its ratio would read 0
CHECKERBOARD = np.where(np.indices((8, 8)).sum(axis=0) % 2 == 0, 1e160, -1e160)
GAMMA_1E160 = np.random.default_rng(41).gamma(3.0, 1.0 / 3.0, (16, 16)) * 1e160
# A figure that overflows on finite pixels names itself, and must not come
# back as inf, NaN or a plausible 0.0.
OVERFLOWS = {
    "exp_domain": ("exp_domain", lambda: exp_domain(np.array([[1e4]]))),
    "nmv": ("NMV", lambda: nmv_nv_nsd(np.full((64, 64), 1e305))),
    "nv": ("NV", lambda: nmv_nv_nsd(HUGE)),
    "msd": ("MSD", lambda: msd(HUGE, HUGE_1)),
    "enl": ("ENL", lambda: enl_blocked(HUGE, 16)),
    # means of 1.5e154 whose squares overflow over variances that do not
    "enl-mean-squared": ("ENL", lambda: enl_blocked(HUGE * 1e-6, 16)),
    "enl-variance": ("ENL", lambda: enl_blocked(CHECKERBOARD, 4)),
    # DR's statistics come from nmv_nv_nsd, which names the figure that
    # overflowed; standardizing by a tiny NSD overflows DR itself
    "dr-stats": ("NV", lambda: deflection_ratio(HUGE, HUGE_1)),
    "dr": ("DR", lambda: deflection_ratio(np.full((1, 2), 1e300), np.array([[0.0, 2e-10]]))),
    "universal-threshold": ("universal threshold", lambda: universal_threshold(1e308, 10)),
    # a NaN variance would turn every gain into 0 and return the local mean
    "lee": ("Lee local variance", lambda: lee_filter(GAMMA_1E160, 3, 0.0)),
    # finite gray levels near float64's maximum overflow where speckle exceeds 1.06
    **{f"apply_speckle-{kind}": ("speckled image", lambda kind=kind: apply_speckle(
        np.full((4, 4), 1.7e308), SpeckleSpec(kind, seed=1))) for kind in KINDS},
    "calibrate": ("speckled image",
                  lambda: calibrate(np.full((8, 8), 1.7e308), SpeckleSpec("rayleigh", seed=1))),
}
# A variance or MSD of pixels that differ must not come back as an exact 0.0:
# distinct gray levels in [low, 2 low) whose deviations square below the
# smallest subnormal
TINY, TINIER = (np.random.default_rng(0).uniform(v, 2 * v, (50, 50)) for v in (1e-170, 1e-310))
UNDERFLOWS = {
    "nv": ("NV", lambda: nmv_nv_nsd(TINY)),
    "enl": ("ENL", lambda: enl_blocked(TINY)),
    "dr-stats": ("NV", lambda: deflection_ratio(TINY, TINY)),
    "msd": ("MSD", lambda: msd(TINIER, 1.5 * TINIER)),
}

ONE_D, NEGATIVE = np.full(9, 10.0), np.where(np.eye(4), -1.0, 10.0)
SHAPE = "image must be a non-empty 2-D array, got shape {}"
LOG_NEGATIVE = "log_domain requires non-negative pixels"
SPECKLE_NEGATIVE = "apply_speckle requires non-negative pixels"
TOO_SMALL = ("image (2, 2) is too small to seed the threshold: the 'cdd' subband holds "
             "1 coefficient(s), need at least 2")
BLOCKS = {name: np.zeros((2, 2)) for name in ("ca", "chd", "cvd", "cdd")}
EMPTY = np.zeros((4, 4), dtype=bool)
IDEAL_ROW = np.arange(16).reshape(4, 4) < 4
# Edges at the last and the first pixel: a 3-D pair read with its last axis as
# columns gave 7.62 for the true distance sqrt(19) = 4.36; a 1-D pair raised IndexError
FLAT = np.arange(8) == 7, np.arange(8) == 0
CUBE = np.arange(32).reshape(2, 4, 4) == 31, np.arange(32).reshape(2, 4, 4) == 0
# cast to bool, each of these values would make every pixel an edge
NOT_EDGES = {"nan": np.nan, "0.5": 0.5, "2": 2, "-1": -1, "1j": 1j, "str": "no"}
V = ValueError

ROWS = [
    *(Row(name, lambda data=data, read=READERS[name[:3]]: read(data), PgmError, message)
      for name, (data, message) in FILES.items()),
    *(Row(f"{name}-overflow", call, OverflowError, f"{figure} overflowed to a non-finite value")
      for name, (figure, call) in OVERFLOWS.items()),
    *(Row(f"{name}-underflow", call, V, f"{figure} underflowed to 0 on pixels that differ")
      for name, (figure, call) in UNDERFLOWS.items()),
    # images of the wrong shape, or with negative pixels
    Row("as_image-1-D", lambda: as_image(np.zeros(4)), V, SHAPE.format((4,))),
    Row("as_image-empty", lambda: as_image(np.zeros((0, 3))), V, SHAPE.format((0, 3))),
    Row("exp_domain-1-D", lambda: exp_domain(np.zeros(4)), V, SHAPE.format((4,))),
    Row("despeckle-1-D", lambda: despeckle(ONE_D, 1.0), V, SHAPE.format((9,))),
    Row("initial_threshold-1-D", lambda: initial_threshold(ONE_D), V, SHAPE.format((9,))),
    Row("calibrate-1-D", lambda: calibrate(ONE_D, SpeckleSpec()), V, SHAPE.format((9,))),
    Row("log_domain-negative", lambda: log_domain(np.array([[-1.0]])), V, LOG_NEGATIVE),
    Row("despeckle-negative", lambda: despeckle(NEGATIVE, 1.0), V, LOG_NEGATIVE),
    Row("initial_threshold-negative", lambda: initial_threshold(NEGATIVE), V, LOG_NEGATIVE),
    # calibrate speckles its clean reference before the log, and scales by its peak
    Row("calibrate-negative", lambda: calibrate(NEGATIVE, SpeckleSpec()), V, SPECKLE_NEGATIVE),
    Row("apply_speckle-negative",
        lambda: apply_speckle(np.array([[-1.0, 2.0]]), SpeckleSpec()), V, SPECKLE_NEGATIVE),
    Row("calibrate-zero", lambda: calibrate(np.zeros((8, 8)), SpeckleSpec()), V,
        "clean reference is identically zero"),
    # shapes that differ
    Row("subtract-shapes", lambda: subtract(np.zeros((2, 2)), np.zeros((2, 3))), V,
        "shape mismatch: (2, 2) vs (2, 3)"),
    Row("msd-shapes", lambda: msd(np.zeros((2, 2)), np.zeros((3, 2))), V,
        "shape mismatch: (2, 2) vs (3, 2)"),
    Row("deflection_ratio-shapes", lambda: deflection_ratio(
        np.ones((2, 2)), np.random.default_rng(26).uniform(0, 255, (2, 3))), V,
        "shape mismatch: (2, 2) vs (2, 3)"),
    Row("full_report-shapes",
        lambda: full_report(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 5))), V,
        "shape mismatch: (4, 4), (4, 4), (4, 5)"),
    Row("Subbands-blocks", lambda: Subbands(**BLOCKS | {"chd": np.zeros((2, 3))}, shape=(4, 4)),
        V, "subband blocks must share dimensions, got "
        "ca (2, 2), chd (2, 3), cvd (2, 2), cdd (2, 2)"),
    Row("Subbands-shape", lambda: Subbands(**BLOCKS, shape=(5, 4)), V,
        "image shape (5, 4) does not match subband blocks (2, 2)"),
    *(Row(f"{filt.__name__}-kernel-33", lambda filt=filt: filt(np.ones((16, 16)), 33), V,
          "kernel 33 larger than image (16, 16)")
      for filt in (median_filter_homomorphic, lee_filter)),
    # images too small or too flat for a figure or a seed
    Row("enl-constant", lambda: enl_blocked(np.full((50, 50), 3.0), 25), V,
        "all 4 tiles are constant; ENL undefined"),
    Row("enl-smaller-than-block", lambda: enl_blocked(np.zeros((10, 10)), 25), V,
        "image (10, 10) smaller than one 25x25 block"),
    Row("full_report-smaller-than-block",
        lambda: full_report(*[np.arange(400.0).reshape(20, 20)] * 3), V,
        "image (20, 20) smaller than one 25x25 block"),
    Row("dr-constant-source", lambda: deflection_ratio(np.ones((4, 4)), np.ones((4, 4))), V,
        "stats source has zero standard deviation"),
    Row("initial_threshold-too-small", lambda: initial_threshold(np.full((2, 2), 10.0)), V,
        TOO_SMALL),
    Row("calibrate-too-small",
        lambda: calibrate(np.full((2, 2), 10.0), SpeckleSpec("gamma", 3, 1)), V, TOO_SMALL),
    Row("mad_sigma-empty", lambda: mad_sigma([]), V,
        "mad_sigma requires a non-empty coefficient sequence"),
    Row("mad_sigma-inf", lambda: mad_sigma([1.0, np.inf]), V,
        "mad_sigma requires finite coefficients"),
    # edge maps
    Row("pratt_fom-both-empty", lambda: pratt_fom(EMPTY, EMPTY), V, "both edge maps are empty"),
    Row("pratt_fom-ideal-empty", lambda: pratt_fom(np.arange(16).reshape(4, 4) == 0, EMPTY), V,
        "ideal edge map is empty"),
    Row("nearest-ideal-empty",
        lambda: nearest_edge_distances(np.ones((3, 3), bool), np.zeros((3, 3), bool)), V,
        "ideal edge map is empty"),
    Row("edge-map-shapes", lambda: pratt_fom(np.ones((2, 2), bool), np.ones((2, 3), bool)), V,
        "shape mismatch: (2, 2) vs (2, 3)"),
    *(Row(f"{figure.__name__}-{name}", lambda figure=figure, maps=maps: figure(*maps), V,
          f"edge maps must be 2-D, got shape {maps[0].shape}")
      for figure in (nearest_edge_distances, pratt_fom)
      for name, maps in (("1-D", FLAT), ("3-D", CUBE))),
    *(Row(f"{figure.__name__}-{name}-{value_id}", lambda figure=figure, maps=maps: figure(*maps),
          V, f"{name} edge map must be boolean or hold only 0 and 1")
      for figure in (nearest_edge_distances, pratt_fom)
      for value_id, value in NOT_EDGES.items()
      for name, maps in (("detected", (np.full((4, 4), value), IDEAL_ROW)),
                         ("ideal", (IDEAL_ROW, np.full((4, 4), value))))),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_raises_its_whole_message(row):
    with pytest.raises(row.error) as raised:
        row.call()
    assert (type(raised.value), str(raised.value)) == (row.error, row.message)


def _asserted_messages():
    """Every message that the error, argument and CLI tables assert whole."""
    yield from (row.message for row in ROWS)
    rejections = (param.values for param in test_arguments._rejections())
    yield from (row.message.format(repr(value)) for row, value in rejections)
    yield from test_arguments.TOO_LARGE.values()
    yield from (message for _, message in test_arguments.BAD_IMAGES.values())
    yield from (row.stderr[len("error: ") : -1] for row in test_cli.FAIL_ROWS if row.code == 1)


# Helpers that build a message around their first argument, a literal name
NAMERS = ("_finite", "_underflowed", "_check_size")
SRC = Path(__file__).resolve().parent.parent / "src" / "despeckle"


def _pattern(node, fields=None):
    """The whole-message regex of a str or f-string ``node`` (None for any
    other node): a field matches any text, or its pattern in ``fields``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return re.escape(node.value)
    if not isinstance(node, ast.JoinedStr):
        return None
    return "".join(
        re.escape(part.value) if isinstance(part, ast.Constant)
        else (fields or {}).get(getattr(part.value, "id", None), ".+")
        for part in node.values
    )


def _raise_sites():
    """``(file:line, pattern)`` of each message the package raises, with None
    for a message that is no literal."""
    nodes = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
    ]
    namers = {  # helper name -> (its parameter, its message's f-string)
        node.name: (
            node.args.args[0].arg, next(n for n in ast.walk(node) if isinstance(n, ast.JoinedStr))
        )
        for _, node in nodes
        if isinstance(node, ast.FunctionDef) and node.name in NAMERS
    }
    assert set(namers) == set(NAMERS)
    for name, node in nodes:
        call = node.exc if isinstance(node, ast.Raise) else node
        callee = getattr(getattr(call, "func", None), "id", None)
        args = getattr(call, "args", None) or [None]
        site = f"{name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Raise) and callee not in NAMERS:
            yield site, _pattern(args[0])
        elif isinstance(node, ast.Call) and callee in NAMERS:
            parameter, message = namers[callee]
            literal = _pattern(args[0])
            yield site, literal and _pattern(message, {parameter: literal})


def test_every_raise_has_a_row():
    messages = set(_asserted_messages())
    missing = [
        f"{site}: {pattern or 'message is not a literal'}"
        for site, pattern in _raise_sites()
        if pattern is None or not any(re.fullmatch(pattern, m) for m in messages)
    ]
    assert not missing, "raise sites that no table asserts whole:\n" + "\n".join(missing)
