import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from despeckle.metrics import enl_blocked
from despeckle.speckle import KINDS, SpeckleSpec, _row_states, apply_speckle, generate_speckle


@pytest.mark.parametrize(
    "spec",
    [
        SpeckleSpec(kind="rayleigh", seed=101),
        SpeckleSpec(kind="exponential", seed=102),
        SpeckleSpec(kind="gamma", looks=3, seed=103),
    ],
)
def test_mean_one(spec):
    field = generate_speckle(1000, 1000, spec)
    assert field.mean() == pytest.approx(1.0, rel=0.005)


@pytest.mark.parametrize(
    "spec,variance",
    [
        (SpeckleSpec(kind="exponential", seed=201), 1.0),
        (SpeckleSpec(kind="rayleigh", seed=202), (4.0 - math.pi) / math.pi),
        (SpeckleSpec(kind="gamma", looks=3, seed=203), 1.0 / 3.0),
        (SpeckleSpec(kind="gamma", looks=8, seed=204), 1.0 / 8.0),
    ],
)
def test_variance(spec, variance):
    field = generate_speckle(1000, 1000, spec)
    assert field.var() == pytest.approx(variance, rel=0.02)


def test_determinism():
    spec = SpeckleSpec(kind="gamma", looks=4, seed=7)
    assert_array_equal(generate_speckle(32, 33, spec), generate_speckle(32, 33, spec))
    img = np.full((16, 16), 10.0)
    assert_array_equal(apply_speckle(img, spec), apply_speckle(img, spec))


def test_seeds_differ():
    a = generate_speckle(16, 16, SpeckleSpec(seed=1))
    b = generate_speckle(16, 16, SpeckleSpec(seed=2))
    assert not np.array_equal(a, b)


def test_fields_are_positive():
    for kind in ("rayleigh", "exponential", "gamma"):
        field = generate_speckle(64, 64, SpeckleSpec(kind=kind, looks=2, seed=5))
        assert np.all(field > 0)


def test_apply_speckle_zero_image():
    out = apply_speckle(np.zeros((8, 8)), SpeckleSpec(seed=3))
    assert_array_equal(out, np.zeros((8, 8)))


def test_apply_speckle_rejects_negative_pixels():
    with pytest.raises(ValueError):
        apply_speckle(np.array([[-1.0, 2.0]]), SpeckleSpec(seed=0))


def test_apply_speckle_unbiased_across_seeds():
    # 60k seeds put the per-pixel standard error near 0.24%, so the 1%
    # bound sits at ~4 sigma
    img = np.full((1, 2), 50.0)
    acc = np.zeros_like(img)
    n = 60_000
    for seed in range(n):
        acc += apply_speckle(img, SpeckleSpec(kind="gamma", looks=3, seed=seed))
    np.testing.assert_allclose(acc / n, img, rtol=0.01)


def test_speckled_constant_enl_matches_looks():
    img = np.full((256, 256), 100.0)
    noisy = apply_speckle(img, SpeckleSpec(kind="gamma", looks=3, seed=42))
    assert enl_blocked(noisy, 256) == pytest.approx(3.0, rel=0.10)


def test_spec_validation():
    with pytest.raises(ValueError):
        SpeckleSpec(kind="poisson")
    with pytest.raises(ValueError):
        SpeckleSpec(looks=0)
    with pytest.raises(ValueError):
        SpeckleSpec(seed=-1)
    for rows, cols, name, value in [
        (0, 4, "rows", 0),
        (4, -1, "cols", -1),
        (2.5, 3, "rows", 2.5),
        (True, 3, "rows", True),
        ("3", 3, "rows", "3"),
        (3, 4.0, "cols", 4.0),
        (3, False, "cols", False),
        (3, None, "cols", None),
    ]:
        message = f"{name} must be a positive integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_speckle(rows, cols, SpeckleSpec())
    assert_array_equal(
        generate_speckle(np.int64(2), np.uint16(3), SpeckleSpec()),
        generate_speckle(2, 3, SpeckleSpec()),
    )


def test_spec_accepts_numpy_integers_and_rejects_bool():
    spec = SpeckleSpec(kind="gamma", looks=np.int64(3), seed=np.int64(5))
    assert spec == SpeckleSpec(kind="gamma", looks=3, seed=5)
    assert type(spec.looks) is int and type(spec.seed) is int
    assert repr(spec) == repr(SpeckleSpec(kind="gamma", looks=3, seed=5))
    assert_array_equal(
        generate_speckle(8, 9, spec), generate_speckle(8, 9, SpeckleSpec(looks=3, seed=5))
    )
    assert_array_equal(
        generate_speckle(8, 9, SpeckleSpec(seed=np.uint64(7))),
        generate_speckle(8, 9, SpeckleSpec(seed=7)),
    )
    with pytest.raises(ValueError, match="looks must be a positive integer, got True"):
        SpeckleSpec(looks=True)
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer, got True"):
        SpeckleSpec(seed=True)


@pytest.mark.parametrize(
    "kind",
    [np.array("gamma"), np.array(["gamma", "rayleigh"]), None, ["gamma"]],
    ids=["0-d array", "2-element array", "None", "list"],
)
def test_spec_rejects_non_string_kind(kind):
    # a 0-d array equals "gamma" but does not hash, and a longer one compares
    # elementwise, so both are rejected before the membership test
    message = f"unknown speckle kind {repr(kind)}; supported: {KINDS}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SpeckleSpec(kind=kind)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("rows", [1, 2, 300])
def test_row_states_equal_numpy_spawned_pcg64(seed, rows):
    # the one-pass derivation must track numpy's own SeedSequence mixing
    # and PCG64 seeding; if either ever changes, the fields would drift
    expected = [
        np.random.PCG64(child).state["state"]
        for child in np.random.SeedSequence(seed).spawn(rows)
    ]
    assert _row_states(seed, rows) == [(s["state"], s["inc"]) for s in expected]


# Peak memory allocated while generating a 2048^2 field, above the field
# itself: one strip buffer of about 1 MiB plus the per-row states, never a
# multiple of the image (1.5-2.1 MiB measured).
@pytest.mark.parametrize("looks", [3, 20])
def test_speckle_working_set_is_bounded(looks):
    tracemalloc.start()
    try:
        field = generate_speckle(2048, 2048, SpeckleSpec(kind="gamma", looks=looks, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - field.nbytes) / 2**20 <= 2.5
