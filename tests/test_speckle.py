import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from despeckle.metrics import enl_blocked
from despeckle.speckle import SpeckleSpec, _row_states, apply_speckle, generate_speckle


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
