import math

import numpy as np
import pytest

from despeckle.speckle import KINDS, SpeckleSpec, apply_speckle, generate_speckle


@pytest.mark.parametrize(
    "spec,variance",
    [
        (SpeckleSpec(kind="exponential", seed=201), 1.0),
        (SpeckleSpec(kind="rayleigh", seed=202), (4.0 - math.pi) / math.pi),
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


IMAGES = [np.random.default_rng(7).uniform(0.0, 255.0, size=(9, 13)), np.zeros((8, 8))]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("img", IMAGES, ids=["textured", "zero"])
def test_apply_speckle_is_the_image_times_its_field(img, kind, seed):
    spec = SpeckleSpec(kind=kind, seed=seed)
    expected = img * generate_speckle(*img.shape, spec)
    assert apply_speckle(img, spec).tobytes() == expected.tobytes()
