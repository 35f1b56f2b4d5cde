import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from despeckle.thresholding import (
    hard_threshold,
    mad_sigma,
    soft_threshold,
    universal_threshold,
)


def test_mad_sigma_direct():
    # median of |{1,-2,3,-4,5}| is 3
    assert mad_sigma([1.0, -2.0, 3.0, -4.0, 5.0]) == pytest.approx(3.0 / 0.6745, rel=1e-12)


def test_mad_sigma_zero_and_even_length():
    assert mad_sigma(np.zeros(10)) == 0.0
    # even length: mean of the two central order statistics of |coeffs|
    assert mad_sigma([1.0, 3.0]) == pytest.approx(2.0 / 0.6745, rel=1e-12)


def test_mad_sigma_scale_equivariant():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(101)
    assert mad_sigma(-3.5 * v) == pytest.approx(3.5 * mad_sigma(v), rel=1e-12)


def test_universal_threshold_values():
    est = universal_threshold(4.447739, 5)
    assert est.lam == pytest.approx(4.447739 * math.sqrt(2.0 * math.log(5)), rel=1e-12)
    assert universal_threshold(0.0, 100).lam == 0.0
    # algebraic identity lam^2 = 2 sigma^2 ln n
    est = universal_threshold(1.0, 1000)
    assert est.lam**2 == pytest.approx(2.0 * math.log(1000), rel=1e-12)


def test_universal_threshold_monotone():
    lam = lambda d, n: universal_threshold(d, n).lam
    assert lam(1.0, 10) < lam(2.0, 10)
    assert lam(1.0, 10) < lam(1.0, 100)


def test_hard_threshold_cases():
    x = np.array([1.5, 3.0, -2.0, -3.0, 2.0])
    assert_array_equal(hard_threshold(x, 2.0), [0.0, 3.0, 0.0, -3.0, 0.0])


def test_soft_threshold_cases():
    x = np.array([3.0, -3.0, 1.0, 2.0, -2.0])
    assert_array_equal(soft_threshold(x, 2.0), [1.0, -1.0, 0.0, 0.0, 0.0])


def test_boundary_maps_to_zero():
    # |x| == lam zeroes under both shrinkers
    assert hard_threshold(np.array([-2.0]), 2.0)[0] == 0.0
    assert soft_threshold(np.array([-2.0]), 2.0)[0] == 0.0


def test_shrinker_ordering_and_monotonicity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(10_000) * 3.0
    lam = 1.1
    hard = hard_threshold(x, lam)
    soft = soft_threshold(x, lam)
    assert np.all(np.abs(soft) <= np.abs(hard) + 1e-15)
    assert np.all(np.abs(hard) <= np.abs(x) + 1e-15)
    # monotone nondecreasing in x
    xs = np.sort(x)
    for shrink in (hard_threshold, soft_threshold):
        ys = shrink(xs, lam)
        assert np.all(np.diff(ys) >= -1e-15)
