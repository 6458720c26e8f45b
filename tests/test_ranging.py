"""Range models: exact identity, noise statistics, clamping."""

import math

import numpy as np
import pytest

from anchorguard.geometry import Point2
from anchorguard.ranging import RangingModel, measure, measure_block, true_distance


def test_true_distance_345():
    assert true_distance(Point2(0, 0), Point2(3, 4)) == 5.0


def test_true_distance_same_point():
    assert true_distance(Point2(7, 7), Point2(7, 7)) == 0.0


def test_true_distance_area_diagonal():
    assert true_distance(Point2(0, 0), Point2(600, 600)) == pytest.approx(
        600.0 * math.sqrt(2.0), abs=1e-9
    )


def test_exact_is_identity():
    rng = np.random.default_rng(0)
    assert measure(42.0, RangingModel.exact(), rng) == 42.0


def test_zero_sigma_matches_exact_bitwise():
    rng = np.random.default_rng(0)
    for d in (0.0, 10.0, 123.456, 8e3):
        assert measure(d, RangingModel.gaussian(0.0), rng) == d
        assert measure(d, RangingModel.lognormal(0.0), rng) == d


def test_gaussian_sample_statistics():
    # 1e5 draws at sigma 1: the sample mean lands within 0.01 of the
    # true distance and the sample std within 0.01 of sigma.
    rng = np.random.default_rng(911)
    model = RangingModel.gaussian(1.0)
    draws = np.array([measure(10.0, model, rng) for _ in range(100_000)])
    assert 9.99 <= draws.mean() <= 10.01
    assert 0.99 <= draws.std(ddof=1) <= 1.01


def test_lognormal_sample_statistics():
    # Multiplicative noise is biased upward: the mean of d*exp(N(0, s))
    # is d*exp(s^2/2), about 113.31 for d=100, s=0.5.
    rng = np.random.default_rng(912)
    model = RangingModel.lognormal(0.5)
    draws = np.array([measure(100.0, model, rng) for _ in range(100_000)])
    assert 111.0 <= draws.mean() <= 116.0
    assert (draws > 0.0).all()


def test_gaussian_clamps_at_zero():
    rng = np.random.default_rng(7)
    model = RangingModel.gaussian(10.0)
    draws = [measure(0.5, model, rng) for _ in range(2000)]
    assert min(draws) == 0.0
    assert all(d >= 0.0 for d in draws)


def test_measure_is_deterministic_per_seed():
    model = RangingModel.gaussian(2.0)
    a = [measure(50.0, model, np.random.default_rng(3)) for _ in range(5)]
    b = [measure(50.0, model, np.random.default_rng(3)) for _ in range(5)]
    assert a == b


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        measure(-1.0, RangingModel.exact(), np.random.default_rng(0))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        RangingModel("rician", 1.0)


def test_negative_sigma_rejected():
    for sigma in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            RangingModel.gaussian(sigma)


@pytest.mark.parametrize(
    "model",
    [
        RangingModel.exact(),
        RangingModel.gaussian(0.0),
        RangingModel.gaussian(2.0),
        RangingModel.lognormal(0.3),
    ],
    ids=["exact", "gaussian-0", "gaussian", "lognormal"],
)
def test_measure_block_matches_scalar_draws(model):
    true_ds = [0.0, 0.5, 47.25]
    scalar_rng = np.random.default_rng(9)
    expected = [[measure(d, model, scalar_rng) for d in true_ds] for _ in range(200)]
    rng = np.random.default_rng(9)
    block = measure_block(true_ds, model, rng, 200)
    assert block.shape == (200, 3)
    assert block.tolist() == expected
    assert rng.bit_generator.state == scalar_rng.bit_generator.state
