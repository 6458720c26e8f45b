"""Covariance algebra and outlier confirmation."""

import math

import numpy as np
import pytest
import scipy.stats

from anchorguard.detection import SuspectRecord
from anchorguard.geometry import Point2
from anchorguard.mahalanobis import (
    CovarianceMatrix2,
    InsufficientData,
    SingularCovariance,
    centroid,
    chi_square_cutoff,
    confirm_outliers,
    covariance,
    distance_to_centroid,
    invert,
)


def suspect_at(p):
    return SuspectRecord(
        anchor_id=0,
        group_id=0,
        verifier_group_id=1,
        observed_pos=p,
        localized_pos=p,
        reference_pos=Point2(0.0, 0.0),
        deviation=0.0,
    )


def test_centroid_average():
    pts = [Point2(0, 0), Point2(4, 0), Point2(2, 6)]
    assert centroid(pts) == Point2(2.0, 2.0)


def test_centroid_empty_rejected():
    with pytest.raises(InsufficientData):
        centroid([])


def test_covariance_hand_case():
    # Four unit points on the axes about the origin: each coordinate
    # sums squares to 2 over n-1 = 3 samples.
    pts = [Point2(1, 0), Point2(0, 1), Point2(-1, 0), Point2(0, -1)]
    cov = covariance(pts, Point2(0.0, 0.0))
    assert cov.s11 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert cov.s22 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert cov.s12 == 0.0
    assert cov.det == pytest.approx(4.0 / 9.0, abs=1e-15)


def test_covariance_matches_numpy():
    rng = np.random.default_rng(50)
    xs = rng.normal(0.0, 3.0, 40)
    ys = rng.normal(0.0, 1.5, 40) + 0.4 * xs
    pts = [Point2(x, y) for x, y in zip(xs, ys)]
    c = centroid(pts)
    mine = covariance(pts, c)
    ref = np.cov(xs, ys, ddof=1)
    assert mine.s11 == pytest.approx(ref[0, 0], rel=1e-12)
    assert mine.s22 == pytest.approx(ref[1, 1], rel=1e-12)
    assert mine.s12 == pytest.approx(ref[0, 1], rel=1e-12)


def test_covariance_no_spread_is_zero_matrix():
    pts = [Point2(3, 4)] * 5
    cov = covariance(pts, Point2(3, 4))
    assert (cov.s11, cov.s22, cov.s12) == (0.0, 0.0, 0.0)
    assert cov.det == 0.0


def test_covariance_needs_three_points():
    with pytest.raises(InsufficientData):
        covariance([Point2(0, 0), Point2(1, 1)], Point2(0.5, 0.5))


def test_covariance_isotropic_cloud_statistics():
    rng = np.random.default_rng(913)
    pts = [Point2(*rng.normal(0.0, 1.0, 2)) for _ in range(1000)]
    cov = covariance(pts, centroid(pts))
    assert 0.9 <= cov.s11 <= 1.1
    assert 0.9 <= cov.s22 <= 1.1
    assert abs(cov.s12) < 0.1


def test_invert_identity():
    inv = invert(CovarianceMatrix2(1.0, 1.0, 0.0))
    assert (inv.s11, inv.s22, inv.s12) == (1.0, 1.0, 0.0)


def test_invert_hand_case():
    inv = invert(CovarianceMatrix2(2.0, 2.0, 1.0))
    assert inv.s11 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert inv.s22 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert inv.s12 == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_invert_rank_one_rejected():
    with pytest.raises(SingularCovariance):
        invert(CovarianceMatrix2(1.0, 1.0, 1.0))


def test_invert_scale_relative_guard():
    # A large well-conditioned matrix must invert even though its
    # absolute determinant dwarfs any fixed cutoff, and a tiny rank-one
    # one must not sneak past on absolute smallness.
    big = invert(CovarianceMatrix2(1e8, 1e8, 0.0))
    assert big.s11 == pytest.approx(1e-8, rel=1e-12)
    with pytest.raises(SingularCovariance):
        invert(CovarianceMatrix2(1e-6, 1e-6, 1e-6))


def test_distance_identity_covariance_is_euclidean():
    ident = CovarianceMatrix2(1.0, 1.0, 0.0)
    assert distance_to_centroid(Point2(3, 4), Point2(0, 0), ident) == pytest.approx(
        5.0, abs=1e-12
    )


def test_distance_hand_quadratic_form():
    inv = invert(CovarianceMatrix2(2.0, 2.0, 1.0))
    d = distance_to_centroid(Point2(1, 1), Point2(0, 0), inv)
    assert d == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)


def test_distance_zero_at_centroid():
    inv = invert(CovarianceMatrix2(5.0, 0.5, 0.2))
    assert distance_to_centroid(Point2(9, 9), Point2(9, 9), inv) == 0.0


def test_distance_between_any_two_points():
    # The center need not be a centroid: the distance depends only on
    # the offset between the two points.
    inv = invert(CovarianceMatrix2(2.0, 2.0, 1.0))
    assert distance_to_centroid(Point2(0, 0), Point2(1, 1), inv) == pytest.approx(
        math.sqrt(2.0 / 3.0), abs=1e-12
    )
    assert distance_to_centroid(Point2(7, 7), Point2(7, 7), inv) == 0.0


def test_distance_identity_reduction_is_symmetric():
    ident = CovarianceMatrix2(1.0, 1.0, 0.0)
    assert distance_to_centroid(Point2(0, 0), Point2(3, 4), ident) == pytest.approx(5.0)


def test_cutoff_matches_chi_square_quantile():
    for alpha in (0.05, 0.01, 0.2):
        oracle = math.sqrt(scipy.stats.chi2.ppf(1.0 - alpha, df=2))
        assert chi_square_cutoff(alpha) == pytest.approx(oracle, abs=1e-12)


def test_cutoff_default_level():
    assert chi_square_cutoff() == pytest.approx(2.4477468306808166, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 2.0])
def test_cutoff_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        chi_square_cutoff(alpha)


def test_suspect_at_centroid_not_outlier():
    rng = np.random.default_rng(30)
    center = Point2(50.0, 50.0)
    cloud = [Point2(center.x + rng.normal(0, 2), center.y + rng.normal(0, 2)) for _ in range(64)]
    score = confirm_outliers([suspect_at(center)], cloud, center, chi_square_cutoff(0.05))[0]
    assert score.distance == 0.0
    assert not score.outlier


def test_large_displacement_confirmed():
    # An isotropic 5 m reference cloud puts a 50 m displacement about
    # ten normalized units out, far past the 2.448 cutoff.
    rng = np.random.default_rng(914)
    center = Point2(100.0, 100.0)
    cloud = [
        Point2(center.x + rng.normal(0, 5.0), center.y + rng.normal(0, 5.0))
        for _ in range(200)
    ]
    score = confirm_outliers(
        [suspect_at(Point2(150.0, 100.0))], cloud, center, chi_square_cutoff(0.05)
    )[0]
    assert 8.0 < score.distance < 12.0
    assert score.outlier


def test_honest_suspect_rarely_confirmed():
    """Re-fix noise far smaller than the reference spread stays inside
    the cutoff in at least 95 percent of trials."""
    rng = np.random.default_rng(915)
    cutoff = chi_square_cutoff(0.05)
    center = Point2(0.0, 0.0)
    kept = 0
    for _ in range(1000):
        cloud = [Point2(rng.normal(0, 5.0), rng.normal(0, 5.0)) for _ in range(64)]
        obs = Point2(rng.normal(0, 0.5), rng.normal(0, 0.5))
        if not confirm_outliers([suspect_at(obs)], cloud, center, cutoff)[0].outlier:
            kept += 1
    assert kept >= 950


def test_confirm_outliers_preserves_order_and_ids():
    rng = np.random.default_rng(31)
    cloud = [Point2(rng.normal(0, 1), rng.normal(0, 1)) for _ in range(32)]
    suspects = [
        SuspectRecord(
            anchor_id=9, group_id=0, verifier_group_id=1,
            observed_pos=Point2(40, 0), localized_pos=Point2(0, 0),
            reference_pos=Point2(0, 0), deviation=40.0,
        ),
        suspect_at(Point2(0.1, 0.1)),
    ]
    scores = confirm_outliers(suspects, cloud, Point2(0, 0), chi_square_cutoff(0.05))
    assert [s.anchor_id for s in scores] == [9, 0]
    assert scores[0].outlier and not scores[1].outlier


def test_confirm_outliers_degenerate_reference_cloud():
    with pytest.raises(SingularCovariance):
        confirm_outliers(
            [suspect_at(Point2(1, 1))], [Point2(0, 0)] * 10, Point2(0, 0), 2.448
        )
    with pytest.raises(InsufficientData):
        confirm_outliers(
            [suspect_at(Point2(1, 1))], [Point2(0, 0), Point2(1, 0)], Point2(0, 0), 2.448
        )
