"""Covariance algebra and outlier confirmation."""

import math

import numpy as np
import pytest
import scipy.stats

from anchorguard.attack import AttackSpec, UniformRadial, compromise
from anchorguard.deployment import deploy
from anchorguard.detection import SuspectRecord, relocalization_cloud, run_detection
from anchorguard.geometry import Point2
from anchorguard.mahalanobis import (
    CovarianceMatrix2,
    InsufficientData,
    SingularCovariance,
    chi_square_cutoff,
    confirm_outliers,
    covariance,
    distance_to_centroid,
    invert,
)
from anchorguard.ranging import RangingModel


def suspect_at(p, reference=Point2(0.0, 0.0), anchor_id=0):
    return SuspectRecord(
        anchor_id=anchor_id,
        group_id=0,
        verifier_group_id=1,
        observed_pos=p,
        localized_pos=p,
        reference_pos=reference,
        deviation=0.0,
    )


def cloud_of(points):
    return np.array([p.x for p in points]), np.array([p.y for p in points])


def test_covariance_hand_case():
    # Four unit points on the axes about the origin: each coordinate
    # sums squares to 2 over n-1 = 3 samples.
    xs, ys = cloud_of([Point2(1, 0), Point2(0, 1), Point2(-1, 0), Point2(0, -1)])
    cov = covariance(xs, ys, Point2(0.0, 0.0))
    assert cov.s11 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert cov.s22 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert cov.s12 == 0.0
    assert cov.det == pytest.approx(4.0 / 9.0, abs=1e-15)


def test_covariance_matches_numpy():
    rng = np.random.default_rng(50)
    xs = rng.normal(0.0, 3.0, 40)
    ys = rng.normal(0.0, 1.5, 40) + 0.4 * xs
    mine = covariance(xs, ys, Point2(float(xs.mean()), float(ys.mean())))
    ref = np.cov(xs, ys, ddof=1)
    assert mine.s11 == pytest.approx(ref[0, 0], rel=1e-12)
    assert mine.s22 == pytest.approx(ref[1, 1], rel=1e-12)
    assert mine.s12 == pytest.approx(ref[0, 1], rel=1e-12)


def test_covariance_no_spread_is_zero_matrix():
    xs, ys = cloud_of([Point2(3, 4)] * 5)
    cov = covariance(xs, ys, Point2(3, 4))
    assert (cov.s11, cov.s22, cov.s12) == (0.0, 0.0, 0.0)
    assert cov.det == 0.0


def test_covariance_needs_three_points():
    xs, ys = cloud_of([Point2(0, 0), Point2(1, 1)])
    with pytest.raises(InsufficientData):
        covariance(xs, ys, Point2(0.5, 0.5))


def test_covariance_isotropic_cloud_statistics():
    rng = np.random.default_rng(913)
    xs, ys = rng.normal(0.0, 1.0, (2, 1000))
    cov = covariance(xs, ys, Point2(float(xs.mean()), float(ys.mean())))
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
    cloud = (center.x + rng.normal(0, 2, 64), center.y + rng.normal(0, 2, 64))
    score = confirm_outliers([suspect_at(center, center)], [cloud], chi_square_cutoff(0.05))[0]
    assert score.distance == 0.0
    assert not score.outlier and not score.singular


def test_large_displacement_confirmed():
    # An isotropic 5 m reference cloud puts a 50 m displacement about
    # ten normalized units out, far past the 2.448 cutoff.
    rng = np.random.default_rng(914)
    center = Point2(100.0, 100.0)
    cloud = (center.x + rng.normal(0, 5.0, 200), center.y + rng.normal(0, 5.0, 200))
    score = confirm_outliers(
        [suspect_at(Point2(150.0, 100.0), center)], [cloud], chi_square_cutoff(0.05)
    )[0]
    assert 8.0 < score.distance < 12.0
    assert score.outlier


def test_honest_suspect_rarely_confirmed():
    """Re-fix noise far smaller than the reference spread stays inside
    the cutoff in at least 95 percent of trials."""
    rng = np.random.default_rng(915)
    suspects, clouds = [], []
    for _ in range(1000):
        clouds.append(tuple(rng.normal(0, 5.0, (2, 64))))
        suspects.append(suspect_at(Point2(*rng.normal(0, 0.5, 2))))
    scores = confirm_outliers(suspects, clouds, chi_square_cutoff(0.05))
    assert sum(1 for s in scores if not s.outlier) >= 950


@pytest.mark.parametrize("n", [8, 16, 64])
def test_fresh_fix_confirmation_rate(n):
    """A fresh Gaussian fix scored against its own n-sample cloud about
    the known center is confirmed at exactly (1 + c^2/(n-1))^(-(n-1)/2),
    the tail of 2 F(2, n-1) past c^2, not at alpha."""
    alpha, trials = 0.05, 20_000
    cutoff = chi_square_cutoff(alpha)
    rate = (1.0 + cutoff**2 / (n - 1)) ** (-(n - 1) / 2)
    assert rate == pytest.approx(scipy.stats.f.sf(cutoff**2 / 2, 2, n - 1), rel=1e-12)
    rng = np.random.default_rng(916 + n)
    clouds = rng.normal(0.0, 1.0, (trials, 2, n))
    fixes = rng.normal(0.0, 1.0, (trials, 2)).tolist()
    scores = confirm_outliers(
        [suspect_at(Point2(x, y)) for x, y in fixes], [(c[0], c[1]) for c in clouds], cutoff
    )
    seen = sum(1 for s in scores if s.outlier) / trials
    assert abs(seen - rate) <= 4.0 * math.sqrt(rate * (1.0 - rate) / trials)


def test_confirm_outliers_preserves_order_and_ids():
    rng = np.random.default_rng(31)
    clouds = [tuple(rng.normal(0, 1, (2, 32))) for _ in range(2)]
    suspects = [
        SuspectRecord(
            anchor_id=9, group_id=0, verifier_group_id=1,
            observed_pos=Point2(40, 0), localized_pos=Point2(0, 0),
            reference_pos=Point2(0, 0), deviation=40.0,
        ),
        suspect_at(Point2(0.1, 0.1)),
    ]
    scores = confirm_outliers(suspects, clouds, chi_square_cutoff(0.05))
    assert [s.anchor_id for s in scores] == [9, 0]
    assert scores[0].outlier and not scores[1].outlier


def test_confirm_outliers_scores_each_suspect_about_its_own_reference():
    # Two suspects at the same observed position: one sits on its own
    # reference, the other 30 units from its.
    rng = np.random.default_rng(32)
    spread = rng.normal(0, 1, (2, 64))
    near, far = Point2(10.0, 10.0), Point2(40.0, 10.0)
    clouds = [(spread[0] + near.x, spread[1] + near.y), (spread[0] + far.x, spread[1] + far.y)]
    suspects = [suspect_at(near, near, anchor_id=1), suspect_at(near, far, anchor_id=2)]
    first, second = confirm_outliers(suspects, clouds, chi_square_cutoff(0.05))
    assert first.distance == 0.0 and not first.outlier
    assert second.distance > 20.0 and second.outlier


def test_confirm_outliers_degenerate_reference_cloud():
    # Noise-free ranging gives a cloud of one repeated point: the
    # suspect is confirmed outright and the record says why.
    (score,) = confirm_outliers(
        [suspect_at(Point2(1, 1))], [cloud_of([Point2(0, 0)] * 10)], 2.448
    )
    assert (score.outlier, score.singular, score.distance) == (True, True, math.inf)
    assert score.cutoff == 2.448
    with pytest.raises(InsufficientData):
        confirm_outliers(
            [suspect_at(Point2(1, 1))], [cloud_of([Point2(0, 0), Point2(1, 0)])], 2.448
        )


def _scalar_score(rec, cloud, cutoff):
    """Covariance over a ``Point2`` cloud, summed in point order, then
    the closed-form inverse and distance: the scalar reference that
    ``confirm_outliers`` must match bit for bit."""
    center = rec.reference_pos
    s11 = s22 = s12 = 0.0
    for p in cloud:
        dx = p.x - center.x
        dy = p.y - center.y
        s11 += dx * dx
        s22 += dy * dy
        s12 += dx * dy
    norm = 1.0 / (len(cloud) - 1)
    try:
        inv = invert(CovarianceMatrix2(s11 * norm, s22 * norm, s12 * norm))
    except SingularCovariance:
        return math.inf, True, True
    d = distance_to_centroid(rec.observed_pos, center, inv)
    return d, d > cutoff, False


@pytest.mark.parametrize(
    "model",
    [RangingModel.exact(), RangingModel.gaussian(0.5), RangingModel.lognormal(0.01)],
    ids=["exact", "gaussian", "lognormal"],
)
def test_confirm_outliers_matches_scalar_reference(model):
    cutoff = chi_square_cutoff(0.05)
    epsilon = max(1.0, 10.0 * model.sigma)
    seen = []
    for seed in range(4):
        root = np.random.SeedSequence([seed, 21])
        deploy_rng, attack_rng, detect_rng, confirm_rng = (
            np.random.default_rng(c) for c in root.spawn(4)
        )
        net = deploy((600.0, 600.0), 122, deploy_rng, 70.0)
        net, _ = compromise(
            net, AttackSpec(count=12, displacement=UniformRadial(20.0, 60.0)), attack_rng
        )
        report = run_detection(net, epsilon, model, detect_rng)
        clouds = [
            relocalization_cloud(
                net, r.reference_pos, r.verifier_group_id, model, confirm_rng, 64
            )
            for r in report.suspects
        ]
        scores = confirm_outliers(report.suspects, clouds, cutoff)
        for rec, (xs, ys), score in zip(report.suspects, clouds, scores, strict=True):
            points = [Point2(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
            expected = _scalar_score(rec, points, cutoff)
            assert (score.distance, score.outlier, score.singular) == expected
            assert (score.anchor_id, score.cutoff) == (rec.anchor_id, cutoff)
            seen.append(score.singular)
    assert seen
    # Noise-free ranging collapses every cloud; noisy ranging never does.
    assert all(seen) if model.kind == "exact" else not any(seen)
