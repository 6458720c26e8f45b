"""Two-stage detection: group re-checks, suspect isolation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from anchorguard.attack import AttackSpec, FixedOffset, SpecificIds, UniformRadial, compromise
from anchorguard.deployment import cross_reference, deploy, neighbor_groups
from anchorguard.detection import (
    group_check,
    isolate_suspects,
    relocalization_cloud,
    run_detection,
)
from anchorguard.geometry import Point2, trilaterate
from anchorguard.ranging import RangingModel, measure, true_distance
from conftest import hand_network

EXACT = RangingModel.exact()


def three_group_net():
    # Group 1 is the nearest, sharpest neighbor of group 0; group 2
    # sits farther away.  Both lie inside the comm radius.
    return hand_network(
        [
            ([Point2(0, 0), Point2(30, 0), Point2(0, 30)], Point2(10, 10)),
            ([Point2(60, 0), Point2(90, 0), Point2(60, 30)], Point2(70, 10)),
            ([Point2(10, 120), Point2(40, 120), Point2(10, 150)], Point2(20, 130)),
        ]
    )


def test_clean_group_passes(two_group_net):
    res = group_check(two_group_net, 0, 1.0, EXACT, np.random.default_rng(0))
    assert res.passed
    assert not res.degenerate
    assert res.deviation < 1e-9
    assert true_distance(res.observed, two_group_net.m1[0]) < 1e-9


def test_displaced_member_fails_group(two_group_net):
    spec = AttackSpec(
        count=1, displacement=FixedOffset(50.0, 0.0), selection=SpecificIds((4,))
    )
    net, _ = compromise(two_group_net, spec, np.random.default_rng(0))
    res = group_check(net, 1, 1.0, EXACT, np.random.default_rng(0))
    assert not res.passed
    assert res.deviation > 1.0


def test_collinear_reported_triple_is_degenerate(two_group_net):
    # Falsifying (0, 30) to (15, 0) flattens the advertised triangle, so
    # the re-check cannot even be solved.
    spec = AttackSpec(
        count=1, displacement=FixedOffset(15.0, -30.0), selection=SpecificIds((2,))
    )
    net, _ = compromise(two_group_net, spec, np.random.default_rng(0))
    res = group_check(net, 0, 1.0, EXACT, np.random.default_rng(0))
    assert res.degenerate
    assert not res.passed
    assert res.deviation == float("inf")
    assert res.observed is None


def test_mirror_coordinate_caught_by_member_ranging(two_group_net):
    """A report reflected through two guard circles still fails.

    Reflecting a founder across the line through its group center and a
    co-member preserves its measured distance to both, which used to be
    everything stage 1 checked against.  The remaining co-member's
    range pins it down.
    """
    net = two_group_net
    a = net.node(0).true_pos  # (0, 0)
    center = net.group(0).trilateration_point  # (10, 10)
    b = net.node(1).true_pos  # (30, 0)
    # Reflect a across the center-to-b line.
    ux, uy = b.x - center.x, b.y - center.y
    norm = math.hypot(ux, uy)
    ux, uy = ux / norm, uy / norm
    px, py = a.x - center.x, a.y - center.y
    dot = px * ux + py * uy
    mirror = Point2(
        center.x + 2.0 * dot * ux - px, center.y + 2.0 * dot * uy - py
    )
    # The construction preserves the two guarded distances exactly.
    assert true_distance(mirror, center) == pytest.approx(true_distance(a, center), abs=1e-9)
    assert true_distance(mirror, b) == pytest.approx(true_distance(a, b), abs=1e-9)
    assert true_distance(mirror, a) > 5.0

    nodes = tuple(
        replace(n, reported_pos=mirror, compromised=True) if n.id == 0 else n
        for n in net.nodes
    )
    res = group_check(replace(net, nodes=nodes), 0, 1.0, EXACT, np.random.default_rng(0))
    assert not res.passed


def test_displaced_extra_member_fails_group():
    net = hand_network(
        [
            (
                [Point2(0, 0), Point2(30, 0), Point2(0, 30), Point2(25, 25)],
                Point2(10, 10),
            ),
            ([Point2(60, 0), Point2(90, 0), Point2(60, 30)], Point2(70, 10)),
        ]
    )
    spec = AttackSpec(
        count=1, displacement=FixedOffset(40.0, 10.0), selection=SpecificIds((3,))
    )
    attacked, _ = compromise(net, spec, np.random.default_rng(0))
    res = group_check(attacked, 0, 1.0, EXACT, np.random.default_rng(0))
    assert not res.passed
    recs = isolate_suspects(
        attacked, 0, 1.0, EXACT, np.random.default_rng(0), verifier_group_id=1
    )
    assert [r.anchor_id for r in recs] == [3]


def test_noisy_clean_group_rarely_fails(deployed_net):
    # sigma 0.5 against epsilon 5: the honest false-alarm rate must stay
    # below one percent.
    model = RangingModel.gaussian(0.5)
    root = np.random.SeedSequence(920)
    passes = sum(
        group_check(deployed_net, 0, 5.0, model, np.random.default_rng(child)).passed
        for child in root.spawn(1000)
    )
    assert passes >= 990


def test_isolation_pinpoints_displaced_member(two_group_net):
    spec = AttackSpec(
        count=1, displacement=FixedOffset(50.0, 0.0), selection=SpecificIds((4,))
    )
    net, _ = compromise(two_group_net, spec, np.random.default_rng(0))
    recs = isolate_suspects(net, 1, 1.0, EXACT, np.random.default_rng(0), verifier_group_id=0)
    assert len(recs) == 1
    rec = recs[0]
    assert rec.anchor_id == 4
    assert rec.verifier_group_id == 0
    assert rec.deviation == pytest.approx(50.0, abs=1e-9)
    assert rec.observed_pos == net.node(4).reported_pos
    # The verifier's own fix recovers where the node physically sits.
    assert true_distance(rec.localized_pos, net.node(4).true_pos) < 1e-9
    assert true_distance(rec.reference_pos, net.node(4).true_pos) < 1e-9


def test_isolation_exonerates_honest_group(two_group_net):
    recs = isolate_suspects(
        two_group_net, 0, 1.0, EXACT, np.random.default_rng(0), verifier_group_id=1
    )
    assert recs == []


def test_isolation_skips_contaminated_verifier():
    # Group 1 is group 0's sharpest neighbor, but one of its anchors
    # lies, so its own check fails and group 2 verifies both instead.
    net = three_group_net()
    spec = AttackSpec(
        count=2, displacement=FixedOffset(40.0, 0.0), selection=SpecificIds((0, 4))
    )
    attacked, _ = compromise(net, spec, np.random.default_rng(0))
    report = run_detection(attacked, 1.0, EXACT, np.random.default_rng(0))
    assert report.groups_failed == frozenset({0, 1})
    assert report.groups_unresolved == frozenset()
    assert report.flagged_ids == frozenset({0, 4})
    assert {r.verifier_group_id for r in report.suspects} == {2}


def test_group_whose_only_neighbor_fails_is_unresolved(two_group_net):
    spec = AttackSpec(
        count=2, displacement=FixedOffset(40.0, 0.0), selection=SpecificIds((1, 4))
    )
    net, _ = compromise(two_group_net, spec, np.random.default_rng(0))
    report = run_detection(net, 1.0, EXACT, np.random.default_rng(0))
    assert report.groups_failed == frozenset({0, 1})
    assert report.groups_unresolved == frozenset({0, 1})
    assert report.flagged_ids == frozenset()


def test_detection_prefers_sharp_nearby_verifier():
    net = three_group_net()
    spec = AttackSpec(
        count=1, displacement=FixedOffset(40.0, 0.0), selection=SpecificIds((0,))
    )
    attacked, _ = compromise(net, spec, np.random.default_rng(0))
    report = run_detection(attacked, 1.0, EXACT, np.random.default_rng(0))
    assert report.groups_failed == frozenset({0})
    assert {r.verifier_group_id for r in report.suspects} == {1}


def test_clean_network_has_no_failures(deployed_net):
    report = run_detection(deployed_net, 1.0, EXACT, np.random.default_rng(0))
    assert report.groups_failed == frozenset()
    assert report.groups_unresolved == frozenset()
    assert report.flagged_ids == frozenset()
    assert len(report.checks) == len(deployed_net.groups)
    assert report.elapsed_ms > 0.0


def test_noise_free_detection_recovers_ground_truth(deployed_net):
    spec = AttackSpec(count=12, displacement=UniformRadial(20.0, 60.0))
    net, truth = compromise(deployed_net, spec, np.random.default_rng(8))
    report = run_detection(net, 1.0, EXACT, np.random.default_rng(8))
    assert report.flagged_ids == truth.malicious_ids
    assert report.groups_unresolved == frozenset()


def test_displaced_center_host_is_flagged(deployed_net):
    # Node 3 lives on group 0's trilateration point as an attached
    # member; its falsified report must break the own-center guard.
    spec = AttackSpec(
        count=1, displacement=FixedOffset(35.0, 20.0), selection=SpecificIds((3,))
    )
    net, _ = compromise(deployed_net, spec, np.random.default_rng(0))
    report = run_detection(net, 1.0, EXACT, np.random.default_rng(0))
    assert 3 in report.flagged_ids


def test_failed_group_without_neighbors_is_unresolved():
    net = hand_network(
        [([Point2(0, 0), Point2(30, 0), Point2(0, 30)], Point2(10, 10))]
    )
    spec = AttackSpec(
        count=1, displacement=FixedOffset(40.0, 0.0), selection=SpecificIds((0,))
    )
    attacked, _ = compromise(net, spec, np.random.default_rng(0))
    report = run_detection(attacked, 1.0, EXACT, np.random.default_rng(0))
    assert report.groups_failed == frozenset({0})
    assert report.groups_unresolved == frozenset({0})
    assert report.flagged_ids == frozenset()


def test_noisy_recall_holds_at_field_scale():
    """sigma 0.5 against epsilon 5 keeps recall at or above 0.95."""
    model = RangingModel.gaussian(0.5)
    total_recall = 0.0
    trials = 100
    for trial in range(trials):
        root = np.random.SeedSequence([77, trial])
        deploy_rng, attack_rng, detect_rng = (
            np.random.default_rng(c) for c in root.spawn(3)
        )
        net = deploy((600.0, 600.0), 122, deploy_rng)
        net, truth = compromise(
            net, AttackSpec(count=12, displacement=UniformRadial(20.0, 60.0)), attack_rng
        )
        report = run_detection(net, 5.0, model, detect_rng)
        total_recall += len(report.flagged_ids & truth.malicious_ids) / 12.0
    assert total_recall / trials >= 0.95


def test_relocalization_cloud_exact_collapses_to_reference(two_group_net):
    ref = cross_reference(two_group_net, 4, 0)
    cloud = relocalization_cloud(two_group_net, ref, 0, EXACT, np.random.default_rng(0), 16)
    assert len(cloud) == 16
    assert all(true_distance(p, ref) < 1e-9 for p in cloud)


def test_relocalization_cloud_scatters_with_noise(two_group_net):
    model = RangingModel.gaussian(0.5)
    ref = cross_reference(two_group_net, 4, 0)
    cloud = relocalization_cloud(two_group_net, ref, 0, model, np.random.default_rng(1), 64)
    spread = [true_distance(p, ref) for p in cloud]
    assert len(cloud) == 64
    assert max(spread) > 0.0
    assert sum(spread) / len(spread) < 10.0


def _scalar_cloud(net, reference, verifier_group_id, model, rng, samples):
    """One ``measure`` per range and one ``trilaterate`` per fix, in the
    order the batched cloud must reproduce."""
    v_pts = [net.node(i).true_pos for i in net.group(verifier_group_id).founding_ids]
    cloud, ranges_seen = [], []
    for _ in range(samples):
        ranges = [measure(true_distance(p, reference), model, rng) for p in v_pts]
        ranges_seen.extend(ranges)
        cloud.append(trilaterate(v_pts, ranges))
    return cloud, ranges_seen


@pytest.mark.parametrize(
    "model",
    [EXACT, RangingModel.gaussian(0.5), RangingModel.gaussian(3.0), RangingModel.lognormal(0.05)],
    ids=["exact", "gaussian", "gaussian-wide", "lognormal"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relocalization_cloud_matches_scalar_loop(deployed_net, model, seed):
    for gid in (0, 7, 19):
        verifier = neighbor_groups(deployed_net, gid)[0]
        for member_id in deployed_net.group(gid).member_ids:
            ref = cross_reference(deployed_net, member_id, verifier)
            scalar_rng = np.random.default_rng(seed)
            expected, _ = _scalar_cloud(deployed_net, ref, verifier, model, scalar_rng, 64)
            rng = np.random.default_rng(seed)
            assert relocalization_cloud(deployed_net, ref, verifier, model, rng, 64) == expected
            # Both leave the stream where the next suspect's cloud starts.
            assert rng.bit_generator.state == scalar_rng.bit_generator.state


def test_relocalization_cloud_matches_scalar_loop_when_clamped(two_group_net):
    # A reference 0.3 m from a verifier founder: at sigma 1 the additive
    # noise drives that range below zero in about a third of the draws.
    model = RangingModel.gaussian(1.0)
    ref = Point2(0.3, 0.0)
    expected, ranges = _scalar_cloud(two_group_net, ref, 0, model, np.random.default_rng(4), 64)
    assert ranges.count(0.0) > 5
    cloud = relocalization_cloud(two_group_net, ref, 0, model, np.random.default_rng(4), 64)
    assert cloud == expected

