"""Compromise mechanics: selection, displacement, validation."""

import math

import numpy as np
import pytest

from anchorguard.attack import (
    AttackSpec,
    FixedOffset,
    InvalidSpec,
    SpecificIds,
    UniformRadial,
    UniformRandom,
    compromise,
)
from anchorguard.geometry import Point2
from anchorguard.ranging import true_distance
from conftest import hand_network


def test_zero_count_is_noop(deployed_net):
    net, truth = compromise(deployed_net, AttackSpec(count=0), np.random.default_rng(0))
    assert net.nodes == deployed_net.nodes
    assert truth.malicious_ids == frozenset()


def test_specific_id_fixed_offset(deployed_net):
    spec = AttackSpec(
        count=1, displacement=FixedOffset(50.0, 0.0), selection=SpecificIds((7,))
    )
    net, truth = compromise(deployed_net, spec, np.random.default_rng(0))
    assert truth.malicious_ids == frozenset({7})
    moved = net.node(7)
    orig = deployed_net.node(7)
    assert moved.reported_pos == Point2(orig.reported_pos.x + 50.0, orig.reported_pos.y)
    assert moved.true_pos == orig.true_pos
    assert moved.compromised
    for n in net.nodes:
        if n.id != 7:
            assert n == deployed_net.node(n.id)


def test_uniform_random_radial_displacement(deployed_net):
    spec = AttackSpec(count=12, displacement=UniformRadial(20.0, 60.0))
    net, truth = compromise(deployed_net, spec, np.random.default_rng(4))
    assert len(truth.malicious_ids) == 12
    for nid in truth.malicious_ids:
        node = net.node(nid)
        assert node.compromised
        shift = true_distance(node.reported_pos, node.true_pos)
        assert 20.0 <= shift <= 60.0
        assert 0.0 <= node.reported_pos.x <= net.area[0]
        assert 0.0 <= node.reported_pos.y <= net.area[1]
    honest = {n.id for n in net.nodes} - truth.malicious_ids
    for nid in honest:
        assert not net.node(nid).compromised


def test_compromise_is_deterministic(deployed_net):
    spec = AttackSpec(count=8)
    a, ta = compromise(deployed_net, spec, np.random.default_rng(11))
    b, tb = compromise(deployed_net, spec, np.random.default_rng(11))
    assert ta.malicious_ids == tb.malicious_ids
    assert a.nodes == b.nodes


def test_falsified_report_stays_in_area():
    # A victim close to the boundary forces the radial draw to resample
    # until the report lands inside.
    net = hand_network(
        [([Point2(1.0, 1.0), Point2(31.0, 1.0), Point2(1.0, 31.0)], Point2(11.0, 11.0))],
        area=(300.0, 300.0),
    )
    spec = AttackSpec(
        count=1, displacement=UniformRadial(25.0, 30.0), selection=SpecificIds((0,))
    )
    for seed in range(25):
        attacked, _ = compromise(net, spec, np.random.default_rng(seed))
        rep = attacked.node(0).reported_pos
        assert 0.0 <= rep.x <= 300.0 and 0.0 <= rep.y <= 300.0
        assert 25.0 <= true_distance(rep, attacked.node(0).true_pos) <= 30.0


def test_fixed_offset_off_area_rejected():
    net = hand_network(
        [([Point2(1.0, 1.0), Point2(31.0, 1.0), Point2(1.0, 31.0)], Point2(11.0, 11.0))],
        area=(300.0, 300.0),
    )
    spec = AttackSpec(
        count=1, displacement=FixedOffset(-50.0, 0.0), selection=SpecificIds((0,))
    )
    with pytest.raises(InvalidSpec):
        compromise(net, spec, np.random.default_rng(0))


@pytest.mark.parametrize(
    "spec",
    [
        AttackSpec(count=-1),
        AttackSpec(count=999),
        AttackSpec(count=1, displacement=FixedOffset(0.0, 0.0)),
        AttackSpec(count=1, displacement=UniformRadial(50.0, 20.0)),
        AttackSpec(count=1, displacement=UniformRadial(-5.0, 20.0)),
        AttackSpec(count=2, selection=SpecificIds((7, 7))),
        AttackSpec(count=3, selection=SpecificIds((7,))),
        AttackSpec(count=1, selection=SpecificIds((100_000,))),
        AttackSpec(count=1, displacement=UniformRadial(20.0, math.inf)),
        AttackSpec(count=1, displacement=UniformRadial(math.nan, 20.0)),
        AttackSpec(count=1, displacement=FixedOffset(math.inf, 0.0)),
        AttackSpec(count=1, displacement=FixedOffset(math.nan, 0.0)),
    ],
)
def test_invalid_specs_rejected(deployed_net, spec):
    with pytest.raises(InvalidSpec):
        compromise(deployed_net, spec, np.random.default_rng(0))
