"""Group placement, reference records, neighbor graph, fixture format."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorguard.attack import AttackSpec, FixedOffset, SpecificIds, compromise
from anchorguard.deployment import (
    CROWDING_RADIUS,
    FIRST_SPACING_MAX,
    FIRST_SPACING_MIN,
    GROUP_RADIUS_MAX,
    GROUP_RADIUS_MIN,
    MAX_GROUP_ATTEMPTS,
    MIN_NODE_SEPARATION,
    DeploymentFailure,
    UnknownGroup,
    build_references,
    cross_reference,
    deploy,
    neighbor_groups,
    parse_network,
    serialize_network,
    _annulus_offsets,
    _clear_of,
    _Crowding,
    _first_triple,
    _Grid,
    _triangle_ok,
)
from anchorguard.geometry import DegenerateGeometry, Point2
from anchorguard.ranging import true_distance
from conftest import hand_network


def test_field_scale_structure(deployed_net):
    net = deployed_net
    assert len(net.nodes) == 122
    # 4 founders + 39 triples of 3 leaves exactly one leftover: 40 groups.
    assert len(net.groups) == 40
    sizes = sorted(len(g.member_ids) for g in net.groups)
    assert sizes[0] == 3 and sizes[-1] == 4
    assert sum(len(g.member_ids) for g in net.groups) == 122


def test_every_center_hosts_a_node(deployed_net):
    for g in deployed_net.groups:
        hosts = [
            n
            for n in deployed_net.nodes
            if true_distance(n.true_pos, g.trilateration_point) < 1e-9
        ]
        assert hosts, f"group {g.id} center has no resident node"


def test_centers_are_distinct(deployed_net):
    # Two groups sharing a center would share a guard circle, and a
    # coordinate mirrored through the surviving circle pair could pass
    # the range checks.  Placement must never reuse a host.
    centers = [g.trilateration_point for g in deployed_net.groups]
    for i, a in enumerate(centers):
        for b in centers[i + 1 :]:
            assert true_distance(a, b) > 1e-9


def test_first_group_center_is_triple_centroid(deployed_net):
    g0 = deployed_net.group(0)
    assert g0.member_ids[:4] == (0, 1, 2, 3)
    founders = [deployed_net.node(i).true_pos for i in g0.founding_ids]
    cx = sum(p.x for p in founders) / 3.0
    cy = sum(p.y for p in founders) / 3.0
    center = deployed_net.node(3).true_pos
    assert center.x == cx and center.y == cy
    assert g0.trilateration_point == center


def test_minimum_node_separation(deployed_net):
    pts = [n.true_pos for n in deployed_net.nodes]
    worst = min(
        true_distance(a, b) for i, a in enumerate(pts) for b in pts[i + 1 :]
    )
    assert worst >= 10.0  # founding members of one group may sit at 10 m


def test_minimal_deployment():
    net = deploy((600.0, 600.0), 4, np.random.default_rng(1))
    assert len(net.nodes) == 4
    assert len(net.groups) == 1
    founders = [net.node(i).true_pos for i in net.group(0).founding_ids]
    cx = sum(p.x for p in founders) / 3.0
    cy = sum(p.y for p in founders) / 3.0
    assert net.node(3).true_pos == Point2(cx, cy)


def test_deployment_is_deterministic():
    a = deploy((600.0, 600.0), 122, np.random.default_rng(9))
    b = deploy((600.0, 600.0), 122, np.random.default_rng(9))
    assert a.nodes == b.nodes
    assert a.groups == b.groups


# sha256 of serialize_network(deploy((area, area), n, default_rng(seed))).
# These pin placement byte for byte: a faster search for clear spots or
# uncrowded hosts must place every node exactly where the plain scans did.
PLACEMENT_DIGESTS = {
    (600.0, 122, 3): "877fb4aa13e66b160a7738cdd71c6711834ef9726dc4b3f0122f7a8f638f47dd",
    (600.0, 122, 11): "0a107c34af14e9858b3b3f2d86dfdcc2342a41498f9d7166daddefdb66e70df5",
    (1200.0, 488, 3): "7cb2808ba67142c6f9bd0b3505e5c1aaf9d9a358a1693ccdcc0b49a0e42ca04c",
    (1200.0, 488, 11): "dea236d3e5a1716a5dd57035839828e918962e35ded7965ef5a69b4602131175",
}


@pytest.mark.parametrize("area, n_nodes, seed", sorted(PLACEMENT_DIGESTS))
def test_placement_digest(area, n_nodes, seed):
    net = deploy((area, area), n_nodes, np.random.default_rng(seed))
    digest = hashlib.sha256(serialize_network(net).encode()).hexdigest()
    assert digest == PLACEMENT_DIGESTS[(area, n_nodes, seed)]


def _scalar_offset(rng, r_min, r_max):
    """One annulus offset from two scalar ``rng.uniform`` draws."""
    r = rng.uniform(r_min, r_max)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return r * math.cos(theta), r * math.sin(theta)


# The block draw reproduces scalar ``uniform`` only while numpy computes
# it as ``low + (high - low) * u`` without a fused multiply-add; these
# pin that, and the placement digests are the backstop.
@pytest.mark.parametrize(
    "r_min, r_max",
    [(GROUP_RADIUS_MIN, GROUP_RADIUS_MAX), (FIRST_SPACING_MIN, FIRST_SPACING_MAX)],
)
@pytest.mark.parametrize("count", [1, 2, 3])
def test_annulus_offsets_match_scalar_draws(count, r_min, r_max):
    for seed in range(2000):
        scalar_rng = np.random.default_rng(seed)
        expected = [_scalar_offset(scalar_rng, r_min, r_max) for _ in range(count)]
        rng = np.random.default_rng(seed)
        assert _annulus_offsets(rng, count, r_min, r_max) == expected
        assert rng.bit_generator.state == scalar_rng.bit_generator.state


def _scalar_first_triple(area, rng):
    """``_first_triple`` with one scalar ``rng.uniform`` per value."""
    for _ in range(MAX_GROUP_ATTEMPTS):
        x0 = rng.uniform(0.0, area[0])
        y0 = rng.uniform(0.0, area[1])
        pts = [(x0, y0)]
        for _ in range(2):
            dx, dy = _scalar_offset(rng, FIRST_SPACING_MIN, FIRST_SPACING_MAX)
            pts.append((x0 + dx, y0 + dy))
        if all(0.0 <= x <= area[0] and 0.0 <= y <= area[1] for x, y in pts) and _triangle_ok(pts):
            return pts
    raise AssertionError("no first triple")


# A narrow strip rejects most attempts, so later attempts are compared too.
@pytest.mark.parametrize(
    "area", [(600.0, 600.0), (1200.0, 1200.0), (140.0, 90.0)], ids=["600m", "1200m", "strip"]
)
def test_first_triple_matches_scalar_draws(area):
    for seed in range(2000):
        scalar_rng = np.random.default_rng(seed)
        expected = _scalar_first_triple(area, scalar_rng)
        rng = np.random.default_rng(seed)
        assert _first_triple(area, rng) == expected
        assert rng.bit_generator.state == scalar_rng.bit_generator.state


@st.composite
def _point_sets(draw, radius):
    """Points near a few grid cells, some on cell edges and some exactly
    (or one ulp off) ``radius`` away from an earlier point."""
    cell = _Grid(radius).cell
    coord = st.one_of(
        st.floats(-2.0 * cell, 5.0 * cell, allow_nan=False),
        st.integers(-2, 5).map(lambda k: k * cell),
    )
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=25))
    under, over = math.nextafter(radius, 0.0), math.nextafter(radius, math.inf)
    offsets = st.sampled_from(
        [(radius, 0.0), (0.0, -radius), (-radius, 0.0), (0.6 * radius, 0.8 * radius),
         (under, 0.0), (0.0, over), (-0.8 * radius, -0.6 * radius)]
    )
    for i, (dx, dy) in draw(st.lists(st.tuples(st.integers(0, len(pts) - 1), offsets), max_size=15)):
        x, y = pts[i]
        pts.append((x + dx, y + dy))
    return draw(st.permutations(pts))


@settings(deadline=None)
@given(_point_sets(MIN_NODE_SEPARATION), st.data())
def test_grid_separation_matches_linear_scan(points, data):
    split = data.draw(st.integers(1, len(points)))
    existing, queries = points[:split], points[split:]
    grid = _Grid(MIN_NODE_SEPARATION)
    for x, y in existing:
        grid.add(x, y, (x, y))
    for x, y in queries:
        linear = not any(
            math.hypot(x - ex, y - ey) < MIN_NODE_SEPARATION for ex, ey in existing
        )
        assert _clear_of([(x, y)], grid) == linear


@settings(deadline=None)
@given(_point_sets(CROWDING_RADIUS), st.data())
def test_crowding_counts_match_linear_scan(points, data):
    is_center = data.draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
    crowding = _Crowding()
    nodes, centers = [], []
    for (x, y), center in zip(points, is_center):
        if center:
            crowding.add_center(x, y)
            centers.append((x, y))
        else:
            crowding.add_node(x, y)
            nodes.append((x, y))
    assert crowding.counts == [
        sum(1 for cx, cy in centers if math.hypot(x - cx, y - cy) < CROWDING_RADIUS)
        for x, y in nodes
    ]


def test_too_few_nodes_rejected():
    with pytest.raises(DeploymentFailure):
        deploy((600.0, 600.0), 3, np.random.default_rng(0))


def test_impossible_area_rejected():
    with pytest.raises(DeploymentFailure):
        deploy((10.0, 10.0), 10, np.random.default_rng(0))


def test_unknown_group_lookup(deployed_net):
    with pytest.raises(UnknownGroup):
        deployed_net.group(999)


def test_reference_tables_exact_on_honest_network(deployed_net):
    """Noise-free references reproduce the construction geometry."""
    refs = deployed_net.references
    assert set(refs.m1) == {g.id for g in deployed_net.groups}
    for g in deployed_net.groups:
        assert true_distance(refs.m1[g.id], g.trilateration_point) < 1e-9
        for other in neighbor_groups(deployed_net, g.id):
            for node_id in g.member_ids:
                pos = cross_reference(deployed_net, node_id, other)
                assert true_distance(pos, deployed_net.node(node_id).true_pos) < 1e-9


def test_toy_reference_table_counts(two_group_net):
    # Two adjacent groups of three: one m1 row each, and each anchor
    # has one cross reference through the single neighbor group.
    assert len(two_group_net.references.m1) == 2
    for gid in (0, 1):
        assert neighbor_groups(two_group_net, gid) == [1 - gid]
        for nid in two_group_net.group(gid).member_ids:
            pos = cross_reference(two_group_net, nid, 1 - gid)
            assert true_distance(pos, two_group_net.node(nid).true_pos) < 1e-9


def test_cross_reference_ignores_compromised_founder(two_group_net):
    """A verifier founder's false report cannot move the record."""
    spec = AttackSpec(
        count=1, displacement=FixedOffset(40.0, 0.0), selection=SpecificIds((0,))
    )
    attacked, _ = compromise(two_group_net, spec, np.random.default_rng(0))
    assert attacked.node(0).reported_pos != two_group_net.node(0).reported_pos
    for nid in attacked.group(1).member_ids:
        assert cross_reference(attacked, nid, 0) == cross_reference(two_group_net, nid, 0)
    assert cross_reference(attacked, 0, 1) == cross_reference(two_group_net, 0, 1)


def test_collinear_founding_triple_names_group():
    with pytest.raises(DegenerateGeometry, match="group 1"):
        hand_network(
            [
                ([Point2(0, 0), Point2(30, 0), Point2(0, 30)], Point2(10, 10)),
                ([Point2(60, 0), Point2(90, 0), Point2(120, 0)], Point2(90, 0)),
            ]
        )


def test_neighbor_groups_single_group():
    net = hand_network([([Point2(0, 0), Point2(30, 0), Point2(0, 30)], Point2(10, 10))])
    assert neighbor_groups(net, 0) == []


def test_neighbor_groups_within_radius(two_group_net):
    assert neighbor_groups(two_group_net, 0) == [1]
    assert neighbor_groups(two_group_net, 1) == [0]


def test_neighbor_groups_out_of_radius():
    net = hand_network(
        [
            ([Point2(0, 0), Point2(30, 0), Point2(0, 30)], Point2(10, 10)),
            ([Point2(160, 0), Point2(190, 0), Point2(160, 30)], Point2(170, 10)),
        ],
        comm_radius=100.0,
    )
    assert neighbor_groups(net, 0) == []
    assert neighbor_groups(net, 1) == []


def test_neighbor_groups_sorted_nearest_first():
    net = hand_network(
        [
            ([Point2(0, 0), Point2(30, 0), Point2(0, 30)], Point2(10, 10)),
            ([Point2(120, 0), Point2(150, 0), Point2(120, 30)], Point2(130, 10)),
            ([Point2(60, 0), Point2(90, 0), Point2(60, 30)], Point2(70, 10)),
        ],
        area=(300.0, 300.0),
    )
    assert neighbor_groups(net, 0) == [2, 1]


def _scanned_neighbors(net, group_id):
    """``neighbor_groups`` as a scan of every group, for comparison."""
    own = net.group(group_id)
    found = sorted(
        (true_distance(own.trilateration_point, g.trilateration_point), g.id)
        for g in net.groups
        if g.id != group_id
        and true_distance(own.trilateration_point, g.trilateration_point) <= net.comm_radius
    )
    return [gid for _, gid in found]


def _centered_network(centers, comm_radius):
    """Groups with a fixed right-triangle triple around each center."""
    triple = [(-10.0, -10.0), (20.0, -10.0), (-10.0, 20.0)]
    return hand_network(
        [([Point2(x + dx, y + dy) for dx, dy in triple], Point2(x, y)) for x, y in centers],
        comm_radius=comm_radius,
    )


@st.composite
def _center_sets(draw):
    """Group centers with some pairs exactly (or one ulp off) the comm
    radius apart and some at equal distances from an earlier center.  A
    fixture may carry a zero comm radius, which leaves only coincident
    centers as neighbors."""
    radius = draw(st.sampled_from([0.0, 50.0, 70.0, 150.0]))
    coord = st.one_of(
        st.floats(0.0, 400.0, allow_nan=False),
        st.integers(0, 8).map(lambda k: k * 50.0),
    )
    centers = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=12))
    over = math.nextafter(radius, math.inf)
    offsets = st.sampled_from(
        [(radius, 0.0), (-radius, 0.0), (0.0, radius), (0.0, over), (over, 0.0),
         (0.6 * radius, 0.8 * radius), (-0.8 * radius, 0.6 * radius),
         (30.0, 40.0), (-30.0, -40.0), (40.0, -30.0)]
    )
    for i, (dx, dy) in draw(
        st.lists(st.tuples(st.integers(0, len(centers) - 1), offsets), max_size=12)
    ):
        x, y = centers[i]
        centers.append((x + dx, y + dy))
    return draw(st.permutations(centers)), radius


@settings(deadline=None)
@given(_center_sets())
def test_neighbor_groups_match_linear_scan(case):
    centers, radius = case
    net = _centered_network(centers, radius)
    for g in net.groups:
        assert neighbor_groups(net, g.id) == _scanned_neighbors(net, g.id)


# 20 m is below the group spacing, 70 and 150 m are the benchmark radii,
# and 2000 m is wider than the area, so no center is pruned by x.
@pytest.mark.parametrize("comm_radius", [20.0, 70.0, 150.0, 2000.0])
@pytest.mark.parametrize("seed", [3, 11])
def test_neighbor_groups_match_linear_scan_on_deployments(seed, comm_radius):
    net = deploy((600.0, 600.0), 122, np.random.default_rng(seed), comm_radius)
    for g in net.groups:
        assert neighbor_groups(net, g.id) == _scanned_neighbors(net, g.id)


def test_neighbor_groups_match_linear_scan_on_dense_deployment():
    net = deploy((1200.0, 1200.0), 488, np.random.default_rng(5), 150.0)
    for g in net.groups:
        assert neighbor_groups(net, g.id) == _scanned_neighbors(net, g.id)


def test_neighbor_groups_radius_is_inclusive():
    # 3-4-5 and axis offsets land exactly on the radius; one ulp more
    # is out.  Groups 1 and 2 tie at 150 m from group 0, so ids order them.
    over = math.nextafter(150.0, math.inf)
    net = _centered_network(
        [(0.0, 0.0), (150.0, 0.0), (90.0, 120.0), (0.0, over), (-over, 0.0)],
        150.0,
    )
    assert neighbor_groups(net, 0) == [1, 2]
    assert 0 not in neighbor_groups(net, 3)
    assert 0 not in neighbor_groups(net, 4)


def test_neighbor_groups_unknown_group(two_group_net):
    with pytest.raises(UnknownGroup):
        neighbor_groups(two_group_net, 99)


def test_neighbor_groups_returns_a_fresh_list(two_group_net):
    neighbor_groups(two_group_net, 0).clear()
    assert neighbor_groups(two_group_net, 0) == [1]


def test_serialize_parse_round_trip(deployed_net):
    text = serialize_network(deployed_net, seed=5)
    back = parse_network(text)
    assert back.nodes == deployed_net.nodes
    assert back.groups == deployed_net.groups
    assert back.area == deployed_net.area
    assert back.comm_radius == deployed_net.comm_radius
    assert back.references == deployed_net.references
    for g in deployed_net.groups:
        for other in neighbor_groups(deployed_net, g.id):
            for nid in g.member_ids:
                assert cross_reference(back, nid, other) == cross_reference(
                    deployed_net, nid, other
                )


def test_parse_rebuilds_references_from_true_positions(two_group_net):
    """A fixture saved after an attack still carries honest references."""
    tampered = replace(
        two_group_net,
        nodes=tuple(
            replace(n, reported_pos=Point2(n.true_pos.x + 40.0, n.true_pos.y), compromised=True)
            if n.id == 4
            else n
            for n in two_group_net.nodes
        ),
    )
    back = parse_network(serialize_network(tampered))
    assert back.node(4).compromised
    assert back.node(4).reported_pos.x == pytest.approx(back.node(4).true_pos.x + 40.0)
    # Cross references describe the pre-attack network.
    ref = cross_reference(back, 4, 0)
    assert true_distance(ref, back.node(4).true_pos) < 1e-9


def test_parse_rejects_missing_header():
    with pytest.raises(ValueError, match="header"):
        parse_network("area_w=600.0\narea_h=600.0\n")


def test_parse_rejects_wrong_body_length(two_group_net):
    text = serialize_network(two_group_net)
    lines = text.splitlines()
    with pytest.raises(ValueError, match="lines"):
        parse_network("\n".join(lines[:-1]) + "\n")


def test_parse_rejects_malformed_node_line(two_group_net):
    text = serialize_network(two_group_net).replace("\n0,", "\nzero,", 1)
    with pytest.raises(ValueError):
        parse_network(text)
