"""Shared fixtures: hand-placed networks and one deployed network."""

from dataclasses import replace

import numpy as np
import pytest

from anchorguard.deployment import (
    AnchorGroup,
    AnchorNode,
    Network,
    ReferenceTable,
    build_references,
    deploy,
)
from anchorguard.geometry import Point2


def hand_network(groups_pts, comm_radius=150.0, area=(300.0, 300.0)):
    """Build a network from explicit (member positions, center) pairs.

    Node ids run in placement order; the m1 table is computed the
    same way deployment computes it.
    """
    nodes = []
    groups = []
    nid = 0
    for gid, (pts, center) in enumerate(groups_pts):
        ids = []
        for p in pts:
            nodes.append(AnchorNode(id=nid, true_pos=p, reported_pos=p, group_id=gid))
            ids.append(nid)
            nid += 1
        groups.append(
            AnchorGroup(id=gid, member_ids=tuple(ids), trilateration_point=center)
        )
    skeleton = Network(
        area=area,
        comm_radius=comm_radius,
        nodes=tuple(nodes),
        groups=tuple(groups),
        references=ReferenceTable(),
    )
    return replace(skeleton, references=build_references(skeleton))


@pytest.fixture
def two_group_net():
    # Two right triangles 60 m apart, well inside the comm radius.
    return hand_network(
        [
            ([Point2(0.0, 0.0), Point2(30.0, 0.0), Point2(0.0, 30.0)], Point2(10.0, 10.0)),
            ([Point2(60.0, 0.0), Point2(90.0, 0.0), Point2(60.0, 30.0)], Point2(70.0, 10.0)),
        ]
    )


@pytest.fixture(scope="session")
def deployed_net():
    """One field-scale deployment shared by read-only tests."""
    return deploy((600.0, 600.0), 122, np.random.default_rng(5))
