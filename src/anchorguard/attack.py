"""Compromise anchors so they advertise false location references.

An attacked node stays where it is; only the coordinates it reports
are displaced.  Ground truth about who was compromised is returned
separately so experiments can score detectors against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .deployment import Network
from .geometry import Point2

MAX_REPORT_TRIES = 1_000


class InvalidSpec(ValueError):
    """Raised when an attack specification cannot be applied."""


@dataclass(frozen=True)
class FixedOffset:
    """Shift every falsified report by the same vector."""

    dx: float
    dy: float


@dataclass(frozen=True)
class UniformRadial:
    """Displace each report by a uniform radius in [min_r, max_r] at a
    uniform angle."""

    min_r: float = 20.0
    max_r: float = 60.0


@dataclass(frozen=True)
class UniformRandom:
    """Pick victims uniformly at random without replacement."""


@dataclass(frozen=True)
class SpecificIds:
    """Compromise exactly these node ids."""

    ids: tuple[int, ...]


@dataclass(frozen=True)
class AttackSpec:
    count: int
    displacement: FixedOffset | UniformRadial = UniformRadial()
    selection: UniformRandom | SpecificIds = UniformRandom()


@dataclass(frozen=True)
class GroundTruth:
    """What actually happened, for scoring only."""

    malicious_ids: frozenset[int]
    original_positions: dict[int, Point2]


def _validate(net: Network, spec: AttackSpec) -> None:
    if spec.count < 0:
        raise InvalidSpec(f"count must be >= 0, got {spec.count}")
    if spec.count > len(net.nodes):
        raise InvalidSpec(f"count {spec.count} exceeds network size {len(net.nodes)}")
    disp = spec.displacement
    if isinstance(disp, FixedOffset):
        if not (math.isfinite(disp.dx) and math.isfinite(disp.dy)):
            raise InvalidSpec(f"fixed offset must be finite, got ({disp.dx}, {disp.dy})")
        if math.hypot(disp.dx, disp.dy) == 0.0:
            raise InvalidSpec("fixed offset must be non-zero")
    elif isinstance(disp, UniformRadial):
        if not (0.0 <= disp.min_r <= disp.max_r < math.inf) or disp.max_r <= 0.0:
            raise InvalidSpec(
                f"radial displacement needs 0 <= min_r <= max_r < inf and max_r > 0, "
                f"got [{disp.min_r}, {disp.max_r}]"
            )
    else:
        raise InvalidSpec(f"unknown displacement model {disp!r}")
    sel = spec.selection
    if isinstance(sel, SpecificIds):
        if len(set(sel.ids)) != len(sel.ids):
            raise InvalidSpec("duplicate ids in selection")
        if len(sel.ids) != spec.count:
            raise InvalidSpec(
                f"selection lists {len(sel.ids)} ids but count is {spec.count}"
            )
        known = {n.id for n in net.nodes}
        missing = [i for i in sel.ids if i not in known]
        if missing:
            raise InvalidSpec(f"selection names unknown node ids {missing}")
    elif not isinstance(sel, UniformRandom):
        raise InvalidSpec(f"unknown selection model {sel!r}")


def _falsified(
    node_pos: Point2,
    disp: FixedOffset | UniformRadial,
    area: tuple[float, float],
    rng: np.random.Generator,
) -> Point2:
    for _ in range(MAX_REPORT_TRIES):
        if isinstance(disp, FixedOffset):
            cand = Point2(node_pos.x + disp.dx, node_pos.y + disp.dy)
        else:
            r = rng.uniform(disp.min_r, disp.max_r)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            cand = Point2(node_pos.x + r * math.cos(theta), node_pos.y + r * math.sin(theta))
        if 0.0 <= cand.x <= area[0] and 0.0 <= cand.y <= area[1]:
            return cand
        if isinstance(disp, FixedOffset):
            break
    raise InvalidSpec("could not keep a falsified report inside the area")


def compromise(
    net: Network, spec: AttackSpec, rng: np.random.Generator
) -> tuple[Network, GroundTruth]:
    """Apply an attack spec to a network.

    Returns a new network in which the selected nodes advertise
    falsified coordinates, plus the ground truth record.  Falsified
    reports always land inside the deployment area so they cannot be
    rejected on sight.
    """
    _validate(net, spec)
    if isinstance(spec.selection, SpecificIds):
        victim_ids = sorted(spec.selection.ids)
    else:
        picked = rng.choice(len(net.nodes), size=spec.count, replace=False)
        all_ids = [n.id for n in net.nodes]
        victim_ids = sorted(all_ids[int(k)] for k in picked)

    victims = set(victim_ids)
    originals: dict[int, Point2] = {}
    new_nodes = []
    for node in net.nodes:
        if node.id in victims:
            originals[node.id] = node.reported_pos
            fake = _falsified(node.true_pos, spec.displacement, net.area, rng)
            new_nodes.append(replace(node, reported_pos=fake, compromised=True))
        else:
            new_nodes.append(node)
    truth = GroundTruth(malicious_ids=frozenset(victim_ids), original_positions=originals)
    return replace(net, nodes=tuple(new_nodes)), truth
