"""Two-stage detection of anchors advertising false coordinates.

Stage 1 (``group_check``) re-runs each group's deployment trilateration:
the radio resident at the group's center measures fresh ranges to the
members, the solver combines those ranges with the members' *advertised*
positions, and the result is compared against the stored ``m1`` record.
Ranges are set by physics and cannot be faked, so a member whose
advertised position has drifted from its physical one drags the solve
away from the record.  Members are additionally range-guarded against
each other and against up to two neighbor group centers; a falsified
position that happens to preserve the solve cannot also preserve its
measured distances to its co-members and to external centers at once.
A group fails when the largest of these deviations exceeds epsilon.

Stage 2 (``isolate_suspects``) re-localizes each member of a failed
group individually through the passing neighbor group with the
sharpest geometry, and compares the member's answer against the
member's deployment-time cross reference through that group, derived
on demand by ``deployment.cross_reference``.  Honest members report
the fresh fix and land back on their reference; compromised members
keep advertising their falsified coordinates and give themselves away
by the full displacement.  The verifier side of the exchange also
keeps its own physical fix of the member, which is where the system
now believes the node really sits.

Both stages find neighbor groups through ``neighbor_groups``, whose
lists a network builds once for all its groups.  Confirmation's
``relocalization_cloud`` replays a suspect's re-localization as one
batch: one block of noise draws, taken from the stream in the order the
scalar replay would take them, and the closed-form solve on arrays,
whose ``(xs, ys)`` result ``mahalanobis.confirm_outliers`` scores as is.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .deployment import Network, cross_reference, neighbor_groups
from .geometry import DegenerateGeometry, Point2, frame_xy, to_canonical, trilaterate
from .ranging import RangingModel, measure, measure_block, true_distance

# Number of neighbor-group centers each member is range-guarded
# against during stage 1, beyond its own group center.
GUARD_CENTERS = 2


@dataclass(frozen=True)
class GroupCheckResult:
    """Stage 1 outcome for one group.

    ``deviation`` is the largest disagreement found: the distance from
    the fresh group fix to the stored record, or the worst range-guard
    gap, whichever is bigger.  A degenerate advertised triple cannot be
    solved and fails outright with infinite deviation.
    """

    group_id: int
    passed: bool
    observed: Point2 | None
    deviation: float
    degenerate: bool = False


@dataclass(frozen=True)
class SuspectRecord:
    """Stage 2 outcome for one member of a failed group.

    Attributes:
        anchor_id: The examined member.
        group_id: Its group.
        verifier_group_id: The passing neighbor group used to check it.
        observed_pos: The member's re-localized position as the member
            reports it.  Honest members relay the fresh fix;
            compromised members keep asserting their falsified
            coordinates.
        localized_pos: The verifier side's physical fix of the member,
            computed from measured ranges alone.
        reference_pos: The deployment-time cross reference of the
            member through the verifier group.
        deviation: Distance from observed_pos to reference_pos.
    """

    anchor_id: int
    group_id: int
    verifier_group_id: int
    observed_pos: Point2
    localized_pos: Point2
    reference_pos: Point2
    deviation: float


@dataclass(frozen=True)
class DetectionReport:
    """Everything one detection pass produced."""

    checks: tuple[GroupCheckResult, ...]
    suspects: tuple[SuspectRecord, ...]
    flagged_ids: frozenset[int]
    groups_failed: frozenset[int]
    groups_unresolved: frozenset[int]
    elapsed_ms: float


def _guard_centers(net: Network, group_id: int) -> list[int]:
    return neighbor_groups(net, group_id)[:GUARD_CENTERS]


def _verifier_quality(net: Network, group_id: int, candidate_id: int) -> float:
    """Rank a candidate verifier by expected fix sharpness.

    Range noise blows up roughly with the ratio of target distance to
    anchor baseline, so a wide founding triangle close by beats a
    sliver far away.  Uses advertised positions only; a candidate that
    passed its own check stands by those.
    """
    cand = net.group(candidate_id)
    a, b, c = (net.node(i).reported_pos for i in cand.founding_ids)
    area2 = abs((b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y))
    dist = true_distance(
        net.group(group_id).trilateration_point, cand.trilateration_point
    )
    return math.sqrt(0.5 * area2) / max(dist, 1.0)


def group_check(
    net: Network,
    group_id: int,
    epsilon: float,
    model: RangingModel,
    rng: np.random.Generator,
) -> GroupCheckResult:
    """Re-verify one group against its stored ``m1`` record.

    Consumes fresh range measurements; two calls with independent rng
    states model two separate verification rounds.
    """
    group = net.group(group_id)
    stored = net.m1[group.id]
    center = group.trilateration_point
    founding = [net.node(i) for i in group.founding_ids]

    solve_ranges = [
        measure(true_distance(center, n.true_pos), model, rng) for n in founding
    ]
    gaps = [
        abs(r - true_distance(n.reported_pos, stored))
        for r, n in zip(solve_ranges, founding)
    ]

    # Members also range each other.  A falsified coordinate must then
    # stay consistent with circles centered on every co-member, and the
    # founding triangle's area floor keeps those circles from lining up
    # into a mirror-symmetric, spoofable configuration.
    for i, a in enumerate(founding):
        for b in founding[i + 1 :]:
            meas = measure(true_distance(a.true_pos, b.true_pos), model, rng)
            gaps.append(abs(meas - true_distance(a.reported_pos, b.reported_pos)))

    guard_ids = _guard_centers(net, group.id)
    for member_id in group.member_ids:
        node = net.node(member_id)
        if member_id not in group.founding_ids:
            own = measure(true_distance(center, node.true_pos), model, rng)
            gaps.append(abs(own - true_distance(node.reported_pos, stored)))
            for f in founding:
                meas = measure(true_distance(node.true_pos, f.true_pos), model, rng)
                gaps.append(
                    abs(meas - true_distance(node.reported_pos, f.reported_pos))
                )
        for gid in guard_ids:
            other = net.group(gid)
            meas = measure(
                true_distance(other.trilateration_point, node.true_pos), model, rng
            )
            claim = true_distance(node.reported_pos, net.m1[gid])
            gaps.append(abs(meas - claim))

    try:
        fix = trilaterate([n.reported_pos for n in founding], solve_ranges)
    except DegenerateGeometry:
        return GroupCheckResult(
            group_id=group.id,
            passed=False,
            observed=None,
            deviation=float("inf"),
            degenerate=True,
        )
    deviation = max([true_distance(fix, stored)] + gaps)
    return GroupCheckResult(
        group_id=group.id,
        passed=deviation <= epsilon,
        observed=fix,
        deviation=deviation,
    )


def isolate_suspects(
    net: Network,
    failed_group_id: int,
    epsilon: float,
    model: RangingModel,
    rng: np.random.Generator,
    verifier_group_id: int,
) -> list[SuspectRecord]:
    """Re-localize every member of a failed group through a verifier.

    ``run_detection`` picks the verifier: the passing neighbor group
    with the sharpest geometry.  Returns records only for members whose
    deviation exceeds epsilon.
    """
    group = net.group(failed_group_id)
    verifier = net.group(verifier_group_id)
    v_nodes = [net.node(i) for i in verifier.founding_ids]
    v_anchor_pts = [v.reported_pos for v in v_nodes]

    records = []
    for member_id in group.member_ids:
        node = net.node(member_id)
        ranges = [
            measure(true_distance(v.true_pos, node.true_pos), model, rng)
            for v in v_nodes
        ]
        fix = trilaterate(v_anchor_pts, ranges)
        # Behavior model, not detector knowledge: an honest node relays
        # the fresh fix, a compromised one re-asserts its false claim.
        observed = node.reported_pos if node.compromised else fix
        reference = cross_reference(net, member_id, verifier_group_id)
        deviation = true_distance(observed, reference)
        if deviation > epsilon:
            records.append(
                SuspectRecord(
                    anchor_id=member_id,
                    group_id=failed_group_id,
                    verifier_group_id=verifier_group_id,
                    observed_pos=observed,
                    localized_pos=fix,
                    reference_pos=reference,
                    deviation=deviation,
                )
            )
    return records


def run_detection(
    net: Network,
    epsilon: float,
    model: RangingModel,
    rng: np.random.Generator,
) -> DetectionReport:
    """Run both stages over the whole network.

    Groups are checked in id order; every failed group is then resolved
    through the passing neighbor with the sharpest geometry.  Failed
    groups with no passing neighbor are reported as unresolved and
    their members are left unflagged rather than guessed at.
    """
    start = time.perf_counter()
    checks = []
    passing = set()
    failed = []
    for g in net.groups:
        result = group_check(net, g.id, epsilon, model, rng)
        checks.append(result)
        if result.passed:
            passing.add(g.id)
        else:
            failed.append(g.id)

    suspects: list[SuspectRecord] = []
    unresolved = []
    for gid in failed:
        usable = [c for c in neighbor_groups(net, gid) if c in passing]
        if not usable:
            unresolved.append(gid)
            continue
        verifier = max(usable, key=lambda c: _verifier_quality(net, gid, c))
        suspects.extend(
            isolate_suspects(net, gid, epsilon, model, rng, verifier_group_id=verifier)
        )

    elapsed_ms = (time.perf_counter() - start) * 1e3
    return DetectionReport(
        checks=tuple(checks),
        suspects=tuple(suspects),
        flagged_ids=frozenset(r.anchor_id for r in suspects),
        groups_failed=frozenset(failed),
        groups_unresolved=frozenset(unresolved),
        elapsed_ms=elapsed_ms,
    )


def relocalization_cloud(
    net: Network,
    reference: Point2,
    verifier_group_id: int,
    model: RangingModel,
    rng: np.random.Generator,
    samples: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated re-fixes of an anchor's cross reference position.

    The central server knows the verifier group's initial positions,
    the anchor's cross reference through that group (a suspect's
    ``reference_pos``), and the ranging noise model, so it can replay
    the re-localization ``samples`` times to see how far measurement
    noise alone scatters an honest answer.  The resulting cloud, as
    ``(xs, ys)`` world-coordinate arrays of length ``samples``, is the
    suspect's reference set for ``confirm_outliers``.

    The replay is batched: the verifier frame and the three true
    distances are computed once, the noise for all ``samples x 3``
    ranges is one ``measure_block`` draw, and the closed-form solve
    runs on arrays.  The stream is consumed in the same order as one
    ``measure`` per range and one ``trilaterate`` per fix, and every
    point comes out the same to the last bit.
    """
    v_pts = [net.node(i).true_pos for i in net.group(verifier_group_id).founding_ids]
    frame = to_canonical(*v_pts)
    ranges = measure_block(
        [true_distance(p, reference) for p in v_pts], model, rng, samples
    )
    x, y = frame_xy(frame.d, frame.i, frame.j, *ranges.T)
    return frame.world_xy(x, y)
