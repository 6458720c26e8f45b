"""Anchor placement in verifiable trilateration groups.

Anchors go down in groups of three built around a known center, called
the group's trilateration point.  The first three anchors are placed
randomly and a fourth is installed directly on their trilateration
point, so that point hosts a physical radio.  Every later triple is
placed around an already deployed node: that node's position becomes
the new group's trilateration point, again guaranteeing a radio at the
center.  Placement keeps repeating until the target count is reached;
one or two leftover anchors are attached to their nearest group.

Each placement attempt draws its offsets' radii and angles as one block
(``_annulus_offsets``), with numpy's own ``uniform`` formula applied in
Python, so every offset and the stream left behind are those of one
scalar ``rng.uniform`` per value.

Placement files what it has put down in uniform grids (``_Grid``): node
positions with cells a little wider than ``MIN_NODE_SEPARATION``, and
nodes and group centers with cells a little wider than
``CROWDING_RADIUS``.  A separation test or a crowding count then reads
only the 3x3 block of cells around its point, with the same
``math.hypot`` comparison a scan of every placed node would make, so a
network comes out the same to the last bit in near-linear time.

At the end of placement the network records ``m1``: per group, the
position recovered by trilaterating the group's founding triple against
its center distances.  Detection replays it.  It is computed from
positions as advertised at deployment time, before any node has a
chance to lie.

Cross references, an anchor's position as recovered through another
group's founding triple, are derived on demand by ``cross_reference``
from installation positions, which never change.  Stage 2 needs only
the few that belong to members of failed groups.

Group adjacency, the ``neighbor_groups`` lists, is computed once per
``Network``, on first use, for every group at once: with group centers
sorted by x, each center is compared only with the centers whose x lies
within the comm radius of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .geometry import DegenerateGeometry, Point2, trilaterate
from .ranging import true_distance

# Group construction limits.  Triples are sampled in an annulus around
# their center; candidates with weak geometry are rejected and redrawn.
GROUP_RADIUS_MIN = 20.0
GROUP_RADIUS_MAX = 60.0
MIN_MEMBER_SPACING = 10.0
MIN_GROUP_AREA = 100.0
MAX_GROUP_ATTEMPTS = 10_000

# New anchors must keep clear of every radio already on the ground.
# Crowded seeds fail their candidates quickly, which steers growth
# toward open space and spreads the network over the area.
MIN_NODE_SEPARATION = 15.0

# Seed selection samples a few hosts and grows from the least crowded
# one, measured by existing group centers within this radius.  Pure
# uniform selection random-walks into a clump; favoring the frontier
# covers the area the way a field deployment crew would.
SEED_CANDIDATES = 5
CROWDING_RADIUS = 80.0

# Frontier bias alone can deadlock: a node pinned against the area
# boundary may be the unique least-crowded candidate, so every attempt
# re-picks it even though no triple fits around it.  Past this share of
# the budget, seed choice falls back to uniform over eligible hosts.
FRONTIER_ATTEMPTS = 2_000

DEFAULT_COMM_RADIUS = 150.0

# First-triple spread.  Slightly wider than the group annulus so the
# seed network does not start out degenerate.
FIRST_SPACING_MIN = 30.0
FIRST_SPACING_MAX = 70.0


class DeploymentFailure(RuntimeError):
    """Raised when placement cannot satisfy its constraints."""


class UnknownGroup(LookupError):
    """Raised when a group id is not present in the network."""


@dataclass(frozen=True)
class AnchorNode:
    """One anchor radio.

    ``true_pos`` is where the node physically sits and never changes.
    ``reported_pos`` is the location reference the node advertises; it
    equals ``true_pos`` until the node is compromised.
    """

    id: int
    true_pos: Point2
    reported_pos: Point2
    group_id: int
    compromised: bool = False


@dataclass(frozen=True)
class AnchorGroup:
    """A deployment group of three or more anchors.

    ``member_ids`` keeps insertion order: the first three entries are
    the founding triple that the group was built from, later entries
    are attached nodes.  ``trilateration_point`` is the center the
    triple was constructed around; a physical node sits there.
    """

    id: int
    member_ids: tuple[int, ...]
    trilateration_point: Point2

    @property
    def founding_ids(self) -> tuple[int, int, int]:
        return self.member_ids[0], self.member_ids[1], self.member_ids[2]


@dataclass(frozen=True)
class ReferenceTable:
    """Deployment-time localization records held by the central server."""

    m1: dict[int, Point2] = field(default_factory=dict)


@dataclass(frozen=True)
class Network:
    """An immutable deployed network snapshot."""

    area: tuple[float, float]
    comm_radius: float
    nodes: tuple[AnchorNode, ...]
    groups: tuple[AnchorGroup, ...]
    references: ReferenceTable

    @cached_property
    def _node_index(self) -> dict[int, AnchorNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _group_index(self) -> dict[int, AnchorGroup]:
        return {g.id: g for g in self.groups}

    @cached_property
    def _adjacency(self) -> dict[int, list[int]]:
        """Every group's ``neighbor_groups`` list.  Group centers are
        sorted by x, and each center is tested only against the later
        centers whose x lies within the comm radius of its own: ``hypot``
        is never below its x difference, so no pair past that point can
        be in range.  Each pair is measured once, for both ends, with the
        ``math.hypot`` distance and ``<=`` test a scan of every pair would
        use; negating both differences leaves ``hypot`` unchanged to the
        last bit."""
        radius = self.comm_radius
        hypot = math.hypot
        found: dict[int, list[tuple[float, int]]] = {g.id: [] for g in self.groups}
        by_x = sorted(
            (g.trilateration_point.x, g.trilateration_point.y, g.id) for g in self.groups
        )
        for k, (ax, ay, a) in enumerate(by_x):
            for bx, by, b in by_x[k + 1 :]:
                if bx - ax > radius:
                    break
                dist = hypot(ax - bx, ay - by)
                if dist <= radius:
                    found[a].append((dist, b))
                    found[b].append((dist, a))
        return {gid: [i for _, i in sorted(pairs)] for gid, pairs in found.items()}

    def node(self, node_id: int) -> AnchorNode:
        try:
            return self._node_index[node_id]
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None

    def group(self, group_id: int) -> AnchorGroup:
        try:
            return self._group_index[group_id]
        except KeyError:
            raise UnknownGroup(f"no group with id {group_id}") from None


def _in_area(x: float, y: float, area: tuple[float, float]) -> bool:
    return 0.0 <= x <= area[0] and 0.0 <= y <= area[1]


def _triangle_ok(pts: list[tuple[float, float]]) -> bool:
    (x1, y1), (x2, y2), (x3, y3) = pts
    for (ax, ay), (bx, by) in (((x1, y1), (x2, y2)), ((x1, y1), (x3, y3)), ((x2, y2), (x3, y3))):
        if math.hypot(ax - bx, ay - by) < MIN_MEMBER_SPACING:
            return False
    area2 = abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))
    return 0.5 * area2 >= MIN_GROUP_AREA


def _annulus_offsets(
    rng: np.random.Generator, count: int, r_min: float, r_max: float
) -> list[tuple[float, float]]:
    """``count`` offsets at a radius in [r_min, r_max) and an angle in
    [0, 2 pi), from one block of ``2 * count`` draws.

    ``low + (high - low) * u`` is the formula numpy's ``uniform`` applies
    to each draw ``u``, so the offsets and the stream left behind are
    those of alternating scalar ``rng.uniform(r_min, r_max)`` and
    ``rng.uniform(0.0, 2.0 * math.pi)`` calls.
    """
    u = rng.random(2 * count).tolist()
    span = r_max - r_min
    offsets = []
    for k in range(0, 2 * count, 2):
        r = r_min + span * u[k]
        theta = 2.0 * math.pi * u[k + 1]
        offsets.append((r * math.cos(theta), r * math.sin(theta)))
    return offsets


def _first_triple(area: tuple[float, float], rng: np.random.Generator) -> list[tuple[float, float]]:
    for _ in range(MAX_GROUP_ATTEMPTS):
        # ``rng.uniform(0.0, w)`` is ``0.0 + w * u``, and adding 0.0
        # leaves the product unchanged.
        ux, uy = rng.random(2).tolist()
        x0, y0 = area[0] * ux, area[1] * uy
        pts = [(x0, y0)]
        for dx, dy in _annulus_offsets(rng, 2, FIRST_SPACING_MIN, FIRST_SPACING_MAX):
            pts.append((x0 + dx, y0 + dy))
        if all(_in_area(x, y, area) for x, y in pts) and _triangle_ok(pts):
            return pts
    raise DeploymentFailure("could not place the initial anchor triple")


class _Grid:
    """Items bucketed by the square cell of the point they stand for.

    Cells are a little wider than ``radius``, so every stored point
    within ``radius`` of a query point sits in the 3x3 block of cells
    around the query's own cell, even after ``x / cell`` is rounded.
    ``near`` returns the items of that block as one list: a superset of
    the points in range, which callers filter with their own exact
    distance test.
    """

    def __init__(self, radius: float):
        self.cell = radius * 1.0625
        self.cells: dict[tuple[int, int], list] = {}

    def add(self, x: float, y: float, item) -> None:
        key = (math.floor(x / self.cell), math.floor(y / self.cell))
        self.cells.setdefault(key, []).append(item)

    def near(self, x: float, y: float) -> list:
        kx = math.floor(x / self.cell)
        ky = math.floor(y / self.cell)
        get = self.cells.get
        items: list = []
        for i in (kx - 1, kx, kx + 1):
            items += get((i, ky - 1), ())
            items += get((i, ky), ())
            items += get((i, ky + 1), ())
        return items


def _clear_of(pts: list[tuple[float, float]], placed: _Grid) -> bool:
    """True when no point of ``placed`` lies within MIN_NODE_SEPARATION
    of any of ``pts``; ``placed`` holds (x, y) items."""
    hypot = math.hypot
    for x, y in pts:
        for ex, ey in placed.near(x, y):
            if hypot(x - ex, y - ey) < MIN_NODE_SEPARATION:
                return False
    return True


class _Crowding:
    """Per node, the number of group centers within CROWDING_RADIUS.

    Counts stay current as nodes and centers arrive in any order: a new
    node counts the centers around it once, and a new center bumps the
    nodes around it.
    """

    def __init__(self) -> None:
        self.counts: list[int] = []
        self._nodes = _Grid(CROWDING_RADIUS)
        self._centers = _Grid(CROWDING_RADIUS)

    def add_node(self, x: float, y: float) -> None:
        self._nodes.add(x, y, (x, y, len(self.counts)))
        self.counts.append(
            sum(
                1
                for cx, cy in self._centers.near(x, y)
                if math.hypot(x - cx, y - cy) < CROWDING_RADIUS
            )
        )

    def add_center(self, cx: float, cy: float) -> None:
        self._centers.add(cx, cy, (cx, cy))
        for x, y, idx in self._nodes.near(cx, cy):
            if math.hypot(x - cx, y - cy) < CROWDING_RADIUS:
                self.counts[idx] += 1


def _triple_around(
    center: tuple[float, float],
    area: tuple[float, float],
    placed: _Grid,
    rng: np.random.Generator,
) -> list[tuple[float, float]] | None:
    """Sample a triple whose centroid falls exactly on ``center``.

    Offsets are drawn from an annulus and then mean-centered, which
    snaps the triple's trilateration point onto the chosen node.
    Returns None when the candidate violates area, geometry, or node
    separation limits.
    """
    offsets = _annulus_offsets(rng, 3, GROUP_RADIUS_MIN, GROUP_RADIUS_MAX)
    mx = sum(o[0] for o in offsets) / 3.0
    my = sum(o[1] for o in offsets) / 3.0
    pts = [(center[0] + ox - mx, center[1] + oy - my) for ox, oy in offsets]
    if not all(_in_area(x, y, area) for x, y in pts):
        return None
    if not _triangle_ok(pts):
        return None
    if not _clear_of(pts, placed):
        return None
    return pts


def deploy(
    area: tuple[float, float],
    target_count: int,
    rng: np.random.Generator,
    comm_radius: float = DEFAULT_COMM_RADIUS,
) -> Network:
    """Place ``target_count`` anchors in ``area`` and build references.

    Args:
        area: Deployment rectangle (width, height) in meters, anchored
            at the origin.
        target_count: Total anchors to place; at least 4 so the initial
            trilateration point can host a node.
        rng: Source of randomness; placement is a pure function of it.
        comm_radius: Group adjacency radius used for neighbor groups.

    Raises:
        DeploymentFailure: when a constraint cannot be met within the
            per-group attempt budget.
    """
    if target_count < 4:
        raise DeploymentFailure(f"need at least 4 anchors, got {target_count}")
    if area[0] <= 0.0 or area[1] <= 0.0:
        raise DeploymentFailure(f"area must be positive, got {area}")
    span = FIRST_SPACING_MAX + GROUP_RADIUS_MAX
    if area[0] < span and area[1] < span:
        raise DeploymentFailure(f"area {area} is too small for group placement")

    positions: list[tuple[float, float]] = []
    node_groups: list[int] = []
    groups: list[tuple[int, list[int], tuple[float, float]]] = []
    placed = _Grid(MIN_NODE_SEPARATION)
    crowding = _Crowding()

    def place(pt: tuple[float, float], group_id: int) -> None:
        positions.append(pt)
        node_groups.append(group_id)
        placed.add(pt[0], pt[1], pt)
        crowding.add_node(pt[0], pt[1])

    first = _first_triple(area, rng)
    center0 = (
        (first[0][0] + first[1][0] + first[2][0]) / 3.0,
        (first[0][1] + first[1][1] + first[2][1]) / 3.0,
    )
    for pt in first:
        place(pt, 0)
    # The inaugural trilateration point gets its own resident node.
    place(center0, 0)
    groups.append((0, [0, 1, 2, 3], center0))
    crowding.add_center(*center0)

    # A node may host at most one trilateration point; duplicate centers
    # would collapse two guard circles into one and open a mirror
    # ambiguity that detection cannot range away.  ``eligible`` lists the
    # other nodes in ascending id order.
    eligible = [0, 1, 2]

    while target_count - len(positions) >= 3:
        group_id = len(groups)
        found = None
        for attempt in range(MAX_GROUP_ATTEMPTS):
            if attempt < FRONTIER_ATTEMPTS:
                size = min(SEED_CANDIDATES, len(eligible))
                picks = rng.choice(len(eligible), size=size, replace=False)
                seed_idx = min(
                    [eligible[i] for i in picks.tolist()], key=crowding.counts.__getitem__
                )
            else:
                seed_idx = eligible[int(rng.integers(len(eligible)))]
            pts = _triple_around(positions[seed_idx], area, placed, rng)
            if pts is not None:
                found = (seed_idx, pts)
                break
        if found is None:
            raise DeploymentFailure(f"exhausted attempts while placing group {group_id}")
        seed_idx, pts = found
        eligible.remove(seed_idx)
        center = positions[seed_idx]
        ids = list(range(len(positions), len(positions) + 3))
        for pt in pts:
            place(pt, group_id)
        eligible.extend(ids)
        groups.append((group_id, ids, center))
        crowding.add_center(*center)

    while len(positions) < target_count:
        spot = None
        for _ in range(MAX_GROUP_ATTEMPTS):
            seed_idx = int(rng.integers(0, len(positions)))
            dx, dy = _annulus_offsets(rng, 1, GROUP_RADIUS_MIN, GROUP_RADIUS_MAX)[0]
            cand = (positions[seed_idx][0] + dx, positions[seed_idx][1] + dy)
            if _in_area(cand[0], cand[1], area) and _clear_of([cand], placed):
                spot = cand
                break
        if spot is None:
            raise DeploymentFailure("exhausted attempts while placing a leftover anchor")
        nearest = min(
            groups,
            key=lambda g: math.hypot(spot[0] - g[2][0], spot[1] - g[2][1]),
        )
        nearest[1].append(len(positions))
        place(spot, nearest[0])

    nodes = tuple(
        AnchorNode(
            id=idx,
            true_pos=Point2(x, y),
            reported_pos=Point2(x, y),
            group_id=node_groups[idx],
        )
        for idx, (x, y) in enumerate(positions)
    )
    anchor_groups = tuple(
        AnchorGroup(
            id=gid,
            member_ids=tuple(member_ids),
            trilateration_point=Point2(cx, cy),
        )
        for gid, member_ids, (cx, cy) in groups
    )
    net = Network(
        area=(float(area[0]), float(area[1])),
        comm_radius=float(comm_radius),
        nodes=nodes,
        groups=anchor_groups,
        references=ReferenceTable(),
    )
    return replace(net, references=build_references(net))


def neighbor_groups(net: Network, group_id: int) -> list[int]:
    """Groups whose trilateration points lie within the comm radius.

    Sorted nearest first, ties broken by id; the group itself is
    excluded.  A network builds the lists of all its groups on the first
    call, comparing each center only with the centers in a band of x
    around it, with the same ``math.hypot`` distance and ``<=`` test a
    scan of every pair would use; every call returns a fresh copy of one
    list.

    Raises:
        UnknownGroup: if ``group_id`` is not in the network.
    """
    try:
        return list(net._adjacency[group_id])
    except KeyError:
        raise UnknownGroup(f"no group with id {group_id}") from None


def build_references(net: Network) -> ReferenceTable:
    """Compute the deployment-time ``m1`` table.

    Uses advertised positions throughout; run this before any attack so
    the stored records describe the honest network.

    Raises:
        DegenerateGeometry: if some group's founding triple is collinear.
    """
    m1: dict[int, Point2] = {}
    for g in net.groups:
        triple = [net.node(i) for i in g.founding_ids]
        center = g.trilateration_point
        dists = [true_distance(n.true_pos, center) for n in triple]
        try:
            fix = trilaterate([n.reported_pos for n in triple], dists)
        except DegenerateGeometry as exc:
            raise DegenerateGeometry(f"group {g.id}: {exc}") from None
        m1[g.id] = fix.position
    return ReferenceTable(m1=m1)


def cross_reference(net: Network, member_id: int, group_id: int) -> Point2:
    """Deployment-time fix of an anchor through a group's founding triple.

    Reads installation positions only: ``true_pos`` never changes and
    equals what every node advertised at deployment, so the result is
    the record the server took before any attack, whatever the nodes
    advertise now.  A degenerate triple cannot reach this point because
    ``build_references`` already rejected it.
    """
    verifiers = [net.node(i) for i in net.group(group_id).founding_ids]
    member = net.node(member_id)
    dists = [true_distance(v.true_pos, member.true_pos) for v in verifiers]
    return trilaterate([v.true_pos for v in verifiers], dists).position


def serialize_network(net: Network, seed: int = 0) -> str:
    """Render a network to its text fixture form.

    Header lines are ``key=value``; then one line per node
    ``id,true_x,true_y,reported_x,reported_y,group_id,compromised``
    and one line per group ``group_id,member_ids;t_x,t_y`` with member
    ids space separated.  Floats use shortest round-trip notation.
    """
    lines = [
        f"area_w={net.area[0]!r}",
        f"area_h={net.area[1]!r}",
        f"comm_radius={net.comm_radius!r}",
        f"seed={seed}",
        f"n_nodes={len(net.nodes)}",
        f"n_groups={len(net.groups)}",
    ]
    for n in net.nodes:
        lines.append(
            f"{n.id},{n.true_pos.x!r},{n.true_pos.y!r},"
            f"{n.reported_pos.x!r},{n.reported_pos.y!r},"
            f"{n.group_id},{1 if n.compromised else 0}"
        )
    for g in net.groups:
        members = " ".join(str(i) for i in g.member_ids)
        lines.append(
            f"{g.id},{members};{g.trilateration_point.x!r},{g.trilateration_point.y!r}"
        )
    return "\n".join(lines) + "\n"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def parse_network(text: str) -> Network:
    """Parse a fixture produced by ``serialize_network``.

    The ``m1`` table is rebuilt from the stored true positions, which
    reproduces the deployment-time records even when the fixture holds
    a network that was attacked after deployment.

    Raises:
        ValueError: on any structural problem in the fixture, including
            non-finite coordinates or header values, duplicate node or
            group ids, and groups that name unknown nodes or have fewer
            than three members.
    """
    raw = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in raw if ln and not ln.startswith("#")]
    header: dict[str, str] = {}
    idx = 0
    while idx < len(lines) and "=" in lines[idx] and "," not in lines[idx]:
        key, _, value = lines[idx].partition("=")
        header[key.strip()] = value.strip()
        idx += 1
    for key in ("area_w", "area_h", "comm_radius", "n_nodes", "n_groups"):
        if key not in header:
            raise ValueError(f"network fixture is missing header key {key!r}")
    try:
        area = (_finite(header["area_w"]), _finite(header["area_h"]))
        comm_radius = _finite(header["comm_radius"])
        n_nodes = int(header["n_nodes"])
        n_groups = int(header["n_groups"])
    except ValueError as exc:
        raise ValueError(f"bad network fixture header: {exc}") from None

    body = lines[idx:]
    if len(body) != n_nodes + n_groups:
        raise ValueError(
            f"expected {n_nodes} node lines and {n_groups} group lines, got {len(body)}"
        )

    nodes = []
    for ln in body[:n_nodes]:
        parts = ln.split(",")
        if len(parts) != 7:
            raise ValueError(f"bad node line: {ln!r}")
        try:
            nodes.append(
                AnchorNode(
                    id=int(parts[0]),
                    true_pos=Point2(_finite(parts[1]), _finite(parts[2])),
                    reported_pos=Point2(_finite(parts[3]), _finite(parts[4])),
                    group_id=int(parts[5]),
                    compromised=bool(int(parts[6])),
                )
            )
        except ValueError as exc:
            raise ValueError(f"bad node line {ln!r}: {exc}") from None

    groups = []
    for ln in body[n_nodes:]:
        head, sep, tail = ln.partition(";")
        if not sep:
            raise ValueError(f"bad group line: {ln!r}")
        gid_s, _, members_s = head.partition(",")
        coords = tail.split(",")
        if len(coords) != 2:
            raise ValueError(f"bad group line: {ln!r}")
        try:
            groups.append(
                AnchorGroup(
                    id=int(gid_s),
                    member_ids=tuple(int(m) for m in members_s.split()),
                    trilateration_point=Point2(_finite(coords[0]), _finite(coords[1])),
                )
            )
        except ValueError as exc:
            raise ValueError(f"bad group line {ln!r}: {exc}") from None

    known: set[int] = set()
    for n in nodes:
        if n.id in known:
            raise ValueError(f"duplicate node id {n.id}")
        known.add(n.id)
    group_ids: set[int] = set()
    for g in groups:
        if g.id in group_ids:
            raise ValueError(f"duplicate group id {g.id}")
        group_ids.add(g.id)
        if len(g.member_ids) < 3:
            raise ValueError(f"group {g.id} has fewer than three members")
        unknown = [i for i in g.member_ids if i not in known]
        if unknown:
            raise ValueError(f"group {g.id} names unknown node ids {unknown}")

    pristine = tuple(
        replace(n, reported_pos=n.true_pos, compromised=False) for n in nodes
    )
    skeleton = Network(
        area=area,
        comm_radius=comm_radius,
        nodes=pristine,
        groups=tuple(groups),
        references=ReferenceTable(),
    )
    references = build_references(skeleton)
    return replace(skeleton, nodes=tuple(nodes), references=references)
