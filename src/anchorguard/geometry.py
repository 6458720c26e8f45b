"""Planar trilateration in a canonical anchor frame.

Three anchors at known positions and three measured ranges determine a
position fix.  The solver maps the anchors into a canonical frame where
the first anchor sits at the origin, the second on the positive x axis
at distance ``d``, and the third at in-frame coordinates ``(i, j)``.
In that frame the fix has the closed form

    x = (r1^2 - r2^2 + d^2) / (2 d)
    y = (r1^2 - r3^2 + i^2 + j^2) / (2 j) - (i / j) x

and the leftover radicand ``r1^2 - x^2 - y^2`` measures how consistent
the three ranges are: zero for a perfectly consistent planar fix,
positive when the ranges would lift the fix out of plane, negative only
through measurement error (it is clamped to zero before the root).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Anchor triples whose triangle area falls below this are rejected:
# the frame is numerically meaningless past that point.
MIN_TRIANGLE_AREA = 1e-6


class DegenerateGeometry(ValueError):
    """Raised when an anchor triple is collinear or coincident."""


@dataclass(frozen=True)
class Point2:
    """A position in the plane, in meters."""

    x: float
    y: float


@dataclass(frozen=True)
class TrilaterationResult:
    """Outcome of a three-range position fix.

    Attributes:
        position: The recovered point.  Frame coordinates when produced
            by ``solve_canonical``, world coordinates from ``trilaterate``.
        a3_residual: Out-of-plane residual, ``sqrt(max(0, radicand))``.
        radicand: Raw value of ``r1^2 - x^2 - y^2`` before clamping.
    """

    position: Point2
    a3_residual: float
    radicand: float


@dataclass(frozen=True)
class CanonicalFrame:
    """Rigid map between world coordinates and the anchor frame.

    Attributes:
        origin: World position of the first anchor (frame origin).
        ux, uy: World components of the frame x axis unit vector, which
            points from the first anchor toward the second.
        d: Baseline length, the frame-x coordinate of the second anchor.
        i, j: Frame coordinates of the third anchor.  ``j`` keeps its
            sign so both triangle orientations round-trip exactly.
    """

    origin: Point2
    ux: float
    uy: float
    d: float
    i: float
    j: float

    def to_frame(self, p: Point2) -> Point2:
        dx = p.x - self.origin.x
        dy = p.y - self.origin.y
        return Point2(self.ux * dx + self.uy * dy, -self.uy * dx + self.ux * dy)

    def to_world(self, p: Point2) -> Point2:
        return Point2(*self.world_xy(p.x, p.y))

    def world_xy(self, x, y):
        """World coordinates of frame point ``(x, y)``.  Also evaluates
        elementwise, with the same rounding, on numpy arrays."""
        return (
            self.origin.x + self.ux * x - self.uy * y,
            self.origin.y + self.uy * x + self.ux * y,
        )


def to_canonical(p1: Point2, p2: Point2, p3: Point2) -> CanonicalFrame:
    """Build the canonical frame for an anchor triple.

    Raises:
        DegenerateGeometry: if the triple spans a triangle of area below
            ``MIN_TRIANGLE_AREA`` square meters.
    """
    bx = p2.x - p1.x
    by = p2.y - p1.y
    d = math.hypot(bx, by)
    if d <= 0.0:
        raise DegenerateGeometry("first two anchors coincide")
    ux = bx / d
    uy = by / d
    cx = p3.x - p1.x
    cy = p3.y - p1.y
    i = ux * cx + uy * cy
    j = -uy * cx + ux * cy
    if 0.5 * abs(d * j) < MIN_TRIANGLE_AREA:
        raise DegenerateGeometry(
            f"anchor triple is collinear within tolerance (area {0.5 * abs(d * j):.3e} m^2)"
        )
    return CanonicalFrame(origin=p1, ux=ux, uy=uy, d=d, i=i, j=j)


def frame_xy(d: float, i: float, j: float, r1, r2, r3):
    """The closed-form fix ``(x, y)`` in frame coordinates, unchecked.

    Also evaluates elementwise on numpy arrays of ranges, with the same
    operations in the same order, so a batch of fixes matches one
    ``solve_canonical`` call per fix to the last bit.
    """
    x = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    y = (r1 * r1 - r3 * r3 + i * i + j * j) / (2.0 * j) - (i / j) * x
    return x, y


def solve_canonical(
    d: float, i: float, j: float, r1: float, r2: float, r3: float
) -> TrilaterationResult:
    """Solve the three-range fix in frame coordinates.

    ``d``, ``i``, ``j`` describe the anchor triple as in ``CanonicalFrame``;
    ``r1``..``r3`` are the ranges from the respective anchors.
    """
    if 0.5 * abs(d * j) < MIN_TRIANGLE_AREA:
        raise DegenerateGeometry("frame parameters describe a collinear triple")
    x, y = frame_xy(d, i, j, r1, r2, r3)
    radicand = r1 * r1 - x * x - y * y
    a3 = math.sqrt(radicand) if radicand > 0.0 else 0.0
    return TrilaterationResult(position=Point2(x, y), a3_residual=a3, radicand=radicand)


def trilaterate(
    anchors: tuple[Point2, Point2, Point2] | list[Point2],
    distances: tuple[float, float, float] | list[float],
) -> TrilaterationResult:
    """Recover a world position from three anchors and three ranges.

    Args:
        anchors: Three anchor positions in world coordinates.
        distances: Ranges from each anchor, in the same order.

    Returns:
        TrilaterationResult with ``position`` in world coordinates.

    Raises:
        DegenerateGeometry: if the anchors are collinear within tolerance.
    """
    p1, p2, p3 = anchors
    r1, r2, r3 = distances
    frame = to_canonical(p1, p2, p3)
    fix = solve_canonical(frame.d, frame.i, frame.j, r1, r2, r3)
    return TrilaterationResult(
        position=frame.to_world(fix.position),
        a3_residual=fix.a3_residual,
        radicand=fix.radicand,
    )
