"""Planar trilateration in a canonical anchor frame.

Three anchors at known positions and three measured ranges determine a
position fix.  The solver maps the anchors into a canonical frame where
the first anchor sits at the origin, the second on the positive x axis
at distance ``d``, and the third at in-frame coordinates ``(i, j)``.
In that frame the fix has the closed form

    x = (r1^2 - r2^2 + d^2) / (2 d)
    y = (r1^2 - r3^2 + i^2 + j^2) / (2 j) - (i / j) x

which ``frame_xy`` evaluates on scalars and numpy arrays alike, so a
single fix (``trilaterate``) and a batch of them take one solve path.
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
class CanonicalFrame:
    """Rigid map from the anchor frame to world coordinates.

    Attributes:
        origin: World position of the first anchor (frame origin).
        ux, uy: World components of the frame x axis unit vector, which
            points from the first anchor toward the second.
        d: Baseline length, the frame-x coordinate of the second anchor.
        i, j: Frame coordinates of the third anchor.  ``j`` keeps its
            sign so both triangle orientations map back exactly.
    """

    origin: Point2
    ux: float
    uy: float
    d: float
    i: float
    j: float

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

    ``d``, ``i``, ``j`` describe the anchor triple as in ``CanonicalFrame``;
    ``r1``..``r3`` are the ranges from the respective anchors.  Also
    evaluates elementwise on numpy arrays of ranges, with the same
    operations in the same order, so a batch of fixes matches one
    ``trilaterate`` call per fix to the last bit.
    """
    x = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    y = (r1 * r1 - r3 * r3 + i * i + j * j) / (2.0 * j) - (i / j) * x
    return x, y


def trilaterate(
    anchors: tuple[Point2, Point2, Point2] | list[Point2],
    distances: tuple[float, float, float] | list[float],
) -> Point2:
    """Recover a world position from three anchors and three ranges.

    Args:
        anchors: Three anchor positions in world coordinates.
        distances: Ranges from each anchor, in the same order.

    Raises:
        DegenerateGeometry: if the anchors are collinear within tolerance.
    """
    frame = to_canonical(*anchors)
    x, y = frame_xy(frame.d, frame.i, frame.j, *distances)
    return Point2(*frame.world_xy(x, y))
