"""Canonical-frame construction and the closed-form trilateration solve."""

import math

import numpy as np
import pytest

from anchorguard.geometry import (
    DegenerateGeometry,
    Point2,
    frame_xy,
    to_canonical,
    trilaterate,
)

SQRT65 = math.sqrt(65.0)
SQRT45 = math.sqrt(45.0)


def test_canonical_frame_already_canonical():
    f = to_canonical(Point2(0, 0), Point2(10, 0), Point2(0, 10))
    assert f.d == pytest.approx(10.0, abs=1e-12)
    assert f.i == pytest.approx(0.0, abs=1e-12)
    assert f.j == pytest.approx(10.0, abs=1e-12)
    assert (f.ux, f.uy) == (1.0, 0.0)


def test_canonical_frame_translation_only():
    f = to_canonical(Point2(5, 5), Point2(15, 5), Point2(5, 15))
    assert f.origin == Point2(5, 5)
    assert f.d == pytest.approx(10.0, abs=1e-12)
    assert f.i == pytest.approx(0.0, abs=1e-12)
    assert f.j == pytest.approx(10.0, abs=1e-12)


def test_canonical_frame_keeps_orientation_sign():
    # Mirrored triple: the third anchor sits clockwise of the baseline,
    # so j must come out negative for the map back to world to be rigid.
    f = to_canonical(Point2(0, 0), Point2(0, 10), Point2(10, 0))
    assert f.d == pytest.approx(10.0, abs=1e-12)
    assert f.j == pytest.approx(-10.0, abs=1e-12)
    assert f.world_xy(f.i, f.j) == pytest.approx((10.0, 0.0), abs=1e-12)


def test_canonical_frame_round_trips_random_points():
    rng = np.random.default_rng(100)
    for _ in range(200):
        pts = [Point2(rng.uniform(-50, 650), rng.uniform(-50, 650)) for _ in range(3)]
        try:
            f = to_canonical(*pts)
        except DegenerateGeometry:
            continue
        # The frame puts the anchors at (0, 0), (d, 0) and (i, j).
        for (x, y), p in zip([(0.0, 0.0), (f.d, 0.0), (f.i, f.j)], pts):
            wx, wy = f.world_xy(x, y)
            assert math.hypot(wx - p.x, wy - p.y) < 1e-9


def test_collinear_within_tolerance_rejected():
    with pytest.raises(DegenerateGeometry):
        to_canonical(Point2(0, 0), Point2(10, 0), Point2(5, 1e-9))


def test_coincident_anchors_rejected():
    with pytest.raises(DegenerateGeometry):
        to_canonical(Point2(3, 3), Point2(3, 3), Point2(9, 9))


def test_solve_target_on_first_anchor():
    x, y = frame_xy(10.0, 0.0, 10.0, 0.0, 10.0, 10.0)
    assert x == pytest.approx(0.0, abs=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)


def test_solve_consistent_ranges():
    # Ranges generated from the ground-truth point (3, 4).
    x, y = frame_xy(10.0, 0.0, 10.0, 5.0, SQRT65, SQRT45)
    assert x == pytest.approx(3.0, abs=1e-12)
    assert y == pytest.approx(4.0, abs=1e-12)


def test_solve_inflated_first_range_lifts_fix_out_of_plane():
    # Growing only r1 to 6 moves the planar fix to the hand-evaluated
    # x = 71/20, y = 91/20, which no longer lies on the first circle.
    x, y = frame_xy(10.0, 0.0, 10.0, 6.0, SQRT65, SQRT45)
    assert x == pytest.approx(3.55, abs=1e-12)
    assert y == pytest.approx(4.55, abs=1e-12)


def test_solve_shrunk_first_range_clamps_residual():
    # Shrinking r1 to 4 moves the planar fix to the hand-evaluated
    # x = 51/20, y = 71/20, outside the first circle.
    x, y = frame_xy(10.0, 0.0, 10.0, 4.0, SQRT65, SQRT45)
    assert x == pytest.approx(2.55, abs=1e-12)
    assert y == pytest.approx(3.55, abs=1e-12)


def test_trilaterate_world_coordinates():
    fix = trilaterate(
        [Point2(0, 0), Point2(10, 0), Point2(0, 10)], [5.0, SQRT65, SQRT45]
    )
    assert fix.x == pytest.approx(3.0, abs=1e-9)
    assert fix.y == pytest.approx(4.0, abs=1e-9)


def test_trilaterate_translation_invariance():
    fix = trilaterate(
        [Point2(100, 100), Point2(110, 100), Point2(100, 110)], [5.0, SQRT65, SQRT45]
    )
    assert fix.x == pytest.approx(103.0, abs=1e-9)
    assert fix.y == pytest.approx(104.0, abs=1e-9)


def test_trilaterate_target_on_anchor():
    fix = trilaterate([Point2(0, 0), Point2(10, 0), Point2(0, 10)], [0.0, 10.0, 10.0])
    assert fix.x == pytest.approx(0.0, abs=1e-9)
    assert fix.y == pytest.approx(0.0, abs=1e-9)


def test_trilaterate_rotation_invariance():
    """Rotating anchors and target together rotates the fix."""
    rng = np.random.default_rng(101)
    for _ in range(50):
        pts = [Point2(rng.uniform(0, 600), rng.uniform(0, 600)) for _ in range(3)]
        t = Point2(rng.uniform(0, 600), rng.uniform(0, 600))
        try:
            base = trilaterate(pts, [math.hypot(t.x - p.x, t.y - p.y) for p in pts])
        except DegenerateGeometry:
            continue
        ang = rng.uniform(0, 2 * math.pi)
        ca, sa = math.cos(ang), math.sin(ang)
        rot = lambda p: Point2(ca * p.x - sa * p.y, sa * p.x + ca * p.y)
        turned = trilaterate(
            [rot(p) for p in pts],
            [math.hypot(t.x - p.x, t.y - p.y) for p in pts],
        )
        expect = rot(base)
        assert math.hypot(turned.x - expect.x, turned.y - expect.y) < 1e-8
