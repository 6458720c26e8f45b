"""Range measurement models between fixed radio nodes.

Ranges are always taken against physical positions.  A node can lie
about its coordinates, but the propagation delay between two radios is
set by where they actually are, so the only corruption applied here is
measurement noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Point2

_KINDS = ("exact", "gaussian", "lognormal")


@dataclass(frozen=True)
class RangingModel:
    """Noise model for a single range measurement.

    kind:
        "exact"      measured = d
        "gaussian"   measured = max(0, d + N(0, sigma)), additive error
        "lognormal"  measured = d * exp(N(0, sigma)), multiplicative error
    With sigma = 0 every kind returns the true distance bit for bit.
    """

    kind: str = "exact"
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown ranging kind {self.kind!r}, expected one of {_KINDS}")
        if not (0.0 <= self.sigma < math.inf):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")

    @classmethod
    def exact(cls) -> "RangingModel":
        return cls("exact", 0.0)

    @classmethod
    def gaussian(cls, sigma: float) -> "RangingModel":
        return cls("gaussian", sigma)

    @classmethod
    def lognormal(cls, sigma: float) -> "RangingModel":
        return cls("lognormal", sigma)


def true_distance(p: Point2, q: Point2) -> float:
    """Euclidean distance between two points, in meters."""
    return math.hypot(p.x - q.x, p.y - q.y)


def measure(true_d: float, model: RangingModel, rng: np.random.Generator) -> float:
    """Draw one range measurement of a true distance.

    Never returns a negative value; additive noise is clamped at zero.
    """
    if true_d < 0.0:
        raise ValueError(f"true distance must be >= 0, got {true_d}")
    if model.kind == "exact":
        return true_d
    if model.kind == "gaussian":
        noisy = true_d + rng.normal(0.0, model.sigma)
        return noisy if noisy > 0.0 else 0.0
    return true_d * math.exp(rng.normal(0.0, model.sigma))


def measure_block(
    true_ds: Sequence[float], model: RangingModel, rng: np.random.Generator, rows: int
) -> np.ndarray:
    """``rows`` rounds of measurements of each distance in ``true_ds``.

    Returns a ``(rows, len(true_ds))`` array equal, bit for bit, to
    calling ``measure`` row by row and distance by distance, and leaves
    ``rng`` in the same state: the noise is one ``normal`` block, which
    yields the same values in the same order as that many scalar draws.
    Exact ranging draws nothing.
    """
    shape = (rows, len(true_ds))
    if model.kind == "exact":
        return np.broadcast_to(np.array(true_ds, dtype=float), shape)
    noise = rng.normal(0.0, model.sigma, size=shape)
    if model.kind == "gaussian":
        noisy = np.array(true_ds, dtype=float) + noise
        return np.where(noisy > 0.0, noisy, 0.0)
    # np.exp and math.exp round differently on a few percent of inputs,
    # so the multiplicative factor is taken per element as ``measure`` does.
    return np.array(
        [[t * math.exp(z) for t, z in zip(true_ds, row)] for row in noise.tolist()],
        dtype=float,
    ).reshape(shape)
