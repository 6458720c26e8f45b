"""Mahalanobis outlier confirmation over 2x2 covariances.

The detector's suspects get a second, statistical opinion: build a
covariance from reference positions, then measure how many standard
deviations a suspect's observed position sits from the centroid.

The chi-square cutoff at significance ``alpha`` bounds one thing: the
rate at which a fresh honest fix, scored against a cloud of its own, is
confirmed, and only for large clouds.  The cloud's covariance is itself
estimated, so smaller clouds confirm more: ~5.8% at the default 64
samples for ``alpha`` 0.05, and more below that.  It does not bound
honest suspects, which were picked because their fix strayed past
epsilon and so are confirmed more often than fresh fixes.

Everything here is closed form.  For a symmetric 2x2 matrix

    C = | s11 s12 |        inv(C) = 1/det * |  s22 -s12 |
        | s12 s22 |                         | -s12  s11 |

with det = s11*s22 - s12^2, which also equals var1*var2*(1 - rho^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .geometry import Point2

if TYPE_CHECKING:
    from .detection import SuspectRecord

# Singularity guard: determinants at or below this scale-relative
# threshold cannot be inverted meaningfully.
SINGULAR_REL = 1e-9
SINGULAR_FLOOR = 1e-18


class InsufficientData(ValueError):
    """Raised when fewer than 3 reference points are supplied."""


class SingularCovariance(ValueError):
    """Raised when a covariance is numerically non-invertible."""


@dataclass(frozen=True)
class CovarianceMatrix2:
    """Symmetric 2x2 matrix with its determinant precomputed."""

    s11: float
    s22: float
    s12: float

    @property
    def det(self) -> float:
        return self.s11 * self.s22 - self.s12 * self.s12


@dataclass(frozen=True)
class MahalanobisScore:
    anchor_id: int
    distance: float
    cutoff: float
    outlier: bool


def centroid(points: Sequence[Point2]) -> Point2:
    if not points:
        raise InsufficientData("cannot take the centroid of no points")
    n = float(len(points))
    return Point2(sum(p.x for p in points) / n, sum(p.y for p in points) / n)


def covariance(points: Sequence[Point2], center: Point2) -> CovarianceMatrix2:
    """Sample covariance of ``points`` about an explicit center.

    Uses the n-1 normalization.  Raises InsufficientData for fewer
    than 3 points, below which the estimate is meaningless.
    """
    n = len(points)
    if n < 3:
        raise InsufficientData(f"need at least 3 reference points, got {n}")
    s11 = s22 = s12 = 0.0
    for p in points:
        dx = p.x - center.x
        dy = p.y - center.y
        s11 += dx * dx
        s22 += dy * dy
        s12 += dx * dy
    norm = 1.0 / (n - 1)
    return CovarianceMatrix2(s11 * norm, s22 * norm, s12 * norm)


def invert(cov: CovarianceMatrix2) -> CovarianceMatrix2:
    """Closed-form inverse of a symmetric 2x2 matrix.

    Raises:
        SingularCovariance: when the determinant is within numerical
            noise of zero for the matrix's scale.
    """
    det = cov.det
    guard = max(SINGULAR_REL * max(abs(cov.s11), abs(cov.s22)) ** 2, SINGULAR_FLOOR)
    if abs(det) <= guard:
        raise SingularCovariance(f"determinant {det:.3e} is below guard {guard:.3e}")
    return CovarianceMatrix2(cov.s22 / det, cov.s11 / det, -cov.s12 / det)


def distance_to_centroid(p: Point2, center: Point2, inv: CovarianceMatrix2) -> float:
    """Mahalanobis distance of ``p`` from ``center`` under ``inv``."""
    dx = p.x - center.x
    dy = p.y - center.y
    q = inv.s11 * dx * dx + 2.0 * inv.s12 * dx * dy + inv.s22 * dy * dy
    return math.sqrt(q) if q > 0.0 else 0.0


def chi_square_cutoff(alpha: float = 0.05) -> float:
    """Distance cutoff with tail mass ``alpha`` under 2-d Gaussian noise.

    The squared Mahalanobis distance of Gaussian data is chi-square
    with 2 degrees of freedom, whose upper quantile is -2 ln(alpha).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return math.sqrt(-2.0 * math.log(alpha))


def confirm_outliers(
    suspects: Sequence["SuspectRecord"],
    reference_positions: Sequence[Point2],
    center: Point2,
    cutoff: float,
) -> list[MahalanobisScore]:
    """Score suspects against a reference cloud.

    Builds the covariance of ``reference_positions`` about ``center``,
    then flags every suspect whose observed position sits more than
    ``cutoff`` Mahalanobis units out.  Scores are returned in suspect
    order.

    Raises:
        InsufficientData: fewer than 3 reference positions.
        SingularCovariance: reference cloud is degenerate (for example
            all points identical, as happens with noise-free ranging).
    """
    cov = covariance(reference_positions, center)
    inv = invert(cov)
    scores = []
    for s in suspects:
        d = distance_to_centroid(s.observed_pos, center, inv)
        scores.append(
            MahalanobisScore(
                anchor_id=s.anchor_id, distance=d, cutoff=cutoff, outlier=d > cutoff
            )
        )
    return scores
