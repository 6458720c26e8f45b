"""Mahalanobis outlier confirmation over 2x2 covariances.

The detector's suspects get a second, statistical opinion: each one's
cloud of honest re-fixes, as the ``(xs, ys)`` arrays that
``relocalization_cloud`` solves, gives a covariance about the suspect's
cross reference, and the suspect's observed position is scored by how
many standard deviations it sits from that reference.

The chi-square cutoff at significance ``alpha`` bounds one thing: the
rate at which a fresh honest fix, scored against an n-sample cloud of
its own about the known center, is confirmed, and only for large
clouds.  The cloud's covariance is itself estimated, so that rate is
exactly (1 + c^2/(n-1))^(-(n-1)/2) for cutoff c: 5.7% at the default
64 samples for ``alpha`` 0.05, and more below that (11.5% at 8).  It
does not bound honest suspects, which were picked because their fix
strayed past epsilon and so are confirmed more often than fresh fixes.

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
    import numpy as np

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
    """One suspect's confirmation.  ``singular`` marks a cloud with no
    spread, against which the suspect is an outlier at infinite distance."""

    anchor_id: int
    distance: float
    cutoff: float
    outlier: bool
    singular: bool


def covariance(xs: np.ndarray, ys: np.ndarray, center: Point2) -> CovarianceMatrix2:
    """Sample covariance (n-1 normalization) of the cloud ``(xs, ys)``
    about an explicit center, summed left to right in point order, never
    pairwise.  Raises InsufficientData for fewer than 3 points, below
    which the estimate is meaningless.
    """
    n = len(xs)
    if n < 3:
        raise InsufficientData(f"need at least 3 reference points, got {n}")
    s11 = s22 = s12 = 0.0
    for dx, dy in zip((xs - center.x).tolist(), (ys - center.y).tolist()):
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
    clouds: Sequence[tuple[np.ndarray, np.ndarray]],
    cutoff: float,
) -> list[MahalanobisScore]:
    """Score each suspect about its own ``reference_pos`` against its
    own cloud, ``clouds`` being in suspect order, and return one score
    per suspect in that order.  A singular cloud means the references
    are unanimous (noise-free ranging); the suspect, already past
    epsilon, is then an outlier outright, at infinite distance.
    """
    scores = []
    for s, (xs, ys) in zip(suspects, clouds, strict=True):
        center = s.reference_pos
        try:
            inv = invert(covariance(xs, ys, center))
        except SingularCovariance:
            scores.append(MahalanobisScore(s.anchor_id, math.inf, cutoff, True, True))
            continue
        d = distance_to_centroid(s.observed_pos, center, inv)
        scores.append(MahalanobisScore(s.anchor_id, d, cutoff, d > cutoff, False))
    return scores
