"""The arcsine law of a sinusoid sampled at arbitrary phase.

A bounded periodic error ``y = A*sin(phi)`` observed with the phase
treated as uniformly random follows the arcsine distribution on
(-A, A):

    f(y) = 1 / (pi * sqrt(A**2 - y**2)),   |y| < A
    sigma_y = A / sqrt(2)

The density diverges at the support edges (an integrable singularity),
which is exactly the piling-up of a sine wave near its turning points.
``pdf`` returns ``math.inf`` at |y| == A as a sentinel so plotting code
can clip rather than crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is imported only to sample
    import numpy as np

__all__ = ["ArcsineDistribution", "pdf", "std", "cdf", "sample"]


@dataclass(frozen=True)
class ArcsineDistribution:
    """Distribution of ``A*sin(U)`` with U uniform; amplitude in mm."""

    amplitude: float

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude!r}")


def pdf(d: ArcsineDistribution, y: float) -> float:
    """Density at y: ``1/(pi*sqrt(A^2 - y^2))`` inside the support.

    Returns 0 outside [-A, A] and ``inf`` exactly at the edges.
    """
    a = d.amplitude
    if abs(y) > a:
        return 0.0
    if abs(y) == a:
        return math.inf
    return 1.0 / (math.pi * math.sqrt(a * a - y * y))


def std(d: ArcsineDistribution) -> float:
    """Standard deviation ``A/sqrt(2)``."""
    return d.amplitude / math.sqrt(2.0)


def cdf(d: ArcsineDistribution, y: float) -> float:
    """Cumulative probability, ``1/2 + arcsin(y/A)/pi`` on the support."""
    a = d.amplitude
    if y <= -a:
        return 0.0
    if y >= a:
        return 1.0
    return 0.5 + math.asin(y / a) / math.pi


def sample(d: ArcsineDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n values by the exact phase construction ``A*sin(U)``.

    U is uniform on [0, 2*pi); no inverse-CDF approximation is
    involved, so the sample follows the law exactly.
    """
    import numpy as np

    u = rng.uniform(0.0, 2.0 * math.pi, int(n))
    return d.amplitude * np.sin(u)
