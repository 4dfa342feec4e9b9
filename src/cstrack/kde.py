"""Gaussian kernel density estimation on the unit interval.

Compliance probabilities live in [0, 1], so the estimator reflects each
kernel at both boundaries and renormalizes by the (closed-form) total mass
on [0, 1]; the returned density integrates to 1 up to quadrature error.
Bandwidth defaults to Silverman's rule with a floor of 1e-3 for degenerate
sample sets.
"""

from __future__ import annotations

import math

import numpy as np

BANDWIDTH_FLOOR = 1e-3


def silverman_bandwidth(samples: np.ndarray) -> float:
    """0.9 * min(std, IQR / 1.34) * n^(-1/5), floored at 1e-3."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    std = float(samples.std(ddof=1))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    h = 0.9 * spread * n ** (-0.2)
    return max(h, BANDWIDTH_FLOOR)


class BoundedDensity:
    """Reflected Gaussian KDE on [0, 1]; callable on scalars or arrays."""

    def __init__(self, samples, bandwidth: float | None = None):
        samples = np.asarray(samples, dtype=float).reshape(-1)
        if len(samples) < 2:
            raise ValueError(f"need at least 2 samples, got {len(samples)}")
        if ((samples < 0) | (samples > 1)).any():
            raise ValueError("samples must lie in [0, 1]")
        self.samples = samples
        self.bandwidth = (
            float(bandwidth) if bandwidth is not None else silverman_bandwidth(samples)
        )
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        from scipy.special import ndtr  # imported here: most commands never call it

        h = self.bandwidth
        # Mass of the reflected estimate on [0, 1]: for a kernel at s the
        # three images (s, -s, 2 - s) contribute Phi((1+s)/h) + Phi((2-s)/h) - 1.
        self._mass = float(
            np.mean(ndtr((1.0 + samples) / h) + ndtr((2.0 - samples) / h) - 1.0)
        )

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        h = self.bandwidth
        pts = np.atleast_1d(x)[:, None]
        s = self.samples[None, :]
        z = (
            _phi((pts - s) / h)
            + _phi((pts + s) / h)
            + _phi((pts - (2.0 - s)) / h)
        )
        dens = z.mean(axis=1) / (h * self._mass)
        return dens if x.ndim else float(dens[0])

    def integral(self, n: int = 10_001) -> float:
        xs = np.linspace(0.0, 1.0, n)
        return float(np.trapezoid(self(xs), xs))


def _phi(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
