"""Covariance kernels for Gaussian-process regression."""

from __future__ import annotations

import numpy as np


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("inputs must have the same dimensionality")
    return np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * a @ b.T


class _StationaryKernel:
    """Shared hyperparameters of the distance-based kernels below."""

    def __init__(self, length_scale: float = 1.0, signal_variance: float = 1.0) -> None:
        if length_scale <= 0 or signal_variance <= 0:
            raise ValueError("length_scale and signal_variance must be positive")
        self.length_scale = length_scale
        self.signal_variance = signal_variance

    def diag(self, x: np.ndarray) -> np.ndarray:
        """``diag(self(x, x))`` without the matrix: every point's prior variance.

        A point's distance to itself is zero, so the diagonal is
        ``signal_variance``; in one dimension ``self(x, x)`` computes that
        zero exactly and the two agree bit for bit.
        """
        return np.full(np.atleast_2d(x).shape[0], self.signal_variance, dtype=float)


class RBFKernel(_StationaryKernel):
    """Squared-exponential kernel ``s^2 * exp(-||x-y||^2 / (2 l^2))``."""

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Covariance matrix between row sets ``a`` and ``b``."""
        sq = np.maximum(_pairwise_sq_dists(a, b), 0.0)
        return self.signal_variance * np.exp(-0.5 * sq / self.length_scale**2)


class Matern52Kernel(_StationaryKernel):
    """Matérn kernel with smoothness 5/2 (a common BO default)."""

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Covariance matrix between row sets ``a`` and ``b``."""
        distance = np.sqrt(np.maximum(_pairwise_sq_dists(a, b), 0.0))
        scaled = np.sqrt(5.0) * distance / self.length_scale
        return self.signal_variance * (1.0 + scaled + scaled**2 / 3.0) * np.exp(-scaled)
