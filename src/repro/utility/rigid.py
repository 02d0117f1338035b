"""Rigid (hard real-time) utility — Equation 1 of the paper.

A rigid application needs ``b_hat`` units of bandwidth: below that it is
worthless, at or above it it is fully satisfied.  Traditional telephony
and other circuit-switched applications are the motivating examples.

    pi(b) = 0  for b <  b_hat
    pi(b) = 1  for b >= b_hat
"""

from __future__ import annotations

import numpy as np

from repro.utility.base import UtilityFunction


class RigidUtility(UtilityFunction):
    """Step utility with threshold ``b_hat`` (paper Eq. 1).

    With a link of capacity ``C`` the fixed-load total utility is
    ``V(k) = k`` for ``k <= C / b_hat`` and ``0`` beyond, so admission
    control at ``k_max(C) = floor(C / b_hat)`` is essential: one flow
    too many destroys *all* utility.
    """

    name = "rigid"
    has_jump = True

    def __init__(self, b_hat: float = 1.0):
        if b_hat <= 0.0:
            raise ValueError(f"rigid threshold must be > 0, got {b_hat!r}")
        self._b_hat = float(b_hat)

    @property
    def b_hat(self) -> float:
        """Bandwidth requirement of the application."""
        return self._b_hat

    def value(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        return 1.0 if b >= self._b_hat else 0.0

    def _values(self, b: np.ndarray) -> np.ndarray:
        if np.any(b < 0.0):
            raise ValueError("bandwidth must be >= 0")
        return (b >= self._b_hat).astype(float)

    def derivative(self, b: float) -> float:
        """Zero everywhere except the (measure-zero) step."""
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        return 0.0

    def breakpoints(self) -> tuple:
        return (self._b_hat,)

    def k_max(self, capacity: float) -> int:
        """Largest flow count with nonzero total utility: floor(C/b_hat)."""
        if capacity < 0.0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        return int(capacity / self._b_hat)

    def __repr__(self) -> str:
        return f"RigidUtility(b_hat={self._b_hat!r})"
