"""Closed forms: power-law-satiation utility under algebraic load.

Section 3.3's last analytical wrinkle: the adaptive utility of Eq. 2
approaches 1 *exponentially*, but one can also consider utilities that
approach it *algebraically*, ``pi(b) = 1 - b^-tau`` above the unit
threshold.  Under the Pareto census this interacts with the load power
``z`` in a rich way.  With ``m = tau + 2 - z`` (assumed nonzero; the
resonant case is excluded):

    V_B(C) = k_bar - a_B C^{2-z} - b C^{-tau}
    V_R(C) = k_bar - a_R C^{2-z} - b C^{-tau}

with the *same* ``b = (z-1)/m`` in both (so the ``C^-tau`` parts cancel
from the architecture gap) and ``a_B > a_R``.  Consequently:

- ``tau > z - 2``: the ``C^{2-z}`` terms dominate both disutilities and
  ``Delta(C) ~ C`` (linear, as in the rigid/ramp cases);
- ``tau < z - 2``: the shared ``C^-tau`` term dominates and the gap is
  subleading, giving ``Delta(C) ~ C^{tau + 3 - z}`` — increasing but
  sublinear for ``z - 2 > tau > z - 3``, and *decreasing* for
  ``tau < z - 3``.

This module provides the closed forms, the exact gap solver, and the
asymptotic exponent — reproducing the paper's "we have observed similar
behavior in our calculations" paragraph.
"""

from __future__ import annotations

import math

from repro.errors import ModelError
from repro.models.engine import CapacityEngine
from repro.utility.algebraic_tail import AlgebraicTailUtility


class AlgebraicTailAlgebraicContinuum(CapacityEngine):
    """``pi(b) = 1 - b^-tau`` (b > 1) under the Pareto(z) census.

    ``B`` and ``R`` are closed forms; ``Delta`` is the inherited exact
    inversion.
    """

    LABEL = "algebraic-tail"
    MIN_CAPACITY = 1.0
    GAP_FLOOR = 1e-13
    UPPER_LIMIT = 1e12

    def __init__(self, z: float, tau: float):
        if z <= 2.0:
            raise ValueError(f"power z must be > 2, got {z!r}")
        if tau <= 0.0:
            raise ValueError(f"tau must be > 0, got {tau!r}")
        if abs(tau + 2.0 - z) < 1e-9:
            raise ModelError(
                f"tau = z - 2 is the resonant (logarithmic) case; perturb "
                f"tau or z slightly (got z={z!r}, tau={tau!r})"
            )
        self._z = float(z)
        self._tau = float(tau)
        self._utility = AlgebraicTailUtility(tau)
        # b* = (tau+1)^{1/tau}: per-flow bandwidth at the fixed-load optimum
        self._b_star = (tau + 1.0) ** (1.0 / tau)

    @property
    def z(self) -> float:
        """Census tail power."""
        return self._z

    @property
    def tau(self) -> float:
        """Utility satiation power."""
        return self._tau

    @property
    def mean_load(self) -> float:
        """``k_bar = (z-1)/(z-2)``."""
        return (self._z - 1.0) / (self._z - 2.0)

    def k_max(self, capacity: float) -> float:
        """``k_max(C) = C (tau+1)^{-1/tau}`` — strictly below C."""
        return capacity / self._b_star

    # ----------------------- closed-form totals -----------------------

    def total_best_effort(self, capacity: float) -> float:
        """``V_B(C)`` for ``C >= 1`` (flows above share 1 gain utility)."""
        self._check_capacity(capacity)
        z, tau = self._z, self._tau
        m = tau + 2.0 - z
        kbar = self.mean_load
        # int_1^C (z-1)k^{1-z}(1 - (C/k)^-tau) dk
        piece_full = kbar * (1.0 - capacity ** (2.0 - z))
        piece_tail = (
            (z - 1.0)
            / m
            * (capacity ** (2.0 - z) - capacity ** (-tau))
        )
        return piece_full - piece_tail

    def total_reservation(self, capacity: float) -> float:
        """``V_R(C)`` with the admission threshold at ``k_max(C)``."""
        self._check_capacity(capacity)
        z, tau = self._z, self._tau
        m = tau + 2.0 - z
        kbar = self.mean_load
        kmax = self.k_max(capacity)
        if kmax < 1.0:
            raise ModelError(
                f"closed forms need k_max >= 1 (C >= {self._b_star:.4f}), got C={capacity!r}"
            )
        admitted_full = kbar * (1.0 - kmax ** (2.0 - z))
        # C^-tau * kmax^m = C^{2-z} * b_star^-m
        admitted_tail = (
            (z - 1.0)
            / m
            * (capacity ** (2.0 - z) * self._b_star ** (-m) - capacity ** (-tau))
        )
        # overload term: kmax * pi(b*) * sf(kmax)
        overload = kmax ** (2.0 - z) * self._utility.value(self._b_star)
        return admitted_full - admitted_tail + overload

    def best_effort(self, capacity: float) -> float:
        """Normalised ``B(C)``."""
        return self.total_best_effort(capacity) / self.mean_load

    def reservation(self, capacity: float) -> float:
        """Normalised ``R(C)``."""
        return self.total_reservation(capacity) / self.mean_load

    # -------------------------- asymptotics ---------------------------

    def gap_growth_exponent(self) -> float:
        """The paper's trichotomy: ``Delta(C) ~ C^e`` with this ``e``.

        ``e = 1`` for ``tau > z-2``; ``e = tau + 3 - z`` otherwise —
        positive but sublinear for ``z-3 < tau < z-2``, negative
        (a *shrinking* gap) for ``tau < z-3``.
        """
        if self._tau > self._z - 2.0:
            return 1.0
        return self._tau + 3.0 - self._z

    def measured_growth_exponent(
        self, *, c_lo: float = 200.0, c_hi: float = 2000.0
    ) -> float:
        """Log-log slope of the exact ``Delta(C)`` between two capacities."""
        d_lo = self.bandwidth_gap(c_lo)
        d_hi = self.bandwidth_gap(c_hi)
        if d_lo <= 0.0 or d_hi <= 0.0:
            raise ModelError("gap vanished inside the measurement window")
        return math.log(d_hi / d_lo) / math.log(c_hi / c_lo)
