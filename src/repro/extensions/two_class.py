"""Exact two-class single-link model (heterogeneous flows, analytic).

Section 5 mentions heterogeneous flows "both in size and in utility".
:class:`~repro.extensions.heterogeneous.MixtureUtility` handles a fixed
per-census *composition*; this model drops that assumption: two classes
with *independent* census distributions, their own utilities and
per-flow demands, evaluated exactly by convolving the two censuses on
a truncated grid (no Monte Carlo).

Sharing semantics (the single-link specialisation of the network
module's weighted max-min):

- **best effort**: everyone transmits; class ``i`` flows get
  ``d_i * C / (k_1 d_1 + k_2 d_2)`` each (capacity per unit demand).
- **reservations**: per census state, classes are admitted greedily in
  order of utility per unit bandwidth ``pi_i(d_i)/d_i`` (the exact LP
  ordering for this two-variable knapsack), each admitted flow
  reserving ``d_i``; leftover capacity is redistributed
  demand-proportionally among the admitted, so nobody gets less than
  their reservation and underloaded states coincide with best effort.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ModelError
from repro.loads.base import LoadDistribution
from repro.models.engine import CapacityEngine
from repro.utility.base import UtilityFunction


class TwoClassModel(CapacityEngine):
    """Exact best-effort vs reservations for two independent classes.

    Parameters
    ----------
    loads:
        Pair of census distributions (independent).
    utilities:
        Pair of per-class utility functions.
    demands:
        Pair of per-flow bandwidth demands (> 0); default (1, 1).
    tol:
        Census-grid truncation tolerance (per class, on the partial
        first moment).  Heavy-tailed classes inflate the grid; this
        model targets light/moderate tails — use
        :class:`~repro.network.NetworkComparison` for extreme ones.

    ``delta`` is reported unclipped: it is nonnegative by construction
    (the reservation side falls back to the equal-share allocation in
    any census state where the greedy packing would lose to it).
    """

    LABEL = "two-class"
    CLIP_GAP = False

    def __init__(
        self,
        loads: Tuple[LoadDistribution, LoadDistribution],
        utilities: Tuple[UtilityFunction, UtilityFunction],
        demands: Tuple[float, float] = (1.0, 1.0),
        *,
        tol: float = 1e-8,
        grid_cap: int = 4096,
    ):
        if len(loads) != 2 or len(utilities) != 2 or len(demands) != 2:
            raise ModelError("TwoClassModel takes exactly two of each input")
        if any(d <= 0.0 for d in demands):
            raise ModelError(f"demands must be > 0, got {demands!r}")
        self._loads = tuple(loads)
        self._utilities = tuple(utilities)
        self._demands = tuple(float(d) for d in demands)
        self._tol = float(tol)

        sizes = []
        for load in self._loads:
            n = 64
            while load.mean_tail(n) > self._tol:
                n *= 2
                if n > grid_cap:
                    raise ModelError(
                        f"census grid for {load!r} exceeds {grid_cap}; the "
                        "tail is too heavy for the exact two-class model"
                    )
            sizes.append(n)
        self._sizes = tuple(sizes)

        ks1 = np.arange(sizes[0], dtype=float)
        ks2 = np.arange(sizes[1], dtype=float)
        p1 = np.asarray(self._loads[0].pmf_array(ks1), dtype=float)
        p2 = np.asarray(self._loads[1].pmf_array(ks2), dtype=float)
        for load, p in zip(self._loads, (p1, p2)):
            if load.support_min > 0:
                p[: load.support_min] = 0.0
        self._k1 = ks1[:, None]
        self._k2 = ks2[None, :]
        self._weights = p1[:, None] * p2[None, :]
        self._mean_total = self._loads[0].mean + self._loads[1].mean

        # admission ordering: utility per unit of reserved bandwidth
        density = [
            u.value(d) / d for u, d in zip(self._utilities, self._demands)
        ]
        self._dense_first = 0 if density[0] >= density[1] else 1

    @property
    def mean_load(self) -> float:
        """Total mean flow count across both classes."""
        return self._mean_total

    # ------------------------------------------------------------------

    def _state_utilities_best_effort(self, capacity: float) -> np.ndarray:
        d1, d2 = self._demands
        u1, u2 = self._utilities
        demand_total = self._k1 * d1 + self._k2 * d2
        with np.errstate(divide="ignore"):
            level = np.where(demand_total > 0.0, capacity / np.maximum(demand_total, 1e-300), 0.0)
        total = np.zeros_like(demand_total)
        mask = demand_total > 0.0
        total[mask] = (
            self._k1 * u1(np.minimum(d1 * level, 1e12))
            + self._k2 * u2(np.minimum(d2 * level, 1e12))
        )[mask]
        return total

    def _state_utilities_reservation(self, capacity: float) -> np.ndarray:
        d = self._demands
        u = self._utilities
        first = self._dense_first
        second = 1 - first
        k = (self._k1, self._k2)

        n_first = np.minimum(k[first], np.floor(capacity / d[first] + 1e-12))
        remaining = capacity - n_first * d[first]
        n_second = np.minimum(
            k[second], np.floor(np.maximum(remaining, 0.0) / d[second] + 1e-12)
        )
        reserved = n_first * d[first] + n_second * d[second]
        with np.errstate(divide="ignore"):
            boost = np.where(reserved > 0.0, capacity / np.maximum(reserved, 1e-300), 1.0)
        boost = np.minimum(boost, 1e12)
        total = np.zeros_like(reserved)
        mask = reserved > 0.0
        contributions = n_first * u[first](
            np.minimum(d[first] * boost, 1e12)
        ) + n_second * u[second](np.minimum(d[second] * boost, 1e12))
        total[mask] = contributions[mask]
        return total

    # ------------------------------------------------------------------

    def best_effort(self, capacity: float) -> float:
        """Normalised best-effort utility (per mean offered flow)."""
        self._check_capacity(capacity)
        if capacity == 0.0:
            return 0.0
        states = self._state_utilities_best_effort(capacity)
        return float(np.sum(self._weights * states)) / self._mean_total

    def reservation(self, capacity: float) -> float:
        """Normalised reservation utility."""
        self._check_capacity(capacity)
        if capacity == 0.0:
            return 0.0
        # The greedy density-ordered packing never overbooks, so in
        # census states where squeezing one more flow below its nominal
        # demand beats boosting the packed set (e.g. 9 flows at 99% of
        # demand vs 8 boosted ones) it loses to plain equal sharing.  A
        # reservation-capable network can always fall back to exactly
        # the best-effort allocation — reservations equal to the
        # equal-share levels — so the architecture's value is the
        # state-wise better of the two policies.  This also makes
        # reservation dominance (delta >= 0) hold exactly rather than
        # "in practice".
        states = np.maximum(
            self._state_utilities_reservation(capacity),
            self._state_utilities_best_effort(capacity),
        )
        return float(np.sum(self._weights * states)) / self._mean_total

    def per_class_best_effort(self, capacity: float) -> Tuple[float, float]:
        """Per-class normalised best-effort utilities (class means)."""
        d1, d2 = self._demands
        u1, u2 = self._utilities
        demand_total = self._k1 * d1 + self._k2 * d2
        with np.errstate(divide="ignore"):
            level = np.where(demand_total > 0.0, capacity / np.maximum(demand_total, 1e-300), 0.0)
        c1 = self._k1 * u1(np.minimum(d1 * level, 1e12))
        c2 = self._k2 * u2(np.minimum(d2 * level, 1e12))
        mask = demand_total > 0.0
        total1 = float(np.sum(self._weights[mask] * c1[mask]))
        total2 = float(np.sum(self._weights[mask] * c2[mask]))
        return total1 / self._loads[0].mean, total2 / self._loads[1].mean
