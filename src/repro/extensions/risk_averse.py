"""Risk-averse users (Section 5's "other extensions").

The paper notes that a user's utility "may not merely be the average
performance experienced, but something less" — a risk-averse
functional.  The sampling extension (Section 5.1) is the limiting
worst-case form; this module provides the graded version: a convex
blend between expected performance and worst-of-S performance,

    U = (1 - aversion) * E[pi]  +  aversion * E[pi at worst of S samples],

which reduces to the basic model at ``aversion = 0`` and to the pure
sampling model at ``aversion = 1``.  All conclusions about *which*
architecture wins are preserved, but the margins grow with aversion —
the quantitative point the paper's Section 5.1 numbers make.
"""

from __future__ import annotations

from typing import Optional

from repro.loads.base import LoadDistribution
from repro.models.engine import CapacityEngine
from repro.models.sampling import SamplingModel
from repro.models.variable_load import VariableLoadModel
from repro.utility.base import UtilityFunction


class RiskAverseModel(CapacityEngine):
    """Blend of mean-performance and worst-of-S-samples scoring.

    Parameters
    ----------
    load, utility:
        As in :class:`~repro.models.variable_load.VariableLoadModel`.
    samples:
        ``S`` of the pessimistic component.
    aversion:
        Blend weight in ``[0, 1]``; 0 = risk-neutral (basic model),
        1 = pure worst-of-S (sampling model).
    """

    LABEL = "risk-averse"

    def __init__(
        self,
        load: LoadDistribution,
        utility: UtilityFunction,
        *,
        samples: int = 10,
        aversion: float = 0.5,
        k_max_limit: Optional[int] = None,
    ):
        if not 0.0 <= aversion <= 1.0:
            raise ValueError(f"aversion must be in [0, 1], got {aversion!r}")
        self._aversion = float(aversion)
        self._mean_model = VariableLoadModel(load, utility, k_max_limit=k_max_limit)
        self._worst_model = SamplingModel(
            load, utility, samples, k_max_limit=k_max_limit
        )

    @property
    def aversion(self) -> float:
        """Weight on the worst-of-S component."""
        return self._aversion

    @property
    def samples(self) -> int:
        """``S`` of the pessimistic component."""
        return self._worst_model.samples

    def k_max(self, capacity: float) -> int:
        """Admission threshold (shared across components)."""
        return self._mean_model.k_max(capacity)

    def best_effort(self, capacity: float) -> float:
        """Risk-adjusted best-effort utility."""
        w = self._aversion
        return (1.0 - w) * self._mean_model.best_effort(capacity) + (
            w * self._worst_model.best_effort(capacity)
        )

    def reservation(self, capacity: float) -> float:
        """Risk-adjusted reservation utility."""
        w = self._aversion
        return (1.0 - w) * self._mean_model.reservation(capacity) + (
            w * self._worst_model.reservation(capacity)
        )
