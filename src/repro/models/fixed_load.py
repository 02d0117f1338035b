"""The fixed load model — Section 2 of the paper.

A single link of capacity ``C`` carries exactly ``k`` identical flows,
each receiving the equal share ``C/k``.  The total utility is

    V(k) = k * pi(C/k).

If ``V`` is increasing in ``k``, admitting everyone maximises utility
and best-effort-only wins; if ``V`` peaks at a finite ``k_max(C)``,
denying service to flows beyond ``k_max`` — i.e. an admission-capable,
reservation-style architecture — is strictly better.  Which case
applies is decided entirely by the shape of ``pi``: a convex
neighbourhood of the origin forces a finite peak, everywhere-strict
concavity makes ``V`` increase forever.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import obs
from repro.caching import DEFAULT_MAXSIZE, BoundedCache
from repro.errors import ModelError
from repro.numerics.optimize import argmax_int
from repro.utility.base import UtilityFunction
from repro.utility.probes import UtilityClass, classify

#: Search cap multiplier: k_max is sought among k <= max(64, limit_factor*C).
DEFAULT_KMAX_LIMIT_FACTOR = 64.0


class Architecture(enum.Enum):
    """The two candidate network architectures of the paper."""

    BEST_EFFORT = "best-effort-only"
    RESERVATION = "reservation-capable"


@dataclass(frozen=True)
class FixedLoadComparison:
    """Outcome of the Section 2 comparison at one ``(C, k)`` point."""

    capacity: float
    offered_flows: int
    k_max: int
    best_effort_total: float
    reservation_total: float

    @property
    def advantage(self) -> float:
        """Reservation minus best-effort total utility (>= 0)."""
        return self.reservation_total - self.best_effort_total

    @property
    def preferred(self) -> Architecture:
        """Architecture with the higher total utility (ties -> best effort).

        A tie means admission control never had to act, so the simpler
        architecture is preferred.
        """
        if self.reservation_total > self.best_effort_total:
            return Architecture.RESERVATION
        return Architecture.BEST_EFFORT


class FixedLoadModel:
    """Evaluate both architectures under a fixed offered load.

    Parameters
    ----------
    utility:
        The per-application utility function ``pi``.
    k_max_limit:
        Upper bound (in flows) for the ``k_max`` search at capacity C;
        defaults to ``max(64, 64*C)``.  If the optimum hits this bound,
        the utility is effectively elastic at that capacity and
        :meth:`k_max` raises — admission control has no finite optimum.
    k_max_override:
        Optional callable ``capacity -> threshold`` replacing the
        optimisation entirely.  Needed to study admission control over
        *elastic* utilities (the paper's footnote 9), whose ``V(k)``
        has no interior maximum.
    """

    def __init__(
        self,
        utility: UtilityFunction,
        *,
        k_max_limit: Optional[int] = None,
        k_max_override=None,
    ):
        self._utility = utility
        self._k_max_limit = k_max_limit
        self._k_max_override = k_max_override
        # LRU-bounded, since an engine may serve queries for the whole
        # life of a process; keys stay exact floats because k_max is a
        # step function of C, so no tolerance may merge two capacities
        self._k_max_cache = BoundedCache(DEFAULT_MAXSIZE, round_decimals=None)

    @property
    def utility(self) -> UtilityFunction:
        """The application utility function."""
        return self._utility

    def total_utility(self, k: int, capacity: float) -> float:
        """``V(k) = k * pi(C/k)`` — the paper's fixed-load objective."""
        if k != int(k) or k < 0:
            raise ValueError(f"flow count must be a nonnegative integer, got {k!r}")
        return self._utility.fixed_load_total(int(k), capacity)

    def k_max(self, capacity: float) -> int:
        """Utility-maximising number of admitted flows at capacity ``C``.

        Uses the utility's analytic ``k_max`` hint when available (the
        rigid, ramp and power-law families know theirs exactly) and
        otherwise searches ``V(k)`` by integer maximisation.
        """
        if capacity < 0.0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        if capacity == 0.0:
            return 0
        if self._k_max_override is not None:
            # footnote 9: elastic utilities have no interior optimum, so
            # callers studying them must choose the threshold themselves
            return int(self._k_max_override(capacity))
        key = capacity
        cached = self._k_max_cache.get(key)
        if cached is not None:
            if obs.enabled():
                obs.counter("model.k_max.cache_hits").inc()
            return cached
        if obs.enabled():
            obs.counter("model.k_max.searches").inc()

        limit = self._k_max_limit
        if limit is None:
            limit = max(64, int(DEFAULT_KMAX_LIMIT_FACTOR * capacity) + 64)

        hint = getattr(self._utility, "k_max", None)
        if hint is not None:
            # refine the analytic (continuum) hint over the integers
            center = int(round(float(hint(capacity))))
            lo = max(0, center - 3)
            hi = max(lo + 1, center + 3)
            candidates = range(lo, hi + 1)
            best = max(candidates, key=lambda k: self.total_utility(k, capacity))
            # walk outward in case the hint was off by more than 3
            value = self.total_utility(best, capacity)
            while best > 0 and self.total_utility(best - 1, capacity) > value:
                best -= 1
                value = self.total_utility(best, capacity)
            while self.total_utility(best + 1, capacity) > value:
                best += 1
                value = self.total_utility(best, capacity)
        else:
            best, _ = argmax_int(
                lambda k: self.total_utility(k, capacity),
                0,
                limit,
                label=f"k_max(C={capacity})",
            )
            if best >= limit:
                raise ModelError(
                    f"k_max search hit the limit {limit} at C={capacity}; the "
                    "utility appears elastic (V(k) increasing) — admission "
                    "control has no finite optimum (paper Section 2)"
                )
        self._k_max_cache.put(key, best)
        return best

    # ------------------------------------------------------------------
    # batch evaluation
    # ------------------------------------------------------------------

    def _totals_grid(self, ks, capacities) -> np.ndarray:
        """``V(k) = k pi(C/k)`` over broadcastable flow/capacity arrays."""
        ks = np.asarray(ks, dtype=float)
        caps = np.asarray(capacities, dtype=float)
        positive = ks > 0
        shares = np.where(positive, caps / np.maximum(ks, 1.0), 0.0)
        values = np.asarray(self._utility(shares), dtype=float)
        return np.where(positive, ks * values, 0.0)

    def k_max_batch(self, capacities) -> np.ndarray:
        """Admission thresholds for a whole capacity grid at once.

        The batch counterpart of :meth:`k_max`, returning an integer
        array.  With an analytic hint the per-capacity centres are
        refined by a vectorised window-and-walk, mirroring the scalar
        path.  Without one, ``V(k)`` is unimodal for every inelastic
        utility (the paper's premise), so the peak is located by a
        vectorised binary search on the discrete slope — the smallest
        ``k`` with ``V(k+1) <= V(k)`` — followed by the same local
        safeguard walk the scalar search ends with.  Elements whose
        optimum hits the search limit raise :class:`ModelError`
        exactly as the scalar path does.
        """
        caps = np.asarray(capacities, dtype=float).ravel()
        if caps.size and float(np.min(caps)) < 0.0:
            raise ValueError(
                f"capacity must be >= 0, got {float(np.min(caps))!r}"
            )
        result = np.zeros(caps.size, dtype=np.int64)
        if self._k_max_override is not None:
            for i, c in enumerate(caps):
                result[i] = 0 if c == 0.0 else int(self._k_max_override(float(c)))
            return result

        todo = []
        for i, c in enumerate(caps):
            if c == 0.0:
                continue
            cached = self._k_max_cache.get(float(c))
            if cached is not None:
                result[i] = cached
                if obs.enabled():
                    obs.counter("model.k_max.cache_hits").inc()
            else:
                todo.append(i)
        if not todo:
            return result
        if obs.enabled():
            obs.counter("model.k_max.searches").inc(len(todo))
            obs.counter("batch.k_max.points").inc(len(todo))

        idx = np.asarray(todo, dtype=np.int64)
        sub = caps[idx]
        col = sub.reshape(-1, 1)

        hint = getattr(self._utility, "k_max", None)
        if hint is not None:
            centers = np.array(
                [int(round(float(hint(float(c))))) for c in sub], dtype=np.int64
            )
            lo = np.maximum(0, centers - 3)
            window = lo.reshape(-1, 1) + np.arange(8)
            values = self._totals_grid(window, col)
            best = window[np.arange(len(sub)), np.argmax(values, axis=1)]
        else:
            limit = self._k_max_limit
            if limit is not None:
                limits = np.full(len(sub), int(limit), dtype=np.int64)
            else:
                limits = np.maximum(
                    64, (DEFAULT_KMAX_LIMIT_FACTOR * sub).astype(np.int64) + 64
                )
            search_lo = np.zeros(len(sub), dtype=np.int64)
            search_hi = limits.copy()
            while True:
                open_mask = search_lo < search_hi
                if not np.any(open_mask):
                    break
                mid = (search_lo + search_hi) // 2
                pair = self._totals_grid(
                    np.stack([mid, mid + 1], axis=1), col
                )
                descending = pair[:, 1] <= pair[:, 0]
                search_hi = np.where(open_mask & descending, mid, search_hi)
                search_lo = np.where(
                    open_mask & ~descending, mid + 1, search_lo
                )
            best = search_lo
            if np.any(best >= limits):
                bad = int(idx[np.argmax(best >= limits)])
                raise ModelError(
                    f"k_max search hit the limit {int(limits.max())} at "
                    f"C={caps[bad]}; the utility appears elastic (V(k) "
                    "increasing) — admission control has no finite optimum "
                    "(paper Section 2)"
                )

        # safeguard walk (vectorised): nudge until locally optimal, which
        # the scalar path guarantees by construction
        value = self._totals_grid(best, sub)
        while True:
            down = best > 0
            if np.any(down):
                lower = self._totals_grid(np.maximum(best - 1, 0), sub)
                move = down & (lower > value)
                if np.any(move):
                    best = np.where(move, best - 1, best)
                    value = np.where(move, lower, value)
                    continue
            upper = self._totals_grid(best + 1, sub)
            move = upper > value
            if not np.any(move):
                break
            best = np.where(move, best + 1, best)
            value = np.where(move, upper, value)

        result[idx] = best
        for j, i in enumerate(idx):
            self._k_max_cache.put(float(caps[i]), int(best[j]))
        return result

    def compare(self, offered_flows: int, capacity: float) -> FixedLoadComparison:
        """Compare the two architectures at one fixed load point.

        Best-effort admits all ``k`` flows; the reservation architecture
        admits ``min(k, k_max(C))`` and the rest get zero utility.
        """
        if offered_flows < 0 or offered_flows != int(offered_flows):
            raise ValueError(
                f"offered flow count must be a nonnegative integer, got {offered_flows!r}"
            )
        k = int(offered_flows)
        kmax = self.k_max(capacity)
        admitted = min(k, kmax)
        return FixedLoadComparison(
            capacity=capacity,
            offered_flows=k,
            k_max=kmax,
            best_effort_total=self.total_utility(k, capacity),
            reservation_total=self.total_utility(admitted, capacity),
        )

    def needs_admission_control(self, *, horizon: float = 8.0) -> bool:
        """Section 2 verdict: does this utility ever want flows denied?

        True for inelastic utilities (convex neighbourhood of the
        origin, or a dead zone), false for everywhere-concave ones.
        """
        verdict = classify(self._utility, horizon=horizon)
        if verdict is UtilityClass.INDETERMINATE:
            # fall back to a direct probe: does V(k) peak before 8x C?
            capacity = 64.0
            kmax = self.k_max(capacity)
            tail = self.total_utility(int(8 * capacity), capacity)
            return self.total_utility(kmax, capacity) > tail + 1e-12
        return verdict is UtilityClass.INELASTIC

    @staticmethod
    def rigid_k_max(capacity: float, b_hat: float = 1.0) -> int:
        """Closed form for the rigid case: ``floor(C / b_hat)``."""
        if capacity < 0.0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        return int(math.floor(capacity / b_hat))
