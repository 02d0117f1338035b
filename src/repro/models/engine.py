"""One base for every capacity engine: the derived quantities, written once.

Breslau and Shenker define the headline quantities once for every model
(Section 3.1): the performance gap ``delta(C) = R(C) - B(C)`` and the
bandwidth gap ``Delta(C)``, the root of ``B(C + Delta) = R(C)``.  The
sampling and retrying extensions (Section 5) and the continuum cases
reuse the same definitions.  An engine writes its kernels — scalar
``best_effort`` / ``reservation`` and, where it has vector forms,
``best_effort_batch`` / ``reservation_batch`` — and inherits the rest
from :class:`CapacityEngine`:

- ``performance_gap`` and ``performance_gap_batch`` as ``R - B``,
  clipped at zero unless ``CLIP_GAP`` is False;
- ``bandwidth_gap`` by scalar monotone inversion, and
  ``bandwidth_gap_batch`` by one vectorised inversion over the grid;
- ``sweep`` and the capacity checks of both paths;
- batch forms of scalar-only kernels: a per-point loop, metered as
  ``batch.fallback_scalar``.

Closed-form engines override only the quantities they have in closed
form.  Scalar methods never route through one-element batches: for the
discrete engines the scalar kernels are the fast path per point.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import ModelError
from repro.numerics.batch import invert_monotone_batch
from repro.numerics.solvers import invert_monotone


class CapacityEngine:
    """Base of the engines that compare the architectures over capacity.

    Class constants a subclass may override:

    ``GAP_FLOOR``
        Normalised performance gaps at or below this report
        ``Delta = 0`` (they are beneath the kernels' noise floor).
    ``UPPER_LIMIT``
        Largest capacity the ``Delta`` inversion may bracket up to.
    ``CLIP_GAP``
        Whether ``delta`` is clipped at zero.  Engines whose ``R`` can
        fall below ``B`` (retry penalties) report the signed gap.
    ``MIN_CAPACITY``
        Smallest capacity the engine's formulas hold for; capacities in
        ``[0, MIN_CAPACITY)`` raise :class:`~repro.errors.ModelError`.
    ``LABEL``
        Engine name used in solver and domain error messages.
    """

    GAP_FLOOR = 1e-12
    UPPER_LIMIT = 1e9
    CLIP_GAP = True
    MIN_CAPACITY = 0.0
    LABEL = "capacity"

    # ------------------------------------------------------------------
    # kernels a subclass writes
    # ------------------------------------------------------------------

    def best_effort(self, capacity: float) -> float:
        """Normalised best-effort utility ``B(C)``."""
        raise NotImplementedError

    def reservation(self, capacity: float) -> float:
        """Normalised reservation utility ``R(C)``."""
        raise NotImplementedError

    def best_effort_batch(self, capacities) -> np.ndarray:
        """``B`` over a capacity grid (per-point unless overridden)."""
        return self._scalar_loop(self.best_effort, capacities)

    def reservation_batch(self, capacities) -> np.ndarray:
        """``R`` over a capacity grid (per-point unless overridden)."""
        return self._scalar_loop(self.reservation, capacities)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    def performance_gap(self, capacity: float) -> float:
        """``delta(C) = R(C) - B(C)`` (clipped at zero if ``CLIP_GAP``)."""
        gap = self.reservation(capacity) - self.best_effort(capacity)
        return max(0.0, gap) if self.CLIP_GAP else gap

    def performance_gap_batch(self, capacities) -> np.ndarray:
        """``delta`` over a capacity grid."""
        caps = self._grid(capacities)
        return self._clip(self.reservation_batch(caps) - self.best_effort_batch(caps))

    def bandwidth_gap(self, capacity: float) -> float:
        """``Delta(C)`` solving ``B(C + Delta) = R(C)``.

        Returns exactly 0.0 when ``R(C) - B(C) <= GAP_FLOOR``.
        """
        target = self.reservation(capacity)
        if target - self.best_effort(capacity) <= self.GAP_FLOOR:
            return 0.0
        solution = invert_monotone(
            self.best_effort,
            target,
            capacity,
            capacity + max(1.0, capacity),
            increasing=True,
            upper_limit=self.UPPER_LIMIT,
            label=f"{self.LABEL} bandwidth gap at C={capacity}",
        )
        return max(0.0, solution - capacity)

    def bandwidth_gap_batch(self, capacities) -> np.ndarray:
        """``Delta`` over a capacity grid via one vectorised inversion.

        Gaps at or below ``GAP_FLOOR`` are exactly 0.0, as in the
        scalar path.  Elements the batch solver flags as unconverged are
        re-solved by :meth:`bandwidth_gap` and counted as
        ``batch.fallback_scalar``.  Engines without a vector ``B``
        kernel solve each point by :meth:`bandwidth_gap` directly.
        """
        caps = self._grid(capacities)
        if type(self).best_effort_batch is CapacityEngine.best_effort_batch:
            return self._scalar_loop(self.bandwidth_gap, caps)
        targets = self.reservation_batch(caps)
        gaps = np.zeros(caps.size)
        idx = np.flatnonzero((targets - self.best_effort_batch(caps)) > self.GAP_FLOOR)
        if idx.size == 0:
            return gaps
        sub = caps[idx]
        result = invert_monotone_batch(
            self._gap_probe,
            targets[idx],
            sub,
            sub + np.maximum(1.0, sub),
            increasing=True,
            upper_limit=self.UPPER_LIMIT,
            label=f"{self.LABEL} bandwidth gap batch",
        )
        ok = result.converged & np.isfinite(result.roots)
        gaps[idx[ok]] = np.maximum(0.0, result.roots[ok] - sub[ok])
        bad = np.flatnonzero(~ok)
        if bad.size:
            if obs.enabled():
                obs.counter("batch.fallback_scalar").inc(int(bad.size))
            for j in bad:
                gaps[idx[j]] = self.bandwidth_gap(float(sub[j]))
        return gaps

    def sweep(self, capacities) -> dict:
        """The figure-panel series over a capacity grid.

        Returns numpy arrays keyed ``capacity``, ``best_effort``,
        ``reservation``, ``performance_gap`` and ``bandwidth_gap``, one
        point per requested capacity, all through the batch entry
        points.
        """
        caps = self._grid(list(capacities))
        b = self.best_effort_batch(caps)
        r = self.reservation_batch(caps)
        return {
            "capacity": caps,
            "best_effort": b,
            "reservation": r,
            "performance_gap": self._clip(r - b),
            "bandwidth_gap": self.bandwidth_gap_batch(caps),
        }

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _gap_probe(self, probes: np.ndarray) -> np.ndarray:
        """``B`` at the batch inversion's probe points."""
        return self.best_effort_batch(probes)

    def _clip(self, gaps: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, gaps) if self.CLIP_GAP else gaps

    def _check_capacity(self, capacity: float) -> None:
        """Reject a capacity outside ``[MIN_CAPACITY, inf)`` (NaN included)."""
        if not 0.0 <= capacity < math.inf:
            raise ValueError(f"capacity must be finite and >= 0, got {capacity!r}")
        if capacity < self.MIN_CAPACITY:
            raise ModelError(
                f"the {self.LABEL} closed forms hold for C >= "
                f"{self.MIN_CAPACITY:g}, got {capacity!r}"
            )

    def _grid(self, capacities) -> np.ndarray:
        """A flat float grid, checked like :meth:`_check_capacity`."""
        caps = np.asarray(capacities, dtype=float).ravel()
        if caps.size and not (
            float(caps.min()) >= self.MIN_CAPACITY and float(caps.max()) < math.inf
        ):
            inside = (caps >= self.MIN_CAPACITY) & (caps < math.inf)
            self._check_capacity(float(caps[~inside][0]))
        return caps

    def _scalar_loop(
        self, fn: Callable[[float], float], capacities
    ) -> np.ndarray:
        """``fn`` per grid point, metered as ``batch.fallback_scalar``."""
        caps = self._grid(capacities)
        if obs.enabled():
            obs.counter("batch.fallback_scalar").inc(int(caps.size))
        return np.array([fn(float(c)) for c in caps], dtype=float)
