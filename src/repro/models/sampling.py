"""The sampling extension — Section 5.1 of the paper.

The basic model scores a flow at a single load level.  In reality the
load fluctuates during a flow's lifetime, and perceived quality tracks
the *worst* episode more than the average.  The extension: a flow
samples the census ``S`` times, each draw iid from the tagged-flow
(size-biased) view ``Q(k) = k P(k) / k_bar``, and its performance is
evaluated at the **maximum** of those samples.

Best-effort: utility is ``E[pi(C / max of S draws from Q)]``.

Reservations: the admission decision uses the *first* sample ``k1`` —
a flow arriving into census ``k1 > k_max`` is admitted with probability
``k_max / k1`` (only ``k_max`` of the ``k1`` contending flows hold
reservations).  Once admitted, every subsequent census the flow sees is
capped at ``k_max``, so its effective worst load is
``max(k1, min(k_max, k_2), ..., min(k_max, k_S)) <= k_max``.

Collapsing the order statistics gives a single pass over ``j``:

    R_S(C) = sum_{j < k_max} pi(C/j) [F(j)^S - F(j-1)^S]
           + pi(C/k_max) [F(k_max) - F(k_max - 1)^S]
           + pi(C/k_max) k_max P(K > k_max) / k_bar

with ``F`` the cdf of ``Q``.  Setting ``S = 1`` recovers the basic
model exactly (a property the tests exercise).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.loads.base import LoadDistribution
from repro.loads.weighted import SizeBiasedLoad
from repro.models.engine import CapacityEngine
from repro.models.variable_load import VariableLoadModel
from repro.numerics.batch import share_weighted_sums
from repro.utility.base import UtilityFunction


class SamplingModel(CapacityEngine):
    """Worst-of-``S``-samples performance model (paper Section 5.1).

    Parameters
    ----------
    load:
        Census distribution ``P(k)``.
    utility:
        Application utility ``pi(b)``.
    samples:
        Number of independent census samples per flow (``S >= 1``).
    tol:
        Absolute truncation tolerance for the best-effort sum.
    """

    LABEL = "sampling"

    def __init__(
        self,
        load: LoadDistribution,
        utility: UtilityFunction,
        samples: int,
        *,
        tol: float = 1e-10,
        k_max_limit: Optional[int] = None,
    ):
        if samples < 1 or samples != int(samples):
            raise ValueError(f"samples must be a positive integer, got {samples!r}")
        self._load = load
        self._utility = utility
        self._samples = int(samples)
        self._tol = float(tol)
        self._base = VariableLoadModel(load, utility, k_max_limit=k_max_limit)
        self._biased = SizeBiasedLoad(load)
        self._kbar = load.mean
        # cached cdf of Q on 0..n (grown on demand)
        self._cdf = np.empty(0)

    @property
    def samples(self) -> int:
        """Number of census samples per flow."""
        return self._samples

    @property
    def base_model(self) -> VariableLoadModel:
        """The single-sample model this extends."""
        return self._base

    def k_max(self, capacity: float) -> int:
        """Admission threshold (same fixed-load optimum as the base)."""
        return self._base.k_max(capacity)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _ensure_cdf(self, n: int) -> None:
        """Grow the cached cdf of the size-biased census to cover <= n."""
        if len(self._cdf) >= n + 1:
            return
        size = 1 << max(10, (n + 1).bit_length())
        ks = np.arange(size, dtype=float)
        qk = ks * np.asarray(self._load.pmf_array(ks), dtype=float) / self._kbar
        if self._load.support_min > 0:
            qk[: self._load.support_min] = 0.0
        cdf = np.cumsum(qk)
        # guard against cumsum drift above 1
        np.clip(cdf, 0.0, 1.0, out=cdf)
        self._cdf = cdf

    def _sf_q_pow(self, n: int) -> float:
        """``P(max of S draws > n)`` with full tail precision."""
        sf1 = self._biased.sf(n)
        if sf1 > 1e-8:
            return 1.0 - (1.0 - sf1) ** self._samples
        s = float(self._samples)
        return s * sf1 - 0.5 * s * (s - 1.0) * sf1 * sf1

    def _truncation_point(self, capacity: float) -> int:
        """N with ``pi(C/N) * P(max > N) < tol`` (max-of-S tail bound).

        Delegates to the batch routine on a one-element grid so the
        scalar and batch paths cannot diverge at decision boundaries
        (libm vs numpy ``exp`` disagree by an ulp on occasion, which
        used to flip the level between the two mirrored loops).
        """
        return int(self._truncation_points_batch(np.array([float(capacity)]))[0])

    def _truncation_points_batch(self, caps: np.ndarray) -> np.ndarray:
        """Per-capacity truncation points, one tail evaluation per level.

        Mirrors :meth:`_truncation_point` decision-for-decision; the
        max-of-``S`` survival ``P(max > n)`` is capacity-independent,
        so each power-of-two level costs one scalar call regardless of
        grid size.
        """
        out = np.full(caps.size, -1, dtype=np.int64)
        open_ = np.ones(caps.size, dtype=bool)
        n = 1024
        while np.any(open_):
            sfp = self._sf_q_pow(n)
            vals = np.asarray(self._utility(caps[open_] / n), dtype=float)
            done = np.minimum(1.0, vals) * sfp < self._tol
            sel = np.flatnonzero(open_)[done]
            out[sel] = n
            open_[sel] = False
            if np.any(open_) and n > 1 << 26:
                bad = float(caps[np.flatnonzero(open_)[0]])
                raise RuntimeError(
                    f"sampling-model truncation exceeded 2^26 terms at C={bad}; "
                    "loosen tol or reduce the capacity range"
                )
            n <<= 1
        return out

    # ------------------------------------------------------------------
    # the model's quantities
    # ------------------------------------------------------------------

    def best_effort(self, capacity: float) -> float:
        """``B_S(C) = E[pi(C / max_S)]`` under best-effort-only.

        Already a per-flow average (the size-biased census *is* the
        tagged-flow view), so no ``k_bar`` normalisation is applied.
        """
        self._check_capacity(capacity)
        if capacity == 0.0:
            return 0.0
        n = self._truncation_point(capacity)
        self._ensure_cdf(n)
        cdf_pow = self._cdf[: n + 1] ** self._samples
        weights = np.diff(cdf_pow)  # pmf of the max at k = 1..n
        shares = capacity / np.arange(1, n + 1, dtype=float)
        return float(np.dot(weights, self._utility(shares)))

    def reservation(self, capacity: float) -> float:
        """``R_S(C)``: admit on first sample, cap subsequent censuses."""
        self._check_capacity(capacity)
        if capacity == 0.0:
            return 0.0
        kmax = self.k_max(capacity)
        if kmax < max(1, self._load.support_min):
            return 0.0
        self._ensure_cdf(kmax)
        s = self._samples
        # below-threshold worst loads: H(j) = F(j)^S for j < kmax
        cdf = self._cdf[: kmax + 1]
        cdf_pow = cdf**s
        inner = 0.0
        if kmax >= 2:
            weights = np.diff(cdf_pow[:-1])  # j = 1 .. kmax-1
            shares = capacity / np.arange(1, kmax, dtype=float)
            inner = float(np.dot(weights, self._utility(shares)))
        # worst load exactly kmax (admitted with first sample <= kmax)
        at_cap = float(cdf[kmax] - cdf_pow[kmax - 1])
        # overload-admitted flows (first sample k1 > kmax, prob kmax/k1):
        # sum_{k>kmax} Q(k) kmax / k = kmax * P(K > kmax) / k_bar
        over = kmax * self._load.sf(kmax) / self._kbar
        return inner + (at_cap + over) * self._utility.value(capacity / kmax)

    # ------------------------------------------------------------------
    # batch evaluation (whole-grid sweeps)
    # ------------------------------------------------------------------

    def best_effort_batch(self, capacities) -> np.ndarray:
        """``B_S`` over a capacity grid via the shared series kernel.

        The max-of-``S`` pmf weights depend only on ``k``, so each
        truncation group runs as one chunked matrix product with the
        same terms the scalar path sums.
        """
        caps = self._grid(capacities)
        totals = np.zeros(caps.size)
        live = np.flatnonzero(caps > 0.0)
        if live.size == 0:
            return totals
        points = self._truncation_points_batch(caps[live])
        for n in np.unique(points):
            n = int(n)
            idx = live[points == n]
            self._ensure_cdf(n)
            cdf_pow = self._cdf[: n + 1] ** self._samples
            weights = np.concatenate(([0.0], np.diff(cdf_pow)))
            totals[idx] = share_weighted_sums(
                caps[idx], weights, self._utility, k_start=1, k_stop=n + 1
            )
        return totals

    def reservation_batch(self, capacities) -> np.ndarray:
        """``R_S`` over a capacity grid: batch ``k_max`` + one masked sum."""
        caps = self._grid(capacities)
        totals = np.zeros(caps.size)
        pos = np.flatnonzero(caps > 0.0)
        if pos.size == 0:
            return totals
        kmax = self._base.k_max_batch(caps[pos])
        floor = max(1, self._load.support_min)
        live = kmax >= floor
        if not np.any(live):
            return totals
        idx = pos[live]
        sub_caps = caps[idx]
        sub_kmax = kmax[live]
        top = int(sub_kmax.max())
        self._ensure_cdf(top)
        cdf = self._cdf[: top + 1]
        cdf_pow = cdf**self._samples
        weights = np.concatenate(([0.0], np.diff(cdf_pow)))
        inner = share_weighted_sums(
            sub_caps,
            weights,
            self._utility,
            k_start=1,
            k_stop=top + 1,
            kmax=sub_kmax - 1,
        )
        at_cap = cdf[sub_kmax] - cdf_pow[sub_kmax - 1]
        over = (
            sub_kmax
            * np.asarray(self._load.sf_array(sub_kmax), dtype=float)
            / self._kbar
        )
        pi_cap = np.asarray(self._utility(sub_caps / sub_kmax), dtype=float)
        totals[idx] = inner + (at_cap + over) * pi_cap
        return totals
