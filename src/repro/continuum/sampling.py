"""Numeric continuum sampling model (Section 5.1, continuum version).

The continuum counterpart of :class:`repro.models.sampling.SamplingModel`:
a tagged flow draws ``S`` iid censuses from the size-biased density
``q(k) = k P(k) / k_bar`` (cdf ``F``) and is scored at the maximum.

    B_S(C) = int pi(C/k) d[F(k)^S]

    R_S(C) = int_{k < kmax} pi(C/k) d[F(k)^S]
           + pi(C/kmax) [F(kmax) - F(kmax)^S]           (hit the cap)
           + pi(C/kmax) kmax P(K > kmax) / k_bar        (overload-admitted)

Exists mainly to certify the sampling asymptotics
(:func:`repro.continuum.asymptotics.sampling_rigid_ratio` and friends)
by direct quadrature, independently of the discrete machinery.
"""

from __future__ import annotations

import math

from repro.loads.continuum import ContinuumLoad
from repro.models.engine import CapacityEngine
from repro.numerics.quadrature import integrate
from repro.utility.base import UtilityFunction


class ContinuumSamplingModel(CapacityEngine):
    """Worst-of-S-samples model over a continuum census.

    ``k_max(C) = C`` is assumed (true for the rigid and ramp utilities
    this model exists to study); pass ``k_max_override`` otherwise.
    """

    LABEL = "continuum sampling"

    def __init__(
        self,
        load: ContinuumLoad,
        utility: UtilityFunction,
        samples: int,
        *,
        k_max_override=None,
        tol: float = 1e-11,
    ):
        if samples < 1 or samples != int(samples):
            raise ValueError(f"samples must be a positive integer, got {samples!r}")
        self._load = load
        self._utility = utility
        self._samples = int(samples)
        self._tol = float(tol)
        self._kbar = load.mean
        self._override = k_max_override

    @property
    def samples(self) -> int:
        """Number of census samples per flow."""
        return self._samples

    def k_max(self, capacity: float) -> float:
        """Admission threshold (defaults to the ``k_max(C) = C`` cases)."""
        if self._override is not None:
            return float(self._override(capacity))
        return capacity

    # ------------------------------------------------------------------

    def _biased_cdf(self, k: float) -> float:
        """``F(k)`` of the size-biased census."""
        if k <= self._load.support_min:
            return 0.0
        return self._load.partial_mean(k) / self._kbar

    def _max_density(self, k: float) -> float:
        """Density of the max of S draws: ``S F^{S-1} q``."""
        if k <= self._load.support_min:
            return 0.0
        q = k * self._load.pdf(k) / self._kbar
        if self._samples == 1:
            return q
        return self._samples * self._biased_cdf(k) ** (self._samples - 1) * q

    def _weighted_integral(self, capacity: float, lo: float, hi: float) -> float:
        """``int_lo^hi pi(C/k) d[F^S]`` with a 1/u tail substitution."""

        def f(k: float) -> float:
            return self._max_density(k) * self._utility.value(capacity / k)

        breaks = sorted(
            capacity / b
            for b in self._utility.breakpoints()
            if b > 0.0 and lo < capacity / b < hi
        )
        if not math.isinf(hi):
            return integrate(
                f, lo, hi, points=breaks, tol=self._tol, label="sampling integral"
            )
        cut = max(lo, 1.0, self._load.support_min + 1.0)
        head = 0.0
        if lo < cut:
            head = integrate(
                f,
                lo,
                cut,
                points=[x for x in breaks if x < cut],
                tol=self._tol,
                label="sampling integral head",
            )

        def g(u: float) -> float:
            if u <= 0.0:
                return 0.0
            k = cut / u
            return f(k) * cut / (u * u)

        u_breaks = sorted(cut / x for x in breaks if x > cut)
        tail = integrate(
            g, 0.0, 1.0, points=u_breaks, tol=self._tol, label="sampling integral tail"
        )
        return head + tail

    # ------------------------------------------------------------------

    def best_effort(self, capacity: float) -> float:
        """``B_S(C)`` — per-flow expected utility at the worst sample."""
        self._check_capacity(capacity)
        if capacity == 0.0:
            return 0.0
        return self._weighted_integral(capacity, self._load.support_min, math.inf)

    def reservation(self, capacity: float) -> float:
        """``R_S(C)`` — admit on first sample, cap subsequent censuses."""
        self._check_capacity(capacity)
        if capacity == 0.0:
            return 0.0
        kmax = self.k_max(capacity)
        if kmax <= self._load.support_min:
            return 0.0
        below = self._weighted_integral(capacity, self._load.support_min, kmax)
        f_cap = self._biased_cdf(kmax)
        at_cap = f_cap - f_cap**self._samples
        over = kmax * self._load.sf(kmax) / self._kbar
        return below + (at_cap + over) * self._utility.value(capacity / kmax)
