"""Generic numeric engine for the continuum model (Section 3.2).

The continuum model replaces the discrete census by a density; the
architecture totals become integrals:

    V_B(C) = int_0^inf  P(k) k pi(C/k) dk
    V_R(C) = int_0^kmax P(k) k pi(C/k) dk + kmax pi(C/kmax) P(K > kmax)

This engine evaluates them by adaptive quadrature for *any* continuum
load and utility, serving two purposes: it extends the closed-form
modules to cases the paper did not work out by hand, and — run against
those closed forms in the test suite — it certifies every formula we
transcribed or re-derived from the paper.
"""

from __future__ import annotations

import math

from repro import obs
from repro.errors import ModelError
from repro.loads.continuum import ContinuumLoad
from repro.models.engine import CapacityEngine
from repro.numerics.optimize import maximize_scalar
from repro.numerics.quadrature import integrate
from repro.utility.base import UtilityFunction


class ContinuumModel(CapacityEngine):
    """Numeric continuum variable-load model for any (load, utility).

    Parameters
    ----------
    load:
        A continuum census density.
    utility:
        Application utility ``pi(b)``.
    k_max_override:
        Optional function ``C -> kmax`` replacing the numeric
        fixed-load optimisation (the ramp and rigid utilities know
        ``kmax(C) = C`` exactly; supplying it avoids optimiser noise in
        delicate asymptotic studies).

    Adaptive quadrature adapts its panels to each capacity, so there is
    no shared vector kernel: the batch forms are the inherited
    per-point loops.
    """

    LABEL = "continuum"

    def __init__(
        self,
        load: ContinuumLoad,
        utility: UtilityFunction,
        *,
        k_max_override=None,
        tol: float = 1e-11,
    ):
        self._load = load
        self._utility = utility
        self._override = k_max_override
        self._tol = float(tol)
        self._kbar = load.mean

    @property
    def load(self) -> ContinuumLoad:
        """The census density."""
        return self._load

    @property
    def utility(self) -> UtilityFunction:
        """The application utility."""
        return self._utility

    @property
    def mean_load(self) -> float:
        """``k_bar`` of the census density."""
        return self._kbar

    def k_max(self, capacity: float) -> float:
        """Continuum admission threshold ``argmax_k k pi(C/k)``."""
        self._check_capacity(capacity)
        if capacity == 0.0:
            return 0.0
        if self._override is not None:
            return float(self._override(capacity))
        hint = getattr(self._utility, "k_max", None)
        if hint is not None:
            return float(hint(capacity))
        if obs.enabled():
            obs.counter("continuum.k_max.searches").inc()
        k_star, value = maximize_scalar(
            lambda k: self._utility.fixed_load_total(k, capacity),
            1e-9,
            64.0 * capacity + 64.0,
            grid=512,
            label=f"continuum k_max(C={capacity})",
        )
        edge = self._utility.fixed_load_total(64.0 * capacity + 64.0, capacity)
        if edge >= value:
            raise ModelError(
                f"continuum k_max(C={capacity}) has no interior optimum; the "
                "utility appears elastic — supply k_max_override"
            )
        return k_star

    # ------------------------------------------------------------------

    def _integrand_points(self, capacity: float, lo: float, hi: float):
        """Kink locations of ``k -> pi(C/k)`` inside ``(lo, hi)``."""
        pts = []
        for b in self._utility.breakpoints():
            if b > 0.0:
                x = capacity / b
                if lo < x < hi:
                    pts.append(x)
        if lo < self._load.support_min < hi:
            pts.append(self._load.support_min)
        return sorted(pts)

    def _weighted_utility_integral(self, capacity: float, lo: float, hi: float) -> float:
        """``int_lo^hi P(k) k pi(C/k) dk`` with kink-aware quadrature."""

        def f(k: float) -> float:
            if k <= 0.0:
                return 0.0
            return self._load.pdf(k) * k * self._utility.value(capacity / k)

        if math.isinf(hi):
            # substitute k = cut/u so the tail integral is over (0, 1]
            cut = max(lo, 1.0)
            head = 0.0
            if lo < cut:
                head = integrate(
                    f,
                    lo,
                    cut,
                    points=self._integrand_points(capacity, lo, cut),
                    tol=self._tol,
                    label=f"continuum V integral head (C={capacity})",
                )

            def g(u: float) -> float:
                if u <= 0.0:
                    return 0.0
                k = cut / u
                return f(k) * cut / (u * u)

            u_points = sorted(
                cut / x
                for x in self._integrand_points(capacity, cut, math.inf)
                if x > cut
            )
            tail = integrate(
                g,
                0.0,
                1.0,
                points=u_points,
                tol=self._tol,
                label=f"continuum V integral tail (C={capacity})",
            )
            return head + tail
        return integrate(
            f,
            lo,
            hi,
            points=self._integrand_points(capacity, lo, hi),
            tol=self._tol,
            label=f"continuum V integral (C={capacity})",
        )

    # ------------------------------------------------------------------

    def total_best_effort(self, capacity: float) -> float:
        """``V_B(C)`` by quadrature."""
        self._check_capacity(capacity)
        if capacity == 0.0:
            return 0.0
        return self._weighted_utility_integral(capacity, 0.0, math.inf)

    def total_reservation(self, capacity: float) -> float:
        """``V_R(C)`` by quadrature plus the capped-overload term."""
        self._check_capacity(capacity)
        if capacity == 0.0:
            return 0.0
        kmax = self.k_max(capacity)
        if kmax <= 0.0:
            return 0.0
        admitted = self._weighted_utility_integral(capacity, 0.0, kmax)
        overload = kmax * self._utility.value(capacity / kmax) * self._load.sf(kmax)
        return admitted + overload

    def best_effort(self, capacity: float) -> float:
        """Normalised ``B(C)``."""
        return self.total_best_effort(capacity) / self._kbar

    def reservation(self, capacity: float) -> float:
        """Normalised ``R(C)``."""
        return self.total_reservation(capacity) / self._kbar
