"""Closed forms: rigid applications, exponential load (Section 3.2/4).

With census density ``P(k) = beta e^{-beta k}`` (mean ``1/beta``) and
unit-threshold rigid utility, everything is elementary:

    V_R(C) = (1/beta) (1 - e^{-beta C})
    V_B(C) = (1/beta) (1 - e^{-beta C} (1 + beta C))
    delta(C) = beta C e^{-beta C}            (normalised)
    beta Delta(C) = ln(1 + beta (C + Delta)) (implicit; ~ ln(beta C)/beta)

The welfare model also closes: the best-effort first-order condition is
``p = beta C e^{-beta C}`` (take the *largest* root ``h(p)`` of
``h e^{-h} = p``, i.e. the Lambert-W lower branch), giving

    W_B(p) = (1/beta) (1 - p - p/h - p h)
    W_R(p) = (1/beta) (1 - p + p ln p)

and the equalizing ratio solves
``gamma (1 - ln gamma - ln p) = 1 + 1/h + h``, converging to 1 as
``p -> 0`` — cheap bandwidth erases the case for reservations here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from repro.errors import ModelError
from repro.models.engine import CapacityEngine
from repro.numerics.batch import find_roots
from repro.numerics.solvers import find_root

#: Largest price with a nonzero best-effort provisioning optimum
#: (``h e^{-h}`` peaks at ``1/e``).
PRICE_CEILING = 1.0 / math.e


class RigidExponentialContinuum(CapacityEngine):
    """All Section 3.2/4 closed forms for the rigid x exponential case."""

    LABEL = "rigid-exponential"
    UPPER_LIMIT = 1e12

    def __init__(self, beta: float = 1.0):
        if beta <= 0.0:
            raise ValueError(f"rate beta must be > 0, got {beta!r}")
        self._beta = float(beta)

    @property
    def beta(self) -> float:
        """Census decay rate; the mean load is ``1/beta``."""
        return self._beta

    @property
    def mean_load(self) -> float:
        """``k_bar = 1/beta``."""
        return 1.0 / self._beta

    # -------------------------- utilities ---------------------------

    def total_reservation(self, capacity: float) -> float:
        """``V_R(C) = (1/beta)(1 - e^{-beta C})``."""
        self._check_capacity(capacity)
        return (1.0 - math.exp(-self._beta * capacity)) / self._beta

    def total_best_effort(self, capacity: float) -> float:
        """``V_B(C) = (1/beta)(1 - e^{-beta C}(1 + beta C))``."""
        self._check_capacity(capacity)
        bc = self._beta * capacity
        return (1.0 - math.exp(-bc) * (1.0 + bc)) / self._beta

    def reservation(self, capacity: float) -> float:
        """Normalised ``R(C) = 1 - e^{-beta C}``."""
        return self.total_reservation(capacity) * self._beta

    def best_effort(self, capacity: float) -> float:
        """Normalised ``B(C) = 1 - e^{-beta C}(1 + beta C)``."""
        return self.total_best_effort(capacity) * self._beta

    def performance_gap(self, capacity: float) -> float:
        """``delta(C) = beta C e^{-beta C}``."""
        self._check_capacity(capacity)
        bc = self._beta * capacity
        return bc * math.exp(-bc)

    def bandwidth_gap(self, capacity: float) -> float:
        """``Delta(C)`` from ``beta Delta = ln(1 + beta(C + Delta))``.

        The residual is increasing in ``Delta`` and negative at 0, so
        the root is unique and bracketable.
        """
        self._check_capacity(capacity)
        beta = self._beta

        def residual(delta: float) -> float:
            return beta * delta - math.log1p(beta * (capacity + delta))

        return find_root(
            residual,
            0.0,
            max(1.0, capacity),
            expand=True,
            upper_limit=self.UPPER_LIMIT,
            label=f"rigid-exponential Delta(C={capacity})",
        )

    # ------------------------- batch forms --------------------------

    def best_effort_batch(self, capacities) -> np.ndarray:
        """Normalised ``B`` over a capacity grid (closed form)."""
        bc = self._beta * self._grid(capacities)
        return 1.0 - np.exp(-bc) * (1.0 + bc)

    def reservation_batch(self, capacities) -> np.ndarray:
        """Normalised ``R`` over a capacity grid (closed form)."""
        return 1.0 - np.exp(-self._beta * self._grid(capacities))

    def performance_gap_batch(self, capacities) -> np.ndarray:
        """``delta`` over a capacity grid (closed form)."""
        bc = self._beta * self._grid(capacities)
        return bc * np.exp(-bc)

    def bandwidth_gap_batch(self, capacities) -> np.ndarray:
        """``Delta`` over a capacity grid via one vectorised root find."""
        caps = self._grid(capacities)
        beta = self._beta

        def residual(delta: np.ndarray, c: np.ndarray) -> np.ndarray:
            return beta * delta - np.log1p(beta * (c + delta))

        result = find_roots(
            residual,
            np.zeros(caps.size),
            np.maximum(1.0, caps),
            args=(caps,),
            expand=True,
            upper_limit=self.UPPER_LIMIT,
            label="rigid-exponential Delta batch",
        )
        return result.roots

    def equalizing_ratio_batch(self, prices) -> np.ndarray:
        """``gamma`` over a price grid via one vectorised root find."""
        ps = np.asarray(prices, dtype=float).ravel()
        for p in ps:
            self._check_price(float(p))
        h = -np.real(special.lambertw(-ps, k=-1))
        rhs = 1.0 + 1.0 / h + h
        log_p = np.log(ps)

        def residual(gamma, rhs_v, log_p_v):
            return gamma * (1.0 - np.log(gamma) - log_p_v) - rhs_v

        result = find_roots(
            residual,
            np.ones(ps.size),
            np.full(ps.size, 4.0),
            args=(rhs, log_p),
            expand=True,
            upper_limit=float(np.max(1.0 / ps)),
            label="rigid-exponential gamma batch",
        )
        return result.roots

    def bandwidth_gap_asymptotic(self, capacity: float) -> float:
        """Leading large-C behaviour ``ln(beta C)/beta`` (paper Section 3.3)."""
        self._check_capacity(capacity)
        if capacity * self._beta <= 1.0:
            raise ModelError("asymptotic form needs beta*C > 1")
        return math.log(self._beta * capacity) / self._beta

    # --------------------------- welfare ----------------------------

    def h(self, price: float) -> float:
        """Largest root of ``h e^{-h} = p`` — Lambert-W lower branch."""
        self._check_price(price)
        return float(-special.lambertw(-price, k=-1).real)

    def optimal_capacity_best_effort(self, price: float) -> float:
        """``C_B(p) = h(p) / beta``."""
        return self.h(price) / self._beta

    def optimal_capacity_reservation(self, price: float) -> float:
        """``C_R(p) = -ln(p) / beta`` (from ``V_R' = e^{-beta C} = p``)."""
        self._check_price_reservation(price)
        return -math.log(price) / self._beta

    def welfare_best_effort(self, price: float) -> float:
        """``W_B(p) = (1/beta)(1 - p - p/h - p h)``."""
        h = self.h(price)
        return (1.0 - price - price / h - price * h) / self._beta

    def welfare_reservation(self, price: float) -> float:
        """``W_R(p) = (1/beta)(1 - p + p ln p)``."""
        self._check_price_reservation(price)
        return (1.0 - price + price * math.log(price)) / self._beta

    def equalizing_ratio(self, price: float) -> float:
        """``gamma(p)``: root of ``g(1 - ln g - ln p) = 1 + 1/h + h``."""
        h = self.h(price)
        rhs = 1.0 + 1.0 / h + h
        log_p = math.log(price)

        def residual(gamma: float) -> float:
            return gamma * (1.0 - math.log(gamma) - log_p) - rhs

        return find_root(
            residual,
            1.0,
            4.0,
            expand=True,
            upper_limit=1.0 / price,
            label=f"rigid-exponential gamma(p={price})",
        )

    def equalizing_ratio_asymptotic(self, price: float) -> float:
        """Small-p approximation ``1 + ln(ln(1/p)) / ln(1/p)``.

        The paper notes gamma converges to one "as
        ``gamma ~ 1 + (...)``" with the convergence rate set by the
        iterated logarithm; this is the leading form (tests check it
        tracks :meth:`equalizing_ratio` as ``p -> 0``).
        """
        self._check_price(price)
        log_inv = -math.log(price)
        if log_inv <= 1.0:
            raise ModelError("asymptotic gamma needs p < 1/e")
        return 1.0 + math.log(log_inv) / log_inv

    # --------------------------- guards -----------------------------

    @staticmethod
    def _check_price(price: float) -> None:
        # the best-effort FOC h e^{-h} = p has no root beyond the peak 1/e
        if not 0.0 < price <= PRICE_CEILING:
            raise ModelError(
                f"price must be in (0, 1/e] for the rigid-exponential "
                f"best-effort welfare closed forms, got {price!r}"
            )

    @staticmethod
    def _check_price_reservation(price: float) -> None:
        # the reservation FOC e^{-beta C} = p only needs p <= 1
        if not 0.0 < price <= 1.0:
            raise ModelError(
                f"price must be in (0, 1] for the rigid-exponential "
                f"reservation welfare closed forms, got {price!r}"
            )
