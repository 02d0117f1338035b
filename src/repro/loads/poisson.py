"""Poisson load distribution (paper Section 3.1).

``P(k) = e**-nu * nu**k / k!`` describes a tightly controlled load:
excursions far from the mean are exceedingly rare (it is the census of
an M/M/infinity system — Poisson arrivals, independent departures).
Of the paper's three load models it is the closest to the fixed-load
case, and the one where provisioning most easily erases the difference
between architectures.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from repro.loads.base import LoadDistribution


class PoissonLoad(LoadDistribution):
    """Poisson distribution over the number of active flows."""

    name = "poisson"
    support_min = 0

    def __init__(self, nu: float):
        if nu <= 0.0:
            raise ValueError(f"Poisson rate nu must be > 0, got {nu!r}")
        self._nu = float(nu)

    @property
    def nu(self) -> float:
        """Poisson rate; equals the mean."""
        return self._nu

    @property
    def mean(self) -> float:
        return self._nu

    # pmf/sf evaluate scipy.stats.poisson's own special-function
    # formulas, out-of-support conventions included: bit-identical
    # values without importing scipy.stats, the largest single piece
    # of a cold `import repro`

    def _pmf(self, ks) -> np.ndarray:
        """``exp(xlogy(k, nu) - lnGamma(k+1) - nu)`` on integral ``k >= 0``."""
        k = np.asarray(ks)
        out = np.zeros(k.shape)
        out[np.isnan(k)] = np.nan
        cond = (k >= 0) & (np.floor(k) == k)
        if cond.any():
            kk = k[cond]
            logp = special.xlogy(kk, self._nu) - special.gammaln(kk + 1) - self._nu
            out[cond] = np.clip(np.exp(logp), 0, 1)
        return out[()] if out.ndim == 0 else out

    def _sf(self, ks) -> np.ndarray:
        """``P(K > k) = pdtrc(floor(k), nu)``; 1 below the support."""
        k = np.asarray(ks)
        out = np.zeros(k.shape)
        out[np.isnan(k)] = np.nan
        out[k < 0] = 1.0
        cond = (k >= 0) & np.isfinite(k)
        if cond.any():
            out[cond] = np.clip(special.pdtrc(np.floor(k[cond]), self._nu), 0, 1)
        return out[()] if out.ndim == 0 else out

    def pmf(self, k: int) -> float:
        self.validate_k(k)
        return float(self._pmf(k))

    def sf(self, k: int) -> float:
        self.validate_k(k)
        return float(self._sf(k))

    def pmf_array(self, ks: np.ndarray) -> np.ndarray:
        return self._pmf(ks)

    def sf_array(self, ks: np.ndarray) -> np.ndarray:
        return np.asarray(self._sf(ks), dtype=float)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size!r}")
        return rng.poisson(self._nu, size=size)

    def continuous_pmf(self, x: float) -> float:
        """``exp(-nu + x ln nu - lnGamma(x+1))`` — smooth in ``x``."""
        if x < 0.0:
            return 0.0
        return math.exp(-self._nu + x * math.log(self._nu) - float(special.gammaln(x + 1.0)))

    def mean_tail(self, n: int) -> float:
        """``sum_{k>=n} k P(k) = nu * P(K >= n - 1)``.

        Follows from ``k * pmf(k; nu) = nu * pmf(k - 1; nu)``.
        """
        if n <= self.support_min:
            return self._nu
        # P(K >= n - 1) = P(K > n - 2) = sf(n - 2)
        return self._nu * float(self._sf(n - 2))

    def rescaled(self, new_mean: float) -> "PoissonLoad":
        return PoissonLoad(new_mean)

    def __repr__(self) -> str:
        return f"PoissonLoad(nu={self._nu!r})"
