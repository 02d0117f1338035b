"""Surface banks: fitting, lookup and on-disk persistence.

A :class:`SurfaceBank` holds every certified surface for one
:class:`~repro.experiments.params.PaperConfig` — the unit the service
loads at startup and the ``EM*`` verify invariants re-check.  Fitting
the default bank costs a few seconds (it runs the exact batch solvers
at every Chebyshev node and dense certification sample), so banks are
process-memoised per config and serialisable to JSON
(``repro.emulator/v1``) for ``repro emulate fit --out``.

The module-level ``exact_*_series`` functions are the *fallback
targets*: when the service receives a query a surface refuses
(out-of-domain, or a quantity/load pair that never certified), it
evaluates one of these through the PR-2 content-addressed result
cache, addressed by ``dataclasses.replace(config, capacities=...)`` so
repeat misses on the same grid are disk hits.  The engines behind them
live for the whole process (:func:`exact_engine`), so one engine and
its per-capacity caches serve every grid asked of it.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.caching import BoundedCache
from repro.errors import CertificationError, OutOfDomainError
from repro.experiments.params import DEFAULT_CONFIG, PaperConfig
from repro.ioutils import atomic_write_text
from repro.models.variable_load import VariableLoadModel
from repro.models.welfare import WelfareModel
from repro.runner.cache import config_digest
from repro.emulator.surfaces import (
    ChebyshevSurface,
    ChebyshevSurface2D,
    ErrorBudget,
    default_budget,
    default_degree,
    fit_surface,
    fit_surface_2d,
    surface_from_dict,
)

SCHEMA = "repro.emulator/v1"

#: The quantities the bank fits, in catalogue order.
QUANTITIES: Tuple[str, ...] = ("delta", "Delta", "gamma")

#: Load families every bank covers (the paper's three).
LOADS: Tuple[str, ...] = ("poisson", "exponential", "algebraic")

#: Only the adaptive utility is fitted: under the rigid utility
#: ``delta``/``Delta`` are step functions of capacity (jumps at
#: multiples of ``b_hat``) that no polynomial basis can certify; the
#: service answers rigid queries through the exact fallback instead.
FITTED_UTILITY = "adaptive"

#: Fit domains.  ``delta``/``Delta`` cover the capacity range where
#: the gap is numerically alive (beyond ~4x k_bar both vanish below
#: the solvers' own noise floor and the exact path is instant anyway);
#: ``Delta`` starts higher because near C = 20 the best-effort curve
#: is so flat that the gap inversion amplifies kink noise beyond any
#: certifiable budget.  ``gamma`` spans the paper's full price axis.
DOMAINS: Dict[str, Tuple[float, float]] = {
    "delta": (20.0, 400.0),
    "Delta": (60.0, 400.0),
    "gamma": (1e-3, 0.3),
}

#: ``gamma(p)`` varies on a log price axis (the paper plots it that
#: way); fitting in log p keeps the node density where the curve bends.
LOG_X = {"delta": False, "Delta": False, "gamma": True}

#: 2-D surface: ``delta`` over (capacity, mean load k_bar) — the
#: "what if demand grows 20%" question answered without a refit.
KBAR_DOMAIN: Tuple[float, float] = (60.0, 140.0)
DEGREES_2D: Tuple[int, int] = (24, 6)

#: The 2-D budget is looser than the 1-D delta budget: the integer
#: ``k_max`` kinks sweep across the capacity axis as ``kbar`` varies,
#: so a smooth tensor basis cannot reach the single-section error
#: floor (observed ~9e-5 at degrees 24x6 vs ~1.4e-5 in 1-D).
BUDGET_2D = ErrorBudget(atol=5e-4)


# ----------------------------------------------------------------------
# exact evaluators (also the service's cache-addressed fallback targets)
# ----------------------------------------------------------------------


#: Exact engines kept alive across queries.  One engine serves every
#: grid of one (config, load, utility): a service needs 6 per mean
#: load, and ``fit_bank(include_2d=True)`` revisits 57.
ENGINE_MEMO_MAXSIZE = 64

_ENGINES = BoundedCache(ENGINE_MEMO_MAXSIZE)
_ENGINES_GUARD = threading.Lock()


def exact_engine(
    config: PaperConfig, load: str, utility: str
) -> Tuple[WelfareModel, threading.RLock, bool]:
    """The memoised exact engine: ``(engine, lock, built)``.

    Engines are keyed by the config with ``capacities`` and ``prices``
    blanked: those hold the query grid (see :func:`replace_axis`), while
    every other field (``kbar``, ``kappa``, ``z``, ...) still separates
    engines.  ``engine.model`` is the :class:`VariableLoadModel` behind
    δ and Δ; the :class:`WelfareModel` itself answers γ.  Their
    per-capacity caches are not thread-safe, so every use holds
    ``lock``; ``built`` says whether this call had to build the engine.
    """
    key = (dataclasses.replace(config, capacities=(), prices=()), load, utility)
    with _ENGINES_GUARD:
        entry = _ENGINES.get(key)
        if entry is not None:
            return entry[0], entry[1], False
        # built under the guard: two threads never build the same engine
        entry = (
            WelfareModel(
                VariableLoadModel(config.load(load), config.utility(utility))
            ),
            threading.RLock(),
        )
        _ENGINES.put(key, entry)
    return entry[0], entry[1], True


def exact_values(
    quantity: str,
    config: PaperConfig,
    load: str,
    utility: str,
    xs,
) -> np.ndarray:
    """The exact engine's answer for any quantity over any grid."""
    arr = np.asarray(xs, dtype=float).ravel()
    if quantity not in QUANTITIES:
        raise ValueError(
            f"unknown quantity {quantity!r}; expected one of {sorted(QUANTITIES)}"
        )
    engine, lock, _ = exact_engine(config, load, utility)
    with lock:
        if quantity == "delta":
            return engine.model.performance_gap_batch(arr)
        if quantity == "Delta":
            return engine.model.bandwidth_gap_batch(arr)
        return engine.equalizing_ratio_batch(arr)


def exact_scalar(
    quantity: str, config: PaperConfig, load: str, utility: str, x: float
) -> float:
    """One exact point through the *scalar* model path.

    This is the per-query cost the emulator replaces — the baseline of
    the bench speedup gate — kept separate from :func:`exact_values`
    so the comparison is honest about what a non-emulated service
    would pay per request.
    """
    if quantity not in QUANTITIES:
        raise ValueError(
            f"unknown quantity {quantity!r}; expected one of {sorted(QUANTITIES)}"
        )
    engine, lock, _ = exact_engine(config, load, utility)
    with lock:
        if quantity == "delta":
            return engine.model.performance_gap(x)
        if quantity == "Delta":
            return engine.model.bandwidth_gap(x)
        return engine.equalizing_ratio(x)


def exact_delta_series(config: PaperConfig, load: str, utility: str) -> dict:
    """``delta`` over ``config.capacities`` (cache fallback target)."""
    xs = np.asarray(config.capacities, dtype=float)
    return {"x": xs, "value": exact_values("delta", config, load, utility, xs)}


def exact_Delta_series(config: PaperConfig, load: str, utility: str) -> dict:
    """``Delta`` over ``config.capacities`` (cache fallback target)."""
    xs = np.asarray(config.capacities, dtype=float)
    return {"x": xs, "value": exact_values("Delta", config, load, utility, xs)}


def exact_gamma_series(config: PaperConfig, load: str, utility: str) -> dict:
    """``gamma`` over ``config.prices`` (cache fallback target)."""
    xs = np.asarray(config.prices, dtype=float)
    return {"x": xs, "value": exact_values("gamma", config, load, utility, xs)}


#: quantity -> (series target, axis attribute on PaperConfig)
SERIES_TARGETS = {
    "delta": (exact_delta_series, "capacities"),
    "Delta": (exact_Delta_series, "capacities"),
    "gamma": (exact_gamma_series, "prices"),
}


def replace_axis(config: PaperConfig, quantity: str, xs) -> PaperConfig:
    """Re-address a config at the query grid for cache lookups."""
    _, axis = SERIES_TARGETS[quantity]
    return dataclasses.replace(
        config, **{axis: tuple(float(x) for x in np.asarray(xs, dtype=float).ravel())}
    )


# ----------------------------------------------------------------------
# the bank
# ----------------------------------------------------------------------


@dataclass
class SurfaceBank:
    """Every certified surface for one configuration."""

    config_digest: str
    surfaces: Dict[str, ChebyshevSurface] = field(default_factory=dict)
    surfaces_2d: Dict[str, ChebyshevSurface2D] = field(default_factory=dict)

    def add(self, surface: Union[ChebyshevSurface, ChebyshevSurface2D]) -> None:
        if isinstance(surface, ChebyshevSurface2D):
            self.surfaces_2d[surface.key] = surface
        else:
            self.surfaces[surface.key] = surface

    def lookup(
        self, quantity: str, load: str, utility: str
    ) -> Optional[ChebyshevSurface]:
        """The 1-D surface for a query triple, or ``None`` (fallback)."""
        return self.surfaces.get(f"{quantity}/{load}/{utility}")

    def lookup_2d(
        self, quantity: str, load: str, utility: str
    ) -> Optional[ChebyshevSurface2D]:
        return self.surfaces_2d.get(f"{quantity}2d/{load}/{utility}")

    def __len__(self) -> int:
        return len(self.surfaces) + len(self.surfaces_2d)

    def all_surfaces(self) -> List:
        return list(self.surfaces.values()) + list(self.surfaces_2d.values())

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "config_digest": self.config_digest,
            "surfaces": [s.to_dict() for s in self.all_surfaces()],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SurfaceBank":
        if payload.get("schema") != SCHEMA:
            raise ValueError(
                f"unsupported bank schema {payload.get('schema')!r}; "
                f"expected {SCHEMA}"
            )
        bank = cls(config_digest=str(payload["config_digest"]))
        for entry in payload["surfaces"]:
            bank.add(surface_from_dict(entry))
        return bank

    def save(self, path) -> pathlib.Path:
        return atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path) -> "SurfaceBank":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))


def fit_bank(
    config: Optional[PaperConfig] = None,
    *,
    quantities: Sequence[str] = QUANTITIES,
    loads: Iterable[str] = LOADS,
    include_2d: bool = False,
) -> SurfaceBank:
    """Fit and certify the full bank for one configuration.

    Raises :class:`~repro.errors.CertificationError` if any surface
    misses its budget — a bank is all-certified or not built.  The 2-D
    ``delta(C, k_bar)`` surfaces are opt-in (``include_2d``): they cost
    one exact sweep per parameter node/sample and belong to the deep
    verify suite and the CLI, not the import path.
    """
    cfg = DEFAULT_CONFIG if config is None else config
    bank = SurfaceBank(config_digest=config_digest(cfg))
    for quantity in quantities:
        lo, hi = DOMAINS[quantity]
        budget = default_budget(quantity)
        for load in loads:
            with obs.span("emulator.fit", surface=f"{quantity}/{load}"):
                surface = fit_surface(
                    lambda xs, q=quantity, ld=load: exact_values(
                        q, cfg, ld, FITTED_UTILITY, xs
                    ),
                    quantity=quantity,
                    load=load,
                    utility=FITTED_UTILITY,
                    xname="price" if quantity == "gamma" else "capacity",
                    lo=lo,
                    hi=hi,
                    degree=default_degree(quantity),
                    budget=budget,
                    log_x=LOG_X[quantity],
                )
            bank.add(surface)
            if obs.enabled():
                obs.emit(
                    "emulator.fit",
                    surface=surface.key,
                    degree=surface.degree,
                    certified_bound=surface.certified_bound,
                    allowance=surface.allowance,
                )
    if include_2d and "delta" in quantities:
        lo, hi = DOMAINS["delta"]
        for load in loads:
            with obs.span("emulator.fit", surface=f"delta2d/{load}"):
                surface2d = fit_surface_2d(
                    lambda xs, kbar, ld=load: exact_values(
                        "delta",
                        dataclasses.replace(cfg, kbar=float(kbar)),
                        ld,
                        FITTED_UTILITY,
                        xs,
                    ),
                    quantity="delta",
                    load=load,
                    utility=FITTED_UTILITY,
                    xname="capacity",
                    pname="kbar",
                    x_lo=lo,
                    x_hi=hi,
                    p_lo=KBAR_DOMAIN[0],
                    p_hi=KBAR_DOMAIN[1],
                    degree_x=DEGREES_2D[0],
                    degree_p=DEGREES_2D[1],
                    budget=BUDGET_2D,
                )
            bank.add(surface2d)
            if obs.enabled():
                obs.emit(
                    "emulator.fit",
                    surface=surface2d.key,
                    degree=list(surface2d.degrees),
                    certified_bound=surface2d.certified_bound,
                    allowance=surface2d.allowance,
                )
    return bank


@lru_cache(maxsize=8)
def default_bank(config: Optional[PaperConfig] = None) -> SurfaceBank:
    """Process-memoised bank for a config (1-D surfaces only).

    The verify invariants and the service both call this; the fit cost
    is paid once per process per config.
    """
    return fit_bank(DEFAULT_CONFIG if config is None else config)


def check_bank(
    bank: SurfaceBank,
    config: Optional[PaperConfig] = None,
    *,
    probes: int = 41,
) -> List[dict]:
    """Re-verify every surface's bound on a fresh probe grid.

    Returns one report row per surface with the worst fresh residual in
    certified-bound units (``<= 1.0`` passes).  Used by
    ``repro emulate check`` and mirrored by the ``EM*`` invariants.
    """
    cfg = DEFAULT_CONFIG if config is None else config
    rows: List[dict] = []
    for surface in bank.surfaces.values():
        # probe offsets chosen irrationally so they avoid both the fit
        # nodes and the certification sample
        frac = (np.arange(probes) + np.sqrt(0.5)) / probes
        if surface.log_x:
            xs = surface.lo * (surface.hi / surface.lo) ** frac
        else:
            xs = surface.lo + (surface.hi - surface.lo) * frac
        exact = exact_values(
            surface.quantity, cfg, surface.load, surface.utility, xs
        )
        residual = float(
            np.max(np.abs(surface.evaluate(xs) - exact)) / surface.certified_bound
        )
        rows.append(
            {
                "surface": surface.key,
                "residual": residual,
                "certified_bound": surface.certified_bound,
                "ok": residual <= 1.0,
            }
        )
    for surface2d in bank.surfaces_2d.values():
        frac = (np.arange(probes) + np.sqrt(0.5)) / probes
        xs = surface2d.x_lo + (surface2d.x_hi - surface2d.x_lo) * frac
        worst = 0.0
        for t in (0.17, 0.55, 0.93):
            p = surface2d.p_lo + (surface2d.p_hi - surface2d.p_lo) * t
            exact = exact_values(
                surface2d.quantity,
                dataclasses.replace(cfg, kbar=float(p)),
                surface2d.load,
                surface2d.utility,
                xs,
            )
            worst = max(worst, float(np.max(np.abs(surface2d.evaluate(xs, p) - exact))))
        residual = worst / surface2d.certified_bound
        rows.append(
            {
                "surface": surface2d.key,
                "residual": residual,
                "certified_bound": surface2d.certified_bound,
                "ok": residual <= 1.0,
            }
        )
    return rows


__all__ = [
    "SCHEMA",
    "QUANTITIES",
    "LOADS",
    "FITTED_UTILITY",
    "DOMAINS",
    "KBAR_DOMAIN",
    "SurfaceBank",
    "fit_bank",
    "default_bank",
    "check_bank",
    "exact_engine",
    "exact_values",
    "exact_scalar",
    "exact_delta_series",
    "exact_Delta_series",
    "exact_gamma_series",
    "SERIES_TARGETS",
    "replace_axis",
    "CertificationError",
    "OutOfDomainError",
]
