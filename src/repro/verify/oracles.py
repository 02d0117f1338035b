"""Differential oracles: the same quantity through independent engines.

Each oracle computes one paper quantity through two (or more) of the
repo's computation paths — scalar models, ``*_batch`` kernels, the CRN
ensemble simulator, continuum closed forms / quadrature — and reduces
the disagreement to a single normalised residual under a
:class:`~repro.verify.tolerance.TolerancePolicy`.  The invariant
catalogue (:mod:`repro.verify.invariants`) is mostly thin declarations
over these oracles.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.experiments.params import PaperConfig
from repro.models import VariableLoadModel, erlang_b
from repro.models.engine import CapacityEngine
from repro.simulation import (
    EnsembleSimulator,
    Link,
    PoissonProcess,
    ThresholdAdmission,
    paired_gap,
)
from repro.verify.tolerance import TolerancePolicy

#: Load-name x utility-name domain the paper's figures sweep.
PAPER_DOMAIN: Tuple[Tuple[str, str], ...] = tuple(
    (load, utility)
    for load in ("poisson", "exponential", "algebraic")
    for utility in ("rigid", "adaptive")
)


def verification_capacities(config: PaperConfig, count: int = 6) -> np.ndarray:
    """A small capacity grid spanning the configured figure axis.

    Quantile-spaced over ``config.capacities`` so the oracles probe
    the under-provisioned, transition and over-provisioned regimes
    without paying for the full 25-point figure sweep.
    """
    caps = np.asarray(config.capacities, dtype=float)
    picks = np.quantile(caps, np.linspace(0.0, 1.0, count))
    return np.unique(np.round(picks))


def paper_models(
    config: PaperConfig,
    domain: Iterable[Tuple[str, str]] = PAPER_DOMAIN,
) -> List[Tuple[str, VariableLoadModel]]:
    """``(label, VariableLoadModel)`` for each load x utility pair."""
    return [
        (
            f"{load}/{utility}",
            VariableLoadModel(config.load(load), config.utility(utility)),
        )
        for load, utility in domain
    ]


def worst_over_domain(
    cases: Iterable[Tuple[str, float]],
) -> Tuple[float, str]:
    """Reduce per-case residuals to (worst residual, worst-case label)."""
    worst, where = 0.0, "n/a"
    for label, residual in cases:
        if residual > worst or where == "n/a":
            worst, where = residual, label
    return worst, where


def batch_vs_scalar(
    make_model: Callable[[], CapacityEngine],
    method: str,
    grid: Sequence[float],
    policy: TolerancePolicy,
) -> float:
    """Residual between ``<method>_batch(grid)`` and the scalar loop.

    Each side runs on its own fresh ``make_model()``, so neither can
    read back what the other left in a per-capacity cache.  The batch
    kernels are the *candidate* and the scalar path the *reference*:
    they were written later, against the scalar ground truth, and the
    golden-figures gate pins the scalar path.
    """
    scalar_fn = getattr(make_model(), method)
    batch_fn = getattr(make_model(), f"{method}_batch")
    reference = np.asarray([scalar_fn(x) for x in grid], dtype=float)
    candidate = np.asarray(batch_fn(np.asarray(grid, dtype=float)), dtype=float)
    return policy.residual(candidate, reference)


def root_level_residual(
    make_model: Callable[[], CapacityEngine],
    grid: Sequence[float],
    policy: TolerancePolicy,
) -> float:
    """Residual of ``B(C + Delta) = R(C)`` for the batch bandwidth gap.

    ``Delta`` comes from ``bandwidth_gap_batch`` on one fresh engine;
    ``B`` and ``R`` are re-evaluated through the scalar path of another,
    so a fault in the batch ``B`` kernel the inversion ran on shows up
    as a missed level.  ``Delta >= 0`` is the smallest shift reaching
    ``R(C)``, so where ``R(C) <= B(C)`` the level to hit is ``B(C)``.
    """
    caps = np.asarray(grid, dtype=float)
    gaps = make_model().bandwidth_gap_batch(caps)
    reference = make_model()
    achieved = np.array([reference.best_effort(c + d) for c, d in zip(caps, gaps)])
    levels = np.array(
        [max(reference.reservation(c), reference.best_effort(c)) for c in caps]
    )
    return policy.residual(achieved, levels)


def pointwise_vs_reference(
    candidate_fn: Callable[[float], float],
    reference_fn: Callable[[float], float],
    grid: Sequence[float],
    policy: TolerancePolicy,
) -> float:
    """Residual between two scalar functions over a shared grid."""
    candidate = np.asarray([candidate_fn(x) for x in grid], dtype=float)
    reference = np.asarray([reference_fn(x) for x in grid], dtype=float)
    return policy.residual(candidate, reference)


# ----------------------------------------------------------------------
# ensemble oracles
# ----------------------------------------------------------------------


def ensemble_gap_vs_scalar(
    config: PaperConfig,
    *,
    replications: int,
    horizon: float,
    policy: TolerancePolicy,
) -> Tuple[float, Dict[str, float]]:
    """CRN-paired simulated ``delta(C)`` against the analytic scalar value.

    Uses the config's ``sim_*`` block (M/M/inf census at ``sim_kbar``
    on a ``sim_capacity`` link, adaptive utility — the S1 validation
    scenario).  The residual is CI-halfwidth-aware: the policy's
    ``ci_multiplier`` widens the allowance by the paired estimator's
    own uncertainty.
    """
    utility = config.utility("adaptive")
    result = paired_gap(
        PoissonProcess(config.sim_kbar),
        Link(config.sim_capacity),
        utility,
        replications,
        horizon,
        warmup=config.sim_warmup,
        seed=config.sim_seed,
    )
    summary = result.summary()
    from repro.loads import PoissonLoad  # local: avoid import-cycle pressure

    analytic = VariableLoadModel(PoissonLoad(config.sim_kbar), utility)
    reference = analytic.performance_gap(config.sim_capacity)
    residual = policy.residual(
        summary["gap"], reference, ci_halfwidth=summary["gap_ci"]
    )
    return residual, {
        "simulated_gap": summary["gap"],
        "gap_ci": summary["gap_ci"],
        "analytic_gap": reference,
    }


def ensemble_architectures_vs_scalar(
    config: PaperConfig,
    *,
    replications: int,
    horizon: float,
    policy: TolerancePolicy,
) -> Tuple[float, Dict[str, float]]:
    """Simulated ``B_hat`` and ``R_hat`` against the analytic B(C), R(C)."""
    utility = config.utility("adaptive")
    result = paired_gap(
        PoissonProcess(config.sim_kbar),
        Link(config.sim_capacity),
        utility,
        replications,
        horizon,
        warmup=config.sim_warmup,
        seed=config.sim_seed + 1,
    )
    summary = result.summary()
    from repro.loads import PoissonLoad

    analytic = VariableLoadModel(PoissonLoad(config.sim_kbar), utility)
    be_ref = analytic.best_effort(config.sim_capacity)
    res_ref = analytic.reservation(config.sim_capacity)
    residual = max(
        policy.residual(
            summary["best_effort"], be_ref, ci_halfwidth=summary["best_effort_ci"]
        ),
        policy.residual(
            summary["reservation"], res_ref, ci_halfwidth=summary["reservation_ci"]
        ),
    )
    return residual, {
        "best_effort": summary["best_effort"],
        "best_effort_ref": be_ref,
        "reservation": summary["reservation"],
        "reservation_ref": res_ref,
    }


def ensemble_blocking_vs_erlang(
    *,
    rate: float,
    capacity: float,
    replications: int,
    horizon: float,
    warmup: float,
    seed: int,
    policy: TolerancePolicy,
) -> Tuple[float, Dict[str, float]]:
    """Lost-calls-cleared blocking fraction against the Erlang-B formula.

    An independent closed form the simulator was *not* built from:
    M/M/c/c blocking only depends on the offered load and server
    count, so agreement validates the event mechanics end to end.
    """
    simulator = EnsembleSimulator(
        PoissonProcess(rate),
        Link(capacity),
        ThresholdAdmission(capacity),
        lost_calls_cleared=True,
    )
    result = simulator.run(replications, horizon, warmup=warmup, seed=seed)
    arrivals = float(result.arrivals.sum())
    blocked = arrivals - float(result.admissions.sum())
    simulated = blocked / arrivals
    reference = erlang_b(int(capacity), rate)
    # binomial standard error of the blocking fraction as the CI proxy
    ci = 1.96 * float(np.sqrt(simulated * (1.0 - simulated) / arrivals))
    residual = policy.residual(simulated, reference, ci_halfwidth=ci)
    return residual, {
        "simulated_blocking": simulated,
        "erlang_b": reference,
        "arrivals": arrivals,
    }


def ensemble_determinism_residual(config: PaperConfig) -> Tuple[float, str]:
    """Two runs from the same seed must be event-for-event identical.

    The replication-stream protocol promises that a seed fully
    determines every draw; any drift (ordering, hidden global RNG
    state) breaks cache-addressing and CRN pairing silently.
    """
    simulator = EnsembleSimulator(
        PoissonProcess(config.sim_kbar), Link(config.sim_capacity)
    )

    def run():
        return simulator.run(
            4, config.sim_horizon / 4.0, warmup=0.0, seed=config.sim_seed
        )

    first, second = run(), run()
    identical = (
        np.array_equal(first.arrivals, second.arrivals)
        and np.array_equal(first.admissions, second.admissions)
        and np.array_equal(np.asarray(first.events), np.asarray(second.events))
    )
    detail = (
        f"arrivals={first.arrivals.sum():.0f} (replayed identically)"
        if identical
        else (
            f"arrivals {first.arrivals.sum():.0f} vs "
            f"{second.arrivals.sum():.0f} diverged under one seed"
        )
    )
    return (0.0 if identical else float("inf")), detail
