"""The invariant catalogue: every paper-derived property, declared once.

Importing this module populates :data:`repro.verify.registry.REGISTRY`
with ~35 invariants spanning the four computation engines.  IDs are
grouped by family:

- ``B*`` bounds, ``M*`` monotonicity, ``E*`` Erlang-B,
  ``X*`` Section 5 extension identities, ``P*`` scalar-vs-batch
  differential parity, ``C*`` continuum closed forms and limits,
  ``W*`` welfare, ``K*`` the EXPERIMENTS.md checkpoint table,
  ``S*`` ensemble Monte Carlo oracles, ``EM*`` certified emulator
  surfaces, ``L*`` mean-field fluid-diffusion limits, ``T*`` streaming
  trace replay and frozen result provenance.

Each entry cites where in Breslau & Shenker (SIGCOMM 1998) the
property comes from; ``docs/VERIFY.md`` carries the longer catalogue.
Checks are pure functions of the :class:`PaperConfig`, so the whole
suite is cache-addressable by config digest.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.continuum import (
    DELTA_OVER_C_BOUND,
    GAMMA_BOUND,
    AdaptiveExponentialContinuum,
    AdaptiveAlgebraicContinuum,
    ContinuumModel,
    RigidAlgebraicContinuum,
    RigidExponentialContinuum,
    adaptive_algebraic_ratio,
    adaptive_algebraic_ratio_limit,
    retrying_rigid_ratio,
    rigid_algebraic_ratio,
    sampling_rigid_ratio,
)
from repro.experiments.checkpoints import all_checkpoints
from repro.experiments.params import PaperConfig
from repro.loads import ExponentialLoad, PoissonLoad
from repro.models import (
    Architecture,
    RetryingModel,
    SamplingModel,
    VariableLoadModel,
    WelfareModel,
    erlang_b,
    erlang_b_inverse,
)
from repro.utility import PiecewiseLinearUtility, RigidUtility
from repro.verify import oracles
from repro.verify.oracles import (
    PAPER_DOMAIN,
    batch_vs_scalar,
    paper_models,
    root_level_residual,
    verification_capacities,
    worst_over_domain,
)
from repro.verify.registry import REGISTRY, CheckResult
from repro.verify.tolerance import (
    EMULATOR,
    EXACT,
    GOLDEN,
    LIMIT,
    MONTE_CARLO,
    STRUCTURAL,
    TIGHT,
    TolerancePolicy,
    bound_residual,
    monotone_residual,
)

# ----------------------------------------------------------------------
# shared fixtures (memoised per config; PaperConfig is frozen/hashable)
# ----------------------------------------------------------------------


@lru_cache(maxsize=4)
def _models(config: PaperConfig) -> Tuple[Tuple[str, VariableLoadModel], ...]:
    return tuple(paper_models(config))


@lru_cache(maxsize=4)
def _grid(config: PaperConfig) -> Tuple[float, ...]:
    return tuple(verification_capacities(config))


def _fresh_domain_worst(config, per_factory, *, utility=None) -> CheckResult:
    """Evaluate ``per_factory(make) -> residual`` across the domain.

    ``make()`` builds a fresh model on every call, so a check can run
    two paths without one reading the other's per-capacity caches.
    ``utility`` restricts the domain to one utility name.
    """
    residual, where = worst_over_domain(
        (
            f"{load}/{name}",
            per_factory(
                lambda _l=load, _u=name: VariableLoadModel(
                    config.load(_l), config.utility(_u)
                )
            ),
        )
        for load, name in PAPER_DOMAIN
        if utility in (None, name)
    )
    return CheckResult(residual, f"worst case {where}")


def _domain_worst(config, per_model) -> CheckResult:
    """Evaluate ``per_model(label, model) -> residual`` across the domain."""
    residual, where = worst_over_domain(
        (label, per_model(label, model)) for label, model in _models(config)
    )
    return CheckResult(residual, f"worst case {where}")


# ----------------------------------------------------------------------
# B* — bounds (paper Section 3.1: utilities are normalised to [0, 1])
# ----------------------------------------------------------------------


@REGISTRY.invariant(
    "B1",
    "performance gap delta(C) lies in [0, 1]",
    paper_ref="S3.1 (delta = R - B with pi normalised to [0, 1])",
    engines=("scalar",),
    tolerance=STRUCTURAL,
)
def _b1(config: PaperConfig) -> CheckResult:
    grid = _grid(config)
    return _domain_worst(
        config,
        lambda label, m: bound_residual(
            [m.performance_gap(c) for c in grid], lower=0.0, upper=1.0
        ),
    )


@REGISTRY.invariant(
    "B2",
    "reservations dominate best effort: R(C) >= B(C)",
    paper_ref="S3.1 (reservation admits the utility-maximising subset)",
    engines=("scalar",),
    tolerance=STRUCTURAL,
)
def _b2(config: PaperConfig) -> CheckResult:
    grid = _grid(config)
    return _domain_worst(
        config,
        lambda label, m: bound_residual(
            [m.reservation(c) - m.best_effort(c) for c in grid], lower=0.0
        ),
    )


@REGISTRY.invariant(
    "B3",
    "blocking and overload fractions are probabilities",
    paper_ref="S3.1 (theta and P(N > k_max) are probabilities)",
    engines=("scalar",),
    tolerance=STRUCTURAL,
)
def _b3(config: PaperConfig) -> CheckResult:
    grid = _grid(config)

    def per_model(label, m):
        values = [m.blocking_fraction(c) for c in grid]
        values += [m.overload_probability(c) for c in grid]
        return bound_residual(values, lower=0.0, upper=1.0)

    return _domain_worst(config, per_model)


@REGISTRY.invariant(
    "B4",
    "bandwidth gap Delta(C) is nonnegative",
    paper_ref="S3.1 (B(C) <= R(C) pointwise forces Delta >= 0)",
    engines=("batch",),
    tolerance=STRUCTURAL,
)
def _b4(config: PaperConfig) -> CheckResult:
    grid = np.asarray(_grid(config))
    return _domain_worst(
        config,
        lambda label, m: bound_residual(
            m.bandwidth_gap_batch(grid), lower=0.0, atol=1e-6
        ),
    )


# ----------------------------------------------------------------------
# M* — monotonicity
# ----------------------------------------------------------------------


@REGISTRY.invariant(
    "M1",
    "best-effort performance B(C) is nondecreasing in capacity",
    paper_ref="S3.1 (more bandwidth never hurts a sharing allocation)",
    engines=("batch",),
    tolerance=STRUCTURAL,
)
def _m1(config: PaperConfig) -> CheckResult:
    caps = np.asarray(config.capacities)
    return _domain_worst(
        config,
        lambda label, m: monotone_residual(m.best_effort_batch(caps)),
    )


@REGISTRY.invariant(
    "M2",
    "reservation performance R(C) is nondecreasing in capacity",
    paper_ref="S3.1 (k_max grows with C; admitted flows never lose)",
    engines=("batch",),
    tolerance=STRUCTURAL,
)
def _m2(config: PaperConfig) -> CheckResult:
    caps = np.asarray(config.capacities)
    return _domain_worst(
        config,
        lambda label, m: monotone_residual(m.reservation_batch(caps)),
    )


@REGISTRY.invariant(
    "M3",
    "admission threshold k_max(C) is nondecreasing in capacity",
    paper_ref="S2 (the fixed-load optimum grows with capacity)",
    engines=("scalar", "batch"),
    tolerance=STRUCTURAL,
)
def _m3(config: PaperConfig) -> CheckResult:
    caps = np.asarray(config.capacities)
    return _domain_worst(
        config,
        lambda label, m: monotone_residual(m.k_max_batch(caps).astype(float)),
    )


@REGISTRY.invariant(
    "M4",
    "Delta(C) grows without bound for rigid apps on exponential loads",
    paper_ref="S3.2 (rigid x exponential: Delta ~ ln(beta C)/beta)",
    engines=("batch",),
    tolerance=TolerancePolicy(atol=1e-6),
)
def _m4(config: PaperConfig) -> CheckResult:
    # only the rigid case is monotone: for adaptive apps the paper has
    # Delta approaching a constant, and the discrete smooth-adaptive
    # Delta decays once both architectures saturate
    caps = np.asarray(config.capacities)
    model = VariableLoadModel(config.load("exponential"), config.utility("rigid"))
    gaps = model.bandwidth_gap_batch(caps)
    residual = monotone_residual(gaps, atol=1e-6)
    return CheckResult(
        residual, f"Delta spans [{gaps.min():.3f}, {gaps.max():.3f}]"
    )


# ----------------------------------------------------------------------
# E* — Erlang-B (paper Section 5.2 uses it; independent closed form)
# ----------------------------------------------------------------------


@REGISTRY.invariant(
    "E1",
    "erlang_b matches the independent log-space series formula",
    paper_ref="S5.2 (M/M/c/c blocking; classic Erlang-B series)",
    engines=("scalar",),
    tolerance=TIGHT,
)
def _e1(config: PaperConfig) -> CheckResult:
    worst, where = 0.0, "n/a"
    for offered in (1.0, 5.0, 20.0, 50.0):
        log_terms = np.array(
            [c * math.log(offered) - math.lgamma(c + 1) for c in range(41)]
        )
        shifted = np.exp(log_terms - log_terms.max())
        cumulative = np.cumsum(shifted)
        for servers in range(1, 41):
            reference = shifted[servers] / cumulative[servers]
            residual = TIGHT.residual(erlang_b(servers, offered), reference)
            if residual > worst or where == "n/a":
                worst, where = residual, f"c={servers}, a={offered}"
    return CheckResult(worst, f"worst case {where}")


@REGISTRY.invariant(
    "E2",
    "erlang_b is a probability, decreasing in circuit count",
    paper_ref="S5.2 (more circuits can only reduce blocking)",
    engines=("scalar",),
    tolerance=STRUCTURAL,
)
def _e2(config: PaperConfig) -> CheckResult:
    worst, where = 0.0, "n/a"
    for offered in (1.0, 5.0, 20.0, 50.0):
        curve = [erlang_b(c, offered) for c in range(1, 61)]
        residual = max(
            bound_residual(curve, lower=0.0, upper=1.0),
            monotone_residual(curve, increasing=False),
        )
        if residual > worst or where == "n/a":
            worst, where = residual, f"a={offered}"
    return CheckResult(worst, f"worst case {where}")


@REGISTRY.invariant(
    "E3",
    "erlang_b_inverse returns the smallest sufficient circuit count",
    paper_ref="S5.2 (provisioning to a blocking target)",
    engines=("scalar",),
    tolerance=STRUCTURAL,
)
def _e3(config: PaperConfig) -> CheckResult:
    violations = []
    for offered in (2.0, 10.0, 40.0):
        for target in (0.01, 0.05, 0.2):
            circuits = erlang_b_inverse(offered, target)
            achieved = erlang_b(circuits, offered)
            if achieved > target:
                violations.append(achieved - target)
            if circuits > 1 and erlang_b(circuits - 1, offered) <= target:
                violations.append(1.0)  # not minimal: hard failure
    residual = bound_residual(violations, upper=0.0) if violations else 0.0
    return CheckResult(residual, f"{9 - len(violations)}/9 targets minimal")


# ----------------------------------------------------------------------
# X* — Section 5 extension identities
# ----------------------------------------------------------------------


@REGISTRY.invariant(
    "X1",
    "SamplingModel with S=1 reduces to the base variable-load model",
    paper_ref="S5.1 (one sample is the basic model)",
    engines=("scalar",),
    tolerance=TIGHT,
)
def _x1(config: PaperConfig) -> CheckResult:
    grid = _grid(config)
    cases = []
    for load_name, utility_name in (("poisson", "adaptive"), ("algebraic", "rigid")):
        base = VariableLoadModel(config.load(load_name), config.utility(utility_name))
        sampled = SamplingModel(
            config.load(load_name), config.utility(utility_name), 1
        )
        residual = max(
            oracles.pointwise_vs_reference(
                sampled.best_effort, base.best_effort, grid, TIGHT
            ),
            oracles.pointwise_vs_reference(
                sampled.reservation, base.reservation, grid, TIGHT
            ),
        )
        cases.append((f"{load_name}/{utility_name}", residual))
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


@REGISTRY.invariant(
    "X2",
    "worst-of-S sampling degrades best effort monotonically in S",
    paper_ref="S5.1 (each extra sample can only lower the worst draw)",
    engines=("scalar",),
    tolerance=STRUCTURAL,
)
def _x2(config: PaperConfig) -> CheckResult:
    grid = list(_grid(config))[:4]
    cases = []
    for load_name, utility_name in (("poisson", "adaptive"), ("exponential", "rigid")):
        load, utility = config.load(load_name), config.utility(utility_name)
        for capacity in grid:
            curve = [
                SamplingModel(load, utility, s).best_effort(capacity)
                for s in (1, 2, 5, config.samples)
            ]
            cases.append(
                (
                    f"{load_name}/{utility_name}@C={capacity:g}",
                    monotone_residual(curve, increasing=False),
                )
            )
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


@REGISTRY.invariant(
    "X3",
    "retry fixed point balances: L~ (1 - theta) = L",
    paper_ref="S5.2 (offered load inflates until blocked mass re-offers)",
    engines=("scalar",),
    tolerance=GOLDEN,
)
def _x3(config: PaperConfig) -> CheckResult:
    grid = _grid(config)
    cases = []
    for load_name in ("poisson", "exponential"):
        load = config.load(load_name)
        model = RetryingModel(load, config.utility("adaptive"), alpha=config.alpha)
        for capacity in grid:
            if capacity < 1.2 * load.mean:
                continue  # outside the model's validity (theta ceiling)
            carried = model.offered_mean(capacity) * (
                1.0 - model.blocking_probability(capacity)
            )
            cases.append(
                (
                    f"{load_name}@C={capacity:g}",
                    GOLDEN.residual(carried, load.mean),
                )
            )
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


@REGISTRY.invariant(
    "X4",
    "retrying leaves the best-effort architecture untouched",
    paper_ref="S5.2 (only blocked reservation flows retry)",
    engines=("scalar",),
    tolerance=EXACT,
)
def _x4(config: PaperConfig) -> CheckResult:
    grid = _grid(config)
    load, utility = config.load("poisson"), config.utility("adaptive")
    base = VariableLoadModel(load, utility)
    retrying = RetryingModel(load, utility, alpha=config.alpha)
    residual = oracles.pointwise_vs_reference(
        retrying.best_effort, base.best_effort, grid, EXACT
    )
    return CheckResult(residual, "poisson/adaptive")


@REGISTRY.invariant(
    "X5",
    "sampling continuum Delta-ratio identity (S(z-1))^(1/(z-2))",
    paper_ref="S5.1 (algebraic-load sampling ratio law)",
    engines=("continuum",),
    tolerance=EXACT,
)
def _x5(config: PaperConfig) -> CheckResult:
    cases = []
    for z in (2.5, config.z, 4.0):
        for samples in (2, config.samples):
            expected = (samples * (z - 1.0)) ** (1.0 / (z - 2.0))
            cases.append(
                (
                    f"z={z:g},S={samples}",
                    EXACT.residual(sampling_rigid_ratio(z, samples), expected),
                )
            )
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


@REGISTRY.invariant(
    "X6",
    "retrying continuum Delta-ratio identity ((z-1)/alpha)^(1/(z-2))",
    paper_ref="S5.2 (algebraic-load retrying ratio law)",
    engines=("continuum",),
    tolerance=EXACT,
)
def _x6(config: PaperConfig) -> CheckResult:
    cases = []
    for z in (2.5, config.z, 4.0):
        for alpha in (config.alpha, 0.5):
            expected = ((z - 1.0) / alpha) ** (1.0 / (z - 2.0))
            cases.append(
                (
                    f"z={z:g},alpha={alpha:g}",
                    EXACT.residual(retrying_rigid_ratio(z, alpha), expected),
                )
            )
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


# ----------------------------------------------------------------------
# P* — scalar-vs-batch differential parity
# ----------------------------------------------------------------------


def _parity_invariant(inv_id: str, method: str, description: str):
    @REGISTRY.invariant(
        inv_id,
        description,
        paper_ref="S3.1 quantities; batch kernels are PR-3 rewrites",
        engines=("scalar", "batch"),
        tolerance=TIGHT,
    )
    def _check(config: PaperConfig, _method=method) -> CheckResult:
        grid = _grid(config)
        return _fresh_domain_worst(
            config, lambda make: batch_vs_scalar(make, _method, grid, TIGHT)
        )

    return _check


_parity_invariant(
    "P1", "best_effort", "best_effort_batch agrees with the scalar path"
)
_parity_invariant(
    "P2", "reservation", "reservation_batch agrees with the scalar path"
)
_parity_invariant(
    "P3", "performance_gap", "performance_gap_batch agrees with the scalar path"
)


@REGISTRY.invariant(
    "P4",
    "bandwidth_gap_batch solves B(C + Delta) = R(C) at root level",
    paper_ref="S3.1 (Delta defined implicitly by B(C + Delta) = R(C))",
    engines=("scalar", "batch"),
    tolerance=GOLDEN,
)
def _p4(config: PaperConfig) -> CheckResult:
    # adaptive (smooth) utilities only: rigid B(C) is a step function
    # of capacity, so the implicit equation has no exact root to hit
    grid = _grid(config)
    return _fresh_domain_worst(
        config,
        lambda make: root_level_residual(make, grid, GOLDEN),
        utility="adaptive",
    )


@REGISTRY.invariant(
    "P5",
    "sampling model batch kernels agree with the scalar path",
    paper_ref="S5.1",
    engines=("scalar", "batch"),
    tolerance=TIGHT,
)
def _p5(config: PaperConfig) -> CheckResult:
    grid = _grid(config)
    cases = []
    for load_name, utility_name in (("poisson", "adaptive"), ("algebraic", "rigid")):

        def make(_l=load_name, _u=utility_name):
            return SamplingModel(config.load(_l), config.utility(_u), config.samples)

        residual = max(
            batch_vs_scalar(make, "best_effort", grid, TIGHT),
            batch_vs_scalar(make, "reservation", grid, TIGHT),
        )
        cases.append((f"{load_name}/{utility_name}", residual))
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


@REGISTRY.invariant(
    "P6",
    "retrying bandwidth_gap_batch solves B(C + Delta~) = R~(C) at root level",
    paper_ref="S5.2 (Delta~ defined by B(C + Delta~) = R~(C))",
    engines=("scalar", "batch"),
    tolerance=GOLDEN,
)
def _p6(config: PaperConfig) -> CheckResult:
    # from 1.2 L up (below it the retry load diverges); the extra points
    # below 1.5 L are where the retrying gap is still resolvable
    load = config.load("poisson")
    grid = sorted(
        {load.mean * x for x in (1.2, 1.3, 1.4)}
        | {float(c) for c in _grid(config) if c >= 1.2 * load.mean}
    )
    residual = root_level_residual(
        lambda: RetryingModel(load, config.utility("adaptive"), alpha=config.alpha),
        grid,
        GOLDEN,
    )
    return CheckResult(residual, f"poisson/adaptive on {len(grid)} capacities")


@REGISTRY.invariant(
    "P7",
    "welfare equalizing_ratio_batch agrees with the scalar path",
    paper_ref="S4 (gamma(p) envelope sweep vs direct inversion)",
    engines=("scalar", "batch"),
    tolerance=TolerancePolicy(rtol=1e-5, atol=1e-7),
)
def _p7(config: PaperConfig) -> CheckResult:
    prices = np.asarray(config.prices)[2:-1:4]
    welfare = WelfareModel(
        VariableLoadModel(config.load("poisson"), config.utility("adaptive"))
    )
    batch = welfare.equalizing_ratio_batch(prices)
    scalar = np.array([welfare.equalizing_ratio(p) for p in prices])
    policy = TolerancePolicy(rtol=1e-5, atol=1e-7)
    return CheckResult(
        policy.residual(batch, scalar), f"poisson/adaptive at {len(prices)} prices"
    )


@REGISTRY.invariant(
    "P8",
    "k_max_batch agrees exactly with the scalar threshold",
    paper_ref="S2 (integer fixed-load optimum)",
    engines=("scalar", "batch"),
    tolerance=EXACT,
)
def _p8(config: PaperConfig) -> CheckResult:
    grid = _grid(config)
    return _fresh_domain_worst(
        config, lambda make: batch_vs_scalar(make, "k_max", grid, EXACT)
    )


@REGISTRY.invariant(
    "P9",
    "continuum closed-form batch kernels agree with the scalar path",
    paper_ref="S3.2 worked cases",
    engines=("continuum", "batch"),
    tolerance=TIGHT,
)
def _p9(config: PaperConfig) -> CheckResult:
    grid = (0.5, 1.0, 2.0, 4.0, 8.0)
    cases = []
    for label, make in (
        ("rigid-exponential", lambda: RigidExponentialContinuum(1.0)),
        ("adaptive-exponential", lambda: AdaptiveExponentialContinuum(config.ramp_a)),
        ("rigid-algebraic", lambda: RigidAlgebraicContinuum(config.z)),
        (
            "adaptive-algebraic",
            lambda: AdaptiveAlgebraicContinuum(config.z, config.ramp_a),
        ),
    ):
        caps = grid if "exponential" in label else tuple(1.0 + c for c in grid)
        residual = max(
            batch_vs_scalar(make, "best_effort", caps, TIGHT),
            batch_vs_scalar(make, "reservation", caps, TIGHT),
            batch_vs_scalar(make, "performance_gap", caps, TIGHT),
        )
        cases.append((label, residual))
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


# ----------------------------------------------------------------------
# C* — continuum closed forms, limits and conjectured bounds
# ----------------------------------------------------------------------


@REGISTRY.invariant(
    "C1",
    "quadrature certifies the rigid-exponential closed forms",
    paper_ref="S3.2 (rigid x exponential worked case)",
    engines=("continuum",),
    tolerance=GOLDEN,
)
def _c1(config: PaperConfig) -> CheckResult:
    closed = RigidExponentialContinuum(1.0)
    generic = ContinuumModel(
        ExponentialLoad(1.0), RigidUtility(1.0), k_max_override=lambda c: c
    )
    grid = (0.5, 1.0, 2.0, 4.0)
    residual = max(
        oracles.pointwise_vs_reference(
            generic.best_effort, closed.best_effort, grid, GOLDEN
        ),
        oracles.pointwise_vs_reference(
            generic.reservation, closed.reservation, grid, GOLDEN
        ),
    )
    return CheckResult(residual, "quadrature vs closed form, beta=1")


@REGISTRY.invariant(
    "C2",
    "quadrature certifies the adaptive-exponential closed forms",
    paper_ref="S3.2 (ramp(a) x exponential worked case)",
    engines=("continuum",),
    tolerance=GOLDEN,
)
def _c2(config: PaperConfig) -> CheckResult:
    closed = AdaptiveExponentialContinuum(config.ramp_a)
    generic = ContinuumModel(
        ExponentialLoad(1.0),
        PiecewiseLinearUtility(config.ramp_a),
        k_max_override=lambda c: c,
    )
    grid = (0.5, 1.0, 2.0, 4.0)
    residual = max(
        oracles.pointwise_vs_reference(
            generic.best_effort, closed.best_effort, grid, GOLDEN
        ),
        oracles.pointwise_vs_reference(
            generic.reservation, closed.reservation, grid, GOLDEN
        ),
    )
    return CheckResult(residual, f"quadrature vs closed form, a={config.ramp_a:g}")


@REGISTRY.invariant(
    "C3",
    "adaptive-algebraic gap ratio converges to its z -> 2+ limit",
    paper_ref="S3.2 (ramp ratio limit a^{-a/(1-a)} as z -> 2+)",
    engines=("continuum",),
    tolerance=LIMIT,
)
def _c3(config: PaperConfig) -> CheckResult:
    cases = []
    for a in (0.25, config.ramp_a, 0.75):
        near_two = adaptive_algebraic_ratio(2.0001, a)
        limit = adaptive_algebraic_ratio_limit(a)
        cases.append((f"a={a:g}", LIMIT.residual(near_two, limit)))
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where} at z=2.0001")


@REGISTRY.invariant(
    "C4",
    "continuum equalizing ratio stays below the conjectured e bound",
    paper_ref="S4 (gamma < e conjecture, exact on the continuum)",
    engines=("continuum", "batch"),
    tolerance=STRUCTURAL,
)
def _c4(config: PaperConfig) -> CheckResult:
    model = RigidExponentialContinuum(1.0)
    prices = np.geomspace(1e-4, 0.2, 12)
    gammas = model.equalizing_ratio_batch(prices)
    residual = bound_residual(gammas, lower=1.0 - 1e-9, upper=GAMMA_BOUND, atol=1e-6)
    return CheckResult(
        residual, f"gamma in [{gammas.min():.4f}, {gammas.max():.4f}], e={GAMMA_BOUND:.4f}"
    )


@REGISTRY.invariant(
    "C5",
    "rigid-algebraic Delta/C respects the e - 1 bound, attained at z -> 2+",
    paper_ref="S3.3 (asymptotic Delta/C = (z-1)^{1/(z-2)} - 1 < e - 1)",
    engines=("continuum",),
    tolerance=STRUCTURAL,
)
def _c5(config: PaperConfig) -> CheckResult:
    ratios = [
        rigid_algebraic_ratio(z) - 1.0
        for z in (2.0001, 2.001, 2.01, 2.1, config.z, 10.0, 50.0)
    ]
    residual = max(
        bound_residual(ratios, lower=0.0, upper=DELTA_OVER_C_BOUND, atol=1e-6),
        # the bound is tight: z -> 2+ must approach e - 1
        LIMIT.residual(ratios[0], DELTA_OVER_C_BOUND),
    )
    return CheckResult(
        residual,
        f"max Delta/C = {max(ratios):.4f}, bound e-1 = {DELTA_OVER_C_BOUND:.4f}",
    )


@REGISTRY.invariant(
    "C6",
    "adaptive-exponential Delta(C) approaches its closed-form limit",
    paper_ref="S3.2 (T2.3: Delta -> a-dependent constant)",
    engines=("continuum",),
    tolerance=LIMIT,
)
def _c6(config: PaperConfig) -> CheckResult:
    # C = 20 mean-loads: far enough out to sit on the limit, not so
    # far that the underlying performance gap underflows the gap floor
    model = AdaptiveExponentialContinuum(config.ramp_a)
    at_large_c = model.bandwidth_gap(20.0)
    limit = model.bandwidth_gap_limit()
    return CheckResult(
        LIMIT.residual(at_large_c, limit),
        f"Delta(20) = {at_large_c:.6f} vs limit {limit:.6f}",
    )


@REGISTRY.invariant(
    "C7",
    "discrete exponential-load model converges to the continuum",
    paper_ref="S3.2 (continuum model as the kbar -> inf limit)",
    engines=("scalar", "continuum"),
    tolerance=TolerancePolicy(atol=2e-2),
)
def _c7(config: PaperConfig) -> CheckResult:
    continuum = RigidExponentialContinuum(1.0)
    discrete = VariableLoadModel(
        config.load("exponential"), config.utility("rigid")
    )
    kbar = config.kbar
    policy = TolerancePolicy(atol=2e-2)
    cases = []
    for scaled_c in (0.5, 1.0, 2.0):
        got = discrete.best_effort(scaled_c * kbar)
        ref = continuum.best_effort(scaled_c)
        cases.append((f"C/kbar={scaled_c:g}", policy.residual(got, ref)))
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where} at kbar={kbar:g}")


# ----------------------------------------------------------------------
# W* — welfare
# ----------------------------------------------------------------------


@REGISTRY.invariant(
    "W1",
    "discrete equalizing ratio gamma(p) stays in (1, e)",
    paper_ref="S4 (Table 3 range; gamma < e conjecture)",
    engines=("scalar",),
    tolerance=STRUCTURAL,
)
def _w1(config: PaperConfig) -> CheckResult:
    welfare = WelfareModel(
        VariableLoadModel(config.load("poisson"), config.utility("adaptive"))
    )
    prices = np.asarray(config.prices)[1:-1:3]
    gammas = welfare.equalizing_ratio_batch(prices)
    residual = bound_residual(
        gammas, lower=1.0 - 1e-6, upper=GAMMA_BOUND, atol=1e-6
    )
    return CheckResult(
        residual, f"gamma in [{gammas.min():.4f}, {gammas.max():.4f}]"
    )


@REGISTRY.invariant(
    "W2",
    "optimal provisioned capacity decreases with bandwidth price",
    paper_ref="S4 (C(p) from the provisioning first-order condition)",
    engines=("scalar",),
    tolerance=TolerancePolicy(atol=1e-3),
)
def _w2(config: PaperConfig) -> CheckResult:
    welfare = WelfareModel(
        VariableLoadModel(config.load("poisson"), config.utility("adaptive"))
    )
    prices = np.asarray(config.prices)[1:-1:4]
    cases = []
    for architecture in (Architecture.BEST_EFFORT, Architecture.RESERVATION):
        curve = [welfare.optimal_capacity(p, architecture) for p in prices]
        cases.append(
            (
                architecture.name.lower(),
                monotone_residual(curve, increasing=False, atol=1e-3),
            )
        )
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


# ----------------------------------------------------------------------
# K* — the EXPERIMENTS.md checkpoint table
# ----------------------------------------------------------------------


@REGISTRY.invariant(
    "K1",
    "every EXPERIMENTS.md checkpoint reproduces within its band",
    paper_ref="Tables 1-5 and Section 3-5 figures (34 pinned rows)",
    engines=("scalar", "continuum"),
    tolerance=LIMIT,
)
def _k1(config: PaperConfig) -> CheckResult:
    rows = all_checkpoints(config)
    mismatched = [row.exp_id for row in rows if not row.matches]
    residual = 0.0 if not mismatched else 1.0 + float(len(mismatched))
    detail = (
        f"{len(rows)} checkpoints reproduced"
        if not mismatched
        else f"mismatched: {', '.join(mismatched)}"
    )
    return CheckResult(residual, detail)


# ----------------------------------------------------------------------
# S* — ensemble Monte Carlo oracles
# ----------------------------------------------------------------------


@REGISTRY.invariant(
    "S1",
    "same-seed ensemble replay is event-for-event identical",
    paper_ref="(infrastructure: replication-stream determinism)",
    engines=("ensemble",),
    tolerance=EXACT,
)
def _s1(config: PaperConfig) -> CheckResult:
    residual, detail = oracles.ensemble_determinism_residual(config)
    return CheckResult(residual, detail)


@REGISTRY.invariant(
    "S2",
    "lost-calls-cleared blocking matches Erlang-B",
    paper_ref="S5.2 (M/M/c/c blocking cross-check)",
    engines=("ensemble", "scalar"),
    tolerance=MONTE_CARLO,
)
def _s2(config: PaperConfig) -> CheckResult:
    residual, info = oracles.ensemble_blocking_vs_erlang(
        rate=5.0,
        capacity=7.0,
        replications=16,
        horizon=300.0,
        warmup=30.0,
        seed=config.sim_seed,
        policy=MONTE_CARLO,
    )
    return CheckResult(
        residual,
        f"simulated {info['simulated_blocking']:.4f} vs "
        f"Erlang-B {info['erlang_b']:.4f} over {info['arrivals']:.0f} arrivals",
    )


@REGISTRY.invariant(
    "S3",
    "CRN-paired simulated delta matches the analytic gap",
    paper_ref="S3.1 (delta = R - B) via the S1 validation scenario",
    engines=("ensemble", "scalar"),
    tolerance=MONTE_CARLO,
)
def _s3(config: PaperConfig) -> CheckResult:
    residual, info = oracles.ensemble_gap_vs_scalar(
        config, replications=12, horizon=200.0, policy=MONTE_CARLO
    )
    return CheckResult(
        residual,
        f"simulated {info['simulated_gap']:.5f} +/- {info['gap_ci']:.5f} vs "
        f"analytic {info['analytic_gap']:.5f}",
    )


@REGISTRY.invariant(
    "S4",
    "ensemble B and R estimates match the analytic model",
    paper_ref="S3.1 (B(C), R(C)) via flow-average estimators",
    engines=("ensemble", "scalar"),
    tolerance=MONTE_CARLO,
    suites=("deep",),
)
def _s4(config: PaperConfig) -> CheckResult:
    residual, info = oracles.ensemble_architectures_vs_scalar(
        config,
        replications=config.sim_replications,
        horizon=config.sim_horizon,
        policy=MONTE_CARLO,
    )
    return CheckResult(
        residual,
        f"B {info['best_effort']:.5f} vs {info['best_effort_ref']:.5f}; "
        f"R {info['reservation']:.5f} vs {info['reservation_ref']:.5f}",
    )


@REGISTRY.invariant(
    "S5",
    "simulated delta tracks the analytic curve across capacities",
    paper_ref="S3.1 (delta(C) shape) via CRN paired ensembles",
    engines=("ensemble", "scalar"),
    tolerance=MONTE_CARLO,
    suites=("deep",),
)
def _s5(config: PaperConfig) -> CheckResult:
    from repro.simulation import Link, PoissonProcess, paired_gap

    utility = config.utility("adaptive")
    analytic = VariableLoadModel(PoissonLoad(config.sim_kbar), utility)
    cases = []
    for offset, seed_shift in ((0.0, 2), (10.0, 3), (25.0, 4)):
        capacity = config.sim_capacity + offset
        result = paired_gap(
            PoissonProcess(config.sim_kbar),
            Link(capacity),
            utility,
            config.sim_replications,
            config.sim_horizon,
            warmup=config.sim_warmup,
            seed=config.sim_seed + seed_shift,
        )
        summary = result.summary()
        residual = MONTE_CARLO.residual(
            summary["gap"],
            analytic.performance_gap(capacity),
            ci_halfwidth=summary["gap_ci"],
        )
        cases.append((f"C={capacity:g}", residual))
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


# ----------------------------------------------------------------------
# EM* — certified emulator surfaces (the service layer's error contract;
# see docs/SERVICE.md).  Residuals are in *certified-bound units*: each
# surface promises |emulated - exact| <= certified_bound everywhere on
# its fitted domain, so a fresh differential probe dividing out that
# bound must stay at or below 1.0 under the EMULATOR policy.
# ----------------------------------------------------------------------


@lru_cache(maxsize=4)
def _emulator_rows(config: PaperConfig) -> Tuple[Tuple[str, float], ...]:
    """Fresh-probe residuals for every 1-D surface (memoised per config)."""
    from repro.emulator import check_bank, default_bank

    return tuple(
        (row["surface"], float(row["residual"]))
        for row in check_bank(default_bank(config), config)
    )


def _emulator_worst(config: PaperConfig, quantity: str) -> CheckResult:
    cases = [
        (surface, residual)
        for surface, residual in _emulator_rows(config)
        if surface.startswith(f"{quantity}/")
    ]
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst surface {where} (certified-bound units)")


@REGISTRY.invariant(
    "EM1",
    "delta(C) emulator surfaces stay within their certified bounds",
    paper_ref="S3.1 (delta = R - B) served via certified Chebyshev surrogate",
    engines=("batch",),
    tolerance=EMULATOR,
)
def _em1(config: PaperConfig) -> CheckResult:
    return _emulator_worst(config, "delta")


@REGISTRY.invariant(
    "EM2",
    "Delta(C) emulator surfaces stay within their certified bounds",
    paper_ref="S3.1 (B(C + Delta) = R(C)) served via certified surrogate",
    engines=("batch",),
    tolerance=EMULATOR,
)
def _em2(config: PaperConfig) -> CheckResult:
    return _emulator_worst(config, "Delta")


@REGISTRY.invariant(
    "EM3",
    "gamma(p) emulator surfaces stay within their certified bounds",
    paper_ref="S4 (equalizing price ratio) served via certified surrogate",
    engines=("batch",),
    tolerance=EMULATOR,
)
def _em3(config: PaperConfig) -> CheckResult:
    return _emulator_worst(config, "gamma")


@REGISTRY.invariant(
    "EM4",
    "surfaces refuse out-of-domain queries and uncertifiable fits",
    paper_ref="service error contract (docs/SERVICE.md): bounds never "
    "extrapolate, uncertified surfaces are never built",
    engines=("scalar",),
    tolerance=STRUCTURAL,
)
def _em4(config: PaperConfig) -> CheckResult:
    from repro.emulator import (
        CertificationError,
        ErrorBudget,
        OutOfDomainError,
        default_bank,
        exact_values,
        fit_surface,
    )

    surface = default_bank(config).lookup("delta", "poisson", "adaptive")
    if surface is None:
        return CheckResult(float("inf"), "delta/poisson/adaptive missing")
    failures = []
    for bad in (surface.lo * 0.5, surface.hi * 2.0):
        try:
            surface.eval_scalar(bad)
            failures.append(f"eval_scalar({bad:g}) extrapolated")
        except OutOfDomainError:
            pass
        try:
            surface.evaluate([surface.lo, bad])
            failures.append(f"evaluate([... {bad:g}]) extrapolated")
        except OutOfDomainError:
            pass
    try:
        fit_surface(
            lambda xs: exact_values("delta", config, "poisson", "adaptive", xs),
            quantity="delta",
            load="poisson",
            utility="adaptive",
            xname="capacity",
            lo=surface.lo,
            hi=surface.hi,
            degree=4,
            budget=ErrorBudget(atol=1e-10),
        )
        failures.append("a degree-4 fit certified under a 1e-10 budget")
    except CertificationError:
        pass
    if failures:
        return CheckResult(float("inf"), "; ".join(failures))
    return CheckResult(0.0, "refused out-of-domain and uncertifiable as required")


@lru_cache(maxsize=2)
def _emulator_rows_2d(config: PaperConfig) -> Tuple[Tuple[str, float], ...]:
    from repro.emulator import check_bank, fit_bank

    bank = fit_bank(
        config, quantities=("delta",), loads=("poisson",), include_2d=True
    )
    return tuple(
        (row["surface"], float(row["residual"]))
        for row in check_bank(bank, config)
        if row["surface"].startswith("delta2d/")
    )


@REGISTRY.invariant(
    "EM5",
    "the 2-D delta(C, kbar) surface stays within its certified bound",
    paper_ref="S3.1 delta swept over the mean load (what-if axis)",
    engines=("batch",),
    tolerance=EMULATOR,
    suites=("deep",),
)
def _em5(config: PaperConfig) -> CheckResult:
    residual, where = worst_over_domain(_emulator_rows_2d(config))
    return CheckResult(residual, f"worst surface {where} (certified-bound units)")


# ----------------------------------------------------------------------
# L* — mean-field fluid-diffusion limits.  The fifth engine's accuracy
# claims are *limit* statements (fluid bias O(1/N), Gaussian corrections
# O(1/sqrt(N))), so the block probes them at finite populations under
# the LIMIT policy and differentially against the scalar and ensemble
# engines; see docs/MEANFIELD.md for the validity envelope.
# ----------------------------------------------------------------------


@REGISTRY.invariant(
    "L1",
    "fluid fixed point matches the exact stationary census mean",
    paper_ref="(Fayolle et al. fluid limit; census drift b(n) = 0 at E[N])",
    engines=("meanfield", "scalar"),
    tolerance=LIMIT,
)
def _l1(config: PaperConfig) -> CheckResult:
    from repro.loads import GeometricLoad
    from repro.meanfield import DriftField, solve_fixed_point
    from repro.meanfield.scaling import CANONICAL_SCALES
    from repro.simulation import BirthDeathProcess, PoissonProcess

    cases = []
    for scale in CANONICAL_SCALES:
        mean = scale.population
        for label, process in (
            ("poisson", PoissonProcess(mean)),
            ("poisson-bd", BirthDeathProcess(PoissonLoad(mean))),
            ("geometric-bd", BirthDeathProcess(GeometricLoad.from_mean(mean))),
        ):
            fp = solve_fixed_point(DriftField(process))
            # normalise per flow: the limit statement is about the
            # census *density*, so the bias budget must not grow with N
            residual = LIMIT.residual(fp.census / mean, 1.0)
            cases.append((f"{label} N={mean:g}", residual))
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


@REGISTRY.invariant(
    "L2",
    "diffusion-corrected B and R converge to the exact model as N grows",
    paper_ref="S3.1 (B(C), R(C)) in the Gaussian large-population limit",
    engines=("meanfield", "scalar"),
    tolerance=LIMIT,
)
def _l2(config: PaperConfig) -> CheckResult:
    from repro.meanfield import MeanFieldSimulator
    from repro.meanfield.scaling import CANONICAL_SCALES
    from repro.simulation import Link, PoissonProcess

    utility = config.utility("adaptive")
    cases = []
    errors_b = []
    errors_r = []
    for scale in CANONICAL_SCALES:
        mean = scale.population
        capacity = scale.capacity()
        sim = MeanFieldSimulator(PoissonProcess(mean), Link(capacity))
        got_b = float(sim.best_effort_batch(utility, [capacity])[0])
        got_r = float(sim.reservation_batch(utility, [capacity])[0])
        model = VariableLoadModel(PoissonLoad(mean), utility)
        ref_b = model.best_effort(capacity)
        ref_r = model.reservation(capacity)
        errors_b.append(abs(got_b - ref_b))
        errors_r.append(abs(got_r - ref_r))
        cases.append((f"B N={mean:g}", LIMIT.residual(got_b, ref_b)))
        cases.append((f"R N={mean:g}", LIMIT.residual(got_r, ref_r)))
    # the Gaussian closure must *improve* with N, not merely stay small
    cases.append(
        ("B error decay", monotone_residual(errors_b, increasing=False, atol=1e-4))
    )
    cases.append(
        ("R error decay", monotone_residual(errors_r, increasing=False, atol=1e-4))
    )
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


@REGISTRY.invariant(
    "L3",
    "diffusion CIs agree with ensemble CRN runs at a matched budget",
    paper_ref="S3.1 (delta via CRN pairing) priced by the OU autocovariance",
    engines=("meanfield", "ensemble"),
    tolerance=LIMIT,
)
def _l3(config: PaperConfig) -> CheckResult:
    from repro.meanfield import MeanFieldSimulator
    from repro.simulation import Link, PoissonProcess, paired_gap

    utility = config.utility("adaptive")
    replications, horizon = 12, 200.0
    mf = MeanFieldSimulator(
        PoissonProcess(config.sim_kbar), Link(config.sim_capacity)
    ).paired_gap(
        utility, replications, horizon, warmup=config.sim_warmup
    ).summary()
    ens = paired_gap(
        PoissonProcess(config.sim_kbar),
        Link(config.sim_capacity),
        utility,
        replications,
        horizon,
        warmup=config.sim_warmup,
        seed=config.sim_seed,
    ).summary()
    cases = []
    for key in ("best_effort", "reservation", "gap"):
        # both estimates carry sampling/closure error: widen the LIMIT
        # allowance by the two CI half-widths, as MONTE_CARLO would
        allowance = LIMIT.allowance(ens[key]) + mf[f"{key}_ci"] + ens[f"{key}_ci"]
        cases.append((key, abs(mf[key] - ens[key]) / allowance))
        # the diffusion CI must price the same budget at the same
        # order of magnitude as the Welford CI it mirrors
        ratio = mf[f"{key}_ci"] / max(ens[f"{key}_ci"], 1e-12)
        cases.append((f"{key} ci ratio", bound_residual([ratio], lower=0.2, upper=5.0, atol=1.0)))
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


@REGISTRY.invariant(
    "L4",
    "mean-field gap is non-negative and decays with over-provisioning",
    paper_ref="S3.1 (R >= B; delta -> 0 as C grows past the load)",
    engines=("meanfield",),
    tolerance=LIMIT,
)
def _l4(config: PaperConfig) -> CheckResult:
    from repro.meanfield import MeanFieldSimulator
    from repro.simulation import Link, PoissonProcess

    utility = config.utility("adaptive")
    sim = MeanFieldSimulator(
        PoissonProcess(config.sim_kbar), Link(config.sim_capacity)
    )
    capacities = np.linspace(0.6 * config.sim_kbar, 2.4 * config.sim_kbar, 19)
    gaps = sim.gap_batch(utility, capacities)
    best_effort = sim.best_effort_batch(utility, capacities)
    tail = gaps[capacities >= config.sim_kbar]
    cases = [
        ("gap >= 0", bound_residual(gaps, lower=0.0, atol=1e-9)),
        ("gap tail decay", monotone_residual(tail, increasing=False, atol=1e-9)),
        ("B monotone in C", monotone_residual(best_effort, increasing=True, atol=1e-9)),
    ]
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


@REGISTRY.invariant(
    "L5",
    "degenerate (zero-variance) fluid census reduces to the fixed-load model",
    paper_ref="S2 (fixed-load comparison) as the single-link reduction",
    engines=("meanfield", "scalar"),
    tolerance=LIMIT,
)
def _l5(config: PaperConfig) -> CheckResult:
    from repro.models.fixed_load import FixedLoadModel
    from repro.meanfield import MeanFieldSimulator
    from repro.simulation import Link, PoissonProcess

    utility = config.utility("adaptive")
    fixed = FixedLoadModel(utility)
    cases = []
    for flows, capacity in ((60.0, 40.0), (50.0, 55.0), (30.0, 80.0)):
        sim = MeanFieldSimulator(PoissonProcess(flows), Link(capacity))
        values = sim.fluid_values(utility)
        comparison = fixed.compare(flows, capacity)
        cases.append((
            f"BE m={flows:g} C={capacity:g}",
            LIMIT.residual(
                values["best_effort"] * flows, comparison.best_effort_total
            ),
        ))
        cases.append((
            f"RES m={flows:g} C={capacity:g}",
            LIMIT.residual(
                values["reservation"] * flows, comparison.reservation_total
            ),
        ))
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


@REGISTRY.invariant(
    "T1",
    "Poisson-trace replay recovers the analytic delta",
    paper_ref="S3.1 (delta = R - B) via the streaming replay estimators",
    engines=("ensemble", "scalar"),
    tolerance=MONTE_CARLO,
)
def _t1(config: PaperConfig) -> CheckResult:
    from repro.traces.replay import sweep_occupancy
    from repro.traces.workloads import PoissonWorkload

    utility = config.utility("adaptive")
    rate = float(config.sim_kbar)
    capacity = float(config.sim_capacity)
    stream = PoissonWorkload(rate).stream(
        float(config.sim_horizon), seed=config.sim_seed
    )
    occupancy = sweep_occupancy(stream, warmup=float(config.sim_warmup))
    replay = occupancy.evaluate(utility, capacity).summary()
    model = VariableLoadModel(PoissonLoad(rate), utility)
    analytic = float(model.reservation(capacity)) - float(
        model.best_effort(capacity)
    )
    residual = MONTE_CARLO.residual(
        replay["gap"], analytic, ci_halfwidth=replay["gap_ci"]
    )
    return CheckResult(
        residual,
        f"replayed gap {replay['gap']:.3e} +/- {replay['gap_ci']:.1e} vs "
        f"analytic {analytic:.3e} over {replay['flows']} flows",
    )


@REGISTRY.invariant(
    "T2",
    "replayed-trace census distribution matches the ensemble census law",
    paper_ref="S3 (the census process P(k) underlying B and R)",
    engines=("ensemble",),
    tolerance=TIGHT,
)
def _t2(config: PaperConfig) -> CheckResult:
    from repro.simulation import (
        BirthDeathProcess,
        FlowSimulator,
        Link,
    )
    from repro.traces.format import FlowTrace
    from repro.traces.replay import sweep_occupancy
    from repro.traces.stream import stream_trace

    horizon = float(config.sim_horizon)
    warmup = float(config.sim_warmup)
    from repro.simulation.ensemble import EnsembleResult

    sim = FlowSimulator(
        BirthDeathProcess(PoissonLoad(config.sim_kbar)),
        Link(config.sim_capacity),
    )
    result = sim.run(horizon, seed=config.sim_seed)
    trace = FlowTrace.from_simulation(result)
    occupancy = sweep_occupancy(stream_trace(trace), warmup=warmup)
    values, pmf = occupancy.census_distribution()
    # the same trajectory through the ensemble engine's accounting,
    # as a single replication row
    traj = result.trajectory
    ens = EnsembleResult(
        times=traj.times[None, :],
        census=traj.census[None, :],
        admitted=traj.admitted[None, :],
        counts=np.asarray([len(traj.times)]),
        arrivals=np.zeros(1, dtype=np.int64),
        admissions=np.zeros(1, dtype=np.int64),
        capacity=float(config.sim_capacity),
        warmup=warmup,
        horizon=horizon,
    )
    ens_values, ens_pmf = ens.census_distribution()
    lookup = dict(zip((int(v) for v in ens_values), ens_pmf))
    cases = [
        (f"P({int(v)})", TIGHT.residual(p, lookup.get(int(v), 0.0)))
        for v, p in zip(values, pmf)
    ]
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


@REGISTRY.invariant(
    "T3",
    "streamed census and replay are byte-identical to in-memory results",
    paper_ref="implementation invariant: chunking must not change results",
    engines=("ensemble",),
    tolerance=EXACT,
)
def _t3(config: PaperConfig) -> CheckResult:
    from repro.traces.census import census_samples
    from repro.traces.replay import replay_trace
    from repro.traces.stream import stream_census_samples, stream_trace
    from repro.traces.workloads import BurstyWorkload
    from repro.traces.stream import materialize

    utility = config.utility("adaptive")
    trace = materialize(
        BurstyWorkload(2.0 * config.sim_kbar).stream(
            120.0, seed=config.sim_seed
        )
    )
    capacity = float(config.sim_capacity)
    reference = replay_trace(
        trace, utility, capacity, warmup=12.0, chunk_flows=10**9
    )
    in_memory = census_samples(trace, 500, warmup=12.0, seed=config.sim_seed)
    cases = []
    for chunk_flows in (1, 137, 1000):
        streamed = stream_census_samples(
            stream_trace(trace, chunk_flows=chunk_flows),
            500,
            warmup=12.0,
            seed=config.sim_seed,
        )
        cases.append(
            (
                f"census chunk={chunk_flows}",
                0.0 if np.array_equal(streamed, in_memory) else float("inf"),
            )
        )
        chunked = replay_trace(
            trace, utility, capacity, warmup=12.0, chunk_flows=chunk_flows
        )
        identical = (
            np.array_equal(chunked.paired.best_effort, reference.paired.best_effort)
            and np.array_equal(
                chunked.paired.reservation, reference.paired.reservation
            )
            and np.array_equal(chunked.census_pmf, reference.census_pmf)
        )
        cases.append(
            (f"replay chunk={chunk_flows}", 0.0 if identical else float("inf"))
        )
    residual, where = worst_over_domain(cases)
    return CheckResult(residual, f"worst case {where}")


@REGISTRY.invariant(
    "T4",
    "provenance verify passes on a freshly frozen snapshot",
    paper_ref="reproducibility invariant: freeze -> verify must close",
    engines=("scalar",),
    tolerance=STRUCTURAL,
)
def _t4(config: PaperConfig) -> CheckResult:
    import tempfile

    from repro.provenance import freeze, verify

    spec = {
        "workload": "diurnal",
        "rate": float(config.sim_kbar) / 2.0,
        "horizon": 60.0,
        "seed": config.sim_seed,
        "chunk_flows": 1024,
        "capacity": float(config.sim_capacity) / 2.0,
        "windows": 4,
        "warmup": 10.0,
    }
    with tempfile.TemporaryDirectory() as tmp:
        freeze(
            tmp, config=config, include=("traces",), trace_specs=[spec]
        )
        report = verify(tmp, config=config)
    failed = ", ".join(c.check_id for c in report.failures) or "none"
    return CheckResult(
        0.0 if report.ok else float("inf"),
        f"{len(report.checks)} checks, failed: {failed}",
    )


def catalogue_size() -> int:
    """How many invariants this module registered."""
    return len(REGISTRY)


def fast_suite_ids() -> List[str]:
    """IDs included in the fast suite (CI's required gate)."""
    return [inv.inv_id for inv in REGISTRY.select("fast")]
