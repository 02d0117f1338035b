"""The capacity-engine contract, checked on every engine.

Every subclass of :class:`~repro.models.engine.CapacityEngine` must give
the same ``B``, ``R``, ``delta`` and ``Delta`` through its scalar and
batch entry points, follow its ``delta`` clipping rule, return the full
``sweep`` series and refuse capacities that are not finite and >= 0.
"""

import math

import numpy as np
import pytest

from repro.continuum import (
    AdaptiveAlgebraicContinuum,
    AdaptiveExponentialContinuum,
    AlgebraicTailAlgebraicContinuum,
    ContinuumModel,
    ContinuumSamplingModel,
    RigidAlgebraicContinuum,
    RigidExponentialContinuum,
)
from repro.extensions import RiskAverseModel, TwoClassModel
from repro.loads import ExponentialLoad, PoissonLoad
from repro.models import RetryingModel, SamplingModel, VariableLoadModel
from repro.models.engine import CapacityEngine
from repro.utility import AdaptiveUtility, PiecewiseLinearUtility, RigidUtility

ADAPTIVE = AdaptiveUtility()
RAMP = PiecewiseLinearUtility(0.5)

#: engine name -> (factory, a capacity inside its domain)
ENGINES = {
    "variable-load": (lambda: VariableLoadModel(PoissonLoad(12.0), ADAPTIVE), 15.0),
    "sampling": (lambda: SamplingModel(PoissonLoad(12.0), ADAPTIVE, 3), 15.0),
    "retrying": (lambda: RetryingModel(PoissonLoad(12.0), ADAPTIVE, alpha=0.1), 15.0),
    "risk-averse": (
        lambda: RiskAverseModel(PoissonLoad(12.0), ADAPTIVE, samples=3),
        15.0,
    ),
    "two-class": (
        lambda: TwoClassModel(
            (PoissonLoad(6.0), PoissonLoad(4.0)),
            (ADAPTIVE, RigidUtility(1.0)),
            demands=(1.0, 2.0),
        ),
        12.0,
    ),
    "continuum": (lambda: ContinuumModel(ExponentialLoad(1.0), RAMP), 2.0),
    "continuum-sampling": (
        lambda: ContinuumSamplingModel(ExponentialLoad(1.0), RAMP, 2),
        2.0,
    ),
    "algebraic-tail": (lambda: AlgebraicTailAlgebraicContinuum(3.5, 1.0), 10.0),
    "rigid-exponential": (lambda: RigidExponentialContinuum(1.0), 2.0),
    "adaptive-exponential": (lambda: AdaptiveExponentialContinuum(0.5), 2.0),
    "rigid-algebraic": (lambda: RigidAlgebraicContinuum(3.0), 2.0),
    "adaptive-algebraic": (lambda: AdaptiveAlgebraicContinuum(3.0, 0.5), 2.0),
}

QUANTITIES = ("best_effort", "reservation", "performance_gap", "bandwidth_gap")


@pytest.fixture(params=sorted(ENGINES))
def engine(request):
    make, capacity = ENGINES[request.param]
    return make, capacity


def test_every_engine_subclass_is_covered():
    made = {type(make()) for make, _ in ENGINES.values()}
    assert len(made) == 12
    assert all(issubclass(cls, CapacityEngine) for cls in made)


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_scalar_equals_batch(engine, quantity):
    # each path on a fresh instance, so no per-capacity cache is shared
    make, capacity = engine
    scalar = getattr(make(), quantity)(capacity)
    batch = getattr(make(), f"{quantity}_batch")(np.array([capacity]))
    assert batch.shape == (1,)
    assert batch[0] == pytest.approx(scalar, rel=1e-9, abs=1e-9)


def test_delta_follows_the_clipping_rule(engine):
    make, capacity = engine
    model = make()
    raw = model.reservation(capacity) - model.best_effort(capacity)
    expected = max(0.0, raw) if model.CLIP_GAP else raw
    assert model.performance_gap(capacity) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_sweep_returns_every_series(engine):
    make, capacity = engine
    caps = [capacity, 2.0 * capacity]
    out = make().sweep(caps)
    assert set(out) == {"capacity", *QUANTITIES}
    reference = make()
    for quantity in QUANTITIES:
        expected = getattr(reference, f"{quantity}_batch")(np.array(caps))
        np.testing.assert_allclose(out[quantity], expected, rtol=1e-9, atol=1e-12)


def test_unclipped_engines_report_negative_gaps():
    # heavy blocking at C slightly above L: the retry penalty swamps the
    # admission benefit, and both paths report the signed gap
    model = RetryingModel(PoissonLoad(12.0), ADAPTIVE, alpha=1.0)
    assert not model.CLIP_GAP
    assert model.performance_gap(13.0) < 0.0
    assert model.performance_gap_batch([13.0])[0] == model.performance_gap(13.0)
    assert model.bandwidth_gap(13.0) == 0.0
    assert model.bandwidth_gap_batch([13.0])[0] == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0], ids=["nan", "inf", "neg"])
@pytest.mark.parametrize("path", ["scalar", "batch"])
def test_non_finite_or_negative_capacity_is_refused(engine, bad, path):
    make, capacity = engine
    model = make()
    if path == "scalar":
        calls = [lambda q=q: getattr(model, q)(bad) for q in QUANTITIES]
    else:
        grid = np.array([capacity, bad])
        calls = [lambda q=q: getattr(model, f"{q}_batch")(grid) for q in QUANTITIES]
        calls.append(lambda: model.sweep(grid))
    for call in calls:
        with pytest.raises(ValueError, match="finite and >= 0"):
            call()
