"""Tests for the Section 2 fixed-load model."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.models import Architecture, FixedLoadModel
from repro.utility import (
    AdaptiveUtility,
    AlgebraicTailUtility,
    ExponentialElasticUtility,
    PiecewiseLinearUtility,
    RigidUtility,
)


class TestTotalUtility:
    def test_matches_definition(self, adaptive):
        m = FixedLoadModel(adaptive)
        assert m.total_utility(7, 10.0) == pytest.approx(
            7 * adaptive.value(10.0 / 7)
        )

    def test_zero_flows(self, adaptive):
        assert FixedLoadModel(adaptive).total_utility(0, 10.0) == 0.0

    def test_rejects_fractional_flows(self, adaptive):
        with pytest.raises(ValueError):
            FixedLoadModel(adaptive).total_utility(1.5, 10.0)


class TestKMax:
    def test_rigid_is_floor(self):
        m = FixedLoadModel(RigidUtility(1.0))
        assert m.k_max(10.0) == 10
        assert m.k_max(10.9) == 10

    def test_rigid_with_demand(self):
        m = FixedLoadModel(RigidUtility(2.0))
        assert m.k_max(10.0) == 5

    def test_adaptive_near_capacity(self):
        # paper footnote 4: kappa calibrated so k_max(C) = C
        m = FixedLoadModel(AdaptiveUtility())
        for c in (25.0, 100.0, 333.0):
            assert abs(m.k_max(c) - c) <= 1

    def test_algebraic_tail_below_capacity(self):
        m = FixedLoadModel(AlgebraicTailUtility(1.0))
        assert m.k_max(100.0) == pytest.approx(50, abs=1)

    def test_zero_capacity(self, adaptive):
        assert FixedLoadModel(adaptive).k_max(0.0) == 0

    def test_elastic_raises_with_explanation(self):
        m = FixedLoadModel(ExponentialElasticUtility(), k_max_limit=500)
        with pytest.raises(ModelError, match="elastic"):
            m.k_max(10.0)

    def test_cache_consistency(self, adaptive):
        m = FixedLoadModel(adaptive)
        assert m.k_max(50.0) == m.k_max(50.0)

    def test_cache_stays_bounded_over_many_capacities(self, adaptive):
        # an engine may live as long as the process serving it
        m = FixedLoadModel(adaptive)
        caps = np.linspace(1.0, 500.0, 10_000)
        m.k_max_batch(caps)
        for c in caps[::500]:
            m.k_max(float(c) + 0.25)
        assert len(m._k_max_cache) <= m._k_max_cache.maxsize < caps.size
        # evicted capacities are recomputed, not answered wrongly
        assert m.k_max(float(caps[0])) == m.k_max_batch(caps[:1])[0]

    def test_cache_keys_are_exact_floats(self):
        # k_max is a step function of C: the float just below a jump
        # must not share an entry with the jump itself
        m = FixedLoadModel(RigidUtility(1.0))
        below = float(np.nextafter(3.0, 0.0))
        assert m.k_max(3.0) == 3
        assert m.k_max(below) == 2
        assert list(m.k_max_batch([3.0, below])) == [3, 2]

    def test_hint_walkout_handles_offset_hints(self):
        # a ramp's analytic k_max is exact; perturb via a scaled variant
        m = FixedLoadModel(PiecewiseLinearUtility(0.5))
        assert m.k_max(40.0) == 40


class TestCompare:
    def test_underload_ties(self, adaptive):
        m = FixedLoadModel(adaptive)
        cmp = m.compare(offered_flows=5, capacity=100.0)
        assert cmp.best_effort_total == cmp.reservation_total
        assert cmp.preferred is Architecture.BEST_EFFORT

    def test_overload_prefers_reservations_rigid(self):
        m = FixedLoadModel(RigidUtility(1.0))
        cmp = m.compare(offered_flows=15, capacity=10.0)
        assert cmp.best_effort_total == 0.0
        assert cmp.reservation_total == 10.0
        assert cmp.preferred is Architecture.RESERVATION
        assert cmp.advantage == 10.0

    def test_overload_prefers_reservations_adaptive(self):
        m = FixedLoadModel(AdaptiveUtility())
        cmp = m.compare(offered_flows=40, capacity=10.0)
        assert cmp.reservation_total > cmp.best_effort_total
        assert cmp.preferred is Architecture.RESERVATION

    def test_adaptive_overload_degrades_gently(self):
        # the paper: adaptive V(k) declines gently past k_max, unlike
        # the rigid cliff
        m = FixedLoadModel(AdaptiveUtility())
        capacity = 10.0
        at_peak = m.total_utility(m.k_max(capacity), capacity)
        just_past = m.total_utility(m.k_max(capacity) + 1, capacity)
        assert 0.0 < at_peak - just_past < 0.05 * at_peak

    def test_rejects_negative_offered(self, adaptive):
        with pytest.raises(ValueError):
            FixedLoadModel(adaptive).compare(-1, 10.0)


class TestNeedsAdmissionControl:
    def test_inelastic_families(self):
        for u in (RigidUtility(1.0), AdaptiveUtility(), PiecewiseLinearUtility(0.5)):
            assert FixedLoadModel(u).needs_admission_control()

    def test_elastic_family(self):
        assert not FixedLoadModel(ExponentialElasticUtility()).needs_admission_control()


class TestRigidClosedForm:
    def test_static_helper(self):
        assert FixedLoadModel.rigid_k_max(10.5) == 10
        assert FixedLoadModel.rigid_k_max(10.5, b_hat=2.0) == 5

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            FixedLoadModel.rigid_k_max(-1.0)
