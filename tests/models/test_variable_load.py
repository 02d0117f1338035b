"""Tests for the Section 3.1 discrete variable-load model."""

import pytest

import repro.models.variable_load as vlm
from repro.loads import AlgebraicLoad, GeometricLoad
from repro.models import VariableLoadModel
from repro.utility import AdaptiveUtility, PiecewiseLinearUtility, RigidUtility


def brute_force_best_effort(load, utility, capacity, terms=100_000):
    """Reference implementation: direct truncated sum."""
    total = 0.0
    for k in range(1, terms):
        p = load.pmf(k)
        if p == 0.0 and k > 4 * load.mean:
            break
        total += p * k * utility.value(capacity / k)
    return total / load.mean


class TestBestEffort:
    def test_matches_brute_force(self, any_load, inelastic_utility):
        m = VariableLoadModel(any_load, inelastic_utility)
        for c in (4.0, 12.0, 30.0):
            expected = brute_force_best_effort(any_load, inelastic_utility, c)
            assert m.best_effort(c) == pytest.approx(expected, abs=2e-5)

    def test_zero_capacity(self, poisson_load, adaptive):
        assert VariableLoadModel(poisson_load, adaptive).best_effort(0.0) == 0.0

    def test_monotone_in_capacity(self, any_load, inelastic_utility):
        m = VariableLoadModel(any_load, inelastic_utility)
        values = [m.best_effort(c) for c in (5.0, 10.0, 20.0, 40.0, 80.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_approaches_one(self, poisson_load, adaptive):
        m = VariableLoadModel(poisson_load, adaptive)
        assert m.best_effort(2000.0) == pytest.approx(1.0, abs=1e-3)

    def test_rejects_negative_capacity(self, poisson_load, adaptive):
        with pytest.raises(ValueError):
            VariableLoadModel(poisson_load, adaptive).best_effort(-1.0)

    def test_caching_returns_identical_values(self, poisson_load, adaptive):
        m = VariableLoadModel(poisson_load, adaptive)
        assert m.best_effort(17.0) == m.best_effort(17.0)


class TestEulerMaclaurinTail:
    def test_em_mode_matches_brute_force(self):
        load = AlgebraicLoad.from_mean(3.0, 12.0)
        u = AdaptiveUtility()
        direct = VariableLoadModel(load, u)
        c = 40.0
        expected = direct.total_best_effort(c)
        # shrink the brute-force cap to force the EM path
        original = vlm.BRUTE_FORCE_CAP
        vlm.BRUTE_FORCE_CAP = 1 << 12
        try:
            em_model = VariableLoadModel(load, u)
            got = em_model.total_best_effort(c)
        finally:
            vlm.BRUTE_FORCE_CAP = original
        assert got == pytest.approx(expected, abs=1e-7)

    def test_em_mode_geometric(self):
        load = GeometricLoad.from_mean(12.0)
        u = AdaptiveUtility()
        expected = VariableLoadModel(load, u).total_best_effort(25.0)
        original = vlm.BRUTE_FORCE_CAP
        vlm.BRUTE_FORCE_CAP = 1 << 10
        try:
            got = VariableLoadModel(load, u).total_best_effort(25.0)
        finally:
            vlm.BRUTE_FORCE_CAP = original
        assert got == pytest.approx(expected, abs=1e-7)


class TestReservation:
    def test_dominates_best_effort(self, any_load, inelastic_utility):
        # the paper's R(C) >= B(C), strict in all considered cases
        m = VariableLoadModel(any_load, inelastic_utility)
        for c in (3.0, 8.0, 15.0, 24.0, 60.0):
            assert m.reservation(c) >= m.best_effort(c) - 1e-12

    def test_strictly_better_under_overload(self, any_load, inelastic_utility):
        m = VariableLoadModel(any_load, inelastic_utility)
        c = 0.5 * any_load.mean
        assert m.reservation(c) > m.best_effort(c)

    def test_matches_definition(self, geometric_load, rigid):
        m = VariableLoadModel(geometric_load, rigid)
        c = 8.0
        kmax = m.k_max(c)
        expected = sum(
            geometric_load.pmf(k) * k for k in range(1, kmax + 1)
        ) + kmax * geometric_load.sf(kmax)
        assert m.total_reservation(c) == pytest.approx(expected, rel=1e-9)

    def test_zero_capacity(self, poisson_load, adaptive):
        assert VariableLoadModel(poisson_load, adaptive).reservation(0.0) == 0.0

    def test_below_support_yields_zero(self):
        load = AlgebraicLoad.from_mean(3.0, 12.0)
        m = VariableLoadModel(load, RigidUtility(1.0))
        assert m.reservation(0.5) == 0.0


class TestGaps:
    def test_performance_gap_nonnegative(self, any_load, inelastic_utility):
        m = VariableLoadModel(any_load, inelastic_utility)
        for c in (2.0, 10.0, 30.0, 100.0):
            assert m.performance_gap(c) >= 0.0

    def test_bandwidth_gap_solves_its_equation(self, any_load, inelastic_utility):
        m = VariableLoadModel(any_load, inelastic_utility)
        c = 8.0
        gap = m.bandwidth_gap(c)
        target = m.reservation(c)
        assert gap > 0.0
        if isinstance(inelastic_utility, RigidUtility):
            # B is a step function of C for rigid utilities: the gap is
            # the crossing point, bracketed within one step
            assert m.best_effort(c + gap + 0.51) >= target - 1e-9
            assert m.best_effort(c + max(gap - 0.51, 0.0)) <= target + 1e-9
        else:
            assert m.best_effort(c + gap) == pytest.approx(target, abs=1e-6)

    def test_gap_zero_when_gap_below_floor(self, poisson_load, adaptive):
        m = VariableLoadModel(poisson_load, adaptive)
        # far overprovisioned: utilities agree to machine precision
        assert m.bandwidth_gap(60.0 * poisson_load.mean) == 0.0

    def test_rigid_gap_larger_than_adaptive(self, any_load):
        rigid = VariableLoadModel(any_load, RigidUtility(1.0))
        adaptive = VariableLoadModel(any_load, AdaptiveUtility())
        c = any_load.mean
        assert rigid.bandwidth_gap(c) > adaptive.bandwidth_gap(c)

    def test_ramp_gap_decreases_with_adaptivity(self, geometric_load):
        c = geometric_load.mean
        gaps = [
            VariableLoadModel(geometric_load, PiecewiseLinearUtility(a)).bandwidth_gap(c)
            for a in (0.9, 0.5, 0.2)
        ]
        assert gaps[0] > gaps[1] > gaps[2]


class TestBlockingAndOverload:
    def test_overload_probability_is_sf_at_kmax(self, geometric_load, rigid):
        m = VariableLoadModel(geometric_load, rigid)
        c = 10.0
        assert m.overload_probability(c) == pytest.approx(
            geometric_load.sf(m.k_max(c))
        )

    def test_blocking_fraction_definition(self, geometric_load, rigid):
        m = VariableLoadModel(geometric_load, rigid)
        c = 10.0
        kmax = m.k_max(c)
        expected = sum(
            geometric_load.pmf(k) * (k - kmax) for k in range(kmax + 1, 3000)
        ) / geometric_load.mean
        assert m.blocking_fraction(c) == pytest.approx(expected, rel=1e-6)

    def test_blocking_decreases_with_capacity(self, any_load, rigid):
        m = VariableLoadModel(any_load, rigid)
        values = [m.blocking_fraction(c) for c in (5.0, 15.0, 40.0)]
        assert values[0] > values[1] > values[2]


class TestSweep:
    def test_sweep_matches_pointwise(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        caps = [5.0, 10.0, 20.0]
        out = m.sweep(caps)
        for i, c in enumerate(caps):
            assert out["best_effort"][i] == pytest.approx(m.best_effort(c))
            assert out["reservation"][i] == pytest.approx(m.reservation(c))
            assert out["bandwidth_gap"][i] == pytest.approx(m.bandwidth_gap(c))


class TestMarginals:
    def test_best_effort_marginal_positive(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        assert m.best_effort_marginal(10.0) > 0.0

    def test_marginal_matches_slope(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        c, h = 15.0, 0.5
        slope = (m.total_best_effort(c + h) - m.total_best_effort(c - h)) / (2 * h)
        assert m.best_effort_marginal(c) == pytest.approx(slope, rel=0.01)

    def test_invalid_tol_rejected(self, geometric_load, adaptive):
        with pytest.raises(ValueError):
            VariableLoadModel(geometric_load, adaptive, tol=0.0)


class TestThresholdSensitivity:
    """Suboptimal admission thresholds (trunk-reservation style)."""

    def test_optimum_at_k_max(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        c = geometric_load.mean
        k_star = m.k_max(c)
        best = m.reservation_at_threshold(c, k_star)
        for k in (k_star - 3, k_star - 1, k_star + 1, k_star + 3):
            if k >= 1:
                assert m.reservation_at_threshold(c, k) <= best + 1e-12

    def test_matches_reservation_at_k_max(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        c = 1.2 * geometric_load.mean
        assert m.reservation_at_threshold(c, m.k_max(c)) == pytest.approx(
            m.reservation(c), abs=1e-12
        )

    def test_huge_threshold_approaches_best_effort(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        c = geometric_load.mean
        loose = m.reservation_at_threshold(c, int(40 * geometric_load.mean))
        assert loose == pytest.approx(m.best_effort(c), abs=1e-3)

    def test_zero_threshold(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        assert m.reservation_at_threshold(10.0, 0) == 0.0

    def test_rigid_cliff_below_capacity(self, geometric_load, rigid):
        # rigid flows still succeed when the threshold is *below*
        # capacity, but utility is left on the table
        m = VariableLoadModel(geometric_load, rigid)
        c = geometric_load.mean
        tight = m.reservation_at_threshold(c, int(c) // 2)
        assert 0.0 < tight < m.reservation(c)

    def test_rigid_threshold_above_capacity_hurts(self, geometric_load, rigid):
        # admitting more rigid flows than capacity serves reintroduces
        # the best-effort failure mode
        m = VariableLoadModel(geometric_load, rigid)
        c = geometric_load.mean
        over = m.reservation_at_threshold(c, int(2 * c))
        assert over < m.reservation(c)

    def test_invalid_threshold(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        with pytest.raises(ValueError):
            m.reservation_at_threshold(10.0, -1)


class TestCapacityPlanning:
    """Inverse queries: capacity for a target service level."""

    def test_best_effort_inverse(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        c = m.capacity_for_best_effort(0.7)
        assert m.best_effort(c) == pytest.approx(0.7, abs=1e-6)

    def test_reservation_inverse(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        c = m.capacity_for_reservation(0.7)
        assert m.reservation(c) == pytest.approx(0.7, abs=1e-6)

    def test_reservation_needs_less_capacity(self, any_load, adaptive):
        m = VariableLoadModel(any_load, adaptive)
        assert m.capacity_for_reservation(0.6) <= m.capacity_for_best_effort(0.6)

    def test_gap_consistency(self, geometric_load, adaptive):
        # capacity_for_best_effort(R(C)) - C is exactly the bandwidth gap
        m = VariableLoadModel(geometric_load, adaptive)
        c = geometric_load.mean
        target = m.reservation(c)
        assert m.capacity_for_best_effort(target) - c == pytest.approx(
            m.bandwidth_gap(c), abs=1e-6
        )

    def test_invalid_target(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                m.capacity_for_best_effort(bad)
