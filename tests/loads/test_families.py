"""Family-specific tests for the three discrete load distributions."""

import math

import numpy as np
import pytest

from repro.errors import CalibrationError
from repro.loads import AlgebraicLoad, GeometricLoad, PoissonLoad, standard_loads


class TestPoissonLoad:
    def test_pmf_formula(self):
        load = PoissonLoad(4.0)
        assert load.pmf(2) == pytest.approx(math.exp(-4.0) * 16.0 / 2.0)

    def test_mean_tail_identity(self):
        # sum_{k>=n} k P(k) = nu P(K >= n-1)
        load = PoissonLoad(9.0)
        for n in (1, 5, 9, 20):
            brute = sum(k * load.pmf(k) for k in range(n, 200))
            assert load.mean_tail(n) == pytest.approx(brute, rel=1e-10)

    def test_deep_tail_precision(self):
        # the Poisson case's headline claim needs sf accurate at 1e-15+
        load = PoissonLoad(100.0)
        assert 0.0 < load.sf(200) < 1e-15

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            PoissonLoad(0.0)


class TestPoissonScipyParity:
    """PoissonLoad reproduces scipy.stats.poisson bit for bit."""

    @staticmethod
    def _grids(nu):
        hi = int(10 * nu)
        return [
            np.arange(-3, hi + 1),
            np.arange(-3, hi + 1, dtype=float),
            np.linspace(-3.0, 10 * nu, 1001),  # mostly non-integral
            np.array([np.nan, np.inf, -np.inf, -0.5, 0.5, 2.0]),
            np.array(3),
        ]

    @pytest.mark.parametrize("nu", [0.5, 50.0, 1e4])
    def test_arrays_match(self, nu):
        from scipy import stats

        load, ref = PoissonLoad(nu), stats.poisson(nu)
        for ks in self._grids(nu):
            with np.errstate(invalid="ignore"):  # pmf(inf) is inf - inf
                got_pmf, want_pmf = load.pmf_array(ks), ref.pmf(ks)
            assert type(got_pmf) is type(want_pmf)
            np.testing.assert_array_equal(got_pmf, want_pmf)
            np.testing.assert_array_equal(
                load.sf_array(ks), np.asarray(ref.sf(ks), dtype=float)
            )

    @pytest.mark.parametrize("nu", [0.5, 50.0, 1e4])
    def test_scalars_match(self, nu):
        from scipy import stats

        load, ref = PoissonLoad(nu), stats.poisson(nu)
        for k in range(0, int(10 * nu) + 1, max(1, int(nu) // 20)):
            assert load.pmf(k) == float(ref.pmf(k))
            assert load.sf(k) == float(ref.sf(k))
        for n in range(-3, int(10 * nu) + 1, max(1, int(nu) // 20)):
            want = nu if n <= 0 else nu * float(ref.sf(n - 2))
            assert load.mean_tail(n) == want


class TestGeometricLoad:
    def test_paper_mean_formula(self):
        # the paper: k_bar = (e^beta - 1)^-1
        load = GeometricLoad(0.25)
        assert load.mean == pytest.approx(1.0 / (math.exp(0.25) - 1.0))

    def test_pmf_formula(self):
        load = GeometricLoad(0.5)
        q = math.exp(-0.5)
        assert load.pmf(3) == pytest.approx((1.0 - q) * q**3)

    def test_sf_closed_form(self):
        load = GeometricLoad(0.5)
        assert load.sf(4) == pytest.approx(math.exp(-0.5 * 5))

    def test_mean_tail_identity(self):
        load = GeometricLoad.from_mean(8.0)
        for n in (0, 1, 4, 16):
            brute = sum(k * load.pmf(k) for k in range(n, 2000))
            assert load.mean_tail(n) == pytest.approx(brute, rel=1e-10)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GeometricLoad(0.0)
        with pytest.raises(ValueError):
            GeometricLoad.from_mean(-2.0)


class TestAlgebraicLoad:
    def test_tail_power_law(self):
        load = AlgebraicLoad(3.0, 5.0)
        # pmf(k)/pmf(2k) -> 2^z for large k
        ratio = load.pmf(4000) / load.pmf(8000)
        assert ratio == pytest.approx(2.0**3, rel=0.01)

    def test_requires_z_above_two(self):
        with pytest.raises(ValueError):
            AlgebraicLoad(2.0, 1.0)
        with pytest.raises(ValueError):
            AlgebraicLoad(1.5, 1.0)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            AlgebraicLoad(3.0, -0.5)

    def test_mean_below_floor_uncalibratable(self):
        # at lam = 0 the mean has a positive floor; below it must raise
        with pytest.raises(CalibrationError):
            AlgebraicLoad.from_mean(3.0, 0.5)

    def test_support_starts_at_one(self):
        load = AlgebraicLoad(3.0, 2.0)
        assert load.pmf(0) == 0.0
        assert load.pmf(1) > 0.0
        assert load.support_min == 1

    def test_sf_closed_form_vs_brute(self):
        load = AlgebraicLoad.from_mean(3.0, 10.0)
        for k in (1, 5, 20):
            brute = sum(load.pmf(j) for j in range(k + 1, 400_000))
            assert load.sf(k) == pytest.approx(brute, rel=1e-3)

    def test_mean_tail_closed_form_vs_brute(self):
        load = AlgebraicLoad.from_mean(4.0, 10.0)  # faster tail for brute sum
        for n in (2, 10, 30):
            brute = sum(k * load.pmf(k) for k in range(n, 400_000))
            assert load.mean_tail(n) == pytest.approx(brute, rel=1e-4)

    def test_heavier_tail_than_geometric_at_same_mean(self):
        alg = AlgebraicLoad.from_mean(3.0, 20.0)
        geo = GeometricLoad.from_mean(20.0)
        assert alg.sf(200) > geo.sf(200)


class TestStandardLoads:
    def test_all_three_families_at_kbar(self):
        loads = standard_loads(kbar=50.0)
        assert set(loads) == {"poisson", "exponential", "algebraic"}
        for load in loads.values():
            assert load.mean == pytest.approx(50.0, rel=1e-6)

    def test_z_parameter_passed_through(self):
        loads = standard_loads(kbar=50.0, z=2.5)
        assert loads["algebraic"].z == 2.5
