"""Tests for model selection, goodness-of-fit, and tail estimation."""

import numpy as np
import pytest

from repro.inference import chi_square_gof, fit_all, hill_estimate
from repro.loads import AlgebraicLoad, GeometricLoad, PoissonLoad


class TestFitAll:
    @pytest.mark.parametrize(
        "true,expected",
        [
            (PoissonLoad(30.0), "poisson"),
            (GeometricLoad.from_mean(30.0), "exponential"),
            (AlgebraicLoad.from_mean(3.0, 30.0), "algebraic"),
        ],
        ids=["poisson", "geometric", "algebraic"],
    )
    def test_identifies_true_family(self, true, expected):
        samples = true.sample(np.random.default_rng(11), 8_000)
        assert fit_all(samples).best_name == expected

    def test_ranking_sorted_by_aic(self):
        samples = PoissonLoad(20.0).sample(np.random.default_rng(12), 3_000)
        sel = fit_all(samples)
        aics = [sel.fits[name].aic for name in sel.ranking()]
        assert aics == sorted(aics)

    def test_zeros_exclude_algebraic(self):
        samples = GeometricLoad.from_mean(5.0).sample(np.random.default_rng(13), 3_000)
        assert samples.min() == 0
        sel = fit_all(samples)
        assert "algebraic" not in sel.fits


class TestChiSquareGof:
    def test_accepts_true_model(self):
        true = PoissonLoad(15.0)
        samples = true.sample(np.random.default_rng(14), 5_000)
        _, p = chi_square_gof(true, samples)
        assert p > 0.01

    def test_rejects_wrong_model(self):
        samples = AlgebraicLoad.from_mean(3.0, 15.0).sample(
            np.random.default_rng(15), 5_000
        )
        _, p = chi_square_gof(PoissonLoad(15.0), samples)
        assert p < 1e-6

    def test_pooling_handles_sparse_tail(self):
        samples = GeometricLoad.from_mean(40.0).sample(
            np.random.default_rng(16), 2_000
        )
        stat, p = chi_square_gof(GeometricLoad.from_mean(40.0), samples)
        assert np.isfinite(stat) and 0.0 <= p <= 1.0


    @pytest.mark.parametrize(
        "load",
        [PoissonLoad(15.0), GeometricLoad.from_mean(40.0), PoissonLoad(4.0)],
        ids=["poisson", "geometric", "poisson-small"],
    )
    def test_p_value_matches_scipy_chi2(self, load):
        from scipy import stats

        for seed in range(5):
            samples = load.sample(np.random.default_rng(seed), 1_500)
            stat, p = chi_square_gof(load, samples)
            dof = _pooled_bins(load, samples) - 1
            assert p == float(stats.chi2.sf(stat, dof))


def _pooled_bins(load, samples, min_expected=5.0):
    """Bins chi_square_gof pools ``samples`` into (its dof + 1)."""
    hi = int(np.max(samples))
    expected = len(samples) * np.asarray(
        load.pmf_array(np.arange(hi + 1, dtype=float)), dtype=float
    )
    expected[hi] += len(samples) * load.sf(hi)
    bins, acc = 0, 0.0
    for e in expected:
        acc += e
        if acc >= min_expected:
            bins, acc = bins + 1, 0.0
    return bins


class TestHillEstimate:
    def test_pure_pareto_recovery(self):
        # continuous Pareto with survival power alpha = 2 -> z = 3
        rng = np.random.default_rng(17)
        draws = np.ceil((1.0 - rng.random(50_000)) ** (-1.0 / 2.0)).astype(int)
        est = hill_estimate(draws, fraction=0.05)
        assert est.z_hat == pytest.approx(3.0, abs=0.35)
        assert est.heavy_tailed

    def test_light_tail_reads_heavy_z(self):
        samples = PoissonLoad(30.0).sample(np.random.default_rng(18), 20_000)
        est = hill_estimate(samples)
        assert est.z_hat > 6.0
        assert not est.heavy_tailed

    def test_shifted_algebraic_flagged_heavy(self):
        samples = AlgebraicLoad.from_mean(3.0, 30.0).sample(
            np.random.default_rng(19), 50_000
        )
        est = hill_estimate(samples, fraction=0.02)
        assert est.heavy_tailed
        # the shift biases Hill low; it must still land near the truth
        assert 2.0 < est.z_hat < 3.6

    def test_degenerate_top_values(self):
        est = hill_estimate([5] * 50 + [1] * 50, fraction=0.2)
        assert est.z_hat == np.inf

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hill_estimate([1, 2, 3])
        with pytest.raises(ValueError):
            hill_estimate(np.arange(100), fraction=1.5)


class TestNearCriticalTail:
    """z near 2: the regime where the architecture question is sharpest."""

    def test_mle_recovers_z_near_two(self):
        true = AlgebraicLoad.from_mean(2.2, 30.0)
        samples = true.sample(np.random.default_rng(31), 30_000)
        from repro.inference import fit_algebraic

        fit = fit_algebraic(samples)
        assert fit.load.z == pytest.approx(2.2, abs=0.1)

    def test_hill_tracks_near_critical_tail(self):
        true = AlgebraicLoad.from_mean(2.2, 30.0)
        samples = true.sample(np.random.default_rng(31), 30_000)
        est = hill_estimate(samples, fraction=0.02)
        assert est.z_hat == pytest.approx(2.2, abs=0.3)
        assert est.heavy_tailed
