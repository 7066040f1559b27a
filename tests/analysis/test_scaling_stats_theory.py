"""Unit tests for scaling fits, run statistics, and theory curves."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.scaling import fit_power_law
from repro.analysis.stats import RunStats, summarize_costs, wilson_interval
from repro.analysis.theory import (
    ksy_cost,
    spoof_exponent,
    thm1_cost,
    thm2_product,
    thm3_cost,
    thm3_latency,
    thm4_cost,
    thm5_exponent_curve,
)
from repro.constants import PHI_MINUS_1
from repro.errors import AnalysisError


class TestFitPowerLaw:
    def test_exact_power_law_recovered(self):
        x = np.array([10.0, 100.0, 1000.0, 10000.0])
        y = 3.0 * x**0.5
        fit = fit_power_law(x, y, n_bootstrap=0)
        assert fit.exponent == pytest.approx(0.5, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_negative_exponent(self):
        x = np.array([2.0, 4.0, 8.0, 16.0])
        fit = fit_power_law(x, 5.0 / x, n_bootstrap=0)
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)

    def test_noisy_fit_with_ci(self, rng):
        x = np.repeat([10.0, 100.0, 1000.0, 10000.0], 8)
        y = 2.0 * x**0.62 * np.exp(rng.normal(0, 0.05, size=len(x)))
        fit = fit_power_law(x, y, n_bootstrap=300, rng=1)
        assert 0.55 < fit.exponent < 0.7
        assert fit.ci_low < fit.exponent < fit.ci_high

    def test_predict(self):
        x = np.array([1.0, 2.0, 4.0])
        fit = fit_power_law(x, 2 * x, n_bootstrap=0)
        assert fit.predict(8.0) == pytest.approx(16.0)

    def test_rejects_bad_data(self):
        with pytest.raises(AnalysisError):
            fit_power_law(np.array([1.0]), np.array([1.0]))
        with pytest.raises(AnalysisError):
            fit_power_law(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(AnalysisError):
            fit_power_law(np.array([1.0, -2.0]), np.array([1.0, 2.0]))
        with pytest.raises(AnalysisError):
            fit_power_law(np.array([1.0, 2.0]), np.array([0.0, 2.0]))
        for bad in (np.nan, np.inf):
            with pytest.raises(AnalysisError, match="finite"):
                fit_power_law(np.array([1.0, 2.0, 4.0]), np.array([1.0, bad, 3.0]))
            with pytest.raises(AnalysisError, match="finite"):
                fit_power_law(np.array([1.0, bad, 4.0]), np.array([1.0, 2.0, 3.0]))


class TestRunStats:
    def test_summary_fields(self):
        stats = summarize_costs([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.mean == 3.0
        assert stats.median == 3.0
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0
        assert stats.n == 5

    def test_single_sample(self):
        stats = RunStats.from_samples(np.array([7.0]))
        assert stats.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            summarize_costs([])


class TestWilson:
    def test_centred(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high

    def test_extremes(self):
        low, high = wilson_interval(0, 20)
        assert low == 0.0 and high < 0.3
        low, high = wilson_interval(20, 20)
        assert low > 0.7 and high == 1.0

    def test_narrower_with_more_trials(self):
        l1, h1 = wilson_interval(8, 10)
        l2, h2 = wilson_interval(800, 1000)
        assert (h2 - l2) < (h1 - l1)

    def test_invalid(self):
        with pytest.raises(AnalysisError):
            wilson_interval(5, 0)
        with pytest.raises(AnalysisError):
            wilson_interval(11, 10)


class TestTheoryCurves:
    def test_thm1_shape(self):
        assert thm1_cost(0.0, 0.1) == pytest.approx(math.log(10))
        assert thm1_cost(100.0, 0.1) == pytest.approx(
            math.sqrt(100 * math.log(10)) + math.log(10)
        )

    def test_thm3_decreasing_in_n(self):
        assert thm3_cost(1e6, 100) < thm3_cost(1e6, 10)

    def test_thm3_latency(self):
        assert thm3_latency(0.0, 16) == pytest.approx(16 * 16)

    def test_ksy_exponent(self):
        big = float(ksy_cost(1e12))
        assert big == pytest.approx(1e12**PHI_MINUS_1 + 1, rel=1e-9)

    def test_thm2_product(self):
        assert float(thm2_product(100.0, epsilon=0.1)) == pytest.approx(90.0)

    def test_thm4(self):
        assert float(thm4_cost(400.0, 4)) == pytest.approx(10.0)

    def test_spoof_exponent_minimum(self):
        deltas, curve = thm5_exponent_curve(401)
        d_star = deltas[np.argmin(curve)]
        assert abs(d_star - PHI_MINUS_1) < 0.01
        assert curve.min() == pytest.approx(PHI_MINUS_1, abs=0.01)

    def test_domain_errors(self):
        with pytest.raises(AnalysisError):
            thm1_cost(10.0, 0.0)
        with pytest.raises(AnalysisError):
            thm3_cost(10.0, 0)
        with pytest.raises(AnalysisError):
            spoof_exponent(np.array([0.0]))
        with pytest.raises(AnalysisError):
            thm5_exponent_curve(2)
