"""Tests for the KSG mutual information estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mi.ksg import KSGEstimator, ksg_mi


class TestKsgAccuracy:
    def test_gaussian_ground_truth(self, rng):
        # I = -0.5 * ln(1 - rho^2) for a bivariate Gaussian.
        n = 4000
        rho = 0.8
        x = rng.normal(size=n)
        y = rho * x + np.sqrt(1 - rho**2) * rng.normal(size=n)
        truth = -0.5 * np.log(1 - rho**2)
        assert ksg_mi(x, y) == pytest.approx(truth, abs=0.06)

    def test_independent_near_zero(self, independent_pair):
        x, y = independent_pair
        assert abs(ksg_mi(x, y)) < 0.1

    def test_nonlinear_dependence_detected(self, rng):
        x = rng.uniform(-3, 3, size=800)
        y = np.sin(2 * x) + 0.05 * rng.normal(size=800)
        assert ksg_mi(x, y) > 0.5

    def test_non_functional_dependence_detected(self, rng):
        # The circle relation: one x maps to two ys; PCC sees nothing,
        # MI must not.
        x = rng.uniform(-1, 1, size=800)
        y = np.sign(rng.normal(size=800)) * np.sqrt(np.maximum(1 - x * x, 0))
        assert ksg_mi(x, y) > 0.3

    def test_invariance_under_monotone_transform(self, correlated_gaussian):
        x, y = correlated_gaussian
        base = ksg_mi(x, y)
        transformed = ksg_mi(np.exp(x / 3.0), y)
        assert transformed == pytest.approx(base, abs=0.12)

    def test_backends_agree(self, correlated_gaussian):
        x, y = correlated_gaussian
        assert ksg_mi(x, y, backend="bruteforce") == pytest.approx(
            ksg_mi(x, y, backend="grid"), abs=1e-10
        )


class TestKsgValidation:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be"):
            KSGEstimator(k=0)

    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            KSGEstimator(backend="quantum")

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            ksg_mi(np.arange(5.0), np.arange(6.0))

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="at least 2"):
            ksg_mi(np.array([1.0]), np.array([1.0]))

    def test_small_sample_uses_reduced_k(self):
        # 4 samples with default k=4: effective k shrinks to m-1 = 3.
        est = KSGEstimator(k=4)
        assert est.effective_k(4) == 3
        value = est.mi(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.1, 1.9, 3.2]))
        assert np.isfinite(value)


class TestKsgProperties:
    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_property_estimate_is_finite(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(8, 120))
        x = rng.normal(size=m)
        y = rng.normal(size=m)
        assert np.isfinite(ksg_mi(x, y))

    @given(st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=15, deadline=None)
    def test_property_mi_increases_with_correlation(self, rho):
        # On the same sample size, stronger linear coupling -> larger MI
        # (compared against the independent estimate of the same draw).
        rng = np.random.default_rng(int(rho * 1000) + 1)
        n = 500
        x = rng.normal(size=n)
        noise = rng.normal(size=n)
        y_dep = rho * x + np.sqrt(1 - rho**2) * noise
        dep = ksg_mi(x, y_dep)
        indep = ksg_mi(x, noise)
        if rho > 0.4:
            assert dep > indep

    def test_deterministic(self, correlated_gaussian):
        x, y = correlated_gaussian
        assert ksg_mi(x, y) == ksg_mi(x, y)
