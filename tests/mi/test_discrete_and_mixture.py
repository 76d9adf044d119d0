"""Tests for discrete MI and the Theorem-6.1 mixture machinery."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mi.discrete import discrete_entropy_from_joint, discrete_mi, empirical_joint
from repro.mi.mixture import mix_samples, mixture_joint, theorem61_gap


def _random_joint(rng, rows=3, cols=4):
    table = rng.uniform(0.1, 1.0, size=(rows, cols))
    return table / table.sum()


class TestDiscreteMi:
    def test_independent_joint_is_zero(self):
        joint = np.outer([0.3, 0.7], [0.2, 0.5, 0.3])
        assert discrete_mi(joint) == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_dependent(self):
        joint = np.diag([0.25, 0.25, 0.25, 0.25])
        assert discrete_mi(joint) == pytest.approx(np.log(4))

    def test_known_binary_value(self):
        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        expected = sum(
            joint[i, j] * np.log(joint[i, j] / (px[i] * py[j]))
            for i in range(2)
            for j in range(2)
        )
        assert discrete_mi(joint) == pytest.approx(expected)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            discrete_mi(np.array([[0.5, 0.2], [0.1, 0.1]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            discrete_mi(np.array([[1.2, -0.2], [0.0, 0.0]]))

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_property_mi_non_negative_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        joint = _random_joint(rng)
        mi = discrete_mi(joint)
        h = discrete_entropy_from_joint(joint)
        assert -1e-12 <= mi <= h + 1e-12


class TestEmpiricalJoint:
    def test_counts_correctly(self):
        x = np.array([0, 0, 1, 1])
        y = np.array(["a", "b", "a", "a"])
        joint = empirical_joint(x, y)
        np.testing.assert_allclose(joint, [[0.25, 0.25], [0.5, 0.0]])

    def test_sums_to_one(self, rng):
        x = rng.integers(0, 4, size=100)
        y = rng.integers(0, 3, size=100)
        assert empirical_joint(x, y).sum() == pytest.approx(1.0)

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError, match="paired"):
            empirical_joint(np.arange(3), np.arange(4))


class TestTheorem61:
    """Exact verification of the paper's noise theorem."""

    def test_exact_identity(self):
        # I(Z;W) = theta * eta * I(X;Y), Eq. (17).
        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        pu = np.array([0.5, 0.5])
        pv = np.array([0.3, 0.7])
        for theta, eta in [(1.0, 1.0), (0.7, 0.6), (0.5, 0.9), (0.0, 0.5)]:
            i_xy, i_zw = theorem61_gap(joint, pu, pv, theta, eta)
            assert i_zw == pytest.approx(theta * eta * i_xy, abs=1e-10)

    @given(
        st.integers(min_value=0, max_value=300),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    # Marginals near 1e-162 once made px * py underflow to 0 (MI = inf).
    @example(seed=0, theta=5.970925217786354e-162, eta=5.970925217786354e-162)
    def test_property_mixing_never_increases_mi(self, seed, theta, eta):
        rng = np.random.default_rng(seed)
        joint = _random_joint(rng)
        pu = rng.dirichlet(np.ones(3))
        pv = rng.dirichlet(np.ones(2))
        i_xy, i_zw = theorem61_gap(joint, pu, pv, theta, eta)
        assert i_zw <= i_xy + 1e-10

    def test_mixture_joint_normalized(self, rng):
        joint = _random_joint(rng)
        mixed = mixture_joint(joint, rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(4)), 0.3, 0.8)
        assert mixed.sum() == pytest.approx(1.0)
        assert np.all(mixed >= 0)

    def test_empirical_mixture_dilutes_mi(self, rng):
        # Sampled counterpart: mixing in independent labels lowers MI.
        n = 5000
        x = rng.integers(0, 3, size=n)
        y = x.copy()  # perfectly dependent
        u = rng.integers(0, 3, size=n)
        v = rng.integers(0, 3, size=n)
        z, _ = mix_samples(x, u, 0.5, rng)
        w, _ = mix_samples(y, v, 0.5, rng)
        full = discrete_mi(empirical_joint(x, y))
        mixed = discrete_mi(empirical_joint(z, w))
        assert mixed < full

    def test_mix_samples_extremes(self, rng):
        x = np.arange(100)
        u = -np.arange(100)
        z_all_x, chose = mix_samples(x, u, 1.0, rng)
        np.testing.assert_array_equal(z_all_x, x)
        assert chose.all()
        z_all_u, chose = mix_samples(x, u, 0.0, rng)
        np.testing.assert_array_equal(z_all_u, u)
        assert not chose.any()

    def test_mix_samples_rejects_bad_theta(self, rng):
        with pytest.raises(ValueError, match="theta"):
            mix_samples(np.arange(4), np.arange(4), 1.5, rng)
