"""Bit-exactness gate of the stacked KSG / binned-entropy kernels.

``repro.mi.stacked`` scores W equal-size windows in one pass; every row
must equal the per-window reference -- ``KSGEstimator.mi`` on the
brute-force backend and ``binned_joint_entropy`` -- to the last bit, so
the comparisons below are on ``float.hex()`` strings, not tolerances.
"""

import numpy as np
import pytest

from repro.mi import stacked
from repro.mi.digamma import digamma_direct
from repro.mi.entropy import binned_joint_entropy, default_bins
from repro.mi.ksg import KSGEstimator
from repro.mi.neighbors import chebyshev_knn_bruteforce, marginal_counts
from repro.mi.stacked import (
    CHUNK_ELEMENTS,
    binned_joint_entropy_many,
    ksg_mi_many,
    marginal_counts_many,
)


def _tied_rows(rng, w, m):
    """Unjittered rank-like rows: few distinct values, so ties everywhere."""
    xs = rng.integers(0, max(2, m // 3), size=(w, m)).astype(float)
    ys = (xs + rng.integers(0, 3, size=(w, m))).astype(float)
    return xs, ys


def _continuous_rows(rng, w, m):
    xs = rng.normal(size=(w, m))
    return xs, xs + 0.5 * rng.normal(size=(w, m))


def _constant_rows(rng, w, m):
    xs = rng.normal(size=(w, m))
    ys = rng.normal(size=(w, m))
    xs[0] = 2.5  # a constant x row
    ys[1] = -1.0  # a constant y row
    xs[2] = ys[2] = 0.0  # both constant
    return xs, ys


ROWS = {"tied": _tied_rows, "continuous": _continuous_rows, "constant": _constant_rows}


def _hex(values):
    return [float(v).hex() for v in values]


def _reference(xs, ys, k, algorithm):
    estimator = KSGEstimator(k=k, algorithm=algorithm, backend="bruteforce")
    mis = [estimator.mi(x, y) for x, y in zip(xs, ys)]
    entropies = [binned_joint_entropy(x, y) for x, y in zip(xs, ys)]
    return _hex(mis), _hex(entropies)


def _rows_over_budget(m):
    """A window count whose distance rows span several point blocks."""
    return max(4, CHUNK_ELEMENTS // (m * m) + 2)


class TestStackedEqualsPerWindow:
    @pytest.mark.parametrize("m", [7, 8, 9, 20, 21, 45, 46, 127, 128, 129, 200])
    @pytest.mark.parametrize("rows", sorted(ROWS))
    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_rows_match_reference_bits(self, m, rows, algorithm):
        rng = np.random.default_rng(m * 10 + algorithm)
        xs, ys = ROWS[rows](rng, _rows_over_budget(m) if m >= 127 else 6, m)
        k = min(4, m - 1)
        expected_mi, expected_h = _reference(xs, ys, k, algorithm)
        xy = np.stack((xs, ys))
        assert _hex(ksg_mi_many(xy, k, algorithm)) == expected_mi
        assert _hex(binned_joint_entropy_many(xy)) == expected_h

    @pytest.mark.parametrize("m", [2, 3, 5, 6])
    @pytest.mark.parametrize("extra", [0, 3])
    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_k_at_least_m_minus_one(self, m, extra, algorithm):
        # KSGEstimator clamps k to m - 1; the stacked path must agree.
        rng = np.random.default_rng(m)
        xs, ys = _tied_rows(rng, 5, m)
        estimator = KSGEstimator(k=m - 1 + extra, algorithm=algorithm)
        expected = _hex(estimator.mi(x, y) for x, y in zip(xs, ys))
        assert _hex(estimator.mi_many(xs, ys)) == expected
        assert _hex(ksg_mi_many(np.stack((xs, ys)), m - 1, algorithm)) == expected

    # Point blocks of 4, then of 1, across the 11 windows: the
    # concatenated blocks equal one pass.
    @pytest.mark.parametrize("budget", [3 * 18 * 18, 5 * 18])
    def test_rows_span_the_chunk_budget(self, monkeypatch, budget):
        rng = np.random.default_rng(7)
        xs, ys = _tied_rows(rng, 11, 18)
        expected_mi, expected_h = _reference(xs, ys, 4, 2)
        monkeypatch.setattr(stacked, "CHUNK_ELEMENTS", budget)
        xy = np.stack((xs, ys))
        assert _hex(ksg_mi_many(xy, 4)) == expected_mi
        assert _hex(binned_joint_entropy_many(xy)) == expected_h

    def test_bin_counts_step_where_expected(self):
        # The sizes above straddle default_bins steps (2 -> 3, 3 -> 4).
        assert (default_bins(20), default_bins(21)) == (2, 3)
        assert (default_bins(45), default_bins(46)) == (3, 4)

    def test_digamma_table_off_is_identical(self):
        """Gathering from the shared table equals finishing each window
        from direct scipy digamma evaluations."""
        rng = np.random.default_rng(3)
        estimator = KSGEstimator(k=4, backend="bruteforce")
        for m in (24, 60):  # both marginal-count constructions
            xs, ys = _tied_rows(rng, 9, m)
            direct = np.asarray(digamma_direct(np.arange(1, m + 1)), dtype=np.float64)
            off = [
                estimator.mi_from_geometry(
                    x, y, chebyshev_knn_bruteforce(x, y, 4), 4, digamma_table=direct
                )
                for x, y in zip(xs, ys)
            ]
            assert _hex(ksg_mi_many(np.stack((xs, ys)), 4)) == _hex(off)


class TestMarginalCountsMany:
    # 32 and 33 straddle the switch from the all-pairs comparison to the
    # sorted search.
    @pytest.mark.parametrize("m", [5, 32, 33, 90])
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("rows", sorted(ROWS))
    def test_counts_equal_marginal_counts(self, m, strict, rows):
        rng = np.random.default_rng(11)
        values, _ = ROWS[rows](rng, 7, m)
        radii = np.abs(rng.normal(size=values.shape))
        radii[:, ::5] = 0.0  # zero-width strips
        radii[0] = 1.0  # integer radii on tied integer values
        values[1, ::2] = -0.0  # signed zeros compare equal to 0.0
        values[1, 1::2] = 0.0
        expected = np.array([marginal_counts(v, r, strict) for v, r in zip(values, radii)])
        assert np.array_equal(marginal_counts_many(values, radii, strict), expected)


class TestEstimatorMiMany:
    def test_other_backends_loop_over_mi(self):
        rng = np.random.default_rng(5)
        xs, ys = _continuous_rows(rng, 4, 40)
        estimator = KSGEstimator(k=4, backend="kdtree")
        expected = _hex(estimator.mi(x, y) for x, y in zip(xs, ys))
        assert _hex(estimator.mi_many(xs, ys)) == expected

    def test_empty_batch(self):
        out = KSGEstimator().mi_many(np.empty((0, 12)), np.empty((0, 12)))
        assert out.shape == (0,)

    @pytest.mark.parametrize(
        "xs, ys, message",
        [
            (np.zeros((3, 10)), np.zeros((3, 11)), "equal"),
            (np.zeros(10), np.zeros(10), "equal"),
            (np.zeros((3, 1)), np.zeros((3, 1)), "at least 2"),
            (np.full((2, 10), np.nan), np.zeros((2, 10)), "finite"),
        ],
    )
    def test_rejects_bad_rows(self, xs, ys, message):
        with pytest.raises(ValueError, match=message):
            KSGEstimator().mi_many(xs, ys)
