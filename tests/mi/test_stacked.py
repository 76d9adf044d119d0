"""Bit-exactness gate of the stacked KSG / binned-entropy kernels.

``repro.mi.stacked`` scores W windows in one pass, padded to the largest
size; every row must equal the per-window reference -- ``KSGEstimator.mi``
on the brute-force backend and ``binned_joint_entropy`` on its real
samples -- to the last bit, so the comparisons below are on
``float.hex()`` strings, not tolerances.
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
    gather_rows,
    ksg_mi_many,
    marginal_counts_many,
)

# Padded rows invite inf - inf and 0 / 0; none may happen.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
#: Each bit-exactness configuration runs on two random inputs, drawn with
#: seeds that differ by the ``draw`` parameter.
DRAWS = [1, 2]


def _hex(values):
    return [float(v).hex() for v in values]


def _reference(xs, ys, k):
    estimator = KSGEstimator(k=k, backend="bruteforce")
    mis = [estimator.mi(x, y) for x, y in zip(xs, ys)]
    entropies = [binned_joint_entropy(x, y) for x, y in zip(xs, ys)]
    return _hex(mis), _hex(entropies)


def _rows_over_budget(m):
    """A window count whose distance rows span several point blocks."""
    return max(4, CHUNK_ELEMENTS // (m * m) + 2)


class TestStackedEqualsPerWindow:
    @pytest.mark.parametrize("m", [7, 8, 9, 20, 21, 45, 46, 127, 128, 129, 200])
    @pytest.mark.parametrize("rows", sorted(ROWS))
    @pytest.mark.parametrize("draw", DRAWS)
    def test_rows_match_reference_bits(self, m, rows, draw):
        rng = np.random.default_rng(m * 10 + draw)
        xs, ys = ROWS[rows](rng, _rows_over_budget(m) if m >= 127 else 6, m)
        k = min(4, m - 1)
        expected_mi, expected_h = _reference(xs, ys, k)
        xy = np.stack((xs, ys))
        assert _hex(ksg_mi_many(xy, k)) == expected_mi
        assert _hex(binned_joint_entropy_many(xy)) == expected_h

    @pytest.mark.parametrize("m", [2, 3, 5, 6])
    @pytest.mark.parametrize("extra", [0, 3])
    @pytest.mark.parametrize("draw", DRAWS)
    def test_k_at_least_m_minus_one(self, m, extra, draw):
        # KSGEstimator clamps k to m - 1; the stacked path must agree.
        rng = np.random.default_rng(m * 10 + draw)
        xs, ys = _tied_rows(rng, 5, m)
        estimator = KSGEstimator(k=m - 1 + extra)
        expected = _hex(estimator.mi(x, y) for x, y in zip(xs, ys))
        assert _hex(estimator.mi_many(xs, ys)) == expected
        assert _hex(ksg_mi_many(np.stack((xs, ys)), m - 1)) == expected

    # Point blocks of 4, then of 1, across the 11 windows: the
    # concatenated blocks equal one pass.
    @pytest.mark.parametrize("budget", [3 * 18 * 18, 5 * 18])
    def test_rows_span_the_chunk_budget(self, monkeypatch, budget):
        rng = np.random.default_rng(7)
        xs, ys = _tied_rows(rng, 11, 18)
        expected_mi, expected_h = _reference(xs, ys, 4)
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


def _padded(rows):
    """``(2, W, M)`` rows of ``(x, y)`` samples of mixed sizes, sorted by
    size and padded as ``gather_rows`` pads them (repeating the first
    sample), plus the sizes."""
    rows = sorted(rows, key=lambda xy: len(xy[0]))
    sizes = np.array([len(x) for x, _ in rows])
    xy = np.empty((2, len(rows), sizes.max()))
    for i, (x, y) in enumerate(rows):
        xy[0, i], xy[1, i] = x[0], y[0]
        xy[0, i, : x.size], xy[1, i, : y.size] = x, y
    return xy, sizes


def _mixed_rows(kind, sizes, seed):
    """Rows of ``kind`` for each size in ``sizes`` (three windows per size)."""
    rng = np.random.default_rng(seed)
    rows = []
    for m in sizes:
        xs, ys = ROWS[kind](rng, 3, m)
        rows.extend(zip(xs, ys))
    return rows


class TestMixedSizes:
    """One padded batch of windows of several sizes equals each window alone."""

    SIZES = {
        # Both sides of the m = 32 marginal-count switch.
        "around_32": [7, 8, 20, 31, 32, 33, 45, 60],
        # m <= k + 1: each size clamps k to m - 1.
        "tiny": [2, 3, 4, 5, 6, 9],
        # Rows long enough to span several point blocks.
        "long": [100, 127, 128, 129, 200],
    }

    @pytest.mark.parametrize("sizes", sorted(SIZES))
    @pytest.mark.parametrize("rows", sorted(ROWS))
    @pytest.mark.parametrize("draw", DRAWS)
    def test_rows_match_reference_bits(self, sizes, rows, draw):
        pairs = _mixed_rows(rows, self.SIZES[sizes], len(sizes) + draw)
        xy, lengths = _padded(pairs)
        estimator = KSGEstimator(k=4, backend="bruteforce")
        pairs = [(x, y) for x, y in sorted(pairs, key=lambda xy: len(xy[0]))]
        expected_mi = _hex(estimator.mi(x, y) for x, y in pairs)
        expected_h = _hex(binned_joint_entropy(x, y) for x, y in pairs)
        assert _hex(ksg_mi_many(xy, 4, lengths)) == expected_mi
        assert _hex(binned_joint_entropy_many(xy, lengths)) == expected_h

    # Blocks of 1-3 points across 11 windows of 5 sizes: a block holds
    # some windows' last points, other windows' pads, and skips windows
    # it lies past.
    @pytest.mark.parametrize("budget", [11 * 21, 3 * 11 * 21, 7])
    def test_blocks_cross_window_ends(self, monkeypatch, budget):
        pairs = _mixed_rows("tied", [5, 9, 12, 18, 21], 17)[:11]
        xy, lengths = _padded(pairs)
        pairs = sorted(pairs, key=lambda xy: len(xy[0]))
        expected = _hex(KSGEstimator(k=4).mi(x, y) for x, y in pairs)
        monkeypatch.setattr(stacked, "CHUNK_ELEMENTS", budget)
        assert _hex(ksg_mi_many(xy, 4, lengths)) == expected

    def test_rows_wider_than_every_window(self, monkeypatch):
        # Pads past the largest size are ignored too, in one block or many.
        pairs = _mixed_rows("continuous", [5, 9], 3)
        xy, lengths = _padded(pairs)
        wide = np.concatenate((xy, np.repeat(xy[:, :, :1], 4, axis=2)), axis=2)
        expected = _hex(ksg_mi_many(xy, 4, lengths))
        assert _hex(ksg_mi_many(wide, 4, lengths)) == expected
        monkeypatch.setattr(stacked, "CHUNK_ELEMENTS", 6)
        assert _hex(ksg_mi_many(wide, 4, lengths)) == expected
        assert _hex(binned_joint_entropy_many(wide, lengths)) == _hex(
            binned_joint_entropy_many(xy, lengths)
        )

    def test_equal_sizes_match_unpadded_call(self):
        rng = np.random.default_rng(2)
        xs, ys = _tied_rows(rng, 6, 24)
        xy = np.stack((xs, ys))
        sizes = np.full(6, 24)
        assert _hex(ksg_mi_many(xy, 4, sizes)) == _hex(ksg_mi_many(xy, 4))
        assert _hex(binned_joint_entropy_many(xy, sizes)) == _hex(binned_joint_entropy_many(xy))

    def test_gather_rows_pads_with_the_first_sample(self):
        x = np.arange(30.0)
        y = 100.0 + np.arange(30.0)
        rows = gather_rows(x, y, np.array([4, 10]), np.array([2, -3]), np.array([3, 5]))
        assert rows.tolist() == [
            [[4, 5, 6, 4, 4], [10, 11, 12, 13, 14]],
            [[106, 107, 108, 106, 106], [107, 108, 109, 110, 111]],
        ]

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ([5, 4], "non-decreasing"),
            ([4, 6], "exceeds"),
            ([4], "one size per row"),
            ([1, 5], "at least 2"),
        ],
    )
    def test_rejects_bad_sizes(self, sizes, message):
        xy = np.zeros((2, len(sizes) if message != "one size per row" else 2, 5))
        with pytest.raises(ValueError, match=message):
            ksg_mi_many(xy, 4, np.array(sizes))

    def test_empty_batch(self):
        empty = np.empty((2, 0, 0))
        assert ksg_mi_many(empty, 4, np.empty(0, dtype=np.int64)).shape == (0,)
        assert binned_joint_entropy_many(empty, np.empty(0, dtype=np.int64)).shape == (0,)


class TestMarginalCountsMany:
    # 32 and 33 straddle the switch from the all-pairs comparison to the
    # sorted search.
    @pytest.mark.parametrize("m", [5, 32, 33, 90])
    # The reference counts from scratch or from a presorted projection.
    @pytest.mark.parametrize("presorted", [False, True])
    @pytest.mark.parametrize("rows", sorted(ROWS))
    def test_counts_equal_marginal_counts(self, m, presorted, rows):
        rng = np.random.default_rng(11)
        values, _ = ROWS[rows](rng, 7, m)
        radii = np.abs(rng.normal(size=values.shape))
        radii[:, ::5] = 0.0  # zero-width strips
        radii[0] = 1.0  # integer radii on tied integer values
        values[1, ::2] = -0.0  # signed zeros compare equal to 0.0
        values[1, 1::2] = 0.0
        expected = np.array(
            [
                marginal_counts(v, r, np.sort(v) if presorted else None)
                for v, r in zip(values, radii)
            ]
        )
        assert np.array_equal(marginal_counts_many(values, radii), expected)


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
