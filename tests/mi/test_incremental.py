"""Tests for the Section-7 incremental KSG engine.

The central invariant: after ANY sequence of adds/removes, the engine's
estimate equals the batch estimator's on the same point set, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mi.incremental import SlidingKSG
from repro.mi.ksg import ksg_mi


def _batch(x, y, ids, k=4):
    xs = np.array([x[i] for i in sorted(ids)])
    ys = np.array([y[i] for i in sorted(ids)])
    return ksg_mi(xs, ys, k=k)


class TestSlidingBasics:
    def test_reset_matches_batch(self, correlated_gaussian):
        x, y = correlated_gaussian
        eng = SlidingKSG(k=4)
        eng.reset(x[:150], y[:150])
        assert eng.mi() == pytest.approx(ksg_mi(x[:150], y[:150]), abs=1e-12)

    def test_grow_matches_batch(self, correlated_gaussian):
        x, y = correlated_gaussian
        eng = SlidingKSG(k=4)
        eng.reset(x[:60], y[:60], ids=range(60))
        for i in range(60, 120):
            eng.add(i, x[i], y[i])
        assert eng.mi() == pytest.approx(ksg_mi(x[:120], y[:120]), abs=1e-12)

    def test_shrink_matches_batch(self, correlated_gaussian):
        x, y = correlated_gaussian
        eng = SlidingKSG(k=4)
        eng.reset(x[:120], y[:120], ids=range(120))
        for i in range(40):
            eng.remove(i)
        assert eng.mi() == pytest.approx(ksg_mi(x[40:120], y[40:120]), abs=1e-12)

    def test_slide_matches_batch(self, correlated_gaussian):
        x, y = correlated_gaussian
        eng = SlidingKSG(k=4)
        eng.reset(x[:100], y[:100], ids=range(100))
        for step in range(100, 200):
            eng.add(step, x[step], y[step])
            eng.remove(step - 100)
            expected = ksg_mi(x[step - 99 : step + 1], y[step - 99 : step + 1])
            assert eng.mi() == pytest.approx(expected, abs=1e-12)

    def test_len_and_contains(self, correlated_gaussian):
        x, y = correlated_gaussian
        eng = SlidingKSG()
        eng.reset(x[:30], y[:30], ids=range(30))
        assert len(eng) == 30
        assert 7 in eng
        eng.remove(7)
        assert 7 not in eng
        assert len(eng) == 29

    def test_neighbor_ids_are_current_points(self, correlated_gaussian):
        x, y = correlated_gaussian
        eng = SlidingKSG(k=3)
        eng.reset(x[:50], y[:50], ids=range(50))
        eng.remove(10)
        for pid in eng.ids:
            for nb in eng.neighbor_ids(pid):
                assert nb in eng
                assert nb != pid


class TestSlidingValidation:
    def test_add_duplicate_id_rejected(self, correlated_gaussian):
        x, y = correlated_gaussian
        eng = SlidingKSG()
        eng.reset(x[:20], y[:20], ids=range(20))
        with pytest.raises(KeyError, match="already present"):
            eng.add(5, 0.0, 0.0)

    def test_remove_missing_id_rejected(self):
        eng = SlidingKSG()
        eng.reset([0.0, 1.0], [0.0, 1.0], ids=[0, 1])
        with pytest.raises(KeyError, match="not present"):
            eng.remove(99)

    def test_duplicate_ids_rejected_in_reset(self):
        eng = SlidingKSG()
        with pytest.raises(ValueError, match="unique"):
            eng.reset([0.0, 1.0], [0.0, 1.0], ids=[3, 3])

    def test_mi_requires_enough_points(self):
        eng = SlidingKSG(k=4)
        eng.reset([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="at least"):
            eng.mi()

    def test_rebuild_after_dipping_below_k(self, correlated_gaussian):
        # Shrink below k+2, then grow back: the lazy rebuild must recover.
        x, y = correlated_gaussian
        eng = SlidingKSG(k=4)
        eng.reset(x[:10], y[:10], ids=range(10))
        for i in range(7):
            eng.remove(i)
        for i in range(20, 40):
            eng.add(i, x[i], y[i])
        ids = sorted(eng.ids)
        assert eng.mi() == pytest.approx(_batch(x, y, ids), abs=1e-12)


class TestSlidingProperty:
    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_property_random_op_sequences_match_batch(self, seed):
        rng = np.random.default_rng(seed)
        n = 250
        x = rng.normal(size=n)
        y = 0.5 * x + rng.normal(size=n)
        eng = SlidingKSG(k=3)
        live = list(range(30))
        eng.reset(x[:30], y[:30], ids=live)
        next_id = 30
        for _ in range(60):
            if live and rng.random() < 0.45 and len(live) > 6:
                victim = live.pop(int(rng.integers(len(live))))
                eng.remove(victim)
            elif next_id < n:
                eng.add(next_id, x[next_id], y[next_id])
                live.append(next_id)
                next_id += 1
        assert eng.mi() == pytest.approx(_batch(x, y, live, k=3), abs=1e-12)

    def test_incremental_updates_counted(self, correlated_gaussian):
        x, y = correlated_gaussian
        eng = SlidingKSG(k=4)
        eng.reset(x[:100], y[:100], ids=range(100))
        before = eng.full_searches
        for i in range(100, 130):
            eng.add(i, x[i], y[i])
        # Each add triggers exactly one full search (the new point's own),
        # plus Lemma-3 constant-time updates -- never a global recompute.
        assert eng.full_searches - before == 30
        assert eng.incremental_updates > 0
