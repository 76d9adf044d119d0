"""Tests for the ``segments=K`` plan: intra-pair search and its deterministic stitch.

The contract under test: for any fixed segment count the process-pool
path reproduces the sequential reference stitcher bit-exactly (same
windows, same MI/NMI floats, same order), and ``segments=1`` -- like a
split whose one span covers the whole series -- reproduces the classic
whole-series search exactly.
"""

import numpy as np
import pytest

from repro.analysis.planner import SearchPlan, execute_plan, parse_plan_spec
from repro.core.config import TycosConfig
from repro.core.segmentation import segment_spans
from repro.core.tycos import Tycos
from repro.core.window import TimeDelayWindow
from repro.experiments.similarity import detects


def _config(**kwargs):
    defaults = dict(
        sigma=0.3,
        s_min=8,
        s_max=60,
        td_max=10,
        jitter=1e-6,
        init_delay_step=1,
        significance_permutations=10,
        seed=3,
    )
    defaults.update(kwargs)
    return TycosConfig(**defaults)


def _coupled_pair(rng, n=900):
    """Noise with several delayed-copy episodes scattered along the pair."""
    x = rng.uniform(0, 1, n)
    y = rng.uniform(0, 1, n)
    for start, m, delay in ((60, 70, 4), (330, 90, -3), (640, 80, 6)):
        seg = rng.uniform(0, 1, m)
        x[start : start + m] = seg
        y[start + delay : start + delay + m] = seg + 0.01 * rng.normal(size=m)
    return x, y


def _signature(result):
    """Everything the byte-identical contract covers, in order."""
    return [(r.window.key(), r.mi, r.nmi) for r in result.windows]


def _run_segments(x, y, config=None, *, n_segments, **kwargs):
    return execute_plan(x, y, config, plan=SearchPlan(segments=n_segments), **kwargs)


class TestSingleSegmentEquivalence:
    def test_n_segments_1_matches_plain_search(self, rng):
        x, y = _coupled_pair(rng)
        cfg = _config()
        plain = Tycos(cfg).search(x, y)
        # segments=1 is the plain plan itself: no split, no stitch.
        seg = _run_segments(x, y, cfg, n_segments=1)
        assert _signature(seg) == _signature(plain)
        assert seg.stats.segments == 0
        # A split whose one span covers the whole series runs the
        # stitcher over that span and still reproduces the plain search.
        wide = cfg.scaled(segment_margin=x.size)
        one_span = _run_segments(x, y, wide, n_segments=4)
        assert _signature(one_span) == _signature(plain)
        assert one_span.stats.segments == 1
        assert one_span.stats.stitch_dedups == 0
        assert one_span.stats.stitch_rescores == 0


class TestSequentialParallelEquivalence:
    @pytest.mark.parametrize("n_segments", [2, 4, 7])
    def test_parallel_matches_sequential_reference(self, rng, n_segments):
        x, y = _coupled_pair(rng)
        cfg = _config()
        reference = _run_segments(x, y, cfg, n_segments=n_segments, n_jobs=1)
        parallel = _run_segments(
            x, y, cfg, n_segments=n_segments, n_jobs=2, force_parallel=True
        )
        assert _signature(parallel) == _signature(reference)
        assert parallel.stats.segments == reference.stats.segments
        assert parallel.stats.stitch_dedups == reference.stats.stitch_dedups
        assert parallel.stats.stitch_rescores == reference.stats.stitch_rescores

    def test_pickle_transport_matches_shared_memory(self, rng):
        x, y = _coupled_pair(rng)
        cfg = _config()
        shm = _run_segments(x, y, cfg, n_segments=2, n_jobs=2, force_parallel=True)
        pickled = _run_segments(
            x,
            y,
            cfg,
            n_segments=2,
            n_jobs=2,
            use_shared_memory=False,
            force_parallel=True,
        )
        assert _signature(pickled) == _signature(shm)

    def test_one_core_fallback_matches_reference_and_sets_flag(self, rng, monkeypatch):
        import repro.analysis.parallel as parallel_mod

        x, y = _coupled_pair(rng)
        cfg = _config()
        reference = _run_segments(x, y, cfg, n_segments=3, n_jobs=1)
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 1)
        fallback = _run_segments(x, y, cfg, n_segments=3, n_jobs=2)
        assert _signature(fallback) == _signature(reference)
        assert fallback.stats.serial_fallback is True
        assert reference.stats.serial_fallback is False


class TestBoundaryContainment:
    def test_window_straddling_segment_edge_is_found(self, rng):
        """A planted relation astride the seam proves the containment lemma.

        With n=800 and two segments the spans are (0, 453) and (348, 800)
        (overlap zone [348, 453)); the relation planted at x[370:441] /
        y[373:444] straddles the midpoint 400 and is whole only thanks to
        the overlap.
        """
        cfg = TycosConfig(
            sigma=0.5,
            s_min=20,
            s_max=80,
            td_max=5,
            jitter=1e-6,
            init_delay_step=1,
            significance_permutations=10,
            seed=0,
        )
        n = 800
        spans = segment_spans(n, 2, cfg.segment_overlap())
        assert spans == [(0, 453), (348, 800)]
        x = rng.uniform(0, 1, n)
        y = rng.uniform(0, 1, n)
        seg = rng.uniform(0, 1, 71)
        x[370:441] = seg
        y[373:444] = seg + 0.01 * rng.normal(size=71)
        result = _run_segments(x, y, cfg, n_segments=2)
        found = [r.window for r in result.windows]
        assert detects(found, TimeDelayWindow(370, 440, delay=3))


class TestStitchAccounting:
    def test_stats_track_segments_and_stitch_work(self, rng):
        x, y = _coupled_pair(rng)
        result = _run_segments(x, y, _config(), n_segments=4)
        assert result.stats.segments == 4
        assert result.stats.stitch_rescores >= result.stats.stitch_dedups >= 0
        assert result.stats.windows_evaluated > 0
        assert result.stats.restarts > 0

    def test_short_series_runs_fewer_segments(self, rng):
        cfg = _config()
        n = cfg.segment_overlap() - 5  # shorter than one overlap: single span
        x = rng.uniform(0, 1, n)
        y = rng.uniform(0, 1, n)
        result = _run_segments(x, y, cfg, n_segments=8)
        assert result.stats.segments == 1

    def test_rescored_windows_have_finite_scores(self, rng):
        x, y = _coupled_pair(rng)
        result = _run_segments(x, y, _config(), n_segments=4)
        for r in result.windows:
            assert np.isfinite(r.mi)
            assert np.isfinite(r.nmi)


class TestEntryPoints:
    def test_rejects_bad_segment_count(self):
        with pytest.raises(ValueError, match="segments"):
            SearchPlan(segments=0)
        with pytest.raises(ValueError, match="segments"):
            parse_plan_spec("segments=-2")

    def test_requires_config_or_engine(self, rng):
        x = rng.uniform(0, 1, 200)
        y = rng.uniform(0, 1, 200)
        with pytest.raises(ValueError, match="config or an engine"):
            _run_segments(x, y, n_segments=2)

    def test_engine_variant_flags_inherited(self, rng):
        """A non-default engine's flags survive segmentation untouched.

        The margin makes the one span cover the whole series, so the span
        engine must reproduce the engine's own search exactly.
        """
        x, y = _coupled_pair(rng)
        cfg = _config(segment_margin=x.size)
        engine = Tycos(cfg, use_noise=False, use_incremental=False)
        reference = engine.search(x, y)
        seg = execute_plan(x, y, engine=engine, plan=SearchPlan(segments=2))
        assert seg.stats.segments == 1
        assert _signature(seg) == _signature(reference)
