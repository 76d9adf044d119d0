"""Tests for JSON result serialization."""

import json
from dataclasses import fields

import pytest

from repro.analysis.serialization import (
    FORMAT_VERSION,
    config_from_dict,
    config_to_dict,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.core.config import TycosConfig
from repro.core.results import WindowResult
from repro.core.tycos import SearchStats, TycosResult
from repro.core.window import TimeDelayWindow


def _sample_result():
    return TycosResult(
        windows=[
            WindowResult(window=TimeDelayWindow(10, 40, delay=5), mi=1.2, nmi=0.8),
            WindowResult(window=TimeDelayWindow(100, 160, delay=-3), mi=0.7, nmi=0.55),
        ],
        stats=SearchStats(
            windows_evaluated=1234,
            restarts=7,
            noise_prunes=12,
            runtime_seconds=3.25,
        ),
    )


class TestResultRoundTrip:
    def test_dict_round_trip(self):
        original = _sample_result()
        restored = result_from_dict(result_to_dict(original))
        assert [r.window for r in restored.windows] == [r.window for r in original.windows]
        assert [r.mi for r in restored.windows] == [r.mi for r in original.windows]
        assert restored.stats.windows_evaluated == 1234
        assert restored.stats.runtime_seconds == pytest.approx(3.25)

    def test_file_round_trip(self, tmp_path):
        original = _sample_result()
        path = tmp_path / "result.json"
        save_result(original, path, config=TycosConfig(sigma=0.4))
        restored = load_result(path)
        assert len(restored.windows) == 2
        payload = json.loads(path.read_text())
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["config"]["sigma"] == 0.4

    def test_json_is_plain_types(self):
        payload = result_to_dict(_sample_result())
        json.dumps(payload)  # must not raise

    def test_version_mismatch_rejected(self):
        payload = result_to_dict(_sample_result())
        payload["format_version"] = 999
        with pytest.raises(ValueError, match="format_version"):
            result_from_dict(payload)

    def test_empty_result(self):
        restored = result_from_dict(result_to_dict(TycosResult()))
        assert restored.windows == []


class TestConfigRoundTrip:
    def test_round_trip_preserves_fields(self):
        config = TycosConfig(
            sigma=0.35, epsilon_ratio=0.3, s_min=24, s_max=300, td_max=17, delta=2,
            history_length=7, max_idle=4, k=5, use_normalized=False, jitter=1e-4,
            seed=11, significance_permutations=9, cache_capacity=500, segment_margin=3,
            refine_margin=40, coarse_sigma_ratio=0.85, init_delay_step=3,
        )
        payload = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(payload) == config
        # Every field above differs from its default, so none can be dropped.
        default = TycosConfig()
        assert all(
            getattr(config, f.name) != getattr(default, f.name) for f in fields(TycosConfig)
        )

    def test_unknown_fields_rejected(self):
        payload = config_to_dict(TycosConfig())
        payload["fancy_mode"] = True
        with pytest.raises(ValueError, match="unknown config fields"):
            config_from_dict(payload)

    def test_end_to_end_with_real_search(self, tmp_path, rng):
        x = rng.uniform(0, 1, 200)
        y = x + 0.01 * rng.normal(size=200)
        config = TycosConfig(sigma=0.4, s_min=20, s_max=100, td_max=2, seed=0)
        from repro.core.tycos import tycos_lmn

        result = tycos_lmn(config).search(x, y)
        path = tmp_path / "search.json"
        save_result(result, path, config=config)
        restored = load_result(path)
        assert [r.window for r in restored.windows] == [r.window for r in result.windows]