"""Tests for the pairwise dataset scanner."""

import numpy as np
import pytest

from repro.analysis.cascade import coarse_nmi_score
from repro.analysis.pairwise import scan_pairs
from repro.core.config import TycosConfig


@pytest.fixture
def sensor_collection(rng):
    """Four 'sensors': a/b coupled at lag 5, c/d independent noise."""
    n = 400
    seg = rng.uniform(0, 1, 120)
    a = rng.uniform(0, 1, n)
    b = rng.uniform(0, 1, n)
    a[100:220] = seg
    b[105:225] = seg + 0.01 * rng.normal(size=120)
    return {
        "a": a,
        "b": b,
        "c": rng.uniform(0, 1, n),
        "d": rng.uniform(0, 1, n),
    }


def _config(**kwargs):
    defaults = dict(
        sigma=0.45,
        s_min=20,
        s_max=160,
        td_max=8,
        init_delay_step=1,
        significance_permutations=15,
        seed=0,
    )
    defaults.update(kwargs)
    return TycosConfig(**defaults)


class TestScanPairs:
    def test_finds_the_coupled_pair(self, sensor_collection):
        report = scan_pairs(sensor_collection, _config())
        hits = report.correlated()
        assert hits
        top = hits[0]
        assert {top.source, top.target} == {"a", "b"}
        assert top.delay_range is not None

    def test_all_combinations_scanned(self, sensor_collection):
        report = scan_pairs(sensor_collection, _config())
        assert len(report.findings) == 6  # C(4, 2)

    def test_explicit_pairs(self, sensor_collection):
        report = scan_pairs(sensor_collection, _config(), pairs=[("a", "b"), ("c", "d")])
        assert len(report.findings) == 2
        assert report.finding("a", "b").windows > 0
        assert report.finding("c", "d").windows == 0

    def test_unknown_pair_name(self, sensor_collection):
        with pytest.raises(KeyError, match="unknown series"):
            scan_pairs(sensor_collection, _config(), pairs=[("a", "zz")])

    def test_mismatched_lengths_rejected(self, rng):
        series = {"a": rng.normal(size=100), "b": rng.normal(size=99)}
        with pytest.raises(ValueError, match="share a length"):
            scan_pairs(series, _config())

    def test_report_rendering(self, sensor_collection):
        report = scan_pairs(sensor_collection, _config(), pairs=[("a", "b")])
        text = report.to_text()
        assert "a -> b" in text

    def test_missing_finding_raises(self, sensor_collection):
        report = scan_pairs(sensor_collection, _config(), pairs=[("a", "b")])
        with pytest.raises(KeyError, match="not scanned"):
            report.finding("c", "d")


class TestPrefilter:
    """The coarse-NMI score the cascade pre-filters pairs with."""

    def test_related_scores_higher(self, rng):
        x = rng.uniform(0, 1, 400)
        related = x + 0.05 * rng.normal(size=400)
        unrelated = rng.uniform(0, 1, 400)
        assert coarse_nmi_score(x, related) > coarse_nmi_score(x, unrelated)

    def test_lagged_coupling_needs_delay_probes(self, rng):
        x = rng.uniform(0, 1, 400)
        y = np.empty(400)
        y[6:] = x[:-6]
        y[:6] = rng.uniform(0, 1, 6)
        assert coarse_nmi_score(x, y, td_max=0) < 0.2
        assert coarse_nmi_score(x, y, td_max=8) > 0.5

    def test_short_series_handled(self, rng):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        assert coarse_nmi_score(x, y, probe=128) >= 0.0

    def test_tiny_series_scores_zero(self, rng):
        assert coarse_nmi_score(rng.normal(size=4), rng.normal(size=4)) == 0.0

    @pytest.mark.parametrize("n", [120, 137, 140, 145])
    def test_too_short_for_every_delay_abstains(self, rng, n):
        # A probe at every delay needs probe + 2 * td_max = 148 samples.
        # Shorter series get no aligned-only score (blind to the lag) and
        # no crash: the screen abstains with inf, so the pair is searched.
        x = rng.normal(size=n)
        y = np.concatenate([rng.normal(size=8), x[:-8]])
        assert coarse_nmi_score(x, y, probe=128, td_max=10) == float("inf")

    def test_exact_fit_probes_every_delay(self, rng):
        x = rng.normal(size=148)
        y = np.concatenate([rng.normal(size=8), x[:-8]])
        assert coarse_nmi_score(x, y, probe=128, td_max=10) > 0.5
