"""Tests for the memory-mapped series store.

The contract under test: a store round-trips a collection exactly
(float64, bit-for-bit), attaches read-only without copies, validates
its manifest before trusting it, is replaced whole by a rewrite (views
already open keep their data; a rejected write leaves the previous
store intact), and serves pool workers through the path-only transport
with reports byte-identical to every other path.
"""

import json

import numpy as np
import pytest

from repro.analysis.pairwise import scan_pairs
from repro.analysis.store import (
    DATA_FILENAME,
    MANIFEST_FILENAME,
    STORE_SCHEMA,
    SeriesStore,
)
from repro.core.config import TycosConfig


@pytest.fixture
def collection(rng):
    n = 240
    base = np.cumsum(rng.normal(size=n))
    return {
        "a": base + rng.normal(scale=0.1, size=n),
        "b": np.roll(base, 4) + rng.normal(scale=0.1, size=n),
        "c": rng.normal(size=n),
    }


class TestRoundTrip:
    def test_write_open_round_trips_exactly(self, tmp_path, collection):
        store = SeriesStore.write(tmp_path / "store", collection)
        assert store.names == list(collection)
        assert store.length == 240
        assert len(store) == 3
        for name, values in collection.items():
            assert name in store
            assert np.array_equal(store[name], values)

    def test_reopen_matches(self, tmp_path, collection):
        SeriesStore.write(tmp_path / "store", collection)
        reopened = SeriesStore.open(tmp_path / "store")
        for name, values in collection.items():
            assert np.array_equal(reopened[name], values)

    def test_series_mapping_shape(self, tmp_path, collection):
        store = SeriesStore.write(tmp_path / "store", collection)
        series = store.series()
        assert list(series) == list(collection)
        assert list(iter(store)) == list(collection)
        for name in collection:
            assert np.array_equal(series[name], collection[name])

    def test_views_are_read_only(self, tmp_path, collection):
        store = SeriesStore.write(tmp_path / "store", collection)
        view = store["a"]
        with pytest.raises(ValueError):
            view[0] = 1.0
        with pytest.raises(ValueError):
            store.series()["b"][3] = 2.0

    def test_int_input_converted_to_float64(self, tmp_path):
        store = SeriesStore.write(tmp_path / "store", {"i": np.arange(10)})
        assert store["i"].dtype == np.float64
        assert np.array_equal(store["i"], np.arange(10.0))

    def test_unknown_name_raises_keyerror(self, tmp_path, collection):
        store = SeriesStore.write(tmp_path / "store", collection)
        with pytest.raises(KeyError, match="zzz"):
            store["zzz"]


class TestWriteValidation:
    def test_rejects_empty_collection(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            SeriesStore.write(tmp_path / "store", {})

    def test_rejects_mismatched_lengths(self, tmp_path, rng):
        series = {"a": rng.normal(size=10), "b": rng.normal(size=12)}
        with pytest.raises(ValueError, match="share a length"):
            SeriesStore.write(tmp_path / "store", series)

    def test_rejects_zero_length_series(self, tmp_path):
        with pytest.raises(ValueError, match="zero-length"):
            SeriesStore.write(tmp_path / "store", {"a": np.empty(0)})


class TestRewrite:
    """A rewrite replaces the store's files whole, and only once the new
    collection has passed validation: open stores keep the data they
    mapped, and a rejected write leaves the previous store in place."""

    def test_open_view_survives_same_size_rewrite(self, tmp_path):
        directory = tmp_path / "store"
        view = SeriesStore.write(directory, {"a": np.arange(4.0)})["a"]
        rewritten = SeriesStore.write(directory, {"a": -np.arange(4.0)})
        assert view.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert np.array_equal(rewritten["a"], -np.arange(4.0))
        assert sorted(p.name for p in directory.iterdir()) == [MANIFEST_FILENAME, DATA_FILENAME]

    @pytest.mark.parametrize("bad_name", [1, ""])
    def test_rejected_name_leaves_previous_store_intact(self, tmp_path, collection, bad_name):
        directory = tmp_path / "store"
        SeriesStore.write(directory, collection)
        with pytest.raises(ValueError, match="non-empty strings"):
            SeriesStore.write(directory, {bad_name: collection["a"]})
        reopened = SeriesStore.open(directory)
        assert reopened.names == list(collection)
        for name, values in collection.items():
            assert np.array_equal(reopened[name], values)


class TestManifestValidation:
    def _write(self, tmp_path, collection):
        SeriesStore.write(tmp_path / "store", collection)
        return tmp_path / "store"

    def _patch_manifest(self, directory, **changes):
        path = directory / MANIFEST_FILENAME
        manifest = json.loads(path.read_text())
        manifest.update(changes)
        path.write_text(json.dumps(manifest))

    def test_missing_manifest(self, tmp_path, collection):
        directory = self._write(tmp_path, collection)
        (directory / MANIFEST_FILENAME).unlink()
        with pytest.raises(FileNotFoundError, match="not a series store"):
            SeriesStore.open(directory)

    def test_missing_data_file(self, tmp_path, collection):
        directory = self._write(tmp_path, collection)
        (directory / DATA_FILENAME).unlink()
        with pytest.raises(FileNotFoundError, match="not a series store"):
            SeriesStore.open(directory)

    def test_malformed_json(self, tmp_path, collection):
        directory = self._write(tmp_path, collection)
        (directory / MANIFEST_FILENAME).write_text("{not json")
        with pytest.raises(ValueError, match="malformed manifest"):
            SeriesStore.open(directory)

    def test_unknown_schema(self, tmp_path, collection):
        directory = self._write(tmp_path, collection)
        self._patch_manifest(directory, schema="tycos-store/99")
        with pytest.raises(ValueError, match="unknown store schema"):
            SeriesStore.open(directory)

    def test_unsupported_dtype(self, tmp_path, collection):
        directory = self._write(tmp_path, collection)
        self._patch_manifest(directory, dtype="float32")
        with pytest.raises(ValueError, match="unsupported dtype"):
            SeriesStore.open(directory)

    def test_duplicate_names(self, tmp_path, collection):
        directory = self._write(tmp_path, collection)
        self._patch_manifest(directory, series=["a", "a", "b"])
        with pytest.raises(ValueError, match="repeats series names"):
            SeriesStore.open(directory)

    def test_size_mismatch(self, tmp_path, collection):
        directory = self._write(tmp_path, collection)
        self._patch_manifest(directory, length=9999)
        with pytest.raises(ValueError, match="does not match manifest"):
            SeriesStore.open(directory)

    def test_schema_constant_is_declared(self, tmp_path, collection):
        directory = self._write(tmp_path, collection)
        manifest = json.loads((directory / MANIFEST_FILENAME).read_text())
        assert manifest["schema"] == STORE_SCHEMA


class TestPoolAttach:
    """Pool workers attach a store by path: the report must be
    byte-identical to the serial scan over the in-memory collection."""

    def test_store_transport_matches_serial(
        self, tmp_path, collection, many_cores, pool_sizes
    ):
        config = TycosConfig(sigma=0.3, s_min=8, s_max=40, td_max=6, jitter=1e-6, seed=1)
        store = SeriesStore.write(tmp_path / "store", collection)
        serial = scan_pairs(collection, config)
        pooled = scan_pairs(store.series(), config, n_jobs=2, store_path=store.path)
        assert pool_sizes == [2]
        assert (pooled.findings, pooled.skipped, pooled.failures) == (
            serial.findings,
            serial.skipped,
            serial.failures,
        )

    def test_store_views_search_like_arrays(self, tmp_path, collection):
        config = TycosConfig(sigma=0.3, s_min=8, s_max=40, td_max=6, jitter=1e-6, seed=1)
        store = SeriesStore.write(tmp_path / "store", collection)
        from_store = scan_pairs(store.series(), config)
        from_memory = scan_pairs(collection, config)
        assert from_store.findings == from_memory.findings
