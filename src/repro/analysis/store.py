"""Columnar on-disk series store, memory-mapped for zero-copy attach.

A thousand-series collection is quadratic trouble twice over: O(N^2)
candidate pairs, and -- under the process pool -- N series shipped to
every worker.  The pool's shared-memory block already ships a collection
once per *scan*, but it still materializes a full copy of every series
in RAM and rebuilds that copy for each scan.  This module is the durable
variant: the collection is written **once** to disk as a single
row-major float64 matrix plus a JSON manifest, and every consumer --
serial scans, cascade screens, pool workers -- attaches read-only
``numpy.memmap`` views of the same pages.  The OS page cache does the
sharing, so a thousand-series collection is never copied per worker and
cold pages are only faulted in for the series a task actually touches.

Layout of a store directory::

    <store>/
      manifest.json   {"schema": "tycos-store/1", "series": [...names],
                       "length": n, "dtype": "float64", "order": "C"}
      series.bin      n_series x length float64, C-order, row i = series i

A store holds the series and nothing derived from them; any other file
in the directory is ignored.  State computed from the series, such as
the cascade's stage-1 screen state, is built in memory by the process
that scores.  Rewriting a store replaces both files whole, so a store
already open on the directory keeps reading the data it mapped.

This module is the repository's **only** place that may open memory
maps or touch the store file names (tycoslint rule TY116, registry
``STORE_MODULES``): mmap lifetimes are easy to leak and the manifest is
a format contract, so both get a single audited owner.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Union

import numpy as np

from repro._types import FloatArray

__all__ = [
    "SeriesStore",
    "STORE_SCHEMA",
    "MANIFEST_FILENAME",
    "DATA_FILENAME",
]

#: Manifest schema identifier; bump on any layout change.
STORE_SCHEMA = "tycos-store/1"

#: File names inside a store directory (format contract, see TY116).
MANIFEST_FILENAME = "manifest.json"
DATA_FILENAME = "series.bin"


class SeriesStore:
    """A named collection of equal-length float64 series on disk.

    Open stores are read-only: every view handed out is a non-writeable
    slice of one shared ``numpy.memmap``, so passing a store's series to
    the search engine costs no copies and no per-worker RAM.  Use
    :meth:`write` to build a store from an in-memory collection and
    :meth:`open` to attach an existing one.
    """

    def __init__(self, path: Path, names: List[str], matrix: FloatArray) -> None:
        """Internal -- use :meth:`open` or :meth:`write`."""
        self._path = path
        self._names = names
        self._matrix = matrix

    # ------------------------------------------------------------------ #
    # Construction

    @classmethod
    def write(cls, path: Union[str, Path], series: Dict[str, FloatArray]) -> "SeriesStore":
        """Pack an in-memory collection into a store directory.

        Args:
            path: directory to create (parents included).  An existing
                store at this path is replaced for single-writer use:
                both files are written under temporary names and renamed
                into place, data first and manifest last, so stores
                already open on the old files keep their data.
            series: name -> series mapping; names must be non-empty
                strings, and all series must share a length and contain
                only finite-or-NaN float data (any numeric dtype,
                converted to float64).

        Returns:
            The freshly written store, opened read-only.

        Raises:
            ValueError: on an empty collection, a name that is not a
                non-empty string, or mismatched lengths -- before the
                directory is touched.
        """
        names = list(series)
        if not names:
            raise ValueError("cannot write an empty series store")
        for name in names:
            if not isinstance(name, str) or not name:
                raise ValueError(f"series names must be non-empty strings, got {name!r}")
        lengths = sorted({int(np.asarray(series[name]).size) for name in names})
        if len(lengths) != 1:
            raise ValueError(f"all series must share a length, got {lengths}")
        length = lengths[0]
        if length == 0:
            raise ValueError("cannot store zero-length series")
        matrix = np.empty((len(names), length), dtype=np.float64, order="C")
        for row, name in enumerate(names):
            matrix[row, :] = np.asarray(series[name], dtype=np.float64).ravel()
        manifest = {
            "schema": STORE_SCHEMA,
            "series": names,
            "length": length,
            "dtype": "float64",
            "order": "C",
        }
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        data_tmp = directory / f".{DATA_FILENAME}.{os.getpid()}.tmp"
        manifest_tmp = directory / f".{MANIFEST_FILENAME}.{os.getpid()}.tmp"
        try:
            matrix.tofile(data_tmp)
            manifest_tmp.write_text(json.dumps(manifest, indent=2) + "\n")
            os.replace(data_tmp, directory / DATA_FILENAME)
            os.replace(manifest_tmp, directory / MANIFEST_FILENAME)
        finally:
            data_tmp.unlink(missing_ok=True)
            manifest_tmp.unlink(missing_ok=True)
        return cls.open(directory)

    @classmethod
    def open(cls, path: Union[str, Path]) -> "SeriesStore":
        """Attach an existing store directory read-only.

        The data file is memory-mapped, not read: opening a store of any
        size is O(1) and the series pages are faulted in on first touch.

        Raises:
            FileNotFoundError: when the directory or its files are missing.
            ValueError: when the manifest is malformed, names an unknown
                schema/dtype/order, repeats a series name, or disagrees
                with the data file's size.
        """
        directory = Path(path)
        manifest_path = directory / MANIFEST_FILENAME
        data_path = directory / DATA_FILENAME
        if not manifest_path.is_file():
            raise FileNotFoundError(f"{directory}: no {MANIFEST_FILENAME}; not a series store")
        if not data_path.is_file():
            raise FileNotFoundError(f"{directory}: no {DATA_FILENAME}; not a series store")
        try:
            with manifest_path.open() as handle:
                manifest = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{manifest_path}: malformed manifest: {exc}") from exc
        cls._validate_manifest(manifest, manifest_path)
        names: List[str] = list(manifest["series"])
        length = int(manifest["length"])
        expected_bytes = len(names) * length * np.dtype(np.float64).itemsize
        actual_bytes = data_path.stat().st_size
        if actual_bytes != expected_bytes:
            raise ValueError(
                f"{data_path}: size {actual_bytes} does not match manifest "
                f"({len(names)} series x {length} samples = {expected_bytes} bytes)"
            )
        matrix = np.memmap(data_path, dtype=np.float64, mode="r", shape=(len(names), length))
        return cls(directory, names, matrix)

    @staticmethod
    def _validate_manifest(manifest: object, source: Path) -> None:
        if not isinstance(manifest, dict):
            raise ValueError(f"{source}: manifest must be a JSON object")
        schema = manifest.get("schema")
        if schema != STORE_SCHEMA:
            raise ValueError(
                f"{source}: unknown store schema {schema!r} (expected {STORE_SCHEMA!r})"
            )
        if manifest.get("dtype") != "float64":
            raise ValueError(f"{source}: unsupported dtype {manifest.get('dtype')!r}")
        if manifest.get("order") != "C":
            raise ValueError(f"{source}: unsupported order {manifest.get('order')!r}")
        names = manifest.get("series")
        if not isinstance(names, list) or not names or not all(
            isinstance(name, str) for name in names
        ):
            raise ValueError(f"{source}: manifest 'series' must be a non-empty list of names")
        if len(set(names)) != len(names):
            raise ValueError(f"{source}: manifest repeats series names")
        length = manifest.get("length")
        if not isinstance(length, int) or length < 1:
            raise ValueError(f"{source}: manifest 'length' must be a positive integer")

    # ------------------------------------------------------------------ #
    # Access

    @property
    def path(self) -> Path:
        """The store directory."""
        return self._path

    @property
    def names(self) -> List[str]:
        """Series names in manifest (row) order."""
        return list(self._names)

    @property
    def length(self) -> int:
        """Number of samples per series."""
        return int(self._matrix.shape[1])

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __getitem__(self, name: str) -> FloatArray:
        """A read-only zero-copy view of one series."""
        try:
            row = self._names.index(name)
        except ValueError:
            raise KeyError(f"store has no series {name!r}") from None
        view: FloatArray = self._matrix[row]
        view.flags.writeable = False
        return view

    def series(self) -> Dict[str, FloatArray]:
        """Read-only zero-copy views of every series, in manifest order.

        The returned mapping is shaped exactly like the in-memory
        collections :func:`repro.analysis.pairwise.scan_pairs` takes, so
        a store drops into any scan entry point unchanged.
        """
        out: Dict[str, FloatArray] = {}
        for row, name in enumerate(self._names):
            view: FloatArray = self._matrix[row]
            view.flags.writeable = False
            out[name] = view
        return out
