"""Chunked search over series too long for one in-memory pass.

The paper positions TYCOS as "memory efficient and suitable for big
datasets" thanks to its bottom-up design.  This driver makes that concrete
for out-of-core settings: the pair is processed in overlapping chunks, a
full TYCOS search runs per chunk, and windows found in the overlap zones
are deduplicated.  The overlap must cover ``s_max + td_max`` so no window
straddling a chunk boundary can be missed -- the same containment lemma
that underwrites the in-memory segmented engine (see
:mod:`repro.core.segmentation`); :func:`default_chunk_overlap` computes
the safe value for a config.  For a pair that *does* fit in memory,
prefer the ``segments=K`` plan of :mod:`repro.analysis.planner`, which
additionally runs the pieces in parallel and stitches with whole-series
rescoring.

The chunk source is an iterator of arrays, so callers can stream from
disk, a database cursor, or an mmap without materializing the series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

from repro._types import FloatArray
from repro.core.config import TycosConfig
from repro.core.results import ResultSet, WindowResult
from repro.core.tycos import Tycos
from repro.core.window import TimeDelayWindow

__all__ = ["ChunkedResult", "search_chunked", "chunk_pair", "default_chunk_overlap"]


def default_chunk_overlap(config: TycosConfig) -> int:
    """The chunk overlap guaranteeing seam completeness for ``config``.

    Any feasible window's footprint spans at most ``s_max + td_max``
    samples, so chunks overlapping by at least that much contain every
    window whole in some chunk.  Delegates to
    :meth:`~repro.core.config.TycosConfig.segment_overlap`, which adds
    ``segment_margin`` (default ``s_min``) of working context on top.
    """
    return config.segment_overlap()


@dataclass
class ChunkedResult:
    """Windows found by a chunked search, in global coordinates."""

    windows: List[WindowResult] = field(default_factory=list)
    chunks: int = 0

    def __len__(self) -> int:
        return len(self.windows)


def chunk_pair(
    x: FloatArray,
    y: FloatArray,
    chunk: int,
    overlap: int,
) -> Iterator[Tuple[int, FloatArray, FloatArray]]:
    """Split a pair into overlapping chunks ``(offset, x_chunk, y_chunk)``.

    Args:
        x: first series.
        y: second series.
        chunk: chunk length (must exceed ``overlap``).
        overlap: samples shared between consecutive chunks.
    """
    if chunk <= overlap:
        raise ValueError(f"chunk ({chunk}) must exceed overlap ({overlap})")
    n = x.size
    start = 0
    while start < n:
        end = min(n, start + chunk)
        yield start, x[start:end], y[start:end]
        if end == n:
            return
        start = end - overlap


def search_chunked(
    chunks: Iterable[Tuple[int, FloatArray, FloatArray]],
    config: TycosConfig,
    engine: Optional[Tycos] = None,
) -> ChunkedResult:
    """Run TYCOS per chunk and merge the windows globally.

    Args:
        chunks: ``(offset, x_chunk, y_chunk)`` triples; see
            :func:`chunk_pair`.  Chunks must overlap by at least
            ``config.s_max + config.td_max`` for completeness at the seams.
        config: search parameters (shared by all chunks).
        engine: optional preconfigured engine (default TYCOS_LMN).

    Returns:
        A :class:`ChunkedResult` with windows translated to global indices
        and overlap duplicates resolved (highest-scoring version kept).
    """
    if engine is None:
        engine = Tycos(config)
    merged = ResultSet()
    count = 0
    for offset, x_chunk, y_chunk in chunks:
        count += 1
        if x_chunk.size != y_chunk.size:
            raise ValueError("chunk arrays must have equal length")
        if x_chunk.size < config.s_min:
            continue
        result = engine.search(x_chunk, y_chunk)
        for r in result.windows:
            w = r.window
            global_window = TimeDelayWindow(
                start=w.start + offset, end=w.end + offset, delay=w.delay
            )
            merged.insert(WindowResult(window=global_window, mi=r.mi, nmi=r.nmi))
    return ChunkedResult(windows=merged.results(), chunks=count)
