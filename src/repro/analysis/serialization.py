"""JSON serialization of search results and reports.

A production correlation pipeline runs searches in batch and consumes the
results elsewhere (dashboards, alerting, downstream mining).  This module
round-trips the library's result objects through plain JSON: versioned,
dependency-free, and stable under reordering.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.config import TycosConfig
from repro.core.results import WindowResult
from repro.core.tycos import SearchStats, TycosResult
from repro.core.window import TimeDelayWindow

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "config_to_dict",
    "config_from_dict",
]

#: Format version written into every payload; bump on breaking changes.
FORMAT_VERSION = 1


def config_to_dict(config: TycosConfig) -> Dict[str, Any]:
    """A JSON-ready mapping of every configuration field."""
    return {f.name: getattr(config, f.name) for f in fields(TycosConfig)}


def config_from_dict(payload: Dict[str, Any]) -> TycosConfig:
    """Rebuild a :class:`TycosConfig`; unknown keys are rejected."""
    known = set(config_to_dict(TycosConfig()))
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown config fields {sorted(unknown)}")
    return TycosConfig(**payload)


def _window_to_dict(result: WindowResult) -> Dict[str, Any]:
    return {
        "start": result.window.start,
        "end": result.window.end,
        "delay": result.window.delay,
        "mi": result.mi,
        "nmi": result.nmi,
    }


def _window_from_dict(payload: Dict[str, Any]) -> WindowResult:
    return WindowResult(
        window=TimeDelayWindow(
            start=int(payload["start"]), end=int(payload["end"]), delay=int(payload["delay"])
        ),
        mi=float(payload["mi"]),
        nmi=float(payload["nmi"]),
    )


def result_to_dict(result: TycosResult, config: Optional[TycosConfig] = None) -> Dict[str, Any]:
    """A JSON-ready mapping of a search result (optionally with its config)."""
    stats = result.stats
    payload: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "windows": [_window_to_dict(r) for r in result.windows],
        "stats": {
            "windows_evaluated": stats.windows_evaluated,
            "cache_hits": stats.cache_hits,
            "restarts": stats.restarts,
            "lahc_iterations": stats.lahc_iterations,
            "accepted_moves": stats.accepted_moves,
            "noise_prunes": stats.noise_prunes,
            "mi_full_searches": stats.mi_full_searches,
            "mi_incremental_updates": stats.mi_incremental_updates,
            "runtime_seconds": stats.runtime_seconds,
        },
    }
    if config is not None:
        payload["config"] = config_to_dict(config)
    return payload


def result_from_dict(payload: Dict[str, Any]) -> TycosResult:
    """Rebuild a :class:`TycosResult` from :func:`result_to_dict` output."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    windows: List[WindowResult] = [_window_from_dict(w) for w in payload["windows"]]
    stats_payload = payload.get("stats", {})
    stats = SearchStats(
        windows_evaluated=int(stats_payload.get("windows_evaluated", 0)),
        cache_hits=int(stats_payload.get("cache_hits", 0)),
        restarts=int(stats_payload.get("restarts", 0)),
        lahc_iterations=int(stats_payload.get("lahc_iterations", 0)),
        accepted_moves=int(stats_payload.get("accepted_moves", 0)),
        noise_prunes=int(stats_payload.get("noise_prunes", 0)),
        mi_full_searches=int(stats_payload.get("mi_full_searches", 0)),
        mi_incremental_updates=int(stats_payload.get("mi_incremental_updates", 0)),
        runtime_seconds=float(stats_payload.get("runtime_seconds", 0.0)),
    )
    return TycosResult(windows=windows, stats=stats)


def save_result(
    result: TycosResult, path: str | Path, config: Optional[TycosConfig] = None
) -> None:
    """Write a search result to a JSON file."""
    payload = result_to_dict(result, config=config)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_result(path: str | Path) -> TycosResult:
    """Read a search result back from a JSON file."""
    return result_from_dict(json.loads(Path(path).read_text()))
