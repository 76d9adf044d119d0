"""Process-wide digamma lookup table for integer arguments.

Every digamma evaluation in the KSG formula (paper Eq. 2) takes a small
positive *integer* argument -- ``k``, the window size ``m``, or a marginal
neighbor count ``n_x``/``n_y`` bounded by ``m``.  Evaluating scipy's
transcendental per window is therefore pure waste: the same few thousand
integers recur millions of times across a search.  This module hosts the
one place in the codebase where ``scipy.special.digamma`` may be called
directly (machine-enforced by tycoslint rule TY007): a lazily grown table
of ``digamma(i)`` for ``i = 1..capacity`` shared by every estimator,
scorer and engine in the process.

Exactness: every table entry is the *same* scipy evaluation a direct call
would perform (same float64 input, same function), so routing through the
table never changes an estimate -- tests assert bit-equality against
direct ``scipy.special.digamma`` calls.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma as _scipy_digamma

from repro._types import AnyArray, FloatArray, IntArray

__all__ = ["DigammaTable", "digamma_direct", "shared_digamma_table"]


def digamma_direct(values: AnyArray) -> AnyArray:
    """Direct scipy digamma evaluation (the tests' reference path).

    Exists so code that must *bypass* the table (the exactness tests, or
    non-integer arguments) still routes through this module, keeping
    tycoslint rule TY007 exception-free.
    """
    return _scipy_digamma(values)


def _evaluate(size: int) -> FloatArray:
    """``digamma(i)`` for ``i = 1..size`` as a read-only float64 array."""
    table = np.asarray(
        _scipy_digamma(np.arange(1, size + 1, dtype=np.float64)), dtype=np.float64
    )
    table.flags.writeable = False
    return table


class DigammaTable:
    """Lazily grown lookup table with ``table[i - 1] == digamma(i)``.

    The table doubles on demand and is recomputed wholesale on growth
    (one vectorized scipy call), so each integer is evaluated through
    scipy O(log max_seen) times over the process lifetime instead of
    once per window.  Growth races between threads are benign: both
    winners compute identical values.

    Args:
        initial: starting capacity (entries for ``digamma(1..initial)``).
    """

    def __init__(self, initial: int = 1024) -> None:
        if initial < 1:
            raise ValueError(f"initial capacity must be >= 1, got {initial}")
        self._table = _evaluate(initial)

    @property
    def size(self) -> int:
        """Largest integer argument currently covered."""
        return self._table.size

    def prefix(self, n: int) -> FloatArray:
        """A read-only array covering at least ``digamma(1..n)``.

        The returned array may be longer than ``n``; callers index it as
        ``prefix(n)[i - 1]`` for any ``1 <= i <= n``.  This is the shape
        :meth:`repro.mi.ksg.KSGEstimator.mi_from_geometry` accepts as its
        ``digamma_table`` argument.

        Workspaces hold the returned array across many calls, so it is a
        C-contiguous read-only float64 array that is never mutated: growth
        allocates a fresh array and rebinds the table, leaving every
        array handed out earlier valid for the ``n`` it was sized for.
        """
        if n > self._table.size:
            grown = self._table.size
            while grown < n:
                grown *= 2
            self._table = _evaluate(grown)
        return self._table

    def value(self, n: int) -> float:
        """``digamma(n)`` for a positive integer ``n``."""
        if n < 1:
            raise ValueError(f"need a positive integer argument, got {n}")
        return float(self.prefix(n)[n - 1])

    def values(self, ns: IntArray) -> FloatArray:
        """``digamma(ns)`` elementwise for an array of positive integers."""
        ns = np.asarray(ns)
        if ns.size == 0:
            return np.empty(0, dtype=np.float64)
        return np.asarray(self.prefix(int(ns.max()))[ns - 1], dtype=np.float64)


_SHARED = DigammaTable()


def shared_digamma_table() -> DigammaTable:
    """The process-wide table shared by every KSG evaluation."""
    return _SHARED
