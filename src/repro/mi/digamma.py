"""Process-wide digamma lookup table for integer arguments.

Every digamma evaluation in the KSG formula (paper Eq. 2) takes a small
positive *integer* argument -- ``k``, the window size ``m``, or a marginal
neighbor count ``n_x``/``n_y`` bounded by ``m``.  Evaluating a
transcendental per window is therefore pure waste: the same few thousand
integers recur millions of times across a search.  This module hosts a
lazily grown table of ``digamma(i)`` for ``i = 1..capacity`` shared by
every estimator, scorer and engine in the process, and the one place in
the codebase where ``scipy.special.digamma`` may be called directly
(machine-enforced by tycoslint rule TY007): :func:`digamma_direct`, the
tests' reference.

Exactness: the table is a cephes port checked bit for bit against scipy.
At a positive integer, scipy's digamma is cephes ``psi``: up to 10 a
running sum of ``1 / i`` minus Euler's constant, above it the asymptotic
series.  :func:`_evaluate` repeats each operation in cephes' order and
takes ``log`` from libm through :func:`math.log`, as scipy does (numpy's
SIMD ``np.log`` rounds differently at some integers).  Routing through the
table therefore never changes an estimate -- tests assert bit-equality
against ``scipy.special.digamma`` on every integer in ``1..2**20`` -- and
importing this module does not import scipy.
"""

from __future__ import annotations

import math

import numpy as np

from repro._types import AnyArray, FloatArray, IntArray

__all__ = ["DigammaTable", "digamma_direct", "shared_digamma_table"]

#: Euler's constant as cephes spells it (``EUL``).
_EULER = 0.57721566490153286061

#: cephes ``psi_A``: the asymptotic series coefficients, highest power first.
_PSI_A = (
    8.33333333333333333333e-2,
    -2.10927960927960927961e-2,
    7.57575757575757575758e-3,
    -4.16666666666666666667e-3,
    3.96825396825396825397e-3,
    -8.33333333333333333333e-3,
    8.33333333333333333333e-2,
)

#: Largest integer cephes ``psi`` sums directly instead of expanding.
_SUMMED = 10


def digamma_direct(values: AnyArray) -> AnyArray:
    """Direct scipy digamma evaluation (the tests' reference path).

    Exists so code that must *bypass* the table (the exactness tests, or
    non-integer arguments) still routes through this module, keeping
    tycoslint rule TY007 exception-free.  scipy is imported here, on
    first call, so the table never pays for it.
    """
    from scipy.special import digamma

    return digamma(values)


def _evaluate(size: int) -> FloatArray:
    """``digamma(i)`` for ``i = 1..size`` as a read-only float64 array."""
    table = np.empty(size, dtype=np.float64)
    harmonic = 0.0
    for i in range(1, min(size, _SUMMED) + 1):
        table[i - 1] = harmonic - _EULER
        harmonic += 1.0 / i
    if size > _SUMMED:
        ns = np.arange(_SUMMED + 1, size + 1, dtype=np.float64)
        z = 1.0 / (ns * ns)
        poly = np.full_like(z, _PSI_A[0])
        for coefficient in _PSI_A[1:]:
            poly *= z
            poly += coefficient
        logs = np.fromiter(map(math.log, ns.tolist()), dtype=np.float64, count=ns.size)
        table[_SUMMED:] = logs - 0.5 / ns - z * poly
    table.flags.writeable = False
    return table


class DigammaTable:
    """Lazily grown lookup table with ``table[i - 1] == digamma(i)``.

    The table doubles on demand and is recomputed wholesale on growth
    (a cephes port checked bit for bit against scipy), so each integer is
    evaluated O(log max_seen) times over the process lifetime instead of
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
