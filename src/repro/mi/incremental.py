"""Incremental KSG mutual information over a sliding point set (Section 7).

TYCOS explores neighborhoods by nudging a window's start/end indices, so
consecutive MI evaluations share almost all their data points.  Recomputing
KSG from scratch costs O(m^2) per window; this engine instead maintains,
for every live point, its k-nearest-neighbor set and reacts to point
insertions/removals using the paper's *influenced region* (IR) and
*influenced marginal region* (IMR) rules:

* Lemma 3 -- an inserted point becomes a new k-th neighbor of ``p`` iff it
  lands inside ``p``'s IR (Chebyshev ball of radius ``d_k(p)``).  The update
  is a constant-time replacement in ``p``'s neighbor set; no search.
* Lemma 4 -- a removed point changes ``p``'s k-NN set iff it was inside
  ``p``'s IR; only then is a fresh neighbor search for ``p`` required.
* Lemmas 5/6 -- marginal counts change only inside the IMRs.  We exploit
  this through a :class:`repro.mi.neighbors.MarginalIndex` per axis: the
  sorted projections are maintained incrementally (one binary search plus
  one memmove per point move), so the query-time marginal recount is two
  binary searches per point over *already sorted* arrays -- the per-call
  ``O(m log m)`` sort disappears.

Neighbor records live in one structured numpy table indexed by point
position (fields ``dist``/``dx``/``dy``/``id``), so bulk loads, Lemma-3
displacements and the evictee/extent updates are vectorized gathers and
reductions instead of per-point Python tuple juggling.

The net effect matches the paper's TYCOS_LM: per delta-step window move the
dominant O(m^2) neighbor search collapses to O((delta + a) * m) where ``a``
is the number of IR-affected points.

The estimate produced is *identical* to the batch estimator on the same
point set (tests assert exact agreement), because the same geometry feeds
the same formula.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro import contracts
from repro.mi.ksg import KSGEstimator
from repro.mi.neighbors import KnnResult, MarginalIndex

__all__ = ["SlidingKSG"]

# Columnar neighbor record: Chebyshev distance, |dx|, |dy|, neighbor id.
_NEIGHBOR_DTYPE = np.dtype(
    [("dist", np.float64), ("dx", np.float64), ("dy", np.float64), ("id", np.int64)]
)


class SlidingKSG:
    """KSG MI estimator over a dynamically maintained set of (x, y) points.

    Points carry caller-chosen integer ids (TYCOS uses the time index on
    ``X_T``), so the caller can slide a window by adding/removing ids.

    Usage::

        eng = SlidingKSG(k=4)
        eng.reset(x[0:100], y[0:100], ids=range(0, 100))
        eng.mi()                      # MI of the initial window
        eng.add(100, x[100], y[100])  # grow the window by one step
        eng.remove(0)                 # ... and shrink it at the front
        eng.mi()                      # updated estimate, no full recompute

    Args:
        k: number of nearest neighbors.

    Attributes:
        full_searches: number of from-scratch k-NN searches performed
            (bulk loads count one per point).
        incremental_updates: number of constant-time neighbor-set
            replacements triggered by Lemma 3.
    """

    def __init__(self, k: int = 4) -> None:
        self._estimator = KSGEstimator(k=k, backend="bruteforce")
        self.k = k
        # Parallel position-indexed storage (swap-pop on removal), backed
        # by preallocated numpy buffers so adds/removes never rebuild
        # arrays from Python lists.
        self._ids: List[int] = []
        self._size = 0
        self._buf_x = np.empty(64)
        self._buf_y = np.empty(64)
        # Positional caches of each point's neighbor geometry, maintained
        # alongside the neighbor table so mi() is pure vectorized work.
        self._buf_kth = np.empty(64)
        self._buf_epsx = np.empty(64)
        self._buf_epsy = np.empty(64)
        # Structured neighbor table: row i holds point i's k neighbor
        # records.  Rows are only meaningful while not _needs_rebuild.
        self._nb = np.empty((64, k), dtype=_NEIGHBOR_DTYPE)
        self._pos: Dict[int, int] = {}
        # Reverse adjacency: id -> ids of points listing it as a neighbor.
        self._reverse: Dict[int, Set[int]] = {}
        # Incrementally maintained sorted projections (Lemmas 5/6).
        self._marginal_x = MarginalIndex()
        self._marginal_y = MarginalIndex()
        self._needs_rebuild = True
        self.full_searches = 0
        self.incremental_updates = 0

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._buf_x.size:
            return
        capacity = self._buf_x.size
        while capacity < needed:
            capacity *= 2
        for name in ("_buf_x", "_buf_y", "_buf_kth", "_buf_epsx", "_buf_epsy"):
            old = getattr(self, name)
            grown = np.empty(capacity)
            grown[: old.size] = old
            setattr(self, name, grown)
        grown_nb = np.empty((capacity, self.k), dtype=_NEIGHBOR_DTYPE)
        grown_nb[: self._nb.shape[0]] = self._nb
        self._nb = grown_nb

    # ------------------------------------------------------------------ #
    # basic container protocol

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, point_id: int) -> bool:
        return point_id in self._pos

    @property
    def ids(self) -> Tuple[int, ...]:
        """Ids of the currently live points (unspecified order)."""
        return tuple(self._ids)

    # ------------------------------------------------------------------ #
    # mutation

    def reset(
        self, x: Iterable[float], y: Iterable[float], ids: Optional[Iterable[int]] = None
    ) -> None:
        """Replace the entire point set and rebuild neighbor structures."""
        xs = [float(v) for v in x]
        ys = [float(v) for v in y]
        if len(xs) != len(ys):
            raise ValueError("x and y must have equal length")
        if ids is None:
            id_list = list(range(len(xs)))
        else:
            id_list = [int(i) for i in ids]
        if len(id_list) != len(xs):
            raise ValueError("ids must match the number of points")
        if len(set(id_list)) != len(id_list):
            raise ValueError("ids must be unique")
        self._ids = id_list
        self._size = len(id_list)
        self._ensure_capacity(self._size)
        self._buf_x[: self._size] = xs
        self._buf_y[: self._size] = ys
        self._buf_kth[: self._size] = 0.0
        self._buf_epsx[: self._size] = 0.0
        self._buf_epsy[: self._size] = 0.0
        self._pos = {pid: i for i, pid in enumerate(id_list)}
        self._reverse = {pid: set() for pid in id_list}
        self._marginal_x.reset(self._buf_x[: self._size])
        self._marginal_y.reset(self._buf_y[: self._size])
        self._needs_rebuild = True
        self._maybe_rebuild()

    def add(self, point_id: int, x: float, y: float) -> None:
        """Insert a point, updating affected neighbor sets (Lemma 3)."""
        if point_id in self._pos:
            raise KeyError(f"point id {point_id} already present")
        x = float(x)
        y = float(y)
        m_before = self._size
        if not self._needs_rebuild and m_before > self.k:
            xs = self._buf_x[:m_before]
            ys = self._buf_y[:m_before]
            dx = np.abs(xs - x)
            dy = np.abs(ys - y)
            dist = np.maximum(dx, dy)
            # New point's own neighbor set: k best among existing points.
            order = np.argpartition(dist, self.k - 1)[: self.k]
            self.full_searches += 1
            # Lemma 3: the new point displaces the current k-th neighbor of
            # every point whose IR it falls into.  The displacement -- find
            # the worst record, replace it, refresh the cached extents --
            # is one batched gather/reduce over all affected rows.
            affected = np.nonzero(dist < self._buf_kth[:m_before])[0]
            if affected.size:
                nb_dist = self._nb["dist"]
                nb_dx = self._nb["dx"]
                nb_dy = self._nb["dy"]
                nb_id = self._nb["id"]
                worst = np.argmax(nb_dist[affected], axis=1)
                evicted = nb_id[affected, worst]
                new_dependents = self._reverse.setdefault(point_id, set())
                for j, evictee in zip(affected, evicted):
                    pid = self._ids[j]
                    self._reverse[int(evictee)].discard(pid)
                    new_dependents.add(pid)
                nb_dist[affected, worst] = dist[affected]
                nb_dx[affected, worst] = dx[affected]
                nb_dy[affected, worst] = dy[affected]
                nb_id[affected, worst] = point_id
                self._buf_kth[affected] = nb_dist[affected].max(axis=1)
                self._buf_epsx[affected] = nb_dx[affected].max(axis=1)
                self._buf_epsy[affected] = nb_dy[affected].max(axis=1)
                self.incremental_updates += int(affected.size)
            self._reverse.setdefault(point_id, set())
            new_ids = np.empty(self.k, dtype=np.int64)
            for slot, j in enumerate(order):
                neighbor_id = self._ids[j]
                new_ids[slot] = neighbor_id
                self._reverse[neighbor_id].add(point_id)
            new_dist = dist[order]
            new_dx = dx[order]
            new_dy = dy[order]
            new_kth = float(new_dist.max())
            new_epsx = float(new_dx.max())
            new_epsy = float(new_dy.max())
        else:
            self._needs_rebuild = True
            self._reverse.setdefault(point_id, set())
            new_dist = new_dx = new_dy = new_ids = None
            new_kth = new_epsx = new_epsy = 0.0
        pos = self._size
        self._ensure_capacity(pos + 1)
        self._pos[point_id] = pos
        self._ids.append(point_id)
        self._buf_x[pos] = x
        self._buf_y[pos] = y
        self._buf_kth[pos] = new_kth
        self._buf_epsx[pos] = new_epsx
        self._buf_epsy[pos] = new_epsy
        if new_dist is not None:
            row = self._nb[pos]
            row["dist"] = new_dist
            row["dx"] = new_dx
            row["dy"] = new_dy
            row["id"] = new_ids
        self._size += 1
        self._marginal_x.add(x)
        self._marginal_y.add(y)
        self._maybe_rebuild()

    def remove(self, point_id: int) -> None:
        """Remove a point, re-searching only IR-affected points (Lemma 4)."""
        if point_id not in self._pos:
            raise KeyError(f"point id {point_id} not present")
        pos = self._pos.pop(point_id)
        removed_x = float(self._buf_x[pos])
        removed_y = float(self._buf_y[pos])
        removed_neighbor_ids: Optional[np.ndarray] = None
        if not self._needs_rebuild:
            removed_neighbor_ids = self._nb["id"][pos].copy()
        last = self._size - 1
        if pos != last:
            self._ids[pos] = self._ids[last]
            self._buf_x[pos] = self._buf_x[last]
            self._buf_y[pos] = self._buf_y[last]
            self._buf_kth[pos] = self._buf_kth[last]
            self._buf_epsx[pos] = self._buf_epsx[last]
            self._buf_epsy[pos] = self._buf_epsy[last]
            self._nb[pos] = self._nb[last]
            self._pos[self._ids[pos]] = pos
        self._ids.pop()
        self._size -= 1
        self._marginal_x.remove(removed_x)
        self._marginal_y.remove(removed_y)

        dependents = self._reverse.pop(point_id, set())
        if removed_neighbor_ids is not None:
            for neighbor_id in removed_neighbor_ids:
                rev = self._reverse.get(int(neighbor_id))
                if rev is not None:
                    rev.discard(point_id)

        if self._needs_rebuild:
            self._maybe_rebuild()
            return
        if len(self._ids) <= self.k:
            # Too few points to hold k-neighbor sets; rebuild lazily later.
            self._needs_rebuild = True
            self._reverse = {pid: set() for pid in self._ids}
            return
        for pid in dependents:
            if pid in self._pos:
                self._research_point(pid)

    # ------------------------------------------------------------------ #
    # queries

    def mi(self) -> float:
        """Current KSG MI estimate (nats) over the live point set.

        Raises:
            ValueError: if fewer than ``k + 2`` points are live.
        """
        m = len(self._ids)
        if m < self.k + 2:
            raise ValueError(f"need at least k+2={self.k + 2} points, got {m}")
        self._maybe_rebuild()
        x = self._buf_x[:m]
        y = self._buf_y[:m]
        geometry = KnnResult(
            kth_distance=self._buf_kth[:m],
            eps_x=self._buf_epsx[:m],
            eps_y=self._buf_epsy[:m],
            indices=np.empty((m, 0), dtype=np.int64),
        )
        value = self._estimator.mi_from_geometry(
            x,
            y,
            geometry,
            self.k,
            sorted_x=self._marginal_x.sorted_values(),
            sorted_y=self._marginal_y.sorted_values(),
        )
        if contracts.checks_enabled():
            contracts.check_mi_finite(value, where="SlidingKSG.mi")
        return value

    def neighbor_ids(self, point_id: int) -> Tuple[int, ...]:
        """Ids of ``point_id``'s current k nearest neighbors (for tests)."""
        self._maybe_rebuild()
        if self._needs_rebuild or point_id not in self._pos:
            raise KeyError(point_id)
        return tuple(int(i) for i in self._nb["id"][self._pos[point_id]])

    # ------------------------------------------------------------------ #
    # internals

    def _maybe_rebuild(self) -> None:
        if not self._needs_rebuild or self._size <= self.k:
            return
        m = self._size
        x = self._buf_x[:m]
        y = self._buf_y[:m]
        # Same kernel as chebyshev_knn_bruteforce, inlined so the dx/dy
        # broadcasts feed the neighbor-table gathers instead of being
        # recomputed (identical values, identical argpartition ties).
        dx = np.abs(x[:, None] - x[None, :])
        dy = np.abs(y[:, None] - y[None, :])
        dist = np.maximum(dx, dy)
        np.fill_diagonal(dist, np.inf)
        idx = np.argpartition(dist, self.k - 1, axis=1)[:, : self.k]
        rows = np.arange(m)[:, None]
        nb = self._nb[:m]
        nb["dist"] = dist[rows, idx]
        nb["dx"] = dx[rows, idx]
        nb["dy"] = dy[rows, idx]
        ids_arr = np.asarray(self._ids, dtype=np.int64)
        nb["id"] = ids_arr[idx]
        self._buf_kth[:m] = nb["dist"].max(axis=1)
        self._buf_epsx[:m] = nb["dx"].max(axis=1)
        self._buf_epsy[:m] = nb["dy"].max(axis=1)
        self._reverse = {pid: set() for pid in self._ids}
        neighbor_id_rows = nb["id"]
        for i, pid in enumerate(self._ids):
            for neighbor_id in neighbor_id_rows[i]:
                self._reverse[int(neighbor_id)].add(pid)
        self.full_searches += m
        self._needs_rebuild = False

    def _research_point(self, point_id: int) -> None:
        """Full k-NN search for one point (used after an IR-hit removal)."""
        pos = self._pos[point_id]
        x = self._buf_x[: self._size]
        y = self._buf_y[: self._size]
        dx = np.abs(x - x[pos])
        dy = np.abs(y - y[pos])
        dist = np.maximum(dx, dy)
        dist[pos] = np.inf
        order = np.argpartition(dist, self.k - 1)[: self.k]
        for neighbor_id in self._nb["id"][pos]:
            rev = self._reverse.get(int(neighbor_id))
            if rev is not None:
                rev.discard(point_id)
        row = self._nb[pos]
        row["dist"] = dist[order]
        row["dx"] = dx[order]
        row["dy"] = dy[order]
        for slot, j in enumerate(order):
            neighbor_id = self._ids[j]
            row["id"][slot] = neighbor_id
            self._reverse[neighbor_id].add(point_id)
        self._buf_kth[pos] = float(dist[order].max())
        self._buf_epsx[pos] = float(dx[order].max())
        self._buf_epsy[pos] = float(dy[order].max())
        self.full_searches += 1
