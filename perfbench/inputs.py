"""Seeded workload inputs, generated here and never through the program.

Graphs, query streams and update streams come only from a seed, so a change
to the program under test cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import math

import numpy as np

#: Canonical edge weights are drawn uniformly from this range.
WEIGHT_LOW, WEIGHT_HIGH = 1.0, 10.0


def er_graph(n: int, seed: int) -> np.ndarray:
    """Connected, undirected, weighted Erdős–Rényi adjacency.

    Dense float64 with ``inf`` for a missing edge and 0 on the diagonal.
    The edge probability is the paper's ``1.1 ln(n) / n``; a random
    Hamiltonian path is laid over it so every seed gives a connected graph
    (every closure entry is finite and every route query has a path).
    """
    rng = np.random.default_rng([seed, n, 0xE5])
    p = 1.1 * math.log(n) / n
    adj = np.full((n, n), np.inf)
    iu = np.triu_indices(n, k=1)
    present = rng.random(iu[0].size) < p
    weights = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, iu[0].size)
    adj[iu] = np.where(present, weights, np.inf)
    order = rng.permutation(n)
    u, v = np.minimum(order[:-1], order[1:]), np.maximum(order[:-1], order[1:])
    chain = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, n - 1)
    adj[u, v] = np.minimum(adj[u, v], chain)
    adj = np.minimum(adj, adj.T)
    np.fill_diagonal(adj, 0.0)
    return adj


class ServeStream:
    """Infinite, seeded client request stream for the serving workload.

    Every ``routes_per_update + 1``-th request is a single-edge update, the
    rest are route queries.  Sources are Zipf-skewed over a seeded vertex
    ranking — weight ``(rank + zipf_q) ** -zipf_s``, whose offset keeps the
    head from resting on one or two vertices — and destinations uniform.  Every ``worsen_every``-th update raises
    the weight of an existing edge; the others improve an edge (insert a
    missing one or lower an existing one).  The stream keeps its own copy of
    the adjacency, so each update is classified against the graph as it is
    when the update is sent, and the copy is the reference the correctness
    gate folds paths against.
    """

    def __init__(self, adjacency: np.ndarray, seed: int, *,
                 zipf_s: float, zipf_q: float, routes_per_update: int,
                 worsen_every: int) -> None:
        self.adjacency = adjacency.copy()
        self.n = adjacency.shape[0]
        self._rng = np.random.default_rng([seed, self.n, 0x5E])
        ranks = np.arange(1, self.n + 1, dtype=np.float64)
        weights = (ranks + zipf_q) ** -zipf_s
        self._source_cdf = np.cumsum(weights / weights.sum())
        self._source_of_rank = self._rng.permutation(self.n)
        self._period = routes_per_update + 1
        self._worsen_every = worsen_every
        self._sent = 0
        self._updates = 0

    def __iter__(self):
        return self

    def __next__(self) -> tuple:
        """Return ``("route", src, dst)`` or ``("update", u, v, weight, worsens)``."""
        self._sent += 1
        if self._sent % self._period:
            rank = int(np.searchsorted(self._source_cdf, self._rng.random()))
            src = int(self._source_of_rank[min(rank, self.n - 1)])
            return ("route", src, int(self._rng.integers(self.n)))
        self._updates += 1
        worsens = self._updates % self._worsen_every == 0
        u, v, weight = self._worsening() if worsens else self._improvement()
        self.adjacency[u, v] = self.adjacency[v, u] = weight
        return ("update", u, v, weight, worsens)

    def _improvement(self) -> tuple[int, int, float]:
        u, v = (int(x) for x in self._rng.choice(self.n, 2, replace=False))
        current = self.adjacency[u, v]
        if np.isinf(current):
            weight = float(self._rng.uniform(WEIGHT_LOW, WEIGHT_HIGH))
        else:
            weight = float(current * self._rng.uniform(0.5, 0.9))
        return u, v, weight

    def _worsening(self) -> tuple[int, int, float]:
        while True:
            u = int(self._rng.integers(self.n))
            row = self.adjacency[u]
            neighbours = np.flatnonzero(np.isfinite(row) & (row > 0))
            if neighbours.size:
                break
        v = int(neighbours[self._rng.integers(neighbours.size)])
        return u, v, float(row[v] * self._rng.uniform(1.5, 3.0))
