"""Randomly edge-colored graphs, stored as immutable integer arrays.

A ColoredGraph is one instance: n vertices, q colors and m edges
(u, v, color). The engines read it and never change it, so one graph can
be run any number of times.

Vertices are 0-based ids, colors are 1-based, edge ids index ColoredGraph.edges.
A graph lives in memory only: generate draws it from a seed, which is
all it takes to draw it again.
"""

from __future__ import annotations

import numpy as np


class ColoredGraph:
    """Colored graph instance: n_initial vertices, q_total colors, and
    edges, a read-only (m, 3) int64 array of (u, v, color) rows.

    Nothing changes it after construction.
    """

    __slots__ = ("n_initial", "m_initial", "q_total", "seed", "edges")

    def __init__(self, n: int, q: int, edges, seed: int | None = None):
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        if q < 0:
            raise ValueError(f"negative color count q={q}")
        arr = np.array(edges, dtype=np.int64).reshape(len(edges), 3)
        if len(arr) and q < 1:
            raise ValueError("q=0 with a nonempty edge set")
        u, v, color = arr.T
        checks = (((u < 0) | (u >= n) | (v < 0) | (v >= n), "endpoint out of range"),
                  (u == v, "self loop"),
                  ((color < 1) | (color > q), f"color outside 1..{q}"))
        for bad, what in checks:
            if bad.any():
                eid = int(np.argmax(bad))
                raise ValueError(f"edge {eid} {tuple(arr[eid].tolist())}: {what}")
        key = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        dup = key[1:][key[1:] == key[:-1]]
        if dup.size:
            raise ValueError(f"duplicate edge {divmod(int(dup[0]), n)}")
        self.n_initial = n
        self.m_initial = len(arr)
        self.q_total = q
        self.seed = seed
        arr.flags.writeable = False
        self.edges = arr


def _pair_from_index(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair (u, v), u < v, at index k = v(v-1)/2 + u of the list
    (0,1), (0,2), (1,2), (0,3), ...; the first n(n-1)/2 indices are the
    pairs of vertices 0..n-1."""
    v = np.floor((1 + np.sqrt(1 + 8 * k.astype(np.float64))) / 2).astype(np.int64)
    # the float root can land one off either way at a triangular number
    v -= v * (v - 1) // 2 > k
    v += (v + 1) * v // 2 <= k
    return k - v * (v - 1) // 2, v


def generate(n: int, m: int, q: int, seed: int) -> ColoredGraph:
    """Uniform simple graph on n vertices with m edges, colors iid in 1..q.

    The edge set is a uniform m-subset of vertex pairs; each edge gets an
    independent uniform color. Deterministic in seed.
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    max_m = n * (n - 1) // 2
    if not 0 <= m <= max_m:
        raise ValueError(f"m={m} outside 0..{max_m} for n={n}")
    if m > 0 and q < 1:
        raise ValueError("q must be >= 1 when m > 0")
    if q < 0:
        raise ValueError(f"negative color count q={q}")

    rng = np.random.default_rng(seed)
    u, v = _pair_from_index(rng.choice(max_m, m, replace=False))
    color = rng.integers(1, q + 1, size=m) if m else np.zeros(0, np.int64)
    return ColoredGraph(n, q, np.stack([u, v, color], axis=1), seed=seed)
