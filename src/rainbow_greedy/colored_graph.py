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
        if len(arr):
            # reductions find a failing check; its mask is built only to
            # name the first edge that fails it
            if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
                _reject(arr, (u < 0) | (u >= n) | (v < 0) | (v >= n),
                        "endpoint out of range")
            if (u == v).any():
                _reject(arr, u == v, "self loop")
            if color.min() < 1 or color.max() > q:
                _reject(arr, (color < 1) | (color > q), f"color outside 1..{q}")
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


def _reject(arr: np.ndarray, bad: np.ndarray, what: str):
    eid = int(np.argmax(bad))
    raise ValueError(f"edge {eid} {tuple(arr[eid].tolist())}: {what}")


def _pairs(rng: np.random.Generator, n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """size iid uniform pairs (u, v), u < v, of n >= 2 vertices."""
    a = rng.integers(n, size=size)
    b = rng.integers(n - 1, size=size)
    b += b >= a
    return np.minimum(a, b), np.maximum(a, b)


def _distinct_pairs(rng: np.random.Generator, n: int,
                    m: int) -> tuple[np.ndarray, np.ndarray]:
    """m distinct pairs (u, v), u < v, of n vertices, for 0 < 2m <= n(n-1)/2.

    It draws m iid uniform pairs and redraws each one that repeats a pair
    held elsewhere (at an earlier place in the first draw, at a kept place,
    or at an earlier place among one round's redraws) until none does.
    Which places are redrawn depends only on which draws are equal, so the
    process commutes with every permutation of the pairs. Those act
    transitively on ordered lists of m distinct pairs, so the result is a
    uniform m-subset in uniform order: the law of a draw without
    replacement. About m^2 / (n(n-1)) pairs repeat in the first draw
    (c^2 / 4 at m = cn/2); each redraw repeats with chance below 1/2.
    """
    u, v = _pairs(rng, n, m)
    key = u * n + v
    held = np.sort(key)
    repeats = held[1:][held[1:] == held[:-1]]
    if not repeats.size:
        return u, v
    at = np.flatnonzero(np.isin(key, repeats))
    redo = np.delete(at, np.unique(key[at], return_index=True)[1])
    while redo.size:
        u[redo], v[redo] = _pairs(rng, n, redo.size)
        new = key[redo] = u[redo] * n + v[redo]
        repeat = np.ones(redo.size, dtype=bool)
        repeat[np.unique(new, return_index=True)[1]] = False
        repeat |= held[np.searchsorted(held, new).clip(max=held.size - 1)] == new
        kept = np.sort(new[~repeat])
        held = np.insert(held, np.searchsorted(held, kept), kept)
        redo = redo[repeat]
    return u, v


def generate(n: int, m: int, q: int, seed: int) -> ColoredGraph:
    """Uniform simple graph on n vertices with m edges, colors iid in 1..q.

    The edge list is a uniform m-subset of vertex pairs in uniform order;
    each edge gets an independent uniform color. Deterministic in seed.
    Up to half of all pairs, the pairs are drawn iid and repeats redrawn
    (_distinct_pairs has the law); above that, redraws would take long,
    and generate chooses m of the listed pairs without replacement.
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
    if not m:   # nothing to draw, and q may be 0
        return ColoredGraph(n, q, np.zeros((0, 3), dtype=np.int64), seed=seed)

    rng = np.random.default_rng(seed)
    if 2 * m > max_m:
        pick = rng.choice(max_m, m, replace=False)
        pairs = [side[pick] for side in np.triu_indices(n, 1)]
    else:
        pairs = _distinct_pairs(rng, n, m)
    edges = np.stack([*pairs, rng.integers(1, q + 1, size=m)], axis=1)
    del pairs   # ColoredGraph copies the edges; this lowers the peak
    return ColoredGraph(n, q, edges, seed=seed)
