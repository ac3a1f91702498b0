"""Randomly edge-colored graphs, stored as immutable integer arrays.

A ColoredGraph is one instance: n vertices, q colors and m edges
(u, v, color). The engines read it and never change it, so one graph can
be run any number of times.

Vertices are 0-based ids, colors are 1-based, edge ids index ColoredGraph.edges.
A graph lives in memory only: generate draws it from a seed, which is
all it takes to draw it again. The constructor checks outside input
fully; generate checks its own graph once, without a second sort of its
pair keys where its redraws already found none to repeat.
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
        self._adopt(n, q, np.array(edges, dtype=np.int64).reshape(len(edges), 3),
                    seed)

    def _adopt(self, n: int, q: int, arr: np.ndarray, seed: int | None,
               distinct: bool = False):
        """Check arr, an (m, 3) int64 array that no one else holds, and
        keep it as the edges without a copy. distinct says that the caller
        has already found no pair to repeat; the duplicate check, a sort of
        all m pair keys, is then skipped."""
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
        if not distinct:
            # the pair key min(u, v) * n + max(u, v), built in place as
            # min(u, v) * (n - 1) + u + v (each partial sum is at most the
            # key, below n^2) and sorted in place
            key = np.minimum(u, v)
            key *= n - 1
            key += u
            key += v
            key.sort()
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


def _pairs(rng: np.random.Generator, n: int, out: np.ndarray) -> None:
    """Write len(out) iid uniform pairs (u, v), u < v, of n >= 2 vertices
    into the two columns of out."""
    a = rng.integers(n, size=len(out))
    b = rng.integers(n - 1, size=len(out))
    b += b >= a
    np.minimum(a, b, out=out[:, 0])
    np.maximum(a, b, out=out[:, 1])


def _distinct_pairs(rng: np.random.Generator, n: int, out: np.ndarray) -> None:
    """Write m = len(out) distinct pairs (u, v), u < v, of n vertices into
    the two columns of out, for 0 < 2m <= n(n-1)/2.

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
    _pairs(rng, n, out)
    key = out[:, 0] * n
    key += out[:, 1]
    held = np.sort(key)
    repeats = held[1:][held[1:] == held[:-1]]
    if not repeats.size:
        return
    at = np.flatnonzero(np.isin(key, repeats))
    redo = np.delete(at, np.unique(key[at], return_index=True)[1])
    del key   # only the redrawn keys are needed from here on
    # the keys held are those of held and of the few redraws kept, which
    # are kept apart so that held, m long, is never copied
    kept = held[:0]
    while redo.size:
        pair = np.empty((redo.size, 2), dtype=np.int64)
        _pairs(rng, n, pair)
        out[redo] = pair
        new = pair[:, 0] * n + pair[:, 1]
        repeat = np.ones(redo.size, dtype=bool)
        repeat[np.unique(new, return_index=True)[1]] = False
        repeat |= held[np.searchsorted(held, new).clip(max=held.size - 1)] == new
        repeat |= np.isin(new, kept)
        kept = np.concatenate((kept, new[~repeat]))
        redo = redo[repeat]


def generate(n: int, m: int, q: int, seed: int) -> ColoredGraph:
    """Uniform simple graph on n vertices with m edges, colors iid in 1..q.

    The edge list is a uniform m-subset of vertex pairs in uniform order;
    each edge gets an independent uniform color. Deterministic in seed.
    Up to half of all pairs, the pairs are drawn iid and repeats redrawn
    (_distinct_pairs has the law); above that, redraws would take long,
    and generate chooses m of the listed pairs without replacement.

    The graph is checked once. Its rows are checked for range, self loops
    and colors, as the constructor checks any input. For duplicates, the
    redraw path relies on _distinct_pairs, which returns only once no
    pair repeats; the pairs chosen from the list are sorted and checked.
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
    # pairs and colors are drawn into the graph's own array, which the
    # graph then keeps, checked but not copied
    edges = np.empty((m, 3), dtype=np.int64)
    if 2 * m > max_m:
        pick = rng.choice(max_m, m, replace=False)
        for col, side in enumerate(np.triu_indices(n, 1)):
            edges[:, col] = side[pick]
    else:
        _distinct_pairs(rng, n, edges[:, :2])
    edges[:, 2] = rng.integers(1, q + 1, size=m)
    g = ColoredGraph.__new__(ColoredGraph)
    # _distinct_pairs returns only once no pair repeats, which is the
    # duplicate check of its pairs; rng.choice's are checked like any input
    g._adopt(n, q, edges, seed, distinct=2 * m <= max_m)
    return g
