"""The two greedy rainbow-matching heuristics, run as first-fit scans.

run_greedy matches a uniform remaining edge each step. run_modified_greedy
draws a uniform remaining vertex; an isolated vertex is simply discarded
(that still counts as a step), otherwise the vertex is matched along a
uniform remaining incident edge. In both cases matching an edge deletes
both endpoints and the whole color class of the matched edge, so the
matching is rainbow by construction. The engines never change the graph.

Each engine takes what a first-fit scan of a random edge order takes:
every edge whose endpoints and color are still free. Greedy scans a
uniform edge order. Modified greedy gives the vertices uniform turns
and lists each edge at its endpoint with the earlier turn, in turn
order, then in a uniform order within each vertex's list, which iid
tie-break bits give: at a vertex's turn its edges to earlier-turn
vertices are already dead, and it takes the first free edge of the
rest. _first_fit runs a scan in rounds of
numpy work over a window of the order's first live edges, at most
max(1024, n // 16) of them, refilled as edges resolve. It takes the
graph and the order, and gathers each window's rows from the graph
through the order: no engine copies the graph into scan order. It reads
each edge of the order once; on the engines' orders at n >= 10^4 the
windows of all rounds held fewer than m edges in total. An adversarial
order (a path scanned end to end) still needs about m/2 rounds. The
README has the details.

Each engine takes an integer run seed; np.random.default_rng(run_seed)
makes every draw, so the graph and the seed fix the result, and the
result echoes the seed.

A result holds what a sweep records: mu, steps_total and
isolated_deletions, counted in O(mu) from the matched edges, and the graph
edge ids of the matching as a (mu,) int64 array in the order matched;
verify_result takes the ids as the proof that each matched edge is in the
graph. It keeps a reference to the graph it ran on, so the graph stays
alive while the result does, and the modified engine's result also keeps
its vertex turn order (n ids). Two fields are derived on read:
matching, the (mu, 3) int64 rows (u, v, color) graph.edges[edge_ids],
gathered at each read; and trajectory, a (steps_total + 1, 4) int64 array
with one row (t, nu, mu_edges, q_remaining) per step t = 0..steps_total
(step count, alive vertices, alive edges, unconsumed colors), built in
O(n + m) the first time it is read and kept. A caller that wants fewer
rows slices it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .colored_graph import ColoredGraph

# edges per chunk of _trajectory's death count, at least
_CHUNK = 1 << 16
# fewest tie-break bits the modified engine's sort key may hold, so that
# ties, which it breaks by drawing again, stay rare
_MIN_TIE_BITS = 8

# eq=False: the generated == would compare the arrays elementwise
@dataclass(eq=False)
class MatchingResult:
    algorithm: str
    n: int
    m: int
    q: int
    graph_seed: int | None
    run_seed: int
    edge_ids: np.ndarray      # (mu,) int64 graph edge ids, in the order matched
    mu: int
    steps_total: int
    isolated_deletions: int
    graph: ColoredGraph = field(repr=False)   # the graph run on, not a copy
    # the modified engine's vertices in turn order; None for greedy
    vertices: np.ndarray | None = field(default=None, repr=False)

    @property
    def matching(self) -> np.ndarray:
        """(mu, 3) int64 rows (u, v, color) in the order matched,
        graph.edges[edge_ids], gathered at each read."""
        return self.graph.edges[self.edge_ids]

    @functools.cached_property
    def trajectory(self) -> np.ndarray:
        """(steps_total + 1, 4) int64 rows (t, nu, mu_edges, q_remaining),
        built the first time it is read."""
        if self.vertices is None:   # greedy matches one edge per step
            return _trajectory(self.graph, self.edge_ids,
                               np.arange(1, self.mu + 1), [])
        return _trajectory(self.graph, self.edge_ids,
                           *_schedule(self.graph.edges, self.edge_ids, self.vertices))


@dataclass
class VerifyReport:
    ok: bool
    failure: str | None = None


def _trajectory(g: ColoredGraph, taken: np.ndarray, taken_step: np.ndarray,
                processed: np.ndarray | list[int]) -> np.ndarray:
    """The trajectory of a run from the matched edge ids, the step that
    matched each, and the vertices processed at steps 1, 2, ... in order.

    A vertex dies at the step that processes or matches it, a color at
    the step that matches it, and an edge with the first of its endpoints
    or its color. The run ends at the last edge death; later steps could
    only delete isolated vertices and are not part of the process.
    """
    n, q, e = g.n_initial, g.q_total, g.edges
    m = len(e)
    u, v, color = e.take(taken, axis=0).T
    # steps run up to n + 1; int32 makes the gathers and minimum below
    # cheaper (np.bincount casts it back to intp on its own)
    step = np.int32 if n < 2 ** 31 - 1 else np.int64
    vertex_step = np.full(n, n + 1, dtype=step)
    vertex_step[processed] = np.arange(1, len(processed) + 1)
    vertex_step[u] = taken_step
    vertex_step[v] = taken_step
    color_step = np.full(q + 1, n + 1, dtype=step)
    color_step[color] = taken_step

    def deaths(rows: np.ndarray) -> np.ndarray:
        """Number of the rows' edges that die at each step 0..n+1."""
        death = vertex_step[rows[:, 0]]
        np.minimum(death, vertex_step[rows[:, 1]], out=death)
        np.minimum(death, color_step[rows[:, 2]], out=death)
        return np.bincount(death, minlength=n + 2)

    # counted over chunks of edges: no temporary holds a value per edge,
    # and chunks of at least n / 2 edges keep the (n + 2)-long counts to
    # about c per run
    chunk = max(_CHUNK, n // 2)
    died = deaths(e[:chunk])
    for lo in range(chunk, m, chunk):
        died += deaths(e[lo:lo + chunk])
    t_end = int(died.nonzero()[0][-1]) if m else 0

    trajectory = np.empty((t_end + 1, 4), dtype=np.int64)
    trajectory[:, 0] = np.arange(t_end + 1)

    def alive(col: int, total: int, died_at: np.ndarray):
        out = trajectory[:, col]
        died_at[:t_end + 1].cumsum(out=out)
        np.subtract(total, out, out=out)

    alive(2, m, died)
    del died
    alive(1, n, np.bincount(vertex_step, minlength=t_end + 1))
    alive(3, q, np.bincount(taken_step, minlength=t_end + 1))
    return trajectory


def _schedule(e: np.ndarray, taken: np.ndarray, vertices: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """The step that matched each of a modified run's taken edges, and the
    vertices processed at steps 1, 2, ..., from its vertex turn order.

    A matched edge's later endpoint skips its turn; the edge is matched at
    the step that processes its earlier endpoint.
    """
    n = len(vertices)
    turn = np.empty(n, dtype=np.int64)
    turn[vertices] = np.arange(n)
    early, late = _turns(e, taken, turn)
    del turn
    processed = np.ones(n, dtype=bool)
    processed[late] = False
    return processed.cumsum()[early], vertices[processed]


def _turns(e: np.ndarray, taken: np.ndarray, turn: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """The earlier and the later of each taken edge's endpoint turns."""
    rows = e.take(taken, axis=0)
    u, v = turn[rows[:, 0]], turn[rows[:, 1]]
    return np.minimum(u, v), np.maximum(u, v)


def _first_fit(edges: np.ndarray, order: np.ndarray, n: int, q: int) -> np.ndarray:
    """Places, ascending, in `order` of the rows that a first-fit scan of
    the (u, v, color) rows edges[order] over n vertices and q colors takes.

    It works in rounds over a window: the first live rows of the order,
    at most max(1024, n // 16) of them, gathered from edges through the
    order. Every earlier row is in the window or dead, and every later row
    is unread, so a window row that comes first in the window at both
    endpoints and at its color is one the scan takes. A round takes all
    such rows, marks their vertices and colors dead, drops the window rows
    with a dead end, and refills the window from the order, dropping dead
    rows on the way in; each row enters the window at most once.
    """
    m = len(order)
    # of widths m/4 ... m/64 and n/4 ... n/32, n // 16 was within 12 % of the
    # fastest on the engines' orders at n = 10^5 and 10^6; the floor keeps
    # small graphs to one window
    width = max(1024, n // 16)
    # vertices at 0..n-1, colors at n+1..n+q; low holds m where unset
    low = np.full(n + q + 1, m)
    dead = np.zeros(n + q + 1, dtype=bool)
    taken = np.zeros(m, dtype=bool)
    shift = np.array([[0], [0], [n]])

    def gather(lo: int, hi: int) -> np.ndarray:
        """Rows order[lo:hi] as a (3, hi - lo) array of shifted ends."""
        return np.add(edges.take(order[lo:hi], axis=0).T, shift, order="C")

    end = min(width, m)
    rows = np.arange(end)
    ends = gather(0, end)
    while rows.size or end < m:
        np.minimum.at(low, ends.ravel(), np.concatenate((rows, rows, rows)))
        hit = (low[ends].min(axis=0) == rows).nonzero()[0]
        low[ends] = m
        taken[rows.take(hit)] = True
        dead[ends.take(hit, axis=1)] = True
        keep = (~dead[ends].any(axis=0)).nonzero()[0]
        rows, ends = rows.take(keep), ends.take(keep, axis=1)
        if end < m:
            more = gather(end, end + width - rows.size)
            fresh = (~dead[more].any(axis=0)).nonzero()[0]
            rows = np.concatenate((rows, end + fresh))
            ends = np.concatenate((ends, more.take(fresh, axis=1)), axis=1)
            end += more.shape[1]
    return taken.nonzero()[0]


def run_greedy(g: ColoredGraph, run_seed: int) -> MatchingResult:
    """Match a uniform remaining edge per step until no edges remain."""
    gen = np.random.default_rng(run_seed)
    order = gen.permutation(g.m_initial)
    taken = order[_first_fit(g.edges, order, g.n_initial, g.q_total)]
    del order
    # every step matches an edge, and the last match kills the last edge
    mu = len(taken)
    return MatchingResult(
        algorithm="greedy", n=g.n_initial, m=g.m_initial, q=g.q_total,
        graph_seed=g.seed, run_seed=run_seed, edge_ids=taken, mu=mu,
        steps_total=mu, isolated_deletions=0, graph=g)


def run_modified_greedy(g: ColoredGraph, run_seed: int) -> MatchingResult:
    """Match from a uniform remaining vertex per step while edges remain.

    A vertex with no remaining edge is deleted and counts as a step.
    Otherwise it is matched along a uniform remaining incident edge, and
    both endpoints and the color class are deleted.
    """
    n, e = g.n_initial, g.edges
    m = len(e)
    rb, ib = _tie_bits(n, m), (m - 1).bit_length()
    gen = np.random.default_rng(run_seed)
    vertices = gen.permutation(n)
    turn = np.empty(n, dtype=np.int64)
    turn[vertices] = np.arange(n)
    # edges by their earlier endpoint's turn, then by iid tie-break bits,
    # which put each vertex's list in uniform order: the scan reads an edge
    # only at its earlier endpoint, so the lists that are read are disjoint,
    # each in uniform order, independent of each other and of the turns.
    # One int64 key per edge packs (turn, tie-break, edge id); it is built,
    # sorted and decoded in place.
    key = turn[e[:, 0]]
    np.minimum(key, turn[e[:, 1]], out=key)
    key <<= rb
    key += gen.integers(1 << rb, size=m)
    key <<= ib
    key += np.arange(m)
    key.sort()
    _break_ties(key, rb, ib, gen)
    key &= (1 << ib) - 1   # the edge ids, in scan order
    taken = key[_first_fit(e, key, n, g.q_total)]
    del key
    # Edges die only at the steps that match: a vertex deleted as isolated
    # has no live edge left. So the run ends at the step of the last match,
    # the one at the latest earlier-endpoint turn w of a matched edge. The
    # steps up to it process the turns 0..w, less those of the matched
    # edges' later endpoints, which skip their turns.
    mu = len(taken)
    steps = 0
    if mu:
        early, late = _turns(e, taken, turn)
        w = int(early.max())
        steps = w + 1 - int(np.count_nonzero(late <= w))
    return MatchingResult(
        algorithm="modified", n=n, m=m, q=g.q_total, graph_seed=g.seed,
        run_seed=run_seed, edge_ids=taken, mu=mu, steps_total=steps,
        isolated_deletions=steps - mu, graph=g, vertices=vertices)


def _tie_bits(n: int, m: int) -> int:
    """Tie-break bits of the modified engine's sort key over n vertices
    and m edges: what 63 bits leave beside the turn and the edge id."""
    rb = 63 - (n - 1).bit_length() - (m - 1).bit_length()
    if rb < _MIN_TIE_BITS:
        raise ValueError(
            f"n={n} and m={m} leave {rb} tie-break bits in the modified "
            f"engine's 63-bit sort key; it needs {_MIN_TIE_BITS} "
            f"(n * m below about 2**55)")
    return rb


def _break_ties(key: np.ndarray, rb: int, ib: int, gen: np.random.Generator):
    """Order, in place and uniformly, each run of sorted keys that share
    their (turn, tie-break) prefix, the bits above the low ib.

    Each edge of a run draws one more rb-bit digit, and the run is sorted
    by it; edges that tie again draw again. Every edge thus holds a
    sequence of iid digits, read only as far as needed, and the order is
    theirs lexicographically: uniform within each list, whatever its
    length. Only the slots of tied runs are touched.
    """
    step = np.bitwise_xor(key[1:], key[:-1])
    if not step.size or step.min() >> ib:   # the common case: no prefix repeats
        return
    slots, run = _tied_runs(step < 1 << ib)
    del step
    while slots.size:
        digit = gen.integers(1 << rb, size=slots.size)
        by = np.lexsort((digit, run))   # the runs stay in place
        key[slots] = key[slots[by]]
        digit = digit[by]
        at, run = _tied_runs((run[1:] == run[:-1]) & (digit[1:] == digit[:-1]))
        slots = slots[at]


def _tied_runs(same: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Places of the items in runs of equal neighbours, ascending, and a
    run label for each, from same[i]: item i equals item i + 1."""
    pair = np.flatnonzero(same)
    at = np.union1d(pair, pair + 1)
    return at, np.cumsum(~np.isin(at - 1, pair))


def verify_result(g0: ColoredGraph, result: MatchingResult) -> VerifyReport:
    """Check a result against the original graph it was produced from.

    The edge ids are the certificate that the matching is in the graph:
    each must be in range, and the graph edges they name are the matched
    rows. On those rows it confirms that endpoints are pairwise disjoint
    (a repeated id repeats its vertices), colors are pairwise distinct,
    the matching is maximal (no edge has both endpoints unmatched and an
    unused color), and the counters are mutually consistent. Reports the
    first failing check.
    """
    ids = np.asarray(result.edge_ids)
    if ids.shape != (result.mu,) or ids.dtype.kind not in "iu":
        return VerifyReport(False, f"malformed result: mu={result.mu}, edge_ids "
                                   f"shape {ids.shape} dtype {ids.dtype}")
    if result.steps_total != result.isolated_deletions + result.mu:
        return VerifyReport(False, "steps_total != isolated_deletions + mu")

    e = g0.edges
    i = _first((ids < 0) | (ids >= len(e)))
    if i is not None:
        return VerifyReport(False, f"edge id {ids[i]} out of range for {len(e)} edges")
    rows = e[ids]
    degree = np.bincount(rows[:, :2].ravel(), minlength=g0.n_initial)
    i = _first(degree > 1)
    if i is not None:
        return VerifyReport(False, f"not a matching: vertex {i} is in {degree[i]} "
                                   f"matched edges")
    uses = np.bincount(rows[:, 2], minlength=g0.q_total + 1)
    i = _first(uses > 1)
    if i is not None:
        return VerifyReport(False, f"not rainbow: color {i} repeated")
    # maximality on bool masks: one byte per edge, not eight
    free_vertex, free_color = degree == 0, uses == 0
    free = free_vertex[e[:, 0]]
    free &= free_vertex[e[:, 1]]
    free &= free_color[e[:, 2]]
    free = np.flatnonzero(free)
    if free.size:
        return VerifyReport(False, f"not maximal: {free.size} edges such as "
                                   f"{tuple(e[free[0]].tolist())} have both endpoints "
                                   f"unmatched and an unused color")
    return VerifyReport(True)


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None
