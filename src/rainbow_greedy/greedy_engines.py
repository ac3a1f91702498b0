"""The two greedy rainbow-matching heuristics, in random-order form.

run_greedy matches a uniform remaining edge each step. run_modified_greedy
draws a uniform remaining vertex; an isolated vertex is simply discarded
(that still counts as a step), otherwise the vertex is matched along a
uniform remaining incident edge. In both cases matching an edge deletes
both endpoints and the whole color class of the matched edge, so the
matching is rainbow by construction. The engines sample these processes
exactly by scanning random orders (see the README) and never change the
graph.

Trajectories are sampled every `sample_stride` steps as rows
(t, nu, mu_edges, q_remaining): step count, alive vertices, alive edges,
unconsumed colors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .colored_graph import ColoredGraph

TRAJECTORY_HEADER = "t,nu,mu_edges,q_remaining"


@dataclass
class MatchingResult:
    algorithm: str
    n: int
    m: int
    q: int
    graph_seed: int | None
    run_seed: int | None
    sample_stride: int
    matching: list[tuple[int, int, int]]
    mu: int
    steps_total: int
    isolated_deletions: int
    trajectory: list[tuple[int, int, int, int]] = field(repr=False)

    def trajectory_csv(self) -> str:
        lines = [TRAJECTORY_HEADER]
        lines.extend(f"{t},{nu},{mu},{qr}" for (t, nu, mu, qr) in self.trajectory)
        return "\n".join(lines) + "\n"


@dataclass
class VerifyReport:
    ok: bool
    failure: str | None = None


def _resolve_rng(rng: random.Random | int) -> tuple[np.random.Generator, int | None]:
    if isinstance(rng, random.Random):
        return np.random.default_rng(rng.getrandbits(128)), None
    return np.random.default_rng(rng), rng


def _resolve_stride(n: int, sample_stride: int | None) -> int:
    stride = max(1, round(n / 1000)) if sample_stride is None else sample_stride
    if stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {stride}")
    return stride


def _result(algorithm: str, g: ColoredGraph, run_seed: int | None, stride: int,
            taken: list[int] | np.ndarray, taken_step: list[int] | np.ndarray,
            processed: list[int]) -> MatchingResult:
    """Assemble a result from the matched edge ids, the step that matched
    each, and the vertices processed at steps 1, 2, ... in order.

    A vertex dies at the step that processes or matches it, a color at
    the step that matches it, and an edge with the first of its endpoints
    or its color. The run ends at the last edge death; later steps could
    only delete isolated vertices and are not part of the process.
    """
    n, q, e = g.n_initial, g.q_total, g.edges.array
    taken_step = np.asarray(taken_step, dtype=np.int64)
    vertex_step = np.full(n, n + 1, dtype=np.int64)
    vertex_step[processed] = np.arange(1, len(processed) + 1)
    vertex_step[e[taken, 0]] = taken_step
    vertex_step[e[taken, 1]] = taken_step
    color_step = np.full(q + 1, n + 1, dtype=np.int64)
    color_step[e[taken, 2]] = taken_step
    death = np.minimum(np.minimum(vertex_step[e[:, 0]], vertex_step[e[:, 1]]),
                       color_step[e[:, 2]])
    t_end = int(death.max()) if len(e) else 0

    def alive(total: int, steps: np.ndarray) -> np.ndarray:
        died = np.bincount(steps[steps <= t_end], minlength=t_end + 1)
        return total - np.cumsum(died)

    ts = np.arange(0, t_end + 1, stride)
    if ts[-1] != t_end:
        ts = np.append(ts, t_end)
    rows = np.stack([ts, alive(n, vertex_step)[ts], alive(len(e), death)[ts],
                     alive(q, taken_step)[ts]], axis=1)
    return MatchingResult(
        algorithm=algorithm, n=n, m=len(e), q=q, graph_seed=g.seed,
        run_seed=run_seed, sample_stride=stride,
        matching=list(map(tuple, e[taken].tolist())), mu=len(taken),
        steps_total=t_end, isolated_deletions=t_end - len(taken),
        trajectory=list(map(tuple, rows.tolist())),
    )


def run_greedy(g: ColoredGraph, rng: random.Random | int,
               sample_stride: int | None = None) -> MatchingResult:
    """Match a uniform remaining edge per step until no edges remain.

    Scans a uniform random order of all edges and takes an edge when both
    endpoints and its color are still free.
    """
    gen, run_seed = _resolve_rng(rng)
    stride = _resolve_stride(g.n_initial, sample_stride)
    e = g.edges.array
    order = gen.permutation(len(e))
    vertex_free = bytearray(b"\x01") * g.n_initial
    color_free = bytearray(b"\x01") * (g.q_total + 1)
    taken = []
    for eid, u, v, c in zip(order.tolist(), *e[order].T.tolist()):
        if vertex_free[u] and vertex_free[v] and color_free[c]:
            vertex_free[u] = vertex_free[v] = color_free[c] = 0
            taken.append(eid)
    return _result("greedy", g, run_seed, stride, taken,
                   np.arange(1, len(taken) + 1), [])


def run_modified_greedy(g: ColoredGraph, rng: random.Random | int,
                        sample_stride: int | None = None) -> MatchingResult:
    """Match from a uniform remaining vertex per step while edges remain.

    A vertex with no remaining edge is deleted and counts as a step.
    Otherwise it is matched along a uniform remaining incident edge, and
    both endpoints and the color class are deleted. Scans a uniform random
    order of the vertices; each vertex takes the first remaining edge of
    its incidence list, shuffled once.
    """
    gen, run_seed = _resolve_rng(rng)
    stride = _resolve_stride(g.n_initial, sample_stride)
    n, e = g.n_initial, g.edges.array
    # half-edge h is edge h // 2 seen from endpoint ends[h]; sorting by
    # endpoint with a uniform permutation as tie-break shuffles every
    # incidence list
    ends = e[:, :2].ravel()
    half = np.argsort(ends * len(ends) + gen.permutation(len(ends)))
    first = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=n)))).tolist()
    other = ends[half ^ 1].tolist()
    color = e[half // 2, 2].tolist()

    alive = bytearray(b"\x01") * n
    color_free = bytearray(b"\x01") * (g.q_total + 1)
    processed, taken, taken_step = [], [], []
    for v in gen.permutation(n).tolist():
        if not alive[v]:
            continue
        alive[v] = 0
        processed.append(v)
        for j in range(first[v], first[v + 1]):
            w = other[j]
            if alive[w] and color_free[color[j]]:
                alive[w] = color_free[color[j]] = 0
                taken.append(j)
                taken_step.append(len(processed))
                break
    return _result("modified", g, run_seed, stride, half[taken] // 2, taken_step,
                   processed)


def verify_result(g0: ColoredGraph, result: MatchingResult) -> VerifyReport:
    """Check a result against the original graph it was produced from.

    Confirms every matched edge exists with its claimed color, endpoints
    are pairwise disjoint, colors are pairwise distinct, the matching is
    maximal (no edge has both endpoints unmatched and an unused color), and
    the counters are mutually consistent. Reports the first violation of
    the first failing check.
    """
    if result.mu != len(result.matching):
        return VerifyReport(False, f"mu={result.mu} but matching has "
                                   f"{len(result.matching)} edges")
    if result.steps_total != result.isolated_deletions + result.mu:
        return VerifyReport(False, "steps_total != isolated_deletions + mu")

    n, e = g0.n_initial, g0.edges.array
    mt = np.array(result.matching, dtype=np.int64).reshape(len(result.matching), 3)
    lo, hi = np.minimum(mt[:, 0], mt[:, 1]), np.maximum(mt[:, 0], mt[:, 1])

    def pair(i: int) -> tuple[int, int]:
        return int(lo[i]), int(hi[i])

    keys = np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1])
    order = np.argsort(keys)
    want = lo * n + hi
    pos = np.searchsorted(keys[order], want)
    found = (lo >= 0) & (hi < n) & (pos < len(e))
    found[found] = keys[order[pos[found]]] == want[found]
    i = _first(~found)
    if i is not None:
        return VerifyReport(False, f"edge {pair(i)} not in the original graph")
    got = e[order[pos], 2]
    i = _first(got != mt[:, 2])
    if i is not None:
        return VerifyReport(False, f"edge {pair(i)} has color {got[i]}, "
                                   f"result claims {mt[i, 2]}")
    i = _first(_repeats(mt[:, :2].ravel()))
    if i is not None:
        return VerifyReport(False, f"not a matching: edge {pair(i // 2)} reuses a vertex")
    i = _first(_repeats(mt[:, 2]))
    if i is not None:
        return VerifyReport(False, f"not rainbow: color {mt[i, 2]} repeated")
    matched = np.zeros(n, dtype=bool)
    matched[mt[:, :2]] = True
    used = np.zeros(g0.q_total + 1, dtype=bool)
    used[mt[:, 2]] = True
    free = np.flatnonzero(~matched[e[:, 0]] & ~matched[e[:, 1]] & ~used[e[:, 2]])
    if free.size:
        return VerifyReport(False, f"not maximal: {free.size} edges such as "
                                   f"{g0.edges[free[0]]} have both endpoints "
                                   f"unmatched and an unused color")
    return VerifyReport(True)


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _repeats(values: np.ndarray) -> np.ndarray:
    """Mask of the entries equal to an earlier entry."""
    repeat = np.ones(len(values), dtype=bool)
    repeat[np.unique(values, return_index=True)[1]] = False
    return repeat
