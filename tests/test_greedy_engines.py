import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rainbow_greedy.colored_graph import ColoredGraph, generate
from rainbow_greedy.greedy_engines import (
    MatchingResult,
    _first_fit,
    run_greedy,
    run_modified_greedy,
    verify_result,
)


def fresh(seed=7, n=400, m=500, q=150):
    return generate(n, m, q, seed=seed)


def as_lists(r):
    """A result's fields, arrays as nested lists, to compare with ==."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(r).items()}


class TestGreedy:
    def test_empty_graph(self):
        r = run_greedy(generate(5, 0, 2, seed=1), 0)
        assert r.mu == 0
        assert r.steps_total == 0
        assert r.trajectory.tolist() == [[0, 5, 0, 2]]

    def test_triangle_distinct_colors(self):
        g = ColoredGraph(3, 3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
        r = run_greedy(g, 3)
        assert r.mu == 1
        assert r.steps_total == 1
        assert r.trajectory[-1][2] == 0

    def test_same_color_pair_yields_one_match(self):
        g = ColoredGraph(4, 1, [(0, 1, 1), (2, 3, 1)])
        r = run_greedy(g, 11)
        assert r.mu == 1

    def test_distinct_color_pair_yields_two(self):
        g = ColoredGraph(4, 2, [(0, 1, 1), (2, 3, 2)])
        r = run_greedy(g, 11)
        assert r.mu == 2

    def test_step_accounting(self):
        g = fresh()
        r = run_greedy(g, 5)
        assert r.isolated_deletions == 0
        assert r.steps_total == r.mu
        # each step consumes exactly one color
        for (t, nu, mu_edges, q_rem) in r.trajectory.tolist():
            assert q_rem == r.q - t
        mus = r.trajectory[:, 2].tolist()
        assert all(a > b for a, b in zip(mus, mus[1:]))

    def test_result_echo(self):
        g = fresh(seed=21)
        r = run_greedy(g, 5)
        assert (r.n, r.m, r.q) == (400, 500, 150)
        assert r.algorithm == "greedy"
        assert r.graph_seed == 21
        assert r.run_seed == 5

    def test_graph_is_reusable(self):
        g = fresh()
        assert as_lists(run_greedy(g, 5)) == as_lists(run_greedy(g, 5))
        assert np.array_equal(g.edges, fresh().edges)

    def test_determinism(self):
        a = run_greedy(fresh(), 99)
        b = run_greedy(fresh(), 99)
        assert as_lists(a) == as_lists(b)


class TestModified:
    def test_no_edges_means_no_steps(self):
        # isolated vertices are only consumed while edges remain
        r = run_modified_greedy(generate(5, 0, 2, seed=1), 0)
        assert r.mu == 0
        assert r.steps_total == 0
        assert r.isolated_deletions == 0

    def test_single_edge_with_bystanders(self):
        for seed in range(10):
            g = ColoredGraph(6, 1, [(2, 4, 1)])
            r = run_modified_greedy(g, seed)
            assert r.mu == 1
            assert r.matching.tolist() == [[2, 4, 1]]

    def test_star_matches_once(self):
        for seed in range(10):
            g = ColoredGraph(6, 5, [(0, i, i) for i in range(1, 6)])
            r = run_modified_greedy(g, seed)
            assert r.mu == 1

    def test_step_identity(self):
        r = run_modified_greedy(fresh(), 13)
        assert r.steps_total == r.isolated_deletions + r.mu

    def test_color_accounting_every_step(self):
        # q_remaining - q + n = nu + t at every sampled step, because each
        # step removes either one isolated vertex or two vertices plus one
        # color
        n, q = 400, 150
        r = run_modified_greedy(fresh(), 13)
        for (t, nu, mu_edges, q_rem) in r.trajectory.tolist():
            assert q_rem == t + nu + q - n

    def test_matched_count_equals_consumed_colors(self):
        n, q = 400, 150
        r = run_modified_greedy(fresh(), 29)
        for (t, nu, mu_edges, q_rem) in r.trajectory.tolist():
            matched_so_far = q - q_rem
            assert nu == n - t - matched_so_far

    def test_determinism(self):
        a = run_modified_greedy(fresh(), 99)
        b = run_modified_greedy(fresh(), 99)
        assert as_lists(a) == as_lists(b)

    def test_graph_is_reusable(self):
        g = fresh()
        assert as_lists(run_modified_greedy(g, 5)) == as_lists(run_modified_greedy(g, 5))
        assert np.array_equal(g.edges, fresh().edges)

    def test_result_echo(self):
        r = run_modified_greedy(fresh(seed=8), 5)
        assert r.algorithm == "modified"
        assert r.graph_seed == 8


class TestStride:
    """The trajectory holds every step; a caller that wants a stride
    slices it."""

    def test_final_state_always_sampled(self):
        r = run_greedy(fresh(), 3)
        assert r.trajectory.dtype == np.int64
        assert r.trajectory.shape == (r.steps_total + 1, 4)
        assert r.trajectory[:, 0].tolist() == list(range(r.steps_total + 1))
        assert r.trajectory[-1][2] == 0


# Bad certificates: each edits a greedy result in place.
def id_at_m(r):
    r.edge_ids[0] = r.m


def negative_id(r):
    r.edge_ids[0] = -1


def repeated_id(r):
    # a repeated id repeats its row, so it reuses that row's vertices
    r.edge_ids[1], r.matching[1] = r.edge_ids[0], r.matching[0]


def id_names_another_edge(r):
    r.edge_ids[:2] = r.edge_ids[1::-1].copy()


def row_claims_another_color(r):
    r.matching[0, 2] = r.matching[0, 2] % r.q + 1


BAD_CERTIFICATES = [
    (id_at_m, "edge id 500 out of range for 500 edges"),
    (negative_id, "edge id -1 out of range for 500 edges"),
    (repeated_id, "not a matching: vertex"),
    (id_names_another_edge, "is not graph edge id"),
    (row_claims_another_color, "is not graph edge id"),
]


class TestVerify:
    def test_passes_both_engines(self):
        for runner in (run_greedy, run_modified_greedy):
            r = runner(fresh(seed=31), 17)
            rep = verify_result(fresh(seed=31), r)
            assert rep.ok, rep.failure

    @pytest.mark.parametrize("corrupt, failure", BAD_CERTIFICATES,
                             ids=[corrupt.__name__ for corrupt, _ in BAD_CERTIFICATES])
    def test_flags_bad_certificate(self, corrupt, failure):
        g = fresh()
        r = run_greedy(g, 17)
        corrupt(r)
        rep = verify_result(g, r)
        assert not rep.ok
        assert failure in rep.failure

    def test_flags_vertex_reuse(self):
        g0 = ColoredGraph(3, 2, [(0, 1, 1), (1, 2, 2)])
        r = run_greedy(ColoredGraph(3, 2, [(0, 1, 1), (1, 2, 2)]), 0)
        r.matching = np.array([(0, 1, 1), (1, 2, 2)])
        r.edge_ids = np.array([0, 1])
        r.mu = 2
        r.steps_total = 2
        rep = verify_result(g0, r)
        assert not rep.ok
        assert "not a matching" in rep.failure

    def test_flags_repeated_color(self):
        g0 = ColoredGraph(4, 2, [(0, 1, 1), (2, 3, 1)])
        r = run_greedy(ColoredGraph(4, 2, [(0, 1, 1), (2, 3, 1)]), 0)
        r.matching = np.array([(0, 1, 1), (2, 3, 1)])
        r.edge_ids = np.array([0, 1])
        r.mu = 2
        r.steps_total = 2
        rep = verify_result(g0, r)
        assert not rep.ok
        assert "not rainbow" in rep.failure

    def test_flags_truncated_matching(self):
        g = fresh()
        for runner in (run_greedy, run_modified_greedy):
            r = runner(g, 17)
            r.matching = r.matching[:-1]
            r.edge_ids = r.edge_ids[:-1]
            r.mu -= 1
            r.steps_total -= 1
            rep = verify_result(g, r)
            assert not rep.ok
            assert "not maximal" in rep.failure

    def test_flags_mu_mismatch(self):
        r = run_greedy(fresh(), 17)
        r.mu += 1
        rep = verify_result(fresh(), r)
        assert not rep.ok

    def test_flags_malformed_result(self):
        g = fresh()
        r = run_greedy(g, 17)
        r.matching = r.matching[:, :2]
        rep = verify_result(g, r)
        assert not rep.ok
        assert "malformed result" in rep.failure and f"({r.mu}, 2)" in rep.failure
        r = run_greedy(generate(5, 0, 2, seed=1), 0)
        r.edge_ids = np.array([])
        rep = verify_result(generate(5, 0, 2, seed=1), r)
        assert not rep.ok
        assert "dtype float64" in rep.failure


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 50), m_frac=st.floats(0, 1), q=st.integers(1, 60),
       seed=st.integers(0, 10 ** 9), run_seed=st.integers(0, 10 ** 9))
def test_both_engines_terminate_and_verify(n, m_frac, q, seed, run_seed):
    m = int(m_frac * n * (n - 1) // 2)
    g = generate(n, m, q, seed=seed)
    for runner in (run_greedy, run_modified_greedy):
        r = runner(g, run_seed)
        assert r.trajectory[-1][2] == 0
        assert r.steps_total <= n + m
        rep = verify_result(g, r)
        assert rep.ok, rep.failure


class Replay:
    """Step-by-step bookkeeping of alive vertices, edges and colors, kept
    the way the process defines them, with a trajectory row every step."""

    def __init__(self, g):
        self.n, self.q = g.n_initial, g.q_total
        self.edges = list(map(tuple, g.edges.tolist()))
        self.vertex_alive = [True] * self.n
        self.color_free = [True] * (self.q + 1)
        self.edge_alive = [True] * len(self.edges)
        self.incident = [[] for _ in range(self.n + self.q + 1)]
        for eid, (u, v, c) in enumerate(self.edges):
            for x in (u, v, self.n + c):
                self.incident[x].append(eid)
        self.t, self.nu, self.mu_edges, self.q_remaining = 0, self.n, len(self.edges), self.q
        self.matching, self.edge_ids, self.isolated = [], [], 0
        self.rows = [self.row()]

    def row(self):
        return (self.t, self.nu, self.mu_edges, self.q_remaining)

    def kill(self, resource):
        for eid in self.incident[resource]:
            if self.edge_alive[eid]:
                self.edge_alive[eid] = False
                self.mu_edges -= 1

    def step(self, vertices, eid=None):
        self.t += 1
        for x in vertices:
            self.vertex_alive[x] = False
            self.nu -= 1
            self.kill(x)
        if eid is None:
            self.isolated += 1
        else:
            color = self.edges[eid][2]
            self.matching.append(self.edges[eid])
            self.edge_ids.append(eid)
            self.color_free[color] = False
            self.q_remaining -= 1
            self.kill(self.n + color)
        self.rows.append(self.row())

    def result(self, algorithm, g, run_seed):
        return MatchingResult(
            algorithm=algorithm, n=self.n, m=len(self.edges), q=self.q,
            graph_seed=g.seed, run_seed=run_seed,
            matching=np.array(self.matching, dtype=np.int64).reshape(-1, 3),
            edge_ids=np.array(self.edge_ids, dtype=np.int64),
            mu=len(self.matching), steps_total=self.t,
            isolated_deletions=self.isolated,
            trajectory=np.array(self.rows, dtype=np.int64))


def reference_greedy(g, run_seed):
    """The sequential scan: a uniform edge permutation, taking each edge
    whose endpoints and color are still free."""
    gen, replay = np.random.default_rng(run_seed), Replay(g)
    e = g.edges
    order = gen.permutation(len(e))
    for eid, u, v, c in zip(order.tolist(), *e[order].T.tolist()):
        if replay.vertex_alive[u] and replay.vertex_alive[v] and replay.color_free[c]:
            replay.step((u, v), eid)
    return replay.result("greedy", g, run_seed)


def reference_modified(g, run_seed):
    """The sequential vertex scan: one uniform edge permutation orders
    every incidence list, then a uniform vertex permutation gives the
    turns; a live vertex takes the first live edge of its list or is
    deleted as isolated, while edges remain."""
    gen, replay = np.random.default_rng(run_seed), Replay(g)
    edges = replay.edges
    incident = [[] for _ in range(g.n_initial)]
    for eid in gen.permutation(len(edges)).tolist():
        u, v, _ = edges[eid]
        incident[u].append(eid)
        incident[v].append(eid)
    alive, color_free = replay.vertex_alive, replay.color_free
    for v in gen.permutation(g.n_initial).tolist():
        if replay.mu_edges == 0:
            break
        if not alive[v]:
            continue
        for eid in incident[v]:
            a, b, color = edges[eid]
            w = a + b - v
            if alive[w] and color_free[color]:
                replay.step((v, w), eid)
                break
        else:
            replay.step((v,))
    return replay.result("modified", g, run_seed)


ENGINES = [(run_greedy, reference_greedy), (run_modified_greedy, reference_modified)]


def assert_same_as_reference(g, seed):
    for engine, reference in ENGINES:
        got = engine(g, seed)
        want = reference(g, seed)
        assert as_lists(got) == as_lists(want), (engine.__name__, g.n_initial,
                                                 g.m_initial, seed)
        assert got.matching.dtype == got.edge_ids.dtype == got.trajectory.dtype == np.int64
        assert got.matching.shape == (got.mu, 3)
        assert np.array_equal(g.edges[got.edge_ids], got.matching)
        assert got.trajectory.shape == (got.steps_total + 1, 4)
        assert all(type(x) is int for x in (got.mu, got.steps_total, got.isolated_deletions))


class TestSameAsSequentialScan:
    """The engines take exactly what the sequential scans take, step for
    step, on the same graph and run seed."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 1000])
    def test_grid(self, n):
        for c in (0.5, 1, 3, 5):
            for kappa in (0.1, 0.5, 2):
                m = min(round(c * n / 2), n * (n - 1) // 2)
                q = max(1, round(kappa * n))
                for seed in range(3):
                    g = generate(n, m, q, seed=1000 * n + seed)
                    assert_same_as_reference(g, 7 * seed + n)

    def test_no_edges(self):
        assert_same_as_reference(generate(20, 0, 0, seed=1), 4)

    def test_one_color(self):
        for seed in range(5):
            assert_same_as_reference(generate(60, 120, 1, seed=seed), seed)

    def test_128_bit_seed(self):
        g = generate(300, 600, 150, seed=2)
        assert_same_as_reference(g, random.Random(9).getrandbits(128))

    def test_large_instance(self):
        assert_same_as_reference(generate(100_000, 250_000, 50_000, seed=5), 3)

    def test_path_scanned_end_to_end(self):
        # the kernel's worst order: each round takes one edge, drops the next
        n = 41
        edges = np.array([(i, i + 1, i + 1) for i in range(n - 1)])
        assert _first_fit(edges, n, n - 1).tolist() == list(range(0, n - 1, 2))


def sequential_first_fit(edges, n):
    """Rows, ascending, that a plain first-fit scan takes: each row whose
    endpoints and color no earlier taken row holds."""
    held, out = set(), []
    for i, (u, v, c) in enumerate(edges.tolist()):
        if not {u, v, n + c} & held:
            held |= {u, v, n + c}
            out.append(i)
    return out


WINDOW = 1024   # _first_fit's window width for fewer than 16 * 1024 vertices


def scan_rows(shape, m, n, q, gen):
    """m (u, v, color) rows over n vertices and q colors, in one of the
    orders the kernel must handle: uniform, sorted by the lower endpoint
    (the modified engine's shape), single-colored, a path scanned end to
    end (the worst order, about m/2 rounds), or a star at vertex 0 and
    then one row off it (windows empty out before the order does)."""
    if shape == "path":
        return np.stack([np.arange(m), np.arange(1, m + 1),
                         gen.integers(1, q + 1, m)], axis=1)
    if shape == "star":
        rows = np.stack([np.zeros(m, dtype=np.int64), gen.integers(1, n - 2, m),
                         gen.integers(1, q + 1, m)], axis=1)
        if m:
            rows[-1] = (n - 2, n - 1, rows[0, 2] % q + 1)
        return rows
    u = gen.integers(0, n, m)
    v = (u + gen.integers(1, n, m)) % n
    color = np.ones(m, dtype=np.int64) if shape == "one_color" else gen.integers(1, q + 1, m)
    rows = np.stack([u, v, color], axis=1)
    if shape == "by_endpoint":
        rows = rows[np.argsort(np.minimum(u, v), kind="stable")]
    return rows


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([0, 1, WINDOW - 1, WINDOW, WINDOW + 1, 5000])
       | st.integers(0, 5000),
       n=st.integers(4, 400), q=st.integers(1, 500),
       shape=st.sampled_from(["uniform", "by_endpoint", "one_color", "path", "star"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(m=WINDOW - 1, n=300, q=200, shape="by_endpoint", seed=1)
@example(m=WINDOW, n=300, q=200, shape="uniform", seed=2)
@example(m=WINDOW + 1, n=300, q=1, shape="one_color", seed=3)
@example(m=5000, n=400, q=500, shape="by_endpoint", seed=4)
@example(m=5000, n=5001, q=5000, shape="path", seed=5)
@example(m=3 * WINDOW, n=50, q=10, shape="star", seed=6)
def test_kernel_same_as_sequential_first_fit(m, n, q, shape, seed):
    if shape == "path":
        n = m + 1
    rows = scan_rows(shape, m, n, q, np.random.default_rng(seed))
    got = _first_fit(rows, n, q)
    assert got.dtype == np.int64
    assert got.tolist() == sequential_first_fit(rows, n)
