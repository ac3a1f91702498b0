import random

import pytest
from hypothesis import given, settings, strategies as st

from rainbow_greedy.colored_graph import ColoredGraph, generate
from rainbow_greedy.greedy_engines import (
    TRAJECTORY_HEADER,
    run_greedy,
    run_modified_greedy,
    verify_result,
)


def fresh(seed=7, n=400, m=500, q=150):
    return generate(n, m, q, seed=seed)


class TestGreedy:
    def test_empty_graph(self):
        r = run_greedy(generate(5, 0, 2, seed=1), 0)
        assert r.mu == 0
        assert r.steps_total == 0
        assert r.trajectory == [(0, 5, 0, 2)]

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
        r = run_greedy(g, 5, sample_stride=1)
        assert r.isolated_deletions == 0
        assert r.steps_total == r.mu
        # each step consumes exactly one color
        for (t, nu, mu_edges, q_rem) in r.trajectory:
            assert q_rem == r.q - t
        mus = [row[2] for row in r.trajectory]
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
        assert run_greedy(g, 5) == run_greedy(g, 5)
        assert g.edges == fresh().edges

    def test_accepts_random_instance(self):
        g = fresh()
        a = run_greedy(g, random.Random(5))
        assert a == run_greedy(g, random.Random(5))
        assert a.run_seed is None
        assert verify_result(g, a).ok

    def test_determinism(self):
        a = run_greedy(fresh(), 99)
        b = run_greedy(fresh(), 99)
        assert a == b

    def test_trajectory_csv(self):
        r = run_greedy(fresh(), 1, sample_stride=50)
        text = r.trajectory_csv()
        lines = text.strip().split("\n")
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == 1 + len(r.trajectory)
        assert lines[1] == "0,400,500,150"


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
            assert r.matching == [(2, 4, 1)]

    def test_star_matches_once(self):
        for seed in range(10):
            g = ColoredGraph(6, 5, [(0, i, i) for i in range(1, 6)])
            r = run_modified_greedy(g, seed)
            assert r.mu == 1

    def test_step_identity(self):
        r = run_modified_greedy(fresh(), 13, sample_stride=1)
        assert r.steps_total == r.isolated_deletions + r.mu

    def test_color_accounting_every_step(self):
        # q_remaining - q + n = nu + t at every sampled step, because each
        # step removes either one isolated vertex or two vertices plus one
        # color
        n, q = 400, 150
        r = run_modified_greedy(fresh(), 13, sample_stride=1)
        for (t, nu, mu_edges, q_rem) in r.trajectory:
            assert q_rem == t + nu + q - n

    def test_matched_count_equals_consumed_colors(self):
        n, q = 400, 150
        r = run_modified_greedy(fresh(), 29, sample_stride=1)
        for (t, nu, mu_edges, q_rem) in r.trajectory:
            matched_so_far = q - q_rem
            assert nu == n - t - matched_so_far

    def test_determinism(self):
        a = run_modified_greedy(fresh(), 99)
        b = run_modified_greedy(fresh(), 99)
        assert a == b

    def test_graph_is_reusable(self):
        g = fresh()
        assert run_modified_greedy(g, 5) == run_modified_greedy(g, 5)
        assert g.edges == fresh().edges

    def test_result_echo(self):
        r = run_modified_greedy(fresh(seed=8), 5)
        assert r.algorithm == "modified"
        assert r.graph_seed == 8


class TestStride:
    def test_default_stride_scales_with_n(self):
        r = run_greedy(generate(3000, 600, 300, seed=2), 0)
        assert r.sample_stride == 3

    def test_small_n_stride_is_one(self):
        r = run_greedy(generate(200, 100, 50, seed=2), 0)
        assert r.sample_stride == 1

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            run_greedy(fresh(), 0, sample_stride=0)

    def test_final_state_always_sampled(self):
        r = run_greedy(fresh(), 3, sample_stride=1000)
        assert r.trajectory[-1][0] == r.steps_total
        assert r.trajectory[-1][2] == 0


class TestVerify:
    def test_passes_both_engines(self):
        for runner in (run_greedy, run_modified_greedy):
            r = runner(fresh(seed=31), 17)
            rep = verify_result(fresh(seed=31), r)
            assert rep.ok, rep.failure

    def test_flags_foreign_edge(self):
        r = run_greedy(fresh(), 17)
        r.matching.append((398, 399, 1))
        r.mu += 1
        rep = verify_result(fresh(), r)
        assert not rep.ok

    def test_flags_vertex_reuse(self):
        g0 = ColoredGraph(3, 2, [(0, 1, 1), (1, 2, 2)])
        r = run_greedy(ColoredGraph(3, 2, [(0, 1, 1), (1, 2, 2)]), 0)
        r.matching = [(0, 1, 1), (1, 2, 2)]
        r.mu = 2
        r.steps_total = 2
        rep = verify_result(g0, r)
        assert not rep.ok
        assert "not a matching" in rep.failure

    def test_flags_repeated_color(self):
        g0 = ColoredGraph(4, 2, [(0, 1, 1), (2, 3, 1)])
        r = run_greedy(ColoredGraph(4, 2, [(0, 1, 1), (2, 3, 1)]), 0)
        r.matching = [(0, 1, 1), (2, 3, 1)]
        r.mu = 2
        r.steps_total = 2
        rep = verify_result(g0, r)
        assert not rep.ok
        assert "not rainbow" in rep.failure

    def test_flags_wrong_color_claim(self):
        g0 = ColoredGraph(2, 2, [(0, 1, 1)])
        r = run_greedy(ColoredGraph(2, 2, [(0, 1, 1)]), 0)
        r.matching = [(0, 1, 2)]
        rep = verify_result(g0, r)
        assert not rep.ok

    def test_flags_truncated_matching(self):
        g = fresh()
        for runner in (run_greedy, run_modified_greedy):
            r = runner(g, 17)
            r.matching.pop()
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


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 50), m_frac=st.floats(0, 1), q=st.integers(1, 60),
       seed=st.integers(0, 10 ** 9), run_seed=st.integers(0, 10 ** 9))
def test_both_engines_terminate_and_verify(n, m_frac, q, seed, run_seed):
    m = int(m_frac * n * (n - 1) // 2)
    g = generate(n, m, q, seed=seed)
    for runner in (run_greedy, run_modified_greedy):
        r = runner(g, run_seed, sample_stride=1)
        assert r.trajectory[-1][2] == 0
        assert r.steps_total <= n + m
        rep = verify_result(g, r)
        assert rep.ok, rep.failure
