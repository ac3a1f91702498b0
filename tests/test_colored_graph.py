import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rainbow_greedy import colored_graph
from rainbow_greedy.colored_graph import ColoredGraph, generate
from rainbow_greedy.greedy_engines import run_greedy, run_modified_greedy, verify_result
from test_engine_law import chi2_critical

ENGINES = (run_greedy, run_modified_greedy)


def triangle():
    # colors all distinct
    return ColoredGraph(3, 3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])


def star(leaves=5):
    return ColoredGraph(leaves + 1, leaves,
                        [(0, i, i) for i in range(1, leaves + 1)])


def disjoint_stars(copies, leaves):
    # star k has center k*(leaves+1) and leaves center+1..center+leaves;
    # every edge has its own color, so the stars never interact
    size = leaves + 1
    return ColoredGraph(copies * size, copies * leaves,
                        [(k * size, k * size + i, k * leaves + i)
                         for k in range(copies) for i in range(1, leaves + 1)])


def matched_leaves(r, copies):
    # each star is matched exactly once; its leaf number is v - center
    assert len(r.matching) == copies
    return [v - u for (u, v, _) in r.matching.tolist()]


class TestGenerate:
    def test_empty(self):
        g = generate(10, 0, 5, seed=1)
        assert (g.n_initial, g.m_initial, g.q_total) == (10, 0, 5)
        assert g.edges.tolist() == []

    def test_empty_needs_no_colors(self):
        g = generate(10, 0, 0, seed=1)
        assert g.q_total == 0

    def test_complete_k4(self):
        g = generate(4, 6, 3, seed=5)
        pairs = {(min(u, v), max(u, v)) for (u, v, _) in g.edges.tolist()}
        assert pairs == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    def test_basic_invariants(self):
        g = generate(1000, 1000, 500, seed=1)
        assert g.m_initial == len(g.edges) == 1000
        edges = g.edges.tolist()
        assert len({(u, v) for (u, v, _) in edges}) == 1000
        assert all(0 <= u < v < 1000 for (u, v, _) in edges)
        assert all(1 <= c <= 500 for (_, _, c) in edges)
        assert g.edges.dtype == np.int64

    def test_reproducible(self):
        a = generate(200, 300, 60, seed=9)
        b = generate(200, 300, 60, seed=9)
        assert np.array_equal(a.edges, b.edges)
        c = generate(200, 300, 60, seed=10)
        assert not np.array_equal(a.edges, c.edges)

    def test_rejects_too_many_edges(self):
        with pytest.raises(ValueError):
            generate(4, 7, 3, seed=0)

    def test_rejects_zero_colors_with_edges(self):
        with pytest.raises(ValueError):
            generate(4, 2, 0, seed=0)

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            generate(0, 0, 1, seed=0)

    def test_large_vertex_ids(self):
        # pair keys u * n + v stay exact up to n = 3 * 10^9
        n = 3 * 10 ** 9
        u, v, _ = generate(n, 2000, 5, seed=8).edges.T
        assert (0 <= u).all() and (u < v).all() and (v < n).all()
        assert len(set(zip(u.tolist(), v.tolist()))) == 2000
        assert v.max() > 0.99 * n and u.min() < 0.01 * n

    def test_dense_path_matches_law_shape(self):
        # 400 of the 435 pairs: above half of them, generate chooses m of the listed pairs
        g = generate(30, 400, 10, seed=3)
        assert g.m_initial == 400
        assert len({(min(u, v), max(u, v)) for (u, v, _) in g.edges.tolist()}) == 400

    @pytest.mark.parametrize("n, m", [(4, 4), (4, 6), (7, 12), (7, 21), (30, 435)])
    def test_dense_and_complete_graphs(self, n, m):
        # above half the pairs, up to every pair
        for seed in range(20):
            u, v, _ = generate(n, m, 3, seed).edges.T
            assert (u < v).all() and (v < n).all() and (u >= 0).all()
            assert len(set(zip(u.tolist(), v.tolist()))) == m

    @pytest.mark.parametrize("n, m, q, seeds, draws", [
        (2000, 5000, 1000, range(6), "iid"),        # a few pairs redrawn
        (40, 390, 20, range(6), "iid"),             # 2m = n(n-1)/2: ~100 redrawn
        (30, 300, 12, range(6), "choice"),          # above half the pairs
        (100_000, 250_000, 50_000, [7], "iid"),
    ], ids=["redraw", "redraw_certain", "dense", "n1e5_c5"])
    def test_output_passes_every_constructor_check(self, n, m, q, seeds, draws,
                                                   monkeypatch):
        # generate leaves the duplicate check of its iid pairs to
        # _distinct_pairs, which returns only once none repeats; the
        # constructor, given a copy, runs every check and keeps equal edges
        rounds = []
        pairs = colored_graph._pairs
        monkeypatch.setattr(colored_graph, "_pairs",
                            lambda *args: rounds.append(1) or pairs(*args))
        for seed in seeds:
            rounds.clear()
            g = generate(n, m, q, seed)
            assert bool(rounds) == (draws == "iid")   # the path that drew the pairs
            if (n, m) == (40, 390):
                assert len(rounds) > 1   # repeats are certain at this size
            again = ColoredGraph(n, q, g.edges.copy(), g.seed)
            assert np.array_equal(again.edges, g.edges)
            assert ((again.n_initial, again.m_initial, again.q_total, again.seed)
                    == (g.n_initial, g.m_initial, g.q_total, seed))


class TestUniformity:
    def test_edge_sets_uniform(self):
        # every one of the C(10, 3) = 120 edge sets of G(5, 3), 60 expected each
        runs = 7200
        counts = Counter(frozenset((u, v) for (u, v, _) in generate(5, 3, 2, seed).edges.tolist())
                         for seed in range(runs))
        assert len(counts) == math.comb(10, 3)
        stat = sum((k - runs / 120) ** 2 / (runs / 120) for k in counts.values())
        assert stat < chi2_critical(119)

    @pytest.mark.parametrize("n, m, runs", [
        # 6 pairs: draws repeat a pair on 1/6 (m = 2) and 4/9 (m = 3) of
        # the seeds, which then redraw
        (4, 2, 6000), (4, 3, 12000),
        # 3 pairs: 2m above the pair count takes an m-subset in one draw
        (3, 2, 3000),
    ])
    def test_ordered_edge_lists_uniform(self, n, m, runs):
        # every ordered list of m distinct pairs is equally likely
        pairs = n * (n - 1) // 2
        outcomes = math.perm(pairs, m)
        counts = Counter(tuple(map(tuple, generate(n, m, 1, seed).edges[:, :2].tolist()))
                         for seed in range(runs))
        assert len(counts) == outcomes
        stat = sum((k - runs / outcomes) ** 2 / (runs / outcomes) for k in counts.values())
        assert stat < chi2_critical(outcomes - 1)

    def test_colors_uniform(self):
        g = generate(3000, 30000, 7, seed=4)
        counts = Counter(g.edges[:, 2].tolist())
        assert sorted(counts) == list(range(1, 8))
        stat = sum((k - 30000 / 7) ** 2 / (30000 / 7) for k in counts.values())
        assert stat < chi2_critical(6)


class TestSampling:
    """The graph draws nothing any more; the engines do, and each draw must
    be uniform over what remains. These tests read the draws off runs."""

    def test_alive_edge_empty_and_single(self):
        for run in ENGINES:
            r = run(generate(5, 0, 2, seed=1), 0)
            assert r.matching.tolist() == [] and r.steps_total == 0
            assert run(ColoredGraph(2, 1, [(0, 1, 1)]), 0).matching.tolist() == [[0, 1, 1]]

    def test_alive_edge_uniform(self):
        # greedy matches the first edge it draws in each of 1000 disjoint
        # 3-leaf stars: 30 runs give 30000 draws, each leaf 1/3
        g = disjoint_stars(1000, 3)
        rng = random.Random(12345)
        counts = Counter()
        for _ in range(30):
            counts.update(matched_leaves(run_greedy(g, rng.getrandbits(128)), 1000))
        draws = 30000
        assert sorted(counts) == [1, 2, 3]
        bound = 3 * math.sqrt(draws * (1 / 3) * (2 / 3))
        for k in counts.values():
            assert abs(k - draws / 3) < bound
            assert abs(k / draws - 1 / 3) < 0.02

    def test_alive_vertex_uniform(self):
        # one edge and two isolated vertices: uniform draws over the alive
        # vertices delete 0, 1, 2 isolated vertices before an endpoint with
        # probability 1/2, 1/3, 1/6
        g = ColoredGraph(4, 1, [(0, 1, 1)])
        rng = random.Random(777)
        draws = 12000
        counts = Counter(run_modified_greedy(g, rng.getrandbits(128)).isolated_deletions
                         for _ in range(draws))
        assert sorted(counts) == [0, 1, 2]
        for j, p in enumerate((1 / 2, 1 / 3, 1 / 6)):
            assert abs(counts[j] - draws * p) < 3 * math.sqrt(draws * p * (1 - p))

    def test_random_neighbor_isolated(self):
        # once an edge of the path 0-1-2 is matched, the path's third vertex
        # has no neighbor left; drawn before the edge (3, 4) goes, it is
        # deleted as isolated and matches nothing
        g = ColoredGraph(5, 3, [(0, 1, 1), (1, 2, 2), (3, 4, 3)])
        results = [run_modified_greedy(g, seed) for seed in range(200)]
        for r in results:
            assert r.mu == 2 and [3, 4, 3] in r.matching.tolist()
        assert {r.isolated_deletions for r in results} == {0, 1}

    def test_random_neighbor_unique(self):
        g = ColoredGraph(2, 1, [(0, 1, 1)])
        for seed in range(20):
            r = run_modified_greedy(g, seed)
            assert r.matching.tolist() == [[0, 1, 1]] and r.steps_total == 1

    def test_random_neighbor_uniform_on_star(self):
        # a leaf drawn first takes the center and a center drawn first takes
        # a uniform leaf, so each leaf is matched with probability
        # 1/6 + 1/30 = 1/5; a biased neighbor draw shows on some leaf
        g = disjoint_stars(1000, 5)
        rng = random.Random(4242)
        counts = Counter()
        for _ in range(50):
            r = run_modified_greedy(g, rng.getrandbits(128))
            assert verify_result(g, r).ok
            counts.update(matched_leaves(r, 1000))
        draws = 50000
        assert sorted(counts) == [1, 2, 3, 4, 5]
        for k in counts.values():
            assert abs(k / draws - 0.2) < 0.02


class TestDeletion:
    """Matching an edge deletes both endpoints with their edges and the
    edge's color class; the modified process also deletes isolated
    vertices. The engines do this on their own state, so these tests read
    the deletions off trajectory rows (t, nu, mu_edges, q_remaining), one
    per step."""

    def test_delete_isolated(self):
        # deleting the isolated vertex 2 removes one vertex, no edge, no color
        g = ColoredGraph(3, 1, [(0, 1, 1)])
        trajectories = {tuple(map(tuple, run_modified_greedy(g, seed).trajectory.tolist()))
                        for seed in range(50)}
        assert trajectories == {((0, 3, 1, 1), (1, 1, 0, 0)),
                                ((0, 3, 1, 1), (1, 2, 1, 1), (2, 0, 0, 0))}

    def test_delete_star_center(self):
        for run in ENGINES:
            for seed in range(20):
                r = run(star(5), seed)
                assert r.trajectory.tolist() == [[0, 6, 5, 5], [1, 4, 0, 4]]

    def test_delete_triangle_vertex(self):
        # triangle 0-1-2 with a pendant edge (2, 3): matching an edge deletes
        # exactly the edges at its two endpoints
        g = ColoredGraph(4, 4, [(0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 3, 4)])
        after_first = {(0, 1, 1): (1, 2, 1, 3), (1, 2, 2): (1, 2, 0, 3),
                       (0, 2, 3): (1, 2, 0, 3), (2, 3, 4): (1, 2, 1, 3)}
        for run in ENGINES:
            seen = set()
            for seed in range(100):
                r = run(g, seed)
                first = tuple(r.matching[0].tolist())
                assert tuple(r.trajectory[1].tolist()) == after_first[first]
                seen.add(first)
            assert seen == set(after_first)

    def test_color_class_whole_graph(self):
        g = ColoredGraph(6, 2, [(0, 1, 1), (2, 3, 1), (4, 5, 1)])
        for run in ENGINES:
            for seed in range(20):
                r = run(g, seed)
                assert r.trajectory.tolist() == [[0, 6, 3, 2], [1, 4, 0, 1]]

    def test_color_class_subset(self):
        # color 1 on two disjoint edges, color 2 on three
        edges = [(i, i + 5, 1 if i < 2 else 2) for i in range(5)]
        g = ColoredGraph(10, 2, edges)
        after_first = {1: (1, 8, 3, 1), 2: (1, 8, 2, 1)}
        for run in ENGINES:
            seen = set()
            for seed in range(40):
                r = run(g, seed)
                color = int(r.matching[0, 2])
                assert tuple(r.trajectory[1].tolist()) == after_first[color]
                assert r.mu == 2
                seen.add(color)
            assert seen == {1, 2}

    def test_vertex_deletion_consumes_no_color(self):
        # matching one triangle edge deletes all three edges, but the two
        # lost with the third vertex keep their colors
        for run in ENGINES:
            for seed in range(20):
                r = run(triangle(), seed)
                assert r.trajectory.tolist() == [[0, 3, 3, 3], [1, 1, 0, 2]]


class TestEdges:
    def test_read_only_int64_array(self):
        source = [(0, 1, 1), (2, 3, 2)]
        g = ColoredGraph(4, 2, source)
        assert g.edges.dtype == np.int64 and g.edges.shape == (2, 3)
        assert g.edges.tolist() == [[0, 1, 1], [2, 3, 2]]
        with pytest.raises(ValueError):
            g.edges[0, 0] = 3
        # the graph keeps its own copy; the caller's array stays writable
        array = np.array(source)
        ColoredGraph(4, 2, array)
        array[0, 0] = 3
        # generate's graph keeps the array it drew into, read-only as well
        g = generate(50, 100, 10, seed=3)
        assert g.edges.flags.owndata and not g.edges.flags.writeable


def rejects(n, q, edges, message):
    """ColoredGraph(n, q, edges) raises ValueError with exactly message."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ColoredGraph(n, q, edges)


class TestConstruction:
    # each message names the reason and the first edge that fails the check
    def test_rejects_self_loop(self):
        rejects(3, 1, [(0, 1, 1), (1, 1, 1), (2, 2, 1)], "edge 1 (1, 1, 1): self loop")

    def test_rejects_duplicate_edge(self):
        rejects(3, 1, [(0, 1, 1), (1, 2, 1), (1, 0, 1)], "duplicate edge (0, 1)")
        # the same duplicate with every row written u < v
        rejects(3, 1, [(0, 1, 1), (1, 2, 1), (0, 1, 1)], "duplicate edge (0, 1)")

    def test_rejects_bad_color(self):
        rejects(3, 2, [(0, 1, 1), (1, 2, 3)], "edge 1 (1, 2, 3): color outside 1..2")
        rejects(3, 2, [(0, 1, 0), (1, 2, 3)], "edge 0 (0, 1, 0): color outside 1..2")

    def test_rejects_endpoint_out_of_range(self):
        rejects(3, 1, [(0, 1, 1), (0, 3, 1)], "edge 1 (0, 3, 1): endpoint out of range")
        rejects(3, 1, [(0, 1, 1), (3, 0, 1)], "edge 1 (3, 0, 1): endpoint out of range")
        rejects(3, 1, [(0, 1, 1), (-1, 2, 1)], "edge 1 (-1, 2, 1): endpoint out of range")
        rejects(3, 1, [(0, 1, 1), (2, -1, 1), (0, 4, 1)],
                "edge 1 (2, -1, 1): endpoint out of range")

    @pytest.mark.parametrize("edges, message", [
        # a self loop with a bad color at edge 1, out of range at edge 2
        ([(0, 1, 1), (2, 2, 5), (0, 3, 1)], "edge 2 (0, 3, 1): endpoint out of range"),
        # a bad color at edge 0, a self loop at edge 1
        ([(0, 1, 5), (1, 1, 1)], "edge 1 (1, 1, 1): self loop"),
        # a bad color and a duplicate
        ([(0, 1, 1), (1, 0, 1), (1, 2, 0)], "edge 2 (1, 2, 0): color outside 1..2"),
    ])
    def test_checks_run_range_then_self_loop_then_color(self, edges, message):
        rejects(3, 2, edges, message)

    def test_rejects_row_that_is_not_a_triple(self):
        with pytest.raises(ValueError):
            ColoredGraph(3, 1, [(0, 1)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_deletion_sequences_preserve_counters(data):
    n = data.draw(st.integers(2, 25))
    m = data.draw(st.integers(0, n * (n - 1) // 2))
    q = data.draw(st.integers(1, 8))
    g = generate(n, m, q, seed=data.draw(st.integers(0, 10 ** 6)))
    run = data.draw(st.sampled_from(ENGINES))
    r = run(g, data.draw(st.integers(0, 10 ** 6)))
    # replay the matching, in step order, on a set of alive edges
    alive = set(map(tuple, g.edges.tolist()))
    alive_after = [len(alive)]
    for (u, v, color) in r.matching.tolist():
        assert (u, v, color) in alive
        alive = {e for e in alive if u not in e[:2] and v not in e[:2] and e[2] != color}
        alive_after.append(len(alive))
    assert alive_after[-1] == 0
    # counter identities hold after every step: a match deletes two
    # vertices and one color, an isolated deletion one vertex and no edge
    assert r.trajectory[:, 0].tolist() == list(range(r.steps_total + 1))
    for (t, nu, mu_edges, q_rem) in r.trajectory.tolist():
        matched = q - q_rem
        assert nu == n - t - matched
        assert mu_edges == alive_after[matched]
