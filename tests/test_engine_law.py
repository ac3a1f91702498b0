"""Exact-law oracle for both engines on tiny colored graphs.

For a graph with at most 7 vertices and 4 colors the state of either
process is (alive vertices, consumed colors), so the exact joint law of
(mu, steps_total, isolated_deletions) follows from a memoised recursion
over that state, straight from the process definitions:

* greedy: match a uniform remaining edge;
* modified greedy: draw a uniform remaining vertex; if it has no remaining
  edge, delete it (an isolated deletion), otherwise match it along a
  uniform remaining incident edge. The process stops once no edge remains.

Matching an edge deletes both endpoints and its color class. Each engine
is run over fixed seeds and its empirical law is compared with the exact
one by a chi-square test; the modified engine also with its tie-break
bits cut to 1 and 2, so that its tie redraws order most lists.
"""
import math
import random
from collections import Counter
from functools import lru_cache

import pytest

from rainbow_greedy import greedy_engines
from rainbow_greedy.colored_graph import ColoredGraph
from rainbow_greedy.greedy_engines import run_greedy, run_modified_greedy

RUNS = 3000
# Standard normal quantile for a false-alarm rate of 1e-5 per test.
Z = 4.265


def exact_law(n, edges, algorithm):
    """{(mu, steps_total, isolated_deletions): probability}."""

    def live(alive, used):
        return [(u, v, c) for (u, v, c) in edges
                if alive >> u & 1 and alive >> v & 1 and not used >> c & 1]

    def shift(law, dmu, diso, weight, out):
        for (mu, steps, iso), p in law.items():
            key = (mu + dmu, steps + 1, iso + diso)
            out[key] = out.get(key, 0.0) + weight * p

    @lru_cache(maxsize=None)
    def law(alive, used):
        remaining = live(alive, used)
        out = {}
        if not remaining:
            return {(0, 0, 0): 1.0}
        if algorithm == "greedy":
            for (u, v, c) in remaining:
                shift(law(alive & ~(1 << u | 1 << v), used | 1 << c), 1, 0,
                      1 / len(remaining), out)
            return out
        verts = [x for x in range(n) if alive >> x & 1]
        for x in verts:
            incident = [e for e in remaining if x in e[:2]]
            if not incident:
                shift(law(alive & ~(1 << x), used), 0, 1, 1 / len(verts), out)
            for (u, v, c) in incident:
                shift(law(alive & ~(1 << u | 1 << v), used | 1 << c), 1, 0,
                      1 / (len(verts) * len(incident)), out)
        return out

    return law((1 << n) - 1, 0)


def chi2_critical(dof):
    """Wilson-Hilferty upper quantile of chi-square at the rate set by Z."""
    h = 2 / (9 * dof)
    return dof * (1 - h + Z * math.sqrt(h)) ** 3


def assert_matches_law(counts, law, runs):
    impossible = set(counts) - set(law)
    assert not impossible, f"outcomes the process cannot produce: {impossible}"
    # pool outcomes expected fewer than 5 times into one bin
    observed, expected = [], []
    pooled_obs = pooled_exp = 0.0
    for key, p in law.items():
        if p * runs >= 5:
            observed.append(counts.get(key, 0))
            expected.append(p * runs)
        else:
            pooled_obs += counts.get(key, 0)
            pooled_exp += p * runs
    if pooled_exp > 0:
        observed.append(pooled_obs)
        expected.append(pooled_exp)
    if len(expected) < 2:   # one outcome: the support check above decides
        return
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    crit = chi2_critical(len(expected) - 1)
    assert stat < crit, (f"chi2 {stat:.1f} >= {crit:.1f} over "
                         f"{len(expected)} bins: {counts} vs {law}")


def random_instance(seed):
    draw = random.Random(seed)
    n = draw.randint(5, 7)
    q = draw.randint(2, 4)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw.sample(pairs, draw.randint(n - 1, min(len(pairs), 2 * n)))
    return n, q, [(u, v, draw.randint(1, q)) for (u, v) in chosen]


INSTANCES = {
    # center 0 with four leaves, plus two isolated vertices
    "star": (7, 4, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (0, 4, 4)]),
    # triangle whose colors repeat, with a path hanging off it
    "triangle_repeated_color": (5, 3, [(0, 1, 1), (1, 2, 1), (0, 2, 2),
                                       (2, 3, 1), (3, 4, 3)]),
    # K4 with only two colors, plus an isolated vertex
    "starved_k4": (5, 2, [(0, 1, 1), (0, 2, 2), (0, 3, 1), (1, 2, 1),
                          (1, 3, 2), (2, 3, 2)]),
    # path on six vertices; its perfect matching is rainbow
    "path": (6, 4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 5, 2)]),
}
INSTANCES.update({f"random_{s}": random_instance(s) for s in (5, 20, 24, 33)})


@pytest.mark.parametrize("algorithm", ["greedy", "modified"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_engine_samples_exact_law(name, algorithm):
    assert_engine_law(name, algorithm)


@pytest.mark.parametrize("tie_bits", [1, 2])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_modified_law_with_tie_redraws(name, tie_bits, monkeypatch):
    # at full width a tie is rare; with 1 or 2 tie-break bits most lists
    # tie and are ordered by the digits drawn again
    monkeypatch.setattr(greedy_engines, "_tie_bits", lambda n, m: tie_bits)
    assert_engine_law(name, "modified")


def assert_engine_law(name, algorithm):
    n, q, edges = INSTANCES[name]
    law = exact_law(n, edges, algorithm)
    assert math.isclose(sum(law.values()), 1.0)
    runner = run_greedy if algorithm == "greedy" else run_modified_greedy
    base = 1_000_003 * (1 + sorted(INSTANCES).index(name))
    g = ColoredGraph(n, q, edges)
    counts = Counter()
    for seed in range(base, base + RUNS):
        r = runner(g, seed)
        counts[(r.mu, r.steps_total, r.isolated_deletions)] += 1
    assert_matches_law(counts, law, RUNS)


def test_oracle_hand_values():
    # single edge beside one isolated vertex: modified greedy deletes the
    # isolated vertex first with probability 1/3, then matches the edge
    law = exact_law(3, [(0, 1, 1)], "modified")
    assert law == pytest.approx({(1, 1, 0): 2 / 3, (1, 2, 1): 1 / 3})
    # two same-colored disjoint edges: greedy matches exactly one
    assert exact_law(4, [(0, 1, 1), (2, 3, 1)], "greedy") == {(1, 1, 0): 1.0}
    # both edges of a path share its middle vertex: exactly one match
    assert exact_law(3, [(0, 1, 1), (1, 2, 2)], "greedy") == {(1, 1, 0): 1.0}


def test_chi2_rejects_a_biased_sampler():
    # the test's own power check: a sampler that never deletes the
    # isolated vertex first is rejected
    law = exact_law(3, [(0, 1, 1)], "modified")
    with pytest.raises(AssertionError):
        assert_matches_law(Counter({(1, 1, 0): RUNS}), law, RUNS)
