import dataclasses
import types

import rainbow_greedy
from rainbow_greedy import asymptotics, experiment_harness, ode_theory

# What the commands, the harness and the benchmark use. Closed forms,
# series and shape checks that only the tests call live in
# tests/theory_oracles.py.
PUBLIC = {
    # colored_graph
    "ColoredGraph", "generate",
    # greedy_engines
    "MatchingResult", "VerifyReport", "run_greedy", "run_modified_greedy",
    "verify_result",
    # ode_theory
    "TheoryParams", "OdeTrajectory", "IntegrationFailure", "integrate_greedy",
    "integrate_modified", "tau0_closed_half", "tau0_general",
    "modified_upper_bound",
    # asymptotics
    "Bracket", "RegimeError", "near_half_alpha", "tau0_near_half",
    "tau0_large_kappa", "tau0_small_kappa_bounds",
    # experiment_harness
    "ExperimentConfig", "AggregateRow", "RunRecord", "run_monte_carlo",
    "to_csv", "to_json", "reproduce_reference_table", "check_conjecture",
    "theory_report", "asymptotics_report", "REFERENCE_TABLE",
}

MOVED_TO_TESTS = {
    ode_theory: ("m_closed_half", "m_closed_general", "f_kappa",
                 "convexity_second_differences"),
    asymptotics: ("near_half_alpha_series", "epsilon_kappa",
                  "large_kappa_leading_estimate"),
}


def test_public_names_are_pinned():
    names = {name for name, value in vars(rainbow_greedy).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


def test_test_oracles_are_not_in_the_package():
    for module, names in MOVED_TO_TESTS.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_deleted_surface_stays_deleted():
    assert not hasattr(asymptotics.Bracket, "width")
    assert [f.name for f in dataclasses.fields(ode_theory.OdeTrajectory)] == \
        ["taus", "values", "tau0", "mu_over_n"]
    assert not hasattr(experiment_harness, "ConjectureReport")
