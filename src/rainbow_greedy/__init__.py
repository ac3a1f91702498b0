"""Rainbow greedy matching on randomly edge-colored sparse random graphs.

Simulation engines for two greedy matching heuristics, the differential
equations that predict their asymptotic matching size, closed forms and
regime-specific root brackets for the stopping time, and a Monte Carlo
harness that cross-checks simulation against all of the above.
"""

from .colored_graph import ColoredGraph, generate
from .greedy_engines import (
    MatchingResult,
    VerifyReport,
    run_greedy,
    run_modified_greedy,
    verify_result,
)
from .ode_theory import (
    TheoryParams,
    OdeTrajectory,
    IntegrationFailure,
    integrate_greedy,
    tau0_closed_half,
    tau0_general,
    integrate_modified,
    modified_upper_bound,
)
from .asymptotics import (
    Bracket,
    RegimeError,
    near_half_alpha,
    tau0_near_half,
    tau0_large_kappa,
    tau0_small_kappa_bounds,
)
from .experiment_harness import (
    ExperimentConfig,
    AggregateRow,
    RunRecord,
    run_monte_carlo,
    to_csv,
    to_json,
    reproduce_reference_table,
    check_conjecture,
    theory_report,
    asymptotics_report,
    REFERENCE_TABLE,
)

__version__ = "0.1.0"
