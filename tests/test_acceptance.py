"""End-to-end acceptance suite.

Every test prints one PASS/FAIL summary line directly to the terminal
(bypassing capture) before asserting, so a plain ``pytest -v`` run shows
the verdict per criterion. The shared Monte Carlo sweep runs both
algorithms at n=10^5 with 20 repetitions per cell and takes a few
minutes; everything else is fast.
"""
import math
import random
import time

import numpy as np
import pytest

from rainbow_greedy.asymptotics import (
    tau0_large_kappa,
    tau0_near_half,
    tau0_small_kappa_bounds,
)
from rainbow_greedy.colored_graph import generate
from rainbow_greedy.experiment_harness import (
    ExperimentConfig,
    check_conjecture,
    greedy_convention_statement,
    reproduce_reference_table,
    run_monte_carlo,
)
from rainbow_greedy.greedy_engines import (
    run_greedy,
    run_modified_greedy,
    verify_result,
)
from rainbow_greedy.ode_theory import (
    TheoryParams,
    integrate_greedy,
    integrate_modified,
    modified_upper_bound,
    tau0_closed_half,
    tau0_general,
)
from rainbow_greedy.rng import mix
from theory_oracles import convexity_second_differences, m_closed_half

TABLE_C = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
SIM_C = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
SWEEP_SEED = 20250819


def report(capsys, num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():   # visible under default capture, not just on failure
        print(f"\nACCEPTANCE {num} {verdict}: {detail}", flush=True)


@pytest.fixture(scope="module")
def sweep():
    cfg = ExperimentConfig(c_values=TABLE_C, kappa_values=(0.5,),
                           n_values=(100_000,), reps=20,
                           master_seed=SWEEP_SEED)
    rows, records = run_monte_carlo(cfg)
    return cfg, rows, records


def test_criterion_1_closed_form_agreement(capsys):
    worst_point = 0.0
    worst_root = 0.0
    worst_time = 0.0
    for c in (0.5, 1.0, 2.0, 4.0, 5.0):
        t0 = time.perf_counter()
        traj = integrate_greedy(TheoryParams(c, 0.5), step=1e-5)
        elapsed = time.perf_counter() - t0
        closed = m_closed_half(np.asarray(traj.taus), c)
        worst_point = max(worst_point, float(np.max(np.abs(traj.values - closed))))
        worst_root = max(worst_root, abs(traj.tau0 - tau0_closed_half(c)))
        worst_time = max(worst_time, elapsed)
    ok = worst_point < 1e-6 and worst_root < 1e-6 and worst_time < 1.0
    report(capsys, 1, ok, f"integrator vs closed form at kappa=1/2: max pointwise "
                  f"diff {worst_point:.2e} (tol 1e-6), max root diff "
                  f"{worst_root:.2e} (tol 1e-6), max runtime "
                  f"{worst_time:.3f}s (limit 1s)")
    assert worst_point < 1e-6
    assert worst_root < 1e-6
    assert worst_time < 1.0


def test_criterion_2_greedy_simulation_matches_ode(sweep, capsys):
    _, rows, _ = sweep
    cells = [r for r in rows if r.algorithm == "greedy" and r.c in SIM_C]
    assert len(cells) == len(SIM_C)
    worst_dev = max(r.abs_deviation for r in cells)
    worst_sd = max(r.stderr * math.sqrt(r.reps) for r in cells)
    statement = greedy_convention_statement(
        [r for r in rows if r.algorithm == "greedy"])
    ok = worst_dev < 0.01 and worst_sd < 0.01
    report(capsys, 2, ok, f"greedy at n=1e5, 20 reps: max |mean - tau0| "
                  f"{worst_dev:.5f} (tol 0.01), max across-seed sd "
                  f"{worst_sd:.5f} (tol 0.01); {statement}")
    for r in cells:
        assert r.abs_deviation < 0.01, f"c={r.c}"
        assert r.stderr * math.sqrt(r.reps) < 0.01, f"c={r.c}"


def test_criterion_3_modified_simulation_matches_ode(sweep, capsys):
    _, rows, _ = sweep
    cells = [r for r in rows if r.algorithm == "modified" and r.c in SIM_C]
    assert len(cells) == len(SIM_C)
    worst_dev = max(r.abs_deviation for r in cells)
    worst_sd = max(r.stderr * math.sqrt(r.reps) for r in cells)
    bound_slack = max(r.mean_mu_over_n - modified_upper_bound(r.c)
                      for r in cells)
    ok = worst_dev < 0.01 and worst_sd < 0.01 and bound_slack <= 0.005
    report(capsys, 3, ok, f"modified greedy at n=1e5, 20 reps: max |mean - (1-tau0)| "
                  f"{worst_dev:.5f} (tol 0.01), max across-seed sd "
                  f"{worst_sd:.5f} (tol 0.01), max excess over the "
                  f"(c-1+e^-c)/(2c-1+e^-c) bound {bound_slack:+.5f} "
                  f"(allowance 0.005)")
    for r in cells:
        assert r.abs_deviation < 0.01, f"c={r.c}"
        assert r.stderr * math.sqrt(r.reps) < 0.01, f"c={r.c}"
        assert r.mean_mu_over_n <= modified_upper_bound(r.c) + 0.005, f"c={r.c}"


def test_criterion_4_reference_table_reproduction(capsys):
    tc = reproduce_reference_table(step=1e-5)
    greedy_bad = [r["c"] for r in tc.rows
                  if min(abs(r["delta_sqrt_c1"]), abs(r["delta_sqrt_2c1"])) > 0.005]
    ok = not greedy_bad and not tc.modified_outliers
    if ok:
        detail = (f"all 10 table rows reproduced; greedy column matches "
                  f"{tc.greedy_convention} within 0.005, modified column "
                  f"within 0.01")
    else:
        parts = []
        if greedy_bad:
            parts.append(f"greedy column off beyond 0.005 at c in {greedy_bad}")
        for c, delta in tc.modified_outliers:
            row = next(r for r in tc.rows if r["c"] == c)
            parts.append(
                f"modified column at c={c}: recomputed ODE value "
                f"{row['theory_modified']:.4f} vs reference {row['reference_modified']} "
                f"(delta {delta:+.4f} exceeds 0.01; the reference entry is "
                f"inconsistent with the column trend and looks like a typo)")
        detail = "; ".join(parts)
    report(capsys, 4, ok, detail)
    assert not greedy_bad
    assert not tc.modified_outliers, detail


def test_criterion_5_asymptotic_bracket_containment(capsys):
    cells = ([("near-half", 1.0, k, tau0_near_half)
              for k in (0.45, 0.48, 0.52, 0.55)]
             + [("large-kappa", 3.0, k, tau0_large_kappa)
                for k in (2.0, 5.0, 10.0, 50.0)]
             + [("small-kappa", c, 0.9 / (2 * c), tau0_small_kappa_bounds)
                for c in (6.0, 8.0)])
    failures = []
    widest = 0.0
    for regime, c, kappa, op in cells:
        params = TheoryParams(c, kappa)
        bracket = op(params)
        root = tau0_general(params)
        widest = max(widest, bracket.upper - bracket.lower)
        if not bracket.contains(root):
            failures.append((regime, c, kappa))
    ok = not failures
    report(capsys, 5, ok, f"{len(cells) - len(failures)}/{len(cells)} brackets "
                  f"contain the numeric root (max width {widest:.2e})"
                  + (f"; failures: {failures}" if failures else ""))
    assert not failures


def test_criterion_6_property_suite(capsys):
    draw = random.Random(987654321)
    q_identity_rows = 0
    for i in range(1000):
        n = draw.randint(2, 50)
        m = draw.randint(0, min(n * (n - 1) // 2, 2 * n))
        q = draw.randint(1, n)
        seed = mix(SWEEP_SEED, 6, i)
        g1 = generate(n, m, q, seed)
        g2 = generate(n, m, q, seed)
        r1 = run_greedy(g1, mix(seed, 1))
        r2 = run_modified_greedy(g2, mix(seed, 2))
        v1 = verify_result(g1, r1)
        v2 = verify_result(g2, r2)
        assert v1.ok, f"instance {i}: {v1.failure}"
        assert v2.ok, f"instance {i}: {v2.failure}"
        for (t, nu, _, q_rem) in r2.trajectory.tolist():
            assert q_rem == t + nu + q - n, f"instance {i} at step {t}"
            q_identity_rows += 1
    worst_second_diff = math.inf
    for c in (1.0, 3.0):
        for kappa in (0.5, 1.0, 2.0):
            traj = integrate_modified(TheoryParams(c, kappa), step=1e-4)
            d2 = convexity_second_differences(traj, kappa)
            worst_second_diff = min(worst_second_diff, float(d2.min()))
    ok = worst_second_diff >= -1e-6
    report(capsys, 6, ok, f"1000/1000 random instances verified for both algorithms; "
                  f"color-count identity held on {q_identity_rows} sampled "
                  f"steps; min second difference of N*Q {worst_second_diff:.2e} "
                  f"(floor -1e-6)")
    assert worst_second_diff >= -1e-6


def test_criterion_7_conjecture_sweep(sweep, capsys):
    _, rows, records = sweep
    outcome = check_conjecture(rows, records)
    violations = [r for r in outcome if r.status == "violation"]
    consistent = sum(r.status == "consistent with conjecture" for r in outcome)
    inconclusive = sum(r.status == "inconclusive (margin)" for r in outcome)
    ok = not violations
    report(capsys, 7, ok, f"greedy mean <= modified mean across {len(outcome)} "
                  f"cells at n=1e5: {len(violations)} significant "
                  f"violations (margin 3*paired stderr); {consistent} "
                  f"consistent, {inconclusive} within margin")
    assert not violations
