import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
from dataclasses import asdict
from statistics import fmean, stdev
from types import SimpleNamespace

import pytest

import rainbow_greedy
from rainbow_greedy import experiment_harness, greedy_engines
from rainbow_greedy.cli import main
from rainbow_greedy.experiment_harness import (
    AGGREGATE_COLUMNS,
    ASYMPTOTICS_COLUMNS,
    CONJECTURE_COLUMNS,
    REFERENCE_TABLE,
    TABLE_COLUMNS,
    THEORY_COLUMNS,
    AggregateRow,
    ExperimentConfig,
    RunRecord,
    asymptotics_report,
    check_conjecture,
    greedy_convention_statement,
    reproduce_reference_table,
    run_monte_carlo,
    theory_report,
    to_csv,
    to_json,
)
from rainbow_greedy.ode_theory import (
    IntegrationFailure,
    TheoryParams,
    integrate_modified,
    tau0_closed_half,
    tau0_general,
)


def small_cfg(**kw):
    base = dict(c_values=(1.0,), kappa_values=(0.5,), n_values=(500,),
                reps=3, master_seed=11)
    base.update(kw)
    return ExperimentConfig(**base)


def sweep_csv(rows):
    return to_csv([asdict(r) for r in rows], AGGREGATE_COLUMNS)


def sweep_json(rows):
    return to_json([asdict(r) for r in rows])


class TestConfig:
    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            small_cfg(reps=0)

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            small_cfg(c_values=(1.0, -2.0))

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            small_cfg(kappa_values=(0.0,))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            small_cfg(n_values=(99,))

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            small_cfg(algorithms=("greedy", "other"))

    @pytest.mark.parametrize("field", ["c_values", "kappa_values"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} must be positive and "
                                             rf"finite, got \(1.0, {value}\)"):
            small_cfg(**{field: (1.0, value)})

    def test_rejects_cell_without_colors(self):
        # round(0.004 * 100) = 0, while round(0.004 * 500) = 2
        small_cfg(kappa_values=(0.004,), n_values=(500,))
        with pytest.raises(ValueError, match="kappa=0.004"):
            small_cfg(kappa_values=(0.004,), n_values=(500, 100))

    def test_rejects_more_edges_than_pairs(self):
        small_cfg(c_values=(99.0,), n_values=(100,))
        with pytest.raises(ValueError, match="c=100"):
            small_cfg(c_values=(100.0,), n_values=(100,))

    def test_rejects_cell_beyond_physical_memory(self):
        # q = 10^11 colors: about 1100 GB by the estimate, 11 B per color
        with pytest.raises(ValueError, match=r"kappa=1000000.0, n=100000 "
                                             r"needs about .* GB"):
            small_cfg(kappa_values=(1e6,), n_values=(100_000,))

    def test_cell_order_is_row_major(self):
        cfg = small_cfg(c_values=(1.0, 2.0), algorithms=("greedy",))
        assert cfg.cells() == [(1.0, 0.5, 500, "greedy"), (2.0, 0.5, 500, "greedy")]


class TestMonteCarlo:
    def test_tiny_degree_gives_empty_graphs(self):
        # round(0.01 * 100 / 2) = 0 edges
        cfg = ExperimentConfig(c_values=(0.01,), kappa_values=(0.5,),
                               n_values=(100,), algorithms=("greedy",),
                               reps=1, master_seed=3)
        rows, records = run_monte_carlo(cfg)
        assert rows[0].mean_mu_over_n == 0.0
        assert rows[0].stderr == 0.0
        assert records[0].mu == 0

    def test_deterministic_csv(self):
        a, _ = run_monte_carlo(small_cfg())
        b, _ = run_monte_carlo(small_cfg())
        assert sweep_csv(a) == sweep_csv(b)

    def test_json_differs_only_in_runtime(self):
        a, _ = run_monte_carlo(small_cfg())
        b, _ = run_monte_carlo(small_cfg())
        da = json.loads(sweep_json(a))
        db = json.loads(sweep_json(b))
        for ra, rb in zip(da, db):
            ra.pop("runtime_seconds")
            rb.pop("runtime_seconds")
        assert da == db

    def test_seeds_distinct_across_reps_and_cells(self):
        # a graph seed is shared by exactly the runs of one (c, kappa, n,
        # rep), one per algorithm; run seeds are shared by none
        _, records = run_monte_carlo(small_cfg(c_values=(1.0, 2.0),
                                               n_values=(500, 600), reps=4))
        graphs = {}
        for r in records:
            graphs.setdefault(r.graph_seed, []).append(r)
        assert len(graphs) == 2 * 2 * 4
        for runs in graphs.values():
            assert len({(r.c, r.kappa, r.n, r.rep) for r in runs}) == 1
            assert sorted(r.algorithm for r in runs) == ["greedy", "modified"]
        run_seeds = {r.run_seed for r in records}
        assert len(run_seeds) == len(records)
        assert not run_seeds & set(graphs)

    def test_one_algorithm_runs_as_in_a_sweep_of_both(self):
        cfg = small_cfg(c_values=(0.5, 3.0), reps=3)
        _, both = run_monte_carlo(cfg)
        _, alone = run_monte_carlo(small_cfg(c_values=(0.5, 3.0), reps=3,
                                             algorithms=("modified",)))
        assert without_runtimes(alone) == without_runtimes(
            [r for r in both if r.algorithm == "modified"])

    def test_mean_and_stderr_match_records(self):
        rows, records = run_monte_carlo(small_cfg(reps=5, algorithms=("greedy",)))
        mus = [r.mu_over_n for r in records]
        mean = sum(mus) / len(mus)
        assert rows[0].mean_mu_over_n == pytest.approx(mean, abs=1e-15)
        var = sum((x - mean) ** 2 for x in mus) / (len(mus) - 1)
        assert rows[0].stderr == pytest.approx(math.sqrt(var / 5), abs=1e-15)

    def test_rep_order_invariance_of_aggregates(self):
        # aggregates are symmetric functions of per-rep values
        rows, records = run_monte_carlo(small_cfg(reps=5, algorithms=("modified",)))
        mus = sorted(r.mu_over_n for r in records)
        mean = sum(mus) / len(mus)
        assert rows[0].mean_mu_over_n == pytest.approx(mean, abs=1e-15)

    def test_csv_header_and_shape(self):
        rows, _ = run_monte_carlo(small_cfg())
        text = sweep_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ("c,kappa,n,algorithm,reps,mean_mu_over_n,stderr,"
                            "theory_mu_over_n,abs_deviation")
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "1.0" and first[3] == "greedy" and first[4] == "3"

    def test_nan_theory_becomes_null_in_json(self):
        # no modified prediction at c/kappa = 3e6: the default step's 1e-6
        # floor is past RK4's stability limit there, and the integrator
        # refuses the cell after about 10^6 steps (about 1 s). As c/kappa =
        # 2m/q, no such cell has fewer than 1.4e6 edges; here q = 1 and
        # m = 1.5e6.
        cfg = ExperimentConfig(c_values=(300.0,), kappa_values=(1e-4,),
                               n_values=(10_000,), algorithms=("modified",),
                               reps=1, master_seed=5)
        rows, _ = run_monte_carlo(cfg)
        assert math.isnan(rows[0].theory_mu_over_n)
        payload = json.loads(sweep_json(rows))
        assert payload[0]["theory_mu_over_n"] is None

    def test_theory_values_computed_once_per_cell(self, monkeypatch):
        # theory does not depend on n: one value per (c, kappa, algorithm)
        # in each sweep, and none kept from an earlier sweep
        calls = []

        def counted(fn):
            def wrapper(params):
                calls.append(fn.__name__)
                return fn(params)
            return wrapper

        monkeypatch.setattr(experiment_harness, "integrate_modified",
                            counted(integrate_modified))
        monkeypatch.setattr(experiment_harness, "tau0_general",
                            counted(tau0_general))
        cfg = small_cfg(n_values=(500, 600))
        for sweep in (1, 2):
            rows, _ = run_monte_carlo(cfg)
            assert calls == ["tau0_general", "integrate_modified"] * sweep
        p = TheoryParams(1.0, 0.5)
        assert [r.theory_mu_over_n for r in rows] == [
            tau0_general(p), integrate_modified(p).mu_over_n] * 2

    def test_small_sweep_tracks_theory(self):
        cfg = small_cfg(n_values=(3000,), reps=6)
        rows, _ = run_monte_carlo(cfg)
        for r in rows:
            assert r.abs_deviation < 0.02

    def test_records_build_no_trajectory_or_matching(self, monkeypatch):
        # a rep reads only the counters; the derived fields cost nothing
        # unless read
        def never(*args):
            raise AssertionError("a sweep built a derived result field")

        monkeypatch.setattr(greedy_engines, "_trajectory", never)
        monkeypatch.setattr(greedy_engines.MatchingResult, "matching",
                            property(never))
        cfg = small_cfg(c_values=(0.5, 3.0), kappa_values=(0.1, 2.0), reps=2)
        assert planned(lambda: run_monte_carlo(cfg)) == (8, 1)
        rows, records = run_monte_carlo(cfg)
        assert len(records) == 16
        assert all(r.steps_total == r.mu + r.isolated_deletions for r in records)

    def test_deviation_shrinks_with_n(self):
        # the scaled process converges: per-cell deviation from the ODE
        # prediction is smaller at n=10^5 than at n=10^3
        devs = {}
        for n in (1000, 100_000):
            cfg = ExperimentConfig(c_values=(1.0,), kappa_values=(0.5,),
                                   n_values=(n,), reps=20, master_seed=424242)
            rows, _ = run_monte_carlo(cfg)
            for r in rows:
                devs[(r.algorithm, n)] = r.abs_deviation
        assert devs[("greedy", 100_000)] < devs[("greedy", 1000)]
        assert devs[("modified", 100_000)] < devs[("modified", 1000)]


def force_pool(monkeypatch):
    """Run every call of two or more tasks on a pool of two workers: with no
    start-up cost, two workers finish any two tasks sooner than one."""
    monkeypatch.setattr(experiment_harness, "_POOL_START_S", 0.0)
    monkeypatch.setattr(experiment_harness, "_cpus", lambda: 2)


class Planned(Exception):
    pass


def planned(call):
    """(tasks, workers) that call would dispatch, on a machine of 2 CPUs and
    8 GB available; no task runs."""
    seen = []

    def spy(fn, tasks, costs):
        seen.append((len(tasks), experiment_harness._plan(costs)))
        raise Planned

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment_harness, "_dispatch", spy)
        patch.setattr(experiment_harness, "_cpus", lambda: 2)
        patch.setattr(experiment_harness, "_available_memory", lambda: 8 * 10**9)
        with pytest.raises(Planned):
            call()
    return seen[0]


def without_runtimes(items):
    runtimes = ("runtime_seconds", "generate_seconds", "engine_seconds")
    # rows carry runtime_seconds, records the two phase times
    return [{k: v for k, v in asdict(x).items() if k not in runtimes}
            for x in items]


class TestPool:
    @pytest.mark.parametrize("shape, count", [
        (dict(c_values=(1.0, 5.0), reps=1), 2),            # mc_dense_half
        (dict(c_values=(0.5, 3.0), kappa_values=(0.1, 2.0), n_values=(10_000,),
              reps=10), 40),                                # mc_small_grid
        (dict(c_values=tuple(REFERENCE_TABLE), reps=20), 200),   # acceptance
    ], ids=["mc_dense_half", "mc_small_grid", "acceptance"])
    def test_grouping_rule(self, monkeypatch, shape, count):
        # one task per graph and rep, whether a pool runs them (here with
        # no start-up cost) or one worker does
        cfg = ExperimentConfig(**shape)
        force_pool(monkeypatch)
        assert planned(lambda: run_monte_carlo(cfg)) == (count, 2)
        monkeypatch.setattr(experiment_harness, "_workers",
                            lambda cpus, tasks, available, peak: 1)
        assert planned(lambda: run_monte_carlo(cfg)) == (count, 1)

    @pytest.mark.parametrize("call, plan", [
        # in-process beats a pool, whose cold workers cost more than it saves
        (lambda: run_monte_carlo(ExperimentConfig(c_values=(1.0, 5.0), reps=1)),
         (2, 1)),
        (lambda: run_monte_carlo(ExperimentConfig(
            c_values=(0.5, 3.0), kappa_values=(0.1, 2.0), n_values=(10_000,),
            reps=10)), (40, 2)),
        (lambda: run_monte_carlo(ExperimentConfig(c_values=(3.0,), reps=4)),
         (4, 2)),
        (lambda: run_monte_carlo(ExperimentConfig(reps=20)), (20, 2)),
        (lambda: run_monte_carlo(ExperimentConfig(c_values=(1.0, 5.0),
                                                  n_values=(10**6,), reps=1)),
         (2, 2)),
        # one pair: one task, which runs in-process
        (lambda: run_monte_carlo(ExperimentConfig(c_values=(5.0,),
                                                  n_values=(10**6,), reps=1)),
         (1, 1)),
        (lambda: run_monte_carlo(ExperimentConfig(c_values=(5.0,),
                                                  n_values=(200_000,), reps=1)),
         (1, 1)),
        (lambda: run_monte_carlo(ExperimentConfig(c_values=tuple(REFERENCE_TABLE),
                                                  reps=20)), (200, 2)),
        (lambda: theory_report((0.5, 1.0, 2.0, 3.0, 5.0, 8.0),
                               (0.1, 0.25, 0.52, 0.75, 1.0, 2.0, 5.0, 10.0),
                               step=1e-5), (48, 2)),
        (lambda: reproduce_reference_table(step=1e-5), (10, 2)),
    ], ids=["mc_dense_half", "mc_small_grid", "one_cell_4_reps",
            "one_cell_20_reps", "mc_dense_half_n1e6", "one_pair_n1e6",
            "one_pair_n2e5",
            "acceptance", "theory_grid", "table"])
    def test_plan_per_shape(self, call, plan):
        # (tasks, workers) with the measured start-up cost; in-process is
        # 1 worker. This module imports multiprocessing, so the plans are
        # those of a process that has imported it already.
        assert "multiprocessing" in sys.modules
        assert planned(call) == plan

    def test_plan_counts_the_import_in_a_fresh_process(self, monkeypatch):
        # two tasks that a pool finishes sooner after its warm start-up, but
        # not after a fresh process also imports multiprocessing
        monkeypatch.setattr(experiment_harness, "_cpus", lambda: 2)
        monkeypatch.setattr(experiment_harness, "_available_memory", lambda: 8 * 10**9)
        seconds = experiment_harness._POOL_START_S + experiment_harness._POOL_IMPORT_S / 2
        costs = [(seconds, 10**6)] * 2
        assert experiment_harness._plan(costs) == 2
        monkeypatch.delitem(sys.modules, "multiprocessing")
        assert experiment_harness._plan(costs) == 1
        assert "multiprocessing" not in sys.modules   # the plan imported nothing

    def test_workers_import_nothing_during_their_tasks(self):
        # in a fresh interpreter, where numpy.random is not loaded until a
        # sweep asks for it: the workers inherit it from the caller
        script = """if True:
            import os, sys
            from rainbow_greedy import experiment_harness as h
            h._POOL_START_S, h._cpus = 0.0, lambda: 2
            run_rep, caller = h._run_rep, os.getpid()

            def checked(task):
                before = set(sys.modules)
                outcome = run_rep(task)
                loaded = sorted(set(sys.modules) - before)
                if os.getpid() == caller or loaded:
                    raise RuntimeError(f"process {os.getpid()} (caller "
                                       f"{caller}) imported {loaded}")
                return outcome

            h._run_rep = checked
            h.run_monte_carlo(h.ExperimentConfig(
                c_values=(0.5, 3.0), kappa_values=(0.1, 2.0),
                n_values=(10_000,), reps=10))
            """
        src = os.path.dirname(os.path.dirname(rainbow_greedy.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_paired_task_cost(self):
        # one generate and both engines; the larger of the two reps' peaks
        pair = (10_000, 15_000, 20_000, 1, (("greedy", 2), ("modified", 3)))
        greedy, modified = ((*pair[:4], (run,)) for run in pair[4])
        cost = experiment_harness._task_cost
        generate = experiment_harness._TASK_S + 1e-9 * experiment_harness._per_size(
            experiment_harness._REP_NS["generate"], 10_000, 15_000, 20_000)
        assert cost(pair)[0] == pytest.approx(cost(greedy)[0] + cost(modified)[0]
                                              - generate)
        assert cost(pair)[1] == max(cost(greedy)[1], cost(modified)[1])

    def test_sweep_matches_in_process(self, monkeypatch):
        cfg = small_cfg(c_values=(0.5, 3.0), kappa_values=(0.1, 2.0), reps=3)
        assert planned(lambda: run_monte_carlo(cfg)) == (12, 1)
        rows, records = run_monte_carlo(cfg)
        force_pool(monkeypatch)
        assert planned(lambda: run_monte_carlo(cfg)) == (12, 2)
        streamed = []
        pooled_rows, pooled_records = run_monte_carlo(cfg, on_row=streamed.append)
        assert multiprocessing.active_children() == []
        assert streamed == pooled_rows
        assert without_runtimes(pooled_rows) == without_runtimes(rows)
        assert without_runtimes(pooled_records) == without_runtimes(records)
        # either way, a pair's runs read one graph, generated once
        for run in (records, pooled_records):
            pairs = {}
            for r in run:
                pairs.setdefault((r.c, r.kappa, r.rep), []).append(r)
            for greedy, modified in pairs.values():
                assert greedy.graph_seed == modified.graph_seed
                assert greedy.generate_seconds == modified.generate_seconds

    def test_theory_and_table_match_in_process(self, monkeypatch):
        # (100, 0.01) at step 1e-2: the modified integration runs away
        c_values, kappa_values = (0.5, 3.0, 100.0), (0.01, 0.52, 5.0)
        theory = theory_report(c_values, kappa_values, step=1e-2)
        table = reproduce_reference_table(step=1e-4)
        force_pool(monkeypatch)
        assert theory_report(c_values, kappa_values, step=1e-2) == theory
        assert reproduce_reference_table(step=1e-4) == table
        assert multiprocessing.active_children() == []
        assert any(r["mu_modified"] is None for r in theory)

    def test_failed_task_raises_after_the_cells_before_it(self, monkeypatch):
        # the middle cell (c = 2) fails in a worker; the first cell's row is
        # delivered, the last cell's is not, whatever order they finish in
        run_greedy = experiment_harness.run_greedy

        def fail_at_c2(g, run_seed):
            if g.m_initial == 500:
                raise RuntimeError(f"engine failed in process {os.getpid()}")
            return run_greedy(g, run_seed)

        monkeypatch.setattr(experiment_harness, "run_greedy", fail_at_c2)
        force_pool(monkeypatch)
        streamed = []
        with pytest.raises(RuntimeError, match=r"engine failed in process") as exc:
            run_monte_carlo(small_cfg(c_values=(1.0, 2.0, 3.0),
                                      algorithms=("greedy",)),
                            on_row=streamed.append)
        assert int(str(exc.value).split()[-1]) != os.getpid()
        assert [r.c for r in streamed] == [1.0]
        assert multiprocessing.active_children() == []

    def test_earliest_failed_task_is_raised(self, monkeypatch):
        # c = 2 and c = 3 both fail; c = 3's heavier reps are claimed and
        # fail first, yet c = 2's failure is raised, after c = 1's row
        run_greedy = experiment_harness.run_greedy

        def fail_from_c2(g, run_seed):
            if g.m_initial >= 500:
                raise RuntimeError(f"engine failed at m={g.m_initial}")
            return run_greedy(g, run_seed)

        monkeypatch.setattr(experiment_harness, "run_greedy", fail_from_c2)
        force_pool(monkeypatch)
        streamed = []
        with pytest.raises(RuntimeError, match=r"^engine failed at m=500$"):
            run_monte_carlo(small_cfg(c_values=(1.0, 2.0, 3.0),
                                      algorithms=("greedy",)),
                            on_row=streamed.append)
        assert [r.c for r in streamed] == [1.0]
        assert multiprocessing.active_children() == []

    def test_killed_worker_raises(self, monkeypatch):
        # as when the kernel kills a worker for memory: the call raises
        # once the worker's pipe closes instead of waiting for the lost task
        run_greedy, parent = experiment_harness.run_greedy, os.getpid()

        def killed_at_c2(g, run_seed):
            if g.m_initial == 500:
                assert os.getpid() != parent, "the task ran in-process"
                os.kill(os.getpid(), signal.SIGKILL)
            return run_greedy(g, run_seed)

        monkeypatch.setattr(experiment_harness, "run_greedy", killed_at_c2)
        force_pool(monkeypatch)
        with pytest.raises(RuntimeError, match="a pool worker died"):
            run_monte_carlo(small_cfg(c_values=(1.0, 2.0, 3.0),
                                      algorithms=("greedy",)))
        assert multiprocessing.active_children() == []

    def test_worker_that_exits_cleanly_mid_task_raises(self, monkeypatch):
        # exit status 0 but a task never came back: still a lost task
        run_greedy, parent = experiment_harness.run_greedy, os.getpid()

        def exit_at_c2(g, run_seed):
            if g.m_initial == 500:
                assert os.getpid() != parent, "the task ran in-process"
                sys.exit(0)
            return run_greedy(g, run_seed)

        monkeypatch.setattr(experiment_harness, "run_greedy", exit_at_c2)
        force_pool(monkeypatch)
        with pytest.raises(RuntimeError, match="a pool worker died"):
            run_monte_carlo(small_cfg(c_values=(1.0, 2.0, 3.0),
                                      algorithms=("greedy",)))
        assert multiprocessing.active_children() == []

    def test_interrupt_in_the_caller_stops_the_workers(self, monkeypatch):
        def interrupt(row):
            raise KeyboardInterrupt

        force_pool(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            run_monte_carlo(small_cfg(c_values=(1.0, 2.0, 3.0), reps=4),
                            on_row=interrupt)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, tasks, available, peak, workers", [
        (2, 4, 8 * 10**9, 10**8, 2),          # CPUs bound
        (8, 3, 8 * 10**9, 10**8, 3),          # tasks bound
        (8, 100, 10**9, 4 * 10**8, 2),        # memory bound
        (8, 100, 10**9, 2 * 10**9, 0),        # one task does not fit
        (4, 4, 10**9, 0, 4),                  # no estimate
    ])
    def test_worker_count(self, cpus, tasks, available, peak, workers):
        assert experiment_harness._workers(cpus, tasks, available, peak) == workers

    def test_in_process_when_small_or_threaded(self, monkeypatch):
        monkeypatch.setattr(experiment_harness, "_cpus", lambda: 2)
        plan = experiment_harness._plan
        heavy = [(1.0, 10**6)] * 4
        assert plan(heavy) == 2
        # two tasks: a second worker saves one task's time, against the
        # pool's start-up cost
        start = experiment_harness._POOL_START_S
        assert plan([(start, 10**6)] * 2) == 1
        assert plan([(1.01 * start, 10**6)] * 2) == 2
        assert plan(heavy[:1]) == 1
        assert plan([]) == 1
        # one CPU runs the paired tasks in-process
        monkeypatch.setattr(experiment_harness, "_cpus", lambda: 1)
        assert plan(heavy) == 1
        monkeypatch.setattr(experiment_harness, "_cpus", lambda: 2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert plan(heavy) == 1
        finally:
            stop.set()
            other.join()

    def test_phase_timings_add_up(self):
        rows, records = run_monte_carlo(small_cfg())
        for r in records:
            assert r.generate_seconds >= 0 and r.engine_seconds >= 0
        assert rows[0].runtime_seconds == sum(
            r.generate_seconds + r.engine_seconds for r in records[:3])


class TestConventionStatement:
    def test_names_the_matching_form(self):
        cfg = small_cfg(n_values=(3000,), reps=6, algorithms=("greedy",))
        rows, _ = run_monte_carlo(cfg)
        s = greedy_convention_statement(rows)
        assert "sqrt(2c+1)" in s
        assert "1/1 cells" in s

    def test_no_applicable_cells(self):
        cfg = small_cfg(kappa_values=(1.0,), algorithms=("greedy",))
        rows, _ = run_monte_carlo(cfg)
        assert "not assessed" in greedy_convention_statement(rows)


class TestReferenceTable:
    def test_grid(self):
        assert sorted(REFERENCE_TABLE) == [0.5 + 0.5 * i for i in range(10)]

    def test_greedy_column_convention(self):
        tc = reproduce_reference_table(step=1e-4)
        assert tc.greedy_convention == "sqrt(c+1)"
        for r in tc.rows:
            assert abs(r["delta_sqrt_c1"]) <= 0.005
        # and the other convention does not explain the column
        worst = max(abs(r["delta_sqrt_2c1"]) for r in tc.rows)
        assert worst > 0.005

    def test_modified_column_single_outlier(self):
        # every cell agrees with the recomputed ODE value within 0.01
        # except c=2.5, which is off by ~ +0.0103 (see the decisions note)
        tc = reproduce_reference_table(step=1e-4)
        assert [c for (c, _) in tc.modified_outliers] == [2.5]
        (_, delta) = tc.modified_outliers[0]
        assert delta == pytest.approx(0.0103, abs=5e-4)

    def test_modified_theory_frozen_spot_checks(self):
        tc = reproduce_reference_table(step=1e-4)
        by_c = {r["c"]: r for r in tc.rows}
        assert by_c[1.0]["theory_modified"] == pytest.approx(0.215839, abs=2e-6)
        assert by_c[2.5]["theory_modified"] == pytest.approx(0.305683, abs=2e-6)
        assert by_c[5.0]["theory_modified"] == pytest.approx(0.360992, abs=2e-6)

    def test_csv_round_trip(self):
        tc = reproduce_reference_table(step=1e-4)
        lines = to_csv(tc.rows, TABLE_COLUMNS).strip().split("\n")
        assert lines[0].startswith("c,reference_greedy")
        assert len(lines) == 11


class TestConjecture:
    def test_report_structure(self):
        rows, records = run_monte_carlo(small_cfg(n_values=(3000,), reps=6))
        report = check_conjecture(rows, records)
        assert len(report) == 1
        row = report[0]
        assert row.status in ("consistent with conjecture",
                              "inconclusive (margin)", "violation")
        diffs = [m.mu_over_n - g.mu_over_n
                 for g, m in zip(records[:6], records[6:])]
        assert row.margin == pytest.approx(3 * stdev(diffs) / math.sqrt(6),
                                           abs=1e-15)
        assert row.margin > 0
        assert row.diff == pytest.approx(row.mean_modified - row.mean_greedy,
                                         abs=1e-15)
        assert row.status != "violation"
        assert check_conjecture(rows, records) == report

    def test_one_algorithm_gives_no_rows(self):
        rows, records = run_monte_carlo(small_cfg(algorithms=("greedy",)))
        assert check_conjecture(rows, records) == []

    @staticmethod
    def paired(diff, n=1000, algorithms=("greedy", "modified")):
        """Rows and records of a cell of two reps. Their graphs move both
        algorithms by -0.01 and +0.01, and on them modified's mu/n differs
        from greedy's by diff - 0.005 and diff + 0.005: the paired 3-SE
        margin is 0.015, where the pooled one, 3 * hypot(0.01, 0.015),
        would be 0.054."""
        mus = {"greedy": (0.19, 0.21),
               "modified": (0.2 + diff - 0.015, 0.2 + diff + 0.015)}
        rows, records = [], []
        for algorithm in algorithms:
            rows.append(AggregateRow(
                c=1.0, kappa=0.5, n=n, algorithm=algorithm, reps=2,
                mean_mu_over_n=fmean(mus[algorithm]),
                stderr=stdev(mus[algorithm]) / math.sqrt(2),
                theory_mu_over_n=math.nan, abs_deviation=math.nan,
                runtime_seconds=0.0))
            records.extend(RunRecord(
                c=1.0, kappa=0.5, n=n, algorithm=algorithm, rep=rep,
                graph_seed=rep, run_seed=10 * rep + len(algorithm),
                mu=round(mu * n), mu_over_n=mu, steps_total=0,
                isolated_deletions=0, generate_seconds=0.0,
                engine_seconds=0.0)
                for rep, mu in enumerate(mus[algorithm]))
        return rows, records

    @pytest.mark.parametrize("diff,status", [
        (-0.02, "violation"),
        (-0.01, "inconclusive (margin)"),
        (0.01, "inconclusive (margin)"),
        (0.02, "consistent with conjecture"),
    ], ids=["violation", "inconclusive_below", "inconclusive_above",
            "consistent"])
    def test_status_from_pooled_margin(self, diff, status):
        # the margin is 3 standard errors of the paired differences
        report = check_conjecture(*self.paired(diff))
        (row,) = report
        assert row.margin == pytest.approx(0.015, abs=1e-15)
        assert row.diff == pytest.approx(diff, abs=1e-15)
        assert row.status == status

    def test_one_rep_is_inconclusive(self):
        # one paired difference has no spread to judge it by: greedy ahead
        # by 0.02 is no violation, and the nan margin is null in JSON
        rows, records = self.paired(-0.02)
        for r in rows:
            r.reps = 1
        (row,) = check_conjecture(rows, [r for r in records if r.rep == 0])
        assert row.status == "inconclusive (margin)"
        assert math.isnan(row.margin)
        assert json.loads(to_json([asdict(row)]))[0]["margin"] is None

    def test_one_row_per_cell_sorted_by_n(self):
        rows, records = [], []
        for n, algorithms in ((2000, ("modified", "greedy")),
                              (500, ("greedy", "modified")), (8000, ("greedy",))):
            cell_rows, cell_records = self.paired(0.05, n=n, algorithms=algorithms)
            rows.extend(cell_rows)
            records.extend(cell_records)
        report = check_conjecture(rows, records)
        assert [r.n for r in report] == [500, 2000]
        assert all(r.mean_greedy == pytest.approx(0.2, abs=1e-15)
                   and r.mean_modified == pytest.approx(0.25, abs=1e-15)
                   for r in report)

    def test_runs_not_on_one_graph_are_refused(self):
        rows, records = self.paired(0.01)
        records[-1].graph_seed = 7   # modified's second rep, another graph
        with pytest.raises(ValueError, match=r"rep 1 of \(c=1.0, kappa=0.5, "
                                             r"n=1000\)"):
            check_conjecture(rows, records)
        with pytest.raises(ValueError, match="rep 0"):
            check_conjecture(rows, records[1:])


class TestTheoryReport:
    def test_values(self):
        rows = theory_report([4.0], [0.5], step=1e-4)
        row = rows[0]
        assert row["tau0_greedy"] == pytest.approx(1 / 3, abs=1e-9)
        assert row["tau0_greedy_numeric"] == pytest.approx(1 / 3, abs=1e-6)
        assert row["mu_modified"] == pytest.approx(0.344814, abs=2e-6)
        assert row["upper_bound"] == pytest.approx(0.4300626808751862, abs=1e-12)

    def test_unreachable_entries_are_none(self):
        rows = theory_report([6.0], [0.075], step=1e-4)
        row = rows[0]
        assert row["tau0_greedy_numeric"] is None   # root within a step of kappa
        assert row["tau0_greedy"] == pytest.approx(0.075, abs=1e-9)


class TestAsymptoticsReport:
    def test_rows_and_containment(self):
        rows = asymptotics_report([1.0, 3.0], [0.52, 10.0])
        regimes = {(r["c"], r["kappa"]): r["regime"] for r in rows}
        assert regimes[(1.0, 0.52)] == "near-half"
        assert regimes[(3.0, 10.0)] == "large-kappa"
        assert all(r["contained"] for r in rows)

    def test_csv_shape(self):
        rows = asymptotics_report([3.0], [10.0])
        lines = to_csv(rows, ASYMPTOTICS_COLUMNS).strip().split("\n")
        assert lines[0] == "c,kappa,regime,lower,estimate,upper,tau0_exact,contained"
        assert lines[1].endswith(",True")

    def test_no_regime_applies(self):
        assert asymptotics_report([0.5], [3.0]) == []

    def test_exact_half_has_no_bracket(self):
        # tau0_closed_half is exact at kappa = 1/2, so no regime claims it
        assert asymptotics_report([0.5, 1.0, 3.0, 8.0], [0.5]) == []


class TestCli:
    def test_simulate_csv(self, capsys):
        # --check holds each mean to 0.01 of theory; one rep's sd at n = 500
        # is 0.008-0.012, so 20 reps put the bound 4-5 standard errors out
        rc = main(["simulate", "--c", "1", "--kappa", "0.5", "--n", "500",
                   "--reps", "20", "--seed", "7", "--check"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == ",".join(AGGREGATE_COLUMNS)
        assert len(lines) == 3
        assert "sqrt(2c+1)" in captured.err

    def test_simulate_json(self, capsys):
        rc = main(["simulate", "--c", "1", "--kappa", "0.5", "--n", "500",
                   "--reps", "2", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert payload[0]["algorithm"] == "greedy"

    def test_simulate_out_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(["simulate", "--c", "1", "--kappa", "0.5", "--n", "500",
                   "--reps", "2", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith(",".join(AGGREGATE_COLUMNS))
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate_stdout_is_the_out_file(self, tmp_path, capsys,
                                             monkeypatch, fmt):
        # one writer for both; the frozen clock makes runtime_seconds equal
        monkeypatch.setattr(experiment_harness, "time",
                            SimpleNamespace(perf_counter=lambda: 0.0))
        argv = ["simulate", "--c", "1,3", "--kappa", "0.5", "--n", "500",
                "--reps", "2", "--format", fmt]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "rows"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == stdout.encode()
        assert stdout.count("greedy") == 2 and stdout.count("modified") == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_cell_keeps_the_rows_before_it(self, tmp_path, monkeypatch,
                                                  fmt):
        # the second graph cell (c = 2, m = 500) fails in its modified run;
        # both rows of the first (c = 1) are written, and as CSV lines they
        # are in the file before the second graph cell runs
        out = tmp_path / "rows"
        seen = []
        run_modified_greedy = experiment_harness.run_modified_greedy

        def fail_at_c2(g, run_seed):
            if g.m_initial == 500:
                seen.append(out.read_text())
                raise RuntimeError("engine failed")
            return run_modified_greedy(g, run_seed)

        monkeypatch.setattr(experiment_harness, "run_modified_greedy", fail_at_c2)
        with pytest.raises(RuntimeError, match="engine failed"):
            main(["simulate", "--c", "1,2", "--kappa", "0.5", "--n", "500",
                  "--reps", "2", "--format", fmt,
                  "--out", str(out)])
        if fmt == "csv":
            header, *rows = seen[0].splitlines()
            assert header == ",".join(AGGREGATE_COLUMNS)
            assert [r.split(",")[:5] for r in rows] == [
                ["1.0", "0.5", "500", "greedy", "2"],
                ["1.0", "0.5", "500", "modified", "2"]]
            assert out.read_text() == seen[0]
        else:
            assert seen == [""]
            rows = json.loads(out.read_text())
            assert [(r["c"], r["algorithm"], r["reps"]) for r in rows] == [
                (1.0, "greedy", 2), (1.0, "modified", 2)]

    def test_theory_check_passes(self, capsys):
        rc = main(["theory", "--c", "1,4", "--kappa", "0.5", "--step", "1e-4",
                   "--check"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("c,kappa,tau0_greedy")

    def test_color_starved_greedy_cell(self, capsys):
        # color-starved: the root's gap below kappa is under float spacing,
        # so tau0 is kappa itself
        cell = ["--c", "2.7144176165949068", "--kappa", "0.02986831190748335"]
        assert main(["theory", *cell]) == 0
        assert main(["simulate", "--algo", "greedy", *cell, "--n", "2000",
                     "--reps", "2", "--check"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")
        assert rows[1].split(",")[2] == "0.02986831190748335"   # tau0_greedy
        assert rows[-1].split(",")[7] == "0.02986831190748335"  # theory_mu_over_n

    def test_table_check_flags_known_outlier(self, capsys):
        rc = main(["table", "--step", "1e-4", "--check"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "c=2.5" in captured.err
        assert "sqrt(c+1)" in captured.err

    def test_asymptotics_check(self, capsys):
        rc = main(["asymptotics", "--c", "1,3", "--kappa", "0.52,10",
                   "--check"])
        assert rc == 0
        assert "near-half" in capsys.readouterr().out

    def test_asymptotics_check_fails_on_a_missed_root(self, capsys):
        # the large-kappa bracket misses the root at (8, 5) by under 1e-8,
        # so the failure line needs every digit to tell them apart
        rc = main(["asymptotics", "--c", "8", "--kappa", "5", "--check"])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("CHECK FAIL (c=8.0, kappa=5.0, large-kappa): ")
        root, lower = (float(x) for x in re.search(
            r"exact root (\S+) outside \[(\S+),", line).groups())
        assert root < lower

    def test_conjecture_runs(self, capsys):
        rc = main(["conjecture", "--c", "1", "--kappa", "0.5", "--n", "500",
                   "--reps", "3", "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("c,kappa,n,mean_greedy")

    @pytest.mark.parametrize("check, rc", [(False, 0), (True, 1)])
    def test_conjecture_reports_a_violation(self, monkeypatch, capsys, check, rc):
        # greedy beats modified by 0.02 at n = 500, beyond the 0.015 margin
        rows, records = TestConjecture.paired(-0.02, n=500)
        monkeypatch.setattr(rainbow_greedy.cli, "run_monte_carlo",
                            lambda cfg: (rows, records))
        args = ["conjecture", "--c", "1", "--kappa", "0.5", "--n", "500"]
        assert main(args + ["--check"] * check) == rc
        out, err = capsys.readouterr()
        assert out.splitlines()[1].endswith(",violation")
        assert err == ("violation at (c=1.0, kappa=0.5, n=500): greedy 0.2000 "
                       "beats modified 0.1800 beyond margin 0.0150\n")

    @pytest.mark.parametrize("command", ["simulate", "conjecture"])
    @pytest.mark.parametrize("bad", [["--n", "0"], ["--n", "99"],
                                     ["--reps", "0"], ["--kappa", "0.001"],
                                     ["--kappa", "1e308"], ["--c", "1e308"]])
    def test_bad_sweep_value_is_an_argument_error(self, tmp_path, capsys,
                                                  command, bad):
        out = tmp_path / "kept.csv"
        out.write_text("earlier output\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--c", "1", "--n", "100", "--reps", "2",
                  "--out", str(out), *bad])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert out.read_text() == "earlier output\n"

    def test_cell_beyond_memory_is_an_argument_error(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--kappa", "1e6", "--n", "100000", "--out",
                  str(out)])
        assert exc.value.code == 2
        assert "GB" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "theory", "asymptotics",
                                         "conjecture"])
    @pytest.mark.parametrize("flag", ["--c", "--kappa"])
    @pytest.mark.parametrize("value", ["inf", "1,nan"])
    def test_non_finite_grid_value_is_an_argument_error(self, tmp_path, capsys,
                                                        command, flag, value):
        # a non-finite c or kappa has no prediction, and an inf in a row
        # makes to_json raise
        out = tmp_path / "kept.csv"
        out.write_text("earlier output\n")
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value, "--format", "json", "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: values must be finite" in capsys.readouterr().err
        assert out.read_text() == "earlier output\n"

    @pytest.mark.parametrize("command", ["simulate", "theory", "table",
                                         "asymptotics", "conjecture"])
    @pytest.mark.parametrize("step", ["0", "-1", "1e-7", "0.02", "nan", "x"])
    def test_bad_step_is_an_argument_error(self, tmp_path, capsys, command,
                                           step):
        out = tmp_path / "kept.csv"
        out.write_text("earlier output\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--step", step, "--out", str(out)])
        assert exc.value.code == 2
        if command in ("theory", "table"):   # the others take no --step
            assert "argument --step" in capsys.readouterr().err
        assert out.read_text() == "earlier output\n"

    @pytest.mark.parametrize("command", ["asymptotics", "conjecture",
                                         "simulate"])
    def test_step_is_not_an_option_without_ode_output(self, tmp_path, capsys,
                                                      command):
        # asymptotics and conjecture report no ODE value, and simulate's
        # theory column is always at the default step, so even a valid step
        # is an unknown argument
        out = tmp_path / "kept.csv"
        out.write_text("earlier output\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--step", "1e-4", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --step" in capsys.readouterr().err
        assert out.read_text() == "earlier output\n"

    @pytest.mark.parametrize("command", ["simulate", "conjecture"])
    def test_stride_is_not_an_option(self, tmp_path, capsys, command):
        # the engines return every step of the trajectory
        out = tmp_path / "kept.csv"
        out.write_text("earlier output\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--stride", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --stride" in capsys.readouterr().err
        assert out.read_text() == "earlier output\n"

    @pytest.mark.parametrize("command", ["simulate", "theory", "asymptotics",
                                         "conjecture"])
    @pytest.mark.parametrize("flag, value", [("--c", "0"), ("--kappa", "-1"),
                                             ("--c", "1,-0.5")])
    def test_non_positive_grid_value_is_an_argument_error(self, tmp_path, capsys,
                                                          command, flag, value):
        # no prediction and no sweep accepts a c or kappa that is not positive
        out = tmp_path / "kept.csv"
        out.write_text("earlier output\n")
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert (f"argument {flag}: values must be finite and positive"
                in capsys.readouterr().err)
        assert out.read_text() == "earlier output\n"

    def test_theory_at_largest_c(self, capsys):
        # 1 - 2 tau0 is of order 1 / c, far below float resolution at 1/2;
        # tau0 is the c -> inf limit 1/2
        assert main(["theory", "--c", "1.7e308", "--kappa", "2"]) == 0
        row = capsys.readouterr().out.split("\n")[1].split(",")
        assert row[2] == "0.5"

    def test_theory_at_huge_kappa(self, capsys):
        # c (2 kappa - 1)^2 / (2 kappa) overflows; tau0 is the kappa -> inf
        # limit c / (2 (c + 1))
        assert main(["theory", "--c", "1", "--kappa", "1e308"]) == 0
        row = capsys.readouterr().out.split("\n")[1].split(",")
        assert row[2] == "0.25"

    def test_asymptotics_csv_text(self, capsys):
        # pure-Python math on the default grid, so the digits are stable.
        # tau0_exact is within 1 ulp of the roots of f_kappa at 100 digits
        # (tests/freeze_tau0_roots.py):
        #   (1, 0.52):  0.2128018672329324894519067292339710382722
        #   (3, 0.52):  0.3139516054962162238060009192000388686171
        #   (3, 10):    0.3724457434888861964804104493069887250332
        # The near-half lower endpoints are within 1.5 ulps of their
        # 50-digit values (0.20624730867551881078, 0.30745488831169980933).
        assert main(["asymptotics"]) == 0
        assert capsys.readouterr().out == (
            "c,kappa,regime,lower,estimate,upper,tau0_exact,contained\n"
            "1.0,0.52,near-half,0.20624730867551877,0.20624730867551877,"
            "0.2164235732048831,0.2128018672329325,True\n"
            "3.0,0.52,near-half,0.3074548883116998,0.3074548883116998,"
            "0.317728999011653,0.31395160549621626,True\n"
            "3.0,10.0,large-kappa,0.37244560493506573,0.37244581180670716,"
            "0.3724460186776775,0.3724457434888862,True\n")

    @pytest.mark.parametrize("argv, nulls, refusal", [
        pytest.param(["simulate", "--c", "1", "--kappa", "0.5", "--n", "500",
                      "--reps", "2", "--algo", "modified"],
                     ["theory_mu_over_n", "abs_deviation"],
                     "integral-form residual exceeds 1e-05", id="simulate"),
        pytest.param(["simulate", "--c", "1", "--kappa", "0.5", "--n", "500",
                      "--reps", "1", "--algo", "modified"],
                     ["theory_mu_over_n", "abs_deviation"],
                     "e^-lambda overflows in an RK4 stage",
                     id="simulate-overflow"),
        pytest.param(["theory", "--c", "6", "--kappa", "0.075"],
                     ["tau0_greedy_numeric"], None, id="theory"),
        pytest.param(["theory", "--c", "1000", "--kappa", "0.001", "--step",
                      "1e-3"],
                     ["tau0_greedy_numeric", "tau0_modified", "mu_modified"],
                     None, id="theory-overflow"),
        pytest.param(["table", "--step", "1e-3"], [], None, id="table"),
        pytest.param(["asymptotics"], [], None, id="asymptotics"),
        pytest.param(["conjecture", "--c", "1", "--kappa", "0.5", "--n", "500",
                      "--reps", "2"], [], None, id="conjecture"),
    ])
    def test_json_rows_have_the_csv_columns(self, monkeypatch, capsys, argv,
                                            nulls, refusal):
        # the nulls are the values no prediction gives: at step 1e-3 the
        # modified ODE's e^-lambda overflows at c/kappa = 10^6, and at
        # (6, 0.075) the greedy root lies within one step of kappa. A sweep
        # cell the integrator refuses at the default step (c/kappa above
        # about 2.8e6; TestMonteCarlo runs one, at about 1 s) is stood in
        # for by a stub that fails as the integrator does.
        def refuse(params):
            raise IntegrationFailure(refusal)

        if refusal is not None:
            monkeypatch.setattr(experiment_harness, "integrate_modified", refuse)
        assert main(argv) == 0
        header = capsys.readouterr().out.split("\n")[0].split(",")
        if argv[0] == "simulate":
            header.append("runtime_seconds")
        assert main([*argv, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows
        for row in rows:
            assert list(row) == header
            assert [k for k, v in row.items() if v is None] == nulls

    def test_module_entry_point(self):
        # the child imports the package this process imported
        src = os.path.dirname(os.path.dirname(rainbow_greedy.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "rainbow_greedy", "theory", "--c", "1",
             "--kappa", "0.5", "--step", "1e-3"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("c,kappa,tau0_greedy")
