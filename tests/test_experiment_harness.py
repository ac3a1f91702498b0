import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from dataclasses import asdict
from types import SimpleNamespace

import pytest

import rainbow_greedy
from rainbow_greedy import experiment_harness
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
    asymptotics_report,
    check_conjecture,
    greedy_convention_statement,
    reproduce_reference_table,
    run_monte_carlo,
    theory_mu_over_n,
    theory_report,
    to_csv,
    to_json,
)
from rainbow_greedy.ode_theory import (
    TheoryParams,
    integrate_modified,
    tau0_closed_half,
    tau0_general,
)


def small_cfg(**kw):
    base = dict(c_values=(1.0,), kappa_values=(0.5,), n_values=(500,),
                reps=3, master_seed=11, ode_step=1e-4)
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

    @pytest.mark.parametrize("step", [0.0, -1e-5, 1e-7, 0.02, math.nan])
    def test_rejects_bad_ode_step(self, step):
        with pytest.raises(ValueError, match="step"):
            small_cfg(ode_step=step)

    def test_rejects_cell_beyond_physical_memory(self):
        # q = 10^11 colors: about 1000 GB by the estimate, 10 B per color
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
                               reps=1, master_seed=3, ode_step=1e-4)
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
        _, records = run_monte_carlo(small_cfg(reps=4))
        seeds = [r.graph_seed for r in records] + [r.run_seed for r in records]
        assert len(seeds) == len(set(seeds))

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
        # no modified prediction at (c=100, kappa=0.01): step 1e-2 is far
        # too coarse for c/kappa = 10^4, so the integration runs away
        cfg = ExperimentConfig(c_values=(100.0,), kappa_values=(0.01,),
                               n_values=(200,), algorithms=("modified",),
                               reps=1, master_seed=5, ode_step=1e-2)
        rows, _ = run_monte_carlo(cfg)
        assert math.isnan(rows[0].theory_mu_over_n)
        payload = json.loads(sweep_json(rows))
        assert payload[0]["theory_mu_over_n"] is None

    def test_theory_values_computed_once_per_cell(self):
        theory_mu_over_n.cache_clear()
        p = TheoryParams(1.0, 0.5)
        want = integrate_modified(p, step=1e-4).mu_over_n
        assert theory_mu_over_n(1.0, 0.5, "modified", 1e-4) == want
        assert theory_mu_over_n(1.0, 0.5, "modified", 1e-4) == want
        assert theory_mu_over_n(1.0, 0.5, "greedy", 1e-4) == tau0_general(p)
        assert theory_mu_over_n.cache_info()[:2] == (1, 2)   # hits, misses

    def test_small_sweep_tracks_theory(self):
        cfg = small_cfg(n_values=(3000,), reps=6)
        rows, _ = run_monte_carlo(cfg)
        for r in rows:
            assert r.abs_deviation < 0.02

    def test_deviation_shrinks_with_n(self):
        # the scaled process converges: per-cell deviation from the ODE
        # prediction is smaller at n=10^5 than at n=10^3
        devs = {}
        for n in (1000, 100_000):
            cfg = ExperimentConfig(c_values=(1.0,), kappa_values=(0.5,),
                                   n_values=(n,), reps=20, master_seed=424242,
                                   ode_step=1e-4)
            rows, _ = run_monte_carlo(cfg)
            for r in rows:
                devs[(r.algorithm, n)] = r.abs_deviation
        assert devs[("greedy", 100_000)] < devs[("greedy", 1000)]
        assert devs[("modified", 100_000)] < devs[("modified", 1000)]


def force_pool(monkeypatch):
    """Run every call of two or more tasks on a pool of two workers."""
    monkeypatch.setattr(experiment_harness, "_POOL_MIN_WORK_S", 0.0)
    monkeypatch.setattr(experiment_harness, "_cpus", lambda: 2)


def without_runtimes(items):
    runtimes = ("runtime_seconds", "generate_seconds", "engine_seconds")
    return [{k: v for k, v in asdict(x).items() if k not in runtimes}
            for x in items]


class TestPool:
    def test_sweep_matches_in_process(self, monkeypatch):
        cfg = small_cfg(c_values=(0.5, 3.0), kappa_values=(0.1, 2.0), reps=3)
        rows, records = run_monte_carlo(cfg)
        force_pool(monkeypatch)
        streamed = []
        pooled_rows, pooled_records = run_monte_carlo(cfg, on_row=streamed.append)
        assert multiprocessing.active_children() == []
        assert streamed == pooled_rows
        assert without_runtimes(pooled_rows) == without_runtimes(rows)
        assert without_runtimes(pooled_records) == without_runtimes(records)

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
        heavy = [(1.0, 10**6)] * 4
        assert experiment_harness._pool_size(heavy) == 2
        assert experiment_harness._pool_size([(0.01, 10**6)] * 4) == 1
        assert experiment_harness._pool_size(heavy[:1]) == 1
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert experiment_harness._pool_size(heavy) == 1
        finally:
            stop.set()
            other.join()

    def test_phase_timings_add_up(self):
        rows, records = run_monte_carlo(small_cfg())
        for r in records:
            assert r.generate_seconds >= 0 and r.engine_seconds >= 0
            assert r.runtime_seconds == r.generate_seconds + r.engine_seconds
        assert rows[0].runtime_seconds == sum(r.runtime_seconds
                                              for r in records[:3])


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
        rows, _ = run_monte_carlo(small_cfg(n_values=(3000,), reps=6))
        report = check_conjecture(rows)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.status in ("consistent with conjecture",
                              "inconclusive (margin)", "violation")
        assert row.margin > 0
        assert row.diff == pytest.approx(row.mean_modified - row.mean_greedy,
                                         abs=1e-15)
        assert not report.violations
        assert check_conjecture(rows).rows == report.rows

    def test_one_algorithm_gives_no_rows(self):
        rows, _ = run_monte_carlo(small_cfg(algorithms=("greedy",)))
        report = check_conjecture(rows)
        assert report.rows == [] and report.violations == []

    @staticmethod
    def agg(algorithm, mean, n=1000):
        # stderrs 0.003 and 0.004 pool to a 3-SE margin of 0.015
        stderr = 0.003 if algorithm == "greedy" else 0.004
        return AggregateRow(c=1.0, kappa=0.5, n=n, algorithm=algorithm, reps=5,
                            mean_mu_over_n=mean, stderr=stderr,
                            theory_mu_over_n=math.nan, abs_deviation=math.nan,
                            runtime_seconds=0.0)

    @pytest.mark.parametrize("diff,status", [
        (-0.02, "violation"),
        (-0.01, "inconclusive (margin)"),
        (0.01, "inconclusive (margin)"),
        (0.02, "consistent with conjecture"),
    ], ids=["violation", "inconclusive_below", "inconclusive_above",
            "consistent"])
    def test_status_from_pooled_margin(self, diff, status):
        report = check_conjecture([self.agg("greedy", 0.2),
                                   self.agg("modified", 0.2 + diff)])
        (row,) = report.rows
        assert row.margin == pytest.approx(0.015, abs=1e-15)
        assert row.diff == pytest.approx(diff, abs=1e-15)
        assert row.status == status
        assert report.violations == ([row] if status == "violation" else [])

    def test_one_row_per_cell_sorted_by_n(self):
        rows = [self.agg("modified", 0.25, n=2000), self.agg("greedy", 0.2, n=500),
                self.agg("greedy", 0.2, n=2000), self.agg("modified", 0.25, n=500),
                self.agg("greedy", 0.2, n=8000)]
        report = check_conjecture(rows)
        assert [r.n for r in report.rows] == [500, 2000]
        assert all(r.mean_greedy == 0.2 and r.mean_modified == 0.25
                   for r in report.rows)


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
        rc = main(["simulate", "--c", "1", "--kappa", "0.5", "--n", "500",
                   "--reps", "2", "--seed", "7", "--step", "1e-4", "--check"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == ",".join(AGGREGATE_COLUMNS)
        assert len(lines) == 3
        assert "sqrt(2c+1)" in captured.err

    def test_simulate_json(self, capsys):
        rc = main(["simulate", "--c", "1", "--kappa", "0.5", "--n", "500",
                   "--reps", "2", "--step", "1e-4", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert payload[0]["algorithm"] == "greedy"

    def test_simulate_out_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(["simulate", "--c", "1", "--kappa", "0.5", "--n", "500",
                   "--reps", "2", "--step", "1e-4", "--out", str(out)])
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
                "--reps", "2", "--step", "1e-4", "--format", fmt]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "rows"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == stdout.encode()
        assert stdout.count("greedy") == 2 and stdout.count("modified") == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_cell_keeps_the_rows_before_it(self, tmp_path, monkeypatch,
                                                  fmt):
        # the second cell (modified) fails; the first (greedy) is written,
        # and as a CSV line it is in the file before the second cell runs
        out = tmp_path / "rows"
        seen = []

        def fail(g, run_seed):
            seen.append(out.read_text())
            raise RuntimeError("engine failed")

        monkeypatch.setattr(experiment_harness, "run_modified_greedy", fail)
        with pytest.raises(RuntimeError, match="engine failed"):
            main(["simulate", "--c", "1", "--kappa", "0.5", "--n", "500",
                  "--reps", "2", "--step", "1e-4", "--format", fmt,
                  "--out", str(out)])
        if fmt == "csv":
            header, row = seen[0].splitlines()
            assert header == ",".join(AGGREGATE_COLUMNS)
            assert row.startswith("1.0,0.5,500,greedy,2,")
            assert out.read_text() == seen[0]
        else:
            assert seen == [""]
            (row,) = json.loads(out.read_text())
            assert row["algorithm"] == "greedy" and row["reps"] == 2

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

    def test_conjecture_runs(self, capsys):
        rc = main(["conjecture", "--c", "1", "--kappa", "0.5", "--n", "500",
                   "--reps", "3", "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("c,kappa,n,mean_greedy")

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
        if command not in ("asymptotics", "conjecture"):   # no --step there
            assert "argument --step" in capsys.readouterr().err
        assert out.read_text() == "earlier output\n"

    @pytest.mark.parametrize("command", ["asymptotics", "conjecture"])
    def test_step_is_not_an_option_without_ode_output(self, tmp_path, capsys,
                                                      command):
        # neither command reports an ODE value, so even a valid step is
        # an unknown argument
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
        # the root z of the gap variable is beyond 9e307; tau0 is the
        # c -> inf limit 1/2
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
        # pure-Python math on the default grid, so the digits are stable
        assert main(["asymptotics"]) == 0
        assert capsys.readouterr().out == (
            "c,kappa,regime,lower,estimate,upper,tau0_exact,contained\n"
            "1.0,0.52,near-half,0.20624730867551555,0.20624730867551555,"
            "0.21642357320487982,0.21280186723293343,True\n"
            "3.0,0.52,near-half,0.30745488831169887,0.30745488831169887,"
            "0.3177289990116521,0.3139516054962164,True\n"
            "3.0,10.0,large-kappa,0.37244560493506573,0.37244581180670716,"
            "0.3724460186776775,0.3724457434888862,True\n")

    @pytest.mark.parametrize("argv, nulls", [
        pytest.param(["simulate", "--c", "100", "--kappa", "0.01", "--n",
                      "2000", "--reps", "2", "--step", "1e-2", "--algo",
                      "modified"],
                     ["theory_mu_over_n", "abs_deviation"], id="simulate"),
        pytest.param(["simulate", "--c", "1000", "--kappa", "0.001", "--n",
                      "2000", "--reps", "1", "--step", "1e-3", "--algo",
                      "modified"],
                     ["theory_mu_over_n", "abs_deviation"],
                     id="simulate-overflow"),
        pytest.param(["theory", "--c", "6", "--kappa", "0.075"],
                     ["tau0_greedy_numeric"], id="theory"),
        pytest.param(["theory", "--c", "1000", "--kappa", "0.001", "--step",
                      "1e-3"],
                     ["tau0_greedy_numeric", "tau0_modified", "mu_modified"],
                     id="theory-overflow"),
        pytest.param(["table", "--step", "1e-3"], [], id="table"),
        pytest.param(["asymptotics"], [], id="asymptotics"),
        pytest.param(["conjecture", "--c", "1", "--kappa", "0.5", "--n", "500",
                      "--reps", "2"], [], id="conjecture"),
    ])
    def test_json_rows_have_the_csv_columns(self, capsys, argv, nulls):
        # the nulls are the values no prediction gives: at step 1e-2 the
        # modified ODE runs away at c/kappa = 10^4, at step 1e-3 its
        # e^-lambda overflows at c/kappa = 10^6, and at (6, 0.075) the
        # greedy root lies within one step of kappa
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
