import json
import math
import os
import subprocess
import sys

import pytest

import rainbow_greedy
from rainbow_greedy.cli import main
from rainbow_greedy.experiment_harness import (
    AGGREGATE_HEADER,
    REFERENCE_TABLE,
    ExperimentConfig,
    asymptotics_csv,
    asymptotics_report,
    check_conjecture,
    greedy_convention_statement,
    reproduce_reference_table,
    rows_to_csv,
    rows_to_json,
    run_monte_carlo,
    theory_mu_over_n,
    theory_report,
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

    @pytest.mark.parametrize("stride", [0, -3])
    def test_rejects_bad_stride(self, stride):
        with pytest.raises(ValueError, match="sample_stride"):
            small_cfg(sample_stride=stride)

    def test_rejects_cell_without_colors(self):
        # round(0.004 * 100) = 0, while round(0.004 * 500) = 2
        small_cfg(kappa_values=(0.004,), n_values=(500,))
        with pytest.raises(ValueError, match="kappa=0.004"):
            small_cfg(kappa_values=(0.004,), n_values=(500, 100))

    def test_rejects_more_edges_than_pairs(self):
        small_cfg(c_values=(99.0,), n_values=(100,))
        with pytest.raises(ValueError, match="c=100"):
            small_cfg(c_values=(100.0,), n_values=(100,))

    @pytest.mark.parametrize("step", [0.0, -1e-5, 0.02, math.nan])
    def test_rejects_bad_ode_step(self, step):
        with pytest.raises(ValueError, match="step"):
            small_cfg(ode_step=step)

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
        assert rows_to_csv(a) == rows_to_csv(b)

    def test_json_differs_only_in_runtime(self):
        a, _ = run_monte_carlo(small_cfg())
        b, _ = run_monte_carlo(small_cfg())
        da = json.loads(rows_to_json(a))
        db = json.loads(rows_to_json(b))
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
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ("c,kappa,n,algorithm,reps,mean_mu_over_n,stderr,"
                            "theory_mu_over_n,abs_deviation")
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "1.0" and first[3] == "greedy" and first[4] == "3"

    def test_incremental_csv_flush(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = small_cfg(output_path=str(out))
        rows, _ = run_monte_carlo(cfg)
        assert out.read_text() == rows_to_csv(rows)

    def test_json_output_file(self, tmp_path):
        out = tmp_path / "sweep.json"
        cfg = small_cfg(output_path=str(out), output_format="json")
        rows, _ = run_monte_carlo(cfg)
        assert json.loads(out.read_text()) == json.loads(rows_to_json(rows))

    def test_nan_theory_becomes_null_in_json(self):
        # color depletion: no modified prediction at (c=8, kappa=0.05)
        cfg = ExperimentConfig(c_values=(8.0,), kappa_values=(0.05,),
                               n_values=(200,), algorithms=("modified",),
                               reps=1, master_seed=5, ode_step=1e-4)
        rows, _ = run_monte_carlo(cfg)
        assert math.isnan(rows[0].theory_mu_over_n)
        payload = json.loads(rows_to_json(rows))
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
        lines = tc.csv().strip().split("\n")
        assert lines[0].startswith("c,reference_greedy")
        assert len(lines) == 11


class TestConjecture:
    def test_report_structure(self):
        cfg = small_cfg(n_values=(3000,), reps=6)
        report = check_conjecture(cfg)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.status in ("consistent with conjecture",
                              "inconclusive (margin)", "violation")
        assert row.margin > 0
        assert row.diff == pytest.approx(row.mean_modified - row.mean_greedy,
                                         abs=1e-15)
        assert not report.violations

    def test_reuses_precomputed_rows(self):
        cfg = small_cfg(n_values=(3000,), reps=6)
        rows, _ = run_monte_carlo(cfg)
        a = check_conjecture(cfg, rows=rows)
        b = check_conjecture(cfg, rows=rows)
        assert a.rows == b.rows

    def test_requires_both_algorithms(self):
        with pytest.raises(ValueError):
            check_conjecture(small_cfg(algorithms=("greedy",)))


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
        lines = asymptotics_csv(rows).strip().split("\n")
        assert lines[0] == "c,kappa,regime,lower,estimate,upper,tau0_exact,contained"
        assert lines[1].endswith(",True")

    def test_no_regime_applies(self):
        assert asymptotics_report([0.5], [3.0]) == []


class TestCli:
    def test_simulate_csv(self, capsys):
        rc = main(["simulate", "--c", "1", "--kappa", "0.5", "--n", "500",
                   "--reps", "2", "--seed", "7", "--step", "1e-4", "--check"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == AGGREGATE_HEADER
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
        assert out.read_text().startswith(AGGREGATE_HEADER)
        assert capsys.readouterr().out == ""

    def test_theory_check_passes(self, capsys):
        rc = main(["theory", "--c", "1,4", "--kappa", "0.5", "--step", "1e-4",
                   "--check"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("c,kappa,tau0_greedy")

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
                   "--reps", "3", "--step", "1e-4", "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("c,kappa,n,mean_greedy")

    @pytest.mark.parametrize("command", ["simulate", "conjecture"])
    @pytest.mark.parametrize("bad", [["--stride", "0"], ["--stride", "-3"],
                                     ["--reps", "0"], ["--kappa", "0.001"]])
    def test_bad_sweep_value_is_an_argument_error(self, tmp_path, capsys,
                                                  command, bad):
        out = tmp_path / "kept.csv"
        out.write_text("earlier output\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--c", "1", "--n", "100", "--reps", "2",
                  "--step", "1e-4", "--out", str(out), *bad])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert out.read_text() == "earlier output\n"

    @pytest.mark.parametrize("command", ["simulate", "theory", "table",
                                         "asymptotics", "conjecture"])
    @pytest.mark.parametrize("step", ["0", "-1", "0.02", "nan", "x"])
    def test_bad_step_is_an_argument_error(self, tmp_path, capsys, command,
                                           step):
        out = tmp_path / "kept.csv"
        out.write_text("earlier output\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--step", step, "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --step" in capsys.readouterr().err
        assert out.read_text() == "earlier output\n"

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
