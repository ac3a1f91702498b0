"""Command line front end.

Five subcommands: simulate (Monte Carlo sweep), theory (ODE point
predictions), table (reference-table reproduction), asymptotics (regime
brackets vs the exact root), conjecture (greedy vs modified comparison).
Data goes to stdout or --out; human-readable notes go to stderr. With
--check each subcommand validates its own output and exits 1 on failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from .experiment_harness import (
    ExperimentConfig,
    run_monte_carlo,
    rows_to_csv,
    rows_to_json,
    greedy_convention_statement,
    reproduce_reference_table,
    check_conjecture,
    theory_report,
    asymptotics_report,
    asymptotics_csv,
)
from .ode_theory import _validate_step, modified_upper_bound

THEORY_KEYS = ("c", "kappa", "tau0_greedy", "tau0_greedy_numeric",
               "tau0_modified", "mu_greedy", "mu_modified", "upper_bound")
CONJECTURE_KEYS = ("c", "kappa", "n", "mean_greedy", "mean_modified",
                   "diff", "margin", "status")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _step(text: str) -> float:
    try:
        step = float(text)
        _validate_step(step)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return step


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _dicts_to_csv(rows: list[dict], keys) -> str:
    lines = [",".join(keys)]
    lines.extend(",".join(_cell(r.get(k)) for k in keys) for r in rows)
    return "\n".join(lines) + "\n"


def _dicts_to_json(rows: list[dict]) -> str:
    import json
    return json.dumps(rows, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _add_grid_flags(p: argparse.ArgumentParser, c_default="1.0",
                    kappa_default="0.5") -> None:
    p.add_argument("--c", default=c_default, type=_floats,
                   help="comma-separated average degrees (m = round(c n / 2))")
    p.add_argument("--kappa", default=kappa_default, type=_floats,
                   help="comma-separated color densities (q = round(kappa n))")


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", default="100000", type=_ints,
                   help="comma-separated instance sizes")
    p.add_argument("--reps", default=10, type=int)
    p.add_argument("--seed", default=20250819, type=int, help="master seed")
    p.add_argument("--stride", default=None, type=int,
                   help="trajectory sample stride (default n/1000)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--step", default=1e-5, type=_step,
                   help="RK4 step size, in (0, 0.01]")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--out", default=None, help="write output to this path")
    p.add_argument("--check", action="store_true",
                   help="validate the output; exit 1 on failure")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbow-greedy",
        description="Greedy rainbow matching on randomly colored random "
                    "graphs: simulation vs theory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo sweep against theory")
    _add_grid_flags(p)
    _add_sweep_flags(p)
    p.add_argument("--algo", default="both", choices=("greedy", "modified", "both"))
    _add_common_flags(p)

    p = sub.add_parser("theory", help="ODE point predictions per (c, kappa)")
    _add_grid_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("table", help="recompute the kappa=1/2 reference table")
    _add_common_flags(p)

    p = sub.add_parser("asymptotics", help="regime brackets vs the exact root")
    _add_grid_flags(p, c_default="1.0,3.0", kappa_default="0.52,10.0")
    _add_common_flags(p)

    p = sub.add_parser("conjecture", help="modified vs plain greedy per cell")
    _add_grid_flags(p)
    _add_sweep_flags(p)
    _add_common_flags(p)
    return parser


def _sweep_config(**fields) -> ExperimentConfig:
    """The sweep's config; a value it rejects is an argument error (exit 2),
    raised before any theory is computed or --out is opened."""
    try:
        return ExperimentConfig(**fields)
    except ValueError as exc:
        build_parser().error(str(exc))


def _cmd_simulate(args) -> int:
    algos = ("greedy", "modified") if args.algo == "both" else (args.algo,)
    cfg = _sweep_config(
        c_values=args.c, kappa_values=args.kappa, n_values=args.n,
        algorithms=algos, reps=args.reps, master_seed=args.seed,
        ode_step=args.step, sample_stride=args.stride,
        output_path=args.out, output_format=args.format)
    rows, _ = run_monte_carlo(cfg)
    if not args.out:
        _emit(rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows),
              None)
    if any(r.algorithm == "greedy" and r.kappa == 0.5 for r in rows):
        _note(greedy_convention_statement(rows))
    if not args.check:
        return 0
    failures = []
    for r in rows:
        if math.isnan(r.theory_mu_over_n):
            continue
        if r.abs_deviation >= 0.01:
            failures.append(f"(c={r.c}, kappa={r.kappa}, n={r.n}, "
                            f"{r.algorithm}): |mean - theory| = "
                            f"{r.abs_deviation:.4f} >= 0.01")
        if r.algorithm == "modified":
            cap = modified_upper_bound(r.c) + 0.005
            if r.mean_mu_over_n > cap:
                failures.append(f"(c={r.c}, kappa={r.kappa}, n={r.n}): mean "
                                f"{r.mean_mu_over_n:.4f} above ceiling {cap:.4f}")
    for f in failures:
        _note("CHECK FAIL " + f)
    return 1 if failures else 0


def _cmd_theory(args) -> int:
    rows = theory_report(args.c, args.kappa, step=args.step)
    text = (_dicts_to_csv(rows, THEORY_KEYS) if args.format == "csv"
            else _dicts_to_json(rows))
    _emit(text, args.out)
    if not args.check:
        return 0
    bad = [r for r in rows
           if r["tau0_greedy_numeric"] is not None
           and abs(r["tau0_greedy"] - r["tau0_greedy_numeric"]) >= 1e-6]
    for r in bad:
        _note(f"CHECK FAIL (c={r['c']}, kappa={r['kappa']}): closed-form and "
              f"integrated tau0 disagree by "
              f"{abs(r['tau0_greedy'] - r['tau0_greedy_numeric']):.2e}")
    return 1 if bad else 0


def _cmd_table(args) -> int:
    tc = reproduce_reference_table(step=args.step)
    if args.format == "csv":
        _emit(tc.csv(), args.out)
    else:
        _emit(_dicts_to_json(tc.rows), args.out)
    _note(f"greedy column matches the {tc.greedy_convention} closed form")
    for (c, d) in tc.modified_outliers:
        _note(f"note: modified column at c={c} is off by {d:+.4f} from the "
              f"recomputed ODE value; inconsistent with its own column trend")
    if not args.check:
        return 0
    failures = []
    for r in tc.rows:
        if min(abs(r["delta_sqrt_c1"]), abs(r["delta_sqrt_2c1"])) > 0.005:
            failures.append(f"greedy cell c={r['c']} matches neither convention")
    for (c, d) in tc.modified_outliers:
        failures.append(f"modified cell c={c} off by {d:+.4f} (tolerance 0.01)")
    for f in failures:
        _note("CHECK FAIL " + f)
    return 1 if failures else 0


def _cmd_asymptotics(args) -> int:
    rows = asymptotics_report(args.c, args.kappa)
    text = (asymptotics_csv(rows) if args.format == "csv"
            else _dicts_to_json(rows))
    _emit(text, args.out)
    if not rows:
        _note("note: no asymptotic regime accepts any of the given (c, kappa)")
    if not args.check:
        return 0
    bad = [r for r in rows if not r["contained"]]
    for r in bad:
        _note(f"CHECK FAIL (c={r['c']}, kappa={r['kappa']}, {r['regime']}): "
              f"exact root {r['tau0_exact']:.6f} outside "
              f"[{r['lower']:.6f}, {r['upper']:.6f}]")
    return 1 if bad else 0


def _cmd_conjecture(args) -> int:
    cfg = _sweep_config(
        c_values=args.c, kappa_values=args.kappa, n_values=args.n,
        algorithms=("greedy", "modified"), reps=args.reps,
        master_seed=args.seed, ode_step=args.step,
        sample_stride=args.stride)
    report = check_conjecture(cfg)
    rows = [{"c": r.c, "kappa": r.kappa, "n": r.n,
             "mean_greedy": r.mean_greedy, "mean_modified": r.mean_modified,
             "diff": r.diff, "margin": r.margin, "status": r.status}
            for r in report.rows]
    text = (_dicts_to_csv(rows, CONJECTURE_KEYS) if args.format == "csv"
            else _dicts_to_json(rows))
    _emit(text, args.out)
    for v in report.violations:
        _note(f"violation at (c={v.c}, kappa={v.kappa}, n={v.n}): greedy "
              f"{v.mean_greedy:.4f} beats modified {v.mean_modified:.4f} "
              f"beyond margin {v.margin:.4f}")
    if args.check and report.violations:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "simulate": _cmd_simulate,
        "theory": _cmd_theory,
        "table": _cmd_table,
        "asymptotics": _cmd_asymptotics,
        "conjecture": _cmd_conjecture,
    }[args.command]
    return handler(args)
