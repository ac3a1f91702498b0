"""Monte Carlo sweeps, theory cross-checks, and report generation.

A sweep is a grid over (c, kappa, n, algorithm) cells; each cell runs `reps`
independent simulations. Seeds are derived per (cell, rep) with rng.mix, so
results are reproducible bit for bit from the master seed alone, cells can
be reordered without changing any draw, and reps never share streams.

This module writes no file. Every function returns its rows; to_csv and
to_json format them, and the command line writes them (run_monte_carlo
hands each cell's row to an optional callback as the cell finishes).

run_monte_carlo (one task per (cell, rep)), theory_report (one per (c,
kappa) cell) and reproduce_reference_table (one per row) run their tasks
through _dispatch: on a fork pool when the machine and the work allow it,
in-process otherwise, with the same results either way. The pool has as
many workers as there are usable CPUs, tasks, and copies of the largest
task's estimated peak memory that fit in the available memory, and takes
the heaviest tasks first. A call runs in-process when that is fewer than
2 workers, when fork is not available, when other threads are running,
or when its estimated serial work is below _POOL_MIN_WORK_S. Theory
values and the rows' assembly stay in the calling process.

Reported densities use the m = round(c n / 2) convention, i.e. c is the
average initial degree. The tabulated reference values' greedy column
follows the m = c n / 4 convention instead; reproduce_reference_table
reports deltas against both so the two never get conflated.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from statistics import fmean, stdev

from .colored_graph import generate
from .greedy_engines import run_greedy, run_modified_greedy
from .ode_theory import (
    TheoryParams,
    IntegrationFailure,
    integrate_greedy,
    integrate_modified,
    modified_upper_bound,
    tau0_general,
    _modified_default_step,
    _validate_step,
)
from .asymptotics import (
    RegimeError,
    tau0_near_half,
    tau0_large_kappa,
    tau0_small_kappa_bounds,
)
from .rng import mix

# Column order of each CSV table; JSON rows carry the same keys in the same
# order (simulate's rows add runtime_seconds).
AGGREGATE_COLUMNS = ("c", "kappa", "n", "algorithm", "reps", "mean_mu_over_n",
                     "stderr", "theory_mu_over_n", "abs_deviation")
THEORY_COLUMNS = ("c", "kappa", "tau0_greedy", "tau0_greedy_numeric",
                  "tau0_modified", "mu_greedy", "mu_modified", "upper_bound")
TABLE_COLUMNS = ("c", "reference_greedy", "theory_sqrt_c1", "delta_sqrt_c1",
                 "theory_sqrt_2c1", "delta_sqrt_2c1", "reference_modified",
                 "theory_modified", "delta_modified")
ASYMPTOTICS_COLUMNS = ("c", "kappa", "regime", "lower", "estimate", "upper",
                       "tau0_exact", "contained")
CONJECTURE_COLUMNS = ("c", "kappa", "n", "mean_greedy", "mean_modified",
                      "diff", "margin", "status")

# Matching fractions at kappa = 1/2 used as a cross-check target,
# keyed by c: (greedy column, modified column).
REFERENCE_TABLE = {
    0.5: (0.092, 0.148),
    1.0: (0.146, 0.216),
    1.5: (0.184, 0.257),
    2.0: (0.211, 0.285),
    2.5: (0.233, 0.316),
    3.0: (0.250, 0.322),
    3.5: (0.264, 0.334),
    4.0: (0.276, 0.345),
    4.5: (0.287, 0.355),
    5.0: (0.296, 0.361),
}

_ALGORITHMS = ("greedy", "modified")

# Cost model of one task, fitted to measurements on a 2-core x86-64 VM with
# 8 GB (Python 3.11, numpy 2.4). Estimated seconds order a pool's tasks and
# decide whether a pool pays; estimated peak bytes size it.
#
# A rep (generate, then the engine) costs per (edge, vertex, color), in ns
# and in bytes of peak RSS above the interpreter's. Against one rep per
# cell at n = 500 ... 10^6, c in {0.5, 1, 5}, kappa in {0.1, 0.5, 2, 20},
# the time reads 0.7-2.2x low-to-high at n <= 10^5 and up to 3x low at
# n = 10^6, where cache misses grow; the bytes read 5-35 % above the
# measured peak at n = 10^6 and at most 6 MB below it at n = 10^5.
_REP_NS = {"greedy": (250, 5, 5), "modified": (370, 100, 5)}
_REP_BYTES = {"greedy": (88, 26, 10), "modified": (88, 140, 9)}
_TASK_S = 3e-4   # fixed cost of a task, rep or theory cell
# A theory cell costs per RK4 step: 850 ns in the modified scalar loop,
# 145 ns in its Newton refinement and 45 ns in integrate_greedy, and its
# tracemalloc peak is at most 160 B per step of the longest of the three
# runs; against 6 c x 8 kappa cells plus stiff ones at steps 1e-3 ... 1e-6,
# the time reads 0.4-1.5x and the peak at most 0.92x of the estimate.
_ODE_NS = (850, 145, 45)
_ODE_BYTES_PER_STEP = 160

# A fork pool of 2 workers takes 9-10 ms to start, run two trivial tasks
# and stop (median of 20 cycles, three runs: 9.2-9.9 ms, quartiles
# 8.7-10.4 ms), most of it forking and reaping the workers; a call whose
# estimated serial work is below 5 times 10 ms runs in-process. (A spawn
# pool took 260 ms, as each worker imports numpy afresh.)
_POOL_MIN_WORK_S = 0.05


def _rep_cost(algo: str, n: int, m: int, q: int) -> tuple[float, int]:
    """Estimated (seconds, peak bytes) of one rep."""
    t, b = _REP_NS[algo], _REP_BYTES[algo]
    return (_TASK_S + 1e-9 * (t[0] * m + t[1] * n + t[2] * q),
            b[0] * m + b[1] * n + b[2] * q)


def _ode_cost(c: float, kappa: float, step: float | None,
              greedy: bool) -> tuple[float, int]:
    """Estimated (seconds, peak bytes) of integrate_modified at `step`,
    plus integrate_greedy when `greedy`."""
    default = _modified_default_step(c, kappa)
    coarse = max(step or default, default)
    steps = (1.0 / coarse,
             1.0 / step if step is not None and step < coarse else 0.0,
             min(0.5, kappa) / (step or 1e-5) if greedy else 0.0)
    return (_TASK_S + 1e-9 * sum(ns * k for ns, k in zip(_ODE_NS, steps)),
            round(_ODE_BYTES_PER_STEP * max(steps)))


@dataclass
class ExperimentConfig:
    c_values: tuple[float, ...] = (1.0,)
    kappa_values: tuple[float, ...] = (0.5,)
    n_values: tuple[int, ...] = (100_000,)
    algorithms: tuple[str, ...] = _ALGORITHMS
    reps: int = 20
    master_seed: int = 20250819
    ode_step: float | None = None   # None: each integrator's own default

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if not self.c_values or not all(0 < c < math.inf for c in self.c_values):
            raise ValueError(f"c_values must be positive and finite, got {self.c_values}")
        if not self.kappa_values or not all(0 < k < math.inf for k in self.kappa_values):
            raise ValueError(f"kappa_values must be positive and finite, "
                             f"got {self.kappa_values}")
        if not self.n_values or any(n < 100 for n in self.n_values):
            raise ValueError(f"n_values must be >= 100, got {self.n_values}")
        if not self.algorithms or any(a not in _ALGORITHMS for a in self.algorithms):
            raise ValueError(f"algorithms must be drawn from {_ALGORITHMS}")
        if self.ode_step is not None:
            _validate_step(self.ode_step)
        for n in self.n_values:
            for k in self.kappa_values:
                if not k * n < math.inf:
                    raise ValueError(f"kappa={k} gives q = kappa n beyond "
                                     f"float range at n={n}")
                if round(k * n) < 1:
                    raise ValueError(f"kappa={k} gives q = round(kappa n) = 0 "
                                     f"colors at n={n}")
            for c in self.c_values:
                if not c * n / 2 < math.inf or round(c * n / 2) > n * (n - 1) // 2:
                    raise ValueError(f"c={c} asks for more edges than the "
                                     f"{n * (n - 1) // 2} pairs of n={n} vertices")
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        for c, k, n, a in self.cells():
            need = _rep_cost(a, n, round(c * n / 2), round(k * n))[1]
            if need > memory:
                raise ValueError(f"one {a} rep at c={c}, kappa={k}, n={n} "
                                 f"needs about {need / 1e9:.1f} GB, more than "
                                 f"the {memory / 1e9:.1f} GB of physical memory")

    def cells(self) -> list[tuple[float, float, int, str]]:
        return [(c, k, n, a)
                for c in self.c_values
                for k in self.kappa_values
                for n in self.n_values
                for a in self.algorithms]


@dataclass
class RunRecord:
    c: float
    kappa: float
    n: int
    algorithm: str
    rep: int
    graph_seed: int
    run_seed: int
    mu: int
    mu_over_n: float
    steps_total: int
    isolated_deletions: int
    runtime_seconds: float    # generate_seconds + engine_seconds
    generate_seconds: float
    engine_seconds: float


@dataclass
class AggregateRow:
    c: float
    kappa: float
    n: int
    algorithm: str
    reps: int
    mean_mu_over_n: float
    stderr: float
    theory_mu_over_n: float   # nan when no prediction applies
    abs_deviation: float      # nan when no prediction applies
    runtime_seconds: float    # sum over reps; not wall time when pooled


@functools.lru_cache(maxsize=None)
def theory_mu_over_n(c: float, kappa: float, algorithm: str,
                     step: float | None = None) -> float:
    """Predicted matching density for one cell; nan when the modified
    integrator refuses the cell (e.g. an explicit step too coarse for
    c/kappa)."""
    if algorithm == "greedy":
        return tau0_general(TheoryParams(c, kappa))
    try:
        return integrate_modified(TheoryParams(c, kappa), step=step).mu_over_n
    except IntegrationFailure:
        return math.nan


# -- task dispatch ---------------------------------------------------------------

def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _available_memory() -> int:
    """Bytes that new processes can use without swapping: MemAvailable on
    Linux, else the free pages."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _workers(cpus: int, tasks: int, available: int, peak: int) -> int:
    """Pool size: no more workers than CPUs, than tasks, or than copies of
    the largest task's peak bytes that fit in the available bytes."""
    return min(cpus, tasks, available // max(peak, 1))


def _work(fn, tasks: list, order: list[int], claimed, conn) -> None:
    """A worker's loop: claim the next position of `order` from the shared
    counter `claimed`, run that task and send (index, ok, value) on conn,
    until every task is claimed. A failure comes back as a value, so that
    the caller learns which task failed."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # Ctrl-C is the caller's
    while True:
        with claimed.get_lock():
            k = claimed.value
            claimed.value = k + 1
        if k >= len(order):
            return
        i = order[k]
        try:
            conn.send((i, True, fn(tasks[i])))
        except Exception as exc:
            # pickles as exc with the worker's traceback as its __cause__
            from multiprocessing.pool import ExceptionWithTraceback
            conn.send((i, False, ExceptionWithTraceback(exc, exc.__traceback__)))


def _pool_results(workers: dict, count: int):
    """Pass on (index, value) from the workers' pipes (workers maps each
    pipe to its process) as tasks finish.

    After a task fails, go on only until every task before it is back,
    then raise its exception: what runs in task order before the first
    failure is all delivered. Raise RuntimeError once a worker has died,
    as when the kernel kills it for memory: the task it held would never
    come back.
    """
    from multiprocessing.connection import wait
    back = [False] * count
    low = 0   # every task before low is back
    failed = None
    while workers and (failed is None or low < failed[0]):
        for conn in wait(list(workers)):
            try:
                index, ok, value = conn.recv()
            except EOFError:   # the worker has exited
                worker = workers.pop(conn)
                worker.join()
                if worker.exitcode:
                    raise RuntimeError("a pool worker died before its task "
                                       "finished") from None
                continue
            if ok:
                back[index] = True
                yield index, value
            elif failed is None or index < failed[0]:
                failed = index, value
            while low < count and back[low]:
                low += 1
    if failed is not None:
        raise failed[1]
    if low < count:
        raise RuntimeError("a pool worker died before its task finished")


def _pool_size(costs: list[tuple[float, int]]) -> int:
    """Workers for tasks of these estimated (seconds, peak bytes); fewer
    than 2 means in-process."""
    if (sum(s for s, _ in costs) < _POOL_MIN_WORK_S
            or threading.active_count() > 1):
        return 1
    import multiprocessing   # here, so that small calls never pay for the import
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return _workers(_cpus(), len(costs), _available_memory(),
                    max(b for _, b in costs))


@contextlib.contextmanager
def _dispatch(fn, tasks: list, costs: list[tuple[float, int]]):
    """Start fn, a module-level function, over the tasks and yield an
    iterator of (index, fn(tasks[index])); costs holds each task's
    estimated (seconds, peak bytes).

    In-process, the tasks run lazily in task order as the iterator is read.
    On a fork pool they start at once, heaviest first, and come back as
    they finish, and failures are raised as _pool_results says. The
    workers inherit the tasks at fork; each claims the next one from a
    shared counter and sends its result back on a pipe of its own. No
    worker outlives the block, however it exits.
    """
    size = _pool_size(costs)
    if size < 2:
        yield ((i, fn(task)) for i, task in enumerate(tasks))
        return
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    order = sorted(range(len(tasks)), key=lambda i: -costs[i][0])
    claimed = ctx.Value("q", 0)
    workers = {}
    try:
        for _ in range(size):
            reader, writer = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_work, daemon=True,
                                 args=(fn, tasks, order, claimed, writer))
            worker.start()
            writer.close()   # so that the reader sees EOF when the worker exits
            workers[reader] = worker
        yield _pool_results(dict(workers), len(tasks))
    finally:
        for reader, worker in workers.items():
            if worker.exitcode is None:
                worker.terminate()
            worker.join()
            reader.close()


def _map(fn, tasks: list, costs: list[tuple[float, int]]) -> list:
    """[fn(task) for task in tasks], through _dispatch."""
    out = [None] * len(tasks)
    with _dispatch(fn, tasks, costs) as results:
        for i, value in results:
            out[i] = value
    return out


# -- Monte Carlo sweep -----------------------------------------------------------

def _run_rep(task) -> tuple[int, int, int, float, float]:
    """One rep: (mu, steps_total, isolated_deletions, generate seconds,
    engine seconds)."""
    n, m, q, algo, graph_seed, run_seed = task
    runner = run_greedy if algo == "greedy" else run_modified_greedy
    tic = time.perf_counter()
    g = generate(n, m, q, graph_seed)
    mid = time.perf_counter()
    result = runner(g, run_seed)
    toc = time.perf_counter()
    return (result.mu, result.steps_total, result.isolated_deletions,
            mid - tic, toc - mid)


def _cell_results(cell, tasks, outcomes, theory: float
                  ) -> tuple[AggregateRow, list[RunRecord]]:
    """A cell's row and records from its reps' tasks and _run_rep outcomes."""
    c, kappa, n, algo = cell
    records = []
    for rep, ((*_, graph_seed, run_seed),
              (mu, steps, isolated, gen_s, eng_s)) in enumerate(zip(tasks, outcomes)):
        records.append(RunRecord(
            c=c, kappa=kappa, n=n, algorithm=algo, rep=rep,
            graph_seed=graph_seed, run_seed=run_seed, mu=mu,
            mu_over_n=mu / n, steps_total=steps, isolated_deletions=isolated,
            runtime_seconds=gen_s + eng_s, generate_seconds=gen_s,
            engine_seconds=eng_s))
    reps = len(records)
    mus = [r.mu_over_n for r in records]
    mean = fmean(mus)
    se = stdev(mus) / math.sqrt(reps) if reps > 1 else 0.0
    dev = abs(mean - theory) if not math.isnan(theory) else math.nan
    row = AggregateRow(c=c, kappa=kappa, n=n, algorithm=algo, reps=reps,
                       mean_mu_over_n=mean, stderr=se, theory_mu_over_n=theory,
                       abs_deviation=dev,
                       runtime_seconds=sum(r.runtime_seconds for r in records))
    return row, records


def run_monte_carlo(cfg: ExperimentConfig, on_row=None
                    ) -> tuple[list[AggregateRow], list[RunRecord]]:
    """Run the full sweep; returns (aggregate rows, per-rep records).

    Writes nothing. When on_row is given, it is called with each cell's
    aggregate row, in cell order, once that cell and every cell before it
    have finished, so a caller can write rows while the sweep runs and
    keep them if a later cell fails. The theory values are computed here
    while the reps run.
    """
    cells = cfg.cells()
    reps = cfg.reps
    tasks = []
    for cell_index, (c, kappa, n, algo) in enumerate(cells):
        m = round(c * n / 2)
        q = round(kappa * n)
        for rep in range(reps):
            tasks.append((n, m, q, algo, mix(cfg.master_seed, cell_index, rep, 0),
                          mix(cfg.master_seed, cell_index, rep, 1)))
    outcomes = [None] * len(tasks)
    done = 0   # outcomes[:done] are all in
    rows: list[AggregateRow] = []
    records: list[RunRecord] = []
    with _dispatch(_run_rep, tasks,
                   [_rep_cost(t[3], *t[:3]) for t in tasks]) as results:
        theories = [theory_mu_over_n(c, kappa, algo, cfg.ode_step)
                    for c, kappa, _, algo in cells]
        for i, outcome in results:
            outcomes[i] = outcome
            while done < len(tasks) and outcomes[done] is not None:
                done += 1
            while (len(rows) + 1) * reps <= done:
                k = len(rows)
                cell = slice(k * reps, (k + 1) * reps)
                row, cell_records = _cell_results(cells[k], tasks[cell],
                                                  outcomes[cell], theories[k])
                rows.append(row)
                records.extend(cell_records)
                if on_row is not None:
                    on_row(row)
    return rows, records


def _csv_line(row: dict, columns) -> str:
    cells = (row.get(k) for k in columns)
    return ",".join("" if v is None else repr(v) if isinstance(v, float)
                    else str(v) for v in cells) + "\n"


def to_csv(rows: list[dict], columns) -> str:
    """A header line, then one line per row: floats by repr (so nan is
    "nan"), None as an empty cell, anything else by str."""
    return ",".join(columns) + "\n" + "".join(_csv_line(r, columns)
                                              for r in rows)


def to_json(rows: list[dict]) -> str:
    """An indented JSON array of the rows; nan values become null."""
    return json.dumps(
        [{k: None if isinstance(v, float) and math.isnan(v) else v
          for k, v in r.items()} for r in rows],
        indent=2, allow_nan=False) + "\n"


def greedy_convention_statement(rows: list[AggregateRow]) -> str:
    """One-line resolution of the two degree conventions, from greedy rows
    at kappa = 1/2: which closed form the simulated means actually track
    under m = round(c n / 2)."""
    cells = [(r.c, r.mean_mu_over_n) for r in rows
             if r.algorithm == "greedy" and r.kappa == 0.5]
    if not cells:
        return "no greedy cells at kappa=1/2; convention not assessed"
    near_2c1 = sum(1 for c, mu in cells
                   if abs(mu - 0.5 * (1 - 1 / math.sqrt(2 * c + 1))) <= 0.01)
    near_c1 = sum(1 for c, mu in cells
                  if abs(mu - 0.5 * (1 - 1 / math.sqrt(c + 1))) <= 0.01)
    total = len(cells)
    return (f"with m = round(c n / 2), simulated greedy means match "
            f"tau0 = (1 - 1/sqrt(2c+1))/2 in {near_2c1}/{total} cells and "
            f"(1 - 1/sqrt(c+1))/2 in {near_c1}/{total}; the sqrt(2c+1) form "
            f"is the one this convention realizes")


# -- reference table -----------------------------------------------------------

@dataclass
class TableComparison:
    rows: list[dict]
    greedy_convention: str
    modified_outliers: list[tuple[float, float]]   # (c, delta) beyond 0.01


def _table_row(task) -> dict:
    c, ref_g, ref_m, step = task
    t_c1 = 0.5 * (1.0 - 1.0 / math.sqrt(c + 1.0))
    t_2c1 = 0.5 * (1.0 - 1.0 / math.sqrt(2.0 * c + 1.0))
    t_mod = integrate_modified(TheoryParams(c, 0.5), step=step).mu_over_n
    return {
        "c": c,
        "reference_greedy": ref_g,
        "theory_sqrt_c1": t_c1,
        "delta_sqrt_c1": ref_g - t_c1,
        "theory_sqrt_2c1": t_2c1,
        "delta_sqrt_2c1": ref_g - t_2c1,
        "reference_modified": ref_m,
        "theory_modified": t_mod,
        "delta_modified": ref_m - t_mod,
    }


def reproduce_reference_table(step: float | None = None) -> TableComparison:
    """Recompute both columns of the kappa = 1/2 reference table.

    The greedy column is compared against the closed forms under both
    degree conventions; the modified column against the integrated ODE at
    the given c. Cells whose modified delta exceeds 0.01 are listed as
    outliers (c = 2.5 is a known one: the recomputed value is ~0.3057,
    see the README note on reference-table consistency).
    """
    tasks = [(c, ref_g, ref_m, step)
             for c, (ref_g, ref_m) in sorted(REFERENCE_TABLE.items())]
    rows = _map(_table_row, tasks,
                [_ode_cost(c, 0.5, step, greedy=False) for c, *_ in tasks])
    outliers = [(r["c"], r["delta_modified"]) for r in rows
                if abs(r["delta_modified"]) > 0.01]
    all_c1 = all(abs(r["delta_sqrt_c1"]) <= 0.005 for r in rows)
    all_2c1 = all(abs(r["delta_sqrt_2c1"]) <= 0.005 for r in rows)
    if all_c1 and not all_2c1:
        convention = "sqrt(c+1)"
    elif all_2c1 and not all_c1:
        convention = "sqrt(2c+1)"
    elif all_c1 and all_2c1:
        convention = "both"
    else:
        convention = "mixed"
    return TableComparison(rows=rows, greedy_convention=convention,
                           modified_outliers=outliers)


# -- conjecture check ----------------------------------------------------------

@dataclass
class ConjectureRow:
    c: float
    kappa: float
    n: int
    mean_greedy: float
    mean_modified: float
    diff: float     # modified minus greedy
    margin: float   # 3 * pooled standard error
    status: str     # "consistent with conjecture" | "inconclusive (margin)" | "violation"


@dataclass
class ConjectureReport:
    rows: list[ConjectureRow]
    violations: list[ConjectureRow] = field(default_factory=list)


def check_conjecture(rows: list[AggregateRow]) -> ConjectureReport:
    """Test whether the modified process matches at least as much as the
    plain greedy on every cell of a sweep's aggregate rows.

    A cell with a row for only one algorithm is skipped. A cell is a
    violation only when greedy beats modified by more than 3 pooled
    standard errors.
    """
    by_cell: dict[tuple[float, float, int], dict[str, AggregateRow]] = {}
    for r in rows:
        by_cell.setdefault((r.c, r.kappa, r.n), {})[r.algorithm] = r
    out = []
    violations = []
    for (c, kappa, n), pair in sorted(by_cell.items()):
        if "greedy" not in pair or "modified" not in pair:
            continue
        g, mg = pair["greedy"], pair["modified"]
        diff = mg.mean_mu_over_n - g.mean_mu_over_n
        margin = 3.0 * math.hypot(g.stderr, mg.stderr)
        if diff < -margin:
            status = "violation"
        elif diff > margin:
            status = "consistent with conjecture"
        else:
            status = "inconclusive (margin)"
        row = ConjectureRow(c=c, kappa=kappa, n=n,
                            mean_greedy=g.mean_mu_over_n,
                            mean_modified=mg.mean_mu_over_n,
                            diff=diff, margin=margin, status=status)
        out.append(row)
        if status == "violation":
            violations.append(row)
    return ConjectureReport(rows=out, violations=violations)


# -- theory and asymptotics reports --------------------------------------------

def _theory_cell(task) -> dict:
    c, kappa, step = task
    p = TheoryParams(c, kappa)
    tau0 = tau0_general(p)
    try:
        tau0_numeric = integrate_greedy(p, step=step).tau0
    except IntegrationFailure:
        tau0_numeric = None
    try:
        traj = integrate_modified(p, step=step)
        tau0_mod, mu_mod = traj.tau0, traj.mu_over_n
    except IntegrationFailure:   # too stiff to step
        tau0_mod = mu_mod = None
    return {"c": c, "kappa": kappa, "tau0_greedy": tau0,
            "tau0_greedy_numeric": tau0_numeric,
            "tau0_modified": tau0_mod, "mu_greedy": tau0,
            "mu_modified": mu_mod, "upper_bound": modified_upper_bound(c)}


def theory_report(c_values, kappa_values,
                  step: float | None = None) -> list[dict]:
    """Point predictions per (c, kappa): stopping times from the closed form
    and from direct integration, matching densities, and the modified
    ceiling. Entries are None where a prediction does not apply."""
    tasks = [(c, kappa, step) for c in c_values for kappa in kappa_values]
    return _map(_theory_cell, tasks,
                [_ode_cost(c, kappa, step, greedy=True) for c, kappa, _ in tasks])


def asymptotics_report(c_values, kappa_values) -> list[dict]:
    """Bracket every applicable regime against the exact numeric root.

    One row per (c, kappa, regime) that accepts the parameters; parameters
    rejected by every regime contribute no rows.
    """
    regimes = (tau0_near_half, tau0_large_kappa, tau0_small_kappa_bounds)
    out = []
    for c in c_values:
        for kappa in kappa_values:
            p = TheoryParams(c, kappa)
            exact = tau0_general(p)
            for op in regimes:
                try:
                    b = op(p)
                except RegimeError:
                    continue
                out.append({
                    "c": c, "kappa": kappa, "regime": b.regime,
                    "lower": b.lower, "estimate": b.estimate,
                    "upper": b.upper, "tau0_exact": exact,
                    "contained": b.contains(exact),
                })
    return out
