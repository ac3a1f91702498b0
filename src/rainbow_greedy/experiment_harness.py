"""Monte Carlo sweeps, theory cross-checks, and report generation.

A sweep is a grid over (c, kappa, n, algorithm) cells; each cell runs `reps`
independent simulations. Its reps are paired: the algorithms of one (c,
kappa, n) graph cell run on the same graph in each rep. Seeds are derived
with rng.mix from the master seed, the graph cell's place in the grid, the
rep and a fixed slot (0 for the graph, 1 for greedy's run, 2 for
modified's), so results are reproducible bit for bit from the master seed
alone, and a run's seeds do not depend on which other algorithms the sweep
runs.

This module writes no file. Every function returns its rows; to_csv and
to_json format them, and the command line writes them (run_monte_carlo
hands each cell's row to an optional callback as the cell finishes).

run_monte_carlo (one task per graph and rep: the graph and each of its
runs), theory_report (one per (c, kappa) cell) and
reproduce_reference_table (one per row) run their tasks
through _dispatch, which hands back their values in task order: on a
fork pool when _plan estimates that it finishes sooner than in-process,
in-process otherwise, with the same results either way. The pool has as
many workers as there are usable CPUs, tasks, and copies of the largest
task's estimated peak memory that fit in the available memory, and takes
the heaviest tasks first. A call also runs in-process when that is fewer
than 2 workers, when fork is not available or when other threads are
running. Theory values and the rows' and records' assembly stay in the
calling process: a rep's task returns a plain tuple.

Reported densities use the m = round(c n / 2) convention, i.e. c is the
average initial degree. The tabulated reference values' greedy column
follows the m = c n / 4 convention instead; reproduce_reference_table
reports deltas against both so the two never get conflated.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass
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
_RUN_SLOT = {"greedy": 1, "modified": 2}   # slot 0 seeds the graph

# Cost model of one task, fitted to measurements on a 2-core x86-64 VM with
# 8 GB (Python 3.11, numpy 2.4). Estimated seconds order a pool's tasks and
# decide whether a pool pays; estimated peak bytes size it.
#
# A rep task runs generate once, then each of its engines on that graph.
# Its time is the sum of one term for generate and one per engine, each per
# (edge, vertex, color) in ns, fitted at n >= 10^4 to the median of three
# warm in-process calls, as a sweep makes them, at n = 500 ... 10^6, c in
# {0.5, 1, 5} and kappa in {0.1, 0.5, 2, 20}; the engine terms were refitted
# once an engine result no longer built its trajectory. A task's estimate,
# one engine or both, reads 1.03-1.96x of the measured at n = 10^4,
# 0.81-1.65x at 10^5, 0.57-0.95x at 10^6 (larger graphs miss the caches
# more) and 0.81-2.56x at n = 500. Checked again on the same grid at
# n >= 10^4 in two runs, paired and one-engine tasks: 0.93-1.48x (median
# 1.16) and 0.60-1.36x (median 0.93) at 10^5, while the measured times
# themselves moved by 0.63-1.93x (median 1.36x) between the runs, so the
# terms were kept.
# Its peak is the larger of its reps' (the engines run one after the
# other on the shared graph). A rep's peak, graph included, is per (edge,
# vertex, color) in bytes of RSS above the interpreter's: one rep per
# process, c in {0.5, 1, 5}, kappa in {0.1, 0.5, 2, 20}, growth of
# ru_maxrss from before the first generate, with numpy.random imported
# before it as a sweep does (importing it costs about 6 MB). Greedy's
# estimate reads 0.97-1.19x of the measured peak at n = 10^5 and
# 1.12-1.37x at 10^6. Modified's, set by its sort key, was refitted once
# engine results no longer built their matching and trajectory, and reads
# 0.93-1.10x at 10^5 and 1.02-1.15x at 10^6.
_REP_NS = {"generate": (64, 1, 0), "greedy": (45, 5, 2), "modified": (85, 21, 2)}
_REP_BYTES = {"greedy": (38, 22, 11), "modified": (44, 34, 10)}
_TASK_S = 3e-4   # fixed cost of a task, rep or theory cell
# A theory cell costs per RK4 step: 850 ns in the modified scalar loop,
# 100 ns in its Newton refinement and 45 ns in integrate_greedy, and its
# tracemalloc peak is about 20 B per step of the longest of the three
# runs. Against 6 c x 8 kappa cells plus stiff and color-starved ones at
# the default step and at 1e-3 ... 1e-6, the time of a cell that
# integrates reads 0.4-1.8x of the estimate (refined cells 0.6-1.8x,
# median 1.0 at 1e-5 and 1e-6); the peak reads 0.55-0.83x at 10^5 steps
# or more, while below 10^4 steps block-long arrays of up to 0.5 MB
# exceed the estimate.
_ODE_NS = (850, 100, 45)
_ODE_BYTES_PER_STEP = 20

# A fork pool finishes later than its tasks' estimated makespan: it forks
# and reaps its workers, and the workers start cold (first-touch page
# faults) and share the cores' caches and memory bandwidth. Measured in a
# warm process on 8 shapes (perfbench's two Monte Carlo passes, one (c,
# kappa) cell at n = 10^5 with 4 and with 20 reps, one pair at n = 2*10^5,
# c = 5, theory_report over 48 cells and the reference table at step
# 1e-5), as the median of 15 pooled calls less the median of 15 in-process
# ones scaled by the estimated makespan's share of the serial seconds, it
# was -15 ... 62 ms, with a median of 28 ms.
_POOL_START_S = 0.028
# A process that has not imported multiprocessing yet, such as a fresh
# simulate, theory or table, also pays for that import and for its first
# shared value, pipes and forks: the first such start less a second one
# took 11.7-18.4 ms, with a median of 13.9 ms, over 15 fresh processes
# with numpy and this package imported.
_POOL_IMPORT_S = 0.014


def _per_size(coef: tuple[int, int, int], n: int, m: int, q: int) -> int:
    return coef[0] * m + coef[1] * n + coef[2] * q


def _rep_bytes(algo: str, n: int, m: int, q: int) -> int:
    """Estimated peak bytes of one rep: its graph and its engine."""
    return _per_size(_REP_BYTES[algo], n, m, q)


def _task_cost(task) -> tuple[float, int]:
    """Estimated (seconds, peak bytes) of a _run_rep task."""
    n, m, q, _, runs = task
    layers = ("generate", *(algo for algo, _ in runs))
    return (_TASK_S + 1e-9 * sum(_per_size(_REP_NS[x], n, m, q) for x in layers),
            max(_rep_bytes(algo, n, m, q) for algo, _ in runs))


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
            need = _rep_bytes(a, n, round(c * n / 2), round(k * n))
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


def theory_mu_over_n(c: float, kappa: float, algorithm: str) -> float:
    """Predicted matching density for one cell, at each integrator's default
    step; nan when the modified integrator refuses the cell (c/kappa above
    about 2.8e6, where the default step passes RK4's stability limit)."""
    if algorithm == "greedy":
        return tau0_general(TheoryParams(c, kappa))
    try:
        return integrate_modified(TheoryParams(c, kappa)).mu_over_n
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
    """Yield the tasks' values in task order from the workers' pipes
    (workers maps each pipe to its process), holding those that arrive
    early until their turn.

    A failed task's exception is raised in its turn, so every task before
    it is delivered first. Raise RuntimeError once a worker has died, as
    when the kernel kills it for memory: the task it held would never
    come back.
    """
    from multiprocessing.connection import wait
    early = {}   # index -> (ok, value) of tasks back before their turn
    for i in range(count):
        while i not in early:
            if not workers:
                raise RuntimeError("a pool worker died before its task "
                                   "finished")
            for conn in wait(list(workers)):
                try:
                    index, ok, value = conn.recv()
                except EOFError:   # the worker has exited
                    worker = workers.pop(conn)
                    worker.join()
                    if worker.exitcode:
                        raise RuntimeError("a pool worker died before its "
                                           "task finished") from None
                    continue
                early[index] = ok, value
        ok, value = early.pop(i)
        if not ok:
            raise value
        yield value


def _makespan(seconds: list[float], workers: int) -> float:
    """Estimated seconds until `workers`, each claiming the heaviest task
    left, as _dispatch's pool does, have run tasks of these seconds."""
    loads = [0.0] * workers
    for s in sorted(seconds, reverse=True):
        loads[loads.index(min(loads))] += s
    return max(loads)


def _plan(costs: list[tuple[float, int]]) -> int:
    """Workers to run tasks of these estimated (seconds, peak bytes) on;
    1 means in-process.

    In-process is costed as the sum of the seconds, a fork pool as their
    _makespan on the workers _workers allows, plus _POOL_START_S, and plus
    _POOL_IMPORT_S while multiprocessing is not imported. The pool is
    planned only when that beats in-process, when no other thread is
    running and when fork is available.
    """
    workers = _workers(_cpus(), len(costs), _available_memory(),
                       max((b for _, b in costs), default=0))
    seconds = [s for s, _ in costs]
    start = _POOL_START_S
    if "multiprocessing" not in sys.modules:
        start += _POOL_IMPORT_S
    if (workers < 2 or threading.active_count() > 1
            or _makespan(seconds, workers) + start >= sum(seconds)):
        return 1
    import multiprocessing   # here, so that in-process calls never pay for the import
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return workers


@contextlib.contextmanager
def _dispatch(fn, tasks: list, costs: list[tuple[float, int]]):
    """Start fn, a module-level function, over the tasks and yield an
    iterator of fn(task) for each task in task order; costs holds each
    task's estimated (seconds, peak bytes), from which _plan picks the
    worker count.

    In-process (1 worker), the tasks run lazily as the iterator is read.
    On a fork pool they start at once, heaviest first, and _pool_results
    puts them back in task order, raising a failed task's exception in its
    turn.
    The workers inherit the tasks at fork; each claims the next one from
    a shared counter and sends its result back on a pipe of its own. No
    worker outlives the block, however it exits.
    """
    size = _plan(costs)
    if size < 2:
        yield map(fn, tasks)
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


# -- Monte Carlo sweep -----------------------------------------------------------

def _sweep_tasks(cfg: ExperimentConfig) -> list[tuple]:
    """One task per graph cell (c, kappa, n) and rep, in grid order:
    (n, m, q, graph_seed, runs), with runs a tuple of (algorithm, run_seed)
    in the config's algorithm order."""
    tasks = []
    graph_cells = [(c, kappa, n) for c in cfg.c_values
                   for kappa in cfg.kappa_values for n in cfg.n_values]
    for index, (c, kappa, n) in enumerate(graph_cells):
        for rep in range(cfg.reps):
            runs = tuple((algo, mix(cfg.master_seed, index, rep, _RUN_SLOT[algo]))
                         for algo in cfg.algorithms)
            tasks.append((n, round(c * n / 2), round(kappa * n),
                          mix(cfg.master_seed, index, rep, 0), runs))
    return tasks


def _run_rep(task) -> tuple[tuple[int, int, int, float, float], ...]:
    """Generate one graph and run each of the task's engines on it; per run,
    (mu, steps_total, isolated_deletions, generate seconds, engine seconds),
    the generate seconds shared by the runs."""
    n, m, q, graph_seed, runs = task
    tic = time.perf_counter()
    g = generate(n, m, q, graph_seed)
    gen_s = time.perf_counter() - tic
    outcomes = []
    for algo, run_seed in runs:
        runner = run_greedy if algo == "greedy" else run_modified_greedy
        tic = time.perf_counter()
        result = runner(g, run_seed)
        eng_s = time.perf_counter() - tic
        outcomes.append((result.mu, result.steps_total,
                         result.isolated_deletions, gen_s, eng_s))
        del result   # so that the next engine does not run beside it
    return tuple(outcomes)


def _cell_results(cell, runs, theory: float
                  ) -> tuple[AggregateRow, list[RunRecord]]:
    """A cell's row and records from its reps' (graph_seed, run_seed,
    outcome) in rep order, each outcome one run's from _run_rep."""
    c, kappa, n, algo = cell
    records = []
    for rep, (graph_seed, run_seed,
              (mu, steps, isolated, gen_s, eng_s)) in enumerate(runs):
        records.append(RunRecord(
            c=c, kappa=kappa, n=n, algorithm=algo, rep=rep,
            graph_seed=graph_seed, run_seed=run_seed, mu=mu,
            mu_over_n=mu / n, steps_total=steps, isolated_deletions=isolated,
            generate_seconds=gen_s, engine_seconds=eng_s))
    reps = len(records)
    mus = [r.mu_over_n for r in records]
    mean = fmean(mus)
    se = stdev(mus) / math.sqrt(reps) if reps > 1 else 0.0
    dev = abs(mean - theory) if not math.isnan(theory) else math.nan
    row = AggregateRow(c=c, kappa=kappa, n=n, algorithm=algo, reps=reps,
                       mean_mu_over_n=mean, stderr=se, theory_mu_over_n=theory,
                       abs_deviation=dev,
                       runtime_seconds=sum(r.generate_seconds + r.engine_seconds
                                           for r in records))
    return row, records


def run_monte_carlo(cfg: ExperimentConfig, on_row=None
                    ) -> tuple[list[AggregateRow], list[RunRecord]]:
    """Run the full sweep; returns (aggregate rows, per-rep records).

    Writes nothing. When on_row is given, it is called with each cell's
    aggregate row, in cell order, once that cell's graph cell (c, kappa, n)
    and every graph cell before it have finished, so a caller can write
    rows while the sweep runs and keep them if a later graph cell fails.
    The theory values are computed here while the reps run, once per (c,
    kappa, algorithm), as they do not depend on n.
    """
    cells = cfg.cells()
    algos = len(cfg.algorithms)
    graphs = len(cells) // algos
    tasks = _sweep_tasks(cfg)
    rows: list[AggregateRow] = []
    records: list[RunRecord] = []
    # numpy imports numpy.random on first use; imported before a pool
    # forks, it is inherited by the workers instead of imported by each
    import numpy.random   # noqa: F401
    with _dispatch(_run_rep, tasks, [_task_cost(t) for t in tasks]) as results:
        theories = {key: theory_mu_over_n(*key) for key in dict.fromkeys(
            (c, kappa, algo) for c, kappa, _, algo in cells)}
        for g in range(graphs):
            runs = {}   # algorithm -> its reps' (graph_seed, run_seed, outcome)
            for *_, graph_seed, task_runs in tasks[g * cfg.reps:(g + 1) * cfg.reps]:
                for (algo, run_seed), outcome in zip(task_runs, next(results)):
                    runs.setdefault(algo, []).append((graph_seed, run_seed, outcome))
            for k in range(g * algos, (g + 1) * algos):
                c, kappa, _, algo = cells[k]
                row, cell_records = _cell_results(cells[k], runs[algo],
                                                  theories[c, kappa, algo])
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
    costs = [_ode_cost(c, 0.5, step, greedy=False) for c, *_ in tasks]
    with _dispatch(_table_row, tasks, costs) as results:
        rows = list(results)
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
    margin: float   # 3 * standard error of the per-rep paired differences, or nan
    status: str     # "consistent with conjecture" | "inconclusive (margin)" | "violation"


def check_conjecture(rows: list[AggregateRow],
                     records: list[RunRecord]) -> list[ConjectureRow]:
    """Test whether the modified process matches at least as much as the
    plain greedy on every cell of a sweep's aggregate rows and records.

    Returns one row per cell, sorted by (c, kappa, n). A cell with a row
    for only one algorithm is skipped. A cell is a violation only when
    greedy beats modified by more than 3 standard errors of the paired
    differences: per rep, modified's mu/n minus greedy's on their shared
    graph. With one rep the margin is nan and the cell inconclusive, as
    one difference has no spread to judge it by. Raises ValueError when
    the records lack a pair on one graph for a rep of such a cell.
    """
    by_cell: dict[tuple[float, float, int], dict[str, AggregateRow]] = {}
    for r in rows:
        by_cell.setdefault((r.c, r.kappa, r.n), {})[r.algorithm] = r
    by_rep: dict[tuple[float, float, int, int], dict[str, RunRecord]] = {}
    for r in records:
        by_rep.setdefault((r.c, r.kappa, r.n, r.rep), {})[r.algorithm] = r
    out = []
    for (c, kappa, n), pair in sorted(by_cell.items()):
        if "greedy" not in pair or "modified" not in pair:
            continue
        g, mg = pair["greedy"], pair["modified"]
        diffs = []
        for rep in range(g.reps):
            runs = by_rep.get((c, kappa, n, rep), {})
            if ("greedy" not in runs or "modified" not in runs
                    or runs["greedy"].graph_seed != runs["modified"].graph_seed):
                raise ValueError(f"no greedy and modified records on one graph "
                                 f"for rep {rep} of (c={c}, kappa={kappa}, n={n})")
            diffs.append(runs["modified"].mu_over_n - runs["greedy"].mu_over_n)
        diff = mg.mean_mu_over_n - g.mean_mu_over_n
        margin = 3.0 * stdev(diffs) / math.sqrt(len(diffs)) if len(diffs) > 1 else math.nan
        if diff < -margin:
            status = "violation"
        elif diff > margin:
            status = "consistent with conjecture"
        else:
            status = "inconclusive (margin)"
        out.append(ConjectureRow(c=c, kappa=kappa, n=n,
                                 mean_greedy=g.mean_mu_over_n,
                                 mean_modified=mg.mean_mu_over_n,
                                 diff=diff, margin=margin, status=status))
    return out


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
    costs = [_ode_cost(c, kappa, step, greedy=True) for c, kappa, _ in tasks]
    with _dispatch(_theory_cell, tasks, costs) as results:
        return list(results)


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
