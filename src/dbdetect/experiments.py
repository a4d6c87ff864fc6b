"""Seeded Monte-Carlo risk estimation, parameter sweeps, the exact
total-variation oracle on tiny instances, and the consolidated bound report.

The harness draws the hidden permutation uniformly per dependent trial, so it
estimates the average risk; every detector in this package is invariant to
row reordering, which makes average and worst-case Type-II errors coincide.
Each trial draws its pairs from substreams keyed by (seed, hypothesis,
point, trial), and trials run in contiguous blocks: a block draws its pairs
and computes their LLR matrices in sub-blocks of stacked arrays.  It then
evaluates its stacked detectors each on one stack: the oracle's permanents,
and the scan test's decisions, certified by a greedy assignment where it
clears the cut and solved in one call where it does not.  Every pair's
figures are computed from that pair alone, so results are bit-identical
across block and sub-block sizes, worker counts and runs.  Large points run
their blocks in a pool of worker processes, small ones in process.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import math
import numbers
import os
import threading
from concurrent.futures import BrokenExecutor, Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import rng as rngmod
from . import spectral
# glrt, sum_test, count_test, np_oracle and make_count_plan are not called
# here; they stay importable from this module, where
# perfbench/worker.py::ENTRY_POINTS rebinds them
from .detectors import (  # noqa: F401
    PD_SAMPLES,
    TAU_COUNT_HALF_KL,
    CountPlans,
    PairCache,
    PreparedCount,
    PreparedDetector,
    PreparedGlrt,
    PreparedNpOracle,
    PreparedSum,
    _mapped_stack,
    _monte_carlo_pd,
    count_test,
    glrt,
    make_count_plan,
    np_oracle,
    require_number,
    resolve_tau_count,
    sum_test,
)
from .errors import (
    CapacityError,
    DegenerateModelError,
    DetectionError,
    ValidationError,
)
from .exponents import chernoff_exponent, kl_divergences, var_q_centered_kernel
from .models import (
    BernoulliModel,
    DiscreteJointModel,
    GaussianModel,
    JointModel,
    make_bernoulli,
    sample_alt_rng,
    sample_null_rng,
)

# exact_tv_small's time guard, in element operations of its array calls (see
# _tv_work), fitted to its run times over 29 sizes from n = 1, d = 12 to
# n = 60, d = 1 on a 2-vCPU machine, within about 25 % above 1 ms: an element
# operation took 0.55-0.62 ns, a call 2.3-3.2 us besides (TV_CALL_WORK) and a
# kernel entry 7 ns (TV_ROW_WORK), so the budget is about 0.6 s.
TV_MAX_WORK = 10**9
TV_CALL_WORK = 4_000
TV_ROW_WORK = 13
# scratch budget of exact_tv_small besides its level tables: a column block's
# gathered parents, a chunk's arrays and a kernel panel, sized like a core's
# L2 cache; and the bound on the level tables, checked before they are built
TV_BLOCK_BYTES = 1 << 22
TV_TABLE_BYTES = 1 << 26

# The one name-to-detector table: each entry binds its detector to a model,
# n x d databases, a plan's thresholds and the run's count-plan table
DETECTORS = {
    "glrt": lambda model, n, d, plan, plans: PreparedGlrt(model, n, d, plan.tau_glrt),
    "sum": lambda model, n, d, plan, plans: PreparedSum(model, n, d, plan.tau_sum),
    "count": lambda model, n, d, plan, plans: PreparedCount(
        model, n, d, resolve_tau_count(model, plan.tau_count),
        functools.partial(plans.get, model, d),
    ),
    "np-oracle": lambda model, n, d, plan, plans: PreparedNpOracle(model, n, d),
}


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Grid values for a sweep; any axis left as None reuses the plan's
    single value.  ``param_values`` sweeps rho (gaussian) or tau (bernoulli)."""

    param_values: Optional[tuple[float, ...]] = None
    n_values: Optional[tuple[int, ...]] = None
    d_values: Optional[tuple[int, ...]] = None


@dataclass(frozen=True, eq=False)
class TrialPlan:
    """A Monte-Carlo run's settings, whose defaults are stated here alone:
    the command line and plan files pass on only the settings they give."""

    model: JointModel
    n: int
    d: int
    trials: int = 2000
    seed: int = 0
    detectors: tuple[str, ...] = ("sum",)
    tau_glrt: float = 0.0
    tau_sum: Optional[float] = None
    tau_count: object = None  # float or TAU_COUNT_HALF_KL
    pd_samples: int = PD_SAMPLES
    sweep: Optional[SweepGrid] = None

    def __post_init__(self):
        object.__setattr__(self, "detectors", tuple(self.detectors))
        for field in fields(self):
            check_setting(field.name, getattr(self, field.name))


def check_setting(name: str, value) -> None:
    """Raise ``ValidationError`` for a run setting out of its range: trials
    or pd_samples below 1, a negative seed, no detector or an unknown one, a
    NaN threshold; other names pass.  :class:`TrialPlan` checks its fields
    here, and a plan file each key's value, so that the error can name the
    key's line."""
    if name in ("trials", "pd_samples") and value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")
    if name == "seed" and value is not None and value < 0:
        raise ValidationError(f"seed must be >= 0, got {value}")
    if name == "detectors":
        if not value:
            raise ValidationError("at least one detector is required")
        for detector in value:
            if detector not in DETECTORS:
                raise ValidationError(
                    f"unknown detector {detector!r}; choose from {tuple(DETECTORS)}"
                )
    if name in ("tau_glrt", "tau_sum", "tau_count") and isinstance(value, numbers.Real):
        require_number(value, name)


@dataclass(frozen=True, eq=False)
class RiskEstimate:
    detector: str
    fpr: float
    fnr: float
    risk: float
    stderr: float
    trials: int
    seed: int
    threshold: float
    model_kind: str
    param: Optional[float]
    n: int
    d: int


def model_kind(model: JointModel) -> str:
    if isinstance(model, GaussianModel):
        return "gaussian"
    if isinstance(model, BernoulliModel):
        return "bernoulli"
    return "discrete"


def model_param(model: JointModel) -> Optional[float]:
    if isinstance(model, GaussianModel):
        return model.rho
    if isinstance(model, BernoulliModel):
        return model.tau
    return None


def count_plans(plan: TrialPlan, models: Sequence[JointModel]) -> CountPlans:
    """The count-plan table of a run of ``plan`` over ``models``."""
    return CountPlans(models, plan.tau_count, plan.pd_samples, plan.seed)


# bytes of the n x n arrays a risk point or a detect call may hold, checked
# before its first draw: 8 n^2 for the LLR matrix that count, glrt and
# np-oracle read, and 16 n^2 more for a block's smallest stack of the
# stacked ones (one trial's two matrices).  The sum test reads no matrix.
# 1 GiB admits count up to n = 11,585 and glrt up to n = 6,688.  The same
# budget bounds the n x d arrays a risk point or a sample call draws into,
# checked after the scan test's time guard (see check_draws)
ARRAY_MAX_BYTES = 1 << 30
# the scan test's time guard, checked after the byte guard: a risk point or
# detect call is refused when its assignments, each priced at SCAN_ROW_S n +
# SCAN_ENTRY_S n^2 seconds as if solved alone and never certified, would
# take more than SCAN_MAX_SECONDS.  The price lies above the slower of a
# null and a dependent single matrix (Gaussian rho = 0.5, d = 10, and
# Bernoulli(0.6, 0.3), d = 100), best of 3 (one run from n = 800), 2-vCPU
# Xeon, numpy 2.4.6, except 4 % below at n = 800:
#   n                 100    200    400    800    1600
#   measured (s)      0.039  0.074  0.235  0.92   2.47
#   priced (s)        0.040  0.100  0.280  0.88   3.04
# A stack solves faster than its matrices one by one and certified trials
# skip the solver, so a point runs within its price.  An hour admits the
# CLI's default 2,000 trials up to n = 810, 200 trials up to n = 2,853, 38
# trials at the byte guard's n = 6,688, and any single matrix the byte
# guard admits (47 s at n = 6,688).
SCAN_ROW_S = 3e-4
SCAN_ENTRY_S = 1e-6
SCAN_MAX_SECONDS = 3600


def prepare(
    model: JointModel,
    n: int,
    d: int,
    plan: TrialPlan,
    plans: CountPlans,
    pairs: Optional[int] = None,
) -> list[PreparedDetector]:
    """``plan.detectors`` bound to ``model`` and n x d databases, in plan
    order, from :data:`DETECTORS`; a name given twice shares one detector.
    The ``detect`` subcommand (one pair) and the risk harness (``pairs``
    defaults to a point's ``2 trials``) both bind detectors here.  The
    count test takes its plan from ``plans`` when its threshold is first
    settled.  Detectors whose LLR arrays would exceed ``ARRAY_MAX_BYTES``, a
    scan test whose ``pairs`` solves are priced above ``SCAN_MAX_SECONDS``,
    or a risk point (``pairs`` not given) whose draws would exceed
    ``ARRAY_MAX_BYTES`` (see :func:`check_draws`) raise ``CapacityError``,
    by arithmetic alone, and n or d below 1 raises ``ValidationError``."""
    for name, value in (("n", n), ("d", d)):
        if value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")
    prepared = {
        name: DETECTORS[name](model, n, d, plan, plans)
        for name in dict.fromkeys(plan.detectors)
    }
    readers = [
        name for name, det in prepared.items() if not isinstance(det, PreparedSum)
    ]
    matrices = bool(readers) + 2 * any(det.stacked for det in prepared.values())
    if 8 * n * n * matrices > ARRAY_MAX_BYTES:
        raise CapacityError(
            f"{' and '.join(readers)} at n={n} would hold {8 * n * n * matrices} "
            f"bytes of n x n LLR arrays, above the {ARRAY_MAX_BYTES}-byte guard"
        )
    risk_point = pairs is None
    if risk_point:
        pairs = 2 * plan.trials
    price = pairs * (SCAN_ROW_S * n + SCAN_ENTRY_S * n * n)
    if "glrt" in prepared and price > SCAN_MAX_SECONDS:
        raise CapacityError(
            f"glrt at n={n} would solve {pairs} assignments priced at "
            f"{price:.1f} s, above the {SCAN_MAX_SECONDS} s guard"
        )
    if risk_point:
        check_draws(n, d, risk_point=True)
    return [prepared[name] for name in plan.detectors]


def check_draws(n: int, d: int, risk_point: bool) -> None:
    """Refuse, by arithmetic alone and before any draw, to draw n x d
    databases whose arrays would exceed ``ARRAY_MAX_BYTES``.

    A sample call is priced at 5 arrays of 8 n d bytes.  Traced with
    tracemalloc at n = 300, d = 400, the dependent samplers' peak was 4.0
    such arrays for the Gaussian family and 4.1 for a discrete law (the
    null samplers' 2.0 and 3.2), and the ``sample`` command's, which writes
    its CSV files a row at a time, 3.1-4.2.  A risk point holds 4 more: its
    two (1, n, d) slabs and the pair drawn before (``run_unit`` traced
    8.0-8.1 with the sum test).  At small n and d its slabs hold more pairs,
    but fit ``SUB_BLOCK_BYTES``."""
    size = 8 * n * d * (9 if risk_point else 5)
    if size > ARRAY_MAX_BYTES:
        raise CapacityError(
            f"drawing n={n} by d={d} databases would hold {size} bytes of n x d "
            f"arrays, above the {ARRAY_MAX_BYTES}-byte guard"
        )


def thread_count(override: Optional[int] = None) -> int:
    """The cap on a run's worker processes: ``override`` (at least 1), else
    the core count.  A run uses at most as many as there are cores, and runs
    its small points in process; see :data:`POOL_MIN_WORK`."""
    if override is None:
        return os.cpu_count() or 1
    if override < 1:
        raise ValidationError(f"threads must be >= 1, got {override}")
    return int(override)


def point_work(plan: TrialPlan, n: int, d: int) -> int:
    """The size of a risk point of ``plan`` at (n, d) that decides where it
    runs: the ``4 trials n d`` values its trials draw, and ``2 trials n^2``
    LLR entries more when a detector reads the matrices."""
    draws = 4 * plan.trials * n * d
    if any(name != "sum" for name in plan.detectors):
        return draws + 2 * plan.trials * n * n
    return draws


# Points of at least this work (see point_work) run their trial blocks in the
# run's process pool when it has two or more workers; smaller ones run in
# process.  Seconds per Gaussian point (rho = 0.25, pd_samples = 2000), in
# process / on a started pool of 2 workers, best of 3, 2-vCPU Xeon, numpy
# 2.4.6; glrt in one block per worker (see BLOCKS_PER_WORKER), at its default
# tau = 0, re-timed (best of two such runs) since the greedy assignment
# certifies its trials: in process its times fell 2-21 fold, and no cell
# changed sides of the rule.  The pool's start, about 0.5 s, is paid once
# per process:
#   detector  n    d    trials  work    in process  pool
#   sum       30   10   40      4.8e4   0.006       0.009
#   sum       100  10   40      1.6e5   0.010       0.009
#   sum       100  2    640     5.1e5   0.081       0.048
#   sum       100  100  640     2.6e7   0.70        0.35
#   count     100  2    10      2.1e5   0.006       0.008
#   count     100  100  10      6.0e5   0.030       0.031
#   count     100  2    40      8.3e5   0.015       0.014
#   count     100  100  40      2.4e6   0.077       0.049
#   glrt      30   10   160     4.8e5   0.051       0.023
#   glrt      100  2    40      8.3e5   0.017       0.014
#   glrt      30   10   640     1.9e6   0.089       0.060
#   glrt      300  10   10      1.9e6   0.047       0.035
#   glrt      100  10   160     3.8e6   0.070       0.041
# Below 1e6 the pool loses or ties in some cell, above it it wins in all.
POOL_MIN_WORK = 1_000_000
# trial blocks per worker of a pooled point without a stacked detector, so
# that no worker idles long at the end.  A point with a stacked detector
# gets one block per worker: the solver runs one large stack faster than
# four small ones (glrt at n = 100, d = 10, 40 trials took 0.27 s on 2
# workers in 8 blocks, 0.12 s in 2, and 0.20 s in process)
BLOCKS_PER_WORKER = 4
# bytes of one block's stack of pair LLR matrices, (trials, 2, n, n) float64,
# which each stacked detector (scan test, mixture oracle) evaluates in one
# call: a stack of 4 matrices solves about as fast as a loop over them, one
# of 16 up to 2.4x faster (README, "Assignment solver"), and the oracle's
# 100 permanents at n = 8 take 3.6 ms against 21 ms one by one
LLR_STACK_BYTES = 1 << 25
# bytes of a sub-block's largest array: a block draws its pairs into (pairs,
# n, d) slabs and computes their LLR matrices, (pairs, n, n), a sub-block at
# a time, in one pair_llr_matrix call.  At n = 100 a sub-block is one pair,
# so no array is larger than a single pair's: sub-blocks of 13 pairs there
# (1 MiB) raised the peak RSS of the benchmark's mc-scan workload from
# 42.3-42.8 to 49.5-51.1 MB, and of mc-sum-count from 71.7 to 77.8-79.6 MB
# while its points ran in process.  On two or more cores they now run on
# the worker pool, and the benchmark reads the peak RSS of its own process
# only, so no mc-sum-count slab shows in it.
# The oracle point of the benchmark's exact workload (n = 8, d = 10, 100
# pairs, 2-vCPU machine) took the same time in sub-blocks of 25 pairs (this
# budget) as in one of 100, and 4 % longer in ones of 6; the workload's
# peak RSS was 0.2-0.4 MB above the harness's with one call per pair at 25
# pairs, 0.4-0.6 MB at 100
SUB_BLOCK_BYTES = 1 << 14


def _trial_blocks(
    detectors: list[PreparedDetector], n: int, trials: int, workers: int
) -> list[range]:
    """Contiguous blocks of a point's trial indices on ``workers`` workers:
    one block on one worker, else ``BLOCKS_PER_WORKER`` per worker, or one
    per worker with a stacked detector.  A point with one holds at most the
    trials whose LLR stack fits ``LLR_STACK_BYTES`` in a block."""
    stacked = any(det.stacked for det in detectors)
    count = workers * (1 if stacked or workers == 1 else BLOCKS_PER_WORKER)
    cap = LLR_STACK_BYTES // (16 * n * n) if stacked else trials
    size = max(1, min(-(-trials // count), cap))
    return [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]


def run_unit(
    model: JointModel, n: int, d: int, plan: TrialPlan, point_index: int, block: range
) -> np.ndarray:
    """The statistics ``[trial, hypothesis, detector]`` of one block of
    trials of risk point ``point_index`` of ``plan`` at (n, d) (see
    :func:`_point_records`): the work unit, in process or in a worker
    process, from picklable inputs alone.  It binds the point's detectors
    itself; their thresholds are settled by the caller.  A stacked
    detector's statistic may be a bound that decides ``statistic >= cut``
    as the exact one does (the scan test's certified trials, see
    ``PreparedGlrt.evaluate_stack``); only the decisions are used."""
    detectors = prepare(model, n, d, plan, count_plans(plan, (model,)))
    unique = list(dict.fromkeys(detectors))
    stacked = [det for det in unique if det.stacked]
    samplers = (sample_null_rng, sample_alt_rng)
    purposes = (rngmod.RISK_NULL, rngmod.RISK_ALT)
    dtype = np.float64 if isinstance(model, GaussianModel) else np.int64
    step = max(1, SUB_BLOCK_BYTES // (8 * n * max(n, d)))  # pairs per sub-block
    keys = [
        rngmod.stream_keys(plan.seed, (purpose, point_index), block)
        for purpose in purposes
    ]
    rng = np.random.Generator(np.random.Philox(key=keys[0][0]))
    pairs = 2 * len(block)
    stats = {det: np.empty(pairs) for det in unique if not det.stacked}
    llr = _mapped_stack((pairs, n, n)) if stacked else None
    x = np.empty((min(step, pairs), n, d), dtype)
    y = np.empty_like(x)
    for lo in range(0, pairs, step):
        size = min(step, pairs - lo)
        for p in range(size):
            trial, h = divmod(lo + p, 2)
            pair = samplers[h](model, n, d, rngmod.rekey(rng, keys[h][trial]))
            x[p], y[p] = pair.x, pair.y
        cache = PairCache(model, x[:size], y[:size])
        for det in stats:
            stats[det][lo : lo + size] = det.evaluate_block(cache)
        if stacked:
            llr[lo : lo + size] = cache.llr()
    for det in stacked:
        stats[det] = det.evaluate_stack(llr.reshape(len(block), 2, n, n)).ravel()
    return np.stack([stats[det] for det in detectors], axis=-1).reshape(
        len(block), 2, -1
    )


# the runs' process pool, made on first use, the (workers, process id) it
# was made for, and the lock under which threads make, replace or stop it
_POOL: Optional[Executor] = None
_POOL_KEY: Optional[tuple[int, int]] = None
_POOL_LOCK = threading.RLock()


def _process_pool(workers: int) -> Executor:
    """The ``spawn`` pool of ``workers`` processes, reused while the count
    and this process stay the same.  Its workers all start here, with
    ``OPENBLAS_NUM_THREADS=1`` in the environment they inherit, so that
    their matrix products do not multiply with BLAS threads; the caller's
    environment is restored at once."""
    # imported here, on a run's first pooled point: multiprocessing and the
    # process pool take 10-20 ms to import, which small runs need not pay
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _POOL, _POOL_KEY
    key = (workers, os.getpid())
    with _POOL_LOCK:
        if _POOL_KEY == key:
            return _POOL
        shutdown_pool()
        saved = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("spawn")
            )
            # a submit starts a worker while the pool has fewer than
            # ``workers`` and none idle, which no worker is this early
            for _ in range(workers):
                pool.submit(os.getpid)
        finally:
            if saved is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = saved
        _POOL, _POOL_KEY = pool, key
        return pool


def shutdown_pool() -> None:
    """Stop the worker processes of the runs' pool, if there is one; the
    next pooled run starts a new pool.  A pool made by a parent process
    before a fork is only forgotten: its workers are the parent's."""
    global _POOL, _POOL_KEY
    with _POOL_LOCK:
        pool, key = _POOL, _POOL_KEY
        _POOL = _POOL_KEY = None
        if pool is not None and key[1] == os.getpid():
            pool.shutdown(wait=True, cancel_futures=True)


# at exit, after concurrent.futures has stopped the workers, and before the
# interpreter clears the modules the pool's finaliser reads
atexit.register(shutdown_pool)


def _point_records(
    model: JointModel,
    n: int,
    d: int,
    plan: TrialPlan,
    point_index: int,
    plans: CountPlans,
    queued: Optional[list[Future]] = None,
) -> tuple[list[PreparedDetector], np.ndarray]:
    """The prepared detectors of one risk point, thresholds settled, and
    its decisions ``[hypothesis, detector, trial]``.

    The work units are contiguous blocks of trials (see
    :func:`_trial_blocks`).  A block derives the Philox keys of all its
    trials' null and dependent streams at once (``rng.stream_keys``), and
    takes its pairs in order, pair 2 t + h being trial t's under hypothesis
    h, in sub-blocks whose arrays fit ``SUB_BLOCK_BYTES``.  Each pair is
    drawn from one generator re-keyed to its stream (``rng.rekey``) into
    the sub-block's ``(pairs, n, d)`` slabs, whose LLR matrices one
    ``pair_llr_matrix`` call computes, when a detector reads them; the sum
    and count statistics of the whole sub-block are then read from its
    slabs and matrices.  For the stacked detectors (scan test, mixture
    oracle) the block keeps every pair's LLR matrix in one ``(trials, 2, n,
    n)`` stack, of at most ``LLR_STACK_BYTES``, which each of them evaluates
    in one call once the block's trials are drawn; it holds no other pair
    of past sub-blocks.

    ``queued`` holds the futures of the point's blocks on the process pool,
    in trial order (see :func:`_run_points`); without it the point is one
    block, run in process on a one-worker thread pool.  A threshold that
    needs work of its own (the count test's pd plan) is settled first, so a
    plan that fails, or whose pd makes the threshold vacuous, raises before
    any trial's error; the decisions ``statistic >= cut`` are taken once all
    blocks are in.  Neither the blocks, the sub-blocks nor the workers
    change a statistic: every trial's pairs and records are those it has
    alone."""
    detectors = prepare(model, n, d, plan, plans)
    for det in dict.fromkeys(detectors):
        det.settle()
    if queued is None:
        block = functools.partial(run_unit, model, n, d, plan, point_index)
        with ThreadPoolExecutor(max_workers=1) as pool:
            results = list(pool.map(block, _trial_blocks(detectors, n, plan.trials, 1)))
    else:
        results = [future.result() for future in queued]
    records = np.concatenate(results)
    cuts = np.array([det.cut for det in detectors])
    return detectors, np.moveaxis(records, 0, -1) >= cuts[:, None]


def _run_point(
    model: JointModel,
    n: int,
    d: int,
    plan: TrialPlan,
    point_index: int,
    plans: CountPlans,
    queued: Optional[list[Future]] = None,
) -> list[RiskEstimate]:
    """One risk point: a risk estimate per detector from the decisions of
    :func:`_point_records`."""
    detectors, decisions = _point_records(
        model, n, d, plan, point_index, plans, queued
    )
    m_trials = plan.trials
    out = []
    for idx, det in enumerate(detectors):
        fpr = float(decisions[0, idx].mean())
        fnr = float(1.0 - decisions[1, idx].mean())
        stderr = math.sqrt(
            fpr * (1.0 - fpr) / m_trials + fnr * (1.0 - fnr) / m_trials
        )
        out.append(
            RiskEstimate(
                detector=det.name,
                fpr=fpr,
                fnr=fnr,
                risk=fpr + fnr,
                stderr=stderr,
                trials=m_trials,
                seed=plan.seed,
                threshold=float(det.threshold),
                model_kind=model_kind(model),
                param=model_param(model),
                n=n,
                d=d,
            )
        )
    return out


@dataclass(frozen=True, eq=False)
class PointError:
    """Record of one sweep grid point that failed instead of producing
    estimates (capacity guard, vacuous threshold, ...)."""

    param: Optional[float]
    n: int
    d: int
    message: str


def _run_points(
    plan: TrialPlan,
    points: Sequence[tuple[Optional[float], JointModel, int, int]],
    threads: Optional[int],
    plans: CountPlans,
    error_sink: Optional[list],
) -> list[RiskEstimate]:
    """The estimates of a run's ``(param, model, n, d)`` points, point i
    being risk point i, in point order.

    The pool has ``min(threads, cores)`` worker processes; with two or more,
    each point of at least ``POOL_MIN_WORK`` (see :func:`point_work`) whose
    detectors bind goes to it.  All the pooled work is queued at once:
    first the Monte-Carlo pd passes of the pooled points' count plans,
    longest first, then each pooled point's trial blocks (see
    :func:`_trial_blocks`), in point order.  The points are then taken in
    order: a small one runs in process while the pool works, and a pooled
    one stores its pass and waits for its blocks.  A point that fails
    appends a :class:`PointError` to ``error_sink`` when it is a list, else
    raises; an error raised in a worker reaches here with its type and
    message.  A worker process that dies raises one ``DetectionError``
    naming the point and the likely cause, and the next run gets a new
    pool."""
    workers = min(thread_count(threads), os.cpu_count() or 1)
    pooled = [
        workers > 1 and point_work(plan, n, d) >= POOL_MIN_WORK for _, _, n, d in points
    ]
    queued: dict[int, list[Future]] = {}
    passes: dict[int, tuple] = {}  # d -> (pass members, future)
    out: list[RiskEstimate] = []
    index = 0
    try:
        if any(pooled):
            pool = _process_pool(workers)
            ready = {}  # pooled point that binds -> its detectors
            for i, (_, model, n, d) in enumerate(points):
                if pooled[i]:
                    try:
                        ready[i] = prepare(model, n, d, plan, plans)
                    except (ValidationError, CapacityError):
                        pass  # raised again when the point's turn comes
            runs = []
            for d in dict.fromkeys(points[i][3] for i in ready):
                try:
                    args = plans.pd_pass(d) if "count" in plan.detectors else None
                except ValidationError:  # raised again at the point
                    args = None
                if args is not None:
                    runs.append(args)
            runs.sort(key=lambda args: len(args[0]) * args[1] * args[2], reverse=True)
            for members, d, samples, seed in runs:
                future = pool.submit(_monte_carlo_pd, members, d, samples, seed)
                passes[d] = (members, future)
            for index, detectors in ready.items():
                _, model, n, d = points[index]
                queued[index] = [
                    pool.submit(run_unit, model, n, d, plan, index, block)
                    for block in _trial_blocks(detectors, n, plan.trials, workers)
                ]
        for index, (param, model, n, d) in enumerate(points):
            try:
                if d in passes:
                    members, future = passes.pop(d)
                    plans.store(members, d, future.result())
                out.extend(
                    _run_point(model, n, d, plan, index, plans, queued.get(index))
                )
            except (ValidationError, CapacityError) as exc:
                if error_sink is None:
                    raise
                error_sink.append(PointError(param=param, n=n, d=d, message=str(exc)))
                for future in queued.get(index, ()):
                    future.cancel()
    except BrokenExecutor:  # a worker process died
        shutdown_pool()
        param, _, n, d = points[index]
        raise DetectionError(
            f"a worker process died while running risk point param={param} "
            f"n={n} d={d}; the likely cause is a script that starts a pooled "
            f'run without `if __name__ == "__main__":`, which each worker '
            f"process runs again when it imports the script"
        ) from None
    finally:
        for future in itertools.chain(
            *queued.values(), (future for _, future in passes.values())
        ):
            future.cancel()
    return out


def estimate_risk(plan: TrialPlan, threads: Optional[int] = None) -> list[RiskEstimate]:
    """Monte-Carlo risk of each detector: ``trials`` independent null trials
    and ``trials`` independent dependent trials (hidden permutation uniform
    per trial), deterministic in the plan seed."""
    point = (model_param(plan.model), plan.model, plan.n, plan.d)
    return _run_points(plan, [point], threads, count_plans(plan, (plan.model,)), None)


def _model_with_param(model: JointModel, value: float) -> JointModel:
    if isinstance(model, GaussianModel):
        return GaussianModel(rho=value)
    if isinstance(model, BernoulliModel):
        return make_bernoulli(value, model.p)
    raise ValidationError(
        "parameter sweeps apply to gaussian (rho) and bernoulli (tau) models"
    )


def sweep(
    plan: TrialPlan,
    threads: Optional[int] = None,
    error_sink: Optional[list] = None,
) -> list[RiskEstimate]:
    """Risk estimates over the Cartesian grid in ``plan.sweep``, in stable
    row order: model parameter outermost, then d, then n, then detector.

    When ``error_sink`` is a list, a failing grid point appends a
    :class:`PointError` there and the sweep continues; otherwise the first
    failure propagates.  The models of all parameter values are built
    first, so a parameter outside the family's range raises before any
    point runs.  One count-plan table serves every point (see
    :class:`CountPlans`), and one process pool (see :func:`_run_points`).
    """
    grid = plan.sweep
    if grid is None:
        return estimate_risk(plan, threads=threads)
    params = grid.param_values if grid.param_values is not None else (None,)
    d_values = grid.d_values if grid.d_values is not None else (plan.d,)
    n_values = grid.n_values if grid.n_values is not None else (plan.n,)
    models = [
        plan.model if value is None else _model_with_param(plan.model, value)
        for value in params
    ]
    points = [
        (value, model, n, d)
        for value, model in zip(params, models)
        for d in d_values
        for n in n_values
    ]
    return _run_points(plan, points, threads, count_plans(plan, models), error_sink)


CSV_COLUMNS = (
    "model_kind",
    "param",
    "n",
    "d",
    "detector",
    "threshold",
    "fpr",
    "fnr",
    "risk",
    "stderr",
    "trials",
    "seed",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def estimate_to_dict(estimate: RiskEstimate) -> dict:
    return {column: getattr(estimate, column) for column in CSV_COLUMNS}


def csv_text(columns: Sequence[str], rows) -> str:
    """CSV with a header line and one line per row of values; floats in
    round-trip precision, None as an empty cell."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def estimates_to_csv(estimates: Sequence[RiskEstimate]) -> str:
    return csv_text(CSV_COLUMNS, (estimate_to_dict(e).values() for e in estimates))


# ---------------------------------------------------------------------------
# Exact total-variation oracle
# ---------------------------------------------------------------------------


def exact_tv_small(model: DiscreteJointModel, n: int, d: int) -> tuple[float, float]:
    """Exact total variation between the null law and the permutation-mixture
    dependent law, and the implied optimal average risk 1 - tv.

    Both laws are invariant under reordering the rows of either database, so
    the sum of |P0 - P1| over database pairs runs over pairs of row
    multisets, each weighted by its number of row orders.  P1 is perm(K[x,
    y]) / n!, K being the matrix of row-pair probabilities over the R = m^d
    row types.  The permanents come level by level: for k-multisets a + {r}
    (r its last element) and M of row types, g_k[a + {r}, M] = sum over the
    positions p of M of g_(k-1)[a, M - M_p] K[r, M_p] / k, so g_k is perm /
    k!.  With both sides in colex order (see :func:`_colex_level`) the rows
    of level k whose last element is r are one block, and their parents are
    the first rows of level k - 1: each term is a slice times one kernel
    row.  Level n is never stored; each block of it is reduced against p0
    (x) p0 and the row-order weights at once.  A run whose work (see
    :func:`_tv_work`) exceeds ``TV_MAX_WORK``, or whose level tables (see
    :func:`_tv_table_bytes`) exceed ``TV_TABLE_BYTES``, raises
    ``CapacityError`` before any table is built; the rest of its scratch
    stays within ``TV_BLOCK_BYTES``."""
    if not isinstance(model, DiscreteJointModel):
        raise ValidationError("exact_tv_small enumerates discrete models only")
    if n < 1 or d < 1:
        raise ValidationError(f"n and d must be >= 1, got n={n}, d={d}")
    m = model.alphabet_size
    work = _tv_work(m, n, d)
    if work > TV_MAX_WORK:
        raise CapacityError(
            f"exact enumeration needs at most {TV_MAX_WORK} units of work "
            f"(array element operations); got {work:.3g} for m={m}, n={n}, d={d}"
        )
    rows = m**d
    table_bytes = _tv_table_bytes(rows, n)
    if table_bytes > TV_TABLE_BYTES:
        raise CapacityError(
            f"exact enumeration keeps at most {TV_TABLE_BYTES} bytes of level "
            f"tables; got {table_bytes} for m={m}, n={n}, d={d}"
        )
    binom = _binomials(rows + n, n)
    panel_rows = _tv_panel_rows(rows)

    @functools.lru_cache(maxsize=1)  # kept while its row types are in use
    def panel(base: int) -> np.ndarray:
        return _row_pair_prob(model, d, np.arange(base, min(base + panel_rows, rows)))

    g = np.ones((1, 1))  # g_0: the empty multisets
    states = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n - 1):
        states = _colex_level(states, rows, binom)
        g = _tv_level(g, states, rows, binom, panel, panel_rows)
    states = _colex_level(states, rows, binom)
    row_q = np.prod(model.marginal[_row_symbols(m, d, np.arange(rows))], axis=1)
    p0 = np.prod(row_q[states], axis=1)
    # level n holds n perm / n!, so it is compared with n p0 (x) p0
    total = _tv_level(
        g, states, rows, binom, panel, panel_rows, (p0 * n, p0, _row_orders(states))
    )
    tv = 0.5 * total / n
    return tv, 1.0 - tv


def _tv_level(g, states, rows, binom, panel, panel_rows, weights=None):
    """Level k of exact_tv_small, for its k-multisets ``states`` of
    range(``rows``) in colex order, from g = g_(k-1), with the kernel rows
    of the row types from ``base`` on in ``panel(base)``: the table g_k,
    or, given the ``weights`` (n p0, p0, row orders) of level n, the
    weighted sum of |n p0 (x) p0 - n g_n|.  The columns run in blocks, each
    of which gathers once the parent columns of g for each position; the
    rows then run in the chunks of :func:`_tv_chunks`, each reduced at once
    at level n."""
    k = states.shape[1]
    size = len(states)
    # parents[M, p]: the rank of M - M_p; column k - 1 is an x-row's parent
    kept = np.arange(k - 1)
    kept = kept + (kept >= np.arange(k)[:, None])  # row p: the positions but p
    parents = np.empty((size, k), dtype=np.int64)
    for p in range(k):
        parents[:, p] = _colex_rank(states[:, kept[p]], binom)
    width, rows_cap = _tv_level_shape(len(g), size, k)
    chunks = [
        (lo, hi, r_lo, r_hi, None if r_hi - r_lo == 1 else states[lo:hi, -1] - r_lo)
        for lo, hi, r_lo, r_hi in _tv_chunks(rows, k, width, rows_cap, panel_rows)
    ]
    gathered_buf = np.empty(k * len(g) * width)
    scratch = np.empty((5, rows_cap * width))
    out = np.empty((size, size)) if weights is None else None
    p0x, p0, orders = weights or (None, None, None)
    total = 0.0
    # every take below has its indices in range: mode="clip" lets it write
    # straight to its out array instead of through a buffer
    for c0 in range(0, size, width):
        cols = slice(c0, min(c0 + width, size))
        b = cols.stop - c0
        if k > 1:
            gathered = _view(gathered_buf, (k, len(g), b))
            for p in range(k):
                g.take(parents[cols, p], axis=1, out=gathered[p], mode="clip")
        for lo, hi, r_lo, r_hi, r_index in chunks:
            base = r_lo - r_lo % panel_rows
            kernel = panel(base)[r_lo - base : r_hi - base]
            term = _view(scratch[0], (hi - lo, b))
            if k == 1:  # g_1 is the kernel itself
                acc = kernel[:, cols]
                if out is not None:
                    out[lo:hi, cols] = acc
            else:
                acc = out[lo:hi, cols] if out is not None else _view(
                    scratch[1], (hi - lo, b)
                )
                _tv_terms(
                    acc, term, gathered, kernel, states[cols],
                    parents[lo:hi, k - 1], r_index, scratch[2:],
                )
            if out is None:
                np.multiply.outer(p0x[lo:hi], p0[cols], out=term)
                term -= acc
                np.abs(term, out=term)
                total += float(orders[lo:hi] @ (term @ orders[cols]))
    if out is None:
        return total
    out /= k
    return out


def _tv_terms(acc, term, gathered, kernel, y_states, parents, r_index, scratch):
    """One chunk of level k >= 2 of exact_tv_small, into ``acc`` (rows x
    columns): the sum over positions p of the gathered g_(k-1) columns of
    ``y_states`` minus their element p, at the rows' ``parents``, times the
    kernel row of each row's last element r at that element.  ``kernel``
    holds the chunk's row types, and ``r_index`` is None when there is one,
    whose parents are then a slice; else it names each row's kernel row."""
    h, b = acc.shape
    krow = _view(scratch[0], (len(kernel), b))
    for p in range(y_states.shape[1]):
        kernel.take(y_states[:, p], axis=1, out=krow, mode="clip")
        if r_index is None:
            src = gathered[p, parents[0] : parents[0] + h]
            factor = krow
        else:
            src = gathered[p].take(
                parents, axis=0, out=_view(scratch[1], (h, b)), mode="clip"
            )
            factor = krow.take(
                r_index, axis=0, out=_view(scratch[2], (h, b)), mode="clip"
            )
        np.multiply(src, factor, out=term if p else acc)
        if p:
            acc += term


def _view(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading elements of a flat scratch array, as a C-contiguous array
    of ``shape``."""
    return flat[: math.prod(shape)].reshape(shape)


def _binomials(top: int, k: int) -> np.ndarray:
    """C(x, j) for 0 <= x < top and 0 <= j <= k, as an int64 table: column j
    is the running sum of column j - 1."""
    table = np.zeros((top, k + 1), dtype=np.int64)
    table[:, 0] = 1
    for j in range(1, k + 1):
        np.cumsum(table[:-1, j - 1], out=table[1:, j])
    return table


def _colex_rank(multisets: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """The colex rank of each sorted k-multiset a_0 <= ... <= a_(k-1) along
    the last axis of ``multisets``: sum_i C(a_i + i, i + 1), the rank of the
    k-subset {a_i + i} in the combinatorial number system (Knuth, TAOCP 4A,
    7.2.1.3).  The k-multisets whose last element is below r take ranks 0
    to C(r + k - 1, k) - 1."""
    k = multisets.shape[-1]
    return binom[multisets + np.arange(k), np.arange(1, k + 1)].sum(axis=-1)


def _colex_level(prev: np.ndarray, rows: int, binom: np.ndarray) -> np.ndarray:
    """The k-multisets of range(rows), sorted, in colex order, from the (k -
    1)-multisets in colex order: those whose last element is r are the first
    C(r + k - 1, k - 1) rows of ``prev``, each followed by r."""
    k = prev.shape[1] + 1
    last = np.repeat(np.arange(rows), binom[np.arange(rows) + k - 1, k - 1])
    lead = np.arange(last.size) - binom[last + k - 1, k]
    return np.concatenate((prev[lead], last[:, None]), axis=1)


def _row_orders(states: np.ndarray) -> np.ndarray:
    """The number of row orders n! / prod(c!) of each sorted row multiset,
    c running over its multiplicities, as the running product of (i + 1) /
    (its run length at i); it stays an integer at every step."""
    run = np.zeros(len(states), dtype=np.int64)
    orders = np.ones(len(states))
    for i in range(1, states.shape[1]):
        run = np.where(states[:, i] == states[:, i - 1], run + 1, 0)
        orders *= i + 1
        orders /= run + 1
    return orders


def _tv_level_shape(prev: int, size: int, k: int) -> tuple[int, int]:
    """Columns per block and rows per chunk of level k of exact_tv_small, for
    ``prev`` and ``size`` multisets at levels k - 1 and k: a column block's k
    gathered parent tables (prev x width) take half of ``TV_BLOCK_BYTES``,
    and a chunk's five scratch arrays (rows x width) a quarter, with at
    least one row."""
    width = max(1, min(size, TV_BLOCK_BYTES // (16 * k * prev), TV_BLOCK_BYTES // 160))
    return width, max(1, TV_BLOCK_BYTES // (160 * width))


def _tv_panel_rows(rows: int) -> int:
    """Row types per kernel panel: a sixteenth of ``TV_BLOCK_BYTES``, so a
    panel, its successor and the Kronecker build of one stay within a
    quarter."""
    return max(1, TV_BLOCK_BYTES // (128 * rows))


def _tv_chunks(rows: int, k: int, width: int, rows_cap: int, panel_rows: int):
    """The row chunks ``(lo, hi, r_lo, r_hi)`` of level k: rows lo to hi - 1,
    whose last elements run from r_lo to r_hi - 1.  The block of row type r
    has C(r + k - 1, k - 1) rows.  A block of more than ``rows_cap`` rows,
    or of more than ``TV_CALL_WORK`` elements per column block, is its own
    chunk, cut into pieces of at most ``rows_cap`` rows; smaller ones are
    run together, up to ``rows_cap`` rows within one kernel panel, since
    there the interpreter time of a chunk's calls outweighs gathering its
    parents.  At level 1, where each block is one kernel row, all blocks
    are run together."""
    run = None  # (first row, first row type) of the open run of small blocks
    lo = 0
    for r in range(rows):
        count = math.comb(r + k - 1, k - 1)
        small = count <= rows_cap and (k == 1 or count * width <= TV_CALL_WORK)
        if run is not None and (
            not small or lo + count - run[0] > rows_cap or r % panel_rows == 0
        ):
            yield run[0], lo, run[1], r
            run = None
        if not small:
            for piece in range(lo, lo + count, rows_cap):
                yield piece, min(piece + rows_cap, lo + count), r, r + 1
        elif run is None:
            run = (lo, r)
        lo += count
    if run is not None:
        yield run[0], lo, run[1], rows


def _tv_work(m: int, n: int, d: int) -> float:
    """The work of exact_tv_small in array element operations (see
    ``TV_MAX_WORK``), counted over its plan, each array call costing
    ``TV_CALL_WORK`` besides.  Per level k >= 2 and column block: k gathers
    of parent columns; per chunk, k kernel-row gathers, k products and k - 1
    sums, two gathers more per term when the chunk runs several blocks
    together.  Level 1 copies the kernel rows, a level below n is scaled
    once, and level n reduces each chunk in five calls.  A level's set-up
    costs ``4 (k + 3)`` calls, and the kernel rows ``TV_ROW_WORK`` an entry,
    once when they are one panel and per level and column block otherwise.
    It is inf where (m^d)^2 or C(m^d + n - 1, n)^2 (2n - 1), each a lower
    bound on it, alone exceeds ``TV_MAX_WORK``, so no huge integer is ever
    formed."""
    log2_budget = math.log2(TV_MAX_WORK)
    if 2 * d * math.log2(m) > log2_budget:
        return math.inf
    rows = m**d
    log2_states = (
        math.lgamma(rows + n) - math.lgamma(n + 1) - math.lgamma(rows)
    ) / math.log(2.0)
    if 2 * log2_states + math.log2(2 * n - 1) > log2_budget:
        return math.inf
    panel_rows = _tv_panel_rows(rows)
    kernel_builds = 1 if panel_rows >= rows else 0
    work = 0.0
    for k in range(1, n + 1):
        prev, size = math.comb(rows + k - 2, k - 1), math.comb(rows + k - 1, k)
        width, rows_cap = _tv_level_shape(prev, size, k)
        blocks = -(-size // width)
        last = k == n
        calls = k * (k > 1)  # per column block
        elements = k * prev * (k > 1)  # per column
        for lo, hi, r_lo, r_hi in _tv_chunks(rows, k, width, rows_cap, panel_rows):
            if k == 1:
                calls += 5 if last else 1
                elements += (hi - lo) * (4 if last else 1)
                continue
            gathers = 2 * k if r_hi - r_lo > 1 else 0
            calls += 3 * k - 1 + gathers + 5 * last
            elements += (hi - lo) * (2 * k - 1 + gathers + 4 * last) + k * (r_hi - r_lo)
        elements += 0 if last else size  # the scaling by 1 / k
        work += elements * size + TV_CALL_WORK * (calls * blocks + 4 * (k + 3))
        if panel_rows < rows:
            kernel_builds += blocks
    return work + TV_ROW_WORK * rows * rows * kernel_builds


def _tv_table_bytes(rows: int, n: int) -> int:
    """Bytes that exact_tv_small keeps besides its ``TV_BLOCK_BYTES`` of
    scratch, for R = ``rows`` row types and S = C(R + n - 1, n) row
    multisets: the level tables g_(n-2) and g_(n-1), alive together while
    the second is built, and eight int64 or float arrays of S x n besides
    (the states, their parent ranks and the temporaries that build them)."""
    prev2, prev, size = (
        math.comb(rows + k - 1, k) if k >= 0 else 0 for k in (n - 2, n - 1, n)
    )
    return 8 * (prev2 * prev2 + prev * prev + 8 * size * n)


def _row_symbols(m: int, d: int, rows: np.ndarray) -> np.ndarray:
    """The d symbols of each row type in ``rows``, the first feature's most
    significant: shape (len(rows), d)."""
    return rows[:, None] // m ** np.arange(d - 1, -1, -1) % m


def _row_pair_prob(model: DiscreteJointModel, d: int, rows: np.ndarray) -> np.ndarray:
    """Joint probability of each row type in ``rows`` paired with every row
    type: shape (len(rows), m^d).

    Row types are numbered with the first feature's symbol most significant,
    so each row of the result is the Kronecker product of the rows of the
    joint table its symbols pick, built feature by feature.  Its entries are
    the per-feature products taken left to right."""
    x = _row_symbols(model.alphabet_size, d, rows)
    out = model.joint[x[:, 0]]
    for feature in range(1, d):
        factor = model.joint[x[:, feature]]
        nxt = np.empty((len(rows), out.shape[1], model.alphabet_size))
        # one call per symbol, each with a long inner loop
        for symbol in range(model.alphabet_size):
            np.multiply(out, factor[:, symbol, None], out=nxt[:, :, symbol])
        out = nxt.reshape(len(rows), -1)
    return out


# ---------------------------------------------------------------------------
# Consolidated bound report
# ---------------------------------------------------------------------------


def bound_report(
    model: JointModel,
    n: int,
    d: int,
    tau_glrt: float = 0.0,
    tau_count=TAU_COUNT_HALF_KL,
) -> dict:
    """One record collecting the computable theory quantities at (n, d):
    spectral impossibility statistics, the exact second moment and its risk
    floor, the closed-form moment bound, the sum-test risk bound, and the
    exponent conditions of the scan and count tests.  Quantities undefined
    for the model (an independent model's thresholds) carry a note instead
    of failing.  n < 1 raises ``ValidationError``, and a second moment whose
    recurrence needs more than ``spectral.MOMENT_MAX_WORK`` steps, n (n + L)
    for L eigenvalues, raises ``CapacityError`` before it starts."""
    report: dict = {
        "model_kind": model_kind(model),
        "param": model_param(model),
        "n": int(n),
        "d": int(d),
    }
    if isinstance(model, GaussianModel):
        profile = spectral.gaussian_profile(model.rho)
    else:
        profile = spectral.eigenvalues(model)
    report["eigenvalues"] = [float(v) for v in profile.eigenvalues[:64]]
    report["eigenvalue_count"] = int(profile.eigenvalues.size)

    weak = spectral.weak_lb_statistic(profile)
    report["weak_statistic"] = weak
    report["weak_statistic_times_d"] = d * weak
    report["weak_tail_bound"] = profile.tail

    try:
        report["strong_fixed_d_threshold"] = spectral.strong_lb_fixed_d_threshold(
            profile
        )
    except DegenerateModelError as exc:
        report["strong_fixed_d_threshold"] = None
        report["strong_fixed_d_note"] = str(exc)

    moment = spectral.second_moment_exact(profile, n, d)
    report["second_moment"] = moment
    report["risk_lower_bound"] = spectral.risk_lower_bound_from_moment(moment)
    report["poisson_moment_bound"] = spectral.poisson_moment_bound(profile, d)

    div = kl_divergences(model)
    report["kl_pq"] = div.kl_pq
    report["kl_qp"] = div.kl_qp
    report["skl"] = div.skl
    var_q = var_q_centered_kernel(model)
    report["var_q_kernel"] = var_q
    if div.skl > 0.0:
        report["sum_risk_bound"] = 4.0 * var_q / (d * div.skl**2)
        report["sum_threshold"] = d * n * div.skl
        glrt = chernoff_exponent(model, tau_glrt)
        required_e_q = math.log(n / math.e) / d + (1.0 + math.log(n)) / (d * n)
        report["glrt"] = {
            "tau": float(tau_glrt),
            "e_q": glrt.e_q,
            "e_p": glrt.e_p,
            "required_e_q": required_e_q,
            "condition_met": bool(glrt.e_q >= required_e_q),
        }
        tc = resolve_tau_count(model, tau_count)
        count = chernoff_exponent(model, tc)
        report["count"] = {"tau_count": tc, "e_q": count.e_q, "e_p": count.e_p}
    else:
        report["sum_risk_bound"] = None
        report["sum_threshold"] = None
        report["sum_note"] = "independent model: skl = 0"
        report["glrt"] = None
        report["count"] = None

    if isinstance(model, GaussianModel):
        rho = model.rho
        report["e_q_zero"] = chernoff_exponent(model, 0.0).e_q
        report["e_q_zero_witness"] = -0.25 * math.log(1.0 - rho * rho)
    return report
