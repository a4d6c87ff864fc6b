"""Seeded Monte-Carlo risk estimation, parameter sweeps, the exact
total-variation oracle on tiny instances, and the consolidated bound report.

The harness draws the hidden permutation uniformly per dependent trial, so it
estimates the average risk; every detector in this package is invariant to
row reordering, which makes average and worst-case Type-II errors coincide.
Each trial draws its pairs from substreams keyed by (seed, hypothesis,
point, trial), and trials run in contiguous blocks: a block draws its pairs
and computes their LLR matrices in sub-blocks of stacked arrays, and solves
its scan-test assignments and oracle permanents each as one stack, every
one exactly as if alone; so results are bit-identical across block and
sub-block sizes, worker counts and runs.  Large points run their blocks in a
pool of worker processes, small ones in process.
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
from dataclasses import dataclass
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

# exact_tv_small's time guard, in units of one product of its subset DP (2.3-5.2
# ns on a 2-vCPU machine).  The DP makes n 2^(n-1) products for each of the
# C(m^d + n - 1, n)^2 pairs of row multisets, as one array operation per
# block of x-states, and an operation costs about TV_CALL_WORK products of
# interpreter time besides (1.4-2.6 us at n = 14, d = 1).  Each block first
# builds its rows' joint probabilities against all m^d rows, priced at
# TV_ROW_WORK products an entry and feature.  That price was measured on a
# build by one gather per feature (7.4 ns at n = 1, d = 14); the Kronecker
# build takes under 1.8 ns (n = 1, d = 12: 0.37 s in all, 1.1 s before), so
# the guard now over-prices this term and refuses no less than before.
TV_MAX_WORK = 10**9
TV_CALL_WORK = 1_000
TV_ROW_WORK = 3
# scratch budget of one block of x-states in exact_tv_small; every product of
# the subset DP touches all of it, so it is sized like a core's L2 cache
TV_BLOCK_BYTES = 1 << 22

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
        for name in (
            "trials", "pd_samples", "detectors", "tau_glrt", "tau_sum", "tau_count"
        ):
            check_setting(name, getattr(self, name))


def check_setting(name: str, value) -> None:
    """Raise ``ValidationError`` for a run setting out of its range: trials
    or pd_samples below 1, no detector or an unknown one, a NaN threshold.
    :class:`TrialPlan` checks its fields here, and a plan file each key's
    value, so that the error can name the key's line."""
    if name in ("trials", "pd_samples") and value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")
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
# 1 GiB admits count up to n = 11,585 and glrt up to n = 6,688
LLR_MAX_BYTES = 1 << 30


def prepare(
    model: JointModel, n: int, d: int, plan: TrialPlan, plans: CountPlans
) -> list[PreparedDetector]:
    """``plan.detectors`` bound to ``model`` and n x d databases, in plan
    order, from :data:`DETECTORS`; a name given twice shares one detector.
    The ``detect`` subcommand and the risk harness both bind detectors here.
    The count test takes its plan from ``plans`` when its threshold is
    first settled.  Detectors whose LLR arrays would exceed
    ``LLR_MAX_BYTES`` raise ``CapacityError``, by arithmetic alone."""
    prepared = {
        name: DETECTORS[name](model, n, d, plan, plans)
        for name in dict.fromkeys(plan.detectors)
    }
    readers = [
        name for name, det in prepared.items() if not isinstance(det, PreparedSum)
    ]
    matrices = bool(readers) + 2 * any(det.stacked for det in prepared.values())
    if 8 * n * n * matrices > LLR_MAX_BYTES:
        raise CapacityError(
            f"{' and '.join(readers)} at n={n} would hold {8 * n * n * matrices} "
            f"bytes of n x n LLR arrays, above the {LLR_MAX_BYTES}-byte guard"
        )
    return [prepared[name] for name in plan.detectors]


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
# 2.4.6; glrt in one block per worker (see BLOCKS_PER_WORKER).  The pool's
# start, about 0.5 s, is paid once per process:
#   detector  n    d    trials  work    in process  pool
#   sum       30   10   40      4.8e4   0.006       0.009
#   sum       100  10   40      1.6e5   0.010       0.009
#   sum       100  2    640     5.1e5   0.081       0.048
#   sum       100  100  640     2.6e7   0.70        0.35
#   count     100  2    10      2.1e5   0.006       0.008
#   count     100  100  10      6.0e5   0.030       0.031
#   count     100  2    40      8.3e5   0.015       0.014
#   count     100  100  40      2.4e6   0.077       0.049
#   glrt      30   10   160     4.8e5   0.105       0.132
#   glrt      100  2    40      8.3e5   0.36        0.24
#   glrt      30   10   640     1.9e6   0.39        0.33
#   glrt      300  10   10      1.9e6   0.73        0.52
#   glrt      100  10   160     3.8e6   0.67        0.41
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
# 42.3-42.8 to 49.5-51.1 MB, and of mc-sum-count from 71.7 to 77.8-79.6 MB.
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
    itself; their thresholds are settled by the caller."""
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
    naming the point, and the next run gets a new pool."""
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
            f"n={n} d={d}"
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
    the sum of |P0 - P1| over database pairs runs over pairs of row multisets,
    each weighted by its number of row orders.  P1 is the permanent of the
    n x n matrix of matched row-pair probabilities over n!, computed by the
    subset DP over column sets for all (x, y) state pairs of a block at once.
    The sum is accumulated over blocks of x-states sized to
    ``TV_BLOCK_BYTES``, so peak memory does not grow with the square of the
    state count.  A run whose work (see :func:`_tv_work`) exceeds
    ``TV_MAX_WORK`` raises ``CapacityError`` before any table is built."""
    if not isinstance(model, DiscreteJointModel):
        raise ValidationError("exact_tv_small enumerates discrete models only")
    if n < 1 or d < 1:
        raise ValidationError(f"n and d must be >= 1, got n={n}, d={d}")
    m = model.alphabet_size
    work = _tv_work(m, n, d)
    if work > TV_MAX_WORK:
        raise CapacityError(
            f"exact enumeration needs at most {TV_MAX_WORK} units of work "
            f"(subset-DP products); got {work:.3g} for m={m}, n={n}, d={d}"
        )
    row_symbols, states, orders = _enumeration_tables(model, n, d)
    row_q = np.prod(model.marginal[row_symbols], axis=1)
    p0 = np.prod(row_q[states], axis=1)
    n_states = states.shape[0]
    block = min(n_states, _tv_block_rows(n_states, n))
    scratch = np.empty((_tv_slots(n), block, n_states))
    total = 0.0
    for lo in range(0, n_states, block):
        x = states[lo : lo + block]
        kernel_rows = [_row_pair_prob(model, row_symbols, x[:, i]) for i in range(n)]
        bufs = scratch[:, : x.shape[0]]
        p1 = _block_permanents(kernel_rows, states, bufs)
        p1 /= math.factorial(n)
        diff = bufs[n]
        np.multiply.outer(p0[lo : lo + block], p0, out=diff)
        diff -= p1
        np.abs(diff, out=diff)
        total += float(orders[lo : lo + block] @ diff @ orders)
    tv = 0.5 * total
    return tv, 1.0 - tv


def _tv_work(m: int, n: int, d: int) -> float:
    """The work of exact_tv_small in products (see ``TV_MAX_WORK``), for S =
    C(m^d + n - 1, n) row multisets in B blocks: n 2^(n-1) (S^2 +
    TV_CALL_WORK B) for the subset DP and TV_ROW_WORK n d S m^d for the
    kernel rows.  It is inf where n 2^(n-1) or m^(2d), each a lower bound on
    it, alone exceeds ``TV_MAX_WORK``, so no huge integer is ever formed."""
    log2_budget = math.log2(TV_MAX_WORK)
    if n - 1 + math.log2(n) > log2_budget or 2 * d * math.log2(m) > log2_budget:
        return math.inf
    rows = m**d
    states = math.comb(rows + n - 1, n)
    blocks = -(-states // _tv_block_rows(states, n))
    dp = n * 2 ** (n - 1) * (states**2 + TV_CALL_WORK * blocks)
    return dp + TV_ROW_WORK * n * d * states * rows


def _block_permanents(kernel_rows, states: np.ndarray, bufs: np.ndarray) -> np.ndarray:
    """perm(A) for every (x, y) state pair of a block, A[i, j] being the
    probability of x's row i paired with y's row j, written to one of the
    ``_tv_slots(n)`` (block, n_states) arrays of ``bufs``.

    f[S] for a column set S of size k sums f[S - {j}] * A[k-1, j] over j in
    S, so f[all columns] is the permanent: n * 2^(n-1) array products.
    ``bufs`` holds row k-1 of A (n slots), one product, and two levels of f,
    so no array is allocated per product."""
    n = len(kernel_rows)
    row, product = bufs[:n], bufs[n]
    free = list(range(n + 1, len(bufs)))
    level: dict[int, int] = {}  # column set -> slot of f
    for j in range(n):  # f[{j}] = A[0, j]
        level[1 << j] = free.pop()
        bufs[level[1 << j]][...] = kernel_rows[0][:, states[:, j]]
    for k in range(2, n + 1):
        for j in range(n):
            row[j][...] = kernel_rows[k - 1][:, states[:, j]]
        nxt = {}
        for cols in itertools.combinations(range(n), k):
            mask = sum(1 << j for j in cols)
            slot = free.pop()
            acc = bufs[slot]
            for t, j in enumerate(cols):
                out = acc if t == 0 else product
                np.multiply(bufs[level[mask ^ (1 << j)]], row[j], out=out)
                if t:
                    acc += product
            nxt[mask] = slot
        free.extend(level.values())
        level = nxt
    return bufs[level[(1 << n) - 1]]


def _tv_slots(n: int) -> int:
    """(block, n_states) arrays of exact_tv_small's scratch: a row of the
    kernel matrix, one product (later the block's |P0 - P1|), and the two
    widest adjacent levels of the subset DP."""
    widest = max(math.comb(n, k - 1) + math.comb(n, k) for k in range(1, n + 1))
    return n + 1 + widest


def _tv_block_rows(n_states: int, n: int) -> int:
    """x-states per block: the scratch and the n per-block kernel rows (at
    most n_states wide each) stay within ``TV_BLOCK_BYTES``."""
    return max(1, TV_BLOCK_BYTES // (8 * n_states * (_tv_slots(n) + n)))


def _enumeration_tables(model: DiscreteJointModel, n: int, d: int):
    """Tables for database enumeration up to row order: the symbol tuple of
    each possible row, one sorted tuple of row ids per row multiset of an
    n-row database, and the number of row orders of each multiset."""
    m = model.alphabet_size
    row_symbols = np.array(
        list(itertools.product(range(m), repeat=d)), dtype=np.int64
    )  # (m^d, d)
    multisets = list(itertools.combinations_with_replacement(range(m**d), n))
    orders = [
        math.factorial(n)
        // math.prod(math.factorial(ids.count(r)) for r in set(ids))
        for ids in multisets
    ]
    return (
        row_symbols,
        np.array(multisets, dtype=np.int64),
        np.array(orders, dtype=np.float64),
    )


def _row_pair_prob(model: DiscreteJointModel, row_symbols: np.ndarray, rows):
    """Joint probability of each row in ``rows`` paired with every possible
    row: shape (len(rows), m^d).

    Rows are numbered with the first feature's symbol most significant, so
    each row of the result is the Kronecker product of the rows of the joint
    table its symbols pick, built feature by feature.  Its entries are the
    per-feature products taken left to right."""
    x = row_symbols[rows]
    out = model.joint[x[:, 0]]
    for feature in range(1, x.shape[1]):
        factor = model.joint[x[:, feature]]
        out = (out[:, :, None] * factor[:, None, :]).reshape(len(rows), -1)
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
        e_q = chernoff_exponent(model, tau_glrt, side="Q")
        e_p = chernoff_exponent(model, tau_glrt, side="P")
        required_e_q = math.log(n / math.e) / d + (1.0 + math.log(n)) / (d * n)
        report["glrt"] = {
            "tau": float(tau_glrt),
            "e_q": e_q.value,
            "e_p": e_p.value,
            "required_e_q": required_e_q,
            "condition_met": bool(e_q.value >= required_e_q),
        }
        tc = resolve_tau_count(model, tau_count)
        e_qc = chernoff_exponent(model, tc, side="Q")
        e_pc = chernoff_exponent(model, tc, side="P")
        report["count"] = {
            "tau_count": tc,
            "e_q": e_qc.value,
            "e_p": e_pc.value,
        }
    else:
        report["sum_risk_bound"] = None
        report["sum_threshold"] = None
        report["sum_note"] = "independent model: skl = 0"
        report["glrt"] = None
        report["count"] = None

    if isinstance(model, GaussianModel):
        rho = model.rho
        e_q0 = chernoff_exponent(model, 0.0, side="Q")
        report["e_q_zero"] = e_q0.value
        report["e_q_zero_witness"] = -0.25 * math.log(1.0 - rho * rho)
    return report
