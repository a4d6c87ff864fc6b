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
sub-block sizes, thread counts and runs.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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


def prepare(
    model: JointModel, n: int, d: int, plan: TrialPlan, plans: CountPlans
) -> list[PreparedDetector]:
    """``plan.detectors`` bound to ``model`` and n x d databases, in plan
    order, from :data:`DETECTORS`; a name given twice shares one detector.
    The ``detect`` subcommand and the risk harness both bind detectors here.
    The count test takes its plan from ``plans`` when its threshold is
    first settled."""
    prepared = {
        name: DETECTORS[name](model, n, d, plan, plans)
        for name in dict.fromkeys(plan.detectors)
    }
    return [prepared[name] for name in plan.detectors]


def thread_count(override: Optional[int] = None) -> int:
    """The cap on a risk point's worker threads: ``override`` (at least 1),
    else the core count.  A point may use fewer; see :func:`point_workers`."""
    if override is None:
        return os.cpu_count() or 1
    if override < 1:
        raise ValidationError(f"threads must be >= 1, got {override}")
    return int(override)


# Detectors whose trials hold the interpreter lock: the assignment solver's
# sweeps and the permanent's subset DP are many small numpy calls.  Seconds
# per point, 1 worker / 2 workers (median of 5, 2-vCPU machine, numpy
# 2.4.6): glrt (Gaussian, d=10) n=100, 16 trials 0.10/0.25, n=300, 4 trials
# 0.30/1.37; np-oracle+glrt (Bernoulli, n=8, d=10, 50 trials, with the
# oracle's stacked DP) 0.016-0.017/0.026-0.060 over four runs.  Two workers
# also split a point's LLR stack into eight blocks, which the lockstep
# solver and the oracle's DP run slower than one stack.
GIL_BOUND_DETECTORS = ("glrt", "np-oracle")
# A trial's work outside the interpreter lock grows with the n x d databases
# it draws and, for the count test, with the n x n x d LLR matrix product.
# Below both sizes a second worker mostly waits for the lock.  Seconds per
# Gaussian point (rho=0.25, min(600, 2e6 / (n d)) trials), 1 worker with
# default BLAS threads / 2 workers with BLAS pinned, 2-vCPU Xeon, numpy
# 2.4.6, median of 3.  The machine is shared and repeats of a cell varied by
# up to a third, so each cut-off sits between cells that are clear on either
# side: n d = 5000 between 3000 and 9000, n^2 d = 1.5e5 between count at
# (n=100, d=10) and (n=300, d=2).
#   sum     d=2        d=10       d=30       d=100
#   n=100   0.20/0.18  0.26/0.26  0.35/0.36  0.27/0.18
#   n=300   0.28/0.33  0.36/0.48  0.31/0.20  0.29/0.14
#   n=1000  0.46/0.51  0.35/0.25  0.25/0.17  0.19/0.11
#   count   d=2        d=10       d=30       d=100
#   n=100   0.29/0.42  0.36/0.46  0.63/0.49  0.83/0.56
#   n=300   1.21/0.81  1.47/0.94  0.86/0.48  0.88/0.54
#   n=1000  10.9/5.56  4.05/2.07  1.58/0.90  1.19/0.67
POOL_MIN_ND = 5_000
POOL_MIN_COUNT_NND = 150_000
# trial blocks per worker of a pooled point, so that no worker idles long
# at the end
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


def point_workers(plan: TrialPlan, n: int, d: int, threads: int) -> int:
    """Worker threads for one risk point of ``plan`` at (n, d), at most
    ``threads``: one where the trials are GIL-bound, else one per trial up to
    the cap."""
    if any(name in GIL_BOUND_DETECTORS for name in plan.detectors):
        return 1
    pooled = n * d >= POOL_MIN_ND or (
        "count" in plan.detectors and n * n * d >= POOL_MIN_COUNT_NND
    )
    return min(threads, plan.trials) if pooled else 1


# get/set symbol pairs of the OpenBLAS thread count, in the order tried:
# numpy's bundled scipy-openblas (ILP64), then a plain OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_functions():
    """``(get, set)`` of the OpenBLAS thread count numpy's products use, or
    None when numpy's BLAS exports no such pair.  The symbols are looked up
    through numpy's own extension module, so the dynamic linker resolves
    them in the BLAS that module is linked against, not in another OpenBLAS
    (scipy's, say) that the process has also loaded."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_SYMBOLS:
        get_threads = getattr(lib, get_name, None)
        set_threads = getattr(lib, set_name, None)
        if get_threads is not None and set_threads is not None:
            get_threads.restype, get_threads.argtypes = ctypes.c_int, []
            set_threads.restype, set_threads.argtypes = None, [ctypes.c_int]
            return get_threads, set_threads
    return None


class _BlasPin:
    """Depth count of the pooled points running, and the OpenBLAS thread
    count saved by the first of them.  The count is process-global, so
    concurrent points share one pin and the last one out restores it."""

    lock = threading.Lock()
    depth = 0
    saved = 0


@contextlib.contextmanager
def _one_blas_thread(active: bool):
    """While ``active``, numpy's OpenBLAS runs each product on the calling
    thread, so a pool of workers does not multiply with BLAS threads.  Does
    nothing where the thread count cannot be set."""
    functions = _openblas_thread_functions() if active else None
    if functions is None:
        yield
        return
    get_threads, set_threads = functions
    with _BlasPin.lock:
        if _BlasPin.depth == 0:
            _BlasPin.saved = get_threads()
            set_threads(1)
        _BlasPin.depth += 1
    try:
        yield
    finally:
        with _BlasPin.lock:
            _BlasPin.depth -= 1
            if _BlasPin.depth == 0:
                set_threads(_BlasPin.saved)


def _trial_blocks(trials: int, workers: int, cap: int) -> list[range]:
    """Contiguous blocks of trial indices: one block on one worker, else
    ``BLOCKS_PER_WORKER`` per worker, none longer than ``cap`` trials."""
    count = 1 if workers == 1 else workers * BLOCKS_PER_WORKER
    size = max(1, min(-(-trials // count), cap))
    return [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]


def _point_records(
    model: JointModel,
    n: int,
    d: int,
    plan: TrialPlan,
    point_index: int,
    threads: int,
    plans: CountPlans,
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
    of past sub-blocks.  A threshold that needs work of its own (the count
    test's pd plan, a Monte-Carlo estimate for Gaussian models) is settled
    by the first work units of the same pool as the blocks, so it runs while
    they do, and the decisions ``statistic >= cut`` are taken once all units
    are in.  A plan that fails, or whose pd makes the threshold vacuous,
    raises before any trial's error.  The pool has :func:`point_workers`
    threads, and while it has more than one, OpenBLAS is held to one thread.
    Neither the blocks, the sub-blocks nor the workers change a statistic:
    every trial's pairs and records are those it has alone."""
    detectors = prepare(model, n, d, plan, plans)
    unique = list(dict.fromkeys(detectors))
    pending = [det for det in unique if det.cut is None]
    stacked = [det for det in unique if det.stacked]
    samplers = (sample_null_rng, sample_alt_rng)
    purposes = (rngmod.RISK_NULL, rngmod.RISK_ALT)
    dtype = np.float64 if isinstance(model, GaussianModel) else np.int64
    step = max(1, SUB_BLOCK_BYTES // (8 * n * max(n, d)))  # pairs per sub-block

    def run_unit(unit):
        if isinstance(unit, PreparedDetector):
            return unit.settle()
        keys = [
            rngmod.stream_keys(plan.seed, (purpose, point_index), unit)
            for purpose in purposes
        ]
        rng = np.random.Generator(np.random.Philox(key=keys[0][0]))
        pairs = 2 * len(unit)
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
            stats[det] = det.evaluate_stack(llr.reshape(len(unit), 2, n, n)).ravel()
        # [trial, hypothesis, detector]
        return np.stack([stats[det] for det in detectors], axis=-1).reshape(
            len(unit), 2, -1
        )

    workers = point_workers(plan, n, d, threads)
    cap = LLR_STACK_BYTES // (16 * n * n) if stacked else plan.trials
    units = pending + _trial_blocks(plan.trials, workers, cap)
    with _one_blas_thread(workers > 1), ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run_unit, units))
    records = np.concatenate(results[len(pending) :])
    cuts = np.array([det.cut for det in detectors])
    return detectors, np.moveaxis(records, 0, -1) >= cuts[:, None]


def _run_point(
    model: JointModel,
    n: int,
    d: int,
    plan: TrialPlan,
    point_index: int,
    threads: int,
    plans: CountPlans,
) -> list[RiskEstimate]:
    """One risk point: a risk estimate per detector from the decisions of
    :func:`_point_records`."""
    detectors, decisions = _point_records(
        model, n, d, plan, point_index, threads, plans
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


def estimate_risk(plan: TrialPlan, threads: Optional[int] = None) -> list[RiskEstimate]:
    """Monte-Carlo risk of each detector: ``trials`` independent null trials
    and ``trials`` independent dependent trials (hidden permutation uniform
    per trial), deterministic in the plan seed."""
    return _run_point(
        plan.model, plan.n, plan.d, plan, 0, thread_count(threads),
        count_plans(plan, (plan.model,)),
    )


def _model_with_param(model: JointModel, value: float) -> JointModel:
    if isinstance(model, GaussianModel):
        return GaussianModel(rho=value)
    if isinstance(model, BernoulliModel):
        return make_bernoulli(value, model.p)
    raise ValidationError(
        "parameter sweeps apply to gaussian (rho) and bernoulli (tau) models"
    )


@dataclass(frozen=True, eq=False)
class PointError:
    """Record of one sweep grid point that failed instead of producing
    estimates (capacity guard, vacuous threshold, ...)."""

    param: Optional[float]
    n: int
    d: int
    message: str


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
    :class:`CountPlans`).
    """
    grid = plan.sweep
    if grid is None:
        return estimate_risk(plan, threads=threads)
    params = grid.param_values if grid.param_values is not None else (None,)
    d_values = grid.d_values if grid.d_values is not None else (plan.d,)
    n_values = grid.n_values if grid.n_values is not None else (plan.n,)
    workers = thread_count(threads)
    models = [
        plan.model if value is None else _model_with_param(plan.model, value)
        for value in params
    ]
    plans = count_plans(plan, models)
    out: list[RiskEstimate] = []
    point_index = 0
    for value, model in zip(params, models):
        for d in d_values:
            for n in n_values:
                try:
                    out.extend(
                        _run_point(model, n, d, plan, point_index, workers, plans)
                    )
                except (ValidationError, CapacityError) as exc:
                    if error_sink is None:
                        raise
                    error_sink.append(
                        PointError(param=value, n=n, d=d, message=str(exc))
                    )
                point_index += 1
    return out


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
