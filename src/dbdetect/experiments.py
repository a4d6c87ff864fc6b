"""Seeded Monte-Carlo risk estimation, parameter sweeps, the exact
total-variation oracle on tiny instances, and the consolidated bound report.

The harness draws the hidden permutation uniformly per dependent trial, so it
estimates the average risk; every detector in this package is invariant to
row reordering, which makes average and worst-case Type-II errors coincide.
Trials are independent work units keyed by (seed, hypothesis, point, trial),
so results are bit-identical across thread counts and across runs.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import rng as rngmod
from . import spectral
from .detectors import count_test, glrt, make_count_plan, np_oracle, sum_test
from .errors import CapacityError, DegenerateModelError, ValidationError
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

# exact_tv_small's time guards: the number of ordered (x, y) database pairs,
# and n for its sum over the n! row matchings
ENUM_STATE_CAP = 1 << 24
ENUM_FACTORIAL_CAP = 8
# scratch budget of one block of x-states in exact_tv_small
TV_BLOCK_BYTES = 1 << 24

DETECTOR_NAMES = ("glrt", "sum", "count", "np-oracle")

# symbolic tau_count accepted by plans: half of KL(P||Q), resolved per model
TAU_COUNT_HALF_KL = "half-kl"


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Grid values for a sweep; any axis left as None reuses the plan's
    single value.  ``param_values`` sweeps rho (gaussian) or tau (bernoulli)."""

    param_values: Optional[tuple[float, ...]] = None
    n_values: Optional[tuple[int, ...]] = None
    d_values: Optional[tuple[int, ...]] = None


@dataclass(frozen=True, eq=False)
class TrialPlan:
    model: JointModel
    n: int
    d: int
    trials: int = 2000
    seed: int = 0
    detectors: tuple[str, ...] = ("sum",)
    tau_glrt: float = 0.0
    tau_sum: Optional[float] = None
    tau_count: object = None  # float or TAU_COUNT_HALF_KL
    pd_method: str = "auto"
    pd_samples: int = 1_000_000
    sweep: Optional[SweepGrid] = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not self.detectors:
            raise ValidationError("at least one detector is required")
        for name in self.detectors:
            if name not in DETECTOR_NAMES:
                raise ValidationError(
                    f"unknown detector {name!r}; choose from {DETECTOR_NAMES}"
                )


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


def _resolve_tau_count(model: JointModel, tau_count) -> float:
    if tau_count == TAU_COUNT_HALF_KL:
        return 0.5 * kl_divergences(model).kl_pq
    if tau_count is None:
        raise ValidationError(
            "the count detector needs tau_count (a number or 'half-kl')"
        )
    return float(tau_count)


def bind_detectors(
    model: JointModel, d: int, plan: TrialPlan
) -> list[tuple[str, Callable]]:
    """Bind each of ``plan.detectors`` to a pair -> Verdict callable, in
    order, resolving thresholds and the count plan once for dimension ``d``.

    This is the one name-to-detector dispatch: the risk harness and the
    ``detect`` subcommand both use it.  The detectors are looked up as this
    module's globals at call time."""
    evaluators: list[tuple[str, Callable]] = []
    for name in plan.detectors:
        if name == "glrt":
            tau = plan.tau_glrt
            evaluators.append((name, lambda pair, t=tau: glrt(model, pair, tau=t)))
        elif name == "sum":
            evaluators.append(
                (name, lambda pair, t=plan.tau_sum: sum_test(model, pair, tau=t))
            )
        elif name == "count":
            tau_count = _resolve_tau_count(model, plan.tau_count)
            count_plan = make_count_plan(
                model,
                d,
                tau_count,
                method=plan.pd_method,
                samples=plan.pd_samples,
                seed=plan.seed,
            )
            evaluators.append(
                (name, lambda pair, cp=count_plan: count_test(model, pair, cp))
            )
        elif name == "np-oracle":
            evaluators.append((name, lambda pair: np_oracle(model, pair)))
    return evaluators


def thread_count(override: Optional[int] = None) -> int:
    if override is not None:
        return max(1, int(override))
    env = os.environ.get("DBDETECT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValidationError(
                f"DBDETECT_THREADS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def _run_point(
    model: JointModel,
    n: int,
    d: int,
    plan: TrialPlan,
    point_index: int,
    threads: int,
) -> list[RiskEstimate]:
    evaluators = bind_detectors(model, d, plan)
    m_trials = plan.trials
    k = len(evaluators)
    decisions_h0 = np.zeros((k, m_trials), dtype=np.uint8)
    decisions_h1 = np.zeros((k, m_trials), dtype=np.uint8)
    thresholds = np.zeros(k)

    def run_trial(trial: int) -> None:
        rng0 = rngmod.substream(plan.seed, rngmod.RISK_NULL, point_index, trial)
        pair0 = sample_null_rng(model, n, d, rng0)
        rng1 = rngmod.substream(plan.seed, rngmod.RISK_ALT, point_index, trial)
        pair1 = sample_alt_rng(model, n, d, rng1)
        for idx, (_, evaluate) in enumerate(evaluators):
            v0 = evaluate(pair0)
            v1 = evaluate(pair1)
            decisions_h0[idx, trial] = v0.decision
            decisions_h1[idx, trial] = v1.decision
            if trial == 0:
                thresholds[idx] = v0.threshold

    workers = min(threads, m_trials)
    if workers <= 1:
        for trial in range(m_trials):
            run_trial(trial)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_trial, range(m_trials)))

    out = []
    for idx, (name, _) in enumerate(evaluators):
        fpr = float(decisions_h0[idx].mean())
        fnr = float(1.0 - decisions_h1[idx].mean())
        stderr = math.sqrt(
            fpr * (1.0 - fpr) / m_trials + fnr * (1.0 - fnr) / m_trials
        )
        out.append(
            RiskEstimate(
                detector=name,
                fpr=fpr,
                fnr=fnr,
                risk=fpr + fnr,
                stderr=stderr,
                trials=m_trials,
                seed=plan.seed,
                threshold=float(thresholds[idx]),
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
    return _run_point(plan.model, plan.n, plan.d, plan, 0, thread_count(threads))


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
    failure propagates.
    """
    grid = plan.sweep
    if grid is None:
        return estimate_risk(plan, threads=threads)
    params = grid.param_values if grid.param_values is not None else (None,)
    d_values = grid.d_values if grid.d_values is not None else (plan.d,)
    n_values = grid.n_values if grid.n_values is not None else (plan.n,)
    workers = thread_count(threads)
    out: list[RiskEstimate] = []
    point_index = 0
    for value in params:
        model = plan.model if value is None else _model_with_param(plan.model, value)
        for d in d_values:
            for n in n_values:
                try:
                    out.extend(_run_point(model, n, d, plan, point_index, workers))
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


def estimates_to_csv(estimates: Sequence[RiskEstimate]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for e in estimates:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    e.model_kind,
                    e.param,
                    e.n,
                    e.d,
                    e.detector,
                    e.threshold,
                    e.fpr,
                    e.fnr,
                    e.risk,
                    e.stderr,
                    e.trials,
                    e.seed,
                )
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Exact total-variation oracle
# ---------------------------------------------------------------------------


def exact_tv_small(model: DiscreteJointModel, n: int, d: int) -> tuple[float, float]:
    """Exact total variation between the null law and the permutation-mixture
    dependent law, and the implied optimal average risk 1 - tv.

    Both laws are invariant under reordering the rows of either database, so
    the sum of |P0 - P1| over database pairs runs over pairs of row multisets,
    each weighted by its number of row orders.  P1 averages the product of
    matched row-pair probabilities over the n! matchings.  The sum is
    accumulated over blocks of x-states sized to ``TV_BLOCK_BYTES``, so peak
    memory does not grow with the square of the state count.  Guarded by
    ``ENUM_STATE_CAP`` ordered database pairs m^(2nd) and by
    n <= ``ENUM_FACTORIAL_CAP``."""
    if not isinstance(model, DiscreteJointModel):
        raise ValidationError("exact_tv_small enumerates discrete models only")
    if n < 1 or d < 1:
        raise ValidationError(f"n and d must be >= 1, got n={n}, d={d}")
    m = model.alphabet_size
    if m ** (2 * n * d) > ENUM_STATE_CAP or n > ENUM_FACTORIAL_CAP:
        raise CapacityError(
            f"exact enumeration needs m^(2nd) <= {ENUM_STATE_CAP} and "
            f"n <= {ENUM_FACTORIAL_CAP}; got m={m}, n={n}, d={d}"
        )
    row_symbols, states, orders = _enumeration_tables(model, n, d)
    row_q = np.prod(model.marginal[row_symbols], axis=1)
    p0 = np.prod(row_q[states], axis=1)
    n_states = states.shape[0]
    perms = list(itertools.permutations(range(n)))
    block = _tv_block_rows(n_states, n)
    total = 0.0
    for lo in range(0, n_states, block):
        x = states[lo : lo + block]
        kernel_rows = [_row_pair_prob(model, row_symbols, x[:, i]) for i in range(n)]
        p1 = np.zeros((x.shape[0], n_states))
        for perm in perms:
            contrib = kernel_rows[0][:, states[:, perm[0]]]
            for i in range(1, n):
                contrib *= kernel_rows[i][:, states[:, perm[i]]]
            p1 += contrib
        p1 /= len(perms)
        diff = np.abs(p0[lo : lo + block, None] * p0[None, :] - p1)
        total += float(orders[lo : lo + block] @ diff @ orders)
    tv = 0.5 * total
    return tv, 1.0 - tv


def _tv_block_rows(n_states: int, n: int) -> int:
    """x-states per block: about n + 5 float arrays of (block, n_states)
    are live at once."""
    return max(1, TV_BLOCK_BYTES // (8 * n_states * (n + 5)))


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
    row: shape (len(rows), m^d)."""
    out = np.ones((len(rows), row_symbols.shape[0]))
    for feature in range(row_symbols.shape[1]):
        symbols = row_symbols[:, feature]
        out *= model.joint[symbols[rows][:, None], symbols[None, :]]
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
    pd_seed: Optional[int] = None,
) -> dict:
    """One record collecting the computable theory quantities at (n, d):
    spectral impossibility statistics, the exact second moment and its risk
    floor, the closed-form moment bound, the sum-test risk bound, and the
    exponent conditions of the scan and count tests.  Quantities undefined
    for the model (an independent model's thresholds) carry a note instead
    of failing; n above ``spectral.MOMENT_MAX_N`` raises ``CapacityError``."""
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
    tail = spectral.gaussian_tail_bound(profile)
    report["weak_tail_bound"] = tail if profile.source == "gaussian-truncated" else 0.0

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
    else:
        report["sum_risk_bound"] = None
        report["sum_threshold"] = None
        report["sum_note"] = "independent model: skl = 0"

    if div.skl > 0.0:
        e_q = chernoff_exponent(model, tau_glrt, side="Q")
        e_p = chernoff_exponent(model, tau_glrt, side="P")
        report["glrt"] = {
            "tau": float(tau_glrt),
            "e_q": e_q.value,
            "e_p": e_p.value,
            "required_e_q": math.log(n / math.e) / d + (1.0 + math.log(n)) / (d * n),
            "condition_met": bool(
                e_q.value
                >= math.log(n / math.e) / d + (1.0 + math.log(n)) / (d * n)
            ),
        }
        tc = _resolve_tau_count(model, tau_count)
        e_qc = chernoff_exponent(model, tc, side="Q")
        e_pc = chernoff_exponent(model, tc, side="P")
        report["count"] = {
            "tau_count": tc,
            "e_q": e_qc.value,
            "e_p": e_pc.value,
        }
    else:
        report["glrt"] = None
        report["count"] = None

    if isinstance(model, GaussianModel):
        rho = model.rho
        e_q0 = chernoff_exponent(model, 0.0, side="Q")
        report["e_q_zero"] = e_q0.value
        report["e_q_zero_witness"] = -0.25 * math.log(1.0 - rho * rho)
    return report
