"""One fresh benchmark process: set up one workload, run its timed rounds,
check every output, and print one JSON object as the last stdout line.

``perfbench/run.py`` starts this script; it can also be run by hand from the
repository root, e.g.::

    python3 perfbench/worker.py --workload exact --seed 0 --seconds 5 --mode run \
        --reference-dir perfbench/reference

A round is one execution of the workload's operations, in order.  Modes:

* ``setup``: import dbdetect, build the workload, warm up, report ``setup_s``;
* ``run``: the same set-up, then untraced rounds until ``--seconds`` pass;
* ``trace``: untraced rounds for half of ``--seconds``, then traced rounds for
  the rest, then the assignment scaling probe.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))  # the package is run from source

import dbdetect
from dbdetect import assignment, detectors, exponents, experiments, models, spectral
from dbdetect import rng as rngmod

import tracer as tr

WORKLOADS = ("mc-sum-count", "mc-scan", "exact")
REFERENCE_SEED = 0  # risk CSVs are pinned byte-for-byte for this seed only
BOUNDS_RTOL = 1e-9
TV_ATOL = 1e-12
SOLVE_RTOL = 1e-9
PROBE_SIZES = (20, 50, 100, 200)
# Accounting must close to this share of the traced lane time.
ACCOUNTING_TOL = 0.01
MAX_PROBLEMS = 20  # problems listed in the result; all are counted

# Trials per risk point.  On a 2-vCPU machine a round of mc-sum-count or
# mc-scan takes 2 to 4 s, so a run holds several rounds; the oracle point of
# exact takes about 3 s.
SUM_COUNT_TRIALS = 300
SCAN_TRIALS = 8
ORACLE_TRIALS = 50


def harness_threads() -> int:
    return min(2, os.cpu_count() or 1)


@dataclass
class Op:
    """One timed call.  ``kind`` is 'risk' (returns estimates and point
    errors), 'bounds' (a bound_report dict) or 'tv' (exact_tv_small)."""

    label: str
    kind: str
    call: Callable[[], object]
    trial_pairs: int = 0
    plan: object = None


def _risk_op(label, plan, points=1):
    threads = harness_threads()

    def call():
        errors: list = []
        if plan.sweep is None:
            return experiments.estimate_risk(plan, threads=threads), errors
        return experiments.sweep(plan, threads=threads, error_sink=errors), errors

    return Op(label, "risk", call, trial_pairs=plan.trials * points, plan=plan)


def build_ops(workload: str, seed: int, tiny: bool) -> list[Op]:
    """The workload's operations.  Names are looked up on the dbdetect
    modules at call time so that traced rounds go through the wrappers."""
    gauss = dbdetect.GaussianModel(rho=0.5)
    bern = dbdetect.make_bernoulli(0.6, 0.3)
    if workload == "mc-sum-count":
        n, ds, trials, pd_samples = (10, (2, 4), 4, 2000) if tiny else (
            100, (10, 100), SUM_COUNT_TRIALS, 100_000)
        plan = experiments.TrialPlan(
            model=dbdetect.GaussianModel(rho=0.25), n=n, d=ds[0], trials=trials,
            seed=seed, detectors=("sum", "count"), tau_count="half-kl",
            pd_samples=pd_samples,
            sweep=experiments.SweepGrid(param_values=(0.25, 0.75), d_values=ds),
        )
        return [_risk_op("sweep", plan, points=4)]
    if workload == "mc-scan":
        n, d_gauss, d_bern, trials = (8, 4, 6, 3) if tiny else (100, 10, 100, SCAN_TRIALS)
        return [
            _risk_op("gaussian-glrt", experiments.TrialPlan(
                model=gauss, n=n, d=d_gauss, trials=trials, seed=seed,
                detectors=("glrt",))),
            _risk_op("bernoulli-glrt-count", experiments.TrialPlan(
                model=bern, n=n, d=d_bern, trials=trials, seed=seed,
                detectors=("glrt", "count"), tau_count="half-kl")),
        ]
    if workload == "exact":
        n_g, n_b, d_b, n_np, trials, n_tv, d_tv = (8, 6, 4, 4, 3, 2, 2) if tiny else (
            60, 40, 10, 8, ORACLE_TRIALS, 3, 4)
        return [
            Op("bounds-gaussian", "bounds",
               lambda: experiments.bound_report(gauss, n_g, 10)),
            Op("bounds-bernoulli", "bounds",
               lambda: experiments.bound_report(bern, n_b, d_b)),
            _risk_op("oracle-glrt", experiments.TrialPlan(
                model=bern, n=n_np, d=10, trials=trials, seed=seed,
                detectors=("np-oracle", "glrt"))),
            Op("tv", "tv", lambda: experiments.exact_tv_small(bern, n_tv, d_tv)),
        ]
    raise SystemExit(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# Output serialisation and checks
# ---------------------------------------------------------------------------


def serialise(op: Op, value) -> str:
    if op.kind == "risk":
        return experiments.estimates_to_csv(value[0])
    if op.kind == "bounds":
        return json.dumps(value, sort_keys=True)
    tv, risk = value
    return json.dumps({"risk": risk, "tv": tv}, sort_keys=True)


def reference_path(ref_dir: str, workload: str, op: Op, tiny: bool) -> str:
    suffix = "csv" if op.kind == "risk" else "json"
    size = "-tiny" if tiny else ""
    return os.path.join(ref_dir, f"{workload}.{op.label}{size}.{suffix}")


def _numbers_agree(a, b, rtol) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not (
        isinstance(a, bool) or isinstance(b, bool)
    ):
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= rtol * max(abs(a), abs(b))
    return a == b


def _diff_numeric(ref, got, rtol, path="") -> list[str]:
    """Fields of two JSON-like values that disagree beyond ``rtol``."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(set(ref) ^ set(got))} differ"]
        out = []
        for key in ref:
            out += _diff_numeric(ref[key], got[key], rtol, f"{path}.{key}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += _diff_numeric(r, g, rtol, f"{path}[{i}]")
        return out
    return [] if _numbers_agree(ref, got, rtol) else [f"{path}: {got!r} != {ref!r}"]


def check_output(op: Op, value, text: str, reference: str | None, seed: int) -> list[str]:
    """Problems with one output: reference-free invariants, then the pinned
    reference where one applies."""
    problems = []
    if op.kind == "risk":
        estimates, errors = value
        problems += [f"point error: {e.message}" for e in errors]
        if not estimates:
            problems.append("no estimates")
        for e in estimates:
            if e.risk != e.fpr + e.fnr:
                problems.append(f"{e.detector}: risk != fpr + fnr")
            if not (0.0 <= e.fpr <= 1.0 and 0.0 <= e.fnr <= 1.0):
                problems.append(f"{e.detector}: error rate outside [0, 1]")
            if e.trials != op.plan.trials:
                problems.append(f"{e.detector}: {e.trials} trials")
        if seed == REFERENCE_SEED:
            if reference is None:
                problems.append("missing reference CSV")
            elif text != reference:
                problems.append("risk CSV differs from the reference bytes")
    elif op.kind == "bounds":
        moment = value["second_moment"]
        if moment is not None and not 1.0 <= moment <= value["poisson_moment_bound"]:
            problems.append(f"second moment {moment!r} outside [1, poisson bound]")
        if reference is None:
            problems.append("missing reference bound report")
        else:
            problems += _diff_numeric(json.loads(reference), json.loads(text), BOUNDS_RTOL)
    else:
        tv, risk = value
        if not 0.0 <= tv <= 1.0:
            problems.append(f"tv {tv!r} outside [0, 1]")
        if risk != 1.0 - tv:
            problems.append("risk != 1 - tv")
        if reference is None:
            problems.append("missing reference tv")
        else:
            ref_tv = json.loads(reference)["tv"]
            if abs(ref_tv - tv) > TV_ATOL:
                problems.append(f"tv {tv!r} differs from reference {ref_tv!r}")
    return problems


def _scipy_optimum(weights: np.ndarray) -> float:
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(weights, maximize=True)
    return float(weights[rows, cols].sum())


def _solve_problem(weights: np.ndarray, value: float) -> list[str]:
    expected = _scipy_optimum(weights)
    if abs(value - expected) > SOLVE_RTOL * max(1.0, abs(expected)):
        return [f"solve_max value {value!r} != scipy optimum {expected!r}"]
    return []


def check_scan(op: Op) -> list[str]:
    """On the trial-0 null and dependent pairs of a glrt point, the
    assignment value must equal scipy's optimum and the glrt statistic must be
    that value over d*n.  The pairs are drawn from the harness's own
    substreams (point 0, trial 0)."""
    plan = op.plan
    if "glrt" not in plan.detectors:
        return []
    problems = []
    samplers = ((rngmod.RISK_NULL, models.sample_null_rng),
                (rngmod.RISK_ALT, models.sample_alt_rng))
    for purpose, sample in samplers:
        pair = sample(plan.model, plan.n, plan.d, rngmod.substream(plan.seed, purpose, 0, 0))
        weights = models.pair_llr_matrix(plan.model, pair.x, pair.y)
        _, value = assignment.solve_max(weights)
        problems += _solve_problem(weights, value)
        statistic = detectors.glrt(plan.model, pair, tau=plan.tau_glrt).statistic
        if abs(statistic - value / (plan.d * plan.n)) > SOLVE_RTOL * max(1.0, abs(statistic)):
            problems.append("glrt statistic != assignment value / (d n)")
    return problems


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


@dataclass
class Execution:
    op: Op
    wall: float
    problems: list


def round_seed(seed: int, index: int) -> int:
    """Plan seed of round ``index``: the workload seed in the first round, so
    that the pinned references apply, then seeds derived from it, so that a
    run averages the input-dependent solver cost over many inputs."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Runner:
    def __init__(self, workload, seed, tiny, ref_dir):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.ops = build_ops(workload, seed, tiny)  # the first round's
        self.references = {}
        for op in self.ops:
            path = reference_path(ref_dir, workload, op, tiny)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    self.references[op.label] = fh.read()
        self.first_sha: dict[str, str] = {}
        self.texts: dict[str, str] = {}
        self.rounds: list[list[Execution]] = []
        self.round_walls: list[float] = []

    def run_round(self, index: int) -> None:
        seed = round_seed(self.seed, index)
        ops = build_ops(self.workload, seed, self.tiny) if index else self.ops
        results = []
        start = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            try:
                value, error = op.call(), None
            except Exception:  # a failing operation is counted, not fatal
                value, error = None, traceback.format_exc()
            results.append((op, time.perf_counter() - t, value, error))
        wall = time.perf_counter() - start
        executions = []
        for op, op_wall, value, error in results:
            if error is not None:
                sys.stderr.write(f"{op.label} raised:\n{error}")
                executions.append(Execution(op, op_wall, ["raised"]))
                continue
            text = serialise(op, value)
            sha = hashlib.sha256(text.encode()).hexdigest()
            problems = check_output(op, value, text, self.references.get(op.label), seed)
            self.texts.setdefault(op.label, text)
            # bounds and tv take no seed, so every round must repeat the first
            if op.kind != "risk" and sha != self.first_sha.setdefault(op.label, sha):
                problems.append("output differs from the first round")
            executions.append(Execution(op, op_wall, problems))
        self.rounds.append(executions)
        self.round_walls.append(wall)

    def run_for(self, seconds: float) -> None:
        """Rounds 0, 1, ... until ``seconds`` have passed; a traced phase
        repeats the inputs of the untraced one."""
        start = time.perf_counter()
        for index in itertools.count():
            self.run_round(index)
            if time.perf_counter() - start >= seconds:
                return

    def cross_check(self) -> None:
        """Reference-free solver check, charged to the op's first execution."""
        for i, op in enumerate(self.ops):
            if op.kind == "risk":
                self.rounds[0][i].problems += check_scan(op)

    def problems(self) -> list[str]:
        return [f"round {r} {e.op.label}: {p}"
                for r, executions in enumerate(self.rounds)
                for e in executions for p in e.problems]

    def counts(self) -> tuple[int, int]:
        executions = [e for executions in self.rounds for e in executions]
        return len(executions), sum(1 for e in executions if e.problems)

    def metrics(self) -> dict:
        """End-to-end figures over the rounds run so far (medians over
        rounds).  Metrics the workload does not produce are left out."""
        trial_rates, bound_means, tv_walls = [], [], []
        for executions in self.rounds:
            risk = [e for e in executions if e.op.kind == "risk"]
            bounds = [e.wall for e in executions if e.op.kind == "bounds"]
            tvs = [e.wall for e in executions if e.op.kind == "tv"]
            if risk:
                trial_rates.append(sum(e.op.trial_pairs for e in risk) / sum(e.wall for e in risk))
            if bounds:
                bound_means.append(sum(bounds) / len(bounds))
            if tvs:
                tv_walls.append(sum(tvs))
        out = {"wall_s": statistics.median(self.round_walls)}
        if trial_rates:
            out["trials_per_s"] = statistics.median(trial_rates)
        if bound_means:
            out["bounds_s"] = statistics.median(bound_means)
        if tv_walls:
            out["tv_oracle_s"] = statistics.median(tv_walls)
        return out

    def output_digests(self) -> dict:
        digests = {label: hashlib.sha256(text.encode()).hexdigest()
                   for label, text in self.texts.items()}
        joined = "".join(digests[op.label] for op in self.ops if op.label in digests)
        digests["workload"] = hashlib.sha256(joined.encode()).hexdigest()
        return digests


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def _partitions(n: int) -> int:
    """p(n), the number of cycle types of S_n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _gemm_flops(args, kwargs, result) -> int:
    model, x, y = args[:3]
    cells = 1 if isinstance(model, dbdetect.GaussianModel) else model.alphabet_size ** 2
    return 2 * x.shape[0] * y.shape[0] * x.shape[1] * cells


def _mc_draws(args, kwargs, result) -> int:
    if result.pd_method != "monte-carlo":
        return 0
    return 2 * result.samples * args[1]


# Entry points and the names their callers look up at call time.
ENTRY_POINTS = (
    ("rng.substream", ((rngmod, "substream"),), None),
    ("rng.fisher_yates", ((rngmod, "fisher_yates"),), None),
    ("models.sample_null_rng", ((experiments, "sample_null_rng"),), None),
    ("models.sample_alt_rng", ((experiments, "sample_alt_rng"),), None),
    ("models.pair_llr_matrix", ((detectors, "pair_llr_matrix"),), _gemm_flops),
    ("assignment.solve_max", ((detectors, "solve_max"),), None),
    ("detectors.glrt", ((experiments, "glrt"),), None),
    ("detectors.sum_test", ((experiments, "sum_test"),), None),
    ("detectors.count_test", ((experiments, "count_test"),), None),
    ("detectors.np_oracle", ((experiments, "np_oracle"),),
     lambda a, k, r: math.factorial(a[1].n)),
    ("detectors.make_count_plan", ((experiments, "make_count_plan"),), _mc_draws),
    ("exponents.kl_divergences",
     ((experiments, "kl_divergences"), (detectors, "kl_divergences"),
      (exponents, "kl_divergences")), None),
    ("exponents.chernoff_exponent", ((experiments, "chernoff_exponent"),),
     lambda a, k, r: r.iterations),
    ("spectral.second_moment_exact", ((spectral, "second_moment_exact"),),
     lambda a, k, r: _partitions(a[1])),
    ("experiments.exact_tv_small", ((experiments, "exact_tv_small"),), None),
    ("experiments.bound_report", ((experiments, "bound_report"),), None),
)

# Exact work counts carried by spans, reported per round.
COMPUTED = {
    "spectral.second_moment_exact.cycle_types_computed": "spectral.second_moment_exact",
    "detectors.np_oracle.perms_computed": "detectors.np_oracle",
    "models.pair_llr_matrix.gemm_flops_computed": "models.pair_llr_matrix",
    "detectors.make_count_plan.mc_draws_computed": "detectors.make_count_plan",
    "exponents.chernoff_exponent.iterations_computed": "exponents.chernoff_exponent",
}


def install(tracer: tr.Tracer) -> None:
    bindings = [(module, attr, name, work)
                for name, sites, work in ENTRY_POINTS for module, attr in sites]
    bindings.append((experiments, "_run_point", tr.HARNESS,
                     lambda a, k, r: a[3].trials))
    tracer.install(bindings)
    tracer.install_pool(experiments)


def layer_metrics(tracer: tr.Tracer, window_s: float, rounds: int, threads: int):
    """Per-round layer figures (the table's columns), and the p50/p99 call
    times of entry points with enough calls."""
    by_name: dict[str, list] = {}
    for _, span in tracer.spans():
        by_name.setdefault(span[tr.NAME], []).append(span)
    out, quantiles = {}, {}
    for name, _, _ in ENTRY_POINTS:
        spans = by_name.get(name, [])
        out[f"{name}.calls"] = len(spans) / rounds
        out[f"{name}.self_s"] = sum(s[tr.SELF] for s in spans) / rounds
        durations = [1e3 * (s[tr.END] - s[tr.START]) for s in spans]
        if durations:
            quantiles[f"{name}.ms_p50"] = tr.percentile(durations, 0.5)
        if len(durations) >= 1000:  # at least ten calls above the 99th percentile
            quantiles[f"{name}.ms_p99"] = tr.percentile(durations, 0.99)
    for metric, name in COMPUTED.items():
        # a call that raised carries no work count
        out[metric] = sum(s[tr.WORK] or 0 for s in by_name.get(name, [])) / rounds
    datasets = len(by_name.get("models.sample_null_rng", [])) + len(
        by_name.get("models.sample_alt_rng", []))
    llr = len(by_name.get("models.pair_llr_matrix", []))
    out["models.pair_llr_matrix.per_pair_computed"] = llr / datasets if datasets else 0.0

    points = by_name.get(tr.HARNESS, [])
    trials = by_name.get(tr.TRIAL, [])
    acct = tr.account(tracer, window_s, threads)
    out["experiments.harness.calls"] = len(points) / rounds
    out["experiments.harness.self_s"] = (
        sum(s[tr.SELF] for s in points) + sum(s[tr.SELF] for s in trials)) / rounds
    out["experiments.harness.idle_s"] = acct["harness_idle_s"] / rounds
    out["experiments.harness.cpu_s"] = sum(s[tr.CPU] for s in points) / rounds
    out["experiments.harness.trial_pairs"] = sum(s[tr.WORK] or 0 for s in points) / rounds
    out["trace.lane_s"] = acct["lane_s"] / rounds
    out["trace.serial_idle_s"] = acct["serial_idle_s"] / rounds
    out["trace.unattributed_s"] = acct["unattributed_s"] / rounds
    return out, quantiles, acct


def probe(seed: int) -> tuple[dict, dict]:
    """Median ``solve_max`` time on seeded Gaussian matrices, each value
    checked against scipy.  Returns the timings and each size's problems."""
    metrics, checks = {}, {}
    for n in PROBE_SIZES:
        weights = np.random.default_rng([seed, n]).standard_normal((n, n))
        times = []
        for _ in range(3 if n < 200 else 1):
            t = time.perf_counter()
            _, value = assignment.solve_max(weights)
            times.append(1e3 * (time.perf_counter() - t))
        metrics[f"assignment.solve_max.probe_n{n}_ms"] = statistics.median(times)
        checks[f"probe n={n}"] = _solve_problem(weights, value)
    return metrics, checks


def write_spans(path: str, tracer: tr.Tracer) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    spans = [[ident, *span] for ident, span in tracer.spans()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["thread", "name", "id", "parent", "start", "end",
                              "self", "work", "cpu"], "spans": spans}, fh)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def manifest(root: str, seed: int) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "assignment_backend": assignment.backend(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "DBDETECT_THREADS")},
        "blas_threads": _blas_threads(),
        "harness_threads": harness_threads(),
        "seed": seed,
        "git_commit": _git_commit(root),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-check")
    parser.add_argument("--reference-dir", required=True)
    parser.add_argument("--write-reference", action="store_true",
                        help="write this run's outputs as the references")
    args = parser.parse_args(argv)

    # set-up: build the workload and warm every operation type up at tiny size
    runner = Runner(args.workload, args.seed, args.tiny, args.reference_dir)
    for op in build_ops(args.workload, args.seed, tiny=True):
        op.call()
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    threads = harness_threads()
    checks: dict[str, list] = {}  # trace-only checks, each counted as one operation
    if args.mode == "run":
        runner.run_for(args.seconds)
    else:
        runner.run_for(args.seconds / 2)
        untraced = list(runner.round_walls)
        tracer = tr.Tracer()
        install(tracer)
        try:
            runner.run_for(args.seconds / 2)
        finally:
            tracer.uninstall()
        traced = runner.round_walls[len(untraced):]
        layers, quantiles, acct = layer_metrics(tracer, sum(traced), len(traced), threads)
        layers["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
        probe_metrics, checks = probe(args.seed)
        layers.update(probe_metrics)
        residual = acct["residual_s"]
        checks["trace accounting"] = (
            [f"residual {residual!r} s"] if abs(residual) > ACCOUNTING_TOL * acct["lane_s"] else [])
        result.update(layers=layers, quantiles=quantiles, accounting=acct)
        write_spans(os.path.join(ROOT, ".perfbench_out",
                                 f"spans-{args.workload}-seed{args.seed}.json"), tracer)
    # before the checks, whose scipy import is not the workload's memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runner.cross_check()
    if args.write_reference:
        os.makedirs(args.reference_dir, exist_ok=True)
        for op in runner.ops:
            if op.label in runner.texts:
                path = reference_path(args.reference_dir, args.workload, op, args.tiny)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(runner.texts[op.label])
    attempted, failed = runner.counts()
    result.update(
        metrics=runner.metrics(),
        peak_rss_mb=peak_rss_mb,
        attempted=attempted + len(checks),
        failed=failed + sum(1 for p in checks.values() if p),
        problems=(runner.problems()
                  + [f"{k}: {p}" for k, ps in checks.items() for p in ps])[:MAX_PROBLEMS],
        rounds=len(runner.round_walls),
        round_walls_s=runner.round_walls,
        op_walls_s={op.label: [r[i].wall for r in runner.rounds] for i, op in enumerate(runner.ops)},
        manifest=manifest(ROOT, args.seed) | {"outputs_sha256": runner.output_digests()},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
