"""Command-line front door.

Subcommands: validate, sample, detect, risk, sweep, bounds, chernoff,
tv-oracle.  Exit codes: 0 success, 1 a usage error, a file that cannot be
read or written, or any package error other than a capacity guard (bad
input, or a broken internal invariant), 2 capacity error; see
``dbdetect.errors``.
All stochastic subcommands are deterministic in --seed, and their outputs do
not depend on the worker count (--threads caps the worker processes of
risk and sweep; the default is the core count).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import config as cfg
from . import experiments
from .detectors import PairCache
from .errors import (
    CapacityError,
    DetectionError,
    InvariantViolationError,
    ValidationError,
)
from .exponents import chernoff_exponent, kl_divergences
from .models import DatabasePair, observations, sample_alt, sample_null

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CAPACITY = 2


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_dumps(payload) -> str:
    text = json.dumps(
        payload, indent=2, sort_keys=True, allow_nan=True, default=np.ndarray.tolist
    )
    return text + "\n"


def cmd_validate(args) -> int:
    model = cfg.load_model(args.model)
    kind = experiments.model_kind(model)
    print(f"ok: {kind} model in {args.model} satisfies all invariants")
    return EXIT_OK


def cmd_sample(args) -> int:
    model = cfg.load_model(args.model)
    experiments.check_setting("seed", args.seed)
    if args.hypothesis == "null":
        pair = sample_null(model, args.n, args.d, args.seed)
    else:
        pair = sample_alt(model, args.n, args.d, args.seed)
    cfg.write_matrix_csv(f"{args.out}_X.csv", pair.x)
    cfg.write_matrix_csv(f"{args.out}_Y.csv", pair.y)
    if pair.hidden_sigma is not None:
        with open(f"{args.out}_sigma.csv", "w", encoding="utf-8") as handle:
            handle.write(",".join(str(int(v)) for v in pair.hidden_sigma) + "\n")
    print(f"wrote {args.out}_X.csv and {args.out}_Y.csv (n={args.n}, d={args.d})")
    return EXIT_OK


# each run-setting flag's argparse dest, and the TrialPlan field it gives
_PLAN_FIELDS = {
    "n": "n", "d": "d", "seed": "seed", "trials": "trials",
    "detector": "detectors", "tau": "tau_glrt", "tau_sum": "tau_sum",
    "tau_count": "tau_count", "pd_samples": "pd_samples",
}


def _settings(args) -> dict:
    """The TrialPlan fields that flags of this subcommand gave."""
    given = ((field, getattr(args, dest, None)) for dest, field in _PLAN_FIELDS.items())
    return {field: value for field, value in given if value is not None}


def cmd_detect(args) -> int:
    model = cfg.load_model(args.model)
    x = observations(model, cfg.read_matrix_csv(args.x))
    y = observations(model, cfg.read_matrix_csv(args.y))
    pair = DatabasePair(x=x, y=y)
    settings = cfg.flag_settings(model, _settings(args))
    # None without --seed: only a monte-carlo pd needs one, and says so
    settings.setdefault("seed", None)
    plan = experiments.TrialPlan(model=model, n=pair.n, d=pair.d, **settings)
    plans = experiments.count_plans(plan, (model,))
    cache = PairCache(model, pair.x, pair.y)
    verdicts = [
        detector.verdict(pair, cache)
        for detector in experiments.prepare(model, pair.n, pair.d, plan, plans)
    ]
    if args.format == "csv":
        columns = ("detector", "decision", "statistic", "threshold")
        rows = ([getattr(v, c) for c in columns] for v in verdicts)
        _write_output(experiments.csv_text(columns, rows), args.out)
    else:
        _write_output(_json_dumps([dataclasses.asdict(v) for v in verdicts]), args.out)
    return EXIT_OK


def _emit_table(columns, rows, fmt: str, out) -> None:
    """``rows`` of values, one per ``columns``, as CSV or as JSON records."""
    if fmt == "json":
        _write_output(_json_dumps([dict(zip(columns, row)) for row in rows]), out)
    else:
        _write_output(experiments.csv_text(columns, rows), out)


def cmd_risk(args) -> int:
    plan = cfg.load_plan(args.plan, _settings(args))
    estimates = experiments.estimate_risk(plan, threads=args.threads)
    rows = [experiments.estimate_to_dict(e).values() for e in estimates]
    _emit_table(experiments.CSV_COLUMNS, rows, args.format, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    plan = cfg.load_plan(args.plan, _settings(args))
    if plan.sweep is None:
        raise ValidationError("the plan has no [sweep] section")
    errors: list = []
    estimates = experiments.sweep(plan, threads=args.threads, error_sink=errors)
    rows = [experiments.estimate_to_dict(e).values() for e in estimates]
    _emit_table(experiments.CSV_COLUMNS, rows, args.format, args.out)
    for record in errors:
        print(
            f"warning: sweep point param={record.param} n={record.n} "
            f"d={record.d} failed: {record.message}",
            file=sys.stderr,
        )
    if errors:
        print(f"warning: {len(errors)} sweep point(s) failed", file=sys.stderr)
    return EXIT_OK


def cmd_bounds(args) -> int:
    model = cfg.load_model(args.model)
    settings = cfg.flag_settings(model, _settings(args))
    report = experiments.bound_report(model, **settings)
    _write_output(_json_dumps(report), args.out)
    return EXIT_OK


def cmd_chernoff(args) -> int:
    model = cfg.load_model(args.model)
    div = kl_divergences(model)
    if args.thetas:
        try:
            thetas = [float(tok) for tok in args.thetas.split(",")]
        except ValueError:
            raise ValidationError(
                f"--thetas: expected comma-separated numbers, got {args.thetas!r}"
            )
    else:
        if args.theta_points < 1:
            raise ValidationError(
                f"--theta-points must be >= 1, got {args.theta_points}"
            )
        width = div.kl_pq + div.kl_qp
        pad = 1e-6 * width
        thetas = list(
            np.linspace(-div.kl_qp + pad, div.kl_pq - pad, args.theta_points)
        )
    columns = ("theta", "e_q", "e_p", "argmax_lambda")
    results = (chernoff_exponent(model, theta) for theta in thetas)
    rows = [(theta, r.e_q, r.e_p, r.argmax_lambda) for theta, r in zip(thetas, results)]
    _emit_table(columns, rows, args.format, args.out)
    return EXIT_OK


def cmd_tv_oracle(args) -> int:
    model = cfg.load_model(args.model)
    tv, bayes_risk = experiments.exact_tv_small(model, args.n, args.d)
    _write_output(
        _json_dumps({"n": args.n, "d": args.d, "tv": tv, "bayes_risk": bayes_risk}),
        args.out,
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1, since 2 is the capacity
    error's code; ``--help`` still exits 0.  Subcommand parsers are of the
    same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dbdetect",
        description="Dependence testing between row-shuffled databases: "
        "detectors, spectral bounds, and Monte-Carlo risk estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the run-setting flags carry no defaults: a setting no flag gives comes
    # from the plan file, else from TrialPlan (bound_report, for bounds)
    def add_detector_options(p, required: bool):
        p.add_argument(
            "--detector",
            action="append",
            required=required,
            choices=list(experiments.DETECTORS),
            help="detector to run (repeatable; overrides a plan's list)",
        )
        p.add_argument("--tau", type=float, help="scan-test threshold")
        p.add_argument("--tau-sum", type=float, help="sum-test threshold override")
        p.add_argument(
            "--tau-count", help="count-test per-pair level (number or 'half-kl')"
        )
        p.add_argument("--pd-samples", type=int)

    def add_plan_options(p):
        p.add_argument("--plan", required=True, help="plan file")
        p.add_argument("--n", type=int, help="override the plan's n")
        p.add_argument("--d", type=int, help="override the plan's d")
        p.add_argument("--seed", type=int, help="override the plan's seed")
        p.add_argument("--trials", type=int, help="override the plan's trials")
        add_detector_options(p, required=False)
        p.add_argument(
            "--threads",
            type=int,
            metavar="N",
            help="at most N worker processes (default: all cores)",
        )
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("validate", help="check a model file against all invariants")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sample", help="sample a database pair to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--hypothesis",
        choices=["null", "alt"],
        default="null",
        help="independent (null) or row-permuted dependent (alt)",
    )
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("detect", help="run detectors on CSV matrices")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True, help="CSV matrix of X observations")
    p.add_argument("--y", required=True, help="CSV matrix of Y observations")
    add_detector_options(p, required=True)
    p.add_argument("--seed", type=int, help="seed for monte-carlo pd estimation")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("risk", help="Monte-Carlo risk estimation from a plan")
    add_plan_options(p)
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("sweep", help="risk estimation over the plan's sweep grid")
    add_plan_options(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="JSON report of the computable bounds")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tau", type=float)
    p.add_argument("--tau-count")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("chernoff", help="CSV of E_Q, E_P over a theta grid")
    p.add_argument("--model", required=True)
    p.add_argument("--thetas", help="comma-separated theta values")
    p.add_argument(
        "--theta-points",
        type=int,
        default=21,
        help="grid size inside the divergence interval when --thetas is absent",
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_chernoff)

    p = sub.add_parser("tv-oracle", help="exact total variation on a tiny instance")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_tv_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InvariantViolationError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (DetectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
