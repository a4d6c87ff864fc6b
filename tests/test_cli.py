"""Command-line interface: formats, round trips, exit codes, determinism."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from dbdetect.cli import _json_dumps, build_parser, main
from dbdetect.config import (
    load_model,
    load_plan,
    read_matrix_csv,
    write_matrix_csv,
)
from dbdetect import experiments, spectral
from dbdetect.detectors import NP_ORACLE_MAX_N, glrt, sum_test
from dbdetect.errors import DetectionError, InvariantViolationError, ValidationError
from dbdetect.exponents import kl_divergences
from dbdetect.models import GaussianModel, observations, sample_alt

from helpers import BAD_OBSERVATIONS, random_discrete_model, with_bad_entry

GAUSS_MODEL = "kind = gaussian\nrho = 0.6\n"
DIAG_MODEL = "kind = discrete\nalphabet_size = 2\njoint = 0.4 0.1 0.1 0.4\n"
BERN_MODEL = "kind = bernoulli\ntau = 0.5\np = 0.5\n"


@pytest.fixture
def model_file(tmp_path):
    def write(text, name="model.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestModelFiles:
    def test_loads_all_kinds(self, model_file):
        assert isinstance(load_model(model_file(GAUSS_MODEL)), GaussianModel)
        assert load_model(model_file(DIAG_MODEL)).alphabet_size == 2
        bern = load_model(model_file(BERN_MODEL))
        assert bern.tau == 0.5 and bern.p == 0.5

    def test_model_section_allowed(self, model_file):
        path = model_file("[model]\n" + GAUSS_MODEL)
        assert load_model(path).rho == 0.6

    def test_line_precise_invariant_error(self, model_file):
        bad = "kind = discrete\nalphabet_size = 2\njoint = 0.5 0.2 0.2 0.2\n"
        path = model_file(bad)
        with pytest.raises(ValidationError) as err:
            load_model(path)
        assert f"{path}:3" in str(err.value)
        assert "sum to 1" in str(err.value)

    def test_line_precise_rho_error(self, model_file):
        path = model_file("kind = gaussian\nrho = 1.5\n")
        with pytest.raises(ValidationError) as err:
            load_model(path)
        assert f"{path}:2" in str(err.value)

    def test_comments_and_blank_lines(self, model_file):
        path = model_file("# comment\n\nkind = gaussian\nrho = 0.3  # inline\n")
        assert load_model(path).rho == 0.3

    @pytest.mark.parametrize(
        "text,line,key",
        [
            ("kind = gaussian\nrho = 0.3\np = 0.5\n", 3, "p"),
            ("kind = bernoulli\ntau = 0.5\nrho = 0.5\np = 0.5\n", 3, "rho"),
            ("kind = gaussian\n[model]\nkind = gaussian\nrho = 0.3\n", 1, "kind"),
        ],
    )
    def test_unknown_key_rejected(self, model_file, text, line, key):
        path = model_file(text)
        with pytest.raises(ValidationError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}:{line}: unknown key {key!r}")


class TestMatrixCSV:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((5, 3))
        path = str(tmp_path / "m.csv")
        write_matrix_csv(path, matrix)
        np.testing.assert_array_equal(read_matrix_csv(path), matrix)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValidationError, match="n,d"):
            read_matrix_csv(str(path))

    def test_discrete_cast(self, model_file, tmp_path):
        model = load_model(model_file(DIAG_MODEL))
        path = str(tmp_path / "x.csv")
        write_matrix_csv(path, np.array([[0, 1], [1, 0]]))
        cast = observations(model, read_matrix_csv(path))
        assert cast.dtype == np.int64


def run_cli(*args):
    return main([str(a) for a in args])


class TestCLI:
    def test_validate_ok(self, model_file, capsys):
        assert run_cli("validate", "--model", model_file(GAUSS_MODEL)) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_invariant_failure_exits_1(self, model_file, capsys):
        bad = "kind = discrete\nalphabet_size = 2\njoint = 0.5 0.2 0.2 0.2\n"
        assert run_cli("validate", "--model", model_file(bad)) == 1
        assert "sum to 1" in capsys.readouterr().err

    def test_sample_deterministic(self, model_file, tmp_path):
        model = model_file(GAUSS_MODEL)
        for prefix in ("a", "b"):
            assert (
                run_cli(
                    "sample",
                    "--model",
                    model,
                    "--n",
                    4,
                    "--d",
                    3,
                    "--seed",
                    7,
                    "--hypothesis",
                    "alt",
                    "--out",
                    tmp_path / prefix,
                )
                == 0
            )
        for suffix in ("_X.csv", "_Y.csv", "_sigma.csv"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (
                tmp_path / f"b{suffix}"
            ).read_bytes()

    def test_detect_round_trip_matches_in_process(self, model_file, tmp_path):
        model_path = model_file(GAUSS_MODEL)
        model = load_model(model_path)
        pair = sample_alt(model, 6, 4, seed=13)
        write_matrix_csv(str(tmp_path / "X.csv"), pair.x)
        write_matrix_csv(str(tmp_path / "Y.csv"), pair.y)
        out = tmp_path / "verdicts.json"
        assert (
            run_cli(
                "detect",
                "--model",
                model_path,
                "--x",
                tmp_path / "X.csv",
                "--y",
                tmp_path / "Y.csv",
                "--detector",
                "glrt",
                "--detector",
                "sum",
                "--tau",
                0.0,
                "--out",
                out,
            )
            == 0
        )
        verdicts = json.loads(out.read_text())
        expected_glrt = glrt(model, pair, tau=0.0)
        expected_sum = sum_test(model, pair)
        assert verdicts[0]["statistic"] == expected_glrt.statistic
        assert verdicts[0]["decision"] == expected_glrt.decision
        assert verdicts[1]["statistic"] == expected_sum.statistic
        assert verdicts[1]["threshold"] == expected_sum.threshold

    def test_bounds_fixed_d_threshold(self, model_file, tmp_path):
        path = model_file("kind = gaussian\nrho = 0.1\n")
        out = tmp_path / "bounds.json"
        assert (
            run_cli("bounds", "--model", path, "--n", 10, "--d", 5, "--out", out) == 0
        )
        report = json.loads(out.read_text())
        assert report["strong_fixed_d_threshold"] == pytest.approx(458.21, rel=1e-3)
        assert report["second_moment"] >= 1.0

    def test_chernoff_schema(self, model_file, tmp_path):
        out = tmp_path / "exp.csv"
        assert (
            run_cli(
                "chernoff",
                "--model",
                model_file(DIAG_MODEL),
                "--thetas",
                "0.0,0.05",
                "--out",
                out,
            )
            == 0
        )
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,e_q,e_p,argmax_lambda"
        assert len(lines) == 3
        theta, e_q, e_p, lam = (float(v) for v in lines[1].split(","))
        assert e_p == pytest.approx(e_q - theta, abs=1e-6)

    def test_tv_oracle(self, model_file, tmp_path):
        out = tmp_path / "tv.json"
        assert (
            run_cli(
                "tv-oracle",
                "--model",
                model_file(DIAG_MODEL),
                "--n",
                1,
                "--d",
                1,
                "--out",
                out,
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["tv"] == pytest.approx(0.3, abs=1e-12)
        assert payload["bayes_risk"] == pytest.approx(0.7, abs=1e-12)

    def test_tv_oracle_capacity_exit_2(self, model_file, capsys):
        assert (
            run_cli(
                "tv-oracle", "--model", model_file(DIAG_MODEL), "--n", 20, "--d", 2
            )
            == 2
        )
        assert "capacity" in capsys.readouterr().err

    def test_help_lists_flags(self, capsys):
        for command, flags in [
            ("risk", ["--plan", "--seed", "--trials", "--detector", "--threads"]),
            ("sweep", ["--plan", "--detector", "--tau-count", "--pd-samples"]),
            ("detect", ["--model", "--x", "--y", "--tau-count", "--pd-samples"]),
            ("bounds", ["--model", "--n", "--d", "--tau"]),
            ("tv-oracle", ["--model", "--n", "--d", "--out"]),
        ]:
            with pytest.raises(SystemExit) as exit_info:
                run_cli(command, "--help")
            assert exit_info.value.code == 0
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text
            assert "--pd-method" not in text  # the pd method follows the model
            # bounds and tv-oracle write JSON only, so they take no --format
            assert ("--format" in text) == (command not in ("bounds", "tv-oracle"))

    def test_detector_choices_are_the_detector_table(self):
        subcommands = next(
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for command in ("detect", "risk", "sweep"):
            (choices,) = [
                action.choices
                for action in subcommands[command]._actions
                if action.dest == "detector"
            ]
            assert list(choices) == list(experiments.DETECTORS)

    def test_detect_count_level(self, model_file, tmp_path, capsys):
        """``--tau-count`` takes ``half-kl``, and count without it exits 1."""
        model_path = model_file(GAUSS_MODEL)
        model = load_model(model_path)
        pair = sample_alt(model, 6, 4, seed=13)
        write_matrix_csv(str(tmp_path / "X.csv"), pair.x)
        write_matrix_csv(str(tmp_path / "Y.csv"), pair.y)
        args = ["detect", "--model", model_path, "--x", tmp_path / "X.csv",
                "--y", tmp_path / "Y.csv", "--detector", "count", "--seed", 1]
        out = tmp_path / "verdicts.json"
        assert run_cli(
            *args, "--tau-count", "half-kl", "--pd-samples", 1000, "--out", out
        ) == 0
        (verdict,) = json.loads(out.read_text())
        assert verdict["aux"]["tau_count"] == 0.5 * kl_divergences(model).kl_pq
        assert run_cli(*args) == 1
        assert "needs tau_count" in capsys.readouterr().err


PLAN_TEXT = """
[model]
kind = gaussian
rho = 0.7

[run]
n = 6
d = 5
trials = 40
seed = 11
detectors = sum count
tau_count = half-kl
pd_samples = 4000

[sweep]
rho = 0.4 0.7
d = 2 5
"""

POOLED_PLAN_TEXT = """
[model]
kind = gaussian
rho = 0.3

[run]
n = 100
d = 100
trials = 20
seed = 11
detectors = sum count
tau_count = half-kl
pd_samples = 2000
"""


class TestPlans:
    def test_load_plan(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text(PLAN_TEXT)
        plan = load_plan(str(path))
        assert plan.n == 6 and plan.d == 5 and plan.trials == 40
        assert plan.detectors == ("sum", "count")
        assert plan.tau_count == "half-kl"
        assert plan.sweep.param_values == (0.4, 0.7)
        assert plan.sweep.d_values == (2, 5)

    def test_risk_csv_bytes_stable_across_threads(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text(PLAN_TEXT)
        outputs = []
        for threads, name in [(1, "r1.csv"), (8, "r8.csv")]:
            out = tmp_path / name
            assert (
                run_cli(
                    "risk",
                    "--plan",
                    path,
                    "--threads",
                    threads,
                    "--out",
                    out,
                )
                == 0
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_workers_capped_by_cores_and_trials(self, tmp_path, monkeypatch):
        """--threads 64 makes a pool of one worker process per core, and a
        point of 3 trials runs as 3 blocks on it (every point pooled here);
        --threads 1 runs the point in process.  The bytes are the same, and
        once the pool shuts down no thread of it is left."""
        monkeypatch.setattr(experiments, "POOL_MIN_WORK", 0)
        experiments.shutdown_pool()
        pooled = tmp_path / "pooled.txt"
        pooled.write_text(POOLED_PLAN_TEXT)
        threads_before = threading.active_count()

        def risk(threads):
            out = tmp_path / f"r{threads}.csv"
            assert (
                run_cli(
                    "risk", "--plan", pooled, "--trials", 3, "--threads", threads,
                    "--out", out,
                )
                == 0
            )
            return out.read_bytes()

        outputs = [risk(1)]
        assert experiments._POOL is None
        outputs.append(risk(64))
        assert outputs[0] == outputs[1]
        cores = os.cpu_count() or 1
        if cores > 1:
            assert experiments._POOL_KEY[0] == min(64, cores)
        plan = load_plan(str(pooled), {"trials": 3})
        detectors = experiments.prepare(
            plan.model, 100, 100, plan, experiments.count_plans(plan, (plan.model,))
        )
        assert experiments._trial_blocks(detectors, 100, 3, min(64, cores)) == (
            [range(0, 1), range(1, 2), range(2, 3)] if cores > 1 else [range(0, 3)]
        )
        experiments.shutdown_pool()
        assert threading.active_count() == threads_before

    def test_sweep_runs_and_is_deterministic(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text(PLAN_TEXT)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("sweep", "--plan", path, "--trials", 10, "--out", a) == 0
        assert run_cli("sweep", "--plan", path, "--trials", 10, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        # 2 rho values x 2 d values x 2 detectors + header
        assert len(lines) == 9

    def test_risk_json_format(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text(PLAN_TEXT)
        out = tmp_path / "risk.json"
        assert (
            run_cli(
                "risk", "--plan", path, "--trials", 10, "--format", "json",
                "--out", out,
            )
            == 0
        )
        rows = json.loads(out.read_text())
        assert {r["detector"] for r in rows} == {"sum", "count"}
        assert all("risk" in r and "stderr" in r for r in rows)

    def test_sweep_partial_failure_warns_and_exits_zero(self, tmp_path, capsys):
        # n sweeps across the np-oracle capacity boundary: the n=21 points
        # fail, the n=4 points survive, exit code stays 0
        plan = (
            "[model]\nkind = gaussian\nrho = 0.6\n\n"
            "[run]\nn = 4\nd = 2\ntrials = 5\nseed = 1\ndetectors = np-oracle\n\n"
            f"[sweep]\nn = 4 {NP_ORACLE_MAX_N + 1}\n"
        )
        path = tmp_path / "plan.txt"
        path.write_text(plan)
        out = tmp_path / "partial.csv"
        assert run_cli("sweep", "--plan", path, "--out", out) == 0
        err = capsys.readouterr().err
        assert "1 sweep point(s) failed" in err
        assert f"n={NP_ORACLE_MAX_N + 1}" in err
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2  # header + the surviving n=4 row


SETTINGS_PLAN = """[model]
kind = gaussian
rho = 0.6

[run]
n = 6
d = 5
seed = 11
trials = 40
tau_glrt = 0.25
tau_sum = 1.5
tau_count = half-kl
pd_samples = 2000
detectors = sum count
"""

# TrialPlan field: (its plan line, the value it gives, a flag, the flag's value)
SETTINGS = {
    "n": ("n = 6", 6, ["--n", 9], 9),
    "d": ("d = 5", 5, ["--d", 3], 3),
    "seed": ("seed = 11", 11, ["--seed", 4], 4),
    "trials": ("trials = 40", 40, ["--trials", 7], 7),
    "tau_glrt": ("tau_glrt = 0.25", 0.25, ["--tau", 0.5], 0.5),
    "tau_sum": ("tau_sum = 1.5", 1.5, ["--tau-sum", 2.5], 2.5),
    "tau_count": ("tau_count = half-kl", "half-kl", ["--tau-count", "0.1"], 0.1),
    "pd_samples": ("pd_samples = 2000", 2000, ["--pd-samples", 300], 300),
    "detectors": (
        "detectors = sum count", ("sum", "count"),
        ["--detector", "glrt", "--detector", "count"], ("glrt", "count"),
    ),
}
# the error when a setting that a plan must give has neither key nor flag
REQUIRED_SETTINGS = {
    "n": "plan needs n and d",
    "d": "plan needs n and d",
    "seed": "plan needs a seed",
    "detectors": "missing required key 'detectors'",
}


class TestSettingSources:
    """A run setting comes from its flag, else from its plan key, else from
    TrialPlan's default, and detect and bounds take only the flags given."""

    @pytest.mark.parametrize("field", SETTINGS)
    def test_flag_over_plan_over_default(self, tmp_path, monkeypatch, capsys, field):
        line, file_value, flag, flag_value = SETTINGS[field]
        plans = []

        def capture(plan, threads):
            plans.append(plan)
            return []

        monkeypatch.setattr(experiments, "estimate_risk", capture)
        path = tmp_path / "plan.txt"

        def risk_setting(*flags):
            assert run_cli("risk", "--plan", path, *flags) == 0
            return getattr(plans.pop(), field)

        path.write_text(SETTINGS_PLAN)
        assert risk_setting() == file_value
        assert risk_setting(*flag) == flag_value
        path.write_text(SETTINGS_PLAN.replace(line + "\n", ""))
        if field in REQUIRED_SETTINGS:
            assert run_cli("risk", "--plan", path) == 1
            assert REQUIRED_SETTINGS[field] in capsys.readouterr().err
            assert risk_setting(*flag) == flag_value
        else:
            (default,) = (
                f.default for f in dataclasses.fields(experiments.TrialPlan)
                if f.name == field
            )
            assert risk_setting() == default

    def test_detect_needs_a_detector(self, model_file, tmp_path, capsys):
        pair = sample_alt(load_model(model_file(GAUSS_MODEL)), 6, 4, seed=13)
        write_matrix_csv(str(tmp_path / "X.csv"), pair.x)
        write_matrix_csv(str(tmp_path / "Y.csv"), pair.y)
        with pytest.raises(SystemExit) as exit_info:
            run_cli("detect", "--model", model_file(GAUSS_MODEL),
                    "--x", tmp_path / "X.csv", "--y", tmp_path / "Y.csv")
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert "the following arguments are required: --detector" in err

    def test_bounds_without_thresholds_is_the_report_default(
        self, model_file, tmp_path
    ):
        path = model_file(GAUSS_MODEL)
        out = tmp_path / "bounds.json"
        assert run_cli("bounds", "--model", path, "--n", 6, "--d", 3, "--out", out) == 0
        report = experiments.bound_report(load_model(path), 6, 3)
        assert report["glrt"] is not None and report["count"] is not None
        assert out.read_text() == _json_dumps(report)


class TestExitCodes:
    @pytest.mark.parametrize(
        "key,line,where",
        [("tau_sun = 5", 14, "[run]"), ("pd_method = auto", 14, "[run]"),
         ("[sweeep]\nrho = 0.1", 15, "[sweeep]")],
    )
    def test_unknown_plan_key_exits_1(self, tmp_path, capsys, key, line, where):
        path = tmp_path / "plan.txt"
        path.write_text(PLAN_TEXT.replace("\n[sweep]", f"{key}\n\n[sweep]"))
        assert run_cli("risk", "--plan", path, "--trials", 2) == 1
        err = capsys.readouterr().err
        assert f"{path}:{line}: unknown key" in err and where in err

    def test_sweep_parameter_key_follows_the_model(self, tmp_path, capsys):
        """A Bernoulli plan sweeps tau; its [sweep] rho line is not read."""
        bernoulli = "kind = bernoulli\ntau = 0.6\np = 0.3"
        path = tmp_path / "plan.txt"
        path.write_text(PLAN_TEXT.replace("kind = gaussian\nrho = 0.7", bernoulli))
        assert run_cli("sweep", "--plan", path, "--trials", 2) == 1
        assert f"{path}:17: unknown key 'rho' in [sweep]" in capsys.readouterr().err
        path.write_text(path.read_text().replace("rho = 0.4 0.7", "tau = 0.4 0.7"))
        assert load_plan(str(path)).sweep.param_values == (0.4, 0.7)

    def test_overridden_plan_key_is_not_unknown(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text(PLAN_TEXT)
        plan = load_plan(str(path), {"n": 9, "detectors": ["sum"], "tau_count": "0.1"})
        assert (plan.n, plan.detectors, plan.tau_count) == (9, ("sum",), 0.1)

    @pytest.mark.parametrize(
        "args",
        [["bounds", "--n", 4, "--d", 2, "--bogus"], ["bounds", "--n", "four"],
         ["no-such-command"], []],
    )
    def test_usage_error_exits_1(self, model_file, capsys, args):
        if args and args[0] == "bounds":
            args = [*args, "--model", model_file(GAUSS_MODEL)]
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*args)
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "error: " in err

    @pytest.mark.parametrize("source", ["plan", "risk", "sweep", "detect", "bounds"])
    def test_malformed_tau_count_names_its_source(
        self, model_file, tmp_path, capsys, source
    ):
        """A malformed level in a plan is reported at its line, even when a
        flag overrides it; one given by ``--tau-count`` names the flag."""
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(PLAN_TEXT)
        model_path = model_file(GAUSS_MODEL)
        pair = sample_alt(load_model(model_path), 6, 4, seed=13)
        write_matrix_csv(str(tmp_path / "X.csv"), pair.x)
        write_matrix_csv(str(tmp_path / "Y.csv"), pair.y)
        message = "tau_count must be a number or 'half-kl', got 'abc'"
        if source == "plan":
            text = PLAN_TEXT.replace("tau_count = half-kl", "tau_count = abc")
            plan_path.write_text(text)
            line = text.splitlines().index("tau_count = abc") + 1
            for extra in ([], ["--tau-count", "0.1"]):
                assert run_cli("risk", "--plan", plan_path, *extra) == 1
                err = capsys.readouterr().err
                assert err == f"error: {plan_path}:{line}: {message}\n"
            return
        args = {
            "risk": ["risk", "--plan", plan_path],
            "sweep": ["sweep", "--plan", plan_path],
            "detect": ["detect", "--model", model_path, "--x", tmp_path / "X.csv",
                       "--y", tmp_path / "Y.csv", "--detector", "count",
                       "--seed", 1, "--pd-samples", 100],
            "bounds": ["bounds", "--model", model_path, "--n", 4, "--d", 2],
        }[source]
        assert run_cli(*args, "--tau-count", "abc") == 1
        assert capsys.readouterr().err == f"error: --tau-count: {message}\n"

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("trials = 40", "trials = 0", "trials must be >= 1, got 0"),
            ("pd_samples = 4000", "pd_samples = 0", "pd_samples must be >= 1, got 0"),
            ("detectors = sum count", "detectors = sum bogus",
             "unknown detector 'bogus'; choose from "
             "('glrt', 'sum', 'count', 'np-oracle')"),
            ("seed = 11", "seed = 11\ntau_glrt = nan",
             "tau_glrt must be a number, got nan"),
            ("seed = 11", "seed = -1", "seed must be >= 0, got -1"),
        ],
    )
    def test_out_of_range_plan_value_names_its_line(
        self, tmp_path, capsys, old, new, message
    ):
        """A plan value that parses but is out of range is reported at its
        line, like a malformed one, even when a flag overrides it."""
        text = PLAN_TEXT.replace(old, new)
        path = tmp_path / "plan.txt"
        path.write_text(text)
        line = text.splitlines().index(new.splitlines()[-1]) + 1
        for extra in ([], ["--trials", 2, "--detector", "sum", "--pd-samples", 100]):
            assert run_cli("risk", "--plan", path, *extra) == 1
            assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"

    @pytest.mark.parametrize("flag", ["--tau", "--tau-sum", "--tau-count"])
    def test_nan_threshold_exits_1(self, model_file, tmp_path, capsys, flag):
        model_path = model_file(GAUSS_MODEL)
        pair = sample_alt(load_model(model_path), 6, 4, seed=13)
        write_matrix_csv(str(tmp_path / "X.csv"), pair.x)
        write_matrix_csv(str(tmp_path / "Y.csv"), pair.y)
        args = ["detect", "--model", model_path, "--x", tmp_path / "X.csv",
                "--y", tmp_path / "Y.csv", "--seed", 1, "--pd-samples", 100]
        for name in ("glrt", "sum", "count"):
            args += ["--detector", name]
        if flag != "--tau-count":
            args += ["--tau-count", 0.1]
        assert run_cli(*args, flag, "nan") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be a number, got nan" in err

    @pytest.mark.parametrize("command", ["risk", "sweep"])
    def test_nan_tau_count_in_a_plan_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "plan.txt"
        path.write_text(PLAN_TEXT)
        assert run_cli(command, "--plan", path, "--tau-count", "nan") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tau_count must be a number" in err
        assert "pd = 0" not in err

    @pytest.mark.parametrize(
        "exc", [InvariantViolationError("broken"), DetectionError("broken")]
    )
    def test_package_errors_exit_1(self, model_file, monkeypatch, capsys, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(experiments, "bound_report", fail)
        path = model_file(GAUSS_MODEL)
        assert run_cli("bounds", "--model", path, "--n", 4, "--d", 2) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.rstrip().endswith("broken")
        if isinstance(exc, InvariantViolationError):
            assert "internal invariant violated" in err

    def test_spectrum_over_its_byte_budget_exits_2(
        self, model_file, monkeypatch, capsys
    ):
        monkeypatch.setattr(spectral, "SPECTRUM_MAX_BYTES", 1000)
        path = model_file("kind = gaussian\nrho = 0.99\n")
        assert run_cli("bounds", "--model", path, "--n", 4, "--d", 2) == 2
        err = capsys.readouterr().err
        assert err.startswith("capacity error: ") and err.count("\n") == 1
        assert "1000-byte budget" in err

    @pytest.mark.parametrize(
        "case",
        ["missing-model", "missing-plan", "missing-x", "unwritable-out",
         "bad-cell", "bad-thetas", "bad-theta-points", "zero-threads",
         "bounds-n-zero", "bounds-n-negative", "risk-n-zero", "seed-sample",
         "seed-detect", "seed-plan", "pd-samples-plan",
         "pd-samples-risk", "pd-samples-detect", *BAD_OBSERVATIONS],
    )
    def test_bad_input_is_one_error_line(self, model_file, tmp_path, capsys, case):
        if case in BAD_OBSERVATIONS:
            # a value outside the observation contract fails as the matrix loads
            kind, bad, message = BAD_OBSERVATIONS[case]
            model_path = model_file(GAUSS_MODEL if kind == "gaussian" else DIAG_MODEL)
            write_matrix_csv(str(tmp_path / "X.csv"), with_bad_entry(bad, (3, 2)))
            write_matrix_csv(str(tmp_path / "Y.csv"), np.zeros((3, 2)))
            assert run_cli("detect", "--model", model_path, "--x", tmp_path / "X.csv",
                           "--y", tmp_path / "Y.csv", "--detector", "sum") == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            return
        model_path = model_file(GAUSS_MODEL)
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(PLAN_TEXT)
        pair = sample_alt(load_model(model_path), 6, 4, seed=13)
        write_matrix_csv(str(tmp_path / "X.csv"), pair.x)
        write_matrix_csv(str(tmp_path / "Y.csv"), pair.y)
        bad_x = tmp_path / "bad.csv"
        bad_x.write_text("n,d\n1,2\n\n0.5,abc\n")
        seed_line = PLAN_TEXT.splitlines().index("seed = 11") + 1
        negative_seed_plan = tmp_path / "negative-seed.txt"
        negative_seed_plan.write_text(PLAN_TEXT.replace("seed = 11", "seed = -1"))
        zero_samples_plan = tmp_path / "zero-samples.txt"
        zero_samples_plan.write_text(
            PLAN_TEXT.replace("pd_samples = 4000", "pd_samples = 0")
        )
        detect = ["detect", "--model", model_path, "--y", tmp_path / "Y.csv",
                  "--detector", "sum"]
        args, expected = {
            "missing-model": (["validate", "--model", tmp_path / "missing.txt"],
                              "missing.txt"),
            "missing-plan": (["risk", "--plan", tmp_path / "missing.txt"],
                             "missing.txt"),
            "missing-x": ([*detect, "--x", tmp_path / "nofile.csv"], "nofile.csv"),
            "unwritable-out": (["sample", "--model", model_path, "--n", 4, "--d", 2,
                                "--seed", 1, "--out", tmp_path / "no-dir" / "x"],
                               "no-dir"),
            "bad-cell": ([*detect, "--x", bad_x], f"{bad_x}:4: expected numbers"),
            "bad-thetas": (["chernoff", "--model", model_path, "--thetas", "abc"],
                           "--thetas"),
            "bad-theta-points": (["chernoff", "--model", model_path,
                                  "--theta-points", -3], "--theta-points"),
            "zero-threads": (["risk", "--plan", plan_path, "--threads", 0],
                             "threads must be >= 1"),
            "bounds-n-zero": (["bounds", "--model", model_path, "--n", 0, "--d", 2],
                              "n and d must be >= 1"),
            "bounds-n-negative": (["bounds", "--model", model_path, "--n", -3,
                                   "--d", 2], "n and d must be >= 1"),
            "risk-n-zero": (["risk", "--plan", plan_path, "--n", 0],
                            "n must be >= 1, got 0"),
            "seed-sample": (["sample", "--model", model_path, "--n", 4, "--d", 2,
                             "--seed", -1, "--out", tmp_path / "s"],
                            "seed must be >= 0, got -1"),
            "seed-detect": ([*detect, "--x", tmp_path / "X.csv", "--seed", -3],
                            "seed must be >= 0, got -3"),
            "seed-plan": (["risk", "--plan", negative_seed_plan],
                          f"{negative_seed_plan}:{seed_line}: seed must be >= 0, got -1"),
            "pd-samples-plan": (["risk", "--plan", zero_samples_plan],
                                "pd_samples must be >= 1"),
            "pd-samples-risk": (["risk", "--plan", plan_path, "--detector", "sum",
                                 "--pd-samples", 0], "pd_samples must be >= 1"),
            "pd-samples-detect": ([*detect, "--x", tmp_path / "X.csv", "--detector",
                                   "count", "--tau-count", "half-kl", "--seed", 1,
                                   "--pd-samples", 0], "pd_samples must be >= 1"),
        }[case]
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert expected in err and "Traceback" not in err


def run_subprocess(script: str, *args):
    """Run ``python -c script *args`` on this checkout's package."""
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env,
    )


def test_count_on_a_wide_law_exits_cleanly(tmp_path):
    """A 46-symbol law has 1,081 LLR atoms.  ``detect --detector count``
    runs at d = 1, and at d = 2 (2.1e8 partial compositions) exits 2 with one
    ``capacity error:`` line, run as a process so nothing catches a raw
    traceback."""
    joint = random_discrete_model(np.random.default_rng(46), 46).joint
    model = tmp_path / "wide.txt"
    model.write_text(
        "kind = discrete\nalphabet_size = 46\n"
        f"joint = {' '.join(repr(float(v)) for v in joint.ravel())}\n"
    )
    for d, code in ((1, 0), (2, 2)):
        pair = sample_alt(load_model(str(model)), 5, d, seed=d)
        write_matrix_csv(str(tmp_path / f"X{d}.csv"), pair.x)
        write_matrix_csv(str(tmp_path / f"Y{d}.csv"), pair.y)
        result = run_subprocess(
            "import sys; from dbdetect.cli import main; sys.exit(main(sys.argv[1:]))",
            "detect", "--model", model, "--x", tmp_path / f"X{d}.csv",
            "--y", tmp_path / f"Y{d}.csv", "--detector", "count",
            "--tau-count", "half-kl",
        )
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr
        if code == 0:
            (verdict,) = json.loads(result.stdout)
            assert verdict["detector"] == "count"
        else:
            assert result.stderr.startswith("capacity error: ")
            assert result.stderr.count("\n") == 1


def test_package_runs_without_scipy(tmp_path):
    """scipy is a test-only dependency: with its import blocked, the package
    and the CLI import, and bounds, tv-oracle and a small risk point run."""
    model = tmp_path / "model.txt"
    model.write_text(DIAG_MODEL)
    plan = tmp_path / "plan.txt"
    plan.write_text(PLAN_TEXT)
    script = f"""
import sys
sys.modules["scipy"] = None
import dbdetect
from dbdetect.cli import main
assert main(["bounds", "--model", {str(model)!r}, "--n", "6", "--d", "2"]) == 0
assert main(["tv-oracle", "--model", {str(model)!r}, "--n", "2", "--d", "1"]) == 0
assert main(["risk", "--plan", {str(plan)!r}, "--trials", "4"]) == 0
assert not any(name.split(".")[0] == "scipy" for name in sys.modules
               if sys.modules[name] is not None)
"""
    result = run_subprocess(script)
    assert result.returncode == 0, result.stderr
