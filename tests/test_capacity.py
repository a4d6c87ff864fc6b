"""Capacity guards refuse before they allocate: each raises ``CapacityError``
within a second, with a traced peak below 1 MiB.  On the command line a
refused ``risk`` or ``detect`` exits 2 with one line, and a refused sweep
point is one warning."""

import errno
import functools
import re
import time
import tracemalloc
import types

import numpy as np
import pytest

from dbdetect import detectors, experiments
from dbdetect.cli import main
from dbdetect.config import write_matrix_csv
from dbdetect.detectors import NP_ORACLE_MAX_N, PreparedNpOracle, _exact_pd, _mapped_stack
from dbdetect.errors import CapacityError
from dbdetect.experiments import (
    LLR_MAX_BYTES,
    SCAN_MAX_SECONDS,
    SweepGrid,
    TrialPlan,
    count_plans,
    estimate_risk,
    exact_tv_small,
    prepare,
    sweep,
)
from dbdetect.spectral import gaussian_profile, second_moment_exact

from helpers import diag_model, gauss, random_discrete_model

# rows of a point whose n x n LLR matrix, 3.2e11 bytes, no machine holds
LARGE_N = 200_000


def large_plan(*detectors, **kwargs):
    return TrialPlan(
        model=gauss(0.5), n=LARGE_N, d=1, trials=1, detectors=detectors,
        tau_count="half-kl", **kwargs,
    )


def detect_binding(*detectors):
    """What ``detect`` runs before its first LLR matrix: binding the
    detectors to the pair's shape."""
    plan = large_plan(*detectors)
    return functools.partial(
        prepare, plan.model, LARGE_N, 1, plan, count_plans(plan, (plan.model,))
    )


def scan_binding(n, pairs, seconds):
    """Binding the scan test to n x 1 databases for ``pairs`` pairs, as a
    risk point (``2 trials``) or ``detect`` (one pair) does, under a time
    budget of ``seconds``."""
    plan = large_plan("glrt")

    def bind():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "SCAN_MAX_SECONDS", seconds)
            prepare(plan.model, n, 1, plan, count_plans(plan, (plan.model,)), pairs)

    return bind


def wide_law():
    """A random 46-symbol law: 1,081 distinct LLR atoms."""
    return random_discrete_model(np.random.default_rng(46), 46)


# each entry does its set-up (models, profiles) and returns the guarded call
GUARDED = {
    # C(1083, 3) = 2.1e8 partial compositions
    "exact-pd-wide-law": lambda: functools.partial(_exact_pd, wide_law(), 2, 0.0),
    # the 6-symbol law of TestCountPlan::test_capacity_guard
    "exact-pd-d64": lambda: functools.partial(
        _exact_pd, random_discrete_model(np.random.default_rng(0), 6), 64, 0.0
    ),
    # 2.76 M eigenvalues: n (n + L) = 2.8e10 steps
    "second-moment": lambda: functools.partial(
        second_moment_exact, gaussian_profile(0.99999), 10_000, 1
    ),
    # 2.76e8 eigenvalues, 2.2 GB
    "gaussian-profile": lambda: functools.partial(gaussian_profile, 1.0 - 1e-7),
    # C(66, 3)^2 = 2.1e9 pairs of row multisets
    "exact-tv-states": lambda: functools.partial(exact_tv_small, diag_model(), 3, 6),
    # 20 levels of the recurrence, 1.1e9 element operations: the least n refused at d=2
    "exact-tv-n": lambda: functools.partial(exact_tv_small, diag_model(), 20, 2),
    "np-oracle": lambda: functools.partial(
        PreparedNpOracle, diag_model(), NP_ORACLE_MAX_N + 1, 1
    ),
    # the LLR byte guard (8 n^2 a matrix, 16 n^2 a block's stack)
    "risk-count": lambda: functools.partial(estimate_risk, large_plan("sum", "count")),
    "risk-glrt": lambda: functools.partial(estimate_risk, large_plan("glrt")),
    "risk-np-oracle": lambda: functools.partial(estimate_risk, large_plan("np-oracle")),
    "sweep-count": lambda: functools.partial(
        sweep, large_plan("count", sweep=SweepGrid(param_values=(0.3, 0.6)))
    ),
    "sweep-glrt": lambda: functools.partial(
        sweep, large_plan("glrt", sweep=SweepGrid(d_values=(1, 2)))
    ),
    "detect-count": lambda: detect_binding("count"),
    "detect-glrt": lambda: detect_binding("sum", "glrt"),
    # the scan test's time guard: 200 solves at n = 6,000, priced at 2.1 hours,
    # within the byte guard
    "risk-glrt-time": lambda: functools.partial(
        estimate_risk,
        TrialPlan(model=gauss(0.5), n=6_000, d=1, trials=100, detectors=("glrt",)),
    ),
    # one solve at n = 2,000, priced at 4.6 s, under a 1 s budget
    "detect-glrt-time": lambda: scan_binding(2_000, 1, 1.0),
}


@pytest.mark.parametrize("case", GUARDED)
def test_refuses_before_allocating(case):
    call = GUARDED[case]()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CapacityError):
            call()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1 << 20


def test_byte_guard_arithmetic():
    """count fits at n = 11,585 and not one row more; glrt, holding a
    block's stack of two matrices besides, at n = 6,688."""
    for detectors, largest in ((("count",), 11_585), (("glrt",), 6_688)):
        plan = large_plan(*detectors)
        plans = count_plans(plan, (plan.model,))
        assert 8 * largest**2 * (1 + 2 * (detectors == ("glrt",))) <= LLR_MAX_BYTES
        prepare(plan.model, largest, 1, plan, plans)
        with pytest.raises(CapacityError, match="byte guard"):
            prepare(plan.model, largest + 1, 1, plan, plans)


def test_sum_stays_open():
    """The sum test reads no matrix: a trial at n = 2e5 runs."""
    (row,) = estimate_risk(large_plan("sum"))
    assert row.n == LARGE_N and row.trials == 1


def test_refused_sweep_point_is_a_point_error():
    errors = []
    plan = large_plan("sum", "count", sweep=SweepGrid(n_values=(10, LARGE_N)))
    rows = sweep(plan, error_sink=errors)
    assert [(r.n, r.detector) for r in rows] == [(10, "sum"), (10, "count")]
    ((param, n, message),) = [(e.param, e.n, e.message) for e in errors]
    assert (param, n) == (None, LARGE_N)
    assert message == (
        f"count at n={LARGE_N} would hold {8 * LARGE_N**2} bytes of n x n LLR "
        f"arrays, above the {LLR_MAX_BYTES}-byte guard"
    )


PLAN = """[model]
kind = gaussian
rho = 0.5

[run]
n = {n}
d = 1
trials = 1
seed = 3
detectors = {detectors}
tau_count = half-kl
pd_samples = 1000

[sweep]
n = 10 {n}
"""


@pytest.mark.parametrize("command", ["risk", "sweep", "detect"])
def test_command_line_refusal(command, tmp_path, capsys):
    """``risk`` and ``detect`` exit 2 with one ``capacity error:`` line; a
    sweep reports the refused point in one warning and exits 0."""
    plan = tmp_path / "plan.txt"
    plan.write_text(PLAN.format(n=LARGE_N, detectors="glrt count"))
    if command == "detect":
        (tmp_path / "model.txt").write_text("kind = gaussian\nrho = 0.5\n")
        for name in ("X.csv", "Y.csv"):
            write_matrix_csv(str(tmp_path / name), np.zeros((LARGE_N, 1)))
        args = ["detect", "--model", tmp_path / "model.txt", "--x", tmp_path / "X.csv",
                "--y", tmp_path / "Y.csv", "--detector", "glrt"]
    else:
        args = [command, "--plan", plan]
    code = main([str(a) for a in args] + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if command == "sweep":
        assert code == 0
        assert err.splitlines() == [
            f"warning: sweep point param=None n={LARGE_N} d=1 failed: glrt and count "
            f"at n={LARGE_N} would hold {24 * LARGE_N**2} bytes of n x n LLR arrays, "
            f"above the {LLR_MAX_BYTES}-byte guard",
            "warning: 1 sweep point(s) failed",
        ]
    else:
        assert code == 2
        assert err.startswith("capacity error: ") and err.count("\n") == 1
        assert "byte guard" in err


def test_scan_time_guard_arithmetic():
    """The price is SCAN_ROW_S n + SCAN_ENTRY_S n^2 seconds a solve: the
    CLI's default 2,000 trials fit at n = 810 and not one row more, and
    one matrix at the byte guard's n = 6,688 fits."""
    assert SCAN_MAX_SECONDS == 3600
    for n, pairs in ((810, 4_000), (6_688, 1)):
        scan_binding(n, pairs, SCAN_MAX_SECONDS)()
    with pytest.raises(CapacityError, match="3600 s guard"):
        scan_binding(811, 4_000, SCAN_MAX_SECONDS)()


@pytest.mark.parametrize("command", ["risk", "sweep", "detect"])
def test_command_line_scan_time_refusal(command, tmp_path, capsys, monkeypatch):
    """Under a 1 s budget, 40 solves at n = 100 (priced 1.6 s) or one at
    n = 2,000 (4.6 s) are refused before any draw: ``risk`` and
    ``detect`` exit 2 with one line, and a sweep warns of the point."""
    monkeypatch.setattr(experiments, "SCAN_MAX_SECONDS", 1.0)
    plan = tmp_path / "plan.txt"
    plan.write_text(
        PLAN.format(n=100, detectors="glrt").replace("trials = 1", "trials = 20")
    )
    if command == "detect":
        (tmp_path / "model.txt").write_text("kind = gaussian\nrho = 0.5\n")
        for name in ("X.csv", "Y.csv"):
            write_matrix_csv(str(tmp_path / name), np.zeros((2_000, 1)))
        args = ["detect", "--model", tmp_path / "model.txt", "--x", tmp_path / "X.csv",
                "--y", tmp_path / "Y.csv", "--detector", "glrt"]
    else:
        args = [command, "--plan", plan]
    code = main([str(a) for a in args] + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if command == "sweep":
        assert code == 0
        assert err.splitlines() == [
            "warning: sweep point param=None n=100 d=1 failed: glrt at n=100 would "
            "solve 40 assignments priced at 1.6 s, above the 1.0 s guard",
            "warning: 1 sweep point(s) failed",
        ]
    else:
        n, pairs, price = (2_000, 1, 4.6) if command == "detect" else (100, 40, 1.6)
        assert code == 2
        assert err == (
            f"capacity error: glrt at n={n} would solve {pairs} assignments "
            f"priced at {price} s, above the 1.0 s guard\n"
        )


def test_refused_memory_map_is_a_capacity_error(monkeypatch):
    """A map the system refuses raises ``CapacityError``, not a file error:
    the stack of a scan-test block, so the point fails as refused."""

    def refuse(fileno, length):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(detectors, "mmap", types.SimpleNamespace(mmap=refuse))
    with pytest.raises(CapacityError) as info:
        _mapped_stack((2, 3, 3))
    assert str(info.value) == (
        "cannot map 144 bytes for a (2, 3, 3) float64 array: Cannot allocate memory"
    )
    plan = TrialPlan(model=gauss(0.5), n=5, d=2, trials=2, detectors=("glrt",))
    with pytest.raises(CapacityError, match=re.escape("cannot map 800 bytes for a (4, 5, 5)")):
        estimate_risk(plan, threads=1)
