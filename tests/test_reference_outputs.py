"""The benchmark's byte gate, run as a test: the seed-0 risk CSVs of the
benchmark workloads must equal the pinned ``perfbench/reference/*.csv``
bytes, which this module only reads.

The plans are read from ``perfbench/worker.py::build_ops`` at full size, so
a change to a workload's plan is made there alone.
"""

import pytest

from dbdetect import experiments

from helpers import PERFBENCH, load_perfbench_worker

REFERENCE_DIR = PERFBENCH / "reference"
SEED = 0
THREADS = 2  # the benchmark's harness threads on a machine with two or more cores


def _plans():
    worker = load_perfbench_worker()
    return {
        f"{workload}.{op.label}": op.plan
        for workload in worker.WORKLOADS
        for op in worker.build_ops(workload, SEED, tiny=False)
        if op.kind == "risk"
    }


PLANS = _plans()


def test_every_reference_csv_has_a_plan():
    assert sorted(path.stem for path in REFERENCE_DIR.glob("*.csv")) == sorted(PLANS)


@pytest.mark.parametrize("label", sorted(PLANS))
def test_risk_csv_equals_reference_bytes(label):
    plan = PLANS[label]
    errors: list = []
    estimates = experiments.sweep(plan, threads=THREADS, error_sink=errors)
    assert errors == []
    reference = (REFERENCE_DIR / f"{label}.csv").read_text(encoding="utf-8")
    assert experiments.estimates_to_csv(estimates) == reference
