"""The benchmark's byte gate, run as a test: the seed-0 risk CSVs of the
benchmark workloads must equal the pinned ``perfbench/reference/*.csv``
bytes, which this module only reads.

The plans mirror ``perfbench/worker.py::build_ops`` at full size; keep them
in step with that function.
"""

import pathlib

import pytest

from dbdetect import experiments
from dbdetect.models import GaussianModel, make_bernoulli

REFERENCE_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference"
SEED = 0
THREADS = 2  # the benchmark's harness threads on a machine with two or more cores


def _plans():
    gauss = GaussianModel(rho=0.5)
    bern = make_bernoulli(0.6, 0.3)
    return {
        "mc-sum-count.sweep": experiments.TrialPlan(
            model=GaussianModel(rho=0.25), n=100, d=10, trials=300, seed=SEED,
            detectors=("sum", "count"), tau_count="half-kl", pd_samples=100_000,
            sweep=experiments.SweepGrid(param_values=(0.25, 0.75), d_values=(10, 100)),
        ),
        "mc-scan.gaussian-glrt": experiments.TrialPlan(
            model=gauss, n=100, d=10, trials=8, seed=SEED, detectors=("glrt",)
        ),
        "mc-scan.bernoulli-glrt-count": experiments.TrialPlan(
            model=bern, n=100, d=100, trials=8, seed=SEED,
            detectors=("glrt", "count"), tau_count="half-kl",
        ),
        "exact.oracle-glrt": experiments.TrialPlan(
            model=bern, n=8, d=10, trials=50, seed=SEED,
            detectors=("np-oracle", "glrt"),
        ),
    }


@pytest.mark.parametrize("label", sorted(_plans()))
def test_risk_csv_equals_reference_bytes(label):
    plan = _plans()[label]
    errors: list = []
    estimates = experiments.sweep(plan, threads=THREADS, error_sink=errors)
    assert errors == []
    reference = (REFERENCE_DIR / f"{label}.csv").read_text(encoding="utf-8")
    assert experiments.estimates_to_csv(estimates) == reference
