"""The benchmark's byte gate, run as a test: the seed-0 risk CSVs of the
benchmark workloads must equal the pinned ``perfbench/reference/*.csv``
bytes, which this module only reads, on numpy's default CPU dispatch and
with its AVX-512 loops turned off.

The plans are read from ``perfbench/worker.py::build_ops`` at full size, so
a change to a workload's plan is made there alone.
"""

import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from dbdetect import experiments

from helpers import (
    PERFBENCH,
    avx512_dispatch_targets,
    criterion_9_outputs,
    load_perfbench_worker,
)

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


def risk_csv(label: str) -> str:
    """The risk CSV of the reference plan ``label``."""
    errors: list = []
    estimates = experiments.sweep(PLANS[label], threads=THREADS, error_sink=errors)
    assert errors == [], label
    return experiments.estimates_to_csv(estimates)


def test_every_reference_csv_has_a_plan():
    assert sorted(path.stem for path in REFERENCE_DIR.glob("*.csv")) == sorted(PLANS)


@pytest.mark.parametrize("label", sorted(PLANS))
def test_risk_csv_equals_reference_bytes(label):
    reference = (REFERENCE_DIR / f"{label}.csv").read_text(encoding="utf-8")
    assert risk_csv(label) == reference


def test_bytes_equal_without_avx512_dispatch(tmp_path):
    """With numpy's AVX-512 loops turned off, the reference plans' CSVs are
    the pinned bytes (the default dispatch's, by the test above), and
    acceptance criterion 9's outputs are the default dispatch's."""
    targets = avx512_dispatch_targets()
    if not targets:
        pytest.skip("this CPU has no AVX-512 dispatch target")
    script = """
import pathlib, pickle, sys
import numpy as np
found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
assert not set(sys.argv[2:]) & set(found), found
import test_reference_outputs as module
out = pathlib.Path(sys.argv[1])
csvs = {label: module.risk_csv(label) for label in module.PLANS}
outputs = (csvs, module.criterion_9_outputs(out, module.THREADS))
(out / "outputs.pickle").write_bytes(pickle.dumps(outputs))
"""
    tests = pathlib.Path(__file__).resolve().parent
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
        "PYTHONPATH": os.pathsep.join(
            filter(None, [src, str(tests), os.environ.get("PYTHONPATH")])
        ),
    }
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "off"), *targets],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    csvs, criterion_9 = pickle.loads((tmp_path / "off" / "outputs.pickle").read_bytes())
    for label, text in csvs.items():
        reference = (REFERENCE_DIR / f"{label}.csv").read_text(encoding="utf-8")
        assert text == reference, label
    assert criterion_9 == criterion_9_outputs(tmp_path / "default", THREADS)
