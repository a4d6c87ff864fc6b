"""The benchmark's byte gate, run as a test: the seed-0 risk CSVs of the
benchmark workloads must equal the pinned ``perfbench/reference/*.csv``
bytes, which this module only reads, on numpy's default CPU dispatch and
with its AVX-512 loops turned off.

The plans are read from ``perfbench/worker.py::build_ops`` at full size, so
a change to a workload's plan is made there alone.
"""

import hashlib
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from dbdetect import experiments

from helpers import (
    PERFBENCH,
    cli_main,
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


# Two discrete laws and what the command line makes of them at seed 0: the
# SHA-256 of each file `dbdetect sample` writes (n = 10, d = 40) and of
# `dbdetect detect`'s JSON on the pair (glrt, count, np-oracle and sum).  The
# digests were taken before the discrete samplers and LLR matrix were
# rewritten to draw by CDF comparison and to form (m - 1)^2 co-occurrence
# products, which keep every byte.
DISCRETE_LAWS = {
    "bernoulli": "kind = bernoulli\ntau = 0.6\np = 0.3\n",
    "three-symbol": (
        "kind = discrete\nalphabet_size = 3\n"
        "joint = 0.3 0.05 0.05 0.05 0.2 0.1 0.05 0.1 0.1\n"
    ),
}
DISCRETE_CLI_DIGESTS = {
    ("bernoulli", "null"): {
        "detect.json": "c6e5860af9ed40ed255d458f2dd19083d3937f9a9b789982efb69e7458ce4b1d",
        "s_X.csv": "e9ab4444ccd3c807fec3496fff225e4cede816a58f9b707e4221bbcb37c39537",
        "s_Y.csv": "6de77dcd5c582f04c9fe9c44f24cd48034168fb8446ce9ac83a0ff390a531022",
    },
    ("bernoulli", "alt"): {
        "detect.json": "791a7fb117aa5de88e0ebfa38bcdbc5201d1d0aee04ae21888088c91f9a4b49a",
        "s_X.csv": "584d5954f92e555e5cb1a4cf9e1b8e9e04d1bb50bf49b151014504aefd02ff70",
        "s_Y.csv": "cfd06125e9cf89363195a1f286576581552689c0f229414a9f95f98456495f09",
        "s_sigma.csv": "6588be7d53735a05a35b48474d7866c38371d5b8fe92acae4494119f46f36c2e",
    },
    ("three-symbol", "null"): {
        "detect.json": "e375735e8ffb061d979f5f0671842f85d7e1ffe3ef8d07044f6e28f74169e272",
        "s_X.csv": "6df8a30a89cc1572d064749d2454d7914e56f53bce51097830fdd0ded547933d",
        "s_Y.csv": "d4cc3b8edfed9a36b5b0c668323c59b0723bfb2ff6de2d5e939f313d6e570ff6",
    },
    ("three-symbol", "alt"): {
        "detect.json": "94788a448789b39118cbec0024636c712c635e8f189a30ffd352b3ff07b8ef02",
        "s_X.csv": "09fbdbce42ee08d69830547ce946ba47fe83e522af1cde9531d4698c06c02a75",
        "s_Y.csv": "fdf43919e2d8f894357fdfc663db85f026b5615dabd0788010fc50a52584a2e6",
        "s_sigma.csv": "6588be7d53735a05a35b48474d7866c38371d5b8fe92acae4494119f46f36c2e",
    },
}


def discrete_cli_digests(law: str, hypothesis: str, directory: pathlib.Path) -> dict:
    """SHA-256 of the files ``sample`` writes for ``law`` under
    ``hypothesis`` and of ``detect``'s JSON on them, by file name."""
    model = directory / "model.txt"
    model.write_text(DISCRETE_LAWS[law])
    prefix = directory / "s"
    commands = [
        ["sample", "--model", model, "--n", 10, "--d", 40, "--seed", 0,
         "--hypothesis", hypothesis, "--out", prefix],
        ["detect", "--model", model, "--x", f"{prefix}_X.csv", "--y",
         f"{prefix}_Y.csv", "--detector", "glrt", "--detector", "count",
         "--detector", "np-oracle", "--detector", "sum", "--tau-count",
         "half-kl", "--out", directory / "detect.json"],
    ]
    for args in commands:
        assert cli_main([str(a) for a in args]) == 0, args
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.name != "model.txt"
    }


@pytest.mark.parametrize("law, hypothesis", sorted(DISCRETE_CLI_DIGESTS))
def test_discrete_cli_outputs_equal_pinned_digests(law, hypothesis, tmp_path):
    assert discrete_cli_digests(law, hypothesis, tmp_path) == (
        DISCRETE_CLI_DIGESTS[law, hypothesis]
    )
