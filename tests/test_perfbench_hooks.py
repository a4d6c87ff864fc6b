"""The benchmark's worker (``perfbench/worker.py``) reaches into the package
by name: its tracer rebinds entry points to record spans, and its checks
call others directly.  These tests fail when a refactor removes or moves
such a name, which would otherwise break only traced benchmark runs
(``perfbench/run.py --trace 1``)."""

import ast
import importlib
import inspect
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import pytest

from dbdetect import experiments
from dbdetect.detectors import CountTestPlan

from helpers import load_perfbench_worker


@pytest.fixture(scope="module")
def worker():
    return load_perfbench_worker()


def test_entry_points_rebind_the_functions_they_name(worker):
    """Each rebound name exists and is the function its span is named after
    (``detectors.glrt`` is ``dbdetect.detectors.glrt``, ...)."""
    for name, sites, _ in worker.ENTRY_POINTS:
        module_name, function = name.split(".")
        expected = getattr(importlib.import_module(f"dbdetect.{module_name}"), function)
        for module, attr in sites:
            assert getattr(module, attr, None) is expected, (name, module.__name__, attr)


def test_harness_hooks_exist(worker):
    """The point span wraps ``experiments._run_point`` and reads the plan's
    trials from its fourth argument, trial spans come from replacing
    ``experiments.ThreadPoolExecutor``, and the count-plan work count reads
    the plan's method and samples."""
    assert list(inspect.signature(experiments._run_point).parameters)[3] == "plan"
    assert experiments.ThreadPoolExecutor is ThreadPoolExecutor
    assert {"pd_method", "samples"} <= {f.name for f in fields(CountTestPlan)}


def test_every_package_name_the_worker_reads_exists(worker):
    """Every ``<module>.<name>`` that worker.py reads off a dbdetect module
    exists there."""
    modules = {
        alias: value
        for alias, value in vars(worker).items()
        if inspect.ismodule(value) and value.__name__.split(".")[0] == "dbdetect"
    }
    with open(worker.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("detectors", "glrt") in used
    missing = [f"{alias}.{attr}" for alias, attr in sorted(used)
               if not hasattr(modules[alias], attr)]
    assert missing == []


def test_a_traced_round_records_spans_and_restores_every_name(worker):
    """A tiny round of every workload runs under the installed tracer, its
    layer figures can be computed, and uninstalling restores every name."""
    before = {
        site: getattr(*site) for _, sites, _ in worker.ENTRY_POINTS for site in sites
    }
    tr = worker.tr
    tracer = tr.Tracer()
    worker.install(tracer)
    try:
        for workload in worker.WORKLOADS:
            for op in worker.build_ops(workload, 0, tiny=True):
                op.call()
    finally:
        tracer.uninstall()
    names = {span[tr.NAME] for _, span in tracer.spans()}
    assert {tr.HARNESS, tr.TRIAL, "assignment.solve_max", "models.pair_llr_matrix",
            "experiments.bound_report", "experiments.exact_tv_small"} <= names
    worker.layer_metrics(tracer, 1.0, 1, worker.harness_threads())
    assert all(getattr(*site) is original for site, original in before.items())
    assert experiments.ThreadPoolExecutor is ThreadPoolExecutor
