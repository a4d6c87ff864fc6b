"""Self-check of the benchmark at tiny sizes.  Run from the repository root::

    python3 perfbench/selfcheck.py

It asserts that

* every metric named in ``BENCHMARK.json`` is emitted with its unit, traced
  and untraced, and the printed table names every end-to-end metric;
* the correctness gate fires: a corrupted reference (risk CSV, bound report,
  exact TV) makes the run report failed operations;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result.

Scratch files go to ``.perfbench_out/selfcheck/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_out", "selfcheck")
REF = os.path.join(SCRATCH, "reference")
TABLE_METRICS = ("setup_s", "wall_s", "trials_per_s", "bounds_s", "tv_oracle_s",
                 "peak_rss_mb", "failed_frac")


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", "0.2", "--trace", str(trace), "--tiny",
               "--reference-dir", REF]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace)
            result = result_of(proc)
            assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            if trace == 0:
                for name in TABLE_METRICS:
                    assert f"  {name} " in proc.stdout, (workload, name)
        print(f"metrics ok: {workload}")


def check_gate() -> None:
    def bump_bound(text):
        report = json.loads(text)
        report["poisson_moment_bound"] *= 1.0 + 1e-6
        return json.dumps(report)

    def bump_tv(text):
        value = json.loads(text)
        value["tv"] += 1e-9
        return json.dumps(value)

    cases = (
        ("mc-scan", "mc-scan.gaussian-glrt-tiny.csv", lambda t: t.replace(",8,", ",9,", 1)),
        ("exact", "exact.bounds-bernoulli-tiny.json", bump_bound),
        ("exact", "exact.tv-tiny.json", bump_tv),
    )
    for workload, name, edit in cases:
        path = os.path.join(REF, name)
        with open(path, encoding="utf-8") as fh:
            original = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(edit(original))
        try:
            result = result_of(run(workload, 0))
        finally:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(original)
        assert result["failed"] > 0 and not result["correct"], (name, result)
        print(f"gate fires: {name} -> failed {result['failed']}/{result['attempted']}")


def check_bare_directory() -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("mc-scan", 0, cwd=bare)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode != 0 and not (lines and lines[-1].startswith("{")), proc
    print(f"bare directory: exit {proc.returncode}, no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    shutil.rmtree(REF, ignore_errors=True)
    for workload in (w["name"] for w in spec["workloads"]):  # tiny references
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                        "--seed", "0", "--seconds", "0", "--mode", "run", "--tiny",
                        "--reference-dir", REF, "--write-reference"],
                       cwd=ROOT, check=True, capture_output=True, timeout=170)
    check_metrics(spec)
    check_gate()
    check_bare_directory()
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
