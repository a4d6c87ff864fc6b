"""dbdetect benchmark: run one workload (or all) in fresh processes, check
every output, and print every metric by name and unit.

Run from the repository root::

    python3 perfbench/run.py --workload mc-scan --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` a separate traced run gives the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results, with
the run manifest, go to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROCESSES = 7  # fresh processes whose set-up time is measured per run
TIME_LIMIT_S = 175.0  # a run must end within this, set-up included

# Metrics printed besides BENCHMARK.json's; a workload that does not produce
# one prints it as absent.
EXTRA_UNITS = {"bounds_s": "s", "tv_oracle_s": "s", "failed_frac": "fraction"}


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(args, mode: str, deadline: float) -> dict:
    command = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode,
               "--reference-dir", args.reference_dir]
    if args.tiny:
        command.append("--tiny")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, spec: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.trace:
        result = _worker(args, "trace", deadline)
        setups = [result["setup_s"]]
    else:
        setups = [_worker(args, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_PROCESSES - 1)]
        result = _worker(args, "run", deadline)
        setups.append(result["setup_s"])
    measured = dict(result["metrics"], setup_s=statistics.median(setups),
                    peak_rss_mb=result["peak_rss_mb"],
                    failed_frac=result["failed"] / result["attempted"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["layers"] if args.trace else measured
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise BenchmarkError(f"{args.workload} did not produce {missing}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, setup_samples_s=setups, metrics=metrics, measured=measured), fh,
                  indent=1)

    print(f"== {args.workload} seed={args.seed} trace={args.trace} rounds={result['rounds']}")
    print("manifest: " + json.dumps(result["manifest"], sort_keys=True))
    for name, entry in metrics.items():
        print(f"  {name:<52} {entry['value']:>14.6g} {entry['unit']}")
    if args.trace:
        for name, value in result["quantiles"].items():
            print(f"  {name:<52} {value:>14.6g} ms")
        print("  accounting: " + json.dumps(result["accounting"]))
    else:
        for name, unit in EXTRA_UNITS.items():
            value = measured.get(name)
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {name:<52} {shown:>14} {unit}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes and tiny-size references, for the self-check")
    parser.add_argument("--reference-dir", default=os.path.join(HERE, "reference"))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "dbdetect", "__init__.py")):
        sys.stderr.write("src/dbdetect not found: run from a dbdetect checkout\n")
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if args.workload != "all":
        workloads = (args.workload,)
    results = {}
    try:
        for workload in workloads:
            args.workload = workload
            results[workload] = run_workload(args, spec)
    except BenchmarkError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    if len(results) == 1:
        summary = results[workloads[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
