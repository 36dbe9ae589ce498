"""Measure the benchmark's baseline and write ``perfbench/BASELINE.json``.

    python3 perfbench/baseline.py

For every workload: one traced run on the first seed (the per-layer
split), then one untraced run per seed (medians, quartiles and quartile
spread of every printed metric). Then :data:`SHARD_PAIRS` interleaved
pairs of the ``sim-hybrid`` configuration at ``shards=1`` and
``shards=2`` give the measured sharding speedup on this host. Takes
about half an hour on a 2-core host.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)$")
SEEDS = range(1, 11)
SHARD_PAIRS = 3

#: Runs one repetition of the sim-hybrid configuration at a given shard
#: count and prints its wall seconds (sharding comparison only).
_SHARD_PROBE = """
import json, shutil, sys, tempfile, time
from repro.experiments.runner import run_simulation
spill = tempfile.mkdtemp(dir=sys.argv[2])
try:
    started = time.perf_counter()
    run_simulation("bench", seed=1, chain="hybrid", scenario="combined-assault",
                   shards=int(sys.argv[1]), spill_dir=spill)
    print(json.dumps({"wall_s": time.perf_counter() - started}))
finally:
    shutil.rmtree(spill, ignore_errors=True)
"""


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    printed = {}
    for line in proc.stdout.splitlines():
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = (float(match.group(2)), match.group(3))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"elapsed_s": elapsed, "printed": printed, "result": result}


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else 0.0,
        "n": len(values),
    }


def shard_compare(pairs: int) -> dict:
    scratch = os.path.join(ROOT, ".perfbench-state")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    walls = {1: [], 2: []}
    for pair in range(pairs):
        order = (1, 2) if pair % 2 == 0 else (2, 1)
        for shards in order:
            proc = subprocess.run(
                [sys.executable, "-c", _SHARD_PROBE, str(shards), scratch],
                cwd=ROOT, env=env, capture_output=True, text=True, check=True,
            )
            walls[shards].append(json.loads(proc.stdout)["wall_s"])
            print(f"  shards={shards}: {walls[shards][-1]:.2f}s", flush=True)
    one, two = statistics.median(walls[1]), statistics.median(walls[2])
    return {
        "config": "bench preset, seed 1, hybrid chain, combined-assault, spill on",
        "cores": os.cpu_count(),
        "wall_s_shards1": walls[1],
        "wall_s_shards2": walls[2],
        "median_speedup": one / two,
    }


def main() -> int:
    first, last = SEEDS[0], SEEDS[-1]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds": [first, last],
        "workloads": {},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        traced = run_once(workload, first, 1, seconds)
        print(f"{workload} traced: {traced['elapsed_s']:.1f}s", flush=True)
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, 0, seconds))
            print(f"{workload} seed {seed}: {runs[-1]['elapsed_s']:.1f}s "
                  f"{ {k: round(v[0], 4) for k, v in runs[-1]['printed'].items()} }",
                  flush=True)
        metrics = {}
        for name in runs[0]["printed"]:
            values = [run["printed"][name][0] for run in runs]
            metrics[name] = dict(summarize(values), unit=runs[0]["printed"][name][1])
            if name in bounds:
                metrics[name]["bound"] = bounds[name]
        report["workloads"][workload] = {
            "run_elapsed_s": summarize([run["elapsed_s"] for run in runs]),
            "metrics": metrics,
            "traced_seed": first,
            "traced_elapsed_s": traced["elapsed_s"],
            "per_layer": {
                name: entry["value"]
                for name, entry in traced["result"]["metrics"].items()
            },
        }
        for name, entry in metrics.items():
            if name in bounds:
                print(f"  {name}: median {entry['median']:.4f} "
                      f"spread {entry['spread']:.4f} (bound {bounds[name]})")
    report["sharding"] = shard_compare(SHARD_PAIRS)
    with open(os.path.join(HERE, "BASELINE.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
