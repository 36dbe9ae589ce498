"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sim-default --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

* ``sim-default`` — ``run_simulation("bench", seed)``: all 47 companies,
  default chain, one process, store in memory.
* ``sim-hybrid`` — the same preset with the hybrid chain, the
  ``combined-assault`` scenario, two shards run in turn and a spilled
  store.
* ``live`` — ``repro serve --preset tiny`` subprocesses under an
  open-loop SMTP load at 250, 500 and 1,000 msgs/s over two sessions and
  at 4,000 msgs/s over 64, then a restart.

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` it makes one untraced and one traced pass on
the same seed and reports the per-layer metrics, the tracing overhead
and the unattributed share. Every metric is printed by name and unit;
the last line of standard output is the JSON result. Any failed output
check fails the command (exit code 1); a checkout without the program's
sources fails it before anything runs (exit code 2).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space and the per-seed counter record, inside the checkout.
STATE_DIR = os.path.join(ROOT, ".perfbench-state")
WORKLOADS = ("sim-default", "sim-hybrid", "live")
#: Fresh-process set-ups before each simulator repetition and after the
#: last one; the median of all of them is reported. Spreading them over
#: the run samples more of the host's slow and fast phases.
SETUP_BATCH = 5
CHILD_TIMEOUT_S = 170.0

#: Units of the figures each workload prints beyond the end-to-end set.
EXTRA_UNITS = {
    "report_s": "s",
    "reps": "count",
    "restart_s": "s",
    "capacity_msgs_s": "1/s",
    "saturated_msgs_s": "1/s",
    "accept_p50_ms.r250": "ms",
    "accept_p99_ms.r250": "ms",
    "accept_p50_ms.r500": "ms",
    "accept_p99_ms.r500": "ms",
}


def declared_metrics() -> tuple:
    """``(end-to-end, per-layer)`` name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def fingerprint() -> str:
    """Content hash of the program and the benchmark, so the counter
    record compares repeats of one seed on one version only."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _child(args: list) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "simwork.py")] + args,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"simwork {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare_counters(
    workload: str, seed: int, seconds: float, reps: list, checks: dict
) -> None:
    """Flag any deterministic counter that differs between repeats of one
    seed, within this run and against earlier runs of this version and
    run length (a counter only some repeats read, like ``store_digest``,
    is compared where present)."""
    key = f"{workload}/{seed}/{seconds:g}/{fingerprint()}"
    path = os.path.join(STATE_DIR, "counters.json")
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (FileNotFoundError, ValueError):
        record = {}
    reference = dict(record.get(key, {}))
    differing = set()
    for rep in reps:
        for name, value in rep["counters"].items():
            if reference.setdefault(name, value) != value:
                differing.add(name)
    for name in sorted(differing):
        print(f"FLAG counter {name} differs between repeats of seed {seed}")
    checks["counters_repeat"] = not differing
    if reference != record.get(key):
        record[key] = reference
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)


def run_sim(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Untraced: set-up probes, then repetitions until *seconds* would be
    exceeded (at least one). Traced: one untraced and one traced
    repetition of the same seed, both with the store digest."""
    reps = []
    checks: dict = {}

    def one(mode: str) -> dict:
        started = time.perf_counter()
        rep = _child(["run", workload, str(seed), mode, STATE_DIR])
        rep["elapsed_s"] = time.perf_counter() - started
        for name, ok in rep["checks"].items():
            checks[name] = checks.get(name, True) and ok
        reps.append(rep)
        return rep

    if trace:
        plain = one("check")
        traced = one("traced")
        figures = dict(traced["layers"])
        figures["trace.overhead_share"] = plain["msgs_per_s"] / traced["msgs_per_s"] - 1
    else:
        setups: list = []

        def probe_setups() -> None:
            for _ in range(SETUP_BATCH):
                setups.append(_child(["setup", workload, str(seed)])["setup_s"])

        measured = 0.0
        while True:
            probe_setups()
            rep = one("timed")
            measured += rep["elapsed_s"]
            if measured + rep["elapsed_s"] > seconds:
                break
        probe_setups()
        figures = {
            "setup_s": median(setups),
            "msgs_per_s": median([r["msgs_per_s"] for r in reps]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
            "report_s": median([r["report_s"] for r in reps]),
            "reps": len(reps),
        }
    compare_counters(workload, seed, seconds, reps, checks)
    for name, value in sorted(reps[0]["counters"].items()):
        print(f"counter {name} = {value}")
    return {
        "figures": figures,
        "checks": checks,
        "attempted": len(reps),
        "failed": sum(not all(r["checks"].values()) for r in reps),
    }


def run_live(seed: int, seconds: float, trace: bool) -> dict:
    """Untraced: one pass of every step and the restart. Traced: one
    untraced and one traced pass on the same seed."""
    from livework import counters, layer_metrics, run_pass, summarize

    workdir = os.path.join(STATE_DIR, f"live-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        passes = [run_pass(ROOT, workdir, seed, seconds, traced=False)]
        if trace:
            passes.append(run_pass(ROOT, workdir, seed, seconds, traced=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks: dict = {}
    attempted = failed = 0
    for index, result in enumerate(passes):
        for name, ok in result["checks"].items():
            checks[f"pass{index}.{name}"] = ok
        for step in result["steps"]:
            attempted += step["offered"]
            failed += step["offered"] - step["acked"]
    summaries = [summarize(result) for result in passes]
    for step in passes[0]["steps"]:
        print(
            f"step r{step['rate']}: offered {step['offered']}, acked "
            f"{step['acked']}, failed {step['failed']}, delivered "
            f"{step['delivered_rate']:.1f}/s, p50 {step['p50_ms']} ms, "
            f"p{100 * (step['p99_rank'] or 0):.1f} {step['p99_ms']} ms over "
            f"{len(step['latencies_ms'])} samples, "
            f"server cpu {step['server_cpu_ms_per_msg']:.4f} ms/msg, "
            f"client cpu {step['client_cpu_ms_per_msg']:.4f} ms/msg"
        )
    per_pass = [counters(result) for result in passes]
    compare_counters(
        "live", seed, seconds, [{"counters": fixed} for fixed, _ in per_pass], checks
    )
    fixed, timing = per_pass[0]
    for name, value in sorted({**fixed, **timing}.items()):
        print(f"counter {name} = {value}")
    if trace:
        figures = layer_metrics(passes[0], passes[1])
        figures["trace.overhead_share"] = (
            summaries[0]["saturated_msgs_s"] / summaries[1]["saturated_msgs_s"] - 1
        )
    else:
        figures = summaries[0]
    return {
        "figures": figures,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program sources (src/repro) in this checkout",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    os.makedirs(STATE_DIR, exist_ok=True)
    try:
        if args.workload == "live":
            out = run_live(args.seed, args.seconds, bool(args.trace))
        else:
            out = run_sim(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload} seed {args.seed} failed: {exc}",
              file=sys.stderr)
        return 1
    figures = out["figures"]
    # A layer the workload bypasses reads 0 (nothing was recorded).
    reported = per_layer if args.trace else end_to_end
    metrics = {
        name: {"value": figures.get(name, 0.0), "unit": unit}
        for name, unit in reported.items()
    }
    for name, ok in sorted(out["checks"].items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']} {entry['unit']}")
    for name, value in figures.items():
        if name not in metrics and name in EXTRA_UNITS:
            print(f"metric {name} = {value} {EXTRA_UNITS[name]}")
    correct = all(out["checks"].values()) and out["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
