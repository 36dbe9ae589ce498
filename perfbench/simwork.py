"""One simulator repetition in a fresh process (spawned by ``run.py``).

    python3 perfbench/simwork.py setup <workload> <seed>
    python3 perfbench/simwork.py run <workload> <seed> <timed|check|traced> <scratch dir> [preset]

``setup`` times the package import plus one ``build_world`` of the
workload's preset. ``run`` times one ``run_simulation``, checks its
outputs and reads its deterministic counters. ``timed`` then times
``run_all`` on a cold index; ``check`` instead takes the ``store_digest``
of the measurement store (about a third of a simulation's time on the
bench preset, so timed runs skip it); ``traced`` does both, with the
layer spans on. Each prints one JSON object as its last line. The
preset defaults to ``bench``; the benchmark's own tests pass ``tiny``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from tracing import (  # noqa: E402
    Tracer,
    covered,
    engine_layer_metrics,
    install_sim_wrappers,
)

PRESET = "bench"

#: Workload name -> run_simulation keyword arguments (spill_dir is added
#: per run when "spill" is set). The two shards of sim-hybrid run one
#: after the other in this process: on a shared 2-vCPU host a parallel
#: run's wall swings by a third from run to run, with the two workers'
#: speeds coupled by whatever shares their cores.
WORKLOADS = {
    "sim-default": {},
    "sim-hybrid": {
        "chain": "hybrid",
        "scenario": "combined-assault",
        "shards": 2,
        "shard_jobs": 1,
        "spill": True,
    },
}


def _max_rss_mb() -> float:
    """This process's high-water RSS in MB (``ru_maxrss`` is KiB on
    Linux); the shards of sim-hybrid run in this process too."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def setup(workload: str, seed: int) -> dict:
    from repro.experiments.runner import run_simulation  # noqa: F401
    from repro.util.rng import RngStreams
    from repro.workload.calibration import DEFAULT_CALIBRATION
    from repro.workload.entities import build_world
    from repro.workload.scale import get_preset

    build_world(get_preset(PRESET), DEFAULT_CALIBRATION, RngStreams(seed))
    return {"setup_s": time.perf_counter() - _STARTED}


def counters(result) -> dict:
    """Deterministic counters read from the public result objects."""
    from repro.analysis.store import TABLES

    store = result.store
    ledger = result.ledger_stats
    faults = result.fault_stats
    cache = result.cache_stats
    memory = result.memory_stats
    out = {
        "events_processed": result.events_processed,
        "mta_messages": len(store.mta),
        "store_rows": sum(len(getattr(store, table)) for table in TABLES),
        "store_spilled_bytes": memory.store_spilled_bytes,
    }
    for field in (
        "accepted", "delivered", "black_dropped", "filter_dropped",
        "quarantined_total", "released", "deleted", "expired",
        "pending_at_horizon", "stranded", "leaked_challenge_slots",
    ):
        out[f"ledger.{field}"] = getattr(ledger, field)
    for field in (
        "messages_sent", "delivered", "bounced", "expired", "drained",
        "retries_scheduled",
    ):
        out[f"delivery.{field}"] = getattr(faults, field)
    for field in (
        "dns_hits", "dns_misses", "dnsbl_hits", "dnsbl_misses",
        "route_hits", "route_misses",
    ):
        out[f"cache.{field}"] = getattr(cache, field)
    shards = result.shard_stats
    if shards is not None:
        out["shard.exchange_rows"] = shards.exchange_rows
        for perf in shards.per_shard:
            out[f"shard.{perf.index}.local_rows"] = perf.local_rows
            out[f"shard.{perf.index}.remote_rows"] = perf.remote_rows
            out[f"shard.{perf.index}.events"] = perf.events_processed
    return out


def checks(result) -> dict:
    """Output checks: conservation on both sides of the engine and, for
    sharded runs, an exchange that every shard saw in full."""
    ledger = result.ledger_stats
    out = {
        "ledger_conserved": bool(ledger.conserved)
        and ledger.accepted == ledger.terminal_total
        and ledger.stranded == 0,
        "delivery_conserved": bool(result.fault_stats.conserved),
    }
    shards = result.shard_stats
    if shards is not None:
        rows = shards.exchange_rows
        out["exchange_reconciled"] = (
            rows > 0
            and sum(p.local_rows for p in shards.per_shard) == rows
            and all(p.local_rows + p.remote_rows == rows for p in shards.per_shard)
        )
    return out


def layer_metrics(tracer, result, run_window) -> dict:
    """Per-layer figures of one traced repetition (see BENCHMARK.json)."""
    from repro.analysis.store import TABLES

    shards = result.shard_stats
    per_shard = shards.per_shard if shards is not None else ()
    walls = [p.wall_seconds for p in per_shard]
    cache = result.cache_stats
    store = result.store
    metrics = engine_layer_metrics(tracer)
    metrics.update({
        "workload.plan.s": tracer.inclusive("workload.plan"),
        "workload.campaign_spawn.s": tracer.inclusive("workload.campaign_spawn"),
        "workload.messages": len(store.mta),
        "sim.events": result.events_processed,
        "net.dns.hit_rate": cache.dns_hit_rate,
        "net.route.hit_rate": cache.route_hit_rate,
        "net.exchange.rows": shards.exchange_rows if shards is not None else 0,
        "blacklistd.dnsbl.hit_rate": cache.dnsbl_hit_rate,
        "analysis.store.rows": sum(len(getattr(store, t)) for t in TABLES),
        "analysis.store.spilled_mb": result.memory_stats.store_spilled_bytes / 1e6,
        "experiments.shard.wall_max_s": max(walls) if walls else 0.0,
        "experiments.shard.wall_skew": (
            max(walls) / (sum(walls) / len(walls)) if walls else 0.0
        ),
        "experiments.merge.s": tracer.inclusive("experiments.merge"),
    })
    lo, hi = run_window
    metrics["trace.unattributed_share"] = 1.0 - covered(
        [(s, e) for _name, s, e in tracer.roots], lo, hi
    ) / (hi - lo)
    return metrics


MODES = ("timed", "check", "traced")


def run(
    workload: str, seed: int, mode: str, scratch: str, preset: str = PRESET
) -> dict:
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        install_sim_wrappers(tracer)
    from repro.experiments.parallel import store_digest
    from repro.experiments.registry import run_all
    from repro.experiments.runner import run_simulation

    kwargs = dict(WORKLOADS[workload])
    spill_dir = None
    if kwargs.pop("spill", False):
        spill_dir = os.path.join(scratch, f"spill-{os.getpid()}")
        kwargs["spill_dir"] = spill_dir
    try:
        started = time.perf_counter()
        result = run_simulation(preset, seed=seed, **kwargs)
        finished = time.perf_counter()
        peak_rss_mb = _max_rss_mb()
        out = {
            "wall_s": finished - started,
            "msgs_per_s": len(result.store.mta) / (finished - started),
            "peak_rss_mb": peak_rss_mb,
            "checks": checks(result),
            "counters": counters(result),
        }
        if mode != "timed":
            out["counters"]["store_digest"] = store_digest(result.store)
        if mode != "check":
            result.store.drop_indices()
            report_started = time.perf_counter()
            if tracer is not None:
                with tracer.span("analysis.render"):
                    report = run_all(result)
            else:
                report = run_all(result)
            out["report_s"] = time.perf_counter() - report_started
            out["checks"]["report_rendered"] = len(report) > 0
        if tracer is not None:
            layers = layer_metrics(tracer, result, (started, finished))
            layers["analysis.render.s"] = tracer.self_seconds("analysis.render")
            layers["analysis.index.s"] = tracer.inclusive("analysis.index")
            out["layers"] = layers
        return out
    finally:
        if spill_dir is not None:
            shutil.rmtree(spill_dir, ignore_errors=True)


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown simulator workload {workload!r}")
    if mode == "setup":
        out = setup(workload, seed)
    elif mode == "run" and argv[3] in MODES:
        out = run(workload, seed, argv[3], argv[4], *argv[5:6])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
