#!/usr/bin/env python3
"""Profile one full simulation + report generation with cProfile.

Future perf PRs should start from this data instead of guessing: the
harness runs one :class:`RunSpec` at a chosen preset, renders every report
off the resulting store, and prints the top cumulative hotspots of each
stage separately (the simulation and the analysis have very different
profiles and optimising one tells you nothing about the other).

Usage::

    PYTHONPATH=src python scripts/profile_run.py --preset small --seed 11
    PYTHONPATH=src python scripts/profile_run.py --top 40 --sort tottime
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import shutil
import sys
import tempfile
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.experiments import RunSpec, run  # noqa: E402
from repro.experiments.registry import run_all  # noqa: E402
from repro.util.simtime import DAY  # noqa: E402


def _print_stats(profiler: cProfile.Profile, sort: str, top: int) -> None:
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(top)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--preset",
        default="small",
        help="scale preset to simulate (default: small)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--faults",
        default=None,
        help="fault-injection preset (off/mild/stormy; default: off)",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="enable the continuous lifecycle audit (to profile its cost)",
    )
    parser.add_argument(
        "--crashes",
        default=None,
        help="crash-fault preset (off/rare/flaky; default: off)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=float,
        default=None,
        metavar="DAYS",
        help="write snapshots every N sim-days (to profile their cost)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="run the sharded data plane with N company shards",
    )
    parser.add_argument(
        "--shard-jobs",
        type=int,
        default=None,
        metavar="N",
        help="concurrent shard workers (1 = sequential in-process)",
    )
    parser.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help=(
            "spill store chunks under DIR (default: a temporary "
            "directory when --spill is given)"
        ),
    )
    parser.add_argument(
        "--spill",
        action="store_true",
        help="enable the streaming spill store in a temporary directory",
    )
    parser.add_argument(
        "--top", type=int, default=25, help="hotspot rows to print per stage"
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        help="pstats sort key (cumulative, tottime, ncalls, ...)",
    )
    args = parser.parse_args(argv)

    checkpoint_dir = None
    if args.checkpoint_every is not None:
        checkpoint_dir = tempfile.mkdtemp(prefix="profile-ckpt-")
    spill_dir = args.spill_dir
    spill_tmp = None
    if args.spill and spill_dir is None:
        spill_dir = spill_tmp = tempfile.mkdtemp(prefix="profile-spill-")

    sim_profiler = cProfile.Profile()
    sim_profiler.enable()
    spec = RunSpec(
        args.preset,
        seed=args.seed,
        faults=args.faults,
        audit=args.audit,
        crashes=args.crashes,
        checkpoint_every=(
            args.checkpoint_every * DAY
            if args.checkpoint_every is not None
            else None
        ),
        shards=args.shards,
    )
    result = run(
        spec,
        checkpoint_dir=checkpoint_dir,
        shard_jobs=args.shard_jobs,
        spill_dir=spill_dir,
    )
    sim_profiler.disable()

    result.store.drop_indices()  # profile a cold analysis index
    report_profiler = cProfile.Profile()
    started = time.perf_counter()
    report_profiler.enable()
    report = run_all(result)
    report_profiler.disable()
    report_seconds = time.perf_counter() - started

    counts = result.store.summary_counts()
    print(f"preset={args.preset} seed={args.seed}")
    print(
        f"simulation: {result.wall_seconds:.2f}s wall, "
        f"{result.events_processed} events, "
        f"{sum(counts.values())} log records"
    )
    memory = result.memory_stats
    if memory is not None:
        print(
            f"peak memory: {memory.max_rss_bytes / 1e6:,.0f} MB RSS; store "
            f"{memory.store_live_rows:,} rows "
            f"({memory.store_live_bytes / 1e6:,.1f} MB) live, "
            f"{memory.store_spilled_bytes / 1e6:,.1f} MB spilled"
        )
    shard_stats = result.shard_stats
    if shard_stats is not None and hasattr(shard_stats, "per_shard"):
        print(
            f"shards: {shard_stats.n_shards} "
            f"(max shard wall {shard_stats.max_shard_wall_seconds:.2f}s, "
            f"{shard_stats.exchange_rows:,} exchange rows)"
        )
        for perf in shard_stats.per_shard:
            print(
                f"  shard {perf.index}: {perf.companies} companies, "
                f"{perf.events_processed:,} events, {perf.wall_seconds:.2f}s, "
                f"RSS {perf.max_rss_bytes / 1e6:,.0f} MB"
            )
    stats = result.cache_stats
    print(
        "substrate caches: "
        f"dns {stats.dns_hits}/{stats.dns_hits + stats.dns_misses} hit "
        f"({100 * stats.dns_hit_rate:.1f}%), "
        f"dnsbl {stats.dnsbl_hits}/{stats.dnsbl_hits + stats.dnsbl_misses} "
        f"({100 * stats.dnsbl_hit_rate:.1f}%), "
        f"route {stats.route_hits}/{stats.route_hits + stats.route_misses} "
        f"({100 * stats.route_hit_rate:.1f}%)"
    )
    crash = result.crash_stats
    if crash is not None and crash.enabled:
        print(
            f"crash injection: {crash.crashes} crashes, "
            f"{crash.inbound_deferred} inbound deferred, "
            f"{crash.redriven} re-driven, {crash.lost} lost"
        )
    ckpt = result.checkpoint_stats
    if ckpt is not None and ckpt.written:
        print(
            f"checkpointing: {ckpt.written} snapshots, "
            f"{ckpt.write_seconds:.3f}s total write "
            f"({ckpt.mean_write_seconds:.3f}s mean, "
            f"{100 * ckpt.write_seconds / result.wall_seconds:.1f}% of wall)"
        )
        from repro.core.recovery import latest_checkpoint, load_checkpoint

        # Sharded runs snapshot under per-shard subdirectories; time the
        # restore of shard 0's newest snapshot in that case.
        snapshot = latest_checkpoint(checkpoint_dir) or latest_checkpoint(
            pathlib.Path(checkpoint_dir) / "shard-0"
        )
        if snapshot is not None:
            started_restore = time.perf_counter()
            load_checkpoint(snapshot)
            print(
                f"restore from {pathlib.Path(snapshot).name}: "
                f"{time.perf_counter() - started_restore:.3f}s"
            )
    if checkpoint_dir is not None:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    print(f"report generation: {report_seconds:.3f}s, {len(report)} chars")
    if spill_tmp is not None:
        shutil.rmtree(spill_tmp, ignore_errors=True)

    print(f"\n--- simulation hotspots (top {args.top}, {args.sort}) ---")
    _print_stats(sim_profiler, args.sort, args.top)
    print(f"\n--- report-generation hotspots (top {args.top}, {args.sort}) ---")
    _print_stats(report_profiler, args.sort, args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
