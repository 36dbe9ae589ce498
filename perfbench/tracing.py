"""Span tracing for the benchmark's traced runs.

The program under test carries no tracing of its own. A traced run
replaces, from here, the functions at each layer boundary with wrappers
that open and close a span around the original call. They must be
installed before the deployment is built: the trace generator binds
``CompanyInstallation.handle_inbound`` when it is constructed, and the
recurring jobs bind their callbacks when they are armed.

Spans nest synchronously, so a span's *self time* is its duration minus
the union of its children's intervals (:func:`self_time`). The hot
spans run millions of times per simulation, so the tracer aggregates
each span name on the fly (calls, inclusive seconds, self seconds,
"hits") and keeps individual intervals only for top-level spans, which
give the share of wall time no layer accounts for.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Iterable, Optional, Sequence, Tuple

Interval = Tuple[float, float]


def covered(intervals: Iterable[Interval], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start = max(start, lo)
        end = min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float, children: Sequence[Interval]) -> float:
    """A span's duration minus the part of it its children cover.

    Overlapping children are counted once; children reaching outside the
    span are clipped.
    """
    return (end - start) - covered(children, start, end)


class Tracer:
    """In-memory span aggregator for one process.

    ``stats[name]`` is ``[calls, inclusive_s, self_s, hits]``; *hits* is
    whatever boolean the wrapper's classifier reports per call (a filter
    drop, an MTA-IN refusal, a delivered attempt). ``roots`` holds the
    ``(name, start, end)`` of every span that had no open parent.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict = {}
        self.roots: list = []
        #: Open frames: [name, start, covered_by_children, last_child_end].
        self._stack: list = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0, float("-inf")])

    def exit(self, hit: bool = False) -> None:
        end = self.clock()
        name, start, child_cover, _last = self._stack.pop()
        duration = end - start
        row = self.stats.get(name)
        if row is None:
            row = self.stats[name] = [0, 0.0, 0.0, 0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child_cover
        if hit:
            row[3] += 1
        if self._stack:
            # Children close in start order, so the union of a frame's
            # children grows by whatever part of this one lies past the
            # previous child's end (the same arithmetic as self_time).
            parent = self._stack[-1]
            lo = start if start > parent[3] else parent[3]
            if end > lo:
                parent[2] += end - lo
                parent[3] = end
        else:
            self.roots.append((name, start, end))

    def span(self, name: str):
        return _Span(self, name)

    def reset(self) -> None:
        self.stats = {}
        self.roots = []
        self._stack = []

    def export(self) -> dict:
        """JSON-ready snapshot (times are this host's monotonic clock)."""
        return {"stats": self.stats, "roots": self.roots}

    def absorb(self, exported: dict) -> None:
        """Add another process's exported spans to this tracer."""
        for name, row in exported["stats"].items():
            mine = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                mine[i] += row[i]
        self.roots.extend(tuple(root) for root in exported["roots"])

    # -- reading ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def inclusive(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def hit_share(self, name: str) -> float:
        row = self.stats.get(name)
        return row[3] / row[0] if row and row[0] else 0.0


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.exit()


def wrap(
    tracer: Tracer,
    owner: object,
    attr: str,
    name: str,
    hit: Optional[Callable[[object], bool]] = None,
) -> None:
    """Replace ``owner.attr`` (a class or module function) with a spanned
    wrapper. *hit* classifies the return value for the span's hit count."""
    original = getattr(owner, attr)
    enter = tracer.enter
    leave = tracer.exit
    if hit is None:

        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                leave()

    else:

        def wrapper(*args, **kwargs):
            enter(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                leave(hit(result))

    functools.update_wrapper(wrapper, original)
    setattr(owner, attr, wrapper)


#: Filter-chain members whose ``should_drop`` gets its own span.
FILTER_CLASSES = (
    ("repro.core.filters.antivirus", "AntivirusFilter"),
    ("repro.core.filters.reverse_dns", "ReverseDnsFilter"),
    ("repro.core.filters.rbl", "RblFilter"),
    ("repro.core.filters.spf", "SpfFilter"),
    ("repro.core.filters.content", "OnlineNaiveBayesFilter"),
    ("repro.core.filters.reputation", "SenderReputationFilter"),
)

STORE_APPENDS = (
    "add_mta",
    "add_dispatch",
    "add_challenge",
    "add_challenge_outcome",
    "add_web_access",
    "add_release",
    "add_whitelist_change",
    "add_digest",
    "add_expiry",
    "add_outbound",
    "add_probe",
    "add_crash",
)


def install_engine_wrappers(tracer: Tracer) -> None:
    """Spans around the event loop, the CR core, its filters, MTA-OUT, the
    DNSBL monitor and the log store — the layers the simulator and the
    live server share."""
    import importlib

    from repro.analysis.store import LogStore
    from repro.blacklistd.monitor import BlacklistMonitor
    from repro.core.dispatcher import Dispatcher
    from repro.core.engine import CompanyInstallation
    from repro.core.filters.spf import SpfEvaluator
    from repro.core.mta_in import MtaIn
    from repro.core.spools import Category
    from repro.net.internet import Internet
    from repro.net.mta_out import OutboundMta
    from repro.sim.engine import Simulator

    wrap(tracer, Simulator, "run", "sim.loop")
    wrap(tracer, CompanyInstallation, "handle_inbound", "core.inbound")
    wrap(tracer, MtaIn, "check", "core.mta_in", hit=lambda r: r is not None)
    wrap(
        tracer,
        Dispatcher,
        "process",
        "core.dispatcher",
        hit=lambda d: d is not None and d.category is Category.GRAY,
    )
    wrap(tracer, SpfEvaluator, "evaluate_message", "core.spf")
    wrap(tracer, CompanyInstallation, "_digest_run", "core.digest")
    wrap(tracer, CompanyInstallation, "_expiry_run", "core.expiry")
    for module_name, class_name in FILTER_CLASSES:
        cls = getattr(importlib.import_module(module_name), class_name)
        wrap(tracer, cls, "should_drop", f"core.filters.{cls.name}", hit=bool)
    wrap(tracer, OutboundMta, "send", "net.mta_out.send")
    wrap(
        tracer,
        Internet,
        "submit",
        "net.mta_out.attempt",
        hit=lambda r: r is not None and r.accepted,
    )
    wrap(tracer, BlacklistMonitor, "probe_once", "blacklistd.monitor")
    for attr in STORE_APPENDS:
        wrap(tracer, LogStore, attr, "analysis.store.append")


#: Filter-chain members with a per-member metric (SPF is ``core.spf``).
FILTER_MEMBERS = ("antivirus", "reverse_dns", "rbl", "content", "reputation")


def engine_layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of the spans :func:`install_engine_wrappers`
    records; each workload adds its own figures to these."""
    metrics = {
        "sim.loop.self_s": tracer.self_seconds("sim.loop"),
        "core.inbound.self_s": tracer.self_seconds("core.inbound"),
        "core.mta_in.s": tracer.inclusive("core.mta_in"),
        "core.mta_in.drop_share": tracer.hit_share("core.mta_in"),
        "core.dispatcher.self_s": tracer.self_seconds("core.dispatcher"),
        "core.dispatcher.gray_share": tracer.hit_share("core.dispatcher"),
        "core.spf.s": tracer.inclusive("core.spf"),
        "core.digest.s": tracer.inclusive("core.digest"),
        "core.expiry.s": tracer.inclusive("core.expiry"),
        "net.mta_out.send.s": tracer.inclusive("net.mta_out.send"),
        "net.mta_out.attempts": tracer.calls("net.mta_out.attempt"),
        "net.mta_out.delivered_share": tracer.hit_share("net.mta_out.attempt"),
        "blacklistd.monitor.s": tracer.inclusive("blacklistd.monitor"),
        "analysis.store.append.s": tracer.inclusive("analysis.store.append"),
    }
    for member in FILTER_MEMBERS:
        name = f"core.filters.{member}"
        metrics[f"{name}.s"] = tracer.inclusive(name)
        metrics[f"{name}.drop_share"] = tracer.hit_share(name)
    return metrics


def install_sim_wrappers(tracer: Tracer) -> None:
    """Everything :func:`install_engine_wrappers` covers, plus the trace
    generator, the analysis index and the shard runner."""
    import repro.experiments.runner as runner
    import repro.experiments.sharded as sharded
    from repro.analysis.index import AnalysisIndex
    from repro.workload.entities import World
    from repro.workload.generator import TraceGenerator

    install_engine_wrappers(tracer)
    wrap(tracer, runner, "build_world", "workload.build")
    wrap(tracer, TraceGenerator, "_plan_day", "workload.plan")
    wrap(tracer, World, "create_bot_ips", "workload.campaign_spawn")
    wrap(tracer, AnalysisIndex, "_get", "analysis.index")
    # sim-hybrid runs its shards in this process (shard_jobs=1), so the
    # wrappers above see the shards' work directly.
    wrap(tracer, sharded, "_run_shard", "experiments.shard")
    wrap(tracer, sharded, "_merge_stores", "experiments.merge")


def install_serve_wrappers(tracer: Tracer) -> dict:
    """Spans for the live server process. Returns a dict that receives
    the :class:`LiveCrService` instance once it recovers, so the launcher
    can read its substrate counters when the server stops."""
    from repro.serve.service import LiveCrService
    from repro.serve.wal import WriteAheadLog

    install_engine_wrappers(tracer)
    wrap(tracer, WriteAheadLog, "append", "serve.wal.append")
    wrap(tracer, WriteAheadLog, "flush", "serve.wal.fsync")
    wrap(tracer, LiveCrService, "_apply", "serve.engine.apply")
    captured: dict = {}
    recover = LiveCrService.recover

    def recover_captured(self):
        captured["service"] = self
        return recover(self)

    LiveCrService.recover = recover_captured
    wrap(tracer, LiveCrService, "recover", "serve.recover")
    return captured
