"""The ``live`` workload: ``repro serve`` under an open-loop SMTP load.

Each offered-rate step boots a fresh ``repro serve --preset tiny``
subprocess (shipped defaults: hybrid chain, group-commit WAL) on an
empty WAL and drives it from this process over persistent SMTP
sessions (:data:`CONNECTIONS`, or :data:`SATURATION_CONNECTIONS` at the
saturation step). Message ``i`` of a step is due at
``start + i / rate`` whatever the server is doing, and its accept
latency is measured from that due time, so a stall shows up in every
message queued behind it. After the steps, the server restarts on the
WAL the :data:`RESTART_RATE` step wrote.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median
from typing import List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.serve.sstress import (  # noqa: E402
    StressConfig,
    _Outcome,
    _SmtpSession,
    build_messages,
    default_senders,
)
from stats import capacity, tail_percentile  # noqa: E402
from tracing import Tracer, covered, engine_layer_metrics  # noqa: E402

#: Offered rates (msgs/s). Accept latency is reported at the fixed rates;
#: :data:`SATURATION_RATE` offers more than the server can carry.
RATES = (250, 500, 1000, 4000)
LATENCY_RATES = (250, 500)
SATURATION_RATE = 4000
#: Messages per step, as a share of ``rate * seconds``. The saturation
#: step's share is small because it drains at the server's pace.
STEP_SHARE = {250: 0.35, 500: 0.25, 1000: 0.2, 4000: 0.2}
#: SMTP sessions at the fixed-rate steps (= nproc of the reference host)
#: and at the saturation step. Two sessions carry only what their round
#: trips allow, which swings with the host's wake-up latency; 64 keep
#: the server busy, so the step measures the server, not the scheduler.
CONNECTIONS = 2
SATURATION_CONNECTIONS = 64
RESTART_RATE = 500
#: Extra boot-to-ready cycles on an empty WAL, for a steadier setup_s.
EXTRA_SETUPS = 2
#: Per-company ledger outcomes summed into each step's counters.
LEDGER_FIELDS = ("delivered", "black_dropped", "filter_dropped", "quarantined_total")
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` subprocess (or the traced launcher around it)."""

    def __init__(self, root: str, workdir: str, tag: str, wal: str, traced: bool):
        self.workdir = workdir
        self.endpoints_path = os.path.join(workdir, f"{tag}.endpoints.json")
        self.trace_path = os.path.join(workdir, f"{tag}.trace.json")
        self.stderr_path = os.path.join(workdir, f"{tag}.stderr")
        for stale in (self.endpoints_path, self.trace_path):
            if os.path.exists(stale):
                os.remove(stale)
        serve_args = [
            "serve", "--preset", "tiny", "--wal", wal,
            "--endpoints-file", self.endpoints_path,
        ]
        if traced:
            argv = [
                sys.executable,
                os.path.join(root, "perfbench", "serve_launcher.py"),
                self.trace_path,
            ] + serve_args
        else:
            argv = [sys.executable, "-m", "repro"] + serve_args
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._stderr = open(self.stderr_path, "wb")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._stderr
        )
        self.endpoints: dict = {}

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/readyz`` answers 200."""
        deadline = self.spawned + READY_TIMEOUT_S
        while not self.endpoints:
            self._check_alive(deadline)
            try:
                with open(self.endpoints_path) as fh:
                    self.endpoints = json.load(fh)
            except (FileNotFoundError, ValueError):
                time.sleep(0.002)
        while True:
            self._check_alive(deadline)
            try:
                status, _body = self.get("/readyz")
            except OSError:
                status = None
            if status == 200:
                return time.perf_counter() - self.spawned
            time.sleep(0.002)

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited with {self.proc.returncode} before ready; "
                f"see {self.stderr_path}"
            )
        if time.perf_counter() > deadline:
            raise RuntimeError("server not ready in time")

    def get(self, path: str):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.endpoints["web_port"], timeout=10
        )
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's RSS high-water mark (``VmHWM``), in MB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> dict:
        """SIGTERM, wait, and return the shutdown reconciliation."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            out, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        finally:
            self.kill()
        shutdown = {}
        for line in out.decode(errors="replace").splitlines():
            if line.startswith('{"shutdown"'):
                shutdown = json.loads(line)["shutdown"]
        shutdown["exit_code"] = self.proc.returncode
        return shutdown

    def kill(self) -> None:
        """Make sure the process is gone (idempotent)."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()

    def trace(self) -> Optional[dict]:
        try:
            with open(self.trace_path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None


async def drive(config: StressConfig, messages: list) -> dict:
    """Offer *messages* open-loop at ``config.rate`` over
    ``config.connections`` sessions of ``repro sstress``'s SMTP client.
    Unlike ``run_stress`` it keeps every latency and how late each
    message left, for the percentile rule, and retries nothing."""
    latencies: List[float] = []
    late: List[float] = []
    state = {"next": 0, "acked": 0, "failed": 0, "last_reply": None}
    outcome = _Outcome()
    body = b"x" * config.body_bytes
    start = time.perf_counter() + 0.05

    async def sender() -> None:
        session = _SmtpSession(config.host, config.smtp_port, outcome)
        try:
            while state["next"] < len(messages):
                index = state["next"]
                state["next"] += 1
                due = start + index / config.rate
                now = time.perf_counter()
                if due > now:
                    await asyncio.sleep(due - now)
                    now = time.perf_counter()
                late.append((now - due) * 1000.0)
                code = await session.send(
                    *messages[index], body, config.exchange_deadline
                )
                replied = time.perf_counter()
                state["last_reply"] = replied
                if code == 250:
                    state["acked"] += 1
                    latencies.append((replied - due) * 1000.0)
                else:
                    state["failed"] += 1
        finally:
            session._drop()

    await asyncio.gather(*(sender() for _ in range(config.connections)))
    elapsed = (state["last_reply"] or start) - start
    return {
        "rate": config.rate,
        "offered": len(messages),
        "acked": state["acked"],
        "failed": state["failed"],
        "delivered_rate": state["acked"] / elapsed if elapsed > 0 else 0.0,
        "latencies_ms": latencies,
        "late_ms": late,
    }


def run_pass(root: str, workdir: str, seed: int, seconds: float, traced: bool) -> dict:
    """Every step plus the restart, on fresh servers; returns raw results."""
    label = "traced" if traced else "plain"
    setups: List[float] = []
    steps: List[dict] = []
    checks: dict = {}
    rss: List[float] = []
    traces: List[dict] = []
    recipients: List[str] = []
    restart_wal = None
    servers: List[Server] = []
    try:
        for rate in RATES:
            wal = os.path.join(workdir, f"{label}-{rate}.wal")
            server = Server(root, workdir, f"{label}-{rate}", wal, traced)
            servers.append(server)
            setups.append(server.wait_ready())
            if not recipients:
                directory = server.get("/directory")[1]
                recipients = [u for c in directory["companies"] for u in c["users"]]
            # Every step offers the same seeded mix; only the rate differs.
            config = StressConfig(
                smtp_port=server.endpoints["smtp_port"],
                rate=rate,
                messages=max(1, int(rate * seconds * STEP_SHARE[rate])),
                connections=(
                    SATURATION_CONNECTIONS if rate == SATURATION_RATE else CONNECTIONS
                ),
                seed=seed,
            )
            messages = build_messages(config, recipients, default_senders())
            cpu_before = server.cpu_s()
            client_before = time.process_time()
            step = asyncio.run(drive(config, messages))
            step["client_cpu_ms_per_msg"] = (
                (time.process_time() - client_before) * 1000.0 / max(1, step["acked"])
            )
            step["server_cpu_ms_per_msg"] = (
                (server.cpu_s() - cpu_before) * 1000.0 / max(1, step["acked"])
            )
            status, view = server.get("/stats")
            rss.append(server.peak_rss_mb())
            shutdown = server.stop()
            recon = view["reconciliation"]
            checks[f"r{rate}.stats_cover_acked"] = (
                status == 200
                and view["service"]["acked"] == step["acked"]
                and recon["accepted"] == step["acked"]
                and recon["reconciled"]
            )
            checks[f"r{rate}.shutdown_reconciled"] = (
                shutdown.get("reconciled") is True and shutdown["exit_code"] == 0
            )
            step["stats"] = view["service"]
            step["ledger"] = {
                field: sum(c[field] for c in recon["per_company"].values())
                for field in LEDGER_FIELDS
            }
            step["events"] = view["events_processed"]
            step["max_shed_level"] = max(
                [view["health"]["shed_level"]]
                + [t["to"] for t in view["shed_transitions"]]
            )
            step["wal_records"] = shutdown.get("wal_records", -1)
            if traced:
                traces.append(server.trace())
            if rate == RESTART_RATE:
                restart_wal = wal
                restart_records = step["wal_records"]
            steps.append(step)
        for i in range(EXTRA_SETUPS):
            wal = os.path.join(workdir, f"{label}-setup{i}.wal")
            server = Server(root, workdir, f"{label}-setup{i}", wal, False)
            servers.append(server)
            setups.append(server.wait_ready())
            server.stop()
        server = Server(root, workdir, f"{label}-restart", restart_wal, traced)
        servers.append(server)
        restart_s = server.wait_ready()
        endpoints = server.endpoints
        rss.append(server.peak_rss_mb())
        shutdown = server.stop()
        checks["restart_reconciled"] = (
            endpoints.get("recovery_reconciled") is True
            and endpoints.get("recovered_records") == restart_records
            and restart_records == steps[RATES.index(RESTART_RATE)]["acked"]
            and shutdown.get("reconciled") is True
        )
        restart_trace = server.trace() if traced else None
    finally:
        for server in servers:
            server.kill()
    return {
        "setups": setups,
        "steps": steps,
        "checks": checks,
        "rss": rss,
        "restart_s": restart_s,
        "restart_records": restart_records,
        "traces": traces,
        "restart_trace": restart_trace,
    }


def counters(result: dict) -> tuple:
    """One pass's counters, read from ``/stats`` and the shutdown and
    restart reports, as ``(deterministic, timing-dependent)``. A seed
    fixes every message, so the first set must repeat exactly; how many
    records each group-commit fsync covers depends on arrival timing."""
    fixed = {"restart.records": result["restart_records"]}
    timing = {}
    for step in result["steps"]:
        prefix = f"r{step['rate']}"
        fixed[f"{prefix}.acked"] = step["acked"]
        fixed[f"{prefix}.wal_records"] = step["wal_records"]
        fixed[f"{prefix}.events_processed"] = step["events"]
        fixed[f"{prefix}.fsync_records"] = step["stats"]["fsync_records"]
        fixed[f"{prefix}.refused_full"] = step["stats"]["refused_full"]
        for field, value in step["ledger"].items():
            fixed[f"{prefix}.ledger.{field}"] = value
        timing[f"{prefix}.fsync_batches"] = step["stats"]["fsync_batches"]
    return fixed, timing


def summarize(result: dict) -> dict:
    """End-to-end figures of one pass (every metric the workload has)."""
    steps = {step["rate"]: step for step in result["steps"]}
    figures = {
        "setup_s": median(result["setups"]),
        "msgs_per_s": steps[SATURATION_RATE]["delivered_rate"],
        "peak_rss_mb": max(result["rss"]),
        "restart_s": result["restart_s"],
        "saturated_msgs_s": steps[SATURATION_RATE]["delivered_rate"],
    }
    capacity_rows = []
    for rate, step in steps.items():
        q50, p50 = tail_percentile(step["latencies_ms"], 0.50)
        q99, p99 = tail_percentile(step["latencies_ms"], 0.99)
        step["p50_ms"], step["p99_ms"], step["p99_rank"] = p50, p99, q99
        capacity_rows.append(
            {
                "rate": rate,
                "p99_ms": p99,
                "delivered_rate": step["delivered_rate"],
                "failed": step["failed"],
            }
        )
        if rate in LATENCY_RATES:
            figures[f"accept_p50_ms.r{rate}"] = p50
            figures[f"accept_p99_ms.r{rate}"] = p99
    figures["capacity_msgs_s"] = capacity(capacity_rows)
    return figures


def layer_metrics(plain: dict, traced: dict) -> dict:
    """Per-layer figures from the traced pass's server spans."""
    tracer = Tracer()
    unattributed_num = unattributed_den = 0.0
    cache = {}
    store_rows = 0
    for exported in traced["traces"]:
        tracer.absorb(exported)
        lo, hi = exported["window"]
        roots = [(s, e) for _name, s, e in exported["roots"]]
        unattributed_den += hi - lo
        unattributed_num += (hi - lo) - covered(roots, lo, hi)
        for field, value in exported.get("cache", {}).items():
            cache[field] = cache.get(field, 0) + value
        store_rows += exported.get("store_rows", 0)
    restart = Tracer()
    restart.absorb(traced["restart_trace"])

    def rate(hits: str, misses: str) -> float:
        total = cache.get(hits, 0) + cache.get(misses, 0)
        return cache.get(hits, 0) / total if total else 0.0

    fsyncs = sum(step["stats"]["fsync_batches"] for step in traced["steps"])
    records = sum(step["stats"]["fsync_records"] for step in traced["steps"])
    plain_steps = {step["rate"]: step for step in plain["steps"]}
    _q, late_p99 = tail_percentile(plain_steps[RESTART_RATE]["late_ms"], 0.99)
    metrics = engine_layer_metrics(tracer)
    metrics.update({
        "sim.events": sum(step["events"] for step in traced["steps"]),
        "net.dns.hit_rate": rate("dns_hits", "dns_misses"),
        "net.route.hit_rate": rate("route_hits", "route_misses"),
        "blacklistd.dnsbl.hit_rate": rate("dnsbl_hits", "dnsbl_misses"),
        "analysis.store.rows": store_rows,
        "serve.wal.append.s": tracer.inclusive("serve.wal.append"),
        "serve.wal.fsync.s": tracer.inclusive("serve.wal.fsync"),
        "serve.wal.records_per_fsync": records / fsyncs if fsyncs else 0.0,
        "serve.engine.apply.s": tracer.inclusive("serve.engine.apply"),
        "serve.admission.refused": sum(
            step["stats"]["refused_full"] for step in traced["steps"]
        ),
        "serve.ladder.max_level": max(
            step["max_shed_level"] for step in traced["steps"]
        ),
        "serve.recover.s": restart.inclusive("serve.recover"),
        "serve.recover.records": traced["restart_records"],
        "loadgen.late_p99_ms": late_p99 if late_p99 is not None else 0.0,
        "trace.unattributed_share": (
            unattributed_num / unattributed_den if unattributed_den else 0.0
        ),
    })
    return metrics

