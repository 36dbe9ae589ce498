"""The kill -9 chaos harness: load, murder, restart, reconcile, repeat.

This is the executable form of the durability claim. Each round boots
the server as a *real subprocess*, offers open-loop load with
:mod:`~repro.serve.sstress`, SIGKILLs the process at a randomized moment
mid-burst (no atexit, no flush, no goodbye), restarts it, and asserts
the conservation contract against ``/stats``:

* the restarted ledgers reconcile (``live_conserved`` per company, every
  WAL record applied exactly once),
* every message any client ever saw a 250 for is in the ledger —
  cumulative ``acked`` across all rounds ≤ ``accepted`` after replay
  (strict equality is not promised: a record can go durable and the 250
  die on the wire with the process; at-least-once, never at-most-zero),
* ``accepted`` never moves backwards across a restart.

A final graceful SIGTERM checks the other half of the story: clean
drain, exit code 0, shutdown reconciliation printed and conserved. The
harness is a library so the pytest suite and the ``serve`` gate run the
identical logic; only the knob values differ.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import sys
from dataclasses import dataclass, field
from typing import List, Optional

from repro.serve.sstress import StressConfig, run_stress

#: How long to wait for the subprocess to announce its ports and pass
#: /readyz. World building at the test presets takes low seconds; CI
#: shared runners get generous slack.
START_DEADLINE = 120.0


class ChaosError(AssertionError):
    """A conservation or liveness assertion failed."""


async def _http_json(host: str, port: int, path: str, deadline: float = 10.0):
    """Status + parsed JSON body for a one-shot GET."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), deadline
    )
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), deadline)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), json.loads(body)


@dataclass
class ServerProcess:
    """One ``python -m repro serve`` subprocess and its endpoints."""

    wal_path: str
    endpoints_file: str
    preset: str = "tiny"
    seed: int = 7
    time_scale: float = 200.0
    queue_size: int = 256
    batch_max: int = 64
    engine_delay: float = 0.0
    host: str = "127.0.0.1"
    smtp_port: int = 0
    web_port: int = 0
    process: Optional[asyncio.subprocess.Process] = None
    endpoints: dict = field(default_factory=dict)

    async def start(self) -> dict:
        if os.path.exists(self.endpoints_file):
            os.unlink(self.endpoints_file)  # stale announcement = lies
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--preset",
            self.preset,
            "--seed",
            str(self.seed),
            "--wal",
            self.wal_path,
            "--endpoints-file",
            self.endpoints_file,
            "--time-scale",
            str(self.time_scale),
            "--queue-size",
            str(self.queue_size),
            "--batch-max",
            str(self.batch_max),
            "--engine-delay",
            str(self.engine_delay),
            env=env,
            stdout=asyncio.subprocess.PIPE,
        )
        deadline = asyncio.get_running_loop().time() + START_DEADLINE
        while not os.path.exists(self.endpoints_file):
            if self.process.returncode is not None:
                raise ChaosError(
                    f"server exited rc={self.process.returncode} before announcing"
                )
            if asyncio.get_running_loop().time() > deadline:
                raise ChaosError("server never wrote the endpoints file")
            await asyncio.sleep(0.05)
        with open(self.endpoints_file) as fh:
            self.endpoints = json.load(fh)
        self.smtp_port = self.endpoints["smtp_port"]
        self.web_port = self.endpoints["web_port"]
        while True:
            try:
                status, _ = await _http_json(self.host, self.web_port, "/readyz")
                if status == 200:
                    break
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
            if asyncio.get_running_loop().time() > deadline:
                raise ChaosError("server never became ready")
            await asyncio.sleep(0.05)
        return self.endpoints

    async def stats(self) -> dict:
        status, body = await _http_json(self.host, self.web_port, "/stats")
        if status != 200:
            raise ChaosError(f"/stats returned HTTP {status}")
        return body

    async def kill9(self) -> None:
        """SIGKILL — no drain, no fsync beyond what already happened."""
        assert self.process is not None
        self.process.kill()
        await self.process.wait()

    async def terminate(self) -> dict:
        """Graceful SIGTERM; returns ``{"exit_code", "shutdown"}``."""
        assert self.process is not None
        self.process.send_signal(signal.SIGTERM)
        stdout, _ = await asyncio.wait_for(
            self.process.communicate(), START_DEADLINE
        )
        shutdown = None
        for line in stdout.decode().splitlines():
            try:
                parsed = json.loads(line)
            except ValueError:
                continue
            if isinstance(parsed, dict) and "shutdown" in parsed:
                shutdown = parsed["shutdown"]
        return {"exit_code": self.process.returncode, "shutdown": shutdown}


async def run_chaos(
    workdir: str,
    *,
    kills: int = 20,
    preset: str = "tiny",
    seed: int = 7,
    rng_seed: int = 1234,
    rate: float = 300.0,
    messages_per_burst: int = 150,
    time_scale: float = 200.0,
    kill_window: tuple = (0.10, 0.45),
    connections: int = 6,
) -> dict:
    """*kills* rounds of boot → open-loop burst → randomized SIGKILL →
    restart → ledger reconciliation, then one clean burst for throughput
    numbers and a graceful shutdown. Raises :class:`ChaosError` on any
    conservation violation; returns the full report otherwise."""
    rng = random.Random(rng_seed)
    wal_path = os.path.join(workdir, "chaos.wal")
    endpoints_file = os.path.join(workdir, "endpoints.json")
    rounds: List[dict] = []
    cumulative_acked = 0
    last_accepted = 0

    def _check_restart(reconciliation: dict, where: str) -> None:
        nonlocal last_accepted
        if not reconciliation["reconciled"]:
            raise ChaosError(f"{where}: ledgers failed to reconcile: {reconciliation}")
        accepted = reconciliation["accepted"]
        if accepted < cumulative_acked:
            raise ChaosError(
                f"{where}: LOST MESSAGES — clients hold {cumulative_acked} "
                f"250-acks but the replayed ledger only accepted {accepted}"
            )
        if accepted < last_accepted:
            raise ChaosError(
                f"{where}: accepted went backwards ({last_accepted} → {accepted})"
            )
        last_accepted = accepted

    for round_index in range(kills):
        server = ServerProcess(
            wal_path, endpoints_file, preset=preset, seed=seed,
            time_scale=time_scale,
        )
        await server.start()
        stats = await server.stats()
        _check_restart(stats["reconciliation"], f"restart before round {round_index}")
        torn = stats["recovery"].get("torn_tail_bytes", 0) if stats["recovery"] else 0

        stop = asyncio.Event()
        burst = asyncio.ensure_future(
            run_stress(
                StressConfig(
                    smtp_port=server.smtp_port,
                    web_port=server.web_port,
                    rate=rate,
                    messages=messages_per_burst,
                    connections=connections,
                    seed=rng_seed + round_index,
                ),
                stop=stop,
            )
        )
        kill_after = rng.uniform(*kill_window) * (messages_per_burst / rate)
        await asyncio.sleep(kill_after)
        await server.kill9()
        stop.set()
        report = await burst
        cumulative_acked += report["acked"]
        rounds.append(
            {
                "round": round_index,
                "kill_after_s": round(kill_after, 3),
                "acked_this_burst": report["acked"],
                "errors": report["errors"],
                "codes": report["codes"],
                "torn_tail_bytes_on_boot": torn,
            }
        )

    # Verification boot: replay everything the murders left behind, then a
    # clean throughput burst and a graceful drain.
    server = ServerProcess(
        wal_path, endpoints_file, preset=preset, seed=seed, time_scale=time_scale
    )
    await server.start()
    stats = await server.stats()
    _check_restart(stats["reconciliation"], "final restart")
    clean = await run_stress(
        StressConfig(
            smtp_port=server.smtp_port,
            web_port=server.web_port,
            rate=rate,
            messages=messages_per_burst,
            connections=connections,
            seed=rng_seed - 1,
        )
    )
    cumulative_acked += clean["acked"]
    outcome = await server.terminate()
    if outcome["exit_code"] != 0:
        raise ChaosError(f"graceful shutdown exited rc={outcome['exit_code']}")
    shutdown = outcome["shutdown"]
    if not shutdown or not shutdown["reconciled"]:
        raise ChaosError(f"shutdown reconciliation failed: {shutdown}")
    if shutdown["accepted"] < cumulative_acked:
        raise ChaosError(
            f"graceful drain lost messages: {cumulative_acked} acked vs "
            f"{shutdown['accepted']} accepted"
        )
    return {
        "kills": kills,
        "rounds": rounds,
        "cumulative_acked": cumulative_acked,
        "zero_loss": True,
        "final_reconciliation": shutdown,
        "graceful_exit_code": outcome["exit_code"],
        "torn_tails_seen": sum(
            1 for r in rounds if r["torn_tail_bytes_on_boot"]
        ),
        "clean_burst": clean,
    }


__all__ = ["ChaosError", "ServerProcess", "run_chaos", "START_DEADLINE"]
