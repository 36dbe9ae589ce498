"""Run ``repro serve`` with layer spans installed; write them on stop.

    python3 perfbench/serve_launcher.py <trace out.json> serve [serve args...]

Installs the span wrappers before the deployment is built, runs the
server through the package's own command line until it is stopped
(SIGTERM), then writes the spans and the server's substrate counters to
the given file. The exit code is the server's.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from tracing import Tracer, install_serve_wrappers  # noqa: E402


def main(argv) -> int:
    out_path, serve_argv = argv[0], argv[1:]
    tracer = Tracer()
    captured = install_serve_wrappers(tracer)
    from repro.analysis.store import TABLES
    from repro.cli import main as cli_main
    from repro.experiments.runner import SubstrateCacheStats

    started = time.perf_counter()
    code = cli_main(serve_argv)
    finished = time.perf_counter()
    export = tracer.export()
    export["window"] = [started, finished]
    service = captured.get("service")
    if service is not None:
        cache = SubstrateCacheStats.collect(service.world)
        export["cache"] = {
            field: getattr(cache, field)
            for field in (
                "dns_hits", "dns_misses", "dnsbl_hits", "dnsbl_misses",
                "route_hits", "route_misses",
            )
        }
        export["store_rows"] = sum(
            len(getattr(service.store, table)) for table in TABLES
        )
    tmp = out_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(export, fh)
    os.replace(tmp, out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
