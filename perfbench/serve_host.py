"""Host process of the serve workload's server.

Runs ``repro.serve.main`` with the remaining arguments. With
``--trace-out PATH`` first, it wraps the serving entry points before
the server starts and, once the server has drained and stopped,
writes the spans to ``PATH.npz`` and the byte counters and per-tenant
pool statistics to ``PATH.json``.

Pool workers are spawned and re-import this file as a module, so
nothing happens at import time.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from repro import serve

    if trace_out is None:
        return serve.main(argv)

    from probes import install_server
    from tracing import Tracer, save

    tracer = Tracer()
    live = install_server(tracer)
    try:
        return serve.main(argv)
    finally:
        tracer.unwrap_all()
        save(trace_out + ".npz", tracer.drain())
        tenants = {}
        for pool in live["pools"]:
            for name, stats in pool.statistics().items():
                tenants[name] = {
                    "host_seconds": stats.host_seconds,
                    "completed": stats.completed,
                }
        with open(trace_out + ".json", "w", encoding="utf-8") as handle:
            json.dump({**live["counters"], "tenants": tenants}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
