"""Repository benchmark: compile, uniform, divergent and serve.

Usage, from the repository root::

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 24 --trace 0

The program is imported from ``src/`` of the same checkout. Each run
pins the program's environment switches, keeps any cache or state
directory in a scratch directory under ``.perfbench/`` that is removed
at exit, checks every output it produces, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` wraps the program's layer entry points and reports the per-layer
metrics instead. README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("compile", "uniform", "divergent", "serve")
END_TO_END = {
    "setup_s": "s",
    "compile_s.interpreter": "s",
    "compile_s.array": "s",
    "exec_s.interpreter": "s",
    "exec_s.array": "s",
    "launch_p50_ms": "ms",
    "transfer_p50_ms": "ms",
    "transfer_p90_ms": "ms",
    "serve_max_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # compile layers, seconds per compile pass
    "ptx.parse_s": "s",
    "ptx.validate_s": "s",
    "frontend.translate_s": "s",
    "transforms.prepass_s": "s",
    "transforms.vectorize_s": "s",
    "transforms.cleanup_s": "s",
    "machine.lower_s.interpreter": "s",
    "machine.lower_s.array": "s",
    "runtime.cache_self_s": "s",
    "api.compile_self_s": "s",
    "compile.unattributed_s": "s",
    "compile.specs": "count",
    "ir.instructions": "count",
    "cache.reported_fraction": "ratio",
    # execution layers, seconds or counts per execution pass
    "api.launch_s": "s",
    "api.transfer_s": "s",
    "api.alloc_s": "s",
    "runtime.em_self_s": "s",
    "runtime.cache_lookup_s": "s",
    "machine.execute_s": "s",
    "machine.execute_batch_s": "s",
    "workload.host_s": "s",
    "exec.unattributed_s": "s",
    "em.warp_executions": "count",
    "em.batched_fraction": "ratio",
    "em.avg_warp_size": "threads",
    "yield.count": "count",
    "yield.values_restored": "count",
    "machine.instructions": "count",
    "mem.loads": "count",
    "mem.stores": "count",
    "cache.misses": "count",
    # serving layers, phase A of serve
    "client.rtt_ms.launch": "ms",
    "client.rtt_ms.collect": "ms",
    "client.rtt_ms.upload": "ms",
    "client.rtt_ms.read": "ms",
    "service.handler_ms.launch": "ms",
    "service.handler_ms.collect": "ms",
    "service.handler_ms.upload": "ms",
    "service.handler_ms.read": "ms",
    "service.transport_ms": "ms",
    "service.self_ms": "ms",
    "pool.call_ms": "ms",
    "pool.residency_ms": "ms",
    "pool.worker_rpc_ms": "ms",
    "pool.submitted": "count",
    "pool.completed": "count",
    "pool.failed": "count",
    "pool.rejected": "count",
    "service.shed": "count",
    "service.bytes_in": "bytes",
    "service.bytes_out": "bytes",
    "gen.late_ms": "ms",
    # the traced run against its own untraced passes
    "trace.overhead_pct": "%",
}


def pinned_env(scratch: str) -> dict:
    """Program switches fixed for the benchmark and its server child.
    Cache and state directories live in the run's scratch directory,
    never in ``~/.cache/repro``: a warm disk tier would turn compiles
    into pickle loads."""
    return {
        "REPRO_CACHE": "0",
        "REPRO_CACHE_DIR": os.path.join(scratch, "cache"),
        "REPRO_BACKEND": "interpreter",
        "REPRO_MELD": "0",
        "REPRO_SANITIZE": "0",
        "REPRO_POOL_START": "spawn",
        "REPRO_FAULT_SEED": "0",
        "REPRO_STATE_DIR": os.path.join(scratch, "state"),
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {SRC}/repro; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    os.environ.update(pinned_env(scratch))
    os.environ["PYTHONPATH"] = SRC  # the server child imports repro too
    signal.signal(signal.SIGTERM, _terminate)

    import workloads
    from harness import Run

    run = Run(args.seed, args.seconds, bool(args.trace))
    try:
        report = workloads.RUNNERS[args.workload](run, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    leftovers(run)

    for line in report.lines:
        print(line)
    for reason in run.ledger.reasons:
        print(f"FAILED: {reason}")
    if run.tracer is not None:
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.npz")
        report.save_trace(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    if args.trace:
        names = PER_LAYER
        values = {name: report.layers.get(name, 0.0) for name in names}
    else:
        names = END_TO_END
        values = report.end_to_end
    print(json.dumps({
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in names.items()
        },
    }))
    return 0


def leftovers(run) -> None:
    """Nothing the run started may outlive it: no child process and no
    thread besides the main one."""
    import procs

    children = procs.children_of(os.getpid())
    if children:
        raise procs.LeftoverProcess(f"child processes {children} outlived "
                                    f"the run")
    deadline = time.monotonic() + 5.0
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.05)
    if threading.active_count() > 1:
        names = [t.name for t in threading.enumerate()
                 if t is not threading.main_thread()]
        raise RuntimeError(f"threads {names} outlived the run")


if __name__ == "__main__":
    sys.exit(main())
