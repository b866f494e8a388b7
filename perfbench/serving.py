"""The serve workload: ``python -m repro.serve`` in a child process,
driven over HTTP by this process.

The server runs 2 pool workers with the vecAdd and ``throughput``
modules. Two tenants share it, one keep-alive connection each: ``t0``
at durability ``none`` and ``t1`` at durability ``journal``.

* Phase A is an open loop at a fixed rate below capacity, mixing
  launch+collect requests (from ``t0``) with bulk upload+read requests
  (from ``t1``). Arrivals are evenly spaced with seeded jitter and
  alternate between the two connections; every request is timed from
  when it was due, so a stalled connection charges its wait to the
  requests behind it, and the generator's lateness is reported.
* Phase B is a closed loop of launch+collect pairs on the same two
  connections: its rate is the capacity.

The server starts in its own session and is stopped by
:func:`procs.stop`, which fails the run if any process of its group
outlives teardown.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

import procs
import sets
from harness import Run

HERE = os.path.dirname(os.path.abspath(__file__))

#: Phase A arrival rate, requests (launch+collect or upload+read) per
#: second over both connections. Capacity on a 2-CPU host is about 20.
RATE = 10.0
#: Arrival jitter, as a share of the mean gap between requests.
JITTER = 0.3
#: Requests of each kind phase A needs for a supported p90.
MIN_PER_KIND = 100
READY_TIMEOUT = 60.0

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


class BenchError(RuntimeError):
    """The benchmark could not run as designed."""


class Server:
    """One ``repro.serve`` child process (through ``serve_host.py``)."""

    def __init__(self, workdir: str, env: Dict[str, str], trace_out=None):
        self.workdir = workdir
        self.env = env
        self.trace_out = trace_out
        self.process = None
        self.host = self.port = None

    def start(self) -> None:
        modules = []
        for stem, source in sets.served_modules().items():
            path = os.path.join(self.workdir, f"{stem}.ptx")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(source)
            modules += ["--module", path]
        argv = [sys.executable, os.path.join(HERE, "serve_host.py")]
        if self.trace_out:
            argv += ["--trace-out", self.trace_out]
        argv += ["--workers", "2", "--host", "127.0.0.1", "--port", "0",
                 "--warm", "--durability", "none", "--drain-timeout", "10",
                 "--state-dir", os.path.join(self.workdir, "state"),
                 *modules]
        log = os.path.join(self.workdir, "server.log")
        self.process = procs.start(argv, self.env, log, cwd=self.workdir)
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            with open(log, "r", encoding="utf-8", errors="replace") as handle:
                match = _LISTENING.search(handle.read())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.process.poll() is not None or time.monotonic() > deadline:
                with open(log, "r", encoding="utf-8", errors="replace") as h:
                    tail = h.read()[-2000:]
                raise BenchError(f"server did not start:\n{tail}")
            time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server process (VmHWM)."""
        with open(f"/proc/{self.process.pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> Dict[str, object]:
        if self.process is None:
            return {}
        process, self.process = self.process, None
        return procs.stop(process)


class Tenant:
    """One tenant on its own keep-alive connection. Every request is
    timed and, in traced runs, tagged with an ``X-Request-Id`` header
    the server's spans record."""

    def __init__(self, server: Server, name: str, durability: str,
                 ids: "itertools.count", tag: bool):
        from repro.runtime.service import ServeClient

        self.name = name
        self.ids = ids
        self.client = ServeClient(server.host, server.port, name,
                                  durability=durability)
        #: (request id, kind, start, end) of every timed request
        self.requests: List[Tuple[int, str, float, float]] = []
        self._current = 0
        if tag:
            connection = self.client._conn
            send = connection.request

            def request(method, url, body=None, headers=None, **kwargs):
                headers = dict(headers or {})
                headers["X-Request-Id"] = str(self._current)
                return send(method, url, body=body, headers=headers, **kwargs)

            connection.request = request

    def call(self, kind: str, function, *args):
        self._current = next(self.ids)
        start = time.perf_counter()
        try:
            return function(*args)
        finally:
            self.requests.append(
                (self._current, kind, start, time.perf_counter())
            )

    def setup(self, a: np.ndarray, b: np.ndarray) -> None:
        client = self.client
        self.buffers = {
            "a": client.upload(a),
            "b": client.upload(b),
            "c": client.malloc(sets.VECADD_N * 4),
            "out": client.malloc(sets.THROUGHPUT_THREADS * 4),
        }

    def args(self, kernel: str) -> list:
        ref = {name: {"allocation": h} for name, h in self.buffers.items()}
        if kernel == "vecAdd":
            return [ref["a"], ref["b"], ref["c"], sets.VECADD_N]
        return [ref["out"], sets.THROUGHPUT_ITERS]

    def close(self) -> None:
        self.client.close()


class Generator:
    """The load generator: phase A, phase B and their checks."""

    def __init__(self, run: Run, server: Server):
        self.run = run
        self.ids = itertools.count(1)
        rng = np.random.default_rng([run.seed, 1])
        self.a, self.b = sets.vecadd_inputs(rng)
        self.expected = sets.vecadd_reference(self.a, self.b)
        self.tenants = [
            Tenant(server, "t0", "none", self.ids, run.tracer is not None),
            Tenant(server, "t1", "journal", self.ids, run.tracer is not None),
        ]
        self.shed = 0
        self._lock = threading.Lock()

    def ready(self) -> None:
        client = self.tenants[0].client
        deadline = time.monotonic() + READY_TIMEOUT
        while not client.ready().get("ready"):
            if time.monotonic() > deadline:
                raise BenchError("server never became ready")
            time.sleep(0.05)
        for tenant in self.tenants:
            tenant.setup(self.a, self.b)
            for kernel in sets.LAUNCHES:
                self.launch_op(tenant, kernel)

    # -- operations --------------------------------------------------------

    def _failed(self, error: BaseException, what: str) -> None:
        from repro.errors import ServiceUnavailable

        if isinstance(error, ServiceUnavailable):
            with self._lock:
                self.shed += 1
        self.run.ledger.check(False, f"{what}: {type(error).__name__}: {error}")

    def launch_op(self, tenant: Tenant, kernel: str) -> bool:
        from repro.errors import ReproError

        shape = sets.LAUNCHES[kernel]
        pinned = self.run.pin["served"][kernel]
        try:
            launch = tenant.call("launch", tenant.client.launch, shape.kernel,
                                 list(shape.grid), list(shape.block),
                                 tenant.args(kernel))
            reply = tenant.call("collect", tenant.client.collect, launch)
        except (ReproError, OSError, ValueError, KeyError) as error:
            self._failed(error, f"{tenant.name} {kernel} launch")
            return False
        return self.run.ledger.check(
            reply.get("ok") is True
            and reply.get("instructions") == pinned["instructions"]
            and reply.get("cycles") == pinned["cycles"],
            f"{tenant.name} {kernel}: collect payload differs from the pin",
        )

    def transfer_op(self, tenant: Tenant, data: np.ndarray) -> bool:
        from repro.errors import ReproError

        try:
            handle = tenant.call("upload", tenant.client.upload, data)
            back = tenant.call("read", tenant.client.read, handle,
                               np.float32, data.size)
        except (ReproError, OSError, ValueError, KeyError) as error:
            self._failed(error, f"{tenant.name} transfer")
            return False
        return self.run.ledger.check(
            sets.same_bits(back, data),
            f"{tenant.name} transfer: read-back bits differ",
        )

    # -- phase A -----------------------------------------------------------

    def schedule(self, seconds: float) -> List[Tuple[float, str, int, object]]:
        """``(due, kind, tenant, detail)`` of every phase A request.

        Requests alternate between the connections, so each sees an
        evenly spaced stream at half the rate. ``t0`` sends the
        launch+collect requests and ``t1``, the journaled tenant, the
        upload+read requests: a connection's idle gap before a request
        then does not depend on the other kind's duration, which would
        otherwise decide whether TCP delayed acknowledgements stall it.
        The seed picks each launch's kernel, each transfer's contents
        and the jitter that keeps the two streams from locking into
        step."""
        rng = self.run.rng
        count = max(2 * MIN_PER_KIND, int(round(seconds * RATE)))
        count += count % 2
        plan = []
        for index in range(count):
            kind = ("launch", "transfer")[index % 2]
            detail = (
                rng.choice(tuple(sets.LAUNCHES)) if kind == "launch"
                else rng.getrandbits(32)
            )
            due = (index + JITTER * rng.random()) / RATE
            plan.append((due, kind, index % 2, detail))
        return plan

    def open_loop(self, seconds: float) -> Dict[str, object]:
        plan = self.schedule(seconds)
        latency = {"launch": [], "transfer": []}
        late: List[float] = []
        origin = time.perf_counter() + 0.05

        def drive(tenant_index: int) -> None:
            tenant = self.tenants[tenant_index]
            for due, kind, owner, detail in plan:
                if owner != tenant_index:
                    continue
                data = None
                if kind == "transfer":
                    data = np.random.default_rng(detail).standard_normal(
                        sets.TRANSFER_N
                    ).astype(np.float32)
                wait = origin + due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                start = time.perf_counter()
                if kind == "launch":
                    ok = self.launch_op(tenant, detail)
                else:
                    ok = self.transfer_op(tenant, data)
                end = time.perf_counter()
                with self._lock:
                    late.append(start - (origin + due))
                    latency[kind].append(
                        end - (origin + due) if ok else float("inf")
                    )

        self._in_threads(drive)
        return {"latency": latency, "late": late,
                "window": (origin, time.perf_counter())}

    # -- phase B -----------------------------------------------------------

    def closed_loop(self, seconds: float) -> float:
        """Launch+collect pairs completed per second."""
        completed = [0, 0]
        start = time.perf_counter()
        stop_at = start + seconds
        kernels = tuple(sets.LAUNCHES)

        def drive(tenant_index: int) -> None:
            tenant = self.tenants[tenant_index]
            for index in itertools.count():
                if time.perf_counter() >= stop_at:
                    return
                if self.launch_op(tenant, kernels[index % len(kernels)]):
                    completed[tenant_index] += 1

        self._in_threads(drive)
        return sum(completed) / (time.perf_counter() - start)

    def _in_threads(self, drive) -> None:
        errors: List[BaseException] = []

        def guarded(index: int) -> None:
            try:
                drive(index)
            except BaseException as error:  # re-raised on the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=guarded, args=(index,), daemon=True)
            for index in range(len(self.tenants))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    # -- end of run --------------------------------------------------------

    def final_checks(self) -> None:
        """vecAdd output bits and throughput output of both tenants."""
        from repro.errors import ReproError

        expected_out = sets.throughput_reference()
        for tenant in self.tenants:
            try:
                c = tenant.client.read(tenant.buffers["c"], np.float32,
                                       sets.VECADD_N)
                out = tenant.client.read(tenant.buffers["out"], np.float32,
                                         sets.THROUGHPUT_THREADS)
            except (ReproError, OSError, ValueError, KeyError) as error:
                self._failed(error, f"{tenant.name} final read-back")
                continue
            self.run.ledger.check(
                sets.same_bits(c, self.expected),
                f"{tenant.name}: vecAdd output bits differ",
            )
            self.run.ledger.check(
                bool(np.allclose(out, expected_out, rtol=1e-4)),
                f"{tenant.name}: throughput output differs",
            )

    def pool_counts(self) -> Dict[str, int]:
        tenants = self.tenants[0].client.stats()["tenants"]
        return {
            key: sum(entry[key] for entry in tenants.values())
            for key in ("submitted", "completed", "failed", "rejected")
        }

    def close(self) -> None:
        for tenant in self.tenants:
            tenant.close()


def server_layers(requests, spans, extras, window) -> Dict[str, float]:
    """Per-layer serving metrics of phase A, from the client's request
    timings and the server's spans (both on the host's monotonic
    clock)."""
    from tracing import self_times

    begin, end = window
    phase = [r for r in requests if begin <= r[2] <= end]
    rids = {r[0] for r in phase}
    handler = {s[5]: s for s in spans
               if s[1].startswith("service.handler.") and s[5] in rids}
    metrics: Dict[str, float] = {}
    for kind in ("launch", "collect", "upload", "read"):
        client = [r[3] - r[2] for r in phase if r[1] == kind]
        served = [s[3] - s[2] for s in handler.values()
                  if s[1] == f"service.handler.{kind}"]
        metrics[f"client.rtt_ms.{kind}"] = _mean_ms(client)
        metrics[f"service.handler_ms.{kind}"] = _mean_ms(served)
    metrics["service.transport_ms"] = _mean_ms(
        (r[3] - r[2]) - (handler[r[0]][3] - handler[r[0]][2])
        for r in phase if r[0] in handler
    )
    in_phase = [s for s in spans if s[5] in rids]
    own = self_times(in_phase)
    handled = [v for k, v in own.items() if k.startswith("service.handler.")]
    metrics["service.self_ms"] = 1e3 * (
        sum(v["self"] for v in handled) / max(1, sum(v["count"] for v in handled))
    )
    metrics["pool.call_ms"] = _mean_ms(
        s[3] - s[2] for s in in_phase if s[1] == "pool.call"
    )
    metrics["pool.worker_rpc_ms"] = _mean_ms(
        s[3] - s[2] for s in spans
        if s[1] == "pool.worker_rpc" and begin <= s[2] <= end
    )
    tenants = extras["tenants"]
    metrics["pool.residency_ms"] = 1e3 * (
        sum(t["host_seconds"] for t in tenants.values())
        / max(1, sum(t["completed"] for t in tenants.values()))
    )
    metrics["service.bytes_in"] = extras["bytes_in"]
    metrics["service.bytes_out"] = extras["bytes_out"]
    return metrics


def _mean_ms(values) -> float:
    values = list(values)
    return 1e3 * sum(values) / len(values) if values else 0.0


def load_server_trace(trace_out: str):
    from tracing import load

    spans = load(trace_out + ".npz")
    with open(trace_out + ".json", "r", encoding="utf-8") as handle:
        extras = json.load(handle)
    return spans, extras

