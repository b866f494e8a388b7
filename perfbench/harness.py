"""In-process phases: cold compiles, warm application passes and warm
passes over the served request list, all through ``repro.Device``.

Every phase checks what it runs. A failed check counts one failed
operation on the :class:`Ledger`; nothing is skipped. The modeled
statistics of every launch must equal the pin committed with the
benchmark (``pin.json``), which also makes them equal across the two
backends and between traced and untraced runs.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import sets
from tracing import Tracer

BACKENDS = ("interpreter", "array")
PIN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pin.json")

#: In-process timings are CPU seconds of this process (scaled by
#: :class:`Meter`): the in-process program is single-threaded and never
#: waits, so its CPU time is its whole cost.
clock = time.process_time

#: CPU seconds of one :func:`reference` call on an unloaded 2-vCPU KVM
#: guest (Intel Xeon, Python 3.11, numpy 2.4): the host speed that
#: in-process timings are scaled to.
REFERENCE_S = 0.0005

_REFERENCE_ARRAY = np.arange(4096, dtype=np.float64)


class _Box:
    value = 0


def reference() -> float:
    """CPU seconds of a fixed piece of interpreted Python (attribute
    and dict traffic, like the program's execution loops) and numpy."""
    start = clock()
    box, table = _Box(), {}
    for index in range(3000):
        table[index & 63] = box.value + index
        box.value = table[index & 63] % 1009
    np.add(_REFERENCE_ARRAY, 1.0).sum()
    return clock() - start


class Meter:
    """Times items in CPU seconds at the reference host speed.

    Each item is followed by a :func:`reference` call, and its CPU time
    is multiplied by ``REFERENCE_S`` over the mean of the reference
    calls on either side of it. On a shared host the same work takes up
    to 1.8 times as long during slow spells lasting seconds to minutes;
    the reference slows with it, so the scaled time stays put while a
    change to the program still moves it."""

    def __init__(self) -> None:
        self._before = reference()

    def time(self, call):
        """``(call(), scaled seconds)``."""
        start = clock()
        result = call()
        elapsed = clock() - start
        after = reference()
        scaled = elapsed * 2.0 * REFERENCE_S / (self._before + after)
        self._before = after
        return result, scaled


#: Launches and transfers per backend in one pass over the served
#: request list.
SERVED_OPS = 100


class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._lock = threading.Lock()

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(what)
        return ok


class Run:
    """State shared by the phases of one benchmark run."""

    def __init__(self, seed: int, seconds: float, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.ledger = Ledger()
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        with open(PIN_PATH, "r", encoding="utf-8") as handle:
            self.pin = json.load(handle)

    def set_tracing(self, on: bool) -> None:
        """Install or remove the program probes (traced runs only)."""
        if self.tracer is None or on == self.tracer.installed:
            return
        if on:
            from probes import install_program

            install_program(self.tracer)
        else:
            self.tracer.unwrap_all()

    def span(self, name: str):
        if self.tracer is None or not self.tracer.installed:
            return contextlib.nullcontext()
        return self.tracer.span(name)


def signature(statistics) -> Dict[str, object]:
    """The modeled statistics the pin fixes for one run."""
    return {
        "cycles": statistics.total_cycles,
        "instructions": statistics.instructions,
        "histogram": {
            str(k): v for k, v in sorted(statistics.warp_size_histogram.items())
        },
        "yields": {
            str(k): v for k, v in sorted(statistics.yields_by_status.items())
        },
        "values_restored": statistics.values_restored,
    }


def instruction_counts(device) -> List[List[object]]:
    counts = device.cache.statistics.instruction_counts
    return sorted([kernel, width, count] for (kernel, width), count in counts.items())


def module_sources(names) -> Dict[str, str]:
    from repro.workloads import get_workload

    return {name: get_workload(name).module_source() for name in names}


# -- compile ----------------------------------------------------------------


def compile_pass(run: Run, sources: Dict[str, str], keep: bool = False):
    """Cold-compile every module on a fresh Device per backend: widths
    1/2/4, no persistent cache, no launches. Returns ``(seconds,
    devices, counts)`` with seconds and devices keyed by backend, then
    module (devices only when ``keep``); ``counts`` has the pass's
    specializations, static instructions and reported translation
    seconds."""
    from repro import Device, ExecutionConfig

    seconds = {backend: {} for backend in BACKENDS}
    devices = {backend: {} for backend in BACKENDS}
    counts = {"specs": 0, "instructions": 0, "translation_s": 0.0}
    names = list(sources)
    run.rng.shuffle(names)
    meter = Meter()

    def build(backend: str, source: str):
        device = Device(config=ExecutionConfig(backend=backend))
        device.register_module(source)
        device.warm()
        return device

    for name in names:
        for backend in BACKENDS:
            device, seconds[backend][name] = meter.time(
                lambda: build(backend, sources[name])
            )
            if keep:
                devices[backend][name] = device
                # Kept Devices leave the collector's view, so later
                # compiles do not pay for rescanning them.
                gc.freeze()
            found = instruction_counts(device)
            run.ledger.check(
                found == run.pin["compile"][name],
                f"compile {name} on {backend}: static instruction counts "
                f"differ from the pin",
            )
            statistics = device.cache.statistics
            counts["specs"] += statistics.translations
            counts["instructions"] += sum(c for _, _, c in found)
            counts["translation_s"] += statistics.translation_seconds
    return seconds, devices, counts


# -- application passes -----------------------------------------------------


def app_pass(run: Run, devices, totals: Dict[str, Dict[str, float]]):
    """One warm, output-checked run of every application on both
    backends, in a seeded order. Returns seconds keyed by backend,
    then application, and adds the pass's counts to ``totals``."""
    from repro.errors import ReproError
    from repro.workloads import get_workload

    seconds = {backend: {} for backend in BACKENDS}
    names = sorted(devices[BACKENDS[0]])
    run.rng.shuffle(names)
    meter = Meter()
    for name in names:
        workload = get_workload(name)
        backends = list(BACKENDS)
        run.rng.shuffle(backends)
        for backend in backends:
            device = devices[backend][name]
            memory = device.memory
            loads, stores = memory.load_count, memory.store_count
            misses = device.cache.statistics.misses
            def execute():
                with run.span("workload.execute"):
                    return workload.execute(device)

            try:
                result, seconds[backend][name] = meter.time(execute)
                error = None
            except (AssertionError, ReproError) as caught:
                result, error = None, caught
                seconds[backend][name] = float("inf")
            if not run.ledger.check(error is None, f"{name} on {backend}: "
                                                   f"{error!r}"):
                continue
            statistics = result.statistics
            run.ledger.check(
                signature(statistics) == run.pin["apps"][name],
                f"{name} on {backend}: modeled statistics differ from the pin",
            )
            add_counts(totals[backend], statistics, memory, loads, stores)
            totals[backend]["cache_misses"] += (
                device.cache.statistics.misses - misses
            )
    return seconds


def add_counts(total, statistics, memory, loads: int, stores: int) -> None:
    total["warp_executions"] += statistics.warp_executions
    total["batched_warps"] += statistics.batched_warps
    total["threads"] += sum(
        size * count for size, count in statistics.warp_size_histogram.items()
    )
    total["warps"] += sum(statistics.warp_size_histogram.values())
    # Yields that resume (branch and barrier), not thread exits.
    total["yields"] += statistics.divergent_yields + statistics.barrier_yields
    total["values_restored"] += statistics.values_restored
    total["instructions"] += statistics.instructions
    total["loads"] += memory.load_count - loads
    total["stores"] += memory.store_count - stores


def new_totals() -> Dict[str, Dict[str, float]]:
    keys = ("warp_executions", "batched_warps", "threads", "warps", "yields",
            "values_restored", "instructions", "loads", "stores",
            "cache_misses")
    return {backend: dict.fromkeys(keys, 0) for backend in BACKENDS}


# -- served request list ----------------------------------------------------


class ServedDevices:
    """One warm Device per backend holding the served modules and the
    vecAdd inputs, for in-process passes over the served requests."""

    def __init__(self, run: Run):
        from repro import Device, ExecutionConfig

        rng = np.random.default_rng([run.seed, 1])
        self.a, self.b = sets.vecadd_inputs(rng)
        self.expected = sets.vecadd_reference(self.a, self.b)
        self.throughput_expected = sets.throughput_reference()
        self.devices = {}
        self.buffers = {}
        for backend in BACKENDS:
            device = Device(config=ExecutionConfig(backend=backend))
            for source in sets.served_modules().values():
                device.register_module(source)
            device.warm()
            self.devices[backend] = device
        for backend, device in self.devices.items():
            run.ledger.check(
                instruction_counts(device) == run.pin["served_compile"],
                f"served modules on {backend}: static instruction counts "
                f"differ from the pin",
            )
            self.buffers[backend] = {
                "a": device.upload(self.a),
                "b": device.upload(self.b),
                "c": device.malloc(sets.VECADD_N * 4),
                "out": device.malloc(sets.THROUGHPUT_THREADS * 4),
            }
        #: The request list, the same in every pass of the run, so each
        #: request's latency can be taken as its best over the passes.
        self.ops = served_ops(run)
        self.data = {
            detail: np.random.default_rng(detail).standard_normal(
                sets.TRANSFER_N
            ).astype(np.float32)
            for kind, detail in self.ops if kind == "transfer"
        }

    def args(self, backend: str, kernel: str):
        buffers = self.buffers[backend]
        if kernel == "vecAdd":
            return [buffers["a"], buffers["b"], buffers["c"], sets.VECADD_N]
        return [buffers["out"], sets.THROUGHPUT_ITERS]

    def output_ok(self, backend: str, kernel: str) -> bool:
        device = self.devices[backend]
        buffers = self.buffers[backend]
        if kernel == "vecAdd":
            got = device.memcpy_dtoh(buffers["c"], np.float32, sets.VECADD_N)
            return sets.same_bits(got, self.expected)
        got = device.memcpy_dtoh(
            buffers["out"], np.float32, sets.THROUGHPUT_THREADS
        )
        return bool(np.allclose(got, self.throughput_expected, rtol=1e-4))


def served_ops(run: Run) -> List[Tuple[str, object]]:
    """SERVED_OPS launches, two vecAdd to each throughput, and
    SERVED_OPS bulk transfers of seeded data, in a seeded order. The
    uneven mix keeps the p50 and p90 launch inside one kernel's
    latencies instead of on the boundary between the two."""
    ops: List[Tuple[str, object]] = [
        ("launch", "throughput" if index % 3 == 2 else "vecAdd")
        for index in range(SERVED_OPS)
    ]
    ops += [("transfer", run.rng.getrandbits(32)) for _ in range(SERVED_OPS)]
    run.rng.shuffle(ops)
    return ops


def served_pass(run: Run, served: ServedDevices, totals) -> Dict[str, Dict[str, list]]:
    """One pass over the served request list on each backend. Returns
    per backend the launch and transfer latencies in seconds, in
    request-list order (infinite for a failed request), and adds the
    launches' counts to ``totals``."""
    from repro.errors import ReproError

    result = {}
    backends = list(BACKENDS)
    run.rng.shuffle(backends)
    for backend in backends:
        device = served.devices[backend]
        memory = device.memory
        latencies = {"launch": [], "transfer": []}
        meter = Meter()

        def request(kind: str, detail):
            with run.span("workload.execute"):
                if kind == "launch":
                    shape = sets.LAUNCHES[detail]
                    return device.launch(shape.kernel, shape.grid,
                                         shape.block,
                                         served.args(backend, detail))
                handle = device.upload(served.data[detail])
                return handle, device.memcpy_dtoh(handle, np.float32,
                                                  sets.TRANSFER_N)

        for kind, detail in served.ops:
            loads, stores = memory.load_count, memory.store_count
            try:
                outcome, seconds = meter.time(lambda: request(kind, detail))
            except ReproError as error:
                latencies[kind].append(float("inf"))
                run.ledger.check(False, f"served {kind} on {backend}: "
                                        f"{error!r}")
                continue
            latencies[kind].append(seconds)
            # Checking is the workload's host work, like the suite's
            # numpy references; the meter's reference call is not.
            with run.span("workload.execute"):
                if kind == "launch":
                    add_counts(totals[backend], outcome.statistics, memory,
                               loads, stores)
                    ok = (signature(outcome.statistics)
                          == run.pin["served"][detail]
                          and served.output_ok(backend, detail))
                else:
                    handle, back = outcome
                    device.free(handle)
                    ok = sets.same_bits(back, served.data[detail])
                run.ledger.check(ok, f"served {kind} ({detail}) on "
                                     f"{backend}: output or modeled "
                                     f"statistics differ")
        result[backend] = latencies
    return result
