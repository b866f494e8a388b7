"""The program entry points the traced run wraps, by layer.

Span names start with the layer they time: ``ptx``, ``frontend``,
``transforms`` and ``machine`` (lowering and execution), ``runtime``
(translation cache, launcher and execution manager), ``api``, and on
the server ``service`` and ``pool``. Every entry point is wrapped
where its caller looks it up (``repro.api.device.parse`` rather than
``repro.ptx.parser.parse``), so the wrapper is the function the
program actually calls.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List

from tracing import Tracer

#: Span names of one cold compile (Device construction, module
#: registration and compile-ahead of every width).
COMPILE_SPANS = (
    "api.device", "api.register", "api.warm", "ptx.parse",
    "ptx.validate", "frontend.translate", "transforms.prepass",
    "transforms.vectorize", "transforms.cleanup",
    "machine.lower.interpreter", "machine.lower.array", "runtime.cache",
)

#: Span names every warm pass over both backends must produce.
EXEC_SPANS = (
    "api.launch", "api.transfer", "runtime.em", "runtime.cache",
    "machine.execute", "machine.execute_batch", "workload.execute",
)

#: Server spans phase A must produce.
SERVER_SPANS = (
    "service.handler.launch", "service.handler.collect",
    "service.handler.upload", "service.handler.read", "pool.call",
    "pool.worker_rpc",
)


def _pipeline(tracer: Tracer, name: str) -> Callable:
    """Traced pipeline factory whose returned PassManager's ``run`` is
    traced under the same span name."""

    def replace(factory: Callable) -> Callable:
        def build(*args, **kwargs):
            manager = factory(*args, **kwargs)
            if manager is not None:
                manager.run = tracer.traced(manager.run, name)
            return manager

        return build

    return replace


def install_program(tracer: Tracer) -> None:
    """Wrap the compile and execution entry points of the in-process
    program (the ``repro.api.Device`` path)."""
    import repro.api.device as device_module
    import repro.runtime.translation_cache as cache_module
    from repro.api.device import Device
    from repro.machine.array_backend import ArrayBackend
    from repro.machine.interpreter import Interpreter
    from repro.machine.memory import Allocation
    from repro.runtime.execution_manager import ExecutionManager
    from repro.runtime.launcher import KernelLauncher
    from repro.runtime.translation_cache import TranslationCache

    def lower_name(backend, *args, **kwargs) -> str:
        kind = "array" if isinstance(backend, ArrayBackend) else "interpreter"
        return f"machine.lower.{kind}"

    wrap = tracer.wrap
    wrap(device_module, "parse", "ptx.parse")
    wrap(device_module, "validate_module", "ptx.validate")
    wrap(cache_module, "translate_kernel", "frontend.translate")
    wrap(cache_module, "scalar_prepass_pipeline", "transforms.prepass",
         replace=_pipeline(tracer, "transforms.prepass"))
    wrap(cache_module, "vectorize_kernel", "transforms.vectorize")
    wrap(cache_module, "standard_cleanup_pipeline", "transforms.cleanup",
         replace=_pipeline(tracer, "transforms.cleanup"))
    wrap(Interpreter, "load_function", lower_name)
    wrap(ArrayBackend, "load_function", lower_name)
    wrap(TranslationCache, "get", "runtime.cache")
    wrap(Device, "__init__", "api.device")
    wrap(Device, "register_module", "api.register")
    wrap(Device, "warm", "api.warm")
    wrap(Device, "launch", "api.launch")
    for method in ("upload", "memcpy_htod", "memcpy_dtoh"):
        wrap(Device, method, "api.transfer")
    for method in ("read", "write"):
        wrap(Allocation, method, "api.transfer")
    for method in ("malloc", "free", "memset"):
        wrap(Device, method, "api.alloc")
    # The launcher and the execution manager are one layer.
    wrap(KernelLauncher, "launch", "runtime.em")
    wrap(ExecutionManager, "run", "runtime.em")
    # Class attributes, not instance attributes: the execution manager
    # only batches when ``execute`` is not patched on the instance.
    wrap(Interpreter, "execute", "machine.execute")
    wrap(ArrayBackend, "execute_batch", "machine.execute_batch")


class _CountingWriter:
    """Write-through proxy counting the bytes a handler sends."""

    def __init__(self, inner, counters: Dict[str, int], lock: threading.Lock):
        self._inner = inner
        self._counters = counters
        self._lock = lock

    def write(self, data) -> int:
        with self._lock:
            self._counters["bytes_out"] += len(data)
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def install_server(tracer: Tracer) -> Dict[str, object]:
    """Wrap the serving entry points of ``repro.serve``. Returns the
    live counters: request/response body bytes and the pools built."""
    from repro.api.stream import LaunchFuture
    from repro.runtime import pool as pool_module
    from repro.runtime import service
    from repro.runtime.pool import DevicePool, TenantSession

    lock = threading.Lock()
    counters = {"bytes_in": 0, "bytes_out": 0}
    pools: List[DevicePool] = []

    def handler_name(handler) -> str:
        return "service.handler." + handler.path.rsplit("/", 1)[-1]

    def handler_request(handler) -> int:
        try:
            return int(handler.headers.get("X-Request-Id", 0))
        except ValueError:
            return 0

    def count_bytes(traced: Callable) -> Callable:
        def do_post(handler):
            with lock:
                counters["bytes_in"] += int(
                    handler.headers.get("Content-Length", 0) or 0
                )
            inner = handler.wfile
            handler.wfile = _CountingWriter(inner, counters, lock)
            try:
                return traced(handler)
            finally:
                handler.wfile = inner

        return do_post

    def remember_pool(traced: Callable) -> Callable:
        def init(pool, *args, **kwargs):
            pools.append(pool)
            return traced(pool, *args, **kwargs)

        return init

    wrap = tracer.wrap
    wrap(service._Handler, "do_POST", handler_name,
         request=handler_request, replace=count_bytes)
    for method in ("register_module", "malloc", "upload", "write", "read",
                   "free", "launch_async", "synchronize"):
        wrap(TenantSession, method, "pool.call")
    # /v1/collect waits on the pool's future: pool time, not service.
    for method in ("exception", "result"):
        wrap(LaunchFuture, method, "pool.call")
    # The one private boundary: the pipe round trip to a worker.
    wrap(pool_module._Worker, "call", "pool.worker_rpc")
    wrap(DevicePool, "__init__", "pool.start", replace=remember_pool)
    return {"counters": counters, "pools": pools}
