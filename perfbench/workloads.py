"""The four workloads. Each returns a :class:`Report` holding every
end-to-end metric and every per-layer metric (0 for a layer the
workload does not exercise).

Every workload measures all end-to-end metrics on its own traffic:

* ``compile_s.*`` times cold compiles of the workload's module set;
* ``exec_s.*`` times warm passes over its application set, or, for
  ``compile`` and ``serve``, over the served request list in process;
* ``launch_*``, ``transfer_*`` and ``serve_max_per_s`` come from the
  HTTP server on ``serve`` and from the same request list through
  ``Device`` (interpreter backend, the server's) everywhere else.

The in-process phases run interleaved in rounds (see :func:`rounds`),
so each item's repetitions spread over the whole run. In traced runs
the rounds alternate between traced and untraced; per-layer metrics
come from the traced passes and ``trace.overhead_pct`` compares the two
kinds on the workload's main phase.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from typing import Callable, Dict, List, Tuple

import harness
import sets
import serving
from harness import BACKENDS, Run
from probes import COMPILE_SPANS, EXEC_SPANS, SERVER_SPANS
from stats import best_of, median, summarize, supported_percentile, sum_of_best
from tracing import require, save, self_times, unattributed

MAX_ROUNDS = 1000
#: Share of ``--seconds`` each phase of ``serve`` measures. Phase A
#: also runs long enough for 100 requests of each kind.
SERVE_SHARES = {"in-process": 0.25, "open": 0.6, "closed": 0.15}
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3


def peak_rss_mb() -> float:
    """Peak resident memory of this process, which hosts the Devices."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Report:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.end_to_end: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.spans: list = []

    def save_trace(self, path: str) -> None:
        save(path, self.spans)


class Pass:
    def __init__(self, value, wall: float, traced: bool, spans: list):
        self.value = value
        self.wall = wall
        self.traced = traced
        self.spans = spans


def settle() -> None:
    """Collect garbage outside the timed regions, so one phase's
    leftovers are not collected on the next phase's clock."""
    gc.collect()


def freeze() -> None:
    """After set-up: move the warm Devices out of the collector's view,
    as a long-running process's old objects are, so collections during
    the measured phases do not rescan them."""
    gc.collect()
    gc.freeze()


def rounds(run: Run, report: Report, bodies: List[Tuple[str, Callable]],
           seconds: float, min_rounds: int) -> Dict[str, List[Pass]]:
    """Repeat rounds of the ``(name, body)`` passes in order, for about
    ``seconds`` and at least ``min_rounds`` rounds, starting another
    round only while it is expected to end in time. A name may appear
    more than once per round. Interleaving spreads each body's
    repetitions over the whole run, so a slow spell on a shared host
    cannot cover all of them. Traced runs trace every other round,
    starting with the first."""
    settle()
    if run.tracer is not None:
        min_rounds = max(min_rounds, 2)
    results: Dict[str, List[Pass]] = {name: [] for name, _ in bodies}
    begin = time.perf_counter()
    deadline = begin + seconds
    for index in range(MAX_ROUNDS):
        now = time.perf_counter()
        if index >= min_rounds and now + (now - begin) / index > deadline:
            break
        traced = run.tracer is not None and index % 2 == 0
        run.set_tracing(traced)
        for name, body in bodies:
            start = time.perf_counter()
            value = body()
            wall = time.perf_counter() - start
            spans = run.tracer.drain() if run.tracer is not None else []
            report.spans.extend(spans)
            results[name].append(Pass(value, wall, traced, spans))
    run.set_tracing(False)
    return results


def traced_setup(run: Run, report: Report, body: Callable) -> Pass:
    """One set-up step, traced in traced runs."""
    run.set_tracing(True)
    start = time.perf_counter()
    value = body()
    wall = time.perf_counter() - start
    spans = run.tracer.drain() if run.tracer is not None else []
    report.spans.extend(spans)
    run.set_tracing(False)
    return Pass(value, wall, run.tracer is not None, spans)


# -- metrics from passes -----------------------------------------------------


def _per_pass(spans_by_pass: List[list]):
    spans = [span for group in spans_by_pass for span in group]
    own = self_times(spans)
    count = max(1, len(spans_by_pass))

    def per(*names: str) -> float:
        return sum(own.get(name, {}).get("self", 0.0) for name in names) / count

    return spans, per


def compile_layers(compiled: List[Pass], counts_of: Callable,
                   where: str) -> Dict[str, float]:
    """Compile layers per compile pass, from the traced passes;
    ``counts_of(pass)`` gives a pass's specializations, static
    instructions and reported translation seconds."""
    traced = [p for p in compiled if p.traced]
    if not traced:
        return {}
    spans, per = _per_pass([p.spans for p in traced])
    require(spans, COMPILE_SPANS, where)
    count = len(traced)
    program = sum(
        s[3] - s[2] for s in spans
        if not s[4] and s[1] in ("api.device", "api.register", "api.warm")
    )
    translation = sum(counts_of(p)["translation_s"] for p in traced)
    return {
        "ptx.parse_s": per("ptx.parse"),
        "ptx.validate_s": per("ptx.validate"),
        "frontend.translate_s": per("frontend.translate"),
        "transforms.prepass_s": per("transforms.prepass"),
        "transforms.vectorize_s": per("transforms.vectorize"),
        "transforms.cleanup_s": per("transforms.cleanup"),
        "machine.lower_s.interpreter": per("machine.lower.interpreter"),
        "machine.lower_s.array": per("machine.lower.array"),
        "runtime.cache_self_s": per("runtime.cache"),
        "api.compile_self_s": per("api.device", "api.register", "api.warm"),
        "compile.unattributed_s": sum(
            unattributed(p.spans, p.wall) for p in traced
        ) / count,
        "compile.specs": counts_of(traced[0])["specs"],
        "ir.instructions": counts_of(traced[0])["instructions"],
        "cache.reported_fraction": translation / program,
    }


def exec_layers(ran: List[Pass], totals, where: str) -> Dict[str, float]:
    """Execution layers per pass over both backends: times from the
    traced passes, counts (interpreter backend, whose modeled counts
    the pin makes equal to the array backend's) from every pass."""
    traced = [p for p in ran if p.traced]
    layers: Dict[str, float] = {}
    if traced:
        spans, per = _per_pass([p.spans for p in traced])
        require(spans, EXEC_SPANS, where)
        layers = {
            "api.launch_s": per("api.launch"),
            "api.transfer_s": per("api.transfer"),
            "api.alloc_s": per("api.alloc"),
            "runtime.em_self_s": per("runtime.em"),
            "runtime.cache_lookup_s": per("runtime.cache"),
            "machine.execute_s": per("machine.execute"),
            "machine.execute_batch_s": per("machine.execute_batch"),
            "workload.host_s": per("workload.execute"),
            "exec.unattributed_s": sum(
                unattributed(p.spans, p.wall) for p in traced
            ) / len(traced),
        }
    count = len(ran)
    scalar, batched = totals["interpreter"], totals["array"]
    layers.update({
        "em.warp_executions": scalar["warp_executions"] / count,
        "em.batched_fraction": batched["batched_warps"]
        / max(1, batched["warp_executions"]),
        "em.avg_warp_size": scalar["threads"] / max(1, scalar["warps"]),
        "yield.count": scalar["yields"] / count,
        "yield.values_restored": scalar["values_restored"] / count,
        "machine.instructions": scalar["instructions"] / count,
        "mem.loads": scalar["loads"] / count,
        "mem.stores": scalar["stores"] / count,
        "cache.misses": (scalar["cache_misses"] + batched["cache_misses"])
        / count,
    })
    return layers


def overhead_pct(ran: List[Pass]) -> float:
    """Tracing overhead: best traced pass over best untraced pass."""
    traced = [p.wall for p in ran if p.traced]
    plain = [p.wall for p in ran if not p.traced]
    return 100.0 * (min(traced) / min(plain) - 1.0)


def compile_seconds(compiled: List[Pass]) -> Dict[str, float]:
    """``compile_s.<backend>``: each module's best compile time over
    the passes, summed over the module set."""
    result = {}
    for backend in BACKENDS:
        samples: Dict[str, List[float]] = {}
        for p in compiled:
            for name, seconds in p.value[0][backend].items():
                samples.setdefault(name, []).append(seconds)
        result[f"compile_s.{backend}"] = sum_of_best(samples)
    return result


def best_requests(served: List[Pass], backend: str, kind: str) -> List[float]:
    """Each request's best latency over the passes of the request list."""
    return best_of([p.value[backend][kind] for p in served])


def served_end_to_end(report: Report, served: List[Pass],
                      with_requests: bool) -> None:
    """``exec_s.*`` from in-process passes over the served request
    list and, when ``with_requests``, the request metrics from its
    interpreter-backend launches and transfers."""
    for backend in BACKENDS:
        report.end_to_end[f"exec_s.{backend}"] = sum(
            best_requests(served, backend, "launch")
        ) + sum(best_requests(served, backend, "transfer"))
    if with_requests:
        inprocess_requests(report, served)


def inprocess_requests(report: Report, served: List[Pass]) -> None:
    launches = best_requests(served, "interpreter", "launch")
    transfers = best_requests(served, "interpreter", "transfer")
    request_metrics(report, "in-process", launches, transfers,
                    len(launches) / sum(launches))


def request_metrics(report: Report, where: str, launches: List[float],
                    transfers: List[float], per_second: float) -> None:
    """Request latency metrics. The launch p90 is printed but not
    reported: over HTTP it follows the kernel's adaptive delayed-ACK
    timer (40 to 200 ms stalls), which moves it by up to 40% between
    runs of the same code."""
    for kind, samples in (("launch", launches), ("transfer", transfers)):
        ms = [1e3 * s for s in samples]
        summary = summarize(ms)
        report.end_to_end[f"{kind}_p50_ms"] = summary["p50"]
        if kind == "transfer":
            report.end_to_end["transfer_p90_ms"] = supported_percentile(
                ms, 90.0
            )
        report.lines.append(
            f"{where} {kind}: n={summary['n']} p50={summary['p50']:.3f} ms "
            f"p{summary['tail_q']:g}={summary['tail']:.3f} ms"
        )
    report.end_to_end["serve_max_per_s"] = per_second


# -- workloads ---------------------------------------------------------------


def run_compile(run: Run, scratch: str) -> Report:
    """Cold compiles of every module in the fixed application set at
    widths 1/2/4, on fresh Devices for both backends, with no
    persistent cache and no launches; the served request list runs in
    its own interleaved passes for the other end-to-end metrics."""
    report = Report()
    sources = harness.module_sources(sets.ALL)
    setups, served = [], None
    for _ in range(SETUP_REPEATS):
        served = None
        settle()
        start = time.perf_counter()
        served = harness.ServedDevices(run)
        setups.append(time.perf_counter() - start)
    freeze()
    totals = harness.new_totals()
    serve_pass = ("served", lambda: harness.served_pass(run, served, totals))
    measured = rounds(run, report, [
        ("compile", lambda: harness.compile_pass(run, sources)),
        serve_pass,
        serve_pass,
    ], run.seconds, min_rounds=3)
    compiled, ran = measured["compile"], measured["served"]
    report.end_to_end["setup_s"] = median(setups)
    report.end_to_end.update(compile_seconds(compiled))
    served_end_to_end(report, ran, with_requests=True)
    report.end_to_end["peak_rss_mb"] = peak_rss_mb()
    report.lines.append(f"compile: {len(compiled)} passes over "
                        f"{len(sources)} modules x {len(BACKENDS)} backends")
    if run.tracer is not None:
        report.layers.update(compile_layers(
            compiled, lambda p: p.value[2], "compile passes"
        ))
        report.layers.update(exec_layers(ran, totals, "served passes"))
        report.layers["trace.overhead_pct"] = overhead_pct(compiled)
    return report


def run_apps(names, run: Run, scratch: str) -> Report:
    """Warm, output-checked runs of a fixed application set on both
    backends. Cold compiles of the set's modules, in set-up and once per
    round, give ``compile_s.*``."""
    report = Report()
    sources = harness.module_sources(names)
    setups, builds, served = [], [], None
    for _ in range(SETUP_REPEATS):
        if builds:  # free the previous set-up's Devices
            builds[-1].value = (builds[-1].value[0], None, builds[-1].value[2])
        served = None
        gc.unfreeze()
        settle()
        start = time.perf_counter()
        builds.append(traced_setup(
            run, report, lambda: harness.compile_pass(run, sources, keep=True)
        ))
        served = harness.ServedDevices(run)
        setups.append(time.perf_counter() - start)
    devices = builds[-1].value[1]
    freeze()
    totals = harness.new_totals()
    served_totals = harness.new_totals()
    serve_pass = (
        "served", lambda: harness.served_pass(run, served, served_totals)
    )
    measured = rounds(run, report, [
        ("compile", lambda: harness.compile_pass(run, sources)),
        serve_pass,
        ("apps", lambda: harness.app_pass(run, devices, totals)),
        serve_pass,
    ], run.seconds, min_rounds=2)
    compiled = builds + measured["compile"]
    ran, requests = measured["apps"], measured["served"]
    report.end_to_end["setup_s"] = median(setups)
    report.end_to_end.update(compile_seconds(compiled))
    for backend in BACKENDS:
        samples: Dict[str, List[float]] = {}
        for p in ran:
            for name, seconds in p.value[backend].items():
                samples.setdefault(name, []).append(seconds)
        report.end_to_end[f"exec_s.{backend}"] = sum_of_best(samples)
    inprocess_requests(report, requests)
    report.end_to_end["peak_rss_mb"] = peak_rss_mb()
    report.lines.append(f"apps: {len(ran)} passes over {len(names)} "
                        f"applications x {len(BACKENDS)} backends")
    if run.tracer is not None:
        report.layers.update(compile_layers(
            compiled, lambda p: p.value[2], "compile passes"
        ))
        report.layers.update(exec_layers(ran, totals, "application passes"))
        report.layers["trace.overhead_pct"] = overhead_pct(ran)
    return report


def run_serve(run: Run, scratch: str) -> Report:
    """``repro.serve`` with 2 workers behind HTTP: open loop (phase A)
    then closed loop (phase B)."""
    report = Report()
    trace_out = (
        os.path.join(scratch, "server-trace") if run.tracer is not None
        else None
    )
    setups = []
    server = generator = None
    try:
        for index in range(SETUP_REPEATS):
            last = index == SETUP_REPEATS - 1
            served = None
            settle()
            start = time.perf_counter()
            served = harness.ServedDevices(run)
            server = serving.Server(scratch, dict(os.environ),
                                    trace_out if last else None)
            server.start()
            generator = serving.Generator(run, server)
            generator.ready()
            setups.append(time.perf_counter() - start)
            if not last:
                generator.close()
                server.stop()
        freeze()
        sources = sets.served_modules()
        totals = harness.new_totals()
        compile_pass = (
            "compile", lambda: harness.compile_pass(run, sources)
        )
        serve_pass = (
            "served", lambda: harness.served_pass(run, served, totals)
        )
        # Two small modules compile in a tenth of a second: two compile
        # passes per round give each module as many samples as a request.
        bodies = [compile_pass, serve_pass, compile_pass, serve_pass]
        # In-process rounds before phase A and after phase B, so their
        # repetitions span the run.
        in_process = SERVE_SHARES["in-process"] * run.seconds / 2
        before = rounds(run, report, bodies, in_process, min_rounds=2)
        phase_a = generator.open_loop(SERVE_SHARES["open"] * run.seconds)
        capacity = generator.closed_loop(
            SERVE_SHARES["closed"] * run.seconds
        )
        after = rounds(run, report, bodies, in_process, min_rounds=2)
        compiled = before["compile"] + after["compile"]
        ran = before["served"] + after["served"]
        generator.final_checks()
        counts = generator.pool_counts()
        report.end_to_end["peak_rss_mb"] = server.peak_rss_mb()
        requests = [r for t in generator.tenants for r in t.requests]
        shed = generator.shed
        generator.close()
        generator = None
        stopped = server.stop()
        report.lines.append(f"server stop: {stopped}")
    finally:
        if generator is not None:
            generator.close()
        if server is not None:
            server.stop()
    report.end_to_end["setup_s"] = median(setups)
    report.end_to_end.update(compile_seconds(compiled))
    served_end_to_end(report, ran, with_requests=False)
    latency = phase_a["latency"]
    request_metrics(report, "http", latency["launch"], latency["transfer"],
                    capacity)
    late = phase_a["late"]
    report.lines.append(
        f"http phase A: rate {serving.RATE:g}/s, {len(late)} requests, "
        f"generator late p50={1e3 * median(late):.3f} ms; phase B "
        f"{capacity:.2f} pairs/s; shed={shed}"
    )
    if run.tracer is not None:
        layers = report.layers
        layers.update(compile_layers(
            compiled, lambda p: p.value[2], "compile passes"
        ))
        layers.update(exec_layers(ran, totals, "served passes"))
        spans, extras = serving.load_server_trace(trace_out)
        begin, end = phase_a["window"]
        require([s for s in spans if begin <= s[2] <= end], SERVER_SPANS,
                "phase A on the server")
        layers.update(serving.server_layers(requests, spans, extras,
                                            phase_a["window"]))
        layers.update({f"pool.{key}": value for key, value in counts.items()})
        layers["service.shed"] = shed
        layers["gen.late_ms"] = 1e3 * sum(late) / len(late)
        layers["trace.overhead_pct"] = overhead_pct(ran)
    return report


RUNNERS = {
    "compile": run_compile,
    "uniform": lambda run, scratch: run_apps(sets.UNIFORM, run, scratch),
    "divergent": lambda run, scratch: run_apps(sets.DIVERGENT, run, scratch),
    "serve": run_serve,
}
