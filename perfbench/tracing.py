"""Spans recorded around the program's layer entry points.

The traced run replaces named functions and methods with timing
wrappers at run time; the program's source is not touched. A span is
``(id, name, start, end, parent, request)``: ``parent`` is the id of
the span open on the same thread when it started (0 for a root) and
``request`` is the request id it serves (0 when none; children inherit
their parent's). Spans stay in memory until :meth:`Tracer.drain` and
are written out with :func:`save`.

A layer's self time is its spans' duration minus the part covered by
their child spans (:func:`self_times`). Whatever a phase spent outside
every root span is its unattributed remainder (:func:`unattributed`).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

Span = Tuple[int, str, float, float, int, int]


class TraceError(RuntimeError):
    """A traced entry point is missing or was never reached."""


class Tracer:
    def __init__(self) -> None:
        self.records: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, request: int) -> Tuple[int, int, int]:
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (0, 0)
        span_id = next(self._ids)
        request = request or inherited
        stack.append((span_id, request))
        return span_id, parent, request

    def _exit(self, name, span_id, parent, request, start) -> None:
        end = time.perf_counter()
        self._stack().pop()
        # list.append is atomic, so handler threads may record freely.
        self.records.append((span_id, name, start, end, parent, request))

    def span(self, name: str, request: int = 0) -> "_SpanContext":
        """Context manager recording one span around a block."""
        return _SpanContext(self, name, request)

    def traced(
        self,
        function: Callable,
        name: Union[str, Callable[..., str]],
        request: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """``function`` wrapped in a span. ``name`` and ``request`` may
        be callables of the call's arguments."""
        name_of = name if callable(name) else None
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_name = name_of(*args, **kwargs) if name_of else name
            span_id, parent, req = tracer._enter(
                request(*args, **kwargs) if request else 0
            )
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                tracer._exit(span_name, span_id, parent, req, start)

        return wrapper

    # -- installing --------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: Union[str, Callable[..., str]],
        request: Optional[Callable[..., int]] = None,
        replace: Optional[Callable[[Callable], Callable]] = None,
    ) -> None:
        """Replace ``owner.attribute`` (a module function or a method
        defined on the class itself) with a traced version. A missing
        entry point raises :class:`TraceError` instead of silently
        reporting zero. ``replace`` builds the replacement from the
        traced function when more than a span is needed."""
        original = vars(owner).get(attribute)
        if not callable(original):
            label = getattr(owner, "__name__", repr(owner))
            raise TraceError(
                f"traced entry point {label}.{attribute} no longer "
                f"exists; update the benchmark's probe list"
            )
        replacement = self.traced(original, name, request)
        if replace is not None:
            replacement = replace(replacement)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped entry point (last wrapped first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def drain(self) -> List[Span]:
        """Take the spans recorded so far."""
        records, self.records = self.records, []
        return records


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, request: int):
        self.tracer = tracer
        self.name = name
        self.request = request

    def __enter__(self):
        self.span_id, self.parent, self.request = self.tracer._enter(
            self.request
        )
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.tracer._exit(
            self.name, self.span_id, self.parent, self.request, self.start
        )
        return False


# -- arithmetic ----------------------------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, ``total`` seconds and ``self`` seconds
    (total minus the time covered by direct child spans)."""
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent:
            covered[parent] += end - start
    result: Dict[str, Dict[str, float]] = {}
    for span_id, name, start, end, _, _ in spans:
        entry = result.setdefault(
            name, {"count": 0, "total": 0.0, "self": 0.0}
        )
        duration = end - start
        entry["count"] += 1
        entry["total"] += duration
        entry["self"] += duration - covered.get(span_id, 0.0)
    return result


def unattributed(spans: Iterable[Span], wall_seconds: float) -> float:
    """Wall time of a phase not covered by any of its root spans."""
    return wall_seconds - sum(
        end - start for _, _, start, end, parent, _ in spans if not parent
    )


def require(spans: Iterable[Span], names: Iterable[str], where: str) -> None:
    """Fail loudly when a traced entry point was never reached: a moved
    call path would otherwise read as a layer costing nothing."""
    seen = {span[1] for span in spans}
    missing = sorted(set(names) - seen)
    if missing:
        raise TraceError(
            f"no spans for {', '.join(missing)} during {where}; the "
            f"program no longer calls these entry points there"
        )


# -- output --------------------------------------------------------------


def save(path: str, spans: List[Span]) -> None:
    """Write spans as arrays (``np.load(path)`` reads them back)."""
    names = sorted({span[1] for span in spans})
    index = {name: position for position, name in enumerate(names)}
    np.savez_compressed(
        path,
        names=np.array(names, dtype=str),
        id=np.array([s[0] for s in spans], dtype=np.int64),
        name=np.array([index[s[1]] for s in spans], dtype=np.int32),
        start=np.array([s[2] for s in spans], dtype=np.float64),
        end=np.array([s[3] for s in spans], dtype=np.float64),
        parent=np.array([s[4] for s in spans], dtype=np.int64),
        request=np.array([s[5] for s in spans], dtype=np.int64),
    )


def load(path: str) -> List[Span]:
    with np.load(path, allow_pickle=False) as data:
        names = [str(name) for name in data["names"]]
        return [
            (int(i), names[n], float(s), float(e), int(p), int(r))
            for i, n, s, e, p, r in zip(
                data["id"], data["name"], data["start"], data["end"],
                data["parent"], data["request"],
            )
        ]
