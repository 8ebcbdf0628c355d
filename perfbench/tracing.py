"""Spans around the public entry points of each serving layer (traced run only).

:class:`Tracer` patches the calls named in :data:`LAYER_CALLS` where they are
looked up — class attributes, or module globals for functions imported into
another module's namespace — and restores them on exit.  Each span records
its layer, call, start, end, parent and a per-call count.  The current span
lives in a ``ContextVar``, so every thread and every asyncio task keeps its
own stack; a span opened on a shard pool thread with no parent of its own is
a child of the sharding span that fanned out to it.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.dsp import peaks
from repro.features import extractor
from repro.quant import quantized_model
from repro.serving import fleet, ingest, sharding, streaming
from repro.signals import windows


#: (owner, attribute, layer, count(args, result) or None).  ``count`` is the
#: layer's unit of work for one call (bytes, samples, windows, rows...).
LAYER_CALLS: List[Tuple[object, str, str, Optional[Callable]]] = [
    (fleet, "decode_chunk_checked", "wire", lambda a, r: len(a[0])),
    (sharding, "decode_chunk_checked", "wire", lambda a, r: len(a[0])),
    (ingest, "decode_chunk", "wire", lambda a, r: len(a[0])),
    (ingest.IngestGateway, "submit", "ingest", None),
    (sharding.ShardedFleet, "push", "sharding", None),
    (sharding.ShardedFleet, "maybe_drain", "sharding", lambda a, r: len(r)),
    (sharding.ShardedFleet, "drain", "sharding", lambda a, r: len(r)),
    (sharding.ShardedFleet, "reshard", "sharding", lambda a, r: len(r)),
    (fleet.MonitorFleet, "push", "fleet", None),
    (fleet.MonitorFleet, "maybe_drain", "fleet", lambda a, r: len(r)),
    (fleet.MonitorFleet, "drain", "fleet", lambda a, r: len(r)),
    (streaming.StreamingMonitor, "push", "streaming", lambda a, r: len(r)),
    (streaming.StreamingMonitor, "note_gap", "streaming", lambda a, r: int(r)),
    (peaks.StreamingPeakDetector, "process", "peaks", lambda a, r: len(a[1])),
    (windows.StreamingWindower, "push", "windows", lambda a, r: len(r)),
    (windows.StreamingWindower, "advance", "windows", lambda a, r: len(r)),
    (extractor.FeatureExtractor, "extract_beat_window", "features", None),
    (quantized_model.QuantizedSVM, "scores_and_labels", "quant", lambda a, r: len(r[0])),
]

#: Span record: (id, parent, layer, call, thread, start, end, count, failed).
Span = Tuple[int, Optional[int], str, str, int, float, float, int, bool]


class Tracer:
    """Install with ``with Tracer(clock) as tracer:``; read :attr:`spans`."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: Hooks ``(args, kwargs, result, start, end)`` per (layer, call), run
        #: after a span closes without error; extra counters hang off these.
        self.observers: Dict[Tuple[str, str], List[Callable]] = defaultdict(list)
        self._ids = itertools.count()
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
        self._fanout: Optional[int] = None
        self._main = threading.get_ident()
        self._saved: List[Tuple[object, str, object]] = []

    def observe(self, layer: str, call: str, hook: Callable) -> None:
        self.observers[(layer, call)].append(hook)

    def __enter__(self) -> "Tracer":
        for owner, attr, layer, count in LAYER_CALLS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, attr, count))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _open(self, layer: str) -> Tuple[int, Optional[int], contextvars.Token]:
        sid = next(self._ids)
        parent = self._current.get()
        if parent is None and threading.get_ident() != self._main:
            parent = self._fanout
        if layer == "sharding":
            self._fanout = sid
        return sid, parent, self._current.set(sid)

    def _close(self, sid, parent, token, layer, call, t0, args, kwargs, result, failed,
               count) -> None:
        t1 = self.clock()
        self._current.reset(token)
        n = count(args, result) if (count is not None and not failed) else 1
        self.spans.append(
            (sid, parent, layer, call, threading.get_ident(), t0, t1, n, failed)
        )
        if not failed:
            for hook in self.observers.get((layer, call), ()):
                hook(args, kwargs, result, t0, t1)

    def _wrap(self, fn, layer: str, call: str, count):
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid, parent, token = self._open(layer)
                t0 = self.clock()
                result, failed = None, True
                try:
                    result = await fn(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    self._close(
                        sid, parent, token, layer, call, t0, args, kwargs, result, failed, count
                    )

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, token = self._open(layer)
            t0 = self.clock()
            result, failed = None, True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._close(
                    sid, parent, token, layer, call, t0, args, kwargs, result, failed, count
                )

        return wrapper

    # ------------------------------------------------------------ analysis
    def self_times(self) -> Dict[Tuple[str, str], List[float]]:
        """(layer, call) -> [self seconds, calls, count sum, failed calls].

        Self time is a span's duration minus the part of it that its child
        spans cover (children on other threads may overlap each other, so
        coverage is the union of their intervals)."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, parent, _, _, _, t0, t1, _, _ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0.0, 0, 0, 0])
        for sid, _, layer, call, _, t0, t1, n, failed in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            entry = out[(layer, call)]
            entry[0] += (t1 - t0) - covered
            entry[1] += 1
            entry[2] += n
            entry[3] += int(failed)
        return out

    def write(self, path) -> None:
        """Dump the spans as JSON lines (one list per span)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
