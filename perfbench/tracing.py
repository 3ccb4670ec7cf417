"""Span recording and profiling for the benchmark's traced run.

Spans are recorded by the benchmark around its own calls into the library's
public functions; nothing inside ``src/`` is instrumented.  A span carries a
name, start and end (``time.perf_counter`` seconds), the id of the span that
caused it, the request it belongs to and the thread it ran on.  Spans stay in
memory and are written out once, at the end of the run, as a Chrome
trace-event file (loads in Perfetto or ``chrome://tracing``).

The profile side measures cProfile self time and groups it by the
``src/repro`` subpackage that owns the function, so work that spans miss
(descriptor arithmetic called from the strip-miner, for example) lands in the
layer whose code actually ran.  cProfile charges a fixed cost per call, so
layers made of many small calls read inflated.
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import itertools
import json
import pstats
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

#: Subpackages of ``src/repro`` reported as their own profile layer; every
#: other function (stdlib, sockets, other repro modules) is ``other``.
PROFILE_LAYERS = (
    "hpf", "core", "planner", "check", "api", "runtime", "machine",
    "resilience", "service", "numpy",
)

#: Blocking waits: an idle event loop, idle worker threads, sleeps.  Their
#: cProfile "self time" is time spent doing nothing, so the shares leave it out.
IDLE_WAITS = frozenset((
    "<method 'poll' of 'select.epoll' objects>",
    "<method 'get' of '_queue.SimpleQueue' objects>",
    "<method 'acquire' of '_thread.lock' objects>",
    "<built-in method time.sleep>",
    "<built-in method select.select>",
))


@dataclasses.dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; safe to share between client threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, request: int) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, request,
                        threading.get_ident())
            with self._lock:
                self.spans.append(span)

    def per_request(self, name: str) -> Dict[int, float]:
        """Total duration of spans called ``name``, keyed by request."""
        totals: Dict[int, float] = {}
        for span in self.spans:
            if span.name == name:
                totals[span.request] = totals.get(span.request, 0.0) + span.duration
        return totals

    def median(self, name: str, requests: Optional[Sequence[int]] = None) -> float:
        """Per-request median of ``name``; 0.0 when no request recorded it."""
        totals = self.per_request(name)
        if requests is not None:
            totals = {r: totals[r] for r in requests if r in totals}
        return statistics.median(totals.values()) if totals else 0.0

    def coverage(self, root: str = "request") -> float:
        """Median share of a root span's time covered by its direct children."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.duration
        shares = [children.get(s.span_id, 0.0) / s.duration
                  for s in self.spans if s.name == root and s.duration > 0]
        return statistics.median(shares) if shares else 0.0

    def write_chrome_trace(self, path: Path) -> None:
        """Write every span as a Chrome trace-event ``X`` (complete) event."""
        origin = min((s.start for s in self.spans), default=0.0)
        threads = {tid: index for index, tid in
                   enumerate(sorted({s.thread for s in self.spans}), start=1)}
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": threads[s.thread],
                "args": {"id": s.span_id, "parent": s.parent, "request": s.request},
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


class ThreadProfiles:
    """cProfile over the calling thread and every thread started afterwards.

    cProfile hooks one thread at a time.  ``threading.setprofile`` installs a
    bootstrap hook in each new thread that starts that thread's own profiler,
    so worker threads (the job service's ``asyncio.to_thread`` pool) are
    profiled as well.
    """

    def __init__(self) -> None:
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _new(self) -> None:
        profile = cProfile.Profile()
        with self._lock:
            self._profiles.append(profile)
        profile.enable()

    def _bootstrap(self, frame, event, arg) -> None:
        sys.setprofile(None)
        self._new()

    def start(self) -> None:
        threading.setprofile(self._bootstrap)
        self._new()

    def stop(self) -> pstats.Stats:
        threading.setprofile(None)
        with self._lock:
            profiles = list(self._profiles)
        for profile in profiles:
            profile.disable()
        stats = pstats.Stats(profiles[0])
        for profile in profiles[1:]:
            stats.add(profile)
        return stats


def layer_of(filename: str, function: str) -> str:
    """The profile layer owning a pstats entry (file name, function name)."""
    if filename == "~" and function in IDLE_WAITS:
        return "idle"
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        sub = path.rsplit("/repro/", 1)[1].split("/", 1)[0]
        return sub if sub in PROFILE_LAYERS else "other"
    if "/numpy/" in path or (filename == "~" and "numpy" in function):
        return "numpy"
    return "other"


def layer_shares(stats: pstats.Stats) -> Dict[str, float]:
    """Self-time share of each profile layer, idle waits left out (sum 1)."""
    totals = {layer: 0.0 for layer in (*PROFILE_LAYERS, "other", "idle")}
    for (filename, _line, function), entry in stats.stats.items():  # type: ignore[attr-defined]
        totals[layer_of(filename, function)] += entry[2]  # entry[2] = self time
    del totals["idle"]
    whole = sum(totals.values()) or 1.0
    return {layer: value / whole for layer, value in totals.items()}


def write_profile_table(stats: pstats.Stats, shares: Dict[str, float], path: Path,
                        title: str, top: int = 25) -> None:
    """Per-layer share table plus the top functions by self time."""
    lines = [title, "",
             "self-time share by layer (cProfile; layers of many small calls read "
             "inflated; idle waits excluded):"]
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<11} {share * 100:6.2f}%")
    lines += ["", f"top {top} functions by self time:",
              f"  {'self_s':>9} {'calls':>9}  layer       function"]
    entries = sorted(stats.stats.items(), key=lambda kv: -kv[1][2])  # type: ignore[attr-defined]
    for (filename, line, function), entry in entries[:top]:
        where = f"{Path(filename).name}:{line}({function})" if filename != "~" else function
        lines.append(f"  {entry[2]:9.4f} {entry[1]:9d}  "
                     f"{layer_of(filename, function):<11} {where}")
    path.write_text("\n".join(lines) + "\n")
