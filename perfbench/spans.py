"""In-memory spans around the benchmark's calls into the qubitrot package,
and a stack sampler that shares CPU time out over the package's modules.

Span names are ``<module>.<function>``; the module part names the layer.
The benchmark's own operation spans use the module name ``bench``. Spans are
kept in a list and written out once, when the run ends.

Spans only see the calls the benchmark makes, so all of ``cli.main`` is
``cli`` time even when most of it is spent integrating. The sampler sees
inside those calls without touching the package.
"""

from __future__ import annotations

import json
import signal
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

SAMPLE_PERIOD_S = 0.002


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Times every call made through it; records spans only when enabled."""

    def __init__(self, enabled: bool, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` in a span; return ``(result, seconds)``."""
        with self.span(name):
            t0 = self.clock()
            result = fn(*args, **kwargs)
            seconds = self.clock() - t0
        return result, seconds

    @contextmanager
    def operation(self, op_id: int, name: str):
        """Parent span of one benchmark operation; its children share ``op_id``."""
        self._op = op_id
        try:
            with self.span(f"bench.{name}"):
                yield
        finally:
            self._op = None

    def self_seconds(self, first: int = 0, stop: int | None = None) -> dict[str, float]:
        """Self time per module of ``spans[first:stop]``: each span's duration
        minus the time its children cover. Children run one after another on
        one thread, so their durations add."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for index, s in enumerate(self.spans[first:stop], start=first):
            out[s.module] += (s.end - s.start) - child_time[index]
        return dict(out)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta, spans=[asdict(s) for s in self.spans])
        path.write_text(json.dumps(doc) + "\n")


def span_seconds() -> float:
    """Cost of one span of an enabled tracer, from empty spans in a loop."""
    calls = 20000
    tr = Tracer(enabled=True)
    t0 = time.perf_counter()
    for _ in range(calls):
        with tr.span("bench.empty"):
            pass
    return (time.perf_counter() - t0) / calls


class LayerSampler:
    """Share of the process's CPU time per module of a package, from a stack
    sample every SAMPLE_PERIOD_S of CPU time. A sample counts for the innermost
    frame on the stack whose code is in the package, so time in numpy or
    scipy counts for the package module that called them; a sample with no
    package frame counts for ``bench``. Child processes, such as a worker
    pool's, are not sampled."""

    def __init__(self, package_dir: Path):
        self.prefix = str(package_dir) + "/"
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds = 0.0  # spent in the handler

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        module = "bench"
        while frame is not None:
            path = frame.f_code.co_filename
            if path.startswith(self.prefix):
                module = Path(path).stem
                break
            frame = frame.f_back
        self.counts[module] += 1
        self.seconds += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Python runs the handler on the main thread between bytecodes."""
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def shares(self) -> dict[str, float]:
        total = sum(self.counts.values())
        return {k: v / total for k, v in sorted(self.counts.items())}
