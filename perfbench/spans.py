"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by the benchmark around its own calls into each
layer of ``repro`` (nothing inside ``src/`` is instrumented).  A span
holds its name, start, end and parent; spans stay in memory and are
written out once, as Chrome trace-event JSON that Perfetto and
``chrome://tracing`` load directly.

A *layer* span is named ``<module>.<operation>`` after the ``repro``
subpackage it calls into (``emulator.run``, ``uarch.timing``...).
Structural spans the benchmark opens for grouping are named
``bench.*``: their self time belongs to no layer and is reported as
``unattributed``, never apportioned.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from time import perf_counter
from typing import Dict, List, Optional

_NULL = nullcontext()

#: Prefix of structural (non-layer) spans.
STRUCTURAL = "bench."


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str, args: Optional[dict]):
        self.tracer = tracer
        stack = tracer._stack
        parent = stack[-1] if stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append([name, 0.0, 0.0, parent, args])

    def __enter__(self) -> "_Span":
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][1] = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][2] = perf_counter()
        self.tracer._stack.pop()

    def annotate(self, **args) -> None:
        """Attach extra key/values (counters) to this span."""
        record = self.tracer.spans[self.index]
        record[4] = {**(record[4] or {}), **args}


class Tracer:
    """Records nested spans when enabled; a no-op context otherwise.

    The benchmark runs the same code traced and untraced: with
    ``enabled=False`` every :meth:`span` call returns one shared null
    context, so the untraced timed runs pay one attribute lookup and
    one call per layer boundary.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: [name, start, end, parent index (-1 = root), args or None]
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, **args):
        if not self.enabled:
            return _NULL
        return _Span(self, name, args or None)

    def self_times(self, root: Optional[str] = None) -> Dict[str, float]:
        """Self time summed per span name, within ``root``'s subtree.

        A span's self time is its duration minus the durations of its
        direct children (children never overlap: one thread, strictly
        nested spans).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inside = self._subtree(root)
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if index in inside:
                totals[name] = (
                    totals.get(name, 0.0) + (end - start) - child_time[index]
                )
        return totals

    def _subtree(self, root: Optional[str]) -> set:
        if root is None:
            return set(range(len(self.spans)))
        members = {
            index for index, span in enumerate(self.spans) if span[0] == root
        }
        for index, span in enumerate(self.spans):
            if span[3] in members:
                members.add(index)
        return members

    def write_chrome(self, path: str, metadata: dict) -> None:
        """Write the spans as Chrome trace-event JSON (``ph: "X"``)."""
        origin = min((span[1] for span in self.spans), default=0.0)
        events = []
        for index, (name, start, end, parent, args) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            event_args = {"id": index, "parent": parent}
            if parent >= 0:
                event_args["parent_name"] = self.spans[parent][0]
            if args:
                event_args.update(args)
            events.append({
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": os.getpid(),
                "tid": 1,
                "args": event_args,
            })
        with open(path, "w") as stream:
            json.dump({
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": metadata,
            }, stream, indent=1)


def layer_table(self_times: Dict[str, float], wall: float,
                overhead: float) -> str:
    """Per-layer self-time table with the unattributed remainder."""
    named = {
        name: seconds for name, seconds in self_times.items()
        if not name.startswith(STRUCTURAL)
    }
    covered = sum(named.values())
    lines = [f"{'layer span':24s} {'self s':>9s} {'share':>7s}"]
    for name in sorted(named, key=named.get, reverse=True):
        share = 100.0 * named[name] / wall if wall > 0 else 0.0
        lines.append(f"{name:24s} {named[name]:9.4f} {share:6.1f}%")
    remainder = wall - covered
    share = 100.0 * remainder / wall if wall > 0 else 0.0
    lines.append(f"{'unattributed':24s} {remainder:9.4f} {share:6.1f}%")
    lines.append(f"{'traced wall_s':24s} {wall:9.4f}")
    lines.append(f"{'tracing.overhead_s':24s} {overhead:9.4f}")
    return "\n".join(lines)
