"""In-memory spans around the benchmark's calls into each layer.

A span has a name ("<layer>.<function>"), a start, an end, the span that
enclosed it and the item it belongs to.  Spans live in flat arrays while the
benchmark runs and are written out once, at the end.  A span's self time is
its duration minus the durations of its direct children; a layer's busy time
is the self time of all spans whose name starts with that layer.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Tracing off: the same interface, recording nothing."""

    def begin(self, name, item=-1):
        pass

    def end(self):
        pass

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Records spans; begin/end nest, call wraps one function call."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("I")
        self.start = array("d")
        self.stop = array("d")
        self.parent = array("i")
        self.item = array("q")
        self._open = []

    def begin(self, name, item=-1):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        parent = self._open[-1] if self._open else -1
        if item == -1 and parent != -1:
            item = self.item[parent]
        self.name.append(nid)
        self.parent.append(parent)
        self.item.append(item)
        self.stop.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())

    def end(self):
        t = perf_counter()
        self.stop[self._open.pop()] = t

    def call(self, name, fn, *args):
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end()

    def __len__(self):
        return len(self.start)

    def self_times(self) -> tuple:
        """(self seconds by span name, span count by span name)."""
        own = [self.stop[i] - self.start[i] for i in range(len(self))]
        for i, parent in enumerate(self.parent):
            if parent != -1:
                own[parent] -= self.stop[i] - self.start[i]
        seconds = defaultdict(float)
        calls = defaultdict(int)
        for i, nid in enumerate(self.name):
            seconds[self.names[nid]] += own[i]
            calls[self.names[nid]] += 1
        return dict(seconds), dict(calls)

    def write(self, path) -> None:
        """One JSON object per span, gzip-compressed; times in seconds from the first span."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name[i]],
                    "start": self.start[i] - t0, "end": self.stop[i] - t0,
                    "parent": self.parent[i], "item": self.item[i]}))
                fh.write("\n")
