"""In-memory spans recorded around calls into the package's layers.

A span holds its name, start and end, the index of
the span that caused it, the op it belongs to and, between ``start`` and
``stop``, the peak number of bytes ``tracemalloc`` saw allocated above the
span's starting level (0 outside).  Times are process CPU seconds, the
clock the end-to-end metrics use.  Spans stay in memory until ``dump``
writes them.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op_id, peak_bytes]
        self.op_id = None
        self._stack = []
        self._base = {}

    def start(self):
        tracemalloc.start()

    def stop(self):
        tracemalloc.stop()

    def _fold_peak(self, idx):
        """Charge the allocation peak seen so far to span ``idx``."""
        peak = tracemalloc.get_traced_memory()[1] - self._base[idx]
        self.spans[idx][5] = max(self.spans[idx][5], peak)

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        for open_idx in self._stack:
            self._fold_peak(open_idx)
        tracemalloc.reset_peak()
        self._base[idx] = tracemalloc.get_traced_memory()[0]
        self.spans.append([name, time.process_time(), None, parent, self.op_id, 0])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.process_time()
            self._stack.pop()
            self._fold_peak(idx)
            del self._base[idx]

    def self_times(self):
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_stats(self, name):
        """(calls, median self ms, max per-call peak MB) for one span name."""
        own = self.self_times()
        picked = [i for i, s in enumerate(self.spans) if s[0] == name]
        if not picked:
            return 0, 0.0, 0.0
        return (
            len(picked),
            statistics.median(own[i] for i in picked) * 1e3,
            max(self.spans[i][5] for i in picked) / 2**20,
        )

    def dump(self, path, header):
        fields = ("name", "start", "end", "parent", "op", "peak_bytes")
        with open(path, "w") as fh:
            json.dump(
                {**header, "fields": fields, "spans": self.spans}, fh, separators=(",", ":")
            )
