"""In-memory spans recorded around the benchmark's calls into gbdp."""

import time
from contextlib import contextmanager


class Tracer:
    """Spans of one replayed operation: (name, start, end, parent index)."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self):
        """Total self time per span name: duration minus the children's.

        Children of one span run one after another, so the part of the
        parent they cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[k]
        return out

    def records(self):
        return [
            {"id": k, "name": name, "start": start, "end": end,
             "parent": parent}
            for k, (name, start, end, parent) in enumerate(self.spans)
        ]
