"""In-memory spans around the benchmark's calls into the program."""

from __future__ import annotations

from time import perf_counter


class Tracer:
    """Records (name, start, end, parent span, query id) for each call
    made through `call`, in memory until the run writes them out."""

    def __init__(self):
        self.spans = []
        self.qid = None
        self._open = []

    def call(self, name, fn, *args):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.qid)

    def as_dicts(self):
        fields = ("name", "start", "end", "parent", "query")
        return [dict(zip(fields, s)) for s in self.spans]


def call(tracer, name, fn, *args):
    """fn(*args), inside a span when tracing is on."""
    if tracer is None:
        return fn(*args)
    return tracer.call(name, fn, *args)
