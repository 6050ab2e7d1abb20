"""Per-layer tracing of ofbdec from outside the program.

The tracer replaces module-level names that ofbdec looks up at call
time (functions in a module's globals, methods on its classes) with
wrappers that record one span per call: name, start, end and the index
of the enclosing span.  Spans stay in memory and are written out when
the run ends.  A layer's self time is its spans' durations minus the
time their direct children cover.

A name that no longer exists in the program is reported as absent and
the run goes on without it.  Hooks that read a call's arguments or
result to count outcomes are guarded the same way: if the program's
interfaces change under them, the counter is reported as unavailable.
"""

import contextlib
import json
import sys
import time
import traceback
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.absent = []
        self.wrapped = set()  # span names with at least one wrapped name
        self.hook_failures = {}
        self.counts = defaultdict(int)
        self.ctx = {}  # state hooks share, such as the indexes just sent
        self._stack = []
        self._patched = []

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr by a recording wrapper.

        before(tracer, args, kwargs) runs ahead of the call and
        after(tracer, args, kwargs, result) after it; neither is timed
        into the span.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.absent.append(label)
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._hook(label, before, args, kwargs)
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                tracer._hook(label, after, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self.wrapped.add(name)
        self._patched.append((owner, attr, original))

    def _hook(self, label, fn, *call):
        try:
            fn(self, *call)
        except Exception:  # a changed interface must not end the run
            if label not in self.hook_failures:
                self.hook_failures[label] = traceback.format_exc(limit=2)
                print(f"trace: hook on {label} failed; its counter is unavailable",
                      file=sys.stderr)

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a wrapped call or a block of code."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = _clock()
        try:
            yield
        finally:
            span[2] = _clock()
            self._stack.pop()

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per span name: (summed self time in seconds, number of spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        calls = defaultdict(int)
        for k, (name, start, end, _) in enumerate(self.spans):
            total[name] += (end - start) - child[k]
            calls[name] += 1
        return total, calls

    def dump(self, path, extra):
        """Write every span and the run's summary as one JSON document."""
        doc = dict(extra)
        doc["absent"] = self.absent
        doc["hook_failures"] = self.hook_failures
        doc["counts"] = dict(self.counts)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

