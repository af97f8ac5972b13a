"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the library: the tracer replaces a public
function in the module namespace where its caller looks it up, times every
call, and restore() puts the original back.  Each span records its name, start
and end (perf_counter_ns), its parent span, the exception class it raised (if
any), an optional number computed from the call's inputs or result, and the
time that computation took.  That time lies after the span's end and is
counted as neither the span's nor its parent's, so it falls in the run's
remainder.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

# Span tuple layout: (id, parent id or -1, name, start ns, end ns, error class
# name or None, extra number or None, ns spent computing the extra number).
SPAN_FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "error", "extra",
               "extra_ns")


class NullTracer:
    """Stand-in used with tracing off: a span is a shared null context."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


class Tracer:
    """Records spans in memory; wrap() patches module attributes."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._patched = []

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, error, extra=None, extra_ns=0):
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, error, extra, extra_ns))

    @contextlib.contextmanager
    def span(self, name):
        sid, parent = self._open()
        start = time.perf_counter_ns()
        error = None
        try:
            yield
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(sid, parent, name, start, time.perf_counter_ns(), error)

    def wrap(self, module, attr, name, extra=None):
        """Replace module.attr by a timing wrapper.

        extra(args, kwargs, result) returns a number stored on the span; it is
        called with result None when the call raised, after the span's end time
        is read.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter_ns()
            error = None
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                if extra is None:
                    self._close(sid, parent, name, start, end, error)
                else:
                    value = extra(args, kwargs, result)
                    self._close(sid, parent, name, start, end, error, value,
                                time.perf_counter_ns() - end)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self):
        """Put every patched original back, last patch first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": SPAN_FIELDS, "spans": self.spans}, fh)


def summarize(spans):
    """Per span name: calls, busy ms, self ms, failures by class, sum of extras.

    Self time is a span's duration minus the durations of its direct children
    and the time spent computing their extra numbers; spans of one thread
    nest, so the children never overlap.
    """
    child_ns = defaultdict(int)
    for _sid, parent, _name, start, end, _err, _extra, extra_ns in spans:
        if parent >= 0:
            child_ns[parent] += end - start + extra_ns
    stats = defaultdict(
        lambda: {"calls": 0, "ns": 0, "self_ns": 0, "failed": defaultdict(int),
                 "extra": 0.0, "durations_ns": []}
    )
    for sid, _parent, name, start, end, err, extra, _extra_ns in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["ns"] += end - start
        entry["self_ns"] += end - start - child_ns[sid]
        entry["durations_ns"].append(end - start)
        if err is not None:
            entry["failed"][err] += 1
        if extra is not None:
            entry["extra"] += extra
    return stats
