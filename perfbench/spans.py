"""Span recorder that times ``causalsurv`` layers from outside the program.

Public functions are wrapped at the names the program calls them through
(for example ``causalsurv.analysis.cox_fit``, not the definition in
``causalsurv.estimators``), so the recorded spans follow the real call
order.  Each span holds its name, start, end, parent span and counts.
Counts are computed after the wrapped call returns; the time that takes
is recorded as ``post`` and removed from every enclosing span, so it does
not show up as work of the layer above.  Spans stay in memory until the
benchmark writes them out.

A name that no longer exists is listed in ``missing`` instead of
raising, so a refactor that renames a layer makes its metrics missing
rather than breaking the benchmark.  A span name wrapped at several call
sites is missing only when none of them exists.
"""

import time
import tracemalloc


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self._absent = set()
        self._found = set()

    @property
    def missing(self):
        return sorted(self._absent - self._found)

    def _original(self, module, attr, name):
        original = getattr(module, attr, None)
        if original is None:
            self._absent.add(name)
        else:
            self._found.add(name)
        return original

    def wrap(self, module, attr, name, counts=None):
        """Replace ``module.attr`` by a recording wrapper.

        ``counts(args, kwargs, result)`` returns a dict of counts for the
        span; it runs after the wrapped call and outside its timing.
        """
        original = self._original(module, attr, name)
        if original is None:
            return
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = {
                "name": name,
                "parent": stack[-1] if stack else None,
                "counts": {},
                "post": 0.0,
            }
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
                span["post"] = time.perf_counter() - span["end"]
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def wrap_peak(self, module, attr, name):
        """Record the ``tracemalloc`` peak above the entry level of each call.

        Only for functions that never nest inside one another: each call
        resets the peak.
        """
        original = self._original(module, attr, name)
        if original is None:
            return
        spans = self.spans

        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return original(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                spans.append({"name": name, "peak_bytes": peak - base})

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def unwrap(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def durations(self):
        """Per span: (duration, self time), both net of count bookkeeping."""
        n = len(self.spans)
        post_below = [0.0] * n  # post time of all strict descendants
        child_total = [0.0] * n  # children's wall time incl. their post
        for i in range(n - 1, -1, -1):
            span = self.spans[i]
            parent = span["parent"]
            if parent is not None:
                wall = span["end"] - span["start"]
                post_below[parent] += post_below[i] + span["post"]
                child_total[parent] += wall + span["post"]
        out = []
        for i, span in enumerate(self.spans):
            wall = span["end"] - span["start"]
            out.append((wall - post_below[i], wall - child_total[i]))
        return out
