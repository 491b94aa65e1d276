"""Spans and call counts recorded from outside the package.

A Tracer replaces callables at the names their callers look them up by, a
module global or a class attribute, and puts the originals back when its
``with`` block ends. With ``timed`` set it records, per name, the number of
calls and the summed self time: a span's duration minus the time covered by
the spans it caused. Without it, only calls are counted, which keeps a
counting pass cheap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Tracer:
    def __init__(self, points, admitting=(), timed=True):
        """points: (owner, attribute, span name) triples. For span names in
        `admitting`, truthy results are also counted, as '<name>.admitted'."""
        self.points = tuple(points)
        self.admitting = frozenset(admitting)
        self.timed = timed
        self.calls = Counter()
        self.self_s = Counter()
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name in self.points:
            counts_admitted = name in self.admitting
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, counts_admitted))
            else:
                wrapped = self._wrap(raw, name, counts_admitted)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        return False

    def _wrap(self, func, name, counts_admitted):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        admitted_name = name + ".admitted"
        clock = time.perf_counter

        if not self.timed:

            @functools.wraps(func)
            def counted(*args, **kwargs):
                calls[name] += 1
                result = func(*args, **kwargs)
                if counts_admitted and result:
                    calls[admitted_name] += 1
                return result

            return counted

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[name] += elapsed - children[0]
                calls[name] += 1
            if counts_admitted and result:
                calls[admitted_name] += 1
            return result

        return spanned
