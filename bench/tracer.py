"""Span tracing from outside the library.

`Tracer.installed()` replaces each traced function with a timing wrapper at
every `lrmc.*` module attribute bound to that function object (so calls
between library modules are seen too) and restores the originals on exit.
Spans (name, start, end, parent span, unit) stay in memory until
`write_spans` is called at the end of the run.
"""

import contextlib
import functools
import gzip
import sys
import time

ROOT = "bench.unit"


class Tracer:
    def __init__(self, targets):
        """`targets`: (metric name, function object) pairs."""
        self.names = [ROOT] + [name for name, _ in targets]
        self._targets = [(i + 1, fn) for i, (_, fn) in enumerate(targets)]
        self.spans = []       # (name id, start, end, parent index, unit)
        self.run_outcomes = []  # (unit, status, iterations) per solvers.run
        self._stack = [-1]
        self._unit = -1

    def _wrap(self, name_id, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self._unit)
            if on_return is not None:
                on_return(out)
            return out
        return wrapper

    def _record_run(self, result):
        self.run_outcomes.append((self._unit, result.status,
                                  result.iterations))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target at every lrmc module attribute bound to it."""
        by_id = {}
        for name_id, fn in self._targets:
            hook = (self._record_run if self.names[name_id] == "solvers.run"
                    else None)
            by_id[id(fn)] = self._wrap(name_id, fn, hook)
        patches = []
        for modname, mod in list(sys.modules.items()):
            if modname != "lrmc" and not modname.startswith("lrmc."):
                continue
            for attr, val in vars(mod).items():
                if id(val) in by_id:
                    patches.append((mod, attr, val))
        for mod, attr, val in patches:
            setattr(mod, attr, by_id[id(val)])
        try:
            yield
        finally:
            for mod, attr, val in patches:
                setattr(mod, attr, val)

    @contextlib.contextmanager
    def unit(self, index):
        """Root span covering one workload unit."""
        self._unit = index
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (0, start, end, -1, index)
            self._unit = -1

    def self_times(self):
        """Per span: its duration minus the time its child spans cover.

        Calls are nested on one thread, so children never overlap and the
        covered time is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write_spans(self, path):
        """One line per span: id, parent, unit, name, start, end (seconds)."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tunit\tname\tstart\tend\n")
            for i, (name_id, start, end, parent, unit) in enumerate(
                    self.spans):
                fh.write(f"{i}\t{parent}\t{unit}\t{self.names[name_id]}\t"
                         f"{start!r}\t{end!r}\n")
