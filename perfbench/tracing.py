"""Span tracing from outside the program, by patching module attributes.

Each hook replaces one attribute that callers look up at call time (for
example ``vbpc.ndiff.apply``, or ``outer_loss`` as ``vbpc.trainer`` imported
it) with a wrapper that records a span: name, start, end, parent and the
phase the benchmark was in. ``install``/``uninstall`` swap the wrappers in
and out, so code that runs with tracing off is the unmodified program.

Spans live in flat typed arrays (no per-span Python objects, so tracing
adds no garbage-collector pressure) and are written out when the run ends.
"""

import gzip
import json
import time
from array import array


class Tracer:
    def __init__(self):
        self.names = []           # span-name table; spans store indices
        self._name_ids = {}
        self.phases = []
        self._phase_ids = {}
        self.name = array("i")
        self.phase = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._phase = self._intern_phase("none")
        self._hooks = []          # (module, attr, original, wrapper)

    # -- bookkeeping -------------------------------------------------------

    def name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _intern_phase(self, phase):
        idx = self._phase_ids.get(phase)
        if idx is None:
            idx = self._phase_ids[phase] = len(self.phases)
            self.phases.append(phase)
        return idx

    def set_phase(self, phase):
        self._phase = self._intern_phase(phase)

    def open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.phase.append(self._phase)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- hooks -------------------------------------------------------------

    def hook(self, module, attr, name, name_of_call=None):
        """Register a wrapper for ``module.attr``. ``name_of_call(args)``,
        when given, names each span from the call's arguments."""
        fn = getattr(module, attr)
        name_id = self.name_id(name)
        tracer = self

        if name_of_call is None:
            def traced(*args, **kwargs):
                idx = tracer.open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        else:
            ids = {}

            def traced(*args, **kwargs):
                key = name_of_call(args)
                sub = ids.get(key)
                if sub is None:
                    sub = ids[key] = tracer.name_id(f"{name}.{key}")
                idx = tracer.open(sub)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)

        self._hooks.append((module, attr, fn, traced))

    def install(self):
        for module, attr, _, wrapper in self._hooks:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._hooks:
            setattr(module, attr, original)

    # -- derived figures ---------------------------------------------------

    def summary(self):
        """{(phase, name): [calls, inclusive_s, self_s]} over all spans.

        A span's self time is its duration minus its children's durations;
        children never outlive their parent, so the subtraction is exact.
        """
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        table = {}
        for i in range(n):
            key = (self.phases[self.phase[i]], self.names[self.name[i]])
            row = table.get(key)
            if row is None:
                row = table[key] = [0, 0.0, 0.0]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_time[i]
        return table

    def dump(self, path):
        """Write every span as one JSON line [name, phase, start, end,
        parent], times in seconds from the first span, gzip-compressed."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name[i]],
                                     self.phases[self.phase[i]],
                                     round(self.start[i] - t0, 9),
                                     round(self.end[i] - t0, 9),
                                     self.parent[i]]) + "\n")
