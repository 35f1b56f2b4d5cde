"""Span tracing of the despeckle package from outside it.

The tracer replaces every public function of every ``despeckle.*`` module
with a wrapper that records one span per call: (operation id, span id,
parent span id, name, start ns, end ns). Names are ``<module>.<function>``,
e.g. ``wavelet.dwt2``. A function is replaced wherever callers look it up
at call time: as an attribute of each ``despeckle`` module that holds it
(the defining module, modules that imported it with ``from .x import f``,
and the package itself), and as a value of module-level dicts such as
``pipeline.SHRINKERS``. The package's own code is not edited.

Spans stay in memory and are written out once, at the end of a run. Self
time of a span is its duration minus the durations of its direct child
spans; calls are single-threaded, so children never overlap.

``ALLOC_PEAK`` names functions whose allocation peak is measured with
``tracemalloc`` when it is tracing: the peak of traced memory during the
call, above what was allocated when the call began.
"""

import contextlib
import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

ALLOC_PEAK = ("wavelet.dwt2", "wavelet.idwt2")


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "despeckle" or name.startswith("despeckle."))
    ]


def _public_functions(modules):
    """Map each public function defined in the package to its span name."""
    found = {}
    for mod in modules:
        short = mod.__name__.removeprefix("despeckle.")
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and attr == obj.__name__
                and not attr.startswith("_")
            ):
                found[obj] = f"{short}.{attr}"
    return found


class Tracer:
    """Installs span-recording wrappers and keeps the spans of a run."""

    def __init__(self):
        self.spans = []  # (op_id, span_id, parent_id, name, start_ns, end_ns)
        self.alloc_peak = defaultdict(float)  # name -> max bytes above call start
        self.op_id = -1
        self._stack = []
        self._next_id = 0
        self._patches = []  # (container, key, original); containers are dicts

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        measure_peak = name in ALLOC_PEAK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            peak = measure_peak and tracemalloc.is_tracing()
            if peak:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((self.op_id, span_id, parent, name, start, end))
                if peak:
                    grown = tracemalloc.get_traced_memory()[1] - base
                    self.alloc_peak[name] = max(self.alloc_peak[name], grown)

        return wrapper

    def install(self):
        """Replace every lookup site of every public package function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        wrappers = {fn: self._wrap(fn, name) for fn, name in _public_functions(modules).items()}
        for mod in modules:
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((namespace, attr, obj))
                    namespace[attr] = wrappers[obj]
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patches.append((obj, key, value))
                            obj[key] = wrappers[value]

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    @contextlib.contextmanager
    def traced(self, op_id):
        """Wrappers installed, and spans tagged ``op_id``, for one operation."""
        self.op_id = op_id
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.op_id = -1

    def self_times(self, op_ids):
        """Per-name (calls, self ns, inclusive ns) summed over ``op_ids``."""
        wanted = set(op_ids)
        child_ns = defaultdict(int)
        for op, _, parent, _, start, end in self.spans:
            if op in wanted and parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for op, span_id, _, name, start, end in self.spans:
            if op in wanted:
                entry = out[name]
                entry[0] += 1
                entry[1] += end - start - child_ns[span_id]
                entry[2] += end - start
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("op_id,span_id,parent_id,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
