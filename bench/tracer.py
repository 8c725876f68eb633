"""Outside-in tracer: spans around the calls into each ergospec layer.

The tracer changes no package source. It wraps every public function of
the layer modules and rebinds every `ergospec.*` module attribute bound to
the same function object, so a function imported with `from .linalg import
...` is traced wherever it is called from. The `kernel` pseudo-layer wraps
the LAPACK entry points the package calls through module attributes.

Spans live in memory as [name, start, end, parent index, op id] and
`write_jsonl` writes them as JSONL. Self time is a span's duration minus the
part of it that its child spans cover.
"""

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "ergospec"
LAYERS = ("serialize", "representations", "semigroups", "characters", "linalg",
          "spectrum", "ergodic", "positivity", "report")

# (module, attribute) of each kernel entry point
KERNELS = (("numpy.linalg", "svd"), ("numpy.linalg", "eigvals"),
           ("numpy.linalg", "qr"), ("numpy.linalg", "solve"),
           ("scipy.linalg", "schur"))


def svd_u_entries(a, full_matrices=True, compute_uv=True, hermitian=False):
    """Number of entries of the U factors that numpy.linalg.svd forms."""
    if not compute_uv:
        return 0
    *batch, m, n = np.shape(a)
    cols = m if full_matrices else min(m, n)
    count = m * cols
    for b in batch:
        count *= b
    return count


# counters kept beside the spans: span name -> (on_call, on_result), each
# returning {counter name: increment}
COUNTERS = {
    "kernel.svd": (lambda *args, **kwargs: {
        "kernel.svd.u_entries": svd_u_entries(*args, **kwargs)}, None),
    "spectrum.eigenspace": (None, lambda space: {
        "spectrum.eigenspace.nonzero": int(space.dim > 0)}),
}


def layer_functions():
    """{id(function): (span name, function)} for every public function
    defined in a layer module."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                found[id(obj)] = (f"{layer}.{attr}", obj)
    return found


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)   # (op id, counter name) -> value
        self.op = None
        self._stack = []
        self._bindings = []                  # (module, attribute, original)

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, on_call=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                for counter, value in on_call(*args, **kwargs).items():
                    self.counters[self.op, counter] += value
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                for counter, value in on_result(result).items():
                    self.counters[self.op, counter] += value
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Rebind every traced function in every loaded package module and
        every kernel entry point."""
        functions = layer_functions()
        wrappers = {key: self.wrap(name, fn, *COUNTERS.get(name, (None, None)))
                    for key, (name, fn) in functions.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and functions[id(obj)][1] is obj:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        for mod_name, attr in KERNELS:
            module = importlib.import_module(mod_name)
            name = f"kernel.{attr}"
            original = getattr(module, attr)
            self._bindings.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original,
                                            *COUNTERS.get(name, (None, None))))

    def uninstall(self):
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()


def write_jsonl(spans, path):
    """Write spans gzipped, one JSON object a line."""
    with gzip.open(path, "wt") as fh:
        for index, (name, start, end, parent, op) in enumerate(spans):
            fh.write(json.dumps({"id": index, "name": name, "start": start,
                                 "end": end, "parent": parent, "op": op}) + "\n")


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals (clipped to the span)."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child in sorted(children[index], key=lambda i: spans[i][1]):
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
