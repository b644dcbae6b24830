"""Span tracing of qindex's public functions, applied from outside.

``Tracer.install`` wraps every public module-level function of the traced
layers and rebinds each module attribute that names one, so calls made
through names imported elsewhere (``qindex.cli.compute_index_report``,
``qindex.expectation.left_mult_matrix``) are traced too.  No source file
is changed.  Spans stay in memory as
``[name, start, end, parent, command, raised]`` until the worker writes
them out; ``derive`` turns one pass's spans into per-function counts
and self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("algebra", "expectation", "fusion", "generators", "io", "lattice", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.command = -1
        self._stack: list[int] = []

    def install(self, package: str = "qindex", layers=LAYERS) -> None:
        originals: dict[int, object] = {}
        wrappers: dict[int, object] = {}
        for layer in layers:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != module.__name__:
                    continue
                originals[id(obj)] = obj
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if module is None or (name != package and not name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if originals.get(id(obj)) is obj:
                    setattr(module, attr, wrappers[id(obj)])

    def _wrap(self, name: str, func):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, self.command, False]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return func(*args, **kwargs)
            except Exception:
                record[5] = True
                raise
            finally:
                record[2] = clock()
                stack.pop()

        return traced


def derive(names: list[str], spans: list[list]) -> dict:
    """Per-function ``calls``, ``self_s`` and ``commands`` (the set of
    command ids that called it), per-layer ``self_s`` and ``errors``, and
    the summed self time of all spans.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the worker is single-threaded.
    An exception counts as an error of a layer when it leaves a span of
    that layer for a caller outside it.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _cmd, _raised in spans:
        if parent >= 0:
            child[parent] += end - start
    funcs: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                                  "commands": set()})
    layers: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "errors": 0})
    total = 0.0
    for k, (name, start, end, parent, cmd, raised) in enumerate(spans):
        fname = names[name]
        layer = fname.split(".", 1)[0]
        own = (end - start) - child[k]
        entry = funcs[fname]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["commands"].add(cmd)
        layers[layer]["self_s"] += own
        total += own
        if raised and (parent < 0 or names[spans[parent][0]].split(".", 1)[0] != layer):
            layers[layer]["errors"] += 1
    return {"functions": dict(funcs), "layers": dict(layers), "self_total_s": total}
