"""Spans around calls into dimeq's public functions, recorded from outside.

install() rebinds each traced function in every module namespace that
holds it (a `from .x import f` copy is its own binding, and attached_orbit
recurses through its own module's global), and wraps the Partition methods
on the class.  uninstall() puts every original back.

A span is (name, parent span, operation id, start, end), kept in flat
arrays while the pass runs and written out at the end.  A function's self
time is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter

# Defining module -> functions timed with a span.  Metric names drop the
# "dimeq." prefix; verify_epsilon_orbit_claim reports as verify_epsilon_orbit.
SPANNED = {
    "dimeq.theorems": ("verify_lemma1", "verify_lemma2", "verify_lemma2_reduction",
                       "verify_prop3", "verify_prop4", "verify_prop5",
                       "verify_epsilon_orbit_claim", "vanishing_verdict"),
    "dimeq.representations": ("spec_from_json", "attached_orbit", "dim_rep"),
    "dimeq.equation": ("check_dim_equation", "enumerate_orbit_solutions"),
    "dimeq.partitions": ("partition_from_epsilon",),
    "dimeq.cli": ("run", "build_parser"),
}
COUNTED = {"dimeq.representations": ("rank",)}
GENERATORS = {"dimeq.partitions": ("enumerate_partitions",)}
PARTITION_METHODS = {"__init__": "init", "orbit_dim": "orbit_dim", "compare": "compare",
                     "transpose": "transpose", "__add__": "add"}
# Every namespace that may hold a binding of a traced function.
BINDINGS = ("dimeq", "dimeq.cli", "dimeq.theorems", "dimeq.equation",
            "dimeq.representations", "dimeq.partitions")


def span_name(module: str, func: str) -> str:
    short = module.split(".", 1)[1]
    return f"{short}.{func.removesuffix('_claim')}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.current_op = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result, args) runs once it returns."""
        nid = self._name_id(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def counted(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return traced

    def generator(self, name: str, fn):
        """Count calls and yields, and time each step of the iteration: a
        generator does its work when it is advanced, not when it is called."""
        counters = self.counters
        step = self.spanned(name, next)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters[name + ".calls"] += 1
            it = fn(*args, **kwargs)

            def iterate():
                for item in iter(functools.partial(step, it, _DONE), _DONE):
                    counters[name + ".yielded"] += 1
                    yield item

            return iterate()

        return traced

    # -- installing --------------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(m) for m in BINDINGS}
        plan: list[tuple[object, object]] = []
        for mod, funcs in SPANNED.items():
            for f in funcs:
                after = None
                if f == "enumerate_orbit_solutions":
                    after = self._count_solutions
                orig = getattr(modules[mod], f)
                plan.append((orig, self.spanned(span_name(mod, f), orig, after)))
        for mod, funcs in COUNTED.items():
            for f in funcs:
                orig = getattr(modules[mod], f)
                plan.append((orig, self.counted(span_name(mod, f) + ".calls", orig)))
        for mod, funcs in GENERATORS.items():
            for f in funcs:
                orig = getattr(modules[mod], f)
                plan.append((orig, self.generator(span_name(mod, f), orig)))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                for orig, wrapper in plan:
                    if value is orig:
                        self._swap(module, attr, wrapper)
        partition = modules["dimeq.partitions"].Partition
        for meth, label in PARTITION_METHODS.items():
            after = self._count_parts if meth == "__init__" else None
            orig = partition.__dict__[meth]
            self._swap(partition, meth,
                       self.spanned(f"partitions.Partition.{label}", orig, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _swap(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count_parts(self, result, args) -> None:
        self.counters["partitions.parts_built"] += len(args[0].parts)

    def _count_solutions(self, result, args) -> None:
        self.counters["equation.solutions"] += len(result)

    # -- output --------------------------------------------------------------------

    def self_times(self) -> dict[str, list]:
        """name -> [span count, summed self time in seconds]."""
        return self_times(self.names, self.name, self.parent, self.start, self.end)

    def write(self, path: str) -> None:
        """One JSON header line, then the raw arrays in header order."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": [["name", "i"], ["parent", "i"], ["op", "i"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)


_DONE = object()


def read_spans(path: str) -> tuple[list[str], dict[str, array]]:
    """Inverse of Tracer.write: (names, field -> array)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        fields = {}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            fields[field] = arr
    return header["names"], fields


def self_times(names, name, parent, start, end) -> dict[str, list]:
    """Per name: [span count, summed self time], where a span's self time is
    its duration minus the durations of its direct children."""
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    out: dict[str, list] = {}
    for i, nid in enumerate(name):
        entry = out.setdefault(names[nid], [0, 0.0])
        entry[0] += 1
        entry[1] += end[i] - start[i] - child[i]
    return out
