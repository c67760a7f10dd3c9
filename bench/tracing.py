"""Span tracing around the calls into each bhdual module, installed from the
benchmark's side: no file under ``src/`` is edited.

Every public function of the eleven modules, plus two hot methods named in
``TRACED_METHODS``, is replaced by a wrapper in every bhdual namespace that
binds it, so calls between modules (``from .coxeter import coxeter_element``)
are caught as well as calls from the benchmark.  A wrapper records one span
``(name, start, end, parent, iteration)``; spans stay in memory and are
written out once, when the run ends.

Methods of the value types (``IntPolynomial``, ``IntMatrix``, ...) are not
wrapped, so their time counts as self time of the module whose function
called them.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = (
    "fixtures",
    "cli",
    "polyparse",
    "weights",
    "series",
    "exactalg",
    "curveconf",
    "klattice",
    "coxeter",
    "dynkin",
    "quotres",
)

TRACED_METHODS = (
    ("curveconf", "CurveConfiguration", "intersection_matrix"),
    ("exactalg", "RationalFunction", "series_coefficients"),
)


def _conf_key(args, result):
    return hash((args[0].labels, result.entries))


def _gram_key(args, result):
    gens, conf = args
    return hash((conf.labels, tuple(sorted(conf.edges)), gens.descriptors))


#: span name -> function (args, result) -> value kept with the span.  Keys
#: (hashes of the input) feed the useful ratios, distinct inputs per call;
#: sizes feed the work-done sums.
OBSERVERS = {
    "curveconf.intersection_matrix": _conf_key,
    "klattice.gram_matrix": _gram_key,
    "coxeter.coxeter_element": lambda args, result: hash(args[0].entries),
    "exactalg.char_poly": lambda args, result: args[0].dim,
    "exactalg.factor_cyclotomic": lambda args, result: args[0].degree,
    "series.milnor_orlik": lambda args, result: result.degree,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.notes: dict[int, object] = {}
        self.stack: list[int] = []
        self.iteration = 0

    def wrap(self, name: str, fn):
        spans, stack, notes = self.spans, self.stack, self.notes
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.iteration)
            if observe is not None:
                notes[index] = observe(args, result)
            return result

        return traced

    def install(self):
        """Wrap every traced callable; returns a function that undoes it."""
        modules = {m: importlib.import_module(f"bhdual.{m}") for m in MODULES}
        bindings = [importlib.import_module("bhdual")] + list(modules.values())
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        undo = []
        for namespace in bindings:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(namespace, attr, wrappers[obj])
                    undo.append((namespace, attr, obj))
        for short, cls_name, attr in TRACED_METHODS:
            cls = getattr(modules[short], cls_name)
            original = vars(cls)[attr]
            setattr(cls, attr, self.wrap(f"{short}.{attr}", original))
            undo.append((cls, attr, original))

        def uninstall():
            for owner, attr, original in undo:
                setattr(owner, attr, original)

        return uninstall

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, (name, start, end, parent, iteration) in enumerate(self.spans):
                out.write(json.dumps([index, name, start, end, parent, iteration]) + "\n")


class IterationProfile:
    """Self times, call counts and ratios of the spans of one iteration."""

    def __init__(self, tracer: Tracer, iteration: int):
        spans, notes = tracer.spans, tracer.notes
        mine = [i for i, s in enumerate(spans) if s[4] == iteration]
        child_time = defaultdict(float)
        for i in mine:
            _, start, end, parent, _ = spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.total_s = 0.0
        keys = defaultdict(list)
        for i in mine:
            name, start, end, parent, _ = spans[i]
            self_time = end - start - child_time[i]
            module = name.split(".", 1)[0]
            self.self_s[name] += self_time
            self.self_s[module] += self_time
            self.calls[name] += 1
            self.calls[module] += 1
            if parent < 0:
                self.total_s += end - start
            if i in notes:
                keys[name].append(notes[i])
                if name == "coxeter.coxeter_element" and parent >= 0 and spans[parent][0].startswith("dynkin."):
                    keys["dynkin.candidates"].append(notes[i])
        self.keys = keys

    def useful_ratio(self, name: str) -> float:
        """Distinct inputs per call; 0 when the call was not made."""
        seen = self.keys.get(name, [])
        return len(set(seen)) / len(seen) if seen else 0.0

    def size_sum(self, name: str) -> int:
        return sum(self.keys.get(name, []))
