"""Span recorder for the traced benchmark run.

:func:`install` wraps public functions of ``abelcon`` modules and rebinds
each wrapper everywhere the original is referenced: ``search``,
``instances`` and ``compilers`` hold their own ``multiply`` from
``from .words import multiply``, ``search`` holds ``ball`` as
``cayley_ball``, and the package re-exports most names.

Every call becomes a span (name, start, end, parent span, request). A
span's self time is its duration minus the time covered by its child
spans; calls, inclusive and self time are aggregated per span name, and a
capped list of raw spans stays in memory until the run writes it out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

_clock = time.perf_counter

SPAN_CAP = 200_000  # raw spans kept in memory; aggregates count every call


class Recorder:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time, span_index]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (request, name, start, end, parent)
        self.keep_spans = True
        self.request = -1
        self._seen_balls: dict[int, list] = {}

    def push(self, name: str) -> list:
        parent = self.stack[-1][3] if self.stack else -1
        index = -1
        if self.keep_spans and len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append((self.request, name, 0.0, 0.0, parent))
        frame = [name, _clock(), 0.0, index]
        self.stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = _clock()
        name, start, child, index = frame
        self.stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if index >= 0:
            req, _, _, _, parent = self.spans[index]
            self.spans[index] = (req, name, start, end, parent)

    def snapshot(self) -> dict:
        """Per-layer metric values from everything recorded so far."""
        c, s, k = self.calls, self.self_time, self.counters

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "words.multiply.calls": c["words.multiply"],
            "words.multiply.self_s": s["words.multiply"],
            "words.multiply.syllables_in": k["words.multiply.syllables_in"],
            "words.normalize.calls": c["words.normalize"],
            "words.normalize.self_s": s["words.normalize"],
            "words.ball.calls": c["words.ball"],
            "words.ball.self_s": s["words.ball"],
            "words.ball.elements": k["words.ball.elements"],
            "words.centralizer_generators.calls": c["words.centralizer_generators"],
            "words.centralizer_generators.self_s": s["words.centralizer_generators"],
            "abelian.solve_linear_system.calls": c["abelian.solve_linear_system"],
            "abelian.solve_linear_system.self_s": s["abelian.solve_linear_system"],
            "abelian.solve_linear_system.unsat_ratio": ratio(
                k["abelian.solve_linear_system.unsat"], c["abelian.solve_linear_system"]),
            "abelian.abelianize.calls": c["abelian.abelianize"],
            "instances.evaluate.calls": c["instances.evaluate"],
            "instances.evaluate.self_s": s["instances.evaluate"],
            "instances.parse_instance.self_s": s["instances.parse_instance"],
            "instances.disjunct_shadow.self_s": s["instances.disjunct_shadow"],
            "search.search.self_s": s["search.search"],
            "search.nodes": k["search.nodes"],
            "search.nodes_per_s": ratio(k["search.nodes"], self.total["search.search"]),
            "compilers.compile.self_s": s["compilers.compile"],
            "compilers.instance_variables": k["compilers.instance_variables"],
            "compilers.witness_h10.self_s": s["compilers.witness_h10"],
            "compilers.decode_solution.self_s": s["compilers.decode_solution"],
            "compilers.sidecar.self_s": s["compilers.sidecar"],
            "graphs.self_s": s["graphs"],
        }

    def write_spans(self, path) -> None:
        """One JSON array per line, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["request", "name", "start_s", "end_s", "parent"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# counters taken from a wrapped call's arguments and result


def _count_multiply(rec: Recorder, args, result) -> None:
    rec.counters["words.multiply.syllables_in"] += len(args[1].syllables) + len(args[2].syllables)


def _count_ball(rec: Recorder, args, result) -> None:
    # elements materialised: a list returned for the first time (the cache
    # hands back the same list object on a hit, kept alive by the cache)
    if id(result) not in rec._seen_balls:
        rec._seen_balls[id(result)] = result
        rec.counters["words.ball.elements"] += len(result)


def _count_solve(rec: Recorder, args, result) -> None:
    if not result:
        rec.counters["abelian.solve_linear_system.unsat"] += 1


def _count_search(rec: Recorder, args, result) -> None:
    rec.counters["search.nodes"] += result.nodes


def _count_compile(rec: Recorder, args, result) -> None:
    rec.counters["compilers.instance_variables"] += len(result.instance.variables)


# (module, function, span name, counter)
FUNCTIONS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("words", "multiply", "words.multiply", _count_multiply),
    ("words", "normalize", "words.normalize", None),
    ("words", "ball", "words.ball", _count_ball),
    ("words", "centralizer_generators", "words.centralizer_generators", None),
    ("abelian", "solve_linear_system", "abelian.solve_linear_system", _count_solve),
    ("abelian", "abelianize", "abelian.abelianize", None),
    ("instances", "evaluate", "instances.evaluate", None),
    ("instances", "parse_instance", "instances.parse_instance", None),
    ("instances", "disjunct_shadow", "instances.disjunct_shadow", None),
    ("search", "search", "search.search", _count_search),
    ("compilers", "compile_h10_free", "compilers.compile", _count_compile),
    ("compilers", "compile_h10_raag", "compilers.compile", _count_compile),
    ("compilers", "witness_h10", "compilers.witness_h10", None),
    ("compilers", "decode_solution", "compilers.decode_solution", None),
    ("graphs", "weak_modules", "graphs", None),
    ("graphs", "nonadjacent_weak_module_pair", "graphs", None),
    ("graphs", "direct_product_decomposition", "graphs", None),
]

# methods of compilers.CompiledReduction: the sidecar JSON writer and reader
SIDECAR_METHODS = ("sidecar_json", "from_sidecar_json")


def _wrap(rec: Recorder, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = rec.push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.pop(frame)
        if count is not None:
            count(rec, args, result)
        return result
    return traced


class Installation:
    """The rebindings made by :func:`install`; :meth:`remove` undoes them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def install(rec: Recorder) -> Installation:
    """Wrap the traced functions and rebind them in every loaded abelcon module."""
    inst = Installation()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "abelcon" or n.startswith("abelcon."))]
    for mod_name, fn_name, span, count in FUNCTIONS:
        original = getattr(sys.modules[f"abelcon.{mod_name}"], fn_name)
        traced = _wrap(rec, span, original, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    inst.set(mod, attr, traced)
    cls = sys.modules["abelcon.compilers"].CompiledReduction
    for meth in SIDECAR_METHODS:
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            inst.set(cls, meth, classmethod(_wrap(rec, "compilers.sidecar", raw.__func__, None)))
        else:
            inst.set(cls, meth, _wrap(rec, "compilers.sidecar", raw, None))
    return inst
