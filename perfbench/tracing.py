"""The traced run: spans around the package's public entry points.

``Tracer.installed()`` patches the module attributes that callers resolve at
call time and restores them on exit, so an untraced run carries no wrapper.
Spans are kept in memory as ``[name, job, parent, start, end, child]`` and
written out at the end; ``child`` is the time covered by child spans and by
colour evaluations made directly inside the span, so a span's self time is
``end - start - child``.

Colour evaluations are too many to keep as spans (about a million per large
greedy job), so each wrapped evaluator adds to per-layer call and time
totals, and to a set of the distinct edges it has coloured.  That set lives
as long as the colouring object, which is one instance: when the colouring
is freed the set's size is added to the layer's distinct count.
"""

from __future__ import annotations

import contextlib
import gc
import json
import weakref
from collections import defaultdict
from time import perf_counter

from rainbowsets import algebra, cli, engine, geometry, hypergraph

COLOURING_FACTORIES = {
    "geometry": (geometry, ("circumradius_colouring", "volume_colouring", "similarity_colouring")),
    "algebra": (algebra, ("sidon_colouring", "poly_colouring")),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None  # id of the job running now; None during set-up
        self.colour = {layer: [0, 0.0, 0] for layer in COLOURING_FACTORIES}  # calls, s, distinct
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._finalizers: list[weakref.finalize] = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, self.job, stack[-1][6] if stack else None, perf_counter(), None, 0.0,
                   len(spans)]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][5] += rec[4] - rec[3]
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _factory(self, layer, factory):
        stats, stack = self.colour[layer], self._stack

        def fold(seen):
            stats[2] += len(seen)
            seen.clear()

        def make(*args, **kwargs):
            colouring = factory(*args, **kwargs)
            inner = colouring.evaluator
            seen = set()

            def evaluator(edge):
                t0 = perf_counter()
                value = inner(edge)
                dt = perf_counter() - t0
                stats[0] += 1
                stats[1] += dt
                seen.add(edge)
                if stack:
                    stack[-1][5] += dt
                return value

            wrapped = hypergraph.Colouring(colouring.spec, evaluator, colouring.label)
            self._finalizers.append(weakref.finalize(wrapped, fold, seen))
            return wrapped

        return make

    def _count(self, **fields):
        def on_result(result):
            for counter, read in fields.items():
                self.counts[counter] += read(result)

        return on_result

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public entry points of every layer for the duration."""
        conflicts = self._span("hypergraph.build_conflict_hypergraph",
                               hypergraph.build_conflict_hypergraph,
                               self._count(conflict_pairs=lambda h: h.num_pairs))
        audit = self._span("hypergraph.validate_lambda", hypergraph.validate_lambda)
        patches = [
            (geometry, "generate_general_position",
             self._span("geometry.generate_general_position", geometry.generate_general_position)),
            (geometry.PointInstance, "validate",
             self._span("geometry.validate", geometry.PointInstance.validate)),
            (algebra, "poly_prepare", self._span("algebra.poly_prepare", algebra.poly_prepare)),
            (hypergraph, "colour_classes",
             self._span("hypergraph.colour_classes", hypergraph.colour_classes)),
            (hypergraph, "build_conflict_hypergraph", conflicts),
            (engine, "build_conflict_hypergraph", conflicts),
            (hypergraph, "validate_lambda", audit),
            (cli, "validate_lambda", audit),
            (engine, "greedy_rainbow", self._span("engine.greedy_rainbow", engine.greedy_rainbow)),
            (engine, "sample_and_delete",
             self._span("engine.sample_and_delete", engine.sample_and_delete, self._count(
                 pairs_total=lambda r: r.stats["pairs_total"],
                 pairs_after_sampling=lambda r: r.stats["pairs_after_sampling"]))),
            (engine, "exact_max_rainbow",
             self._span("engine.exact_max_rainbow", engine.exact_max_rainbow,
                        self._count(exact_nodes=lambda r: r.stats["nodes_explored"]))),
            (engine, "verify_rainbow", self._span("engine.verify_rainbow", engine.verify_rainbow)),
            (cli, "main", self._span("cli.main", cli.main)),
        ]
        for layer, (module, names) in COLOURING_FACTORIES.items():
            patches += [(module, name, self._factory(layer, getattr(module, name)))
                        for name in names]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    def run_job(self, job_id: int, call):
        """Run one job under a root span that carries its id."""
        self.job = job_id
        try:
            return self._span("job", call)()
        finally:
            self.job = None

    # ------------------------------------------------------------- results

    def finish(self) -> None:
        """Fold the distinct-edge sets of colourings that are still alive."""
        gc.collect()
        for finalizer in self._finalizers:
            finalizer()
        self._finalizers.clear()

    def self_time(self, *names, in_jobs=True) -> float:
        total = 0.0
        for name, job, _, start, end, child, _ in self.spans:
            if name in names and (job is not None) == in_jobs:
                total += end - start - child
        return total

    def calls(self, name) -> int:
        return sum(1 for span in self.spans if span[0] == name and span[1] is not None)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, job, parent, start, end, child, sid in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "job": job, "parent": parent,
                                     "start": start, "end": end,
                                     "self": end - start - child}) + "\n")
