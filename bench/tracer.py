"""Tracing for the benchmark's traced run, from the benchmark's own code.

``Tracer`` keeps two kinds of record, both in memory until the run ends:

* coarse spans (workload, audit, serialize, parse, replay) with id,
  parent, start, end and the time covered by aggregated calls directly
  inside them, so ``stats.self_times`` gives each span's self time;
* fine-grained calls aggregated per name as a call count plus self time,
  measured through a call stack, so memory stays bounded however many
  calls an audit makes.

``instrument`` wraps the names the audit engine actually looks up at
call time: module globals of ``infocat.audit``, the registered category
singletons' methods, the solver imported by the capacity measures, the
report's JSON helper and ``LogVal``'s operators.  A name that does not
exist is skipped and its metric omitted.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# Category methods per layer name.  Several methods may share a name.
CATEGORY_METHODS = (
    ("corpus.enumerate", "exhaustive_morphisms"),
    ("corpus.enumerate", "exhaustive_objects"),
    ("corpus.random", "random_morphism"),
    ("corpus.random", "random_morphism_from"),
    ("corpus.random", "random_object"),
    ("ops.compose", "compose"),
    ("ops.external_product", "external_product"),
    ("ops.internal_product", "internal_product"),
    ("ops.random_iso_out", "random_iso_out"),
    ("ops.section_exists", "section_exists"),
    ("ops.iso_search", "arrow_iso"),
    ("ops.iso_search", "coslice_iso"),
)

LOGVAL_METHODS = (
    ("exact.add", "__add__"),
    ("exact.eq", "__eq__"),
    ("exact.hash", "__hash__"),
    ("exact.float", "__float__"),
)

# (metric prefix, module, attribute) of every lru_cache read after the run.
CACHES = (
    ("finset.fiber_sizes", "infocat.finset", "fiber_sizes"),
    ("finset._shannon_of", "infocat.finset", "_shannon_of"),
    ("finset._shannon_exact_of", "infocat.finset", "_shannon_exact_of"),
    ("finset._afn_exact_of", "infocat.finset", "_afn_exact_of"),
    ("finvect._rank_of", "infocat.finvect", "_rank_of"),
    ("exact._factor", "infocat.exact", "_factor"),
    ("audit._logval_sum", "infocat.audit", "_logval_sum"),
    ("prng.fnv1a", "infocat.prng", "fnv1a"),
)


class Tracer:
    def __init__(self):
        self.calls: dict[str, list] = {}  # name -> [calls, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[dict] = []
        # One accumulator per open call or span: time of its children.
        self._stack: list[float] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _stat(self, name: str) -> list:
        return self.calls.setdefault(name, [0, 0.0])

    def wrap(self, name: str, fn, observe=None):
        """fn, counted under name; observe(result) sees every result."""
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat[1] += elapsed - stack.pop()
                stat[0] += 1
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return traced

    def wrap_iter(self, name: str, fn, on_item=None):
        """fn returning an iterable; time spent producing items counts too."""
        start = self.wrap(name, fn)
        stat = self._stat(name)

        def traced(*args, **kwargs):
            return self._timed_items(stat, iter(start(*args, **kwargs)), on_item)

        return traced

    def _timed_items(self, stat, items, on_item):
        stack = self._stack
        clock = time.perf_counter
        while True:
            stack.append(0.0)
            t0 = clock()
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                elapsed = clock() - t0
                stat[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if on_item is not None:
                on_item()
            yield item

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self._t0,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        self._stack.append(0.0)
        try:
            yield record
        finally:
            # Aggregated calls directly inside add to this accumulator;
            # child spans do not, self_times subtracts them from the tree.
            record["covered"] = self._stack.pop()
            record["end"] = time.perf_counter() - self._t0
            self._open.pop()


def instrument(tracer: Tracer) -> list[str]:
    """Wrap infocat's call sites; returns the names actually wrapped."""
    import infocat.audit as audit_mod
    import infocat.finprob as finprob_mod
    import infocat.jsonio as jsonio_mod
    import infocat.noisy as noisy_mod
    from infocat.core import CategoryId, category, is_undefined
    from infocat.exact import LogVal

    wrapped: list[str] = []

    def patch(owner, attr, name, observe=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        setattr(owner, attr, tracer.wrap(name, fn, observe))
        wrapped.append(name)

    def on_value(result):
        if is_undefined(result):
            tracer.count("measures.undefined")

    def on_solve(result):
        tracer.count("capacity.iterations", result.iterations)
        if not result.converged:
            tracer.count("capacity.not_converged")

    def on_internal(result):
        if not is_undefined(result):
            tracer.count("ops.internal_product.defined")

    def on_generated(_result=None):
        tracer.count("corpus.size")

    patch(audit_mod, "value_of", "measures.value_of", on_value)
    patch(audit_mod, "exact_of", "measures.exact_of")
    patch(audit_mod, "trial_rng", "prng.trial_rng")
    patch(noisy_mod, "blahut_arimoto", "capacity.blahut_arimoto", on_solve)
    patch(finprob_mod, "blahut_arimoto", "capacity.blahut_arimoto", on_solve)
    patch(jsonio_mod, "morphism_to_json", "jsonio.morphism_to_json")
    for name, attr in LOGVAL_METHODS:
        patch(LogVal, attr, name)

    observers = {"corpus.random": on_generated, "ops.internal_product": on_internal}
    for cat_id in CategoryId:
        try:
            ops = category(cat_id)
        except KeyError:
            continue
        for name, attr in CATEGORY_METHODS:
            fn = getattr(ops, attr, None)
            if fn is None:
                continue
            if name == "corpus.enumerate":
                setattr(ops, attr, tracer.wrap_iter(name, fn, on_generated))
            else:
                setattr(ops, attr, tracer.wrap(name, fn, observers.get(name)))
            wrapped.append(name)
    return sorted(set(wrapped))


def cache_hit_ratios() -> dict[str, float]:
    """hit ratio of every cache in CACHES that still exists."""
    import importlib

    out = {}
    for name, module, attr in CACHES:
        fn = getattr(importlib.import_module(module), attr, None)
        if fn is None or not hasattr(fn, "cache_info"):
            continue
        info = fn.cache_info()
        lookups = info.hits + info.misses
        out[name] = info.hits / lookups if lookups else 0.0
    return out
