"""Run one ``qderiv`` CLI command with per-layer spans and counters.

Usage: ``python3 perfbench/tracer.py TRACE_OUT.json <qderiv cli args...>``

The command's stdout, stderr and exit code are those of
``python -m qderiv.cli <args>``; the trace goes to TRACE_OUT.json when the
command ends.  Nothing in the package changes: the wrappers are installed
from here, around the public entry point of each layer.

A span's self time is its duration minus the time covered by the spans it
caused.  Wrappers replace every attribute of every ``qderiv`` module (and
class) that is bound to the wrapped object, because ``verify``, ``cli`` and
``special`` bind ``oracle_all``, ``a_table`` and others with
``from ... import``.  A wrapped ``lru_cache`` function keeps its
``cache_info``/``cache_clear``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = (
    "ring",
    "series",
    "permstats",
    "tcomb",
    "tables",
    "special",
    "fixtures",
    "render",
    "verify",
    "cli",
)


def _like(wrapper, fn):
    """Make ``wrapper`` look like ``fn``, keeping an lru_cache's cache_info."""
    functools.update_wrapper(wrapper, fn)
    for attr in ("cache_info", "cache_clear"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


class Tracer:
    """In-memory spans (aggregated per layer) and counters."""

    def __init__(self):
        self.clock = time.perf_counter
        # one child-time accumulator per open span; index 0 is the root
        self.stack = [0.0]
        self.spans = {}  # layer -> [calls, self_s]
        self.counters = {}  # name -> int
        self.modules = [importlib.import_module("qderiv." + m) for m in MODULES]

    def _stat(self, layer):
        return self.spans.setdefault(layer, [0, 0.0])

    def span(self, layer, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result)`` updates counters."""
        stat = self._stat(layer)
        stack, clock = self.stack, self.clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                stat[0] += 1
                stat[1] += dur - child
            if after is not None:
                after(args, result)
            return result

        return _like(wrapper, fn)

    def generator_span(self, layer, fn, count):
        """Wrap a generator function: each ``next`` is one span."""
        stat = self._stat(layer)
        stack, clock, counters = self.stack, self.clock, self.counters
        counters.setdefault(count, 0)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = clock() - t0
                    child = stack.pop()
                    stack[-1] += dur
                    stat[1] += dur - child
                stat[0] += 1
                counters[count] += 1
                yield item

        return _like(wrapper, fn)

    def counter(self, name, fn):
        """Count calls of ``fn`` without a span."""
        counters = self.counters
        counters.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return _like(wrapper, fn)

    def replace(self, original, wrapper):
        """Rebind every module and class attribute that is ``original``."""
        found = 0
        for mod in self.modules:
            for owner in [mod] + [
                v for v in vars(mod).values() if inspect.isclass(v) and v.__module__ == mod.__name__
            ]:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, name, wrapper)
                        found += 1
        if not found:
            raise LookupError("no qderiv attribute is bound to %r" % (original,))

    def install(self, layer, original, make=None):
        make = make or self.span
        self.replace(original, make(layer, original))


def lru_caches(modules):
    """Every ``functools.lru_cache`` reachable from the modules' attributes."""
    found = {}
    for mod in modules:
        owners = [mod] + [v for v in vars(mod).values() if inspect.isclass(v)]
        for owner in owners:
            for value in vars(owner).values():
                if callable(getattr(value, "cache_info", None)) and hasattr(value, "__wrapped__"):
                    name = "%s.%s" % (value.__module__, value.__qualname__)
                    found.setdefault(name, value)
    return found


def _public_functions(mod):
    return [
        v
        for k, v in vars(mod).items()
        if not k.startswith("_")
        and callable(v)
        and not inspect.isclass(v)
        and getattr(v, "__module__", None) == mod.__name__
    ]


def install_all(tracer):
    """Wrap the layer entry points named in perfbench/METRICS.md."""
    from qderiv import cli, permstats, render, ring, series, special, tables, tcomb, verify

    counters = tracer.counters
    counters.update({"ring.mul.terms": 0, "render.render.bytes": 0, "cli.cache.hits": 0, "cli.cache.misses": 0})

    QPoly = ring.QPoly

    def mul_terms(args, result):
        a, b = args
        la = len(a.coeffs) if isinstance(a, QPoly) else 1
        lb = len(b.coeffs) if isinstance(b, QPoly) else 1
        counters["ring.mul.terms"] += la * lb

    tracer.install("ring.mul", QPoly.__mul__, lambda layer, fn: tracer.span(layer, fn, mul_terms))
    tracer.install("ring.add", QPoly.__add__)
    tracer.install("series.mul", series.DividedSeries.mul)
    tracer.install("series.invert", series.DividedSeries.invert)
    tracer.install("permstats.statistics", permstats.statistics)
    tracer.install(
        "tcomb.enumerate_t_permutations",
        tcomb.enumerate_t_permutations,
        lambda layer, fn: tracer.generator_span(layer, fn, "tcomb.enumerate_t_permutations.yielded"),
    )
    tracer.install("tcomb.TPermutation.new.calls", tcomb.TPermutation.__post_init__, tracer.counter)

    oracle_rows = set()
    oracle_info = tables.oracle_all.cache_info

    def oracle_span(layer, fn):
        inner = tracer.span(layer, fn)

        def wrapper(*args, **kwargs):
            before = oracle_info().misses
            result = inner(*args, **kwargs)
            if oracle_info().misses != before:
                oracle_rows.add(args[0] if args else kwargs["n"])
            return result

        return _like(wrapper, fn)

    tracer.install("tables.oracle_all", tables.oracle_all, oracle_span)
    for fn in (tables.a_table, tables.b_table, tables.ac_table):
        tracer.install("tables.recurrence", fn)
    for fn in (tables.rewrite_tan, tables.rewrite_sec, tables.rewrite_comp_tan, tables.rewrite_comp_sec):
        tracer.install("tables.rewrite", fn)
    for fn in _public_functions(special):
        tracer.install("special", fn)

    def count_bytes(args, result):
        counters["render.render.bytes"] += len(result.encode("utf-8"))

    tracer.install("render.render", render.render, lambda layer, fn: tracer.span(layer, fn, count_bytes))
    tracer.install("cli.build_family", cli.build_family)
    tracer.install("cli.cache_store", cli.cache_store)

    def count_cache(args, result):
        counters["cli.cache.hits" if result is not None else "cli.cache.misses"] += 1

    tracer.install("cli.cache_load", cli.cache_load, lambda layer, fn: tracer.span(layer, fn, count_cache))

    run_guarded = verify._run_guarded
    check_wrappers = {}

    def check_span(spec, *args):
        wrapped = check_wrappers.get(spec.id)
        if wrapped is None:
            wrapped = check_wrappers[spec.id] = tracer.span("verify.check." + spec.id, run_guarded)
        return wrapped(spec, *args)

    tracer.replace(run_guarded, check_span)
    return oracle_rows


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    caches = lru_caches(tracer.modules)
    oracle_rows = install_all(tracer)
    from qderiv import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        trace = {
            "spans": {k: {"calls": v[0], "self_s": v[1]} for k, v in tracer.spans.items()},
            "counters": dict(tracer.counters, **{"tables.oracle_all.rows_distinct": len(oracle_rows)}),
            "lru": {
                name: {"hits": info.hits, "misses": info.misses, "size": info.currsize}
                for name, info in ((n, f.cache_info()) for n, f in sorted(caches.items()))
            },
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
