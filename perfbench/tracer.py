"""Tracing of afrelay's public functions from outside the package.

`Tracer` wraps every public function of the traced modules at every
binding that refers to it: the defining module, the package namespace and
each module that imported it with ``from ... import`` (``cli`` binds
``simulate`` as ``run_simulation``, ``metrics`` binds ``adaptive_quad``).
The package source is not modified; wrappers are installed on entry and
the original bindings restored on exit.

Each call records a span ``(name, start, end, parent, run)`` in memory,
one list per run, with ``parent`` an index into the same list (-1 for a
root).  A layer's self time is its span's duration minus the time its
child spans cover.  Children of one span never overlap because only the
tracing thread is traced: ``relay_power`` runs inside Monte Carlo worker
threads, so it is left unwrapped and its cost stays in
``montecarlo.simulate``.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = (
    "bessel_series",
    "reference",
    "channel",
    "metrics",
    "montecarlo",
    "validation",
    "cli",
)

# called from Monte Carlo worker threads; see the module docstring
UNTRACED = {"montecarlo.relay_power"}

MC_SPANS = (
    "montecarlo.simulate",
    "montecarlo.simulate_minbound",
    "montecarlo.histogram_at_edges",
)


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


def _draws(span: str, bound: inspect.BoundArguments) -> int:
    # uniforms consumed: one per direct-path sample plus two per relay;
    # the min-of-hops bound reads the direct stream and one relay
    cfg = bound.arguments["cfg"]
    minbound = span == "montecarlo.simulate_minbound" or bound.arguments.get("minbound", False)
    return cfg.samples * (3 if minbound else 1 + 2 * cfg.relays)


class Tracer:
    """Context manager that records spans of afrelay's public functions.

    Call `begin_run` before each traced piece of work; `summary` then
    gives that run's per-layer numbers.
    """

    def __init__(self, package):
        self.package = package
        self.runs: list[list] = []
        self.spans: list = []
        self.quad_evals = 0
        self.draws = 0
        self._stack: list[int] = []
        self._thread = None
        self._patches: list = []

    def __enter__(self):
        self._thread = threading.get_ident()
        prefix = self.package.__name__
        wrappers = {}
        for short in TRACED_MODULES:
            for fname, fn in _public_functions(sys.modules[f"{prefix}.{short}"]):
                span = f"{short}.{fname}"
                if span not in UNTRACED:
                    wrappers[id(fn)] = (fn, self._wrap(span, fn))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == prefix or name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        return False

    def begin_run(self) -> None:
        """Start a new run: a fresh span list and zeroed counters."""
        self.spans = []
        self.runs.append(self.spans)
        self.quad_evals = 0
        self.draws = 0

    def _wrap(self, span: str, fn):
        tracer = self
        stack = self._stack
        signature = inspect.signature(fn)
        is_quad = span == "reference.adaptive_quad"
        is_mc = span in MC_SPANS

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            if is_quad:
                args = (tracer._counting(args[0]),) + args[1:]
            elif is_mc:
                tracer.draws += _draws(span, signature.bind(*args, **kwargs))
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (span, start, end, stack[-1] if stack else -1, len(tracer.runs))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _counting(self, f):
        def integrand(*a):
            self.quad_evals += 1
            return f(*a)

        return integrand

    def summary(self) -> dict:
        """Per-layer numbers of the current run (see `summarize`)."""
        out = summarize(self.spans)
        out["quad_evals"] = self.quad_evals
        out["draws"] = self.draws
        return out

    def write(self, path, run: int = 0) -> None:
        """Write the spans of one run as JSON lines, times relative to its
        first span."""
        spans = self.runs[run]
        t0 = min((s[1] for s in spans), default=0.0)
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "run": run_id,
                }) + "\n")


def summarize(spans: list) -> dict:
    """Per-name call counts, self time and total time of one run's spans,
    plus two counts that need the span tree: Monte Carlo calls made under
    a validation check, and capacity calls that reached adaptive_quad."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total_s[name] += end - start
        self_s[name] += end - start - child_time[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    fallbacks = set()
    mc_in_validation = 0
    for i, (name, *_) in enumerate(spans):
        if name == "reference.adaptive_quad":
            for a in ancestors(i):
                if spans[a][0] == "metrics.capacity":
                    fallbacks.add(a)
                    break
        elif name in MC_SPANS and any(
            spans[a][0].startswith("validation.check_") for a in ancestors(i)
        ):
            mc_in_validation += 1
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "total_s": dict(total_s),
        "capacity_quad_fallbacks": len(fallbacks),
        "validation_mc_calls": mc_in_validation,
    }
