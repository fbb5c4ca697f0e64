"""In-memory span tracer that wraps stabcert's public functions from outside.

A span is ``(name, start, end, parent)`` where ``parent`` is the index of the
enclosing span (``-1`` at top level).  Self time is a span's duration minus
the time its child spans cover; in this single-threaded program children never
overlap, so that is the duration minus the sum of the direct children.

Wrapping replaces a function in every loaded ``stabcert`` namespace that binds
it (``optimize.epsilon_of`` is a separate binding from ``curvature.epsilon_of``)
and restores the originals on ``uninstall``.  While ``active`` is false a
wrapper calls straight through, so the benchmark's own output checks leave no
spans.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

SEARCH_SPANS = ("optimize.minimize_delta0", "optimize.maximize_epsilon")
SPAN_LIMIT = 100_000  # spans kept per run; a search-sweep pass makes ~3 million


def _arg_counter(fn, param: str, counter: str):
    """Hook adding the (possibly defaulted) argument ``param`` to ``counter``."""
    sig = inspect.signature(fn)

    def hook(tracer, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.counts[counter] += bound.arguments[param]

    return hook


def _count_evaluations(tracer, args, kwargs, result):
    tracer.counts["optimize.evaluations_used"] += result.evaluations_used


def _count_recert(tracer, args, kwargs, result):
    """An exact recertification is a feasibility call made directly by a search."""
    if tracer.parent_name() in SEARCH_SPANS:
        tracer.counts["optimize.recert_attempted"] += 1
        tracer.counts["optimize.recert_accepted"] += int(result.all_satisfied)


def _count_bytes(tracer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    tracer.counts["certificate.write.bytes"] += os.path.getsize(path)


# (module, attribute, span name, hook factory or None).  A dotted attribute
# names a method on a class of that module.
TARGETS = [
    ("stabcert.curvature", "curvature_sample_check", "curvature.sample_check",
     lambda fn: _arg_counter(fn, "sample_count", "curvature.sample_check.samples")),
    ("stabcert.curvature", "linearity_check", "curvature.linearity_check", None),
    ("stabcert.curvature", "epsilon_of", "curvature.epsilon_of", None),
    ("stabcert.curvature", "certify_builtin_row", "curvature.certify_builtin_row", None),
    ("stabcert.quadmin", "f_min_coefficient", "quadmin.f_min_coefficient", None),
    ("stabcert.bubble", "quadform_lower_bound_check", "bubble.quadform_check",
     lambda fn: _arg_counter(fn, "sample_count", "bubble.quadform_check.samples")),
    ("stabcert.bubble", "barrier_ode_check", "bubble.barrier_ode",
     lambda fn: _arg_counter(fn, "sample_count", "bubble.barrier_ode.points")),
    ("stabcert.bubble", "derive", "bubble.derive", None),
    ("stabcert.bubble", "certify_chain", "bubble.certify_chain", None),
    ("stabcert.iteration", "degiorgi_constants", "iteration.degiorgi_constants", None),
    ("stabcert.iteration", "caccioppoli_constants", "iteration.caccioppoli_constants", None),
    ("stabcert.iteration", "recursion_simulate", "iteration.recursion_simulate", None),
    ("stabcert.optimize", "float_margins", "optimize.float_margins", None),
    ("stabcert.optimize", "feasibility", "optimize.feasibility", lambda fn: _count_recert),
    ("stabcert.optimize", "minimize_delta0", "optimize.minimize_delta0", lambda fn: _count_evaluations),
    ("stabcert.optimize", "maximize_epsilon", "optimize.maximize_epsilon", lambda fn: _count_evaluations),
    ("stabcert.optimize", "reverify", "optimize.reverify", None),
    ("stabcert.certificate", "Certificate.read", "certificate.read", None),
    ("stabcert.certificate", "Certificate.write", "certificate.write", lambda fn: _count_bytes),
    ("stabcert.cli", "build_parser", "cli.build_parser", None),
    ("stabcert.cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.keep_spans = True
        self.spans: list = []
        self._stack: list = []  # frames: [span index, name, child time]
        self._installed: list = []  # (namespace, attribute, original)
        self.missing: list[str] = []
        self.new_pass()

    def new_pass(self) -> None:
        """Start fresh per-pass totals: name -> [calls, total s, self s], and counters."""
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = -1
            if tracer.keep_spans and len(tracer.spans) < SPAN_LIMIT:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [index, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                entry = tracer.stats[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    tracer.spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def tracing(self, keep_spans: bool):
        """Trace one pass: fresh totals, wrappers installed, then removed."""
        self.keep_spans = keep_spans
        self.new_pass()
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def install(self) -> None:
        self.missing = []
        namespaces = [m for key, m in sys.modules.items() if key == "stabcert" or key.startswith("stabcert.")]
        for module_name, attr, name, hook_factory in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not hasattr(owner, method):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if owner_name:  # a method: one binding, on the class
                raw = owner.__dict__[method]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(name, fn, hook_factory(fn) if hook_factory else None)
                setattr(owner, method, staticmethod(wrapped) if is_static else wrapped)
                self._installed.append((owner, method, raw))
                continue
            fn = getattr(owner, method)
            wrapped = self._wrap(name, fn, hook_factory(fn) if hook_factory else None)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, key, wrapped)
                        self._installed.append((namespace, key, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write_spans(self, path) -> None:
        """One JSON array per line: [name, start, end, parent]."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
