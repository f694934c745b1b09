"""Span tracing of qmix from outside, for the benchmark's traced run.

``Tracer.install`` rebinds every public function listed in ``WRAPPED`` in
its defining module and in every ``qmix`` module that imported it by
name, and patches the listed class methods; ``uninstall`` puts the
originals back.  Each call through a wrapper records a span (name,
start, end, parent span, request id, whether it raised) in flat arrays
held in memory until the run writes them out.  A span's self time is its
duration minus the time covered by its child spans, so the self times of
one request partition the time of its root span, ``cli.main``.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from array import array

#: Layer (qmix module) -> traced callables; "Class.method" names a method,
#: a bare class name its ``__post_init__`` check.
WRAPPED = {
    "cli": ["main", "load_matrix", "serialize_matrix", "serialize_report",
            "serialize_summary", "build_parser"],
    "scenario": ["run_scenario", "check_propositions"],
    "dynamics": ["time_ordered", "integrate", "evolve", "Propagator"],
    "density": ["validate", "CDensity.from_matrix", "complex_projection", "lift",
                "purify", "block_purify", "random_density", "expectation"],
    "bipartite": ["measurement_interaction", "partial_trace", "lueders_nonselective",
                  "ProjectorFamily.from_basis"],
    "qmatrix": ["chi", "chi_inverse", "eigvals_hermitian", "rank_q", "expm_q",
                "QMatrix.__matmul__", "hermiticity_deviation"],
}

#: Metric name of the one callable whose attribute name reads badly.
ALIASES = {"QMatrix.__matmul__": "matmul"}


def span_names() -> list[str]:
    """``layer.function`` names of every traced callable, in WRAPPED order."""
    return [f"{layer}.{ALIASES.get(target, target)}"
            for layer, targets in WRAPPED.items() for target in targets]


class Tracer:
    """Records spans of the calls made through the installed wrappers."""

    def __init__(self):
        self.names = span_names()
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.request = array("l")
        self.raised = array("b")
        self.request_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._chi_seen = weakref.WeakSet()
        self.chi_calls = 0
        self.chi_repeats = 0

    # -- spans --------------------------------------------------------
    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id
        self._chi_seen = weakref.WeakSet()

    def _wrap(self, name: str, fn):
        name_id = self.name_ids[name]
        stack = self._stack
        clock = time.perf_counter_ns
        is_chi = name == "qmatrix.chi"

        def wrapper(*args, **kwargs):
            if is_chi:
                self._note_chi(args[0])
            index = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.raised.append(0)
            self.end.append(0)
            stack.append(index)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[index] = 1
                raise
            finally:
                self.end[index] = clock()
                stack.pop()

        return wrapper

    def _note_chi(self, m) -> None:
        self.chi_calls += 1
        if m in self._chi_seen:
            self.chi_repeats += 1
        else:
            self._chi_seen.add(m)

    # -- patching -----------------------------------------------------
    def install(self) -> None:
        """Rebind every traced callable; ``qmix.cli`` must be imported."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "qmix" or key.startswith("qmix.")]
        for layer, targets in WRAPPED.items():
            home = sys.modules[f"qmix.{layer}"]
            for target in targets:
                name = f"{layer}.{ALIASES.get(target, target)}"
                if "." in target or target[0].isupper():
                    cls_name, _, attr = target.partition(".")
                    self._patch_method(getattr(home, cls_name), attr or "__post_init__", name)
                    continue
                original = getattr(home, target)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            patched = classmethod(self._wrap(name, original.__func__))
        else:
            patched = self._wrap(name, original)
        self._restore.append((cls, attr, original))
        setattr(cls, attr, patched)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis -----------------------------------------------------
    def self_ns(self) -> list[int]:
        """Self time of every span: duration minus its children's durations."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def per_request_metrics(self, requests: int) -> dict[str, float]:
        """Per-layer and per-function calls, self time and errors per request."""
        calls = [0] * len(self.names)
        errors = [0] * len(self.names)
        self_time = [0] * len(self.names)
        for name_id, own, raised in zip(self.span_name, self.self_ns(), self.raised):
            calls[name_id] += 1
            errors[name_id] += raised
            self_time[name_id] += own
        out: dict[str, float] = {}
        for layer in WRAPPED:
            ids = [i for i, name in enumerate(self.names) if name.startswith(layer + ".")]
            out[f"{layer}.self_ms"] = sum(self_time[i] for i in ids) / 1e6 / requests
            out[f"{layer}.calls"] = sum(calls[i] for i in ids) / requests
            out[f"{layer}.errors"] = sum(errors[i] for i in ids) / requests
            for i in ids:
                out[f"{self.names[i]}.calls"] = calls[i] / requests
                out[f"{self.names[i]}.self_ms"] = self_time[i] / 1e6 / requests
        out["qmatrix.chi.repeat_frac"] = self.chi_repeats / self.chi_calls if self.chi_calls else 0.0
        return out

    def write(self, path: str) -> None:
        """Write spans as JSON lines: a header naming the columns, then rows."""
        with open(path, "w", encoding="utf-8") as handle:
            header = {"columns": ["name", "start_ns", "end_ns", "parent", "request", "raised"]}
            handle.write(json.dumps(header) + "\n")
            for row in zip(self.span_name, self.start, self.end, self.parent,
                           self.request, self.raised):
                handle.write(f"[{json.dumps(self.names[row[0]])},{row[1]},{row[2]},"
                             f"{row[3]},{row[4]},{row[5]}]\n")
