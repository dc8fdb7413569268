"""Span tracing of corrhit's public functions, installed from outside the library.

Each listed function is replaced by one wrapper in every corrhit module
namespace that holds it (modules import each other's functions by name, so
patching only the defining module would miss calls such as hitting ->
fourier.expectation).  Per-point helpers like `evaluate` are not wrapped.
A span records name, start, end and parent; spans stay in memory and are
written out once at the end.  Self time is a span's duration minus the time
its direct children cover; busy time counts only the outermost span of a
function, so nested calls of the same function are not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED = {
    "hitting": (
        "multi_set_expectation", "density_increment", "influence_reduction",
        "max_gain_check", "markov_same_set_check", "counterexample_three_sets",
        "counterexample_unequal_marginals", "estimate_hitting_exponent",
    ),
    "fourier": (
        "expectation", "influence", "restrict", "to_table", "max_operator",
        "is_resilient", "analyze", "synthesize", "noise_operator", "build_basis",
    ),
    "dist_core": (
        "parse_distribution", "marginal", "rho", "double_sample_kernel",
        "maximal_correlation", "is_markov_generated",
    ),
    "decompose": ("convex_cycle_decomposition", "decomposition_guarantees"),
    "invariance": (
        "gaussian_rhc_check", "hypercontractivity_check", "invariance_gap",
        "gaussian_counterpart", "poly_from_function",
    ),
}


def _freeze(x):
    if isinstance(x, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in x.items()))
    if isinstance(x, (set, frozenset)):
        return tuple(sorted(x))
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    return x


def _value(x):
    """Comparable-by-value key for the library's argument types."""
    if hasattr(x, "payload"):  # FunctionSpec compares without its payload
        return (x.n, x.alphabet.symbols, x.kind, _freeze(x.payload))
    if hasattr(x, "weights"):  # StepDistribution
        return (x.alphabet.symbols, x.steps, x.weights, x.exact)
    if hasattr(x, "probs"):  # MarginalDistribution
        return (x.alphabet.symbols, x.probs, x.exact)
    return _freeze(x)


REPEAT_KEYED = {"dist_core.rho", "fourier.expectation"}


class Tracer:
    """Collects spans while installed; `remove` restores every namespace."""

    def __init__(self):
        self.labels: list[str] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.outer: list[bool] = []
        self.stack: list[int] = []
        self.depth: list[int] = []
        self.seen: dict[int, set] = {}
        self.repeats: dict[int, list[int]] = {}
        self.wrappers: dict = {}
        self.patched: list = []

    def _label(self, label: str) -> int:
        self.labels.append(label)
        self.depth.append(0)
        return len(self.labels) - 1

    def _open(self, idx: int) -> int:
        span = len(self.start)
        self.name.append(idx)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.depth[idx] += 1
        self.outer.append(self.depth[idx] == 1)
        self.end.append(0.0)
        self.stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self.stack.pop()
        self.depth[self.name[span]] -= 1

    def _wrap(self, label: str, fn):
        idx = self._label(label)
        keyed = label in REPEAT_KEYED
        if keyed:
            self.seen[idx] = set()
            self.repeats[idx] = [0, 0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keyed:
                key = (tuple(_value(a) for a in args),
                       tuple(sorted((k, _value(v)) for k, v in kwargs.items())))
                counts = self.repeats[idx]
                counts[0] += 1
                if key in self.seen[idx]:
                    counts[1] += 1
                else:
                    self.seen[idx].add(key)
            span = self._open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def install(self) -> None:
        if not self.wrappers:
            for module, names in TRACED.items():
                mod = sys.modules[f"corrhit.{module}"]
                for name in names:
                    fn = getattr(mod, name)
                    if fn.__module__ != mod.__name__:
                        raise RuntimeError(f"corrhit.{module}.{name} is defined elsewhere")
                    self.wrappers[fn] = self._wrap(f"{module}.{name}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "corrhit" and not mod_name.startswith("corrhit."):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in self.wrappers:
                    setattr(mod, attr, self.wrappers[value])
                    self.patched.append((mod, attr, value))

    def remove(self) -> None:
        for mod, attr, value in self.patched:
            setattr(mod, attr, value)
        self.patched.clear()

    def job(self, kind: str):
        """Root span around one job, opened from the benchmark side."""
        label = f"job.{kind}"
        if label not in self.labels:
            self._label(label)
        return _Span(self, self.labels.index(label))

    def metrics(self) -> dict:
        """Per-function calls / busy_ms / self_ms, module self shares, repeat shares."""
        n = len(self.start)
        dur = [self.end[s] - self.start[s] for s in range(n)]
        child = [0.0] * n
        for s in range(n):
            if self.parent[s] >= 0:
                child[self.parent[s]] += dur[s]
        calls = [0] * len(self.labels)
        busy = [0.0] * len(self.labels)
        own = [0.0] * len(self.labels)
        for s in range(n):
            idx = self.name[s]
            calls[idx] += 1
            own[idx] += dur[s] - child[s]
            if self.outer[s]:
                busy[idx] += dur[s]
        job_time = sum(busy[i] for i, lab in enumerate(self.labels) if lab.startswith("job."))
        out = {}
        module_self = {module: 0.0 for module in TRACED}
        for module, names in TRACED.items():
            for name in names:
                label = f"{module}.{name}"
                idx = self.labels.index(label) if label in self.labels else None
                out[f"{label}.calls"] = (calls[idx] if idx is not None else 0, "count")
                out[f"{label}.busy_ms"] = (busy[idx] * 1e3 if idx is not None else 0.0, "ms")
                out[f"{label}.self_ms"] = (own[idx] * 1e3 if idx is not None else 0.0, "ms")
                if idx is not None:
                    module_self[module] += own[idx]
        for module, total in module_self.items():
            out[f"{module}.self_share"] = (total / job_time if job_time else 0.0, "ratio")
        for idx, (total, repeated) in self.repeats.items():
            out[f"{self.labels[idx]}.repeat_share"] = (repeated / total if total else 0.0, "ratio")
        return out

    def dump(self, path) -> None:
        spans = [
            [self.name[s], self.start[s], self.end[s], self.parent[s]]
            for s in range(len(self.start))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"labels": self.labels, "spans": spans}))


class _Span:
    def __init__(self, tracer: Tracer, idx: int):
        self.tracer = tracer
        self.idx = idx

    def __enter__(self):
        self.span = self.tracer._open(self.idx)

    def __exit__(self, *exc):
        self.tracer._close(self.span)
        return False
