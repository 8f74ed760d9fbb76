"""Span tracer for the traced run, recorded from the benchmark's own code.

Each traced function is replaced, in every genbound namespace that bound it
(``bounds.wasserstein``, ``verify.wasserstein`` and ``transport.wasserstein``
are three bindings of one function), by a single shared wrapper. A call
that arrives while the same function is already open on this thread's span
stack passes straight through, so it is counted once. Spans (name, start,
end, parent, op) stay in memory until ``dump``. With ``memory=True``
tracemalloc gives every span the peak allocation above its starting point.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "index", "start", "end", "parent", "op", "base", "peak")

    def __init__(self, name: str, index: int, parent: int | None, op) -> None:
        self.name, self.index, self.parent, self.op = name, index, parent, op
        self.start = self.end = time.perf_counter()
        self.base = self.peak = 0


def _digest(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(str(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (int, float, str, bool, type(None))):
        h.update(repr(value).encode())
    elif isinstance(value, (list, tuple)):
        for item in value:
            _digest(h, item)
    else:  # measures, problems, algorithms, cost matrices: their defining arrays
        for attr in ("weights", "matrix", "entries", "points", "loss", "p_z", "n"):
            if hasattr(value, attr):
                _digest(h, getattr(value, attr))


def _coupling_tensor(tracer, args, kwargs, result) -> None:
    prob = args[0] if args else kwargs["prob"]
    size = 8.0 * prob.num_hypotheses**2 * prob.num_samples**2 * prob.n  # (N, N, S, S, n) floats
    key = "bounds.bound_coupling.tensor_bytes"
    tracer.counts[key] = max(tracer.counts[key], size)


def _supersample_bytes(tracer, args, kwargs, result) -> None:
    size = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
    key = "learning.supersample_joint.bytes"
    tracer.counts[key] = max(tracer.counts[key], float(size))


def _blocks(tracer, args, kwargs, result) -> None:
    tracer.counts["mc.blocks"] += args[1] if len(args) > 1 else kwargs["n_tasks"]


def _suite_checks(tracer, args, kwargs, result) -> None:
    suite = result.suite
    tracer.counts[f"verify.{suite}.checks"] += result.checks


# (module, function or Class.method, span name, keep input digests, result hook)
TARGETS = [
    ("genbound.learning", "problem_from_json", "cli.problem_from_json", False, None),
    ("genbound.learning", "algorithm_from_json", "cli.algorithm_from_json", False, None),
    ("genbound.learning", "expected_gen", "learning.expected_gen", True, None),
    ("genbound.learning", "gibbs_algorithm", "learning.gibbs_algorithm", False, None),
    ("genbound.learning", "supersample_joint", "learning.supersample_joint", False, _supersample_bytes),
    ("genbound.transport", "wasserstein", "transport.wasserstein", True, None),
    ("genbound.transport", "geodesic", "transport.geodesic", False, None),
    ("genbound.orlicz", "orlicz_norm", "orlicz.orlicz_norm", False, None),
    ("genbound.orlicz", "decorrelation_terms", "orlicz.decorrelation_terms", False, None),
    ("genbound.measures", "mutual_information", "measures.mutual_information", False, None),
    ("genbound.measures", "kl_divergence", "measures.kl_divergence", False, None),
    ("genbound.bounds", "increment_check", "bounds.increment_check", True, None),
    ("genbound.bounds", "bound_coupling", "bounds.bound_coupling", False, _coupling_tensor),
] + [("genbound.bounds", fn, f"bounds.{fn}", False, None) for fn in (
    "bound_density", "bound_mi", "bound_cmi", "bound_coupling_simplified", "bound_chain",
    "bound_stochastic_chain", "bound_wasserstein_geodesic", "tail_pointwise_check",
    "tail_pac_bayes", "tail_transductive", "optimal_couplings", "chain_from_partitions",
    "partition_chain", "chain_metric")] + [
    ("genbound.suprema", "optimize_mu", "suprema.optimize_mu", False, None),
    ("genbound.suprema", "ft_bound", "suprema.ft_bound", False, None),
    ("genbound.suprema", "ft_sup_bound", "suprema.ft_sup_bound", False, None),
    ("genbound.suprema", "majorizing_integral", "suprema.majorizing_integral", False, None),
    ("genbound.suprema", "expected_sup_mc", "suprema.expected_sup_mc", False, None),
    ("genbound.suprema", "gaussian_from_metric", "suprema.gaussian_from_metric", False, None),
    ("genbound.suprema", "FiniteMetricSpace.__init__", "suprema.FiniteMetricSpace", False, None),
    ("genbound.mc", "run_blocks", "mc.run_blocks", False, _blocks),
] + [("genbound.verify", f"run_{s}_suite", f"verify.{s}", False, _suite_checks)
     for s in ("lemma", "psi", "golden", "transport")]


class Tracer:
    def __init__(self, memory: bool = True) -> None:
        self.memory = memory
        self.spans: list[Span] = []
        self.digests: dict[str, set] = defaultdict(set)
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._local = threading.local()
        self._undo: list = []

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, len(self.spans), stack[-1].index if stack else None, self.op)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1].peak = max(stack[-1].peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = current
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            if stack:
                stack[-1].peak = max(stack[-1].peak, span.peak)

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) inside the root span of one op."""
        self.op = op_id
        span = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(span)
            self.op = None

    # -- patching ----------------------------------------------------------
    def _wrapper(self, name: str, fn, keep_digest: bool, hook):
        tracer = self
        sig = inspect.signature(fn) if keep_digest else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if any(s.name == name for s in stack):
                return fn(*args, **kwargs)
            if sig is not None:
                h = hashlib.blake2b(digest_size=16)
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in bound.arguments.items():
                    h.update(key.encode())
                    _digest(h, value)
                tracer.digests[name].add(h.digest())
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _linprog_counter(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.counts["transport.lp.iterations"] += int(getattr(res, "nit", 0) or 0)
            return res

        return counted

    def _rebind(self, original, replacement) -> None:
        """Point every genbound namespace (and dict in one) at the replacement."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "genbound" or mod_name.startswith("genbound.")):
                continue
            space = vars(mod)
            for key, value in list(space.items()):
                if value is original:
                    self._undo.append((space, key, original))
                    space[key] = replacement
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, original))
                            value[k] = replacement

    def install(self) -> None:
        """Wrap every target that exists in this version of the package."""
        for module, attr, name, keep_digest, hook in TARGETS:
            mod = sys.modules.get(module)
            owner_name, _, method = attr.partition(".")
            owner = getattr(mod, owner_name, None)
            if owner is None:
                continue
            if method:
                original = vars(owner).get(method)
                if original is not None:
                    self._undo.append((owner, method, original))
                    setattr(owner, method, self._wrapper(name, original, keep_digest, hook))
                continue
            self._rebind(owner, self._wrapper(name, owner, keep_digest, hook))
        transport = sys.modules.get("genbound.transport")
        linprog = getattr(transport, "linprog", None)
        if linprog is not None:
            self._rebind(linprog, self._linprog_counter(linprog))
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory and tracemalloc.is_tracing():
            tracemalloc.stop()
        for space, key, original in reversed(self._undo):
            if isinstance(space, dict):
                space[key] = original
            else:
                setattr(space, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total s, self s, peak allocation in MB."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                    "peak_alloc_mb": 0.0})
        for i, span in enumerate(self.spans):
            row = out[span.name]
            row["calls"] += 1
            row["s"] += span.end - span.start
            row["self_s"] += span.end - span.start - child[i]
            row["peak_alloc_mb"] = max(row["peak_alloc_mb"], (span.peak - span.base) / MB)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span.name, "start": span.start, "end": span.end,
                                     "parent": span.parent, "op": span.op}) + "\n")
