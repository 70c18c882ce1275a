"""Spans around calls into weibsup's modules, and the per-layer metrics
computed from them.

The tracer wraps public functions at the module (or class) attribute through
which the package calls them, e.g. ``weibsup.gamma.pairwise_distance_matrix``
is the name ``build_greedy_tree`` looks up at call time.  Nothing under
``src/`` is edited: ``Tracer.installed()`` swaps the attributes in and puts
the originals back when the block ends.

Each wrapped call records one span: name, start, end, parent span and thread
id.  The parent is the innermost open span of the calling thread; a span that
opens in a thread with no open span (a ``ThreadPoolExecutor`` worker) takes
the innermost open span of the thread that created the tracer, which is the
call that started the pool.  Spans stay in memory until the caller writes
them out.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import itertools
import math
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children from several threads can overlap in time; the covered part is
    the length of the union of their intervals, clipped to the parent's.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: dict[int, float] = {}
    for span in spans:
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end)) for c in children[span.id]
        )
        covered = 0.0
        lo = hi = None
        for a, b in intervals:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        result[span.id] = span.duration - covered
    return result


def _pdist_attrs(args: dict[str, Any], result: Any) -> dict[str, Any]:
    import numpy as np

    pts = np.ascontiguousarray(getattr(args["points"], "points", args["points"]), dtype=np.float64)
    p = args["metric"].p
    return {
        "metric": "linf" if math.isinf(p) else ("l2" if p == 2.0 else "lp"),
        "m": int(pts.shape[0]),
        "n": int(pts.shape[1]),
        # distinct point sets are told apart by their coordinates
        "set": hashlib.blake2b(pts.tobytes() + repr(pts.shape).encode(), digest_size=16).hexdigest(),
    }


def _variates_attrs(args: dict[str, Any], result: Any) -> dict[str, Any]:
    return {"variates": int(getattr(result, "size", 1))}


def _esup_attrs(args: dict[str, Any], result: Any) -> dict[str, Any]:
    return {"kind": args["driver"].kind, "samples": int(args["samples"])}


def _permuted_attrs(args: dict[str, Any], result: Any) -> dict[str, Any]:
    return {"kind": "permuted_weighted", "samples": int(args["samples"])}


def _tree_attrs(args: dict[str, Any], result: Any) -> dict[str, Any]:
    return {"levels": len(result.levels), "cells": sum(len(level) for level in result.levels)}


def _epi_attrs(args: dict[str, Any], result: Any) -> dict[str, Any]:
    return {"perms": int(args["num_perms"])}


@dataclass(frozen=True)
class Wrap:
    """One attribute to wrap: ``module[:Class].attr`` records span ``span``."""

    target: str
    attr: str
    span: str
    attrs: Callable[[dict[str, Any], Any], dict[str, Any]] | None = None
    memory: bool = False


# Every attribute through which a traced workload reaches a layer.  Names
# imported with ``from .x import f`` are wrapped in the importing module,
# because that is the binding the call resolves.
WRAPS: tuple[Wrap, ...] = (
    Wrap("weibsup.gamma", "pairwise_distance_matrix", "core.pdist", _pdist_attrs, memory=True),
    Wrap("weibsup.mcsup", "symmetric_weibull", "laws.sample", _variates_attrs),
    Wrap("weibsup.mcsup", "abs_weibull", "laws.sample", _variates_attrs),
    Wrap("weibsup.mcsup:Driver", "coefficients", "mcsup.coefficients"),
    Wrap("weibsup.mcsup", "esup_mc", "mcsup.estimator", _esup_attrs),
    Wrap("weibsup.harness", "esup_mc", "mcsup.estimator", _esup_attrs),
    Wrap("weibsup.harness", "esup_permuted_weighted", "mcsup.estimator", _permuted_attrs),
    Wrap("weibsup.transforms", "build_greedy_tree", "gamma.tree", _tree_attrs),
    Wrap("weibsup.harness", "build_greedy_tree", "gamma.tree", _tree_attrs),
    Wrap("weibsup.transforms", "gamma_from_tree", "gamma.from_tree"),
    Wrap("weibsup.harness", "gamma_from_tree", "gamma.from_tree"),
    Wrap("weibsup.gamma", "validate_admissible", "gamma.validate"),
    Wrap("weibsup.harness", "intersect_trees", "gamma.intersect"),
    Wrap("weibsup.harness", "chaining_bound", "gamma.chaining"),
    Wrap("weibsup.transforms", "apply_permuted_weights", "transforms.apply_weights"),
    Wrap("weibsup.harness", "epi_gamma2", "transforms.epi", _epi_attrs),
    Wrap("weibsup.harness:InstanceFamily", "materialize", "harness.materialize"),
    Wrap("weibsup.harness", "run", "harness.run"),
    Wrap("weibsup.harness", "truncation_check", "harness.run"),
)


def resolve(target: str):
    """The module, or the class inside it, that a ``Wrap.target`` names."""
    module_name, _, class_name = target.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Collects spans from wrapped calls while ``installed()`` is active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()
        self._mem_lock = threading.Lock()
        self._mem_users = 0

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        source = stack if stack else self._owner_stack
        try:
            return source[-1]
        except IndexError:
            return None

    @contextlib.contextmanager
    def _memory(self) -> Iterator[dict[str, int]]:
        # tracemalloc runs only inside the wrapped calls; concurrent calls
        # share one peak, so with workers > 1 it bounds their sum
        with self._mem_lock:
            if self._mem_users == 0:
                tracemalloc.start()
            self._mem_users += 1
            tracemalloc.reset_peak()
        out: dict[str, int] = {}
        try:
            yield out
        finally:
            with self._mem_lock:
                out["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                self._mem_users -= 1
                if self._mem_users == 0:
                    tracemalloc.stop()

    def wrap(self, spec: Wrap, fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            attrs: dict[str, Any] = {}
            start = time.perf_counter()
            try:
                if spec.memory:
                    with self._memory() as mem:
                        result = fn(*args, **kwargs)
                    attrs.update(mem)
                else:
                    result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(sid, spec.span, start, end, parent, threading.get_ident(), attrs)
                )
            if spec.attrs is not None:
                bound = signature.bind(*args, **kwargs).arguments
                attrs.update(spec.attrs(bound, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, wraps: Sequence[Wrap] = WRAPS) -> Iterator["Tracer"]:
        """Swap every wrapper in; restore the original attributes on exit."""
        patched: list[tuple[Any, str, Any]] = []
        try:
            for spec in wraps:
                owner = resolve(spec.target)
                # wrap the binding itself, never an inherited or missing one
                original = vars(owner)[spec.attr]
                setattr(owner, spec.attr, self.wrap(spec, original))
                patched.append((owner, spec.attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


# (name, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("core.pdist.calls", "count"),
    ("core.pdist.builds_per_set", "ratio"),
    ("core.pdist.l2_s", "s"),
    ("core.pdist.linf_s", "s"),
    ("core.pdist.bytes", "B"),
    ("core.pdist.peak_mb", "MB"),
    ("laws.variates", "count"),
    ("laws.sample_s", "s"),
    ("mcsup.draws", "count"),
    ("mcsup.coeff_s", "s"),
    ("mcsup.reduce_s", "s"),
    ("mcsup.draws_per_s.gaussian", "1/s"),
    ("mcsup.draws_per_s.rademacher", "1/s"),
    ("mcsup.draws_per_s.weibull", "1/s"),
    ("mcsup.draws_per_s.cond_gaussian", "1/s"),
    ("mcsup.draws_per_s.permuted_weighted", "1/s"),
    ("gamma.tree.builds", "count"),
    ("gamma.tree.self_s", "s"),
    ("gamma.tree.cells", "count"),
    ("gamma.tree.levels", "count"),
    ("gamma.from_tree.self_s", "s"),
    ("gamma.validate.s", "s"),
    ("gamma.intersect.s", "s"),
    ("gamma.chaining.self_s", "s"),
    ("transforms.perms", "count"),
    ("transforms.epi.s_per_perm", "s"),
    ("transforms.apply_weights.s", "s"),
    ("harness.instances", "count"),
    ("harness.materialize.s", "s"),
    ("harness.run.self_s", "s"),
    ("trace.overhead_s", "s"),
)

ESTIMATOR_KINDS = ("gaussian", "rademacher", "weibull", "cond_gaussian", "permuted_weighted")


def layer_metrics(spans: Sequence[Span], instances: int) -> dict[str, float]:
    """Per-layer metrics of one traced execution, except ``trace.overhead_s``.

    ``instances`` is the number of harness reports the execution produced.
    Busy times of calls made from pool threads are summed over threads.
    """
    own = self_times(spans)
    by: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by[span.name].append(span)

    def total(name: str, pick=lambda s: True) -> float:
        return math.fsum(s.duration for s in by[name] if pick(s))

    def self_total(name: str) -> float:
        return math.fsum(own[s.id] for s in by[name])

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in by[name])

    pdist = by["core.pdist"]
    sets = len({s.attrs["set"] for s in pdist if "set" in s.attrs})
    perms = attr_sum("transforms.epi", "perms")
    metrics = {
        "core.pdist.calls": float(len(pdist)),
        "core.pdist.builds_per_set": len(pdist) / sets if sets else 0.0,
        "core.pdist.l2_s": total("core.pdist", lambda s: s.attrs.get("metric") == "l2"),
        "core.pdist.linf_s": total("core.pdist", lambda s: s.attrs.get("metric") == "linf"),
        # computed, not measured: the m x m x n float64 difference tensor per call
        "core.pdist.bytes": float(sum(s.attrs["m"] ** 2 * s.attrs["n"] * 8 for s in pdist if "m" in s.attrs)),
        "core.pdist.peak_mb": max((s.attrs.get("peak_bytes", 0) for s in pdist), default=0) / 2**20,
        "laws.variates": float(attr_sum("laws.sample", "variates")),
        "laws.sample_s": total("laws.sample"),
        "mcsup.draws": float(attr_sum("mcsup.estimator", "samples")),
        "mcsup.coeff_s": total("mcsup.coefficients"),
        "mcsup.reduce_s": self_total("mcsup.estimator"),
    }
    for kind in ESTIMATOR_KINDS:
        spent = total("mcsup.estimator", lambda s: s.attrs.get("kind") == kind)
        draws = sum(s.attrs.get("samples", 0) for s in by["mcsup.estimator"] if s.attrs.get("kind") == kind)
        metrics[f"mcsup.draws_per_s.{kind}"] = draws / spent if spent > 0.0 else 0.0
    metrics.update({
        "gamma.tree.builds": float(len(by["gamma.tree"])),
        "gamma.tree.self_s": self_total("gamma.tree"),
        "gamma.tree.cells": float(attr_sum("gamma.tree", "cells")),
        "gamma.tree.levels": float(attr_sum("gamma.tree", "levels")),
        "gamma.from_tree.self_s": self_total("gamma.from_tree"),
        "gamma.validate.s": total("gamma.validate"),
        "gamma.intersect.s": total("gamma.intersect"),
        "gamma.chaining.self_s": self_total("gamma.chaining"),
        "transforms.perms": float(perms),
        "transforms.epi.s_per_perm": total("transforms.epi") / perms if perms else 0.0,
        "transforms.apply_weights.s": total("transforms.apply_weights"),
        "harness.instances": float(instances),
        "harness.materialize.s": total("harness.materialize"),
        "harness.run.self_s": self_total("harness.run"),
    })
    return metrics


