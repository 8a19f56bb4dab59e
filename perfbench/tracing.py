"""The traced run: spans around calls into each layer's public functions.

A :class:`SpanRecorder` wraps every function in :data:`TARGETS` *where
callers look it up*: a module-level function is replaced in every loaded
``repro`` module whose namespace binds that same function object (so
``affine_image_segments``, imported by name into
``repro.serve.coalescer``, is wrapped there as well as in
``repro.kernels``), and a method is replaced on its defining class.
:meth:`SpanRecorder.uninstall` puts every original object back.

Each span is a tuple ``(name, layer, start, end, parent, op)``: the
parent is the index of the enclosing span (``-1`` at top level) and
``op`` the id of the benchmark op that caused it.  Spans stay in memory
until :meth:`SpanRecorder.ledger` folds them into per-name totals and
:meth:`SpanRecorder.write_spans` writes them out.  A span's self time is
its duration minus the part of it that its child spans cover
(:func:`self_times`).  Spans, collector pauses and the ledger's
``cpu_s`` are read on :data:`CLOCK`, the CPU time of the recording thread,
so time the host gives to other tenants counts in none of them.

The recorder also switches on the ``repro.obs`` metrics registry (for the
kernel route counters), snapshots the hot-cache counters, and times the
interpreter's collector through ``gc.callbacks``; all of it is undone by
:meth:`SpanRecorder.uninstall`.
"""

from __future__ import annotations

import functools
import gc
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The clock of every span: CPU seconds of the calling thread.
CLOCK = time.thread_time

__all__ = [
    "Target",
    "TARGETS",
    "SpanRecorder",
    "self_times",
    "merge_ledgers",
]

Span = Tuple[str, str, float, float, int, Optional[int]]


# -- hooks: counts read from a wrapped call's arguments and result ---------


def _lanes(result: Any) -> int:
    if not result:
        return 0
    if isinstance(result[0], list):
        return sum(len(segment) for segment in result)
    return len(result)


def _kernel_hook(name: str) -> Callable:
    def hook(counters, args, kwargs, result, error) -> None:
        if error is None:
            counters[f"kernels.{name}.lanes"] += _lanes(result)

    return hook


def _network_hook(counters, args, kwargs, result, error) -> None:
    totals = kwargs.get("totals")
    if totals is not None:
        counters["multiparty.rounds"] += totals.rounds
    elif result is not None:
        counters["multiparty.rounds"] += result.rounds


def _active_plan(kwargs):
    plan = kwargs.get("plan")
    if plan is None:
        from repro.faults.state import STATE

        plan = STATE.plan
    return plan


def _recovery_hook(counters, args, kwargs, result, error) -> None:
    if result is None:
        return
    counters["multiparty.recovery.attempts"] += result.attempts
    counters["multiparty.recovery.bits"] += result.recovery_bits
    counters["multiparty.recovery.total_bits"] += result.total_bits
    plan = _active_plan(kwargs)
    if plan is not None:
        counters["faults.injected"] += plan.injected


def _retry_hook(counters, args, kwargs, result, error) -> None:
    if result is None:
        return
    counters["faults.retry.attempts"] += result.attempts
    plan = _active_plan(kwargs)
    if plan is not None:
        counters["faults.injected"] += plan.injected


def _protocol_layer(args) -> str:
    # TreeProtocol.run and AmplifiedIntersection.run are the inherited
    # SetIntersectionProtocol.run; the instance says which layer ran.
    module = type(args[0]).__module__
    return "core" if module.startswith("repro.core") else "protocols"


@dataclass(frozen=True)
class Target:
    """One wrapped public function.

    :param module: the defining module.
    :param qualname: ``function`` or ``Class.method``.
    :param layer: the layer its spans belong to (``None``: decided per
        call by :func:`_protocol_layer`).
    :param workload: a workload on which the wrapper must see calls.
    :param hook: optional ``(counters, args, kwargs, result, error)``
        callback that reads counts from the call.
    """

    module: str
    qualname: str
    layer: Optional[str]
    workload: str
    hook: Optional[Callable] = None


#: The kernels these workloads dispatch.  ``bucket_assign``, ``mod_batch``
#: (private-coin FKS reduction) and the two fingerprint sweeps (taken only
#: with the hot caches off) run on none of them and are not wrapped.
_KERNELS = (
    ("affine_image_batch", "serve-mixed"),
    ("affine_image_segments", "lib-tree"),
    ("equal_mask", "lib-tree"),
    ("sort_ints", "serve-mixed"),
)

#: The bulk codec entry points the workloads call, with a workload that
#: calls each (the delta-set and chunk-frame codecs run on none of them).
_BITS = (
    ("encode_fixed_list", "serve-mixed"),
    ("decode_fixed_list", "serve-mixed"),
    ("BitWriter.write_run", "lib-tree"),
    ("BitWriter.write_gamma_run", "lib-tree"),
    ("BitReader.read_run", "lib-tree"),
    ("BitReader.read_gamma_run", "lib-tree"),
)

#: Every wrapped function, with its layer and the workload that must call it.
TARGETS: Tuple[Target, ...] = (
    Target("repro.core.api", "compute_intersection", "core", "lib-tree"),
    Target("repro.protocols.base", "SetIntersectionProtocol.run", None, "lib-tree"),
    Target("repro.protocols.fingerprint", "canonical_bytes", "protocols", "lib-tree"),
    Target(
        "repro.protocols.fingerprint", "Fingerprinter.value_of", "protocols", "faults-recovery"
    ),
    Target("repro.protocols.fingerprint", "Fingerprinter.values_of", "protocols", "lib-tree"),
    Target("repro.protocols.fingerprint", "Fingerprinter.bits_of", "protocols", "faults-recovery"),
    Target("repro.hashing.pairwise", "sample_pairwise_hash", "hashing", "lib-tree"),
    # is_prime runs behind next_prime's cache; its proofs are counted as
    # cache misses instead of spans.
    Target("repro.hashing.primes", "next_prime", "hashing", "lib-tree"),
    *(Target("repro.util.bits", name, "util.bits", workload) for name, workload in _BITS),
    *(
        Target("repro.kernels.batch", name, "kernels", workload, _kernel_hook(name))
        for name, workload in _KERNELS
    ),
    Target(
        "repro.multiparty.network",
        "run_message_passing",
        "multiparty",
        "faults-recovery",
        _network_hook,
    ),
    Target(
        "repro.multiparty.recovery",
        "run_with_recovery",
        "multiparty",
        "faults-recovery",
        _recovery_hook,
    ),
    Target("repro.faults.retry", "run_with_retry", "faults", "faults-recovery", _retry_hook),
    Target("repro.serve.coalescer", "one_round_batch_results", "serve.dispatch", "serve-mixed"),
    Target("repro.serve.coalescer", "run_scalar_operation", "serve.dispatch", "serve-mixed"),
    Target("repro.serve.barrier", "tree_batch_results", "serve.dispatch", "serve-mixed"),
    Target("repro.serve.wire", "encode_frame", "serve.wire", "serve-mixed"),
    Target("repro.serve.wire", "decode_frame_payload", "serve.wire", "serve-mixed"),
)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), in span order."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4] >= 0:
            children[span[4]].append((span[2], span[3]))
    result = []
    for index, (_, _, start, end, _, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, start)
            child_end = min(child_end, end)
            if child_end <= child_start:
                continue
            if run_end is None or child_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = child_start, child_end
            else:
                run_end = max(run_end, child_end)
        if run_end is not None:
            covered += run_end - run_start
        result.append(max(0.0, (end - start) - covered))
    return result


class SpanRecorder:
    """Installs the wrappers, records spans and counts, and removes them."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.calls_by_target: Dict[str, int] = defaultdict(int)
        #: The benchmark op currently running (``None`` outside ops).
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any, bool]] = []
        self._gc_started: Optional[float] = None
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._hotcache_base: Dict[str, Dict[str, int]] = {}
        self._obs_was_active = False
        self._started = 0.0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, target: Target, original: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        counters = self.counters
        calls = self.calls_by_target
        clock = CLOCK
        key = f"{target.module}.{target.qualname}"
        name = target.qualname
        layer = target.layer
        hook = target.hook
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = error = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                span_layer = layer if layer is not None else _protocol_layer(args)
                spans[index] = (name, span_layer, start, end, parent, recorder.op)
                calls[key] += 1
                if hook is not None:
                    hook(counters, args, kwargs, result, error)

        wrapper.__perfbench_original__ = original  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        """Wrap every target, switch on route counters, start gc timing."""
        if self._restore:
            raise RuntimeError("recorder already installed")
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(target, original))
                self._restore.append((owner, attr, original, True))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(target, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    loaded_name == "repro" or loaded_name.startswith("repro.")
                ):
                    continue
                namespace = vars(loaded)
                for binding, value in list(namespace.items()):
                    if value is original:
                        namespace[binding] = wrapper
                        self._restore.append((namespace, binding, original, False))
        from repro import obs
        from repro.obs import NullSink
        from repro.util import hotcache

        self._obs_was_active = obs.STATE.active
        if not self._obs_was_active:
            obs.enable(sinks=[NullSink()])
        obs.reset_metrics()
        self._hotcache_base = hotcache.stats()
        gc.callbacks.append(self._on_gc)
        self._started = CLOCK()

    def uninstall(self) -> None:
        """Put every original object back and stop recording."""
        for owner, attr, original, is_class in reversed(self._restore):
            if is_class:
                setattr(owner, attr, original)
            else:
                owner[attr] = original
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        from repro import obs

        if not self._obs_was_active:
            obs.disable()

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = CLOCK()
        elif self._gc_started is not None:
            self.gc_pause_s += CLOCK() - self._gc_started
            self._gc_started = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- results -----------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def ledger(self) -> Dict[str, Any]:
        """Fold the spans and counters into a JSON-ready, mergeable ledger.

        Call while still installed, so the route counters and hot-cache
        deltas cover exactly the recorded window.
        """
        from repro.obs import metrics
        from repro.util import hotcache

        spans = self.finished_spans()
        names: Dict[str, Dict[str, Any]] = {}
        for span, own in zip(spans, self_times(spans)):
            key = f"{span[1]}/{span[0]}"
            entry = names.get(key)
            if entry is None:
                entry = names[key] = {
                    "layer": span[1],
                    "calls": 0,
                    "self_s": 0.0,
                    "total_s": 0.0,
                    "max_s": 0.0,
                }
            duration = span[3] - span[2]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += duration
            entry["max_s"] = max(entry["max_s"], duration)
        caches = {}
        for cache, info in hotcache.stats().items():
            base = self._hotcache_base.get(cache, {"hits": 0, "misses": 0})
            caches[cache] = {
                "hits": info["hits"] - base["hits"],
                "misses": info["misses"] - base["misses"],
                "currsize": info["currsize"],
            }
        proofs = hotcache.stats().get("hashing.primes.is_prime", {}).get("misses", 0)
        routes = {
            name: data["value"]
            for name, data in metrics.snapshot().items()
            if name.startswith("kernels.route.") and data["kind"] == "counter"
        }
        return {
            "cpu_s": CLOCK() - self._started,
            "names": names,
            "counters": dict(self.counters),
            "hotcache": caches,
            "proofs": proofs,
            "routes": routes,
            "gc": {"gen2": self.gc_gen2, "pause_s": self.gc_pause_s},
            "targets": dict(self.calls_by_target),
        }

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for span in self.finished_spans():
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def merge_ledgers(ledgers: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum ledgers from several processes (worker and server child)."""
    merged: Dict[str, Any] = {
        "cpu_s": max((ledger["cpu_s"] for ledger in ledgers), default=0.0),
        "names": {},
        "counters": defaultdict(int),
        "hotcache": {},
        "proofs": 0,
        "routes": defaultdict(int),
        "gc": {"gen2": 0, "pause_s": 0.0},
        "targets": defaultdict(int),
    }
    for ledger in ledgers:
        for key, entry in ledger["names"].items():
            target = merged["names"].setdefault(
                key,
                {"layer": entry["layer"], "calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0},
            )
            for field in ("calls", "self_s", "total_s"):
                target[field] += entry[field]
            target["max_s"] = max(target["max_s"], entry["max_s"])
        for name, value in ledger["counters"].items():
            merged["counters"][name] += value
        for cache, info in ledger["hotcache"].items():
            target = merged["hotcache"].setdefault(
                cache, {"hits": 0, "misses": 0, "currsize": 0}
            )
            for field in ("hits", "misses", "currsize"):
                target[field] += info[field]
        merged["proofs"] += ledger["proofs"]
        for name, value in ledger["routes"].items():
            merged["routes"][name] += value
        merged["gc"]["gen2"] += ledger["gc"]["gen2"]
        merged["gc"]["pause_s"] += ledger["gc"]["pause_s"]
        for key, calls in ledger["targets"].items():
            merged["targets"][key] += calls
    merged["targets"] = dict(merged["targets"])
    merged["counters"] = dict(merged["counters"])
    merged["routes"] = dict(merged["routes"])
    return merged
