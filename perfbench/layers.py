"""The per-layer ledger: metric names, units, and what each should move.

A layer is a ``repro`` module.  :data:`LAYER_MAP` records, before any
measurement, which end-to-end metric each layer's numbers should move and
on which workload; :func:`layer_metrics` turns a merged span ledger (see
:mod:`perfbench.tracing`) into the fixed set of :data:`PER_LAYER` metrics
that a traced run prints.  ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

__all__ = ["KERNELS", "CACHES", "PER_LAYER", "LAYER_MAP", "layer_metrics"]

#: The kernels the workloads dispatch (see :data:`perfbench.tracing.TARGETS`).
KERNELS = ("affine_image_batch", "affine_image_segments", "equal_mask", "sort_ints")

#: The caches ``repro.util.hotcache`` registers; ratios of any other cache
#: a later version registers appear in the run report only.
CACHES = (
    "core.tree_protocol.leaf_plans",
    "core.tree_protocol.node_union",
    "hashing.families.collision_free_range",
    "hashing.pairwise.modulus",
    "hashing.pairwise.sample",
    "hashing.primes.is_prime",
    "hashing.primes.next_prime",
    "protocols.fingerprint.canonical_bytes",
    "protocols.fingerprint.salt",
    "protocols.fingerprint.value",
    "protocols.fingerprint.value_of",
    "util.rng.derive_seed",
)

#: ``(name, unit, better)`` of every per-layer metric, in output order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("core.calls", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("protocols.calls", "count", "lower"),
    ("protocols.self_s", "s", "lower"),
    ("protocols.fingerprint.hit_ratio", "fraction", "higher"),
    ("hashing.primes.proofs", "count", "lower"),
    ("hashing.pairwise.sample.calls", "count", "lower"),
    ("hashing.pairwise.sample.hit_ratio", "fraction", "higher"),
    ("hashing.self_s", "s", "lower"),
    *(
        entry
        for kernel in KERNELS
        for entry in (
            (f"kernels.{kernel}.calls", "count", "lower"),
            (f"kernels.{kernel}.lanes", "count", "higher"),
            (f"kernels.{kernel}.self_s", "s", "lower"),
        )
    ),
    ("kernels.lanes_per_call", "lanes", "higher"),
    ("kernels.scalar_dispatch_share", "fraction", "lower"),
    ("util.bits.calls", "count", "lower"),
    ("util.bits.self_s", "s", "lower"),
    *((f"util.hotcache.hit_ratio.{cache}", "fraction", "higher") for cache in CACHES),
    ("util.hotcache.entries", "count", "lower"),
    ("gc.gen2.collections", "count", "lower"),
    ("gc.pause_s", "s", "lower"),
    ("gc.pause_share", "fraction", "lower"),
    ("multiparty.network.runs", "count", "lower"),
    ("multiparty.network.self_s", "s", "lower"),
    ("multiparty.rounds_per_run", "rounds", "lower"),
    ("multiparty.recovery.attempts_per_run", "count", "lower"),
    ("multiparty.recovery.bit_share", "fraction", "lower"),
    ("faults.retry.attempts_per_op", "count", "lower"),
    ("faults.injected", "count", "lower"),
    ("serve.dispatch.calls", "count", "lower"),
    ("serve.dispatch.busy_s", "s", "lower"),
    ("serve.dispatch.max_ms", "ms", "lower"),
    ("serve.wire.self_s", "s", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.lanes_per_batch", "lanes", "higher"),
    ("serve.coalesced_share", "fraction", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.server_cpu_share", "fraction", "lower"),
    ("loadgen.lateness_p99_ms", "ms", "lower"),
    ("loadgen.achieved_over_offered", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]

#: Layer -> the end-to-end metrics and workloads its numbers should move.
LAYER_MAP: Dict[str, List[Tuple[str, str]]] = {
    "core": [("scaled_cpu_ms_per_op", "lib-tree")],
    "protocols": [("scaled_cpu_ms_per_op", "lib-tree")],
    "hashing": [
        ("setup_s", "lib-tree"),
        ("setup_s", "serve-mixed"),
        ("setup_s", "faults-recovery"),
        ("scaled_cpu_ms_per_op", "lib-tree"),
        ("scaled_cpu_ms_per_op", "serve-mixed"),
    ],
    "kernels": [("scaled_cpu_ms_per_op", "serve-mixed")],
    "util.bits": [("scaled_cpu_ms_per_op", "lib-tree")],
    "util.hotcache": [
        ("scaled_cpu_ms_per_op", "lib-tree"),
        ("gc_scanned_per_op", "lib-tree"),
        ("peak_rss_mb", "lib-tree"),
    ],
    "gc": [("gc_scanned_per_op", "lib-tree"), ("gc_scanned_per_op", "serve-mixed")],
    "multiparty": [
        ("scaled_cpu_ms_per_op", "faults-recovery"),
        ("bits_per_element", "faults-recovery"),
    ],
    "faults": [("scaled_cpu_ms_per_op", "faults-recovery")],
    "serve": [("scaled_cpu_ms_per_op", "serve-mixed")],
    # The benchmark's own generator: validity checks, not claims.
    "loadgen": [],
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_totals(ledger: Dict[str, Any], layer: str) -> Tuple[int, float]:
    calls = 0
    self_s = 0.0
    for entry in ledger["names"].values():
        if entry["layer"] == layer:
            calls += entry["calls"]
            self_s += entry["self_s"]
    return calls, self_s


def _name_entry(ledger: Dict[str, Any], layer: str, name: str) -> Dict[str, Any]:
    return ledger["names"].get(
        f"{layer}/{name}", {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0}
    )


def _hit_ratio(caches: Dict[str, Dict[str, int]], prefix: str) -> float:
    hits = misses = 0
    for cache, info in caches.items():
        if cache == prefix or cache.startswith(prefix + "."):
            hits += info["hits"]
            misses += info["misses"]
    return _ratio(hits, hits + misses)


def layer_metrics(
    ledger: Dict[str, Any], extras: Dict[str, float]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The :data:`PER_LAYER` values, plus hit ratios of unlisted caches.

    :param ledger: a merged ledger (:func:`perfbench.tracing.merge_ledgers`).
    :param extras: values measured outside the spans -- the ``serve.*``
        counters from the ``info`` op, ``serve.server_cpu_share``, the
        ``loadgen.*`` checks and ``trace.overhead``; missing ones read 0.
    """
    values: Dict[str, float] = {}
    counters = ledger["counters"]
    caches = ledger["hotcache"]
    for layer in ("core", "protocols", "util.bits"):
        calls, self_s = _layer_totals(ledger, layer)
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
    values["protocols.fingerprint.hit_ratio"] = _hit_ratio(caches, "protocols.fingerprint")
    values["hashing.primes.proofs"] = ledger["proofs"]
    values["hashing.pairwise.sample.calls"] = _name_entry(
        ledger, "hashing", "sample_pairwise_hash"
    )["calls"]
    values["hashing.pairwise.sample.hit_ratio"] = _hit_ratio(caches, "hashing.pairwise.sample")
    values["hashing.self_s"] = _layer_totals(ledger, "hashing")[1]

    kernel_calls = kernel_lanes = 0
    for kernel in KERNELS:
        entry = _name_entry(ledger, "kernels", kernel)
        lanes = counters.get(f"kernels.{kernel}.lanes", 0)
        values[f"kernels.{kernel}.calls"] = entry["calls"]
        values[f"kernels.{kernel}.lanes"] = lanes
        values[f"kernels.{kernel}.self_s"] = entry["self_s"]
        kernel_calls += entry["calls"]
        kernel_lanes += lanes
    values["kernels.lanes_per_call"] = _ratio(kernel_lanes, kernel_calls)
    routes = ledger["routes"]
    scalar = sum(count for name, count in routes.items() if name.endswith(".scalar"))
    values["kernels.scalar_dispatch_share"] = _ratio(scalar, sum(routes.values()))

    extra_caches: Dict[str, float] = {}
    for cache, info in sorted(caches.items()):
        ratio = _ratio(info["hits"], info["hits"] + info["misses"])
        if cache in CACHES:
            values[f"util.hotcache.hit_ratio.{cache}"] = ratio
        else:
            extra_caches[f"util.hotcache.hit_ratio.{cache}"] = ratio
    for cache in CACHES:
        values.setdefault(f"util.hotcache.hit_ratio.{cache}", 0.0)
    values["util.hotcache.entries"] = sum(info["currsize"] for info in caches.values())

    values["gc.gen2.collections"] = ledger["gc"]["gen2"]
    values["gc.pause_s"] = ledger["gc"]["pause_s"]
    values["gc.pause_share"] = _ratio(ledger["gc"]["pause_s"], ledger["cpu_s"])

    network = _name_entry(ledger, "multiparty", "run_message_passing")
    recovery = _name_entry(ledger, "multiparty", "run_with_recovery")
    values["multiparty.network.runs"] = network["calls"]
    values["multiparty.network.self_s"] = network["self_s"]
    values["multiparty.rounds_per_run"] = _ratio(
        counters.get("multiparty.rounds", 0), network["calls"]
    )
    values["multiparty.recovery.attempts_per_run"] = _ratio(
        counters.get("multiparty.recovery.attempts", 0), recovery["calls"]
    )
    values["multiparty.recovery.bit_share"] = _ratio(
        counters.get("multiparty.recovery.bits", 0),
        counters.get("multiparty.recovery.total_bits", 0),
    )
    retry = _name_entry(ledger, "faults", "run_with_retry")
    values["faults.retry.attempts_per_op"] = _ratio(
        counters.get("faults.retry.attempts", 0), retry["calls"]
    )
    values["faults.injected"] = counters.get("faults.injected", 0)

    dispatch = [
        entry for entry in ledger["names"].values() if entry["layer"] == "serve.dispatch"
    ]
    values["serve.dispatch.calls"] = sum(entry["calls"] for entry in dispatch)
    values["serve.dispatch.busy_s"] = sum(entry["total_s"] for entry in dispatch)
    values["serve.dispatch.max_ms"] = 1000.0 * max(
        (entry["max_s"] for entry in dispatch), default=0.0
    )
    values["serve.wire.self_s"] = _layer_totals(ledger, "serve.wire")[1]
    for name in (
        "serve.batches",
        "serve.lanes_per_batch",
        "serve.coalesced_share",
        "serve.shed",
        "serve.server_cpu_share",
        "loadgen.lateness_p99_ms",
        "loadgen.achieved_over_offered",
        "trace.overhead",
    ):
        values[name] = extras.get(name, 0.0)
    ordered = {name: values[name] for name, _, _ in PER_LAYER}
    return ordered, extra_caches
