"""The plan compiler: normalize a grid into content-addressed shards.

Compilation is deterministic and pure: the same plan always produces the
same cells in the same order, the same shard partition, the same per-trial
seed lineage, and therefore the same shard content hashes.  That is the
whole contract the cache and resume layers stand on:

* **cell seeds** -- each grid cell gets a 63-bit seed derived by SHA-256
  from the plan's root seed and the cell's canonical JSON, so cells are
  statistically independent and stable under re-ordering of the axes.
* **trial seeds** -- trial ``t`` of a cell runs with
  :func:`repro.perf.executor.derive_seed` ``(cell_seed, t)``.  The lineage
  is a function of the *cell and global trial index only*: re-partitioning
  the grid into different shard sizes never changes any trial's seed
  (pinned by ``tests/test_plans_compile.py``), which is what makes shard
  boundaries safe places to cut, cache, and resume.
* **shard keys** -- SHA-256 over canonical JSON of everything
  code-relevant to the shard's records: the plans schema version and cache
  epoch, the library version, the cell (protocol + params, instance,
  fault spec, analysis, retry policy), the trial range, and the first/last
  derived trial seeds (the seed lineage made explicit, so a change in seed
  derivation can never silently alias an old cache entry).

``CACHE_EPOCH`` is the manual invalidation lever: bump it whenever a
protocol/engine change alters trial *results* without touching any plan
field, and every previously cached shard misses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import repro
from repro.perf.executor import derive_seed
from repro.plans.model import (
    Plan,
    ProtocolSpec,
    RetrySpec,
    canonical_json,
    instance_to_dict,
)
from repro.util.rng import derive
from repro.workloads import MultipartySpec

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "CACHE_EPOCH",
    "Cell",
    "Shard",
    "CompiledPlan",
    "cell_seed",
    "compile_plan",
]

#: Bump when the compiled-shard record format changes shape.
PLAN_SCHEMA_VERSION = 1

#: Manual cache-invalidation epoch: bump when protocol/engine changes alter
#: trial results without changing any plan field.
CACHE_EPOCH = 1


@dataclass(frozen=True)
class Cell:
    """One grid cell: protocol x instance family x fault spec.

    ``instance`` is a :class:`~repro.workloads.WorkloadSpec` for the
    two-party analyses and a :class:`~repro.workloads.MultipartySpec`
    for ``multiparty-survival`` cells.
    """

    index: int
    protocol: ProtocolSpec
    instance: Any
    fault_spec: Optional[str]

    def canonical(self, plan: Plan) -> Dict[str, Any]:
        """The cell's code-relevant identity (excludes ``index`` -- the
        cell's position in the grid is presentation, not content)."""
        doc: Dict[str, Any] = {
            "protocol": self.protocol.as_dict(),
            "instance": instance_to_dict(self.instance),
            "fault_spec": self.fault_spec,
            "analysis": plan.analysis,
        }
        if plan.analysis in ("survival", "multiparty-survival"):
            doc["retry"] = plan.retry.as_dict()
        return doc

    def label(self) -> str:
        fault = self.fault_spec if self.fault_spec is not None else "reliable"
        if isinstance(self.instance, MultipartySpec):
            return (
                f"{self.protocol.name}/n={self.instance.universe_size}"
                f",k={self.instance.set_size}"
                f",m={self.instance.num_players}"
                f",common={self.instance.common_size}/{fault}"
            )
        return (
            f"{self.protocol.name}/n={self.instance.universe_size}"
            f",k={self.instance.set_size}"
            f",overlap={self.instance.overlap_fraction}"
            f",dist={self.instance.distribution.value}/{fault}"
        )


@dataclass(frozen=True)
class Shard:
    """One unit of execution, caching, and resume.

    :param index: position in the compiled shard list.
    :param cell: the grid cell the shard belongs to.
    :param trial_start: first global trial index (within the cell).
    :param seeds: the derived per-trial seeds, in trial order.
    :param key: the shard's content address (SHA-256 hex).
    :param analysis: the plan's analysis kind (carried so a shard is a
        self-contained work item on the worker side).
    :param retry: the plan's retry policy (survival analysis).
    """

    index: int
    cell: Cell
    trial_start: int
    seeds: Tuple[int, ...]
    key: str
    analysis: str
    retry: "RetrySpec"

    @property
    def trials(self) -> int:
        return len(self.seeds)


@dataclass(frozen=True)
class CompiledPlan:
    """A plan normalized into cells and content-addressed shards."""

    plan: Plan
    plan_key: str
    cells: Tuple[Cell, ...]
    shards: Tuple[Shard, ...]

    @property
    def total_trials(self) -> int:
        return sum(shard.trials for shard in self.shards)


def _sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_seed(plan_seed: int, cell_canonical: Dict[str, Any]) -> int:
    """The 63-bit root seed of one cell's trial-seed lineage."""
    return derive("repro.plans.cell", plan_seed, canonical_json(cell_canonical))


def _shard_key(
    plan: Plan, cell_doc: Dict[str, Any], trial_start: int, seeds: Tuple[int, ...]
) -> str:
    doc = {
        "plan_schema": PLAN_SCHEMA_VERSION,
        "cache_epoch": CACHE_EPOCH,
        "library": repro.__version__,
        "cell": cell_doc,
        "trial_start": trial_start,
        "trial_count": len(seeds),
        # Seed lineage made explicit: first and last derived seeds.  Any
        # drift in derive_seed or the cell-seed derivation changes the key
        # instead of silently aliasing stale cached records.
        "seed_lineage": [seeds[0], seeds[-1]],
    }
    return _sha256_hex("repro.plans.shard:" + canonical_json(doc))


def compile_plan(plan: Plan) -> CompiledPlan:
    """Normalize a plan into its deterministic shard list.

    Cells enumerate in axis order (protocols outer, instances middle,
    fault specs inner); each cell's trials are split into consecutive
    ``plan.shard_size`` chunks.

    :raises ValueError: when a protocol name is unknown or a fault spec
        does not parse -- compile-time errors, before anything executes.
    """
    from repro.faults.models import parse_fault_spec
    from repro.plans.registry import MULTIPARTY_PROTOCOLS, PROTOCOLS

    registry = (
        MULTIPARTY_PROTOCOLS
        if plan.analysis == "multiparty-survival"
        else PROTOCOLS
    )
    for spec in plan.protocols:
        if spec.name not in registry:
            raise ValueError(
                f"unknown protocol {spec.name!r} "
                f"(know: {', '.join(sorted(registry))})"
            )
    for fault_spec in plan.fault_specs:
        if fault_spec is not None:
            parse_fault_spec(fault_spec)  # raises FaultConfigError (ValueError)

    cells: List[Cell] = []
    shards: List[Shard] = []
    for protocol in plan.protocols:
        for instance in plan.instances:
            for fault_spec in plan.fault_specs:
                cell = Cell(
                    index=len(cells),
                    protocol=protocol,
                    instance=instance,
                    fault_spec=fault_spec,
                )
                cells.append(cell)
                cell_doc = cell.canonical(plan)
                root = cell_seed(plan.seed, cell_doc)
                for trial_start in range(0, plan.trials, plan.shard_size):
                    count = min(plan.shard_size, plan.trials - trial_start)
                    seeds = tuple(
                        derive_seed(root, trial_start + offset)
                        for offset in range(count)
                    )
                    shards.append(
                        Shard(
                            index=len(shards),
                            cell=cell,
                            trial_start=trial_start,
                            seeds=seeds,
                            key=_shard_key(plan, cell_doc, trial_start, seeds),
                            analysis=plan.analysis,
                            retry=plan.retry,
                        )
                    )

    plan_doc = {
        "plan_schema": PLAN_SCHEMA_VERSION,
        "cache_epoch": CACHE_EPOCH,
        "shards": [shard.key for shard in shards],
    }
    return CompiledPlan(
        plan=plan,
        plan_key=_sha256_hex("repro.plans.plan:" + canonical_json(plan_doc)),
        cells=tuple(cells),
        shards=tuple(shards),
    )
