import json
import os

from perfbench.layers import LAYER_MAP, PER_LAYER
from perfbench.run import UNITS, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        return json.load(spec)


def test_metric_names_match_the_benchmark_file():
    spec = _spec()
    assert [m["name"] for m in spec["end_to_end"]] == list(UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_layer_map_names_existing_metrics_and_workloads():
    for moves in LAYER_MAP.values():
        for metric, workload in moves:
            assert metric in UNITS
            assert workload in WORKLOADS
