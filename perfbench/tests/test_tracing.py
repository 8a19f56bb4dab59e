import importlib
import sys
import time

import pytest

from perfbench.closed import run_closed
from perfbench.env import pinned_env
from perfbench.layers import PER_LAYER, layer_metrics
from perfbench.serve import NAME, run_serve
from perfbench.tracing import TARGETS, SpanRecorder, merge_ledgers, self_times


def _span(name, start, end, parent):
    return (name, "layer", start, end, parent, None)


def test_self_time_on_a_nested_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 3.5, 6.0, 0),  # overlaps "a": the union is covered once
        _span("c", 8.0, 12.0, 0),  # runs past its parent: clipped at 10
        _span("leaf", 20.0, 21.5, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 4.0, 1.5])


def _wrapped_bindings():
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for binding, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{name}.{binding}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(member, "__perfbench_original__"):
                        found.append(f"{name}.{binding}.{attr}")
    return found


def _originals():
    result = {}
    for target in TARGETS:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        result[target] = vars(owner)[attr]
    return result


def _coverage(workload, ledger):
    missing = [
        f"{target.module}.{target.qualname}"
        for target in TARGETS
        if target.workload == workload
        and not ledger["targets"].get(f"{target.module}.{target.qualname}")
    ]
    assert not missing, f"wrappers with no calls on {workload}: {missing}"


@pytest.mark.parametrize("workload", ["lib-tree", "faults-recovery"])
def test_closed_workload_calls_every_mapped_wrapper_then_unwraps(workload):
    before = _originals()
    recorder = SpanRecorder()
    result = run_closed(workload, 3, 1.5, t0=time.monotonic(), recorder=recorder)
    _coverage(workload, result["ledgers"][0])
    assert _wrapped_bindings() == []
    assert _originals() == before
    values, _ = layer_metrics(merge_ledgers(result["ledgers"]), {})
    assert list(values) == [name for name, _, _ in PER_LAYER]


def test_serve_workload_calls_every_mapped_wrapper(tmp_path):
    result = run_serve(
        3,
        2.0,
        t0=time.monotonic(),
        traced=True,
        env=pinned_env(),
        out_dir=str(tmp_path),
    )
    _coverage(NAME, merge_ledgers(result["ledgers"]))
    assert all(phase.ledger.failed == 0 for phase in result["phases"])


def test_install_and_uninstall_restore_every_binding():
    before = _originals()
    with SpanRecorder():
        assert _wrapped_bindings()
    assert _wrapped_bindings() == []
    assert _originals() == before
