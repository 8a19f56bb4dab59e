from dataclasses import asdict

from perfbench.stats import OpLedger


def _ledger(latencies, light, failed=0):
    ledger = OpLedger()
    for latency, is_light in zip(latencies, light):
        ledger.record(
            latency, bits=10, messages=2, k=5, exact=True, light=is_light, cpu_s=latency / 2
        )
    for _ in range(failed):
        ledger.record_failure()
    return asdict(ledger)


def test_merged_ledger_pools_ops_in_process_order():
    merged = OpLedger.merged(
        [_ledger([0.3, 0.1], [True, False], failed=1), _ledger([0.2], [True])]
    )
    assert merged.latencies_s == [0.3, 0.1, 0.2]
    assert merged.light_latencies_s == [0.3, 0.2]
    assert merged.cpu_s == [0.15, 0.05, 0.1]
    assert (merged.attempted, merged.failed, merged.completed) == (4, 1, 3)
    assert (merged.bits, merged.messages, merged.elements) == (30, 6, 15)


def test_collector_meter_counts_full_collections_until_uninstalled():
    import gc

    from perfbench.stats import CollectorMeter

    meter = CollectorMeter()
    meter.install()
    try:
        gc.collect()
    finally:
        meter.uninstall()
    assert meter.full == 1
    assert meter.scanned > 0
    assert meter.pause_s >= 0.0
    gc.collect()
    assert meter.full == 1
