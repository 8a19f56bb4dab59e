"""End-to-end benchmark of the ``repro`` library, its serve tier and its
fault-recovery layers, with a traced per-layer ledger.

Run ``python3 perfbench/run.py --workload lib-tree --seed 0 --seconds 30
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
