"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` -- run the headline protocol on a random instance and print the
  cost report.
* ``intersect FILE_A FILE_B`` -- intersect two files of integers (one id
  per line), printing the result and the exact wire cost the exchange
  would have taken.
* ``tradeoff`` -- print the measured communication/round tradeoff curve
  (Theorem 1.1) for a chosen ``k`` and universe.
* ``protocols`` -- list every implemented protocol with its paper
  reference and guarantee.
* ``bench`` -- run the repro.perf core microbenchmark suite and write
  ``BENCH_core.json`` (or validate an existing report against the schema).
* ``trace`` -- run a traced workload, write a schema-validated JSONL event
  trace, print the per-round/per-sender rollup, and check the run against
  the paper's bounds (or validate an existing trace with ``--validate``).
* ``faults`` -- sweep fault models x rates x protocols under the
  verification-driven retry loop (``repro.faults``) and print a
  survival/degradation table.  Compiled through the declarative plan
  layer, so an active ``REPRO_PLAN_CACHE`` makes repeated sweeps
  incremental.
* ``plan`` -- the declarative sweep driver (``repro.plans``): ``plan
  show`` compiles a grid and prints its shards; ``plan run`` executes it
  with content-addressed shard caching and bit-identical resume.
* ``serve`` -- the asyncio intersection server (``repro.serve``):
  ``serve run`` boots it on a socket; ``serve load`` replays a seeded
  traffic mix against an in-process server and prints the capacity report
  (p50/p99/p999, sessions/sec, coalesced-lane occupancy, shed count);
  ``serve mix`` writes a mix-document template to edit.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from repro.core.api import compute_intersection
from repro.core.tradeoff import communication_bound, optimal_rounds
from repro.core.tree_protocol import TreeProtocol

__all__ = ["main", "build_parser"]

_PROTOCOL_CATALOG = [
    ("trivial-exchange", "Section 1, D^(1)", "deterministic, O(k log(n/k)) bits, 1-2 messages"),
    ("one-round-hashing", "Section 1, R^(1)", "O(k log k) bits, 2 messages, error 1/k^C"),
    ("bucket-verify", "Section 1 toy protocol", "O(k log log k) expected bits, O(1) iterations"),
    ("basic-intersection", "Lemma 3.3", "4 messages, O(i m log m) bits, one-sided supersets"),
    ("equality", "Fact 3.5", "2 messages, b+1 bits, one-sided error 2^-b"),
    ("amortized-equality", "Theorem 3.2 (FKNN interface)", "EQ^n_k: O(k) expected bits, <= O(sqrt k) rounds"),
    ("sqrt-k", "Theorem 3.1", "O(k) expected bits within O(sqrt k) rounds"),
    ("verification-tree", "Theorem 1.1 / 3.6 (MAIN)", "O(k log^(r) k) expected bits, 6r rounds, 1 - 1/poly(k)"),
    ("amplified-intersection", "Section 4", "success 1 - 2^-k, expected O(1) repetitions"),
    ("private-coin-intersection", "Section 3.1", "private coins, +O(log k + log log n) bits"),
    ("halving-disjointness", "[HW07] baseline", "DISJ: O(k) bits, O(log k) rounds"),
    ("minhash-sketch", "[PSW14] comparator", "1-way APPROXIMATE |S n T|, t hashes"),
    ("coordinator-multiparty", "Corollary 4.1", "m players, O(k log^(r) k) avg bits/player"),
    ("binary-tree-multiparty", "Corollary 4.2", "m players, worst-case per-player bounded"),
    ("equality-via-intersection", "Fact 2.1", "EQ^n_k at the INT_k cost, O(log* k) rounds"),
]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Communication-optimal set intersection (PODC 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the tree protocol on a random instance")
    demo.add_argument("--k", type=int, default=1000, help="set-size bound k")
    demo.add_argument(
        "--log-universe", type=int, default=32, help="universe is 2^THIS"
    )
    demo.add_argument("--overlap", type=float, default=0.3, help="overlap fraction")
    demo.add_argument("--rounds", type=int, default=None, help="round parameter r")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--model", choices=("shared", "private"), default="shared"
    )
    demo.add_argument("--amplified", action="store_true")

    intersect = sub.add_parser(
        "intersect", help="intersect two files of integer ids (one per line)"
    )
    intersect.add_argument("file_a")
    intersect.add_argument("file_b")
    intersect.add_argument("--rounds", type=int, default=None)
    intersect.add_argument("--seed", type=int, default=0)
    intersect.add_argument("--quiet", action="store_true", help="ids only")

    tradeoff = sub.add_parser(
        "tradeoff", help="print the measured tradeoff curve for a given k"
    )
    tradeoff.add_argument("--k", type=int, default=1024)
    tradeoff.add_argument("--log-universe", type=int, default=32)
    tradeoff.add_argument("--seeds", type=int, default=3)

    sub.add_parser("protocols", help="list implemented protocols")

    conformance = sub.add_parser(
        "conformance",
        help="run the protocol contract checks (repro.testing) on a protocol",
    )
    conformance.add_argument(
        "--protocol",
        choices=("tree", "one-round", "trivial", "bucket", "sqrt-k", "amplified"),
        default="tree",
    )
    conformance.add_argument("--k", type=int, default=64)
    conformance.add_argument("--log-universe", type=int, default=18)
    conformance.add_argument("--failure-budget", type=int, default=1)

    exact = sub.add_parser(
        "exact-cc",
        help="exhaustive-search ground truth for tiny communication problems",
    )
    exact.add_argument(
        "--problem", choices=("eq", "disj", "int", "gt"), default="disj"
    )
    exact.add_argument("--size", type=int, default=2, help="universe / string count")
    exact.add_argument(
        "--max-set-size", type=int, default=2, help="k (disj/int only)"
    )

    render = sub.add_parser(
        "render",
        help="run the tree protocol on a random instance and draw its "
        "message sequence chart",
    )
    render.add_argument("--k", type=int, default=256)
    render.add_argument("--log-universe", type=int, default=24)
    render.add_argument("--rounds", type=int, default=None)
    render.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench",
        help="run the perf core benchmarks and write BENCH_core.json",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=None,
        help="trial parallelism for the e1 loop (default: $REPRO_WORKERS or 4)",
    )
    bench.add_argument(
        "--out", default="BENCH_core.json", help="output JSON path"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="short calibration + few trials (CI smoke; numbers are noisy)",
    )
    bench.add_argument(
        "--trials", type=int, default=None, help="e1 trial-loop trial count"
    )
    bench.add_argument(
        "--validate",
        metavar="PATH",
        default=None,
        help="validate an existing report against the schema instead of running",
    )
    bench.add_argument(
        "--compare",
        metavar="OLD_JSON",
        default=None,
        help="regression gate: compare the fresh report against this "
        "baseline report and exit nonzero on regression",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed per-micro slowdown for --compare, percent "
        "(default 10)",
    )
    bench.add_argument(
        "--report",
        metavar="NEW_JSON",
        default=None,
        help="with --compare: load the new-side report from this file "
        "instead of running the benchmarks",
    )
    bench.add_argument(
        "--compare-out",
        metavar="PATH",
        default=None,
        help="with --compare: also write the comparison result as JSON",
    )

    trace = sub.add_parser(
        "trace",
        help="run a traced tree-protocol workload, write a JSONL event "
        "trace, and check it against the paper's bounds",
    )
    trace.add_argument("--k", type=int, default=256, help="set-size bound k")
    trace.add_argument(
        "--log-universe", type=int, default=24, help="universe is 2^THIS"
    )
    trace.add_argument(
        "--rounds", type=int, default=None, help="round parameter r (default log* k)"
    )
    trace.add_argument("--overlap", type=float, default=0.3, help="overlap fraction")
    trace.add_argument("--seed", type=int, default=0, help="first trial seed")
    trace.add_argument("--trials", type=int, default=1, help="number of traced runs")
    trace.add_argument(
        "--out", default="trace.jsonl", help="JSONL trace output path"
    )
    trace.add_argument(
        "--no-check",
        action="store_true",
        help="skip the prediction checker (write + validate + rollup only)",
    )
    trace.add_argument(
        "--validate",
        metavar="PATH",
        default=None,
        help="validate an existing JSONL trace against the event schema "
        "instead of running",
    )

    faults = sub.add_parser(
        "faults",
        help="sweep fault models x rates x protocols under the "
        "verification-driven retry loop; print a survival table",
    )
    faults.add_argument("--k", type=int, default=64, help="set-size bound k")
    faults.add_argument(
        "--log-universe", type=int, default=16, help="universe is 2^THIS"
    )
    faults.add_argument(
        "--trials", type=int, default=100, help="trials per (protocol, model, rate) cell"
    )
    faults.add_argument("--seed", type=int, default=0, help="sweep master seed")
    faults.add_argument(
        "--overlap", type=float, default=0.5, help="overlap fraction"
    )
    faults.add_argument(
        "--rates",
        default="0.01,0.05,0.2",
        help="comma-separated per-message fault probabilities",
    )
    faults.add_argument(
        "--models",
        default="bitflip",
        help="comma-separated channel models "
        "(bitflip, truncate, drop, duplicate)",
    )
    faults.add_argument(
        "--protocols",
        default="bucket,amplified",
        help="comma-separated protocols "
        "(bucket, basic, tree, amplified, one-round, trivial)",
    )
    faults.add_argument(
        "--max-attempts",
        type=int,
        default=5,
        help="retry budget per trial before degrading",
    )
    faults.add_argument(
        "--attempt-bit-budget",
        type=int,
        default=None,
        help="per-attempt communication cutoff in bits (the retry timeout)",
    )
    faults.add_argument(
        "--adaptive-budget",
        action="store_true",
        help="scale later attempts' bit budgets with observed fault "
        "pressure instead of re-using the static cutoff",
    )
    faults.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard parallelism (default: $REPRO_WORKERS or serial)",
    )
    faults.add_argument(
        "--multiparty",
        action="store_true",
        help="sweep the m-player protocols under crash churn instead: "
        "rates become per-player whole-run crash probabilities, "
        "--protocols defaults to coordinator,binary-tree, --models to "
        "churn, and --max-attempts (default 8 here) bounds the recovery "
        "layer's BSP attempts",
    )
    faults.add_argument(
        "--players",
        default="17",
        help="comma-separated player counts m (multiparty mode only)",
    )
    faults.add_argument(
        "--common",
        type=int,
        default=None,
        help="planted common-core size per multiparty instance "
        "(default max(1, k//8))",
    )
    faults.add_argument(
        "--table-out",
        metavar="PATH",
        default=None,
        help="also write the survival table (cells + cache stats) as JSON",
    )

    plan = sub.add_parser(
        "plan",
        help="compile and run declarative experiment plans "
        "(content-addressed shard cache, bit-identical resume)",
    )
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)
    for name, description in (
        ("show", "compile a plan and print its cells and shards"),
        ("run", "execute a plan (cache-aware, resumable)"),
    ):
        plan_cmd = plan_sub.add_parser(name, help=description)
        plan_cmd.add_argument(
            "--file",
            default=None,
            help="JSON plan file (repro.plans.plan_to_dict form); "
            "overrides the inline grid flags below",
        )
        plan_cmd.add_argument("--name", default="cli", help="plan name")
        plan_cmd.add_argument(
            "--analysis", choices=("cost", "survival"), default="cost"
        )
        plan_cmd.add_argument(
            "--protocols",
            default="bucket",
            help="comma-separated protocol registry names "
            "(bucket, basic, tree, amplified, one-round, trivial, sqrt-k)",
        )
        plan_cmd.add_argument("--k", type=int, default=64)
        plan_cmd.add_argument("--log-universe", type=int, default=16)
        plan_cmd.add_argument("--overlap", type=float, default=0.5)
        plan_cmd.add_argument(
            "--distribution",
            choices=("uniform", "clustered", "zipf", "arithmetic"),
            default="uniform",
        )
        plan_cmd.add_argument("--trials", type=int, default=16)
        plan_cmd.add_argument("--seed", type=int, default=0)
        plan_cmd.add_argument("--shard-size", type=int, default=32)
        plan_cmd.add_argument(
            "--fault-specs",
            default=None,
            help="comma-separated fault specs for survival analysis "
            '(e.g. "bitflip@0.05,drop@0.1")',
        )
        plan_cmd.add_argument("--max-attempts", type=int, default=5)
        plan_cmd.add_argument("--attempt-bit-budget", type=int, default=None)
        plan_cmd.add_argument("--adaptive-budget", action="store_true")
        if name == "run":
            plan_cmd.add_argument(
                "--workers",
                type=int,
                default=None,
                help="shard parallelism (default: $REPRO_WORKERS or serial)",
            )
            plan_cmd.add_argument(
                "--executor",
                choices=("process", "thread", "serial"),
                default="process",
            )
            plan_cmd.add_argument(
                "--cache",
                default=None,
                help="shard-cache directory (overrides $REPRO_PLAN_CACHE; "
                '"0" disables caching for this run)',
            )
            plan_cmd.add_argument(
                "--halt-after",
                type=int,
                default=None,
                help="stop after N shards execute (deterministic kill "
                "point for resume testing); exits 3",
            )
            plan_cmd.add_argument(
                "--out",
                default=None,
                help="write the deterministic aggregate document (JSON) "
                "here -- byte-identical across resumes",
            )
            plan_cmd.add_argument(
                "--stats-out",
                default=None,
                help="write cache/scheduler statistics (JSON) here",
            )

    serve = sub.add_parser(
        "serve",
        help="the asyncio intersection server: run it, load-test it, "
        "or write a traffic-mix template",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    serve_run = serve_sub.add_parser(
        "run", help="boot the server and serve until interrupted"
    )
    serve_run.add_argument("--host", default="127.0.0.1")
    serve_run.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    serve_run.add_argument(
        "--transport",
        choices=("tcp", "uds"),
        default="tcp",
        help="listener socket family; both carry the identical wire "
        "protocol and typed-error taxonomy",
    )
    serve_run.add_argument(
        "--uds",
        metavar="PATH",
        default=None,
        help="Unix-domain socket path (required with --transport uds)",
    )
    serve_run.add_argument(
        "--master-seed",
        type=int,
        default=0,
        help="seed-lineage root for sessions opened without a seed",
    )

    serve_load = serve_sub.add_parser(
        "load",
        help="replay a seeded traffic mix against an in-process server "
        "and print the capacity report",
    )
    serve_load.add_argument(
        "--mix",
        metavar="FILE",
        default=None,
        help="JSON mix document (see 'serve mix'); overrides the inline "
        "mix flags below",
    )
    serve_load.add_argument("--seed", type=int, default=0, help="mix seed")
    serve_load.add_argument("--sessions", type=int, default=32)
    serve_load.add_argument("--ops", type=int, default=16, help="ops per session")
    serve_load.add_argument(
        "--log-universe", type=int, default=32, help="universe is 2^THIS"
    )
    serve_load.add_argument(
        "--set-sizes",
        default="64",
        help="comma-separated k values, assigned round-robin to sessions",
    )
    serve_load.add_argument("--overlap", type=float, default=0.3)
    serve_load.add_argument(
        "--rounds",
        type=int,
        default=1,
        help="session round budget r: 1 is the one-round coalescible "
        "shape (default), >= 2 the multi-round verification tree, "
        "0 means the optimal log* k",
    )
    serve_load.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="fault-spec string (name@rate+...:seed=N) applied to every "
        "session: operations run the verification-driven retry loop and "
        "the report prices retries and degraded replies",
    )
    serve_load.add_argument(
        "--transport",
        choices=("inproc", "tcp", "uds"),
        default="inproc",
        help="how clients reach the server: inproc (clients share the "
        "server's event loop; the default, and the old behavior) or "
        "tcp/uds (a multi-process client fleet over a real socket)",
    )
    serve_load.add_argument(
        "--fleet",
        type=int,
        default=2,
        help="worker processes for the tcp/uds transports (ignored for "
        "inproc)",
    )
    serve_load.add_argument(
        "--profile",
        choices=("warm", "cold"),
        default="warm",
        help="serving cache profile: warm (hot caches on) or cold (hot "
        "caches disabled in the server for the whole run; wall time "
        "changes, the fingerprint never does)",
    )
    serve_load.add_argument(
        "--uds-path",
        metavar="PATH",
        default=None,
        help="socket path for --transport uds (default: a fresh tempdir)",
    )
    serve_load.add_argument("--connections", type=int, default=8)
    serve_load.add_argument(
        "--pipeline", type=int, default=32, help="in-flight ops per connection"
    )
    serve_load.add_argument(
        "--tick",
        type=float,
        default=0.002,
        help="coalescer scheduling tick, seconds",
    )
    serve_load.add_argument(
        "--max-pending-global", type=int, default=4096
    )
    serve_load.add_argument(
        "--max-pending-per-session", type=int, default=512
    )
    serve_load.add_argument(
        "--no-coalesce",
        action="store_true",
        help="scalar baseline: one engine run per operation",
    )
    serve_load.add_argument(
        "--check-serial",
        action="store_true",
        help="also replay the mix serially and compare aggregate "
        "fingerprints (the determinism gate); exits nonzero on mismatch",
    )
    serve_load.add_argument(
        "--require-no-shed",
        action="store_true",
        help="exit nonzero if any operation was shed",
    )
    serve_load.add_argument(
        "--expect-shed",
        action="store_true",
        help="exit nonzero unless at least one operation was shed AND "
        "every shed got a typed overloaded reply (the backpressure gate)",
    )
    serve_load.add_argument(
        "--expect-degraded",
        action="store_true",
        help="exit nonzero unless at least one operation degraded AND "
        "every degradation was a typed ok/degraded reply with zero "
        "untyped errors (the fault-mix gate)",
    )
    serve_load.add_argument(
        "--hist-out",
        metavar="PATH",
        default=None,
        help="write the latency histogram (JSON) here",
    )
    serve_load.add_argument(
        "--report-out",
        metavar="PATH",
        default=None,
        help="write the full load report (JSON) here",
    )

    serve_mix = serve_sub.add_parser(
        "mix", help="write a traffic-mix document template"
    )
    serve_mix.add_argument(
        "--out", default="mix.json", help="where to write the template"
    )
    return parser


def _cmd_demo(args, out) -> int:
    rng = random.Random(args.seed)
    universe = 1 << args.log_universe
    overlap = int(args.overlap * args.k)
    sample = rng.sample(range(universe), 2 * args.k - overlap)
    alice = frozenset(sample[: args.k])
    bob = frozenset(sample[:overlap] + sample[args.k :])
    result = compute_intersection(
        alice,
        bob,
        universe_size=universe,
        max_set_size=args.k,
        rounds=args.rounds,
        model=args.model,
        amplified=args.amplified,
        seed=args.seed,
    )
    truth = alice & bob
    print(f"protocol      : {result.protocol}", file=out)
    print(f"k             : {args.k}  (universe 2^{args.log_universe})", file=out)
    print(f"|S n T|       : {len(result.intersection)} "
          f"(correct: {result.intersection == truth})", file=out)
    print(f"communication : {result.bits} bits "
          f"({result.bits / args.k:.1f} per element)", file=out)
    print(f"messages      : {result.messages}", file=out)
    return 0


def _read_id_file(path: str) -> frozenset:
    with open(path, "r", encoding="utf-8") as handle:
        return frozenset(
            int(line) for line in handle if line.strip()
        )


def _cmd_intersect(args, out) -> int:
    alice = _read_id_file(args.file_a)
    bob = _read_id_file(args.file_b)
    result = compute_intersection(
        alice, bob, rounds=args.rounds, seed=args.seed
    )
    if not args.quiet:
        print(
            f"# {len(result.intersection)} common ids, {result.bits} bits, "
            f"{result.messages} messages ({result.protocol})",
            file=out,
        )
    for element in sorted(result.intersection):
        print(element, file=out)
    return 0


def _cmd_tradeoff(args, out) -> int:
    universe = 1 << args.log_universe
    k = args.k
    rng = random.Random(1)
    sample = rng.sample(range(universe), 2 * k - k // 2)
    alice = frozenset(sample[:k])
    bob = frozenset(sample[k // 2 :])
    print(f"k = {k}, universe = 2^{args.log_universe}, "
          f"log* k = {optimal_rounds(k)}", file=out)
    print(f"{'r':>3}  {'messages':>8}  {'mean bits':>10}  "
          f"{'theory k*log^(r)k':>18}", file=out)
    for rounds in range(1, optimal_rounds(k) + 1):
        protocol = TreeProtocol(universe, k, rounds=rounds)
        bits = []
        messages = []
        for seed in range(args.seeds):
            outcome = protocol.run(alice, bob, seed=seed)
            bits.append(outcome.total_bits)
            messages.append(outcome.num_messages)
        print(
            f"{rounds:>3}  {max(messages):>8}  "
            f"{sum(bits) / len(bits):>10.0f}  "
            f"{communication_bound(k, rounds):>18.0f}",
            file=out,
        )
    return 0


def _cmd_protocols(out) -> int:
    name_width = max(len(name) for name, _, _ in _PROTOCOL_CATALOG)
    ref_width = max(len(ref) for _, ref, _ in _PROTOCOL_CATALOG)
    for name, ref, guarantee in _PROTOCOL_CATALOG:
        print(f"{name:<{name_width}}  {ref:<{ref_width}}  {guarantee}", file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _cmd_demo(args, out)
    if args.command == "intersect":
        return _cmd_intersect(args, out)
    if args.command == "tradeoff":
        return _cmd_tradeoff(args, out)
    if args.command == "protocols":
        return _cmd_protocols(out)
    if args.command == "conformance":
        return _cmd_conformance(args, out)
    if args.command == "exact-cc":
        return _cmd_exact_cc(args, out)
    if args.command == "render":
        return _cmd_render(args, out)
    if args.command == "bench":
        return _cmd_bench(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "faults":
        return _cmd_faults(args, out)
    if args.command == "plan":
        return _cmd_plan(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


def _load_json_report(path: str, out):
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=out)
        return None
    except json.JSONDecodeError as exc:
        print(f"{path}: not valid JSON ({exc})", file=out)
        return None


def _cmd_bench(args, out) -> int:
    import json

    from repro.perf.schema import bench_report_warnings, validate_bench_report

    if args.validate is not None:
        report = _load_json_report(args.validate, out)
        if report is None:
            return 1
        problems = validate_bench_report(report)
        if problems:
            for problem in problems:
                print(f"schema: {problem}", file=out)
            return 1
        for warning in bench_report_warnings(report):
            print(f"warning: {warning}", file=out)
        print(f"{args.validate}: OK (schema v{report['schema_version']})", file=out)
        return 0

    if args.report is not None and args.compare is None:
        print("--report only makes sense together with --compare", file=out)
        return 2
    if args.tolerance is not None and args.compare is None:
        print("--tolerance only makes sense together with --compare", file=out)
        return 2

    if args.report is not None:
        report = _load_json_report(args.report, out)
        if report is None:
            return 1
    else:
        from repro.perf.bench import run_core_benchmarks
        from repro.perf.executor import resolve_workers

        workers = (
            args.workers if args.workers is not None else max(resolve_workers(), 4)
        )
        report = run_core_benchmarks(
            workers=workers,
            quick=args.quick,
            trials=args.trials,
            out_path=args.out,
        )
        loop = report["e1_trial_loop"]
        print(f"wrote {args.out}", file=out)
        print(
            f"e1 loop: {loop['trials']} trials, "
            f"speedup {loop['speedup_vs_serial']:.2f}x vs serial-uncached "
            f"({loop['speedup_cached_only']:.2f}x from caching alone), "
            f"bit_identical={loop['bit_identical']}",
            file=out,
        )
    for warning in bench_report_warnings(report):
        print(f"warning: {warning}", file=out)

    if args.compare is None:
        return 0

    from repro.perf.compare import (
        DEFAULT_TOLERANCE_PCT,
        compare_reports,
        format_comparison,
    )

    baseline = _load_json_report(args.compare, out)
    if baseline is None:
        return 1
    tolerance = (
        args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE_PCT
    )
    try:
        result = compare_reports(baseline, report, tolerance_pct=tolerance)
    except ValueError as exc:
        print(f"compare: {exc}", file=out)
        return 2
    print(format_comparison(result), file=out)
    if args.compare_out is not None:
        with open(args.compare_out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.compare_out}", file=out)
    return 0 if result["ok"] else 1


def _cmd_trace(args, out) -> int:
    from repro.obs.schema import (
        TRACE_SCHEMA_VERSION,
        load_trace,
        validate_trace_events,
    )

    if args.validate is not None:
        try:
            events = load_trace(args.validate)
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.validate}: {exc}", file=out)
            return 1
        problems = validate_trace_events(events)
        if problems:
            for problem in problems:
                print(f"schema: {problem}", file=out)
            return 1
        print(
            f"{args.validate}: OK ({len(events)} events, "
            f"trace schema v{TRACE_SCHEMA_VERSION})",
            file=out,
        )
        return 0

    from repro.obs import metrics as _metrics
    from repro.obs import state as _obs_state
    from repro.obs.checker import check_runs
    from repro.obs.rollup import rollup_runs
    from repro.obs.trace import JsonlSink, RingBufferSink, Tracer
    from repro.workloads import make_instance

    universe = 1 << args.log_universe
    protocol = TreeProtocol(universe, args.k, rounds=args.rounds)
    # A private tracer for the workload: ring buffer for the in-process
    # rollup plus the JSONL file; whatever tracer the environment installed
    # is restored afterwards.  Metrics reset so the final snapshot covers
    # exactly the traced runs.
    ring = RingBufferSink()
    tracer = Tracer([ring, JsonlSink(args.out)])
    previous = _obs_state.STATE.tracer
    _metrics.reset_metrics()
    _obs_state.STATE.install(tracer)
    try:
        rng = random.Random(args.seed)
        for trial in range(args.trials):
            alice, bob = make_instance(rng, universe, args.k, args.overlap)
            outcome = protocol.run(alice, bob, seed=args.seed + trial)
            if outcome.alice_output != alice & bob:
                print(f"trial {trial}: protocol output INCORRECT", file=out)
                return 1
    finally:
        _obs_state.STATE.install(previous)
        tracer.close()

    events = ring.events()
    if ring.dropped:
        print(
            f"warning: ring buffer dropped {ring.dropped} events; "
            f"rollup below is partial (the JSONL file is complete)",
            file=out,
        )
    problems = validate_trace_events(load_trace(args.out))
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=out)
        return 1
    print(
        f"wrote {args.out} ({len(events)} events, "
        f"trace schema v{TRACE_SCHEMA_VERSION})",
        file=out,
    )

    runs = rollup_runs(events)
    for index, run in enumerate(runs):
        r = run.params.get("rounds", "?")
        fault_note = ""
        if run.fault_events or run.retry_attempts or run.degraded:
            fault_note = (
                f" [faults={run.fault_events} retries={run.retry_attempts}"
                + (" degraded" if run.degraded else "")
                + "]"
            )
        print(
            f"\nrun {index}: {run.protocol} "
            f"(k={run.params.get('max_set_size')}, r={r}) -- "
            f"{run.total_bits} bits in {run.num_rounds} messages{fault_note}",
            file=out,
        )
        for round_index, bits in enumerate(run.round_bits):
            print(f"  round {round_index:>2}: {bits:>8} bits", file=out)
        for sender in sorted(run.sender_bits):
            print(
                f"  sender {sender}: {run.sender_bits[sender]} bits", file=out
            )

    metrics_snapshot = _metrics.snapshot(include_hotcache=True)
    if metrics_snapshot:
        print("\nmetrics:", file=out)
        for name, entry in metrics_snapshot.items():
            if entry["kind"] == "counter":
                print(f"  {name}: {entry['value']}", file=out)
            elif entry["kind"] == "histogram":
                print(
                    f"  {name}: n={entry['count']} mean={entry['mean']:.1f} "
                    f"min={entry['min']} max={entry['max']}",
                    file=out,
                )
            else:
                print(
                    f"  {name}: hits={entry['hits']} misses={entry['misses']}",
                    file=out,
                )

    if args.no_check:
        return 0
    report = check_runs(runs)
    print("", file=out)
    print(str(report), file=out)
    return 0 if report.passed else 1


def _write_table(path: str, result, out) -> None:
    """Write a sweep's cells + cache stats as a JSON artifact."""
    import json

    document = {
        "plan": result.plan.name,
        "analysis": result.plan.analysis,
        "counters_sha256": result.counters_sha256,
        "cells": result.cells,
        "stats": result.stats(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nsurvival table written to {path}", file=out)


def _cmd_faults_multiparty(args, out) -> int:
    from repro.faults.models import MODEL_FACTORIES, FaultConfigError
    from repro.plans import Plan, ProtocolSpec, RetrySpec, run_plan
    from repro.plans.registry import MULTIPARTY_PROTOCOLS
    from repro.workloads import MultipartySpec

    universe = 1 << args.log_universe
    multiparty_models = (
        "churn",
        "crash",
        "bitflip",
        "truncate",
        "drop",
        "duplicate",
    )
    # Mode-sensitive defaults: argparse can't vary them per flag, so the
    # two-party defaults are re-read as "unset" here.
    model_names = [m.strip() for m in args.models.split(",") if m.strip()]
    if args.models == "bitflip":
        model_names = ["churn"]
    protocol_names = [p.strip() for p in args.protocols.split(",") if p.strip()]
    if args.protocols == "bucket,amplified":
        protocol_names = ["coordinator", "binary-tree"]
    max_attempts = 8 if args.max_attempts == 5 else args.max_attempts

    try:
        rates = [float(rate) for rate in args.rates.split(",") if rate.strip()]
    except ValueError:
        print(f"bad --rates value {args.rates!r}", file=out)
        return 2
    try:
        players = [
            int(count) for count in args.players.split(",") if count.strip()
        ]
    except ValueError:
        print(f"bad --players value {args.players!r}", file=out)
        return 2
    if not players or any(count < 2 for count in players):
        print(f"--players needs counts >= 2, got {args.players!r}", file=out)
        return 2
    for model_name in model_names:
        if model_name not in multiparty_models:
            print(
                f"unknown multiparty fault model {model_name!r} "
                f"(know: {', '.join(multiparty_models)})",
                file=out,
            )
            return 2
    for protocol_name in protocol_names:
        if protocol_name not in MULTIPARTY_PROTOCOLS:
            print(
                f"unknown multiparty protocol {protocol_name!r} "
                f"(know: {', '.join(sorted(MULTIPARTY_PROTOCOLS))})",
                file=out,
            )
            return 2
    for model_name in model_names:
        for rate in rates:
            try:
                MODEL_FACTORIES[model_name](rate)
            except FaultConfigError as exc:
                print(f"bad rate {rate} for {model_name}: {exc}", file=out)
                return 2
    common = args.common if args.common is not None else max(1, args.k // 8)
    try:
        instances = tuple(
            MultipartySpec(
                universe_size=universe,
                set_size=args.k,
                num_players=count,
                common_size=common,
            )
            for count in players
        )
    except ValueError as exc:
        print(f"bad multiparty instance: {exc}", file=out)
        return 2

    fault_specs = tuple(
        f"{model_name}@{rate!r}"
        for model_name in model_names
        for rate in rates
    )
    plan = Plan(
        name="multiparty-churn-sweep",
        analysis="multiparty-survival",
        protocols=tuple(ProtocolSpec(name) for name in protocol_names),
        instances=instances,
        fault_specs=fault_specs,
        trials=args.trials,
        seed=args.seed,
        shard_size=max(1, min(args.trials, 8)),
        retry=RetrySpec(max_attempts=max_attempts),
    )
    result = run_plan(plan, workers=args.workers)

    print(
        f"multiparty churn sweep: universe 2^{args.log_universe}, "
        f"k={args.k}, core={common}, {args.trials} trials/cell, recovery "
        f"budget {max_attempts} attempts (rate = per-player whole-run "
        f"crash probability)",
        file=out,
    )
    header = (
        f"{'protocol':<13}{'model':<9}{'rate':>6}{'m':>5}  "
        f"{'survived%':>9}  {'exact%':>7}  {'recovered%':>10}  "
        f"{'degraded%':>9}  {'crashed':>7}  {'attempts':>8}  "
        f"{'bits/trial':>11}  {'recovery%':>9}"
    )
    print(header, file=out)
    cell_rows = iter(result.cells)
    for protocol_name in protocol_names:
        for count in players:
            for model_name in model_names:
                for rate in rates:
                    aggregate = next(cell_rows)["aggregate"]
                    trials = aggregate["trials"]
                    bits = aggregate["bits"]
                    recovery_share = (
                        100.0 * aggregate["recovery_bits"] / bits
                        if bits
                        else 0.0
                    )
                    print(
                        f"{protocol_name:<13}{model_name:<9}{rate:>6.3f}"
                        f"{count:>5}  "
                        f"{100.0 * aggregate['survived'] / trials:>9.1f}  "
                        f"{100.0 * aggregate['exact'] / trials:>7.1f}  "
                        f"{100.0 * aggregate['recovered'] / trials:>10.1f}  "
                        f"{100.0 * aggregate['degraded'] / trials:>9.1f}  "
                        f"{aggregate['crashed'] / trials:>7.2f}  "
                        f"{aggregate['attempts'] / trials:>8.2f}  "
                        f"{bits / trials:>11.0f}  "
                        f"{recovery_share:>9.1f}",
                        file=out,
                    )
    if result.shards_cached:
        print(
            f"\nshard cache: {result.shards_cached}/{result.shards_total} "
            f"shards reused",
            file=out,
        )
    print(
        "\nsurvived: the session still produced the survivors' exact "
        "intersection (exact = nobody crashed,\nrecovered = re-run over "
        "survivors); degraded: recovery budget exhausted, a certified "
        "superset\n(one player's own input) returned instead.  recovery% "
        "is the share of bits spent on re-runs.",
        file=out,
    )
    if args.table_out:
        _write_table(args.table_out, result, out)
    return 0


def _cmd_faults(args, out) -> int:
    from repro.faults.models import MODEL_FACTORIES, FaultConfigError
    from repro.plans import Plan, ProtocolSpec, RetrySpec, run_plan
    from repro.plans.registry import PROTOCOLS, protocol_display_name
    from repro.workloads import Distribution, WorkloadSpec

    if args.multiparty:
        return _cmd_faults_multiparty(args, out)

    universe = 1 << args.log_universe
    # Reorder and crash are round/player faults of the multiparty network;
    # the two-party sweep covers the per-payload channel models.
    two_party_models = ("bitflip", "truncate", "drop", "duplicate")

    try:
        rates = [float(rate) for rate in args.rates.split(",") if rate.strip()]
    except ValueError:
        print(f"bad --rates value {args.rates!r}", file=out)
        return 2
    model_names = [m.strip() for m in args.models.split(",") if m.strip()]
    protocol_names = [p.strip() for p in args.protocols.split(",") if p.strip()]
    for model_name in model_names:
        if model_name not in two_party_models:
            print(
                f"unknown two-party fault model {model_name!r} "
                f"(know: {', '.join(two_party_models)})",
                file=out,
            )
            return 2
    for protocol_name in protocol_names:
        if protocol_name not in PROTOCOLS:
            print(
                f"unknown protocol {protocol_name!r} "
                f"(know: {', '.join(sorted(PROTOCOLS))})",
                file=out,
            )
            return 2
    for model_name in model_names:
        for rate in rates:
            try:
                MODEL_FACTORIES[model_name](rate)
            except FaultConfigError as exc:
                print(f"bad rate {rate} for {model_name}: {exc}", file=out)
                return 2

    # The sweep is one declarative plan: cells enumerate protocol (outer) x
    # fault spec (inner, models x rates), matching the table's row order.
    # Running through the plan layer means an active $REPRO_PLAN_CACHE
    # makes repeated sweeps incremental, for free.
    fault_specs = tuple(
        f"{model_name}@{rate!r}"
        for model_name in model_names
        for rate in rates
    )
    plan = Plan(
        name="faults-sweep",
        analysis="survival",
        protocols=tuple(ProtocolSpec(name) for name in protocol_names),
        instances=(
            WorkloadSpec(
                universe_size=universe,
                set_size=args.k,
                overlap_fraction=args.overlap,
                distribution=Distribution.UNIFORM,
            ),
        ),
        fault_specs=fault_specs,
        trials=args.trials,
        seed=args.seed,
        shard_size=max(1, min(args.trials, 32)),
        retry=RetrySpec(
            max_attempts=args.max_attempts,
            attempt_bit_budget=args.attempt_bit_budget,
            adaptive_budget=args.adaptive_budget,
        ),
    )
    result = run_plan(plan, workers=args.workers)

    print(
        f"fault sweep: universe 2^{args.log_universe}, k={args.k}, "
        f"{args.trials} trials/cell, retry budget {args.max_attempts} "
        f"attempts (rate = per-message fault probability)",
        file=out,
    )
    header = (
        f"{'protocol':<24}{'model':<11}{'rate':>6}  {'exact%':>7}  "
        f"{'inexact%':>8}  {'degraded%':>9}  {'attempts':>8}  "
        f"{'faults/trial':>12}  {'bits/trial':>11}"
    )
    print(header, file=out)
    cell_rows = iter(result.cells)
    for protocol_name in protocol_names:
        display = protocol_display_name(
            ProtocolSpec(protocol_name), universe, args.k
        )
        for model_name in model_names:
            for rate in rates:
                aggregate = next(cell_rows)["aggregate"]
                trials = aggregate["trials"]
                print(
                    f"{display:<24}{model_name:<11}{rate:>6.3f}  "
                    f"{100.0 * aggregate['exact'] / trials:>7.1f}  "
                    f"{100.0 * aggregate['inexact'] / trials:>8.1f}  "
                    f"{100.0 * aggregate['degraded'] / trials:>9.1f}  "
                    f"{aggregate['attempts'] / trials:>8.2f}  "
                    f"{aggregate['faults'] / trials:>12.1f}  "
                    f"{aggregate['bits'] / trials:>11.0f}",
                    file=out,
                )
    if result.shards_cached:
        print(
            f"\nshard cache: {result.shards_cached}/{result.shards_total} "
            f"shards reused",
            file=out,
        )
    # An *inexact* (agreed-but-wrong) cell is not an error exit: the
    # equality check certifies agreement, and agreement implies exactness
    # only over a reliable channel (DESIGN §9) -- at high fault rates both
    # parties can consistently lose the same element, and the sweep's whole
    # point is to measure how often.
    print(
        "\nexact: verified and equal to S ∩ T; inexact: verified but "
        "corrupted consistently on both sides;\ndegraded: retry budget "
        "exhausted, certified supersets (own inputs) returned instead.",
        file=out,
    )
    if args.table_out:
        _write_table(args.table_out, result, out)
    return 0


def _plan_from_args(args, out):
    """Build a Plan from ``--file`` or the inline grid flags.

    Returns ``None`` after printing the problem (callers exit 2).
    """
    import json

    from repro.plans import Plan, ProtocolSpec, RetrySpec, plan_from_dict
    from repro.workloads import Distribution, WorkloadSpec

    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError as exc:
            print(f"cannot read {args.file}: {exc}", file=out)
            return None
        except json.JSONDecodeError as exc:
            print(f"{args.file}: not valid JSON ({exc})", file=out)
            return None
        try:
            return plan_from_dict(document)
        except ValueError as exc:
            print(f"{args.file}: {exc}", file=out)
            return None

    protocol_names = [p.strip() for p in args.protocols.split(",") if p.strip()]
    if args.fault_specs is not None:
        fault_specs = tuple(
            spec.strip() for spec in args.fault_specs.split(",") if spec.strip()
        )
    else:
        fault_specs = (None,)
    try:
        return Plan(
            name=args.name,
            analysis=args.analysis,
            protocols=tuple(ProtocolSpec(name) for name in protocol_names),
            instances=(
                WorkloadSpec(
                    universe_size=1 << args.log_universe,
                    set_size=args.k,
                    overlap_fraction=args.overlap,
                    distribution=Distribution(args.distribution),
                ),
            ),
            fault_specs=fault_specs,
            trials=args.trials,
            seed=args.seed,
            shard_size=args.shard_size,
            retry=RetrySpec(
                max_attempts=args.max_attempts,
                attempt_bit_budget=args.attempt_bit_budget,
                adaptive_budget=args.adaptive_budget,
            ),
        )
    except ValueError as exc:
        print(f"bad plan: {exc}", file=out)
        return None


def _cmd_plan(args, out) -> int:
    import json

    from repro.plans import ShardCache, compile_plan, plan_to_dict, run_plan

    plan = _plan_from_args(args, out)
    if plan is None:
        return 2
    try:
        compiled = compile_plan(plan)
    except ValueError as exc:
        print(f"bad plan: {exc}", file=out)
        return 2

    if args.plan_command == "show":
        print(
            f"plan {plan.name!r}: {plan.num_cells} cells x {plan.trials} "
            f"trials = {compiled.total_trials} trials in "
            f"{len(compiled.shards)} shards (analysis={plan.analysis})",
            file=out,
        )
        print(f"plan key: {compiled.plan_key}", file=out)
        for shard in compiled.shards:
            print(
                f"  shard {shard.index:>3}  {shard.key[:16]}  "
                f"trials {shard.trial_start}"
                f"..{shard.trial_start + shard.trials - 1}  "
                f"{shard.cell.label()}",
                file=out,
            )
        return 0

    cache = None
    if args.cache is not None:
        cache = ShardCache(args.cache) if args.cache.strip() not in ("", "0") else None
    result = run_plan(
        plan,
        cache=cache,
        use_env_cache=args.cache is None,
        workers=args.workers,
        executor=args.executor,
        halt_after=args.halt_after,
        compiled=compiled,
    )

    if args.stats_out is not None:
        with open(args.stats_out, "w", encoding="utf-8") as handle:
            json.dump(result.stats(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    if result.interrupted:
        print(
            f"interrupted after {result.shards_executed} executed shard(s): "
            f"{result.shards_cached + result.shards_executed}/"
            f"{result.shards_total} shards done; re-run with the same cache "
            f"to resume",
            file=out,
        )
        return 3

    print(
        f"plan {plan.name!r}: {result.shards_total} shards "
        f"({result.shards_cached} cached, {result.shards_executed} executed) "
        f"in {result.wall_s:.2f}s",
        file=out,
    )
    print(f"counters_sha256: {result.counters_sha256}", file=out)
    for cell in result.cells:
        aggregate = ", ".join(
            f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in cell["aggregate"].items()
        )
        instance = cell["instance"]
        fault = cell["fault_spec"] if cell["fault_spec"] is not None else "reliable"
        print(
            f"  {cell['protocol']['name']} "
            f"n={instance['universe_size']} k={instance['set_size']} "
            f"{fault}: {aggregate}",
            file=out,
        )

    if args.out is not None:
        # The aggregate document is deliberately timing-free so a resumed
        # run's file is byte-identical to an uninterrupted one (the CI
        # resumability gate compares with cmp).
        document = {
            "plan": plan_to_dict(plan),
            "plan_key": result.plan_key,
            "counters_sha256": result.counters_sha256,
            "cells": result.cells,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=out)
    return 0


def _load_mix_from_args(args, out):
    """The mix under test: ``--mix FILE`` or the inline flags.

    Returns ``None`` after printing the problem (callers exit 2).
    """
    import json

    from repro.serve import LoadMix, mix_from_dict

    if args.mix is not None:
        document = _load_json_report(args.mix, out)
        if document is None:
            return None
        try:
            return mix_from_dict(document)
        except (TypeError, ValueError) as exc:
            print(f"{args.mix}: {exc}", file=out)
            return None
    try:
        set_sizes = tuple(
            int(value) for value in args.set_sizes.split(",") if value.strip()
        )
    except ValueError:
        print(f"bad --set-sizes value {args.set_sizes!r}", file=out)
        return None
    try:
        return LoadMix(
            name="cli",
            seed=args.seed,
            sessions=args.sessions,
            ops_per_session=args.ops,
            universe_size=1 << args.log_universe,
            set_sizes=set_sizes,
            rounds=args.rounds if args.rounds > 0 else None,
            overlap=args.overlap,
            faults=args.faults,
        )
    except ValueError as exc:
        print(f"bad mix: {exc}", file=out)
        return None


def _cmd_serve_load(args, out) -> int:
    import json

    from repro.serve import latency_histogram, run_load

    mix = _load_mix_from_args(args, out)
    if mix is None:
        return 2
    try:
        report = run_load(
            mix,
            coalesce=not args.no_coalesce,
            tick_s=args.tick,
            connections=args.connections,
            pipeline=args.pipeline,
            max_pending_global=args.max_pending_global,
            max_pending_per_session=args.max_pending_per_session,
            check_serial=args.check_serial,
            transport=args.transport,
            fleet=args.fleet,
            profile=args.profile,
            uds_path=args.uds_path,
        )
    except ValueError as exc:
        print(f"bad load options: {exc}", file=out)
        return 2
    except RuntimeError as exc:
        # FleetError: a worker process crashed or timed out.
        print(f"FAIL: {exc}", file=out)
        return 1

    mode = "coalesced" if report.coalesce else "scalar"
    if report.transport == "inproc":
        via = "inproc clients"
    else:
        via = f"{report.fleet}-worker fleet over {report.transport}"
    print(
        f"mix {mix.name!r}: {report.sessions} sessions x "
        f"{mix.ops_per_session} ops, {mode}, {via}, "
        f"{report.profile} caches",
        file=out,
    )
    degraded_note = (
        f", {report.degraded} degraded" if report.degraded else ""
    )
    print(
        f"  {report.ops_ok}/{report.ops_total} ok{degraded_note}, "
        f"{report.shed} shed, "
        f"{len(report.errors)} errors in {report.wall_s:.3f}s",
        file=out,
    )
    print(
        f"  {report.sessions_per_sec:.0f} sessions/s, "
        f"{report.ops_per_sec:.0f} ops/s",
        file=out,
    )
    print(
        f"  latency ms: p50={report.p50_ms:.2f} p99={report.p99_ms:.2f} "
        f"p999={report.p999_ms:.2f} (answered ops only)",
        file=out,
    )
    if report.shed:
        print(
            f"  shed latency ms: p50={report.shed_p50_ms:.2f} "
            f"p99={report.shed_p99_ms:.2f} ({report.shed} rejections)",
            file=out,
        )
    for worker in report.workers:
        print(
            f"  worker {worker['worker']}: {worker['ok']}/{worker['ops']} ok, "
            f"{worker['shed']} shed, {worker['connections']} conns, "
            f"p50={worker['p50_ms']:.2f}ms p99={worker['p99_ms']:.2f}ms",
            file=out,
        )
    if report.batches:
        print(
            f"  coalescer: {report.batches} batches, "
            f"{report.coalesced_ops} coalesced + {report.scalar_ops} scalar "
            f"ops, {report.lanes_per_batch:.0f} lanes/batch",
            file=out,
        )
    print(f"  fingerprint: {report.fingerprint}", file=out)
    if report.serial_match is not None:
        print(f"  serial_match: {report.serial_match}", file=out)

    if args.hist_out is not None:
        with open(args.hist_out, "w", encoding="utf-8") as handle:
            json.dump(latency_histogram(report.latencies_ms), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.hist_out}", file=out)
    if args.report_out is not None:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.report_out}", file=out)

    if args.check_serial and report.serial_match is not True:
        print("FAIL: async run diverged from the serial reference", file=out)
        return 1
    if args.require_no_shed and report.shed > 0:
        print(f"FAIL: {report.shed} operation(s) shed", file=out)
        return 1
    if args.expect_shed:
        # Every non-ok reply must be a typed overloaded shed; anything in
        # ``errors`` means an op was dropped without the typed contract.
        if report.shed == 0:
            print("FAIL: expected shedding, none happened", file=out)
            return 1
        if report.errors:
            print(
                f"FAIL: {len(report.errors)} non-overloaded error repl(ies) "
                f"under overload",
                file=out,
            )
            return 1
        if report.ops_ok + report.shed != report.ops_total:
            print("FAIL: some operations were never answered", file=out)
            return 1
        print(
            f"backpressure OK: every one of the {report.shed} shed op(s) "
            f"got a typed overloaded reply",
            file=out,
        )
    if args.expect_degraded:
        # The fault-mix gate: damage must surface as typed degradation
        # (ok replies carrying degraded=true), never as untyped errors or
        # silent drops.
        if report.degraded == 0:
            print("FAIL: expected degraded operations, none happened", file=out)
            return 1
        if report.errors:
            print(
                f"FAIL: {len(report.errors)} untyped error repl(ies) "
                f"under faults",
                file=out,
            )
            return 1
        if report.ops_ok + report.shed != report.ops_total:
            print("FAIL: some operations were never answered", file=out)
            return 1
        print(
            f"fault degradation OK: {report.degraded} op(s) degraded to "
            f"the typed certified-superset contract, zero untyped errors",
            file=out,
        )
    return 0


def _cmd_serve(args, out) -> int:
    import asyncio
    import json

    if args.serve_command == "load":
        return _cmd_serve_load(args, out)

    if args.serve_command == "mix":
        from repro.serve import DEFAULT_MIX, mix_to_dict

        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(mix_to_dict(DEFAULT_MIX), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out} (edit, then: repro serve load --mix {args.out})",
              file=out)
        return 0

    from repro.serve import IntersectionServer, ServeConfig

    if args.transport == "uds" and not args.uds:
        print("--transport uds requires --uds PATH", file=out)
        return 2

    async def _run_server() -> None:
        server = IntersectionServer(
            ServeConfig(
                host=args.host,
                port=args.port,
                transport=args.transport,
                uds_path=args.uds,
                master_seed=args.master_seed,
            )
        )
        await server.start()
        kind, where = server.endpoint
        if kind == "uds":
            print(f"serving on unix:{where} (ctrl-c to stop)", file=out)
        else:
            host, port = where
            print(f"serving on {host}:{port} (ctrl-c to stop)", file=out)
        await server.serve_forever()

    try:
        asyncio.run(_run_server())
    except KeyboardInterrupt:
        print("stopped", file=out)
    return 0


def _cmd_render(args, out) -> int:
    from repro.comm.render import render_transcript
    from repro.core.tree_protocol import TreeProtocol

    rng = random.Random(args.seed)
    universe = 1 << args.log_universe
    sample = rng.sample(range(universe), 2 * args.k - args.k // 2)
    alice = frozenset(sample[: args.k])
    bob = frozenset(sample[args.k // 2 :])
    sink = []
    protocol = TreeProtocol(
        universe, args.k, rounds=args.rounds, stage_stats_sink=sink
    )
    outcome = protocol.run(alice, bob, seed=args.seed)
    print(render_transcript(outcome.transcript), file=out)
    if sink:
        print("", file=out)
        print("stage anatomy (stage: eq bits / re-run bits / failed leaves):",
              file=out)
        for stage in sink:
            print(
                f"  {stage.stage}: {stage.equality_bits} / "
                f"{stage.rerun_bits} / {stage.failed_leaves}",
                file=out,
            )
    print(
        f"\nresult: |S n T| = {len(outcome.alice_output)} "
        f"(correct: {outcome.correct_for(alice, bob)})",
        file=out,
    )
    return 0


def _cmd_conformance(args, out) -> int:
    from repro.core.amplify import AmplifiedIntersection
    from repro.protocols.bucket_verify import BucketVerifyProtocol
    from repro.protocols.one_round import OneRoundHashingProtocol
    from repro.protocols.sqrt_k import SqrtKProtocol
    from repro.protocols.trivial import TrivialExchangeProtocol
    from repro.testing import check_intersection_contract

    n = 1 << args.log_universe
    factories = {
        "tree": lambda: TreeProtocol(n, args.k),
        "one-round": lambda: OneRoundHashingProtocol(n, args.k),
        "trivial": lambda: TrivialExchangeProtocol(n, args.k),
        "bucket": lambda: BucketVerifyProtocol(n, args.k),
        "sqrt-k": lambda: SqrtKProtocol(n, args.k),
        "amplified": lambda: AmplifiedIntersection(n, args.k),
    }
    report = check_intersection_contract(
        factories[args.protocol](), failure_budget=args.failure_budget
    )
    print(str(report), file=out)
    return 0 if report.passed else 1


def _cmd_exact_cc(args, out) -> int:
    from repro.analysis.exact_cc import (
        disjointness_matrix,
        equality_matrix,
        exact_deterministic_cc,
        greater_than_matrix,
        intersection_matrix,
    )

    if args.problem == "eq":
        matrix = equality_matrix(args.size)
        description = f"EQ over [{args.size}]"
    elif args.problem == "gt":
        matrix = greater_than_matrix(args.size)
        description = f"GT over [{args.size}]"
    elif args.problem == "disj":
        matrix, subsets = disjointness_matrix(args.size, args.max_set_size)
        description = (
            f"DISJ, universe [{args.size}], k = {args.max_set_size} "
            f"({len(subsets)} input classes)"
        )
    else:
        matrix, subsets = intersection_matrix(args.size, args.max_set_size)
        description = (
            f"INT, universe [{args.size}], k = {args.max_set_size} "
            f"({len(subsets)} input classes)"
        )
    print(f"{description}: D(f) = {exact_deterministic_cc(matrix)}", file=out)
    return 0
