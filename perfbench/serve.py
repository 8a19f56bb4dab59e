"""The serve workload ``serve-mixed``.

One asyncio load process talks the serve wire protocol
(:mod:`repro.serve.wire`) over :data:`CONNECTIONS` Unix-socket
connections to one ``IntersectionServer`` child
(:mod:`perfbench.server_child`).  Session ``i`` always uses connection
``i mod CONNECTIONS``, so each session's ops reach the server in schedule
order and every answer is a pure function of the workload seed.

A run has two measured phases:

* the *nominal rung*: an open loop at :data:`NOMINAL_RATE`, well below
  saturation.  Each op is due at ``start + j / rate`` and is timed from
  its due time, so a stall delays the ops queued behind it; the
  generator's lateness is reported.  The rung *meets the limit* when
  every op is answered, the p99 latency is within :data:`LIMIT_MS`, and
  the backlog did not grow (the server completed at least
  :data:`KEEPS_UP` of the offered rate).  Its latencies are reported, not
  used as metrics: at this load they are mostly process wake-ups, which a
  shared host stretches at random.
* the *window*: :data:`WINDOW` ops kept in flight, each timed from its
  send, for :data:`WINDOW_OPS` ops.  The server never idles, so latency is
  its queueing and compute, and the completion rate is its capacity.
  The window has a fixed op count so that every host measures the same
  work: the server's hot caches, and so its collector's passes, grow with
  every op.  Whatever remains of the process's share of ``--seconds`` is
  filled by a further window, whose ops count in the wall-clock figures
  only.

The gated costs are the server's CPU time per answered op in the window
outside collector pauses, scaled by the CPU time of a reference loop the
server child runs every 0.1 s while it serves (see
:func:`~perfbench.stats.reference_loop`), and the objects its full
collections scanned per op (see :class:`~perfbench.stats.CollectorMeter`);
set-up counts the CPU time of the load process and the server child, each
scaled by its own reference runs.  Wall-clock rates and
latencies are reported, not gated: on a shared host they hold the time the
host gave the CPUs to someone else.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from perfbench.inputs import derive, op_rng, two_party_pair, weighted_choice
from perfbench.oracle import check_two_party
from perfbench.stats import (
    REFERENCE_LOOP_S,
    Digest,
    OpLedger,
    median,
    percentile,
    scaled_setup_s,
    windowed_percentile,
)

__all__ = [
    "NAME",
    "CONNECTIONS",
    "LIMIT_MS",
    "run_serve",
    "serve_part",
    "serve_metrics",
    "serve_samples",
]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNIVERSE = 1 << 32
#: How long the loader waits for the last replies of a phase.
DRAIN_TIMEOUT_S = 15.0
#: How long the child may take to import, bind and print ``READY``.
READY_TIMEOUT_S = 60.0
#: Shortest sleep of the open-loop sender between bursts of due ops.
SEND_TICK_S = 0.001
#: A rung whose completion rate falls below this share of the offered
#: rate has a growing backlog.  Below capacity the share is about 0.97 or
#: more (the last replies trail the last due time by one latency).
KEEPS_UP = 0.9

#: Workload name, as given to ``--workload``.
NAME = "serve-mixed"
#: Connections the load process opens; the run refuses a host with fewer
#: CPUs, so every host maps sessions to connections the same way.
CONNECTIONS = 2
SESSIONS = 64
#: Session ``i`` is heavy when this divides ``i + 1``.
HEAVY_EVERY = 16
LIGHT_K = 64
LIGHT_OVERLAP = 0.3
HEAVY_K = 256
HEAVY_ROUNDS = 2
HEAVY_OVERLAP = 0.9
WARMUP_OPS_PER_SESSION = 2
#: Offered rate (ops/s) of the nominal rung.
NOMINAL_RATE = 300
#: The nominal rung meets the limit when its p99 latency is within this.
LIMIT_MS = 350.0
#: Ops in flight in the window.
WINDOW = 32
#: Ops of the measured window, per process: a host as slow as the slowest
#: seen (about 860 ops/s saturated) answers them within the window's share
#: of a 30 s run.
WINDOW_OPS = 6000
#: Share of ``--seconds`` of the nominal rung; the window has the rest.
NOMINAL_SHARE = 0.2


def heavy(index: int) -> bool:
    return (index + 1) % HEAVY_EVERY == 0


def shape(index: int) -> Tuple[int, int, float]:
    """``(k, rounds, overlap)`` of session ``index``."""
    if heavy(index):
        return HEAVY_K, HEAVY_ROUNDS, HEAVY_OVERLAP
    return LIGHT_K, 1, LIGHT_OVERLAP


@dataclass
class Rung:
    """What one measured phase produced (``rate`` 0: the window)."""

    rate: int
    ledger: OpLedger = field(default_factory=OpLedger)
    lateness_s: List[float] = field(default_factory=list)
    achieved_ops_s: float = 0.0
    #: From the first op's timing origin to the last reply.
    span_s: float = 0.0
    outstanding_at_end: int = 0
    timed_out: int = 0
    wall_s: float = 0.0
    server_cpu_s: float = 0.0
    #: The part of ``server_cpu_s`` spent in collector pauses.
    server_gc_s: float = 0.0
    server_gc_scanned: int = 0
    #: The server's CPU seconds per reference-loop run over the phase.
    server_reference_s: float = 0.0
    loader_cpu_s: float = 0.0
    #: Peak RSS of the server child when the phase ended.
    server_rss_mb: float = 0.0

    def p99_ms(self) -> float:
        """Windowed p99 (see :func:`perfbench.stats.windowed_percentile`)."""
        if not self.ledger.latencies_s:
            return float("inf")
        return 1000.0 * windowed_percentile(self.ledger.latencies_s, 99.0)

    def meets(self) -> bool:
        return (
            self.ledger.failed == 0
            and self.p99_ms() <= LIMIT_MS
            and self.achieved_ops_s >= KEEPS_UP * self.rate
        )

    def summary(self) -> Dict[str, Any]:
        latencies = self.ledger.latencies_s
        lateness = self.lateness_s
        return {
            "rate": self.rate or "window",
            "ops": self.ledger.attempted,
            "failed": self.ledger.failed,
            "timed_out": self.timed_out,
            "p50_ms": 1000.0 * median(latencies) if latencies else None,
            "p99_ms": self.p99_ms() if latencies else None,
            "achieved_ops_s": self.achieved_ops_s,
            "outstanding_at_end": self.outstanding_at_end,
            "lateness_p99_ms": 1000.0 * percentile(lateness, 99.0) if lateness else None,
            "server_cpu_share": self.server_cpu_s / self.wall_s,
            "loader_cpu_share": self.loader_cpu_s / self.wall_s,
            "meets_limit": self.meets() if self.rate else None,
        }


class ReplyBook:
    """Replies to pipelined ops, by request id, with their arrival times."""

    def __init__(self) -> None:
        self.replies: Dict[int, Tuple[Dict[str, Any], float]] = {}
        self.expected = 0
        self.complete = asyncio.Event()
        #: Released once per reply while a closed window runs.
        self.slots: Optional[asyncio.Semaphore] = None

    def expect(self, count: int) -> None:
        self.replies = {}
        self.expected = count
        self.complete.clear()

    def add(self, request_id: int, reply: Dict[str, Any], received: float) -> None:
        self.replies[request_id] = (reply, received)
        if self.slots is not None:
            self.slots.release()
        if len(self.replies) >= self.expected:
            self.complete.set()


class Client:
    """One pipelined connection.

    Control requests (:meth:`call`) wait on a future; ops are posted
    without one and their replies land in the shared :class:`ReplyBook`.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, book: ReplyBook
    ) -> None:
        from repro.serve.wire import FrameReader

        self.writer = writer
        self._frames = FrameReader(reader)
        self._book = book
        self._waiting: Dict[int, asyncio.Future] = {}
        self._task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                reply = await self._frames.next()
                if reply is None:
                    break
                request_id = reply.get("id")
                future = self._waiting.pop(request_id, None)
                if future is None:
                    self._book.add(request_id, reply, loop.time())
                elif not future.done():
                    future.set_result(reply)
        finally:
            for future in self._waiting.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))
            self._waiting.clear()

    def post(self, frame: bytes) -> None:
        self.writer.write(frame)

    async def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from repro.serve.wire import encode_frame

        future = asyncio.get_running_loop().create_future()
        self._waiting[request["id"]] = future
        self.writer.write(encode_frame(request))
        await self.writer.drain()
        reply = await asyncio.wait_for(future, DRAIN_TIMEOUT_S)
        if not reply.get("ok"):
            raise RuntimeError(f"{request['op']} failed: {reply.get('error')}")
        return reply

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await asyncio.wait_for(self._task, DRAIN_TIMEOUT_S)


class Loader:
    """Drives one serve workload against one server child."""

    def __init__(self, seed: int, out_dir: str, part: int = 0) -> None:
        from repro.serve.loadgen import DEFAULT_OP_WEIGHTS

        self.seed = seed
        #: The measured ops' phase name: each process of a run draws other ops.
        self.phase = f"run-{part}"
        self.out_dir = out_dir
        self.weights = DEFAULT_OP_WEIGHTS
        self.clients: List[Client] = []
        self.book = ReplyBook()
        self.proc: Optional[asyncio.subprocess.Process] = None
        tag = f"{NAME}-{os.getpid()}"
        self.uds_path = os.path.join(os.path.relpath(out_dir, ROOT), f"{tag}.sock")
        self.report_path = os.path.join(out_dir, f"{tag}.report.json")
        self.stderr_path = os.path.join(out_dir, f"{tag}.stderr")
        self._ids = 0
        self.sessions_open: List[int] = []
        #: The child's reference runs at start (see :meth:`start`).
        self.server_startup = (0.0, 0.0)

    def _next_id(self) -> int:
        self._ids += 1
        return self._ids

    def key(self, index: int) -> str:
        return f"{NAME}-{index:03d}"

    def client_for(self, index: int) -> Client:
        return self.clients[index % len(self.clients)]

    def make_op(self, phase: str, index: int) -> Tuple[int, str, List[int], List[int]]:
        """``(session, kind, alice, bob)`` of op ``index`` of ``phase``."""
        rng = op_rng(self.seed, NAME, phase, index)
        session = rng.randrange(SESSIONS)
        kind = weighted_choice(rng, self.weights)
        k, _, overlap = shape(session)
        alice, bob = two_party_pair(rng, UNIVERSE, k, overlap)
        return session, kind, alice, bob

    # -- lifecycle ---------------------------------------------------------

    async def start(self, env: Dict[str, str]) -> None:
        with open(self.stderr_path, "wb") as stderr:
            self.proc = await asyncio.create_subprocess_exec(
                sys.executable,
                os.path.join(ROOT, "perfbench", "server_child.py"),
                "--uds",
                self.uds_path,
                "--report",
                self.report_path,
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE,
                stderr=stderr,
                env=env,
                cwd=ROOT,
            )
        line = await asyncio.wait_for(self.proc.stdout.readline(), READY_TIMEOUT_S)
        fields = line.split()
        if len(fields) != 3 or fields[0] != b"READY":
            raise RuntimeError(f"server child did not become ready: {self.stderr_tail()}")
        self.server_startup = (float(fields[1]), float(fields[2]))
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_unix_connection(self.uds_path)
            self.clients.append(Client(reader, writer, self.book))
        for index in range(SESSIONS):
            k, rounds, _ = shape(index)
            await self.client_for(index).call(
                {
                    "op": "open",
                    "id": self._next_id(),
                    "session": self.key(index),
                    "universe": UNIVERSE,
                    "k": k,
                    "rounds": rounds,
                    "seed": derive(self.seed, NAME, "session", index),
                }
            )
            self.sessions_open.append(index)

    async def info(self) -> Dict[str, Any]:
        reply = await self.clients[0].call({"op": "info", "id": self._next_id()})
        return reply["info"]

    async def command(self, text: str) -> None:
        self.proc.stdin.write(text.encode() + b"\n")
        await self.proc.stdin.drain()

    async def collect_garbage(self) -> None:
        """A full collection in the child, acknowledged before returning."""
        await self.command("gc")
        line = await asyncio.wait_for(self.proc.stdout.readline(), DRAIN_TIMEOUT_S)
        if line.strip() != b"GC":
            raise RuntimeError(f"server child did not acknowledge gc: {line!r}")

    async def server_stat(self) -> Dict[str, float]:
        """The child's CPU seconds so far, collector pauses and objects
        scanned so far, peak RSS in MB, and its reference-loop runs so far,
        their summed CPU seconds per run and the CPU seconds they took (see
        :mod:`perfbench.server_child`)."""
        await self.command("stat")
        line = await asyncio.wait_for(self.proc.stdout.readline(), DRAIN_TIMEOUT_S)
        fields = line.split()
        if len(fields) != 8 or fields[0] != b"STAT":
            raise RuntimeError(f"server child did not answer stat: {line!r}")
        names = ("cpu_s", "gc_s", "gc_scanned", "rss_mb", "runs", "reference_s", "spent_s")
        return {name: float(value) for name, value in zip(names, fields[1:])}

    async def stop(self) -> Dict[str, Any]:
        """Close sessions and connections, then stop the child; return its
        report.  Always waits for the child to end."""
        try:
            for index in list(self.sessions_open):
                await self.client_for(index).call(
                    {"op": "close", "id": self._next_id(), "session": self.key(index)}
                )
                self.sessions_open.remove(index)
        finally:
            for client in self.clients:
                await client.close()
            self.clients.clear()
            await self._stop_child()
        with open(self.report_path, encoding="utf-8") as report:
            result = json.load(report)
        os.unlink(self.report_path)
        result["stderr"] = self.stderr_tail()
        os.unlink(self.stderr_path)
        return result

    async def _stop_child(self) -> None:
        if self.proc is None or self.proc.returncode is not None:
            return
        try:
            self.proc.stdin.write(b"stop\n")
            await self.proc.stdin.drain()
            self.proc.stdin.close()
            await asyncio.wait_for(self.proc.wait(), DRAIN_TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError):
            self.proc.kill()
            await self.proc.wait()

    async def kill(self) -> None:
        """Last-resort cleanup after a failure: end the child, wait for it."""
        for client in self.clients:
            client.writer.close()
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()

    def stderr_tail(self, lines: int = 40) -> List[str]:
        try:
            with open(self.stderr_path, encoding="utf-8", errors="replace") as err:
                return err.read().splitlines()[-lines:]
        except FileNotFoundError:
            return []

    # -- traffic -----------------------------------------------------------

    def _check(self, phase: str, index: int, reply: Dict[str, Any]) -> Tuple[bool, int]:
        """Oracle for one ok reply; returns ``(exact, session)``."""
        session, kind, alice, bob = self.make_op(phase, index)
        exact = check_two_party(kind, reply["result"], frozenset(alice), frozenset(bob))
        return exact and not reply.get("degraded", False), session

    def _request(self, phase: str, index: int) -> Tuple[Client, int, bytes]:
        """``(client, request id, frame)`` of op ``index`` of ``phase``."""
        from repro.serve.wire import encode_frame

        session, kind, alice, bob = self.make_op(phase, index)
        request = {
            "op": kind,
            "id": self._next_id(),
            "session": self.key(session),
            "alice": alice,
            "bob": bob,
        }
        return self.client_for(session), request["id"], encode_frame(request)

    async def _flush(self) -> None:
        for client in self.clients:
            await client.writer.drain()

    async def warm_up(self) -> str:
        """A fixed seeded batch of ops, sent pipelined; returns the digest:
        the per-op reply stream and the server's ``info`` fingerprint."""
        count = SESSIONS * WARMUP_OPS_PER_SESSION
        plan = [self._request("warm", index) for index in range(count)]
        self.book.expect(count)
        for client, _, frame in plan:
            client.post(frame)
        await self._flush()
        await asyncio.wait_for(self.book.complete.wait(), DRAIN_TIMEOUT_S * 4)
        digest = Digest()
        for index, (_, request_id, _) in enumerate(plan):
            reply, _ = self.book.replies[request_id]
            if not reply.get("ok"):
                raise RuntimeError(f"warm-up op failed: {reply.get('error')}")
            self._check("warm", index, reply)
            digest.add(reply["bits"], reply["messages"], reply["result"])
        digest.add_text((await self.info())["fingerprint"])
        return digest.hexdigest()

    async def run_rung(self, rate: int, duration_s: float, first_index: int) -> Rung:
        """Offer ``rate`` ops/s for ``duration_s``.

        The sender wakes at most every :data:`SEND_TICK_S` and posts every
        op already due, so op ``j`` leaves at most one tick after
        ``start + j / rate`` unless the loader itself falls behind (which
        the lateness figures show).  Each op is timed from its due time.
        """
        count = max(1, int(rate * duration_s))
        plan = [self._request(self.phase, first_index + offset) for offset in range(count)]
        rung = Rung(rate)

        async def send(loop) -> List[Tuple[int, int, float]]:
            self.book.expect(count)
            start = loop.time() + 0.05
            sent = 0
            while sent < count:
                now = loop.time()
                while sent < count and start + sent / rate <= now:
                    plan[sent][0].post(plan[sent][2])
                    rung.lateness_s.append(now - (start + sent / rate))
                    sent += 1
                await self._flush()
                if sent < count:
                    wait = start + sent / rate - loop.time()
                    await asyncio.sleep(max(wait, SEND_TICK_S))
            return [
                (request_id, first_index + offset, start + offset / rate)
                for offset, (_, request_id, _) in enumerate(plan)
            ]

        return await self._measure(rung, send)

    async def run_window(
        self,
        window: int,
        first_index: int,
        *,
        count: Optional[int] = None,
        duration_s: Optional[float] = None,
    ) -> Rung:
        """Keep ``window`` ops in flight (a closed loop over the pipelined
        connections) for ``count`` ops or for ``duration_s``; each op is
        timed from its send.

        The server never idles, so latency here is its queue and compute,
        not the wake-ups that dominate a lightly loaded open loop.
        """

        async def send(loop) -> List[Tuple[int, int, float]]:
            slots = asyncio.Semaphore(window)
            self.book.expect(1 << 62)
            self.book.slots = slots
            sent: List[Tuple[int, int, float]] = []
            deadline = float("inf") if duration_s is None else loop.time() + duration_s
            last = float("inf") if count is None else first_index + count
            index = first_index
            while True:
                await slots.acquire()
                if index >= last or loop.time() >= deadline:
                    return sent
                client, request_id, frame = self._request(self.phase, index)
                client.post(frame)
                sent.append((request_id, index, loop.time()))
                index += 1
                if client.writer.transport.get_write_buffer_size() > 1 << 16:
                    await client.writer.drain()

        return await self._measure(Rung(0), send)

    async def _measure(self, rung: Rung, send) -> Rung:
        """Run one phase and fill ``rung``.

        ``send(loop)`` posts the phase's ops and returns, per op, ``(request
        id, op index, time the op is timed from)``.  The loader's own
        collector stays off until the replies are in, so its pauses do not
        count as latency.
        """
        gc.collect()
        gc.disable()
        loop = asyncio.get_running_loop()
        before = await self.server_stat()
        own_cpu = time.process_time()
        started = loop.time()
        try:
            sent = await send(loop)
            rung.outstanding_at_end = len(sent) - len(self.book.replies)
            self.book.expected = len(sent)
            if len(self.book.replies) < len(sent):
                try:
                    await asyncio.wait_for(self.book.complete.wait(), DRAIN_TIMEOUT_S)
                except asyncio.TimeoutError:
                    pass
        finally:
            self.book.slots = None
            gc.enable()
        rung.wall_s = loop.time() - started
        rung.loader_cpu_s = time.process_time() - own_cpu
        after = await self.server_stat()
        reference_spent_s = after["spent_s"] - before["spent_s"]
        rung.server_cpu_s = after["cpu_s"] - before["cpu_s"] - reference_spent_s
        # A phase shorter than the reference period falls back on every run so far.
        runs = after["runs"] - before["runs"]
        rung.server_reference_s = (
            (after["reference_s"] - before["reference_s"]) / runs
            if runs
            else after["reference_s"] / after["runs"]
        )
        rung.server_gc_s = after["gc_s"] - before["gc_s"]
        rung.server_gc_scanned = int(after["gc_scanned"] - before["gc_scanned"])
        rung.server_rss_mb = after["rss_mb"]
        first = min((timed_from for _, _, timed_from in sent), default=started)
        last_reply = first
        for request_id, index, timed_from in sent:
            answered = self.book.replies.get(request_id)
            if answered is None:
                rung.timed_out += 1
                rung.ledger.record_failure()
                continue
            reply, received = answered
            if not reply.get("ok"):
                rung.ledger.record_failure()
                continue
            last_reply = max(last_reply, received)
            exact, session = self._check(self.phase, index, reply)
            rung.ledger.record(
                received - timed_from,
                bits=reply["bits"],
                messages=reply["messages"],
                k=shape(session)[0],
                exact=exact,
                light=not heavy(session),
            )
        rung.span_s = last_reply - first
        rung.achieved_ops_s = rung.ledger.completed / rung.span_s if rung.span_s > 0 else 0.0
        return rung


def _scaled_per_op(rung: Rung) -> float:
    """The server's CPU seconds per answered op of ``rung`` outside
    collector pauses, scaled by its reference runs over the phase."""
    cpu_s = rung.server_cpu_s - rung.server_gc_s
    return cpu_s / rung.ledger.completed * REFERENCE_LOOP_S / rung.server_reference_s


def _info_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    stats_before = before["coalescer"]
    stats_after = after["coalescer"]

    def delta(name: str) -> int:
        return stats_after[name] - stats_before[name]

    batches = delta("batches")
    coalesced = delta("coalesced_ops")
    scalar = delta("scalar_ops")
    return {
        "serve.batches": batches,
        "serve.lanes_per_batch": delta("lanes_total") / batches if batches else 0.0,
        "serve.coalesced_share": coalesced / (coalesced + scalar) if coalesced + scalar else 0.0,
        "serve.shed": after["shed"] - before["shed"],
    }


async def _run_serve(
    seed: int,
    seconds: float,
    *,
    t0: float,
    traced: bool,
    env: Dict[str, str],
    out_dir: str,
    part: int = 0,
    startup: Optional[Tuple[float, float]] = None,
) -> Dict[str, Any]:
    """Set up, warm up, and measure one process's share of a run: the
    nominal rung, then the window.  ``startup`` is this process's
    reference runs at start (:func:`~perfbench.stats.startup_reference`)."""
    loader = Loader(seed, out_dir, part)
    try:
        await loader.start(env)
        digest = await loader.warm_up()
        loader_cpu_s = time.process_time()
        setup_wall_s = time.monotonic() - t0
        stat = await loader.server_stat()
        before, spent = loader.server_startup
        after = stat["reference_s"] / stat["runs"] if stat["runs"] else before
        server_reference_s = (before + after) / 2
        server_cpu_s = stat["cpu_s"] - spent - stat["spent_s"]
        result: Dict[str, Any] = {
            "setup_s": scaled_setup_s(loader_cpu_s, startup)
            + server_cpu_s * REFERENCE_LOOP_S / server_reference_s,
            "setup_cpu_s": loader_cpu_s - (startup[1] if startup else 0.0) + server_cpu_s,
            "setup_wall_s": setup_wall_s,
            "digest": digest,
        }
        if traced:
            await loader.command("trace")
        info_before = await loader.info()
        # Each phase starts right after a full collection in the server, so
        # every run meets the same collector phase there.
        await loader.collect_garbage()
        nominal = await loader.run_rung(NOMINAL_RATE, seconds * NOMINAL_SHARE, 0)
        index = nominal.ledger.attempted
        await loader.collect_garbage()
        started = time.monotonic()
        window = await loader.run_window(WINDOW, index, count=WINDOW_OPS)
        index += window.ledger.attempted
        phases = [nominal, window]
        remaining = seconds * (1 - NOMINAL_SHARE) - (time.monotonic() - started)
        if remaining > 0:
            phases.append(await loader.run_window(WINDOW, index, duration_s=remaining))
        info_after = await loader.info()
        server = await loader.stop()
    except BaseException:
        await loader.kill()
        raise
    extras = _info_delta(info_before, info_after)
    extras["serve.server_cpu_share"] = nominal.server_cpu_s / nominal.wall_s
    extras["loadgen.lateness_p99_ms"] = 1000.0 * percentile(nominal.lateness_s, 99.0)
    extras["loadgen.achieved_over_offered"] = nominal.achieved_ops_s / nominal.rate
    result.update(
        phases=phases,
        extras=extras,
        cost_per_op_s=_scaled_per_op(window),
        # Read when the measured window ended, before the further one.
        peak_rss_mb=window.server_rss_mb,
        ledgers=[server["ledger"]] if "ledger" in server else [],
        server_stderr=server["stderr"],
    )
    return result


def run_serve(seed: int, seconds: float, **options: Any) -> Dict[str, Any]:
    """Run the serve workload in a fresh event loop (see :func:`_run_serve`)."""
    return asyncio.run(_run_serve(seed, seconds, **options))


def serve_part(result: Dict[str, Any]) -> Dict[str, Any]:
    """What one measuring process hands to :func:`serve_metrics`, as JSON."""
    nominal, window, *further = result["phases"]
    return {
        "nominal": asdict(nominal.ledger),
        "window": asdict(window.ledger),
        "window_span_s": window.span_s,
        "further": [asdict(phase.ledger) for phase in further],
        "further_span_s": sum(phase.span_s for phase in further),
        "window_server_cpu_s": window.server_cpu_s,
        "window_server_gc_s": window.server_gc_s,
        "window_server_gc_scanned": window.server_gc_scanned,
        "window_scaled_cpu_s": _scaled_per_op(window) * window.ledger.completed,
        "window_server_reference_s": window.server_reference_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def serve_metrics(parts: List[Dict[str, Any]]) -> Dict[str, float]:
    """The end-to-end metrics (``setup_s`` excluded) of the measuring
    processes of one run (see :func:`serve_part`), their ops pooled.
    The server costs come from the window, where the server is saturated;
    the op counts cover both phases."""
    nominal = OpLedger.merged([part["nominal"] for part in parts])
    window = OpLedger.merged([part["window"] for part in parts])
    phases = (nominal, window)
    return {
        "scaled_cpu_ms_per_op": 1000.0
        * sum(part["window_scaled_cpu_s"] for part in parts)
        / window.completed,
        "gc_scanned_per_op": sum(part["window_server_gc_scanned"] for part in parts)
        / window.completed,
        "success_rate": 1.0
        - sum(phase.failed + phase.inexact for phase in phases)
        / sum(phase.attempted for phase in phases),
        "bits_per_element": sum(phase.bits for phase in phases)
        / sum(phase.elements for phase in phases),
        "messages_per_op": sum(phase.messages for phase in phases)
        / sum(phase.completed for phase in phases),
        "peak_rss_mb": median([part["peak_rss_mb"] for part in parts]),
    }


def serve_samples(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sample counts and the saturated windows' wall-clock figures (the
    measured window and the further one together), which are reported,
    not gated."""
    nominal = OpLedger.merged([part["nominal"] for part in parts])
    window = OpLedger.merged([part["window"] for part in parts])
    saturated = OpLedger.merged(
        [ledger for part in parts for ledger in [part["window"], *part["further"]]]
    )
    span_s = sum(part["window_span_s"] + part["further_span_s"] for part in parts)
    return {
        "ops": nominal.attempted + saturated.attempted,
        "nominal_ops": nominal.completed,
        "window_ops": window.completed,
        "further_ops": saturated.completed - window.completed,
        "inexact": nominal.inexact + saturated.inexact,
        "failed": nominal.failed + saturated.failed,
        "wall_ops_s": saturated.completed / span_s,
        "wall_p50_ms": 1000.0 * median(saturated.latencies_s),
        "wall_p99_ms": 1000.0 * windowed_percentile(saturated.latencies_s, 99.0),
        "wall_light_p99_ms": 1000.0
        * windowed_percentile(saturated.light_latencies_s, 99.0),
        "wall_light_ops": len(saturated.light_latencies_s),
        "server_cpu_ms_per_op_ex_gc": 1000.0
        * sum(part["window_server_cpu_s"] - part["window_server_gc_s"] for part in parts)
        / window.completed,
        "server_reference_ms": 1000.0
        * median([part["window_server_reference_s"] for part in parts]),
        "server_gc_ms_per_op": 1000.0
        * sum(part["window_server_gc_s"] for part in parts)
        / window.completed,
    }
