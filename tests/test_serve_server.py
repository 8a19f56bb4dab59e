"""End-to-end tests for the asyncio intersection server.

Each scenario boots a real server on a loopback socket and speaks the
frame protocol through :class:`FrameReader` -- the same path production
clients take, including the backpressure and typed-shedding contract.
"""

import asyncio
import socket

import pytest

from conftest import make_instance
from repro.serve import IntersectionServer, ServeConfig
from repro.serve import server as server_module
from repro.serve.wire import FrameReader, encode_frame


async def _client(server):
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    return FrameReader(reader), writer


async def _ask(frames, writer, request):
    writer.write(encode_frame(request))
    await writer.drain()
    return await frames.next()


def _with_server(config, scenario):
    async def runner():
        server = IntersectionServer(config)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(runner())


class TestControlOps:
    def test_ping_open_stats_close(self, rng):
        s, t = make_instance(rng, 1 << 20, 64, 0.5)

        async def scenario(server):
            frames, writer = await _client(server)
            assert (await _ask(frames, writer, {"op": "ping"}))["pong"]
            opened = await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 20,
                 "k": 64, "rounds": 1},
            )
            assert opened["ok"] and isinstance(opened["seed"], int)
            reply = await _ask(
                frames, writer,
                {"op": "size", "id": 1, "session": "a",
                 "alice": sorted(s), "bob": sorted(t)},
            )
            assert reply["ok"] and reply["result"] == len(s & t)
            assert reply["protocol"] == "one-round-hashing"
            assert reply["bits"] > 0 and reply["id"] == 1
            stats = await _ask(
                frames, writer, {"op": "stats", "session": "a"}
            )
            assert stats["stats"]["operations"] == 1
            closed = await _ask(
                frames, writer, {"op": "close", "session": "a"}
            )
            assert closed["ok"]
            gone = await _ask(
                frames, writer, {"op": "stats", "session": "a"}
            )
            assert gone["error"]["type"] == "unknown-session"
            writer.close()

        _with_server(ServeConfig(), scenario)

    def test_typed_request_errors(self):
        async def scenario(server):
            frames, writer = await _client(server)
            unknown = await _ask(
                frames, writer,
                {"op": "size", "session": "nope", "alice": [], "bob": []},
            )
            assert unknown["error"]["type"] == "unknown-session"
            await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 10, "k": 8},
            )
            duplicate = await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 10, "k": 8},
            )
            assert duplicate["error"]["type"] == "session-exists"
            bad = await _ask(
                frames, writer,
                {"op": "open", "session": "b", "universe": "big", "k": 8},
            )
            assert bad["error"]["type"] == "bad-request"
            weird = await _ask(frames, writer, {"op": "frobnicate"})
            assert weird["error"]["type"] == "bad-request"
            writer.close()

        _with_server(ServeConfig(), scenario)

    def test_invalid_elements_get_typed_reply(self):
        # Admission is shape-only; element bounds surface from the
        # execution path as a typed invalid-input reply.
        async def scenario(server):
            frames, writer = await _client(server)
            await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 10, "k": 8,
                 "rounds": 1},
            )
            replies = []
            for alice in ([1 << 30], ["x"]):
                replies.append(
                    await _ask(
                        frames, writer,
                        {"op": "size", "session": "a",
                         "alice": alice, "bob": []},
                    )
                )
            not_a_list = await _ask(
                frames, writer,
                {"op": "size", "session": "a", "alice": 3, "bob": []},
            )
            writer.close()
            return replies, not_a_list

        replies, not_a_list = _with_server(ServeConfig(), scenario)
        assert all(reply["error"]["type"] == "invalid-input" for reply in replies)
        assert not_a_list["error"]["type"] == "bad-request"

    def test_bad_frame_answered_then_disconnected(self):
        async def scenario(server):
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((99999999).to_bytes(4, "big"))
            await writer.drain()
            reply = await FrameReader(reader).next()
            assert reply["error"]["type"] == "bad-frame"
            assert await reader.read() == b""
            writer.close()

        _with_server(ServeConfig(max_frame_bytes=1024), scenario)


class TestBackpressure:
    def test_per_session_overload_is_typed_and_scoped(self, rng):
        s, t = make_instance(rng, 1 << 20, 64, 0.5)
        config = ServeConfig(
            tick_s=5.0,  # hold the batch so the queue visibly fills
            max_pending_per_session=2,
            max_pending_global=100,
        )

        async def scenario(server):
            frames, writer = await _client(server)
            await _ask(
                frames, writer,
                {"op": "open", "session": "hot", "universe": 1 << 20,
                 "k": 64, "rounds": 1},
            )
            request = {"op": "size", "session": "hot",
                       "alice": sorted(s), "bob": sorted(t)}
            for index in range(5):
                writer.write(encode_frame(dict(request, id=index)))
            await writer.drain()
            # The three over-bound ops are shed immediately; the two
            # admitted ones complete when the tick fires at shutdown...
            sheds = [await frames.next() for _ in range(3)]
            info = await _ask(frames, writer, {"op": "info"})
            writer.close()
            return sheds, info

        sheds, info = _with_server(config, scenario)
        for reply in sheds:
            assert reply["error"]["type"] == "overloaded"
            assert reply["error"]["scope"] == "session"
        assert info["info"]["shed"] == 3
        assert info["info"]["pending"] == 2

    def test_global_overload_scope(self, rng):
        s, t = make_instance(rng, 1 << 20, 64, 0.5)
        config = ServeConfig(
            tick_s=5.0, max_pending_global=1, max_pending_per_session=100
        )

        async def scenario(server):
            frames, writer = await _client(server)
            for key in ("a", "b"):
                await _ask(
                    frames, writer,
                    {"op": "open", "session": key, "universe": 1 << 20,
                     "k": 64, "rounds": 1},
                )
            request = {"alice": sorted(s), "bob": sorted(t), "op": "size"}
            writer.write(encode_frame(dict(request, session="a", id=0)))
            writer.write(encode_frame(dict(request, session="b", id=1)))
            await writer.drain()
            shed = await frames.next()
            writer.close()
            return shed

        shed = _with_server(config, scenario)
        assert shed["error"]["type"] == "overloaded"
        assert shed["error"]["scope"] == "server"

    def test_admitted_ops_answered_after_eof(self, rng):
        # EOF is not cancellation: ops admitted before the client stops
        # sending still execute, bill, and get replies.
        s, t = make_instance(rng, 1 << 20, 64, 0.5)

        async def scenario(server):
            frames, writer = await _client(server)
            await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 20,
                 "k": 64, "rounds": 1},
            )
            writer.write(
                encode_frame({"op": "size", "id": 9, "session": "a",
                              "alice": sorted(s), "bob": sorted(t)})
            )
            writer.write_eof()
            reply = await frames.next()
            writer.close()
            return reply

        reply = _with_server(ServeConfig(tick_s=0.001), scenario)
        assert reply["ok"] and reply["result"] == len(s & t)


class TestStop:
    """``stop()`` finishes every connection: no handler task outlives it
    for ``asyncio.run`` to cancel (each such cancellation used to print a
    ``CancelledError`` traceback through the loop's exception handler)."""

    @staticmethod
    def _run(scenario):
        """Run ``scenario()`` under a 10 s lid (a hang becomes a
        TimeoutError) as ``asyncio.run`` would; return its result and the
        loop's exception-handler calls, including those of the teardown,
        which cancels whatever is left."""
        seen = []

        async def cancel_the_rest():
            left = asyncio.all_tasks() - {asyncio.current_task()}
            for task in left:
                task.cancel()
            await asyncio.gather(*left, return_exceptions=True)

        loop = asyncio.new_event_loop()
        loop.set_exception_handler(lambda loop, context: seen.append(context))
        try:
            result = loop.run_until_complete(asyncio.wait_for(scenario(), 10))
        finally:
            loop.run_until_complete(cancel_the_rest())
            loop.close()
        return result, seen

    @staticmethod
    def _handlers_left():
        return [
            name
            for name in (t.get_coro().__qualname__ for t in asyncio.all_tasks())
            if name.startswith("IntersectionServer.")
        ]

    def _stop_with_client(self, client_closes_first, requests=(), tick_s=0.002):
        async def scenario():
            server = IntersectionServer(ServeConfig(tick_s=tick_s))
            await server.start()
            frames, writer = await _client(server)
            assert (await _ask(frames, writer, {"op": "ping"}))["pong"]
            for request in requests:
                writer.write(encode_frame(request))
            await writer.drain()
            while server.coalescer.pending < sum("id" in r for r in requests):
                await asyncio.sleep(0)
            if client_closes_first:
                writer.close()
                await writer.wait_closed()
            await server.stop()
            left = self._handlers_left()
            replies = []
            if not client_closes_first:
                while (reply := await frames.next()) is not None:
                    replies.append(reply)
                writer.close()
            return left, replies

        (left, replies), seen = self._run(scenario)
        return left, replies, seen

    @pytest.mark.parametrize("client_closes_first", [True, False])
    def test_no_connection_handler_outlives_stop(self, client_closes_first):
        left, replies, seen = self._stop_with_client(client_closes_first)
        assert left == []
        assert replies == []  # a still-connected client just sees EOF
        assert seen == []

    def test_stop_answers_admitted_operations(self, rng):
        s, t = make_instance(rng, 1 << 20, 16, 0.5)
        requests = (
            {"op": "open", "session": "a", "universe": 1 << 20, "k": 16},
            {"op": "size", "id": 7, "session": "a",
             "alice": sorted(s), "bob": sorted(t)},
        )
        left, replies, seen = self._stop_with_client(
            False, requests, tick_s=0.05
        )
        assert left == [] and seen == []
        assert [reply.get("id") for reply in replies] == [None, 7]
        assert replies[1]["ok"] and replies[1]["result"] == len(s & t)

    def test_burst_written_across_stop_is_answered(self, monkeypatch, rng):
        # The client closes well inside the grace period; a long one keeps
        # a host stall from ending the reading early.
        monkeypatch.setattr(server_module, "STOP_GRACE_S", 10.0)
        s, t = make_instance(rng, 1 << 20, 16, 0.5)

        def burst(first_id):
            return [
                {"op": "size", "id": i, "session": "a",
                 "alice": sorted(s), "bob": sorted(t)}
                if i % 10 == 0 else {"op": "ping", "id": i}
                for i in range(first_id, first_id + 300)
            ]

        def encode(requests):
            return b"".join(encode_frame(request) for request in requests)

        async def scenario():
            server = IntersectionServer(ServeConfig(tick_s=0.001))
            await server.start()
            frames, writer = await _client(server)
            await _ask(frames, writer, {"op": "open", "session": "a",
                                        "universe": 1 << 20, "k": 16})
            writer.write(encode(burst(0)))
            await writer.drain()
            replies = [await frames.next() for _ in range(300)]
            stopping = asyncio.get_running_loop().create_task(server.stop())
            await asyncio.sleep(0)  # stop() has begun: the server is closing
            # Sent after stop() began, so still unread when it did.
            writer.write(encode(burst(300)))
            await writer.drain()
            writer.write_eof()
            # A reset would raise here instead of reading to end-of-stream.
            while (reply := await frames.next()) is not None:
                replies.append(reply)
            await stopping
            writer.close()
            return replies

        replies, seen = self._run(scenario)
        assert seen == []
        assert sorted(reply["id"] for reply in replies) == list(range(600))
        for reply in replies:
            if reply["id"] % 10:
                assert reply["pong"]
            elif reply["id"] < 300:
                assert reply["ok"] and reply["result"] == len(s & t)
            else:
                assert reply["error"]["type"] == "shutting-down"

    def test_client_that_does_not_read_cannot_hold_stop(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(server_module, "STOP_GRACE_S", 0.1)
        path = str(tmp_path / "serve.sock")

        async def scenario():
            server = IntersectionServer(
                ServeConfig(transport="uds", uds_path=path)
            )
            await server.start()
            # A bare socket: nothing reads from it, not even a transport.
            client = socket.socket(socket.AF_UNIX)
            client.setblocking(False)
            loop = asyncio.get_running_loop()
            await loop.sock_connect(client, path)
            # Far more replies than the socket holds.
            await loop.sock_sendall(client, encode_frame({"op": "ping"}) * 20_000)
            (_, server_writer), = server._connections.values()
            # Until the server's write buffer passes its high-water mark,
            # which is when its writer blocks in drain().
            while server_writer.transport.get_write_buffer_size() < 1 << 16:
                await asyncio.sleep(0.01)
            await server.stop()
            left = self._handlers_left()
            client.close()
            return left

        left, seen = self._run(scenario)
        assert left == [] and seen == []


class TestUnixTransport:
    """The UDS listener: same wire protocol and typed-error taxonomy as
    TCP, different socket family underneath."""

    def test_config_validation(self):
        with pytest.raises(ValueError, match="transport"):
            ServeConfig(transport="smoke-signals")
        with pytest.raises(ValueError, match="uds_path"):
            ServeConfig(transport="uds")

    def test_serves_identical_protocol_over_uds(self, rng, tmp_path):
        s, t = make_instance(rng, 1 << 20, 64, 0.5)
        path = str(tmp_path / "serve.sock")
        config = ServeConfig(transport="uds", uds_path=path, tick_s=0.001)

        async def scenario(server):
            assert server.endpoint == ("uds", path)
            with pytest.raises(RuntimeError, match="no TCP address"):
                server.address
            reader, writer = await asyncio.open_unix_connection(path)
            frames = FrameReader(reader)
            assert (await _ask(frames, writer, {"op": "ping"}))["pong"]
            await _ask(
                frames, writer,
                {"op": "open", "session": "a", "universe": 1 << 20,
                 "k": 64, "rounds": 1},
            )
            reply = await _ask(
                frames, writer,
                {"op": "size", "id": 1, "session": "a",
                 "alice": sorted(s), "bob": sorted(t)},
            )
            # Typed errors ride UDS unchanged.
            missing = await _ask(
                frames, writer,
                {"op": "size", "id": 2, "session": "ghost",
                 "alice": [1], "bob": [2]},
            )
            writer.close()
            return reply, missing

        reply, missing = _with_server(config, scenario)
        assert reply["ok"] and reply["result"] == len(s & t)
        assert missing["error"]["type"] == "unknown-session"

    def test_socket_file_replaced_on_start_and_removed_on_stop(self, tmp_path):
        path = tmp_path / "serve.sock"
        path.write_bytes(b"")  # stale file from a dead server
        config = ServeConfig(transport="uds", uds_path=str(path))

        async def scenario(server):
            assert path.is_socket()
            return True

        assert _with_server(config, scenario)
        assert not path.exists()

    def test_tcp_endpoint_shape_unchanged(self):
        async def scenario(server):
            kind, (host, port) = server.endpoint
            assert kind == "tcp" and (host, port) == server.address

        _with_server(ServeConfig(), scenario)
