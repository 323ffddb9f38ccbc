"""TCP and asyncio front ends over the serving core."""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.errors import ServerOverloadedError, XPathSyntaxError
from repro.mass.loader import load_xml
from repro.serving.frontend import (
    AsyncFrontend,
    TcpFrontend,
    error_to_wire,
    outcome_to_wire,
    parse_request_line,
)
from repro.serving.server import QueryServer

DOC = """<site>
<person><name>Ada</name></person>
<person><name>Bob</name></person>
</site>"""


@pytest.fixture
def server():
    with QueryServer(load_xml(DOC, name="frontend"), workers=2) as instance:
        yield instance


class TestWireFormat:
    def test_parse_bare_expression(self):
        assert parse_request_line("  //person \n") == {"xpath": "//person"}

    def test_parse_json_request(self):
        body = parse_request_line('{"xpath": "//person", "timeout_ms": 50}')
        assert body == {"xpath": "//person", "timeout_ms": 50}

    def test_parse_json_without_xpath_rejected(self):
        with pytest.raises(ValueError):
            parse_request_line('{"query": "//person"}')

    def test_ok_outcome_wire_shape(self, server):
        response = outcome_to_wire(server.evaluate("//person/name"))
        assert response["ok"] and response["count"] == 2
        assert response["labels"] and not response["truncated_labels"]
        assert response["epoch"] == server.manager.current_epoch

    def test_wire_labels_fetch_at_most_max_labels_records(self):
        """Echoing 32 labels of a big result must not materialise it."""
        from repro.serving.frontend import MAX_LABELS

        rows = "".join(f"<row><cell>c{index}</cell></row>" for index in range(600))
        store = load_xml(f"<table>{rows}</table>", name="wide")
        with QueryServer(store, workers=1) as wide:
            outcome = wide.evaluate("//node()//text()")
            assert len(outcome.result) >= 600
            snapshot = outcome.result.store
            before = snapshot.metrics.totals()["record_fetches"]
            response = outcome_to_wire(outcome)
            fetched = snapshot.metrics.totals()["record_fetches"] - before
        assert response["count"] == len(outcome.result)
        assert len(response["labels"]) == MAX_LABELS
        assert response["truncated_labels"] is True
        assert fetched <= MAX_LABELS

    def test_error_outcome_carries_type_and_message(self, server):
        response = outcome_to_wire(server.evaluate("///"))
        assert not response["ok"]
        assert response["error"] == "XPathSyntaxError"
        assert response["message"]

    def test_overload_error_carries_retry_hint(self):
        wire = error_to_wire(ServerOverloadedError("queue full", retry_after_s=0.5))
        assert wire["error"] == "ServerOverloadedError"
        assert wire["retry_after_s"] == 0.5


class TestTcp:
    def test_line_protocol_roundtrip(self, server):
        with TcpFrontend(server, port=0) as frontend:
            host, port = frontend.address
            with socket.create_connection((host, port), timeout=10) as sock:
                stream = sock.makefile("rw", encoding="utf-8")
                stream.write("//person/name\n")
                stream.flush()
                response = json.loads(stream.readline())
                assert response["ok"] and response["count"] == 2
                stream.write(
                    json.dumps({"xpath": "//person", "max_results": 1}) + "\n"
                )
                stream.flush()
                response = json.loads(stream.readline())
                assert not response["ok"]
                assert response["error"] == "BudgetExceededError"
                assert response["partial"]

    def test_stats_and_bad_request(self, server):
        with TcpFrontend(server, port=0) as frontend:
            host, port = frontend.address
            with socket.create_connection((host, port), timeout=10) as sock:
                stream = sock.makefile("rw", encoding="utf-8")
                stream.write("!stats\n")
                stream.flush()
                stats = json.loads(stream.readline())
                assert stats["snapshots"]["epoch"] == server.manager.current_epoch
                stream.write('{"no": "xpath"}\n')
                stream.flush()
                response = json.loads(stream.readline())
                assert response["error"] == "BadRequest"

    def test_multiple_connections_share_one_pool(self, server):
        with TcpFrontend(server, port=0) as frontend:
            host, port = frontend.address
            responses = []
            for _ in range(4):
                with socket.create_connection((host, port), timeout=10) as sock:
                    stream = sock.makefile("rw", encoding="utf-8")
                    stream.write("//person\n")
                    stream.flush()
                    responses.append(json.loads(stream.readline()))
            assert all(response["ok"] for response in responses)
        assert server.stats()["requests"]["completed"] >= 4


class TestAsync:
    def test_await_evaluate(self, server):
        async def main():
            frontend = AsyncFrontend(server)
            outcome = await frontend.evaluate("//person/name")
            return outcome

        outcome = asyncio.run(main())
        assert outcome.ok and len(outcome.result) == 2

    def test_gather_mixes_outcomes_and_typed_rejections(self, server):
        async def main():
            frontend = AsyncFrontend(server)
            return await frontend.gather(
                ["//person", "//person/name", "///"]
            )

        results = asyncio.run(main())
        assert len(results) == 3
        assert results[0].ok and results[1].ok
        assert results[2].error_type == "XPathSyntaxError"

    def test_on_error_raise_surfaces_inside_coroutine(self, server):
        async def main():
            frontend = AsyncFrontend(server)
            await frontend.evaluate("///", on_error="raise")

        with pytest.raises(XPathSyntaxError):
            asyncio.run(main())
