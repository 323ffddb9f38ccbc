"""Network front ends over :class:`~repro.serving.server.QueryServer`.

Two adapters share the thread-pool core:

* :class:`TcpFrontend` — a line-oriented TCP protocol (one request per
  line, one JSON response per line) served by a threading socket server.
  Requests are either a bare XPath expression or a JSON object
  ``{"xpath": ..., "timeout_ms": ..., "max_pages": ..., "max_results":
  ...}``; the special line ``!stats`` returns the server's counters.
  Responses carry ``ok``, ``epoch``, ``count``, a bounded ``labels``
  sample, and on failure the typed ``error`` name plus ``retry_after_s``
  for overload rejections — enough for a client to implement jittered
  backoff without parsing prose.
* :class:`AsyncFrontend` — an asyncio adapter: ``await evaluate(...)``
  bridges the worker pool's ``concurrent.futures.Future`` onto the event
  loop with ``asyncio.wrap_future``, so an async application multiplexes
  thousands of in-flight XPath queries over the same bounded worker pool
  (admission control still applies — overload surfaces as the same typed
  exception, thrown inside the coroutine).
"""

from __future__ import annotations

import asyncio
import json
import socketserver
import threading

from repro.errors import ReproError, ServerOverloadedError
from repro.serving.server import QueryOutcome, QueryServer

#: Cap the labels echoed per response; full results stay server-side.
MAX_LABELS = 32


def outcome_to_wire(outcome: QueryOutcome, max_labels: int = MAX_LABELS) -> dict:
    """Flatten a :class:`QueryOutcome` into a JSON-serializable response."""
    response: dict = {
        "ok": outcome.ok,
        "epoch": outcome.epoch,
        "degraded": outcome.degraded,
        "partial": outcome.partial,
        "queued_ms": round(outcome.queued_s * 1000.0, 3),
        "service_ms": round(outcome.service_s * 1000.0, 3),
    }
    if outcome.ok and outcome.result is not None:
        # Head only: echoing 32 labels must not materialise the result.
        labels = outcome.result.labels(max_labels)
        response["count"] = len(outcome.result)
        response["labels"] = labels
        # (A sharded count() outcome has one label whatever its length.)
        response["truncated_labels"] = (
            len(labels) >= max_labels and len(outcome.result) > max_labels
        )
    else:
        response["count"] = 0
        response["error"] = outcome.error_type
        response["message"] = str(outcome.error) if outcome.error else None
        if isinstance(outcome.error, ServerOverloadedError):
            response["retry_after_s"] = outcome.error.retry_after_s
    return response


def error_to_wire(error: ReproError) -> dict:
    response: dict = {
        "ok": False,
        "count": 0,
        "error": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, ServerOverloadedError):
        response["retry_after_s"] = error.retry_after_s
    return response


def parse_request_line(line: str) -> dict:
    """A request line: bare XPath, or a JSON object with an ``xpath`` key."""
    text = line.strip()
    if text.startswith("{"):
        body = json.loads(text)
        if not isinstance(body, dict) or "xpath" not in body:
            raise ValueError("JSON request must be an object with an 'xpath' key")
        return body
    return {"xpath": text}


class _QueryHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: QueryServer = self.server.query_server  # type: ignore[attr-defined]
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            if line == "!stats":
                self._reply(server.stats())
                continue
            if line == "!quit":
                break
            try:
                body = parse_request_line(line)
                outcome = server.evaluate(
                    body["xpath"],
                    timeout_ms=body.get("timeout_ms"),
                    max_pages=body.get("max_pages"),
                    max_results=body.get("max_results"),
                    on_error="capture",
                )
                self._reply(outcome_to_wire(outcome))
            except ReproError as error:
                # Synchronous rejections: overload at submit, server closed.
                self._reply(error_to_wire(error))
            except (ValueError, json.JSONDecodeError) as error:
                self._reply({"ok": False, "count": 0, "error": "BadRequest",
                             "message": str(error)})

    def _reply(self, payload: dict) -> None:
        self.wfile.write((json.dumps(payload) + "\n").encode("utf-8"))
        self.wfile.flush()


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class TcpFrontend:
    """Line-protocol TCP listener delegating to a :class:`QueryServer`."""

    def __init__(self, server: QueryServer, host: str = "127.0.0.1", port: int = 0):
        self.query_server = server
        self._tcp = _ThreadingTCPServer((host, port), _QueryHandler)
        self._tcp.query_server = server  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port 0 resolves to the kernel's pick."""
        return self._tcp.server_address[:2]

    def start(self) -> "TcpFrontend":
        """Serve in a background thread; returns immediately."""
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, name="repro-serve-tcp", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop`."""
        self._tcp.serve_forever()

    def stop(self) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "TcpFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class AsyncFrontend:
    """asyncio adapter: await query outcomes from the thread-pool core."""

    def __init__(self, server: QueryServer):
        self.server = server

    async def evaluate(self, expression: str, **options) -> QueryOutcome:
        """Submit on the event-loop thread, await completion off-loop.

        Submission itself is non-blocking (admission either enqueues or
        raises immediately), so calling it inline keeps the typed
        overload rejection synchronous with the coroutine that caused it.
        """
        future = self.server.submit(expression, **options)
        return await asyncio.wrap_future(future)

    async def gather(self, expressions, **options) -> list[QueryOutcome | ReproError]:
        """Evaluate many expressions concurrently; rejections become values.

        Overload rejections are expected under pressure — returning them
        as values (instead of cancelling the whole gather) lets callers
        count sheds and retry selectively.
        """
        async def one(expression: str):
            try:
                return await self.evaluate(expression, **options)
            except ReproError as error:
                return error

        return list(await asyncio.gather(*(one(e) for e in expressions)))
