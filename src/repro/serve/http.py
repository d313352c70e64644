"""A stdlib JSON endpoint over :class:`~.service.InfluenceService`.

This is deliberately tiny — ``http.server.ThreadingHTTPServer`` plus
:mod:`json` — so ``repro serve`` works anywhere the library does, with no
framework dependency.  It exists for shell experimentation and load
testing, not production fronting; embed :class:`InfluenceService` directly
for anything serious.

Routes (all bodies JSON):

* ``POST /estimate``        — ``{"seeds": [0, 3], "n_samples": 5000?}``
* ``POST /estimate_many``   — ``{"seed_sets": [[0], [1, 2]], "n_samples": ...?}``
* ``POST /maximize``        — ``{"k": 10, "n_samples": ...?}``
* ``POST /insert_edge``     — ``{"u": 0, "v": 8, "p": 0.3}`` (live graphs)
* ``POST /delete_edge``     — ``{"u": 0, "v": 8}`` (live graphs)
* ``POST /apply_deltas``    — ``{"deltas": [{"op": "insert", ...}, ...]}``
* ``GET  /healthz``         — liveness
* ``GET  /stats``           — :meth:`InfluenceService.stats`

When the server fronts a live graph (a :class:`~.dynamic.DynamicModel`),
every query reply carries the ``"epoch"`` it was answered at, and the
mutation routes return ``{"epoch", "token", "applied", "fast", "rebuilt",
"model_retained"}``.  On a static server the mutation routes are ``400``;
with ``readonly=True`` they are ``403`` (the graph is live but this
endpoint may not write it).

Error mapping: admission-control overflow
(:class:`~repro.errors.BudgetExceededError`) is ``429``; any other
:class:`~repro.errors.ReproError` (bad seeds, bad k, malformed deltas) is
``400``; malformed JSON is ``400``.  Integer fields (``seeds``,
``seed_sets``, ``k``, ``n_samples``, ``u``, ``v``) must be JSON integers:
``2.5``, ``true`` or ``"3"`` is a ``400``, never coerced; an edge
probability ``p`` must be a finite JSON number (``true``, ``"0.5"`` and
``NaN`` are ``400``s).  ``n_samples`` above
:data:`~.service.MAX_N_SAMPLES` is a ``400`` naming the limit.  Degraded queries
still return ``200`` with ``"degraded": true`` and the achieved-accuracy
report inline.

Every response leaves in one socket write on a ``TCP_NODELAY`` socket, so
keep-alive clients pay no Nagle/delayed-ACK stall between requests.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..core.dynamic import Delta
from ..errors import (
    BudgetExceededError,
    ReproError,
    WireFormatError,
    json_int,
    json_number,
)
from ..graph.influence_graph import InfluenceGraph
from ..obs import inc, timed
from .dynamic import DynamicModel
from .service import InfluenceService, QueryResult

__all__ = ["ServeHandler", "make_server", "serve_forever"]

_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Size of the handler's buffered ``wfile``.  A response up to this size
#: (status line, headers and body) leaves in one socket write when the
#: request is done; a larger one is split, which TCP_NODELAY keeps cheap.
_WRITE_BUFFER_BYTES = 64 * 1024


def _int_list(value: object, field: str) -> "list[int]":
    """A JSON array of integers (a seed set), checked element by element."""
    if not isinstance(value, list):
        raise WireFormatError(f"{field} must be a JSON array of integers")
    return [json_int(item, f"{field}[{i}]") for i, item in enumerate(value)]


def _n_samples(body: dict) -> "int | None":
    value = body.get("n_samples")
    return None if value is None else json_int(value, "n_samples")


def _query_json(result: QueryResult) -> dict:
    body = {
        "value": result.value,
        "n_samples": result.n_samples,
        "requested_samples": result.requested_samples,
        "degraded": result.degraded,
        "seconds": result.seconds,
        # Which estimator family answered (absent only for results
        # predating the registry, e.g. hand-built QueryResults in tests).
        "estimator": result.extras.get("estimator", "ris"),
    }
    if result.report is not None:
        body["report"] = {
            "reliability_product": result.report.reliability_product,
            "estimation_eps": result.report.estimation_eps,
            "estimation_upper_rel_error":
                result.report.estimation_upper_rel_error,
            "maximization_effective_alpha":
                result.report.maximization_effective_alpha,
        }
    return body


class ServeHandler(BaseHTTPRequestHandler):
    """Request handler bound to one service + graph via :func:`make_server`."""

    # Set by make_server on the handler subclass.
    service: InfluenceService
    graph: InfluenceGraph
    dynamic: "DynamicModel | None" = None
    readonly: bool = False

    protocol_version = "HTTP/1.1"

    # One socket write per response: sent as two small segments (headers,
    # then body), Nagle holds the second until the client's delayed ACK,
    # ~40 ms on every keep-alive request after a connection's first.  The
    # buffered wfile is flushed once by ``handle_one_request`` (by
    # ``finish`` for the stdlib's own ``send_error`` replies).
    disable_nagle_algorithm = True
    wbufsize = _WRITE_BUFFER_BYTES

    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request stderr chatter; obs counters cover it."""

    # -- plumbing ------------------------------------------------------

    def handle_expect_100(self) -> bool:
        # The interim 100 must reach the client before it sends the body,
        # so it cannot wait in the buffer for the final response.
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    def _reply(self, status: int, body: dict) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        inc("serve.http.responses")

    def _read_body(self) -> dict:
        # Content-Length is attacker-controlled text: parse it under the
        # bad-request path (400), never the unhandled one (500).  When the
        # header is unusable the body was never consumed, so this
        # keep-alive connection is desynced — it must close rather than
        # parse body bytes as the next request line.
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError as exc:
            self.close_connection = True
            raise ReproError(
                f"malformed Content-Length header: {exc}"
            ) from exc
        if not 0 < length <= _MAX_BODY_BYTES:
            self.close_connection = True
            raise ReproError("request body must be non-empty JSON")
        try:
            body = json.loads(self.rfile.read(length))
        except ValueError as exc:
            raise ReproError(f"malformed JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise ReproError("request body must be a JSON object")
        return body

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server's casing
        with timed("serve.http.handle_seconds"):
            self._get()

    def do_POST(self) -> None:  # noqa: N802 - http.server's casing
        with timed("serve.http.handle_seconds"):
            self._post()

    def _get(self) -> None:
        if self.path == "/healthz":
            self._reply(200, {"status": "ok"})
        elif self.path == "/stats":
            self._reply(200, self.service.stats())
        else:
            self._reply(404, {"error": f"no route {self.path}"})

    def _resolve(self) -> "tuple[int | None, InfluenceGraph]":
        """The graph to answer on — the live epoch's, or the static one."""
        if self.dynamic is not None:
            epoch, graph, _, _ = self.dynamic.resolve()
            return epoch, graph
        return None, self.graph

    def _stamp(self, body: dict, epoch: "int | None") -> dict:
        if epoch is not None:
            body["epoch"] = epoch
        return body

    def _mutation_deltas(self, body: dict) -> "list[Delta]":
        if self.path == "/insert_edge":
            return [Delta("insert", json_int(body["u"], "u"),
                          json_int(body["v"], "v"),
                          json_number(body["p"], "p"))]
        if self.path == "/delete_edge":
            return [Delta("delete", json_int(body["u"], "u"),
                          json_int(body["v"], "v"))]
        raw = body["deltas"]
        if not isinstance(raw, list):
            raise ReproError("'deltas' must be a JSON array")
        return [Delta.from_json(d) for d in raw]

    def _post(self) -> None:
        try:
            body = self._read_body()
            if self.path == "/estimate":
                epoch, graph = self._resolve()
                result = self.service.estimate(
                    graph, _int_list(body["seeds"], "seeds"),
                    n_samples=_n_samples(body),
                )
                self._reply(200, self._stamp(_query_json(result), epoch))
            elif self.path == "/estimate_many":
                epoch, graph = self._resolve()
                seed_sets = body["seed_sets"]
                if not isinstance(seed_sets, list):
                    raise WireFormatError(
                        "seed_sets must be a JSON array of seed arrays")
                results = self.service.estimate_many(
                    graph, [_int_list(seeds, f"seed_sets[{i}]")
                            for i, seeds in enumerate(seed_sets)],
                    n_samples=_n_samples(body),
                )
                self._reply(200, self._stamp(
                    {"results": [_query_json(r) for r in results]}, epoch))
            elif self.path == "/maximize":
                epoch, graph = self._resolve()
                result = self.service.maximize(
                    graph, json_int(body["k"], "k"),
                    n_samples=_n_samples(body),
                )
                self._reply(200, self._stamp({
                    "seeds": [int(v) for v in result.seeds],
                    "estimated_influence": result.estimated_influence,
                    "extras": {
                        key: value
                        for key, value in (result.extras or {}).items()
                        if isinstance(value, (int, float, str, bool))
                    },
                }, epoch))
            elif self.path in ("/insert_edge", "/delete_edge",
                               "/apply_deltas"):
                if self.dynamic is None:
                    self._reply(400, {
                        "error": "this server fronts a static graph; start "
                                 "with sampler='addressable' to serve a "
                                 "live one",
                    })
                elif self.readonly:
                    inc("serve.http.readonly_rejected")
                    self._reply(403, {"error": "server is read-only"})
                else:
                    deltas = self._mutation_deltas(body)
                    self._reply(200, self.dynamic.apply_deltas(deltas))
            else:
                self._reply(404, {"error": f"no route {self.path}"})
        except KeyError as exc:
            self._reply(400, {"error": f"missing field {exc}"})
        except (TypeError, ValueError) as exc:
            self._reply(400, {"error": f"malformed field: {exc}"})
        except BudgetExceededError as exc:
            inc("serve.http.rejected")
            self._reply(429, {"error": str(exc)})
        except ReproError as exc:
            self._reply(400, {"error": str(exc)})


def make_server(service: InfluenceService, graph: InfluenceGraph,
                host: str = "127.0.0.1",
                port: int = 0,
                dynamic: "DynamicModel | None" = None,
                readonly: bool = False) -> ThreadingHTTPServer:
    """Build (but don't start) the HTTP server.

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address[1]`` — the CLI prints it so scripts (and the CI
    smoke test) can connect without racing.

    Pass ``dynamic`` (from :meth:`InfluenceService.attach_dynamic`) to
    front a live graph: queries then answer on the current delta-epoch and
    the mutation routes are enabled (unless ``readonly``).
    """
    handler = type("BoundServeHandler", (ServeHandler,),
                   {"service": service, "graph": graph,
                    "dynamic": dynamic, "readonly": readonly})
    return ThreadingHTTPServer((host, port), handler)


def serve_forever(server: ThreadingHTTPServer,
                  service: InfluenceService) -> None:
    """Run until interrupted, then shut both layers down cleanly."""
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass  # Ctrl-C is the documented shutdown path
    finally:
        server.server_close()
        service.close()
