"""Live scrape endpoints: the telemetry exporter HTTP server.

The rest of the telemetry layer is post-mortem — snapshots printed after a
run, Chrome traces written at exit.  The :class:`TelemetryExporter` makes the
same state observable *while the run is happening*: a
``http.server.ThreadingHTTPServer`` on a background daemon thread serving

===========  ==========================================================
``/metrics``  the live registry in Prometheus text exposition format
``/healthz``  liveness + telemetry status as JSON
``/budget``   per-tenant ledger spend/remaining (ε, δ) as JSON
``/spans``    the current span ring as a downloadable Chrome-trace file
===========  ==========================================================

Every handler reads the module-level telemetry state through the public
facade, so an exporter started before ``telemetry.configure()`` (or after
``disable()``) still answers — ``/metrics`` is simply empty-but-valid.
Responses are rendered from one consistent registry snapshot per request
(the registry serialises snapshots internally), so concurrent scrapes
mid-run never observe torn metrics.

The server binds eagerly in :meth:`TelemetryExporter.start` — a busy port
raises ``OSError`` there, not on a background thread — and
:meth:`TelemetryExporter.stop` shuts down, joins the serving thread, and
closes the socket, leaving nothing running (asserted by the test suite).
Port ``0`` picks a free ephemeral port; read it back from
:attr:`TelemetryExporter.port`.

Standard library only, like everything in ``repro.telemetry``.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import telemetry

__all__ = ["TelemetryExporter", "prometheus_exposition"]

#: Content type mandated by the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _sanitize_name(name: str) -> str:
    """Map a dotted metric name onto the Prometheus grammar.

    Prometheus metric names match ``[a-zA-Z_:][a-zA-Z0-9_:]*``; the
    registry's dotted names (``pmw.rounds``) become underscored
    (``pmw_rounds``), other illegal characters collapse to ``_`` too.
    """
    cleaned = "".join(
        ch if ch.isascii() and (ch.isalnum() or ch in "_:") else "_" for ch in name
    )
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: list) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{_sanitize_name(str(key))}="{_escape_label_value(str(value))}"'
        for key, value in labels
    )
    return "{" + rendered + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def prometheus_exposition(snapshot: dict) -> str:
    """Render a ``MetricsRegistry.snapshot()`` as Prometheus text exposition.

    Counters export under their (sanitised) name as ``counter``; gauges as
    ``gauge``.  One ``# TYPE`` line per metric name, label sets grouped
    beneath it, trailing newline included — the format's parsing rules.
    """
    families: dict[str, tuple[str, list[str]]] = {}

    def _add(name: str, prom_type: str, labels: list, value: float) -> None:
        prom_name = _sanitize_name(name)
        family = families.setdefault(prom_name, (prom_type, []))
        family[1].append(f"{prom_name}{_render_labels(labels)} {_format_value(value)}")

    for entry in snapshot.get("counters", ()):
        _add(entry["name"], "counter", entry.get("labels", []), entry["value"])
    for entry in snapshot.get("gauges", ()):
        _add(entry["name"], "gauge", entry.get("labels", []), entry["value"])

    lines: list[str] = []
    for prom_name in sorted(families):
        prom_type, samples = families[prom_name]
        lines.append(f"# TYPE {prom_name} {prom_type}")
        lines.extend(samples)
    return "\n".join(lines) + "\n" if lines else "# no metrics recorded\n"


class _Handler(BaseHTTPRequestHandler):
    """One scrape request.  The exporter instance rides on the server."""

    server_version = "repro-telemetry-exporter"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib API
        pass  # scrapes happen inside timed runs; never write to stderr

    @property
    def exporter(self) -> "TelemetryExporter":
        return self.server.exporter  # type: ignore[attr-defined]

    def _respond(self, status: int, body: bytes, content_type: str, **headers) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in headers.items():
            self.send_header(key.replace("_", "-"), value)
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(self, payload: dict, status: int = 200, **headers) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        self._respond(status, body, "application/json", **headers)

    def do_GET(self) -> None:  # noqa: N802 - stdlib API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                exposition = prometheus_exposition(telemetry.registry().snapshot())
                self._respond(200, exposition.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
            elif path == "/healthz":
                self._respond_json(self.exporter.health())
            elif path == "/budget":
                self._respond_json(self.exporter.budget_snapshot())
            elif path == "/spans":
                body = json.dumps(telemetry.chrome_trace()).encode("utf-8")
                self._respond(
                    200,
                    body,
                    "application/json",
                    Content_Disposition='attachment; filename="trace.json"',
                )
            else:
                self._respond_json(
                    {
                        "error": "not found",
                        "endpoints": ["/metrics", "/healthz", "/budget", "/spans"],
                    },
                    status=404,
                )
        except BrokenPipeError:
            pass  # scraper hung up mid-response; nothing to salvage


class TelemetryExporter:
    """Serve live telemetry over HTTP from a background daemon thread.

    ::

        exporter = TelemetryExporter(port=0).start()   # 0 = free ephemeral port
        ...
        print(exporter.url("/metrics"))
        exporter.stop()                                 # joins; nothing lingers

    ``register_ledger`` publishes a :class:`~repro.mechanisms.ledger.PrivacyLedger`
    (optionally with its declared budget) on ``/budget`` under a tenant name.
    Also usable as a context manager (``with TelemetryExporter() as exporter:``).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.requested_port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._ledgers: dict[str, tuple[object, object | None]] = {}

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "TelemetryExporter":
        """Bind and serve.  Raises ``OSError`` here when the port is busy."""
        if self._server is not None:
            raise RuntimeError("exporter is already running")
        server = ThreadingHTTPServer((self.host, self.requested_port), _Handler)
        server.daemon_threads = True
        server.exporter = self  # type: ignore[attr-defined]
        self._server = server
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=server.serve_forever,
            name=f"telemetry-exporter:{server.server_address[1]}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Shut down, join the serving thread, close the socket.  Idempotent."""
        server, thread = self._server, self._thread
        self._server = self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=timeout)

    def __enter__(self) -> "TelemetryExporter":
        if self._server is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral pick)."""
        if self._server is None:
            raise RuntimeError("exporter is not running")
        return self._server.server_address[1]

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    # -- published state --------------------------------------------------
    def register_ledger(self, tenant: str, ledger, budget=None) -> None:
        """Publish ``ledger`` (and optionally its declared budget) on ``/budget``."""
        self._ledgers[str(tenant)] = (ledger, budget)

    def health(self) -> dict:
        """The ``/healthz`` payload."""
        return {
            "status": "ok",
            "telemetry_enabled": telemetry.is_enabled(),
            "uptime_seconds": (
                time.time() - self._started_at if self._started_at else 0.0
            ),
            "tenants": sorted(self._ledgers),
        }

    def budget_snapshot(self) -> dict:
        """The ``/budget`` payload: per-tenant spent/remaining (ε, δ)."""
        tenants: dict[str, dict] = {}
        for tenant, (ledger, budget) in sorted(self._ledgers.items()):
            spent = ledger.spent()
            entry: dict = {
                "charges": len(ledger),
                "spent": (
                    {"epsilon": spent.epsilon, "delta": spent.delta}
                    if spent is not None
                    else {"epsilon": 0.0, "delta": 0.0}
                ),
            }
            if budget is not None:
                remaining = ledger.remaining(budget)
                entry["budget"] = {"epsilon": budget.epsilon, "delta": budget.delta}
                entry["remaining"] = {
                    "epsilon": remaining.epsilon,
                    "delta": remaining.delta,
                }
                entry["exhausted"] = remaining.exhausted
            tenants[tenant] = entry
        return {"tenants": tenants}
