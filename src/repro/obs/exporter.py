"""Prometheus text-format exposition and a stdlib telemetry server.

:func:`render_prometheus` turns a :class:`~repro.obs.metrics.MetricsRegistry`
into Prometheus text exposition format 0.0.4:

* counters → ``repro_<name>_total`` (``# TYPE … counter``),
* gauges → ``repro_<name>`` (``# TYPE … gauge``),
* timers → ``repro_<name>_seconds`` summaries (``_count`` / ``_sum``),
* histograms → classic cumulative ``_bucket{le="…"}`` series plus
  ``_sum`` / ``_count``; empty leading/trailing buckets are elided (any
  subset of ``le`` edges is valid exposition as long as ``+Inf`` is
  present and the series is cumulative).

:func:`parse_prometheus_text` is the matching checker: a small, strict
parser used by the tests and the CI smoke job to assert the exposition is
well-formed (line grammar, TYPE declarations, histogram invariants).

:class:`TelemetryServer` serves ``/metrics`` and ``/healthz`` from a
``http.server.ThreadingHTTPServer`` on a daemon thread — no third-party
dependency, safe to embed beside a :class:`~repro.api.Session` sharing its
registry or run via ``repro serve-metrics``.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import monotonic
from typing import Dict, List, Optional, Tuple

from .metrics import MetricsRegistry, split_series_key

#: Prometheus metric-name grammar (exposition format 0.0.4).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')

_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def sanitize_metric_name(name: str, prefix: str = "repro") -> str:
    """A dotted registry name as a legal, prefixed Prometheus name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if prefix:
        cleaned = f"{prefix}_{cleaned}"
    if not _NAME_RE.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry's current contents in Prometheus text format."""
    lines: List[str] = []

    def family(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    with registry._lock:
        counters = dict(registry._counters)
        gauges = dict(registry._gauges)
        timers = {
            name: (stats.count, stats.total)
            for name, stats in registry._timers.items()
        }
        histograms = dict(registry._histograms)

    for name in sorted(counters):
        metric = sanitize_metric_name(name) + "_total"
        family(metric, "counter", f"repro counter {name}")
        lines.append(f"{metric} {_fmt(counters[name])}")

    # Gauges may be labeled series (stored as ``name{k="v",…}`` keys);
    # group them under their family so each gets one HELP/TYPE header.
    gauge_families: Dict[str, List[Tuple[str, float]]] = {}
    for key in sorted(gauges):
        base, label_text = split_series_key(key)
        gauge_families.setdefault(base, []).append((label_text, gauges[key]))
    for base in sorted(gauge_families):
        metric = sanitize_metric_name(base)
        family(metric, "gauge", f"repro gauge {base}")
        for label_text, value in gauge_families[base]:
            suffix = "{" + label_text + "}" if label_text else ""
            lines.append(f"{metric}{suffix} {_fmt(value)}")

    for name in sorted(timers):
        metric = sanitize_metric_name(name) + "_seconds"
        count, total = timers[name]
        family(metric, "summary", f"repro timer {name}")
        lines.append(f"{metric}_count {count}")
        lines.append(f"{metric}_sum {_fmt(total)}")

    # Group labeled series (stored as ``name{k="v",…}`` keys) under their
    # family so each family gets exactly one HELP/TYPE header.
    families: Dict[str, List[Tuple[str, object]]] = {}
    for key in sorted(histograms):
        base, label_text = split_series_key(key)
        families.setdefault(base, []).append((label_text, histograms[key]))

    for base in sorted(families):
        metric = sanitize_metric_name(base)
        family(metric, "histogram", f"repro histogram {base}")
        for label_text, histogram in families[base]:
            def labelled(extra: str = "", _labels: str = label_text) -> str:
                pairs = ",".join(p for p in (_labels, extra) if p)
                return "{" + pairs + "}" if pairs else ""

            def le(bound_text: str) -> str:
                return 'le="' + bound_text + '"'

            buckets = histogram.bucket_counts()
            cumulative = 0
            emitted_any = False
            pending_zero: Optional[float] = None
            for bound, count in buckets[:-1]:
                cumulative += count
                if count == 0:
                    # Elide flat runs: remember the last edge so the first
                    # non-empty bucket is preceded by one zero/flat sample.
                    pending_zero = bound
                    if not emitted_any:
                        continue
                    continue
                if pending_zero is not None and not emitted_any:
                    lines.append(
                        f"{metric}_bucket{labelled(le(_fmt(pending_zero)))} "
                        f"{cumulative - count}"
                    )
                pending_zero = None
                lines.append(
                    f"{metric}_bucket{labelled(le(_fmt(bound)))} {cumulative}"
                )
                emitted_any = True
            lines.append(
                f"{metric}_bucket{labelled(le('+Inf'))} {histogram.count}"
            )
            lines.append(f"{metric}_sum{labelled()} {_fmt(histogram.total)}")
            lines.append(f"{metric}_count{labelled()} {histogram.count}")

    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Text-format checker
# ---------------------------------------------------------------------------


def parse_prometheus_text(
    text: str,
) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse (and validate) Prometheus text exposition.

    Returns ``{metric name: [(labels, value), …]}``. Raises ``ValueError``
    with the offending line on any grammar violation, unknown TYPE,
    samples not matching their declared family, or a histogram whose
    cumulative buckets decrease / lack ``+Inf`` / disagree with ``_count``.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    types: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                name, kind = parts[2], parts[3] if len(parts) > 3 else ""
                if not _NAME_RE.match(name):
                    raise ValueError(f"line {lineno}: bad TYPE name {name!r}")
                if kind not in _VALID_TYPES:
                    raise ValueError(f"line {lineno}: bad TYPE kind {kind!r}")
                types[name] = kind
            elif len(parts) >= 2 and parts[1] == "HELP":
                if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                    raise ValueError(f"line {lineno}: bad HELP line {line!r}")
            # other comments are allowed and ignored
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparsable sample {line!r}")
        labels: Dict[str, str] = {}
        if match.group("labels"):
            for pair in match.group("labels").rstrip(",").split(","):
                label_match = _LABEL_RE.match(pair.strip())
                if label_match is None:
                    raise ValueError(
                        f"line {lineno}: bad label pair {pair!r}"
                    )
                labels[label_match.group(1)] = label_match.group(2)
        value_text = match.group("value")
        try:
            value = float(value_text.replace("+Inf", "inf").replace(
                "-Inf", "-inf"
            ))
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value {value_text!r}"
            ) from None
        samples.setdefault(match.group("name"), []).append((labels, value))

    _check_histograms(samples, types)
    return samples


def _check_histograms(samples, types) -> None:
    for name, kind in types.items():
        if kind != "histogram":
            continue
        buckets = samples.get(f"{name}_bucket", [])
        if not buckets:
            raise ValueError(f"histogram {name} has no _bucket samples")
        # One histogram family may carry several label sets (e.g. the
        # executor's per-outcome task latencies); the cumulative-bucket
        # invariants hold per series, keyed by the labels minus ``le``.
        series: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]]
        series = {}
        for labels, value in buckets:
            if "le" not in labels:
                raise ValueError(f"histogram {name} bucket missing le label")
            edge = float(labels["le"].replace("+Inf", "inf"))
            rest = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            series.setdefault(rest, []).append((edge, value))
        counts = {
            tuple(sorted(labels.items())): value
            for labels, value in samples.get(f"{name}_count", [])
        }
        sums = {
            tuple(sorted(labels.items()))
            for labels, _ in samples.get(f"{name}_sum", [])
        }
        for rest, edges in series.items():
            tag = f"histogram {name}" + (f" {dict(rest)}" if rest else "")
            if edges != sorted(edges, key=lambda pair: pair[0]):
                raise ValueError(f"{tag} buckets out of order")
            cumulative = [value for _, value in edges]
            if any(b < a for a, b in zip(cumulative, cumulative[1:])):
                raise ValueError(f"{tag} buckets not cumulative")
            if edges[-1][0] != float("inf"):
                raise ValueError(f"{tag} missing +Inf bucket")
            if rest not in counts or counts[rest] != edges[-1][1]:
                raise ValueError(f"{tag}: +Inf bucket disagrees with _count")
            if rest not in sums:
                raise ValueError(f"{tag} missing _sum")


# ---------------------------------------------------------------------------
# HTTP server
# ---------------------------------------------------------------------------


class _TelemetryHandler(BaseHTTPRequestHandler):
    """GET-only handler for /metrics and /healthz."""

    server_version = "repro-telemetry/1.0"

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        if self.path.split("?", 1)[0] == "/metrics":
            body = render_prometheus(self.server.registry).encode()
            self._reply(200, "text/plain; version=0.0.4; charset=utf-8", body)
        elif self.path.split("?", 1)[0] == "/healthz":
            payload = {
                "status": "ok",
                "uptime_seconds": round(
                    monotonic() - self.server.started_at, 3
                ),
            }
            self._reply(
                200, "application/json", json.dumps(payload).encode()
            )
        else:
            self._reply(404, "text/plain", b"not found\n")

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # scrapes should not spam stderr


class _TelemetryHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, registry: MetricsRegistry) -> None:
        super().__init__(address, _TelemetryHandler)
        self.registry = registry
        self.started_at = monotonic()


class TelemetryServer:
    """Serves a registry's metrics over HTTP on a background thread.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start` for the bound value. Usable as a context manager.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self._server: Optional[_TelemetryHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "TelemetryServer":
        """Bind and serve; returns self (idempotent once started)."""
        if self._server is not None:
            return self
        self._server = _TelemetryHTTPServer(
            (self.host, self.port), self.registry
        )
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    @property
    def url(self) -> str:
        """Base URL of the server (valid after :meth:`start`)."""
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
