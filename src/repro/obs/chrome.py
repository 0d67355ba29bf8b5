"""Chrome trace-event (Perfetto-compatible) export of JSONL traces.

``repro trace FILE --export chrome`` converts a trace written by
:class:`~repro.obs.trace.Tracer` into the Trace Event Format that
``chrome://tracing`` and https://ui.perfetto.dev load directly:

* one **lane per thread** — each recorded thread name becomes a ``tid``
  with an ``M`` (metadata) event naming the lane, so the scheduling
  thread and every ``repro-worker`` pool thread render side by side;
* one complete ``X`` slice per span (``ts``/``dur`` in microseconds,
  attrs passed through as ``args``);
* ``i`` instants for point events; and
* ``s``/``f`` **flow arrows** for every producer→consumer spool edge:
  the arrow leaves the ``spool_materialize`` slice on the producer's
  lane and lands on the consumer's read, drawn from the run-time
  ``spool_flow`` events.

Stdlib-only, mirroring the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

#: Synthetic pid when the trace header carries none.
_DEFAULT_PID = 1


def _tid_for(
    thread: Optional[str], lanes: Dict[str, int]
) -> int:
    """A stable small integer lane per thread name, allocation-ordered."""
    name = thread if thread is not None else "unknown"
    if name not in lanes:
        lanes[name] = len(lanes) + 1
    return lanes[name]


def to_chrome_trace(
    events: List[Dict[str, Any]],
    header: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Convert parsed trace events into a Chrome trace-event payload."""
    pid = (header or {}).get("pid", _DEFAULT_PID)
    lanes: Dict[str, int] = {}
    trace_events: List[Dict[str, Any]] = []
    by_id = {e["span_id"]: e for e in events}

    # MainThread (or whichever thread spoke first) claims lane 1.
    for event in sorted(events, key=lambda e: e["start"]):
        _tid_for(event.get("thread"), lanes)

    for event in events:
        tid = _tid_for(event.get("thread"), lanes)
        ts = round(event["start"] * 1e6, 3)
        record: Dict[str, Any] = {
            "name": event["name"],
            "pid": pid,
            "tid": tid,
            "ts": ts,
        }
        attrs = dict(event.get("attrs") or {})
        attrs["span_id"] = event["span_id"]
        if event.get("parent_id") is not None:
            attrs["parent_id"] = event["parent_id"]
        record["args"] = attrs
        if "duration" in event:
            record["ph"] = "X"
            record["dur"] = round(event["duration"] * 1e6, 3)
        else:
            record["ph"] = "i"
            record["s"] = "t"  # instant scoped to its thread
        trace_events.append(record)

    # Flow arrows: producer spool slice → consuming read instant.
    flow_id = 0
    for event in events:
        if event.get("name") != "spool_flow":
            continue
        producer = by_id.get((event.get("attrs") or {}).get("from_span"))
        if producer is None or "duration" not in producer:
            continue
        flow_id += 1
        spool = (event.get("attrs") or {}).get("spool")
        producer_end = producer["start"] + producer["duration"]
        trace_events.append(
            {
                "name": f"spool {spool}",
                "cat": "spool",
                "ph": "s",
                "id": flow_id,
                "pid": pid,
                "tid": _tid_for(producer.get("thread"), lanes),
                "ts": round(producer_end * 1e6, 3),
            }
        )
        trace_events.append(
            {
                "name": f"spool {spool}",
                "cat": "spool",
                "ph": "f",
                "bp": "e",  # bind to the enclosing slice at the arrival
                "id": flow_id,
                "pid": pid,
                "tid": _tid_for(event.get("thread"), lanes),
                "ts": round(event["start"] * 1e6, 3),
            }
        )

    metadata: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for thread_name, tid in sorted(lanes.items(), key=lambda kv: kv[1]):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": thread_name},
            }
        )

    payload: Dict[str, Any] = {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
    }
    if header is not None:
        payload["otherData"] = {
            k: v for k, v in header.items() if k != "type"
        }
    return payload


def render_chrome_trace(
    events: List[Dict[str, Any]],
    header: Optional[Dict[str, Any]] = None,
) -> str:
    """The Chrome trace payload as a JSON string."""
    return json.dumps(to_chrome_trace(events, header), sort_keys=True)
