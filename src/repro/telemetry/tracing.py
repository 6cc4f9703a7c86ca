"""Cross-shard request tracing for sharded datacenter runs.

NCAP's core argument is that power decisions need *packet-level* context,
not aggregate load; this module applies the same principle to the fleet
itself.  A request sprayed by the frontend tier and served inside a shard
leaves spans in three places — the coordinator-side
:class:`~repro.cluster.frontend.FrontendPlanner` (spray decision and
dispatch), the shard simulator's server datapath (the existing
``request.span`` probe: arrival/dma/delivered/service/reply), and the
shard-local :class:`~repro.cluster.frontend.FrontendPort` (reply
receipt).  The pieces are merged coordinator-side into one
:class:`FleetTraceBundle` whose Chrome-trace export telescopes a single
sprayed request across frontend dispatch latency, wire transfer, NIC DMA,
kernel delivery, run-queue wait, service, and the return trip — one pid
lane per shard, one for the frontend tier.

**Sampling is deterministic, never RNG.**  A request is sampled iff
``crc32("trace:<src>:<req_id>") % sample_every == 0``
(:func:`is_sampled`).  Both the coordinator (which knows every planned
dispatch) and every shard collector (which sees ``(src, req_id)`` on each
probe event) evaluate the same pure function, so no sampling state ever
crosses the shard boundary and a serial, sharded, or process-pooled run
collects byte-identical trace bundles.  Tracing is an observer: it never
draws from an RNG stream, never schedules an event, and never enters the
config hash.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Chrome-trace pid lanes of the merged fleet export.  pid 1 is the
#: single-node simulated-time export and pid 2 the wall-clock profiler
#: lane (:mod:`repro.profiling.export`); the fleet lanes start above them.
FRONTEND_PID = 3
WINDOW_PID = 4
SHARD_PID_BASE = 10

#: Ordered per-hop decomposition of a traced request's RTT.  Each entry is
#: ``(hop name, start marker, end marker)`` over the merged span markers.
HOPS: Tuple[Tuple[str, str, str], ...] = (
    ("dispatch", "decision", "send"),
    ("wire_in", "send", "arrival"),
    ("nic_dma", "arrival", "dma"),
    ("kernel", "dma", "delivered"),
    ("app_queue", "delivered", "service"),
    ("service", "service", "reply"),
    ("wire_out", "reply", "reply_recv"),
    ("rtt", "send", "reply_recv"),
)


@dataclass(frozen=True)
class TraceConfig:
    """Observer-side request-tracing knobs (never in the config hash)."""

    #: Sample one request in ``sample_every`` (deterministic hash rule).
    sample_every: int = 1024
    #: Retain at most this many merged traces, lowest request ids first
    #: (applied after the deterministic merge, so the cut is identical
    #: across shard counts and pool sizes).
    max_traces: int = 256

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError("sample_every must be at least 1")
        if self.max_traces < 1:
            raise ValueError("max_traces must be at least 1")


def resolve_trace_config(spec: Any) -> Optional[TraceConfig]:
    """Normalize a ``trace_requests=`` argument into a TraceConfig.

    ``None``/``False`` disable tracing; ``True`` uses the defaults; an
    ``int`` sets ``sample_every``; a :class:`TraceConfig` passes through.
    """
    if spec is None or spec is False:
        return None
    if spec is True:
        return TraceConfig()
    if isinstance(spec, int):
        return TraceConfig(sample_every=spec)
    if isinstance(spec, TraceConfig):
        return spec
    raise TypeError(
        f"trace_requests must be None, bool, int or TraceConfig, "
        f"not {type(spec).__name__}"
    )


def is_sampled(src: str, req_id: Optional[int], sample_every: int) -> bool:
    """The deterministic sampling rule, shared by planner and shards.

    Pure function of the request identity — no RNG, no process state —
    so every participant in a sharded run agrees on the sampled set
    without communicating.
    """
    if req_id is None:
        return False
    if sample_every <= 1:
        return True
    key = f"trace:{src}:{req_id}".encode("ascii")
    return zlib.crc32(key) % sample_every == 0


class RequestTraceCollector:
    """Shard-side span collector for sampled requests.

    Subscribes to each server's ``request.span`` probe point and hooks the
    shard's frontend ports' reply path.  Collection is pure observation:
    the probe events already exist for any subscriber, and the sampled
    subset is decided by :func:`is_sampled` alone.
    """

    def __init__(self, sample_every: int):
        self.sample_every = sample_every
        #: (src, req_id) -> [(phase, t_ns, core-or-None), ...]
        self._phases: Dict[Tuple[str, int], List[Tuple[str, int, Optional[int]]]] = {}
        #: (src, req_id) -> reply receive time at the frontend port
        self._replies: Dict[Tuple[str, int], int] = {}
        #: src -> server index (for traces the planner never saw)
        self._server_of: Dict[str, int] = {}

    def attach_server(self, server_index: int, server: Any) -> None:
        sample_every = self.sample_every
        phases = self._phases

        def on_span(event: Any) -> None:
            if not is_sampled(event.src, event.req_id, sample_every):
                return
            phases.setdefault((event.src, event.req_id), []).append(
                (event.phase, event.t_ns, event.core)
            )

        server.telemetry.probes.subscribe("request.span", on_span)
        self._server_of[f"frontend{server_index}"] = server_index

    def attach_port(self, server_index: int, port: Any) -> None:
        sample_every = self.sample_every
        replies = self._replies
        name = port.name

        def on_reply(req_id: int, send_ns: int, rtt_ns: int) -> None:
            if is_sampled(name, req_id, sample_every):
                replies[(name, req_id)] = send_ns + rtt_ns

        port.rtt_listeners.append(on_reply)
        self._server_of[name] = server_index

    def payload(self) -> Dict[str, Any]:
        """Picklable per-shard trace payload, deterministically ordered."""
        return {
            "phases": [
                [src, req_id, [[p, t, c] for p, t, c in spans]]
                for (src, req_id), spans in sorted(self._phases.items())
            ],
            "replies": [
                [src, req_id, recv_ns]
                for (src, req_id), recv_ns in sorted(self._replies.items())
            ],
            "servers": sorted(self._server_of.items()),
        }


@dataclass
class RequestTrace:
    """One sampled request, merged across frontend and shard spans."""

    src: str
    req_id: int
    server_index: int
    user: Optional[int] = None
    decision_ns: Optional[int] = None
    send_ns: Optional[int] = None
    reply_recv_ns: Optional[int] = None
    #: Server-side ``request.span`` markers: (phase, t_ns, core-or-None).
    phases: List[Tuple[str, int, Optional[int]]] = field(default_factory=list)

    @property
    def trace_id(self) -> str:
        return f"{self.src}/{self.req_id}"

    def markers(self) -> Dict[str, int]:
        """Named time markers for the hop decomposition (first of each)."""
        out: Dict[str, int] = {}
        if self.decision_ns is not None:
            out["decision"] = self.decision_ns
        if self.send_ns is not None:
            out["send"] = self.send_ns
        for phase, t_ns, _core in self.phases:
            out.setdefault(phase, t_ns)
        if self.reply_recv_ns is not None:
            out["reply_recv"] = self.reply_recv_ns
        return out

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "src": self.src,
            "req_id": self.req_id,
            "server_index": self.server_index,
            "user": self.user,
            "decision_ns": self.decision_ns,
            "send_ns": self.send_ns,
            "reply_recv_ns": self.reply_recv_ns,
            "phases": [[p, t, c] for p, t, c in self.phases],
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "RequestTrace":
        return cls(
            src=data["src"],
            req_id=int(data["req_id"]),
            server_index=int(data["server_index"]),
            user=data.get("user"),
            decision_ns=data.get("decision_ns"),
            send_ns=data.get("send_ns"),
            reply_recv_ns=data.get("reply_recv_ns"),
            phases=[(p, t, c) for p, t, c in data.get("phases", [])],
        )


@dataclass
class FleetTraceBundle:
    """The merged, deterministic cross-shard trace of one fleet run."""

    sample_every: int
    max_traces: int
    traces: List[RequestTrace] = field(default_factory=list)
    #: Requests the sampling rule selected before the retention cap.
    sampled_total: int = 0

    def __len__(self) -> int:
        return len(self.traces)

    # -- hop decomposition ----------------------------------------------

    def hop_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-hop latency stats over the sampled set.

        Floats are reduced in trace order, which the merge fixes, so the
        summary is byte-identical across shard counts and pool sizes.
        """
        values: Dict[str, List[int]] = {name: [] for name, _, _ in HOPS}
        for trace in self.traces:
            marks = trace.markers()
            for name, start, end in HOPS:
                if start in marks and end in marks:
                    values[name].append(marks[end] - marks[start])
        out: Dict[str, Dict[str, float]] = {}
        for name, deltas in values.items():
            if not deltas:
                continue
            out[name] = {
                "count": len(deltas),
                "mean_ns": sum(deltas) / len(deltas),
                "min_ns": min(deltas),
                "max_ns": max(deltas),
            }
        return out

    # -- JSON round-trip -------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "sampling": {
                "rule": "crc32(trace:<src>:<req_id>) % sample_every == 0",
                "sample_every": self.sample_every,
                "max_traces": self.max_traces,
                "sampled_total": self.sampled_total,
            },
            "traces": [t.to_json_dict() for t in self.traces],
            "hops": self.hop_summary(),
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "FleetTraceBundle":
        sampling = data.get("sampling", {})
        return cls(
            sample_every=int(sampling.get("sample_every", 1)),
            max_traces=int(sampling.get("max_traces", 1)),
            sampled_total=int(sampling.get("sampled_total", 0)),
            traces=[
                RequestTrace.from_json_dict(t) for t in data.get("traces", [])
            ],
        )


def merge_fleet_traces(
    config: TraceConfig,
    planner_samples: Sequence[Tuple[str, int, int, int, int, int]],
    shard_payloads: Sequence[Dict[str, Any]],
) -> FleetTraceBundle:
    """Join coordinator-side stamps with per-shard span payloads.

    ``planner_samples`` rows are ``(src, req_id, user, server_index,
    decision_ns, send_ns)`` from the
    :class:`~repro.cluster.frontend.FrontendPlanner`; ``shard_payloads``
    are :meth:`RequestTraceCollector.payload` dicts.  The merge sorts by
    ``(src, req_id)`` and truncates to ``config.max_traces`` lowest
    request ids, so the result is independent of shard placement.
    """
    traces: Dict[Tuple[str, int], RequestTrace] = {}
    server_of: Dict[str, int] = {}
    for payload in shard_payloads:
        for src, index in payload.get("servers", ()):
            server_of[src] = index

    for src, req_id, user, server_index, decision_ns, send_ns in planner_samples:
        traces[(src, req_id)] = RequestTrace(
            src=src,
            req_id=req_id,
            server_index=server_index,
            user=user,
            decision_ns=decision_ns,
            send_ns=send_ns,
        )
    for payload in shard_payloads:
        for src, req_id, spans in payload.get("phases", ()):
            key = (src, req_id)
            trace = traces.get(key)
            if trace is None:
                trace = traces[key] = RequestTrace(
                    src=src, req_id=req_id,
                    server_index=server_of.get(src, -1),
                )
            trace.phases.extend((p, t, c) for p, t, c in spans)
        for src, req_id, recv_ns in payload.get("replies", ()):
            key = (src, req_id)
            trace = traces.get(key)
            if trace is None:
                trace = traces[key] = RequestTrace(
                    src=src, req_id=req_id,
                    server_index=server_of.get(src, -1),
                )
            trace.reply_recv_ns = recv_ns

    for trace in traces.values():
        trace.phases.sort(key=lambda item: (item[1], item[0]))
    ordered = sorted(traces.values(), key=lambda t: (t.req_id, t.src))
    return FleetTraceBundle(
        sample_every=config.sample_every,
        max_traces=config.max_traces,
        traces=ordered[: config.max_traces],
        sampled_total=len(ordered),
    )


# -- Chrome-trace export -------------------------------------------------


def lane_metadata_events(
    pid: int, process_name: str, threads: Optional[Dict[int, str]] = None
) -> List[Dict[str, Any]]:
    """``process_name``/``thread_name`` metadata events for one pid lane,
    so Perfetto shows e.g. "shard 3" instead of a bare pid."""
    out: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0.0,
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for tid, label in sorted((threads or {}).items()):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0.0,
                "pid": pid,
                "tid": tid,
                "args": {"name": label},
            }
        )
    return out


def fleet_trace_events(
    bundle: FleetTraceBundle, shard_of_server: Dict[int, int]
) -> List[Dict[str, Any]]:
    """The merged bundle as Chrome Trace Event Format entries.

    Frontend dispatch and the reply return trip render on the frontend
    tier's pid lane; the server datapath hops render on the owning
    shard's lane (``pid = SHARD_PID_BASE + shard``, one tid per server),
    so one sprayed request telescopes across every tier in Perfetto.
    """
    events: List[Dict[str, Any]] = []
    frontend_tids: Dict[int, str] = {}
    shard_threads: Dict[int, Dict[int, str]] = {}

    def duration(
        name: str, cat: str, start_ns: int, end_ns: int,
        pid: int, tid: int, args: Dict[str, Any],
    ) -> None:
        events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": start_ns / 1e3,
                "dur": max(0.0, (end_ns - start_ns) / 1e3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )

    for trace in bundle.traces:
        marks = trace.markers()
        shard = shard_of_server.get(trace.server_index, -1)
        shard_pid = SHARD_PID_BASE + max(shard, 0)
        tid = trace.server_index
        args = {"trace_id": trace.trace_id, "server": f"server{tid}"}
        if trace.user is not None:
            args["user"] = trace.user
        frontend_tids[0] = "dispatch"
        shard_threads.setdefault(shard_pid, {})[tid] = f"server{tid}"
        if "decision" in marks and "send" in marks:
            duration(
                f"dispatch {trace.trace_id}", "frontend",
                marks["decision"], marks["send"], FRONTEND_PID, 0, args,
            )
        hop_args = dict(args)
        for name, start, end in HOPS:
            if name in ("dispatch", "rtt"):
                continue
            if start not in marks or end not in marks:
                continue
            lane = (
                (FRONTEND_PID, 0) if name == "wire_out"
                else (shard_pid, tid)
            )
            duration(name, "hop", marks[start], marks[end], *lane, hop_args)
        if "send" in marks and "reply_recv" in marks:
            events.append(
                {
                    "name": f"rtt {trace.trace_id}",
                    "cat": "request",
                    "ph": "b",
                    "id": trace.trace_id,
                    "ts": marks["send"] / 1e3,
                    "pid": FRONTEND_PID,
                    "tid": 0,
                    "args": args,
                }
            )
            events.append(
                {
                    "name": f"rtt {trace.trace_id}",
                    "cat": "request",
                    "ph": "e",
                    "id": trace.trace_id,
                    "ts": marks["reply_recv"] / 1e3,
                    "pid": FRONTEND_PID,
                    "tid": 0,
                    "args": {},
                }
            )

    events.extend(
        lane_metadata_events(FRONTEND_PID, "frontend tier", frontend_tids)
    )
    for pid in sorted(shard_threads):
        events.extend(
            lane_metadata_events(
                pid, f"shard {pid - SHARD_PID_BASE}", shard_threads[pid]
            )
        )
    return events


def write_fleet_trace(
    bundle: FleetTraceBundle,
    shard_of_server: Dict[int, int],
    path: str,
    extra_events: Sequence[Dict[str, Any]] = (),
) -> int:
    """Write the merged fleet Chrome-trace JSON; returns the event count."""
    events = fleet_trace_events(bundle, shard_of_server)
    events.extend(extra_events)
    payload = {"traceEvents": events, "displayTimeUnit": "ns"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return len(events)


def format_hop_table(bundle: FleetTraceBundle) -> str:
    """Plain-text per-hop latency summary of the sampled request set."""
    from repro.metrics.report import format_table

    summary = bundle.hop_summary()
    rows = []
    for name, _, _ in HOPS:
        stats = summary.get(name)
        if stats is None:
            continue
        rows.append(
            [
                name,
                int(stats["count"]),
                round(stats["mean_ns"] / 1e6, 4),
                round(stats["min_ns"] / 1e6, 4),
                round(stats["max_ns"] / 1e6, 4),
            ]
        )
    return format_table(
        ["hop", "count", "mean (ms)", "min (ms)", "max (ms)"],
        rows,
        title=(
            f"Cross-shard request trace — {len(bundle.traces)} sampled "
            f"request{'s' if len(bundle.traces) != 1 else ''} "
            f"(1 in {bundle.sample_every})"
        ),
    )


__all__ = [
    "FRONTEND_PID",
    "HOPS",
    "SHARD_PID_BASE",
    "WINDOW_PID",
    "FleetTraceBundle",
    "RequestTrace",
    "RequestTraceCollector",
    "TraceConfig",
    "fleet_trace_events",
    "format_hop_table",
    "is_sampled",
    "lane_metadata_events",
    "merge_fleet_traces",
    "resolve_trace_config",
    "write_fleet_trace",
]
