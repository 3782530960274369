"""The per-layer ledger: every per-layer metric the benchmark reports,
with its unit and the end-to-end metric it should move, and the
arithmetic that derives each from what a run measured.

Layer names follow the crates. A metric whose layer is not on a
workload's path reads 0 on that workload (the simulator has no gateway;
the real-cluster workloads have no simulator).
"""

import stats

NODE_NAMES = [f"n{i}" for i in range(5)]
PHASES = ("parse", "plan", "probe", "fan-out", "fold", "reply")
# Phases recorded only at the front-end daemon (docs/observability.md);
# their sum is the query time the histograms attribute.
FRONT_END_PHASES = ("parse", "plan", "reply")

# (name, unit, what it should move)
LEDGER = [
    ("error_rate", "share", "every workload: failed / attempted"),
    ("latency_tail_ms", "ms", "headline latency tail (p99/p90/p50, >=10 samples beyond)"),
    ("throughput_ops_s", "1/s", "completed operations per second of the window"),
    ("query_p50_ms", "ms", "reads on adhoc, dashboard, churn"),
    ("query_tail_ms", "ms", "reads on adhoc, dashboard, churn"),
    ("write_p50_ms", "ms", "churn: write ack timed from due time"),
    ("write_tail_ms", "ms", "churn: write ack timed from due time"),
    ("watch_lag_p50_ms", "ms", "churn: due time to first SSE frame showing the write"),
    ("watch_lag_tail_ms", "ms", "churn: due time to first SSE frame showing the write"),
    ("check.cache_hit_share", "share", "self-check: ~0 on adhoc, ~1 on dashboard"),
    ("check.watch_seen_share", "share", "self-check: 1 on churn"),
    ("check.sim_repeat_exact", "bool", "self-check: 1 on sim-groups"),
    ("trace.overhead_p50_share", "share", "traced half vs untraced half, headline p50"),
    ("loadgen.late_p99_ms", "ms", "validity of churn; no system metric"),
    ("client.ttfb_ms_mean", "ms", "latency_p50_ms on cluster workloads"),
    ("client.body_ms_mean", "ms", "latency_p50_ms on cluster workloads"),
    ("gateway.service_us_mean.query", "us", "latency_p50_ms on adhoc; reads on churn"),
    ("gateway.service_us_mean.attrs", "us", "write_p50_ms on churn"),
    ("gateway.cache_hit_ratio", "share", "throughput_ops_s on dashboard; ~0 on adhoc"),
    ("gateway.cache_coalesced", "count", "throughput_ops_s on dashboard"),
    ("gateway.cache_invalidations", "count", "query_tail_ms on churn"),
    ("gateway.cache_promotions", "count", "query_tail_ms on churn"),
    ("gateway.errors", "count", "error_rate"),
    ("gateway.timeouts", "count", "error_rate"),
    ("gateway.http_parse_ns", "ns", "throughput_ops_s on dashboard; no change on adhoc"),
    ("gateway.normalize_ns", "ns", "throughput_ops_s on dashboard; no change on adhoc"),
    ("daemon.tick_us_mean", "us", "latency_p50_ms on adhoc; write/watch on churn"),
    ("daemon.loop_busy_share", "share", "cpu_ms_per_op"),
    ("daemon.jobs_per_tick_mean", "count", "latency_p50_ms on adhoc"),
    ("daemon.stalled_ticks", "count", "latency_tail_ms"),
    ("query.parse_ns", "ns", "latency_p50_ms on adhoc; throughput_ops_s on sim-groups"),
    ("query.plan_ns", "ns", "latency_p50_ms on adhoc; throughput_ops_s on sim-groups"),
] + [
    (f"core.phase_us_mean.{p}", "us", "latency_p50_ms on adhoc") for p in PHASES
] + [
    (f"core.phase_count_per_query.{p}", "count", "latency_p50_ms on adhoc")
    for p in ("probe", "fan-out", "fold")
] + [
    ("core.probe_cache_hit_ratio", "share", "latency_p50_ms on adhoc; sim_msgs_per_query"),
    ("core.size_probes_per_query", "count", "latency_p50_ms on adhoc; sim_msgs_per_query"),
    ("core.batched_fanout_per_query", "count", "latency_p50_ms on adhoc; sim_msgs_per_query"),
    ("ledger.unattributed_share", "share", "the unattributed share of query latency on adhoc"),
    ("transport.msgs_per_op", "count", "cpu_ms_per_op; latency_p50_ms on adhoc"),
    ("transport.bytes_per_op", "bytes", "cpu_ms_per_op; latency_p50_ms on adhoc"),
    ("transport.dropped", "count", "error_rate"),
    ("transport.decode_errors", "count", "error_rate"),
    ("subscribe.deltas_per_write", "count", "latency_p50_ms (watch lag) on churn"),
    ("subscribe.delta_lag_us_mean", "us", "latency_p50_ms (watch lag) on churn"),
    ("subscribe.suppressed", "count", "latency_p50_ms (watch lag) on churn"),
    ("membership.msgs_per_s", "1/s", "background cost in cpu_ms_per_op"),
    ("trace.spans_per_op", "count", "cpu_ms_per_op"),
    ("trace.spans_dropped", "count", "cpu_ms_per_op"),
] + [
    (f"process.{kind}.{n}", unit, "cpu_ms_per_op, rss_mb")
    for kind, unit in (("cpu_busy_share", "share"), ("rss_mb", "MB"), ("open_fds", "count"))
    for n in NODE_NAMES
] + [
    ("sim_msgs_per_query", "count", "exact per seed on sim-groups (first 512 queries)"),
    ("sim_latency_p50_ms", "ms", "simulated time on sim-groups"),
    ("sim.wall_p50_ms", "ms", "latency_p50_ms on sim-groups: median over all blocks"),
    ("sim.cpu_ms_per_query", "ms", "cpu_ms_per_op on sim-groups: mean over the window"),
    ("sim.submit_us", "us", "throughput_ops_s on sim-groups"),
    ("sim.drive_us", "us", "throughput_ops_s on sim-groups"),
    ("sim.bytes_per_query", "bytes", "sim_msgs_per_query on sim-groups"),
]

UNITS = {name: unit for name, unit, _ in LEDGER}
# Metrics where a larger value is the better one; lower is better for the
# rest.
HIGHER_IS_BETTER = {"throughput_ops_s", "check.cache_hit_share", "check.watch_seen_share", "check.sim_repeat_exact",
                    "gateway.cache_hit_ratio", "core.probe_cache_hit_ratio"}


def finish(values):
    """The full ledger as the result's metrics: every name, in order,
    with 0 for layers this workload does not exercise."""
    unknown = set(values) - set(UNITS)
    if unknown:
        raise KeyError(f"metrics outside the ledger: {sorted(unknown)}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in LEDGER}


def ratio(num, den):
    return num / den if den else 0.0


def from_metrics(w, n_ops, n_queries, n_writes, window_s, n_daemons, client_query_us):
    """Per-layer values derived from /metrics deltas (a prom.Window)."""
    g = "moara_gateway_"
    hits = w.get(g + "cache_hits_total")
    lookups = hits + w.get(g + "cache_misses_total") + w.get(g + "cache_coalesced_total")
    probe_hits = w.get("moara_sched_probe_cache_hits_total")
    probe_all = probe_hits + w.get("moara_sched_probe_cache_misses_total")
    phase = "moara_query_phase_latency_us"
    covered = sum(w.get(phase + "_sum", phase=p) for p in FRONT_END_PHASES)
    out = {
        "gateway.service_us_mean.query": w.hist_mean(g + "request_latency_us", endpoint="query"),
        "gateway.service_us_mean.attrs": w.hist_mean(g + "request_latency_us", endpoint="attrs"),
        "gateway.cache_hit_ratio": ratio(hits, lookups),
        "gateway.cache_coalesced": w.get(g + "cache_coalesced_total"),
        "gateway.cache_invalidations": w.get(g + "cache_invalidations_total"),
        "gateway.cache_promotions": w.get(g + "cache_promotions_total"),
        "gateway.errors": w.get(g + "errors_total"),
        "gateway.timeouts": w.get(g + "request_timeouts_total"),
        "daemon.tick_us_mean": w.hist_mean("moara_event_loop_tick_us"),
        "daemon.loop_busy_share": ratio(w.get("moara_event_loop_tick_us_sum"),
                                        window_s * 1e6 * n_daemons),
        "daemon.jobs_per_tick_mean": w.hist_mean("moara_event_loop_jobs_per_tick"),
        "daemon.stalled_ticks": w.get("moara_event_loop_stalled_ticks_total"),
        "core.probe_cache_hit_ratio": ratio(probe_hits, probe_all),
        "core.size_probes_per_query": ratio(w.get("moara_sched_size_probes_total"), n_queries),
        "core.batched_fanout_per_query": ratio(w.get("moara_sched_batched_fanout_total"), n_queries),
        "ledger.unattributed_share": 1.0 - ratio(covered, client_query_us) if client_query_us else 0.0,
        "transport.msgs_per_op": ratio(w.get("moara_transport_messages_sent_total"), n_ops),
        "transport.bytes_per_op": ratio(w.get("moara_transport_bytes_sent_total"), n_ops),
        "transport.dropped": w.get("moara_transport_dropped_total"),
        "transport.decode_errors": w.get("moara_transport_decode_errors_total"),
        "subscribe.deltas_per_write": ratio(w.get("moara_subscribe_deltas_total"), n_writes),
        "subscribe.delta_lag_us_mean": w.hist_mean("moara_subscribe_delta_lag_us"),
        "subscribe.suppressed": w.get("moara_subscribe_suppressed_total"),
        "membership.msgs_per_s": ratio(w.get("moara_membership_pings_total")
                                       + w.get("moara_membership_ping_reqs_total"), window_s),
        "trace.spans_per_op": ratio(w.get("moara_trace_spans_total"), n_ops),
        "trace.spans_dropped": w.get("moara_trace_spans_dropped_total"),
    }
    for p in PHASES:
        out[f"core.phase_us_mean.{p}"] = w.hist_mean(phase, phase=p)
    for p in ("probe", "fan-out", "fold"):
        out[f"core.phase_count_per_query.{p}"] = ratio(w.get(phase + "_count", phase=p), n_queries)
    return out


def from_proc(before, after, node_ids, window_s):
    """process.* per node from /proc samples taken at the window edges."""
    out = {}
    for b, a, node in zip(before, after, node_ids):
        n = f"n{node}"
        if n not in NODE_NAMES:
            continue
        out[f"process.cpu_busy_share.{n}"] = ratio(a["cpu_s"] - b["cpu_s"], window_s)
        out[f"process.rss_mb.{n}"] = a["rss_mb"]
        out[f"process.open_fds.{n}"] = a["fds"]
    return out


def from_client(traced):
    """client.* from the traced replies' first-byte stamps."""
    return {
        "client.ttfb_ms_mean": stats.mean([(r.ttfb_us - r.sent_us) / 1e3 for r in traced]),
        "client.body_ms_mean": stats.mean([(r.done_us - r.ttfb_us) / 1e3 for r in traced]),
    }
