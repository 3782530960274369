"""The four workloads. Each returns a Result: the end-to-end values, the
per-layer values, and how many operations were attempted and failed.

Why these four:
  adhoc      every request pays the full path (loop hand-off and wake,
             plan/probe, tree fan-out/fold, reply); the result cache is
             bypassed because no query text repeats.
  dashboard  a fixed panel set served from the gateway's result cache; the
             daemon event loop sits idle, so a loop change reads no change.
  churn      writes beside reads and a standing watch: attribute store,
             subscription deltas, cache invalidation and revalidation.
  sim-groups the protocol at paper scale (1024 nodes, 16 groups) in the
             simulator, where messages per query are exact.
"""

import bisect
import json
import os
import subprocess
import time
from dataclasses import dataclass, field

import cluster as clu
import gen
import layers
import prom
import stats
from records import iter_loadgen, parse_loadgen, parse_sse, result_of, split_attributed

# Cluster boots per run; setup_s is their median.
BOOTS = 7
LOADGEN_SLACK_S = 60
# A read may miss writes acknowledged less than this long before it was
# sent: a cached answer may lag by one delta propagation
# (docs/gateway.md), which takes milliseconds on loopback.
STALENESS_US = 100_000
# After the last write, every daemon must answer the final truth within
# this long.
CONVERGE_DEADLINE_S = 5.0
CHURN_OPS_PER_S = 100
CHURN_EPOCH_S = 1.0
CHURN_START_US = 300_000
WATCH_TAIL_MS = 3000
# Traced requests kept as client spans (the first ones of the traced half),
# so a fast workload's trace stays small.
SPAN_CAP = 20_000
# Messages per query are averaged over this fixed prefix of sim-groups,
# so the figure is exact for a seed however long the run is.
SIM_MSGS_PREFIX = 512
# adhoc reads the daemons' peak memory once this many replies are in. Daemons
# keep state per predicate, so memory grows with the distinct queries
# answered, and it grows in steps where tables double (one step falls
# near 3,500 queries, about what a 20 s run answers). 2,048 is reached
# in about 12 s and lies between two steps.
ADHOC_HWM_AT = 2048
# sim-groups reports per-query wall and CPU time at this percentile of its
# blocks (256 queries each). The simulator is one thread with a working
# set far larger than the CPU caches, and work elsewhere on the host slows
# it by up to 1.8 times for seconds at a time; the quietest blocks show
# what the code costs, and a slower query slows every block.
SIM_BLOCK_PERCENTILE = 10.0


class SelfCheckFailed(Exception):
    """The run did not have the property its workload exists for."""


@dataclass
class Result:
    setup_s: float
    latency_ms: list  # headline operation latencies
    ops: int  # completed operations
    window_s: float
    cpu_ms_per_op: float
    rss_mb: float
    attempted: int
    failed: int
    per_layer: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)  # what failed, for the log
    # Set by sim-groups, which reports it from its blocks.
    p50_ms: float = None

    def end_to_end(self):
        p50 = stats.median(self.latency_ms) if self.p50_ms is None else self.p50_ms
        return {
            "setup_s": (self.setup_s, "s"),
            "latency_p50_ms": (p50, "ms"),
            "cpu_ms_per_op": (self.cpu_ms_per_op, "ms"),
            "rss_mb": (self.rss_mb, "MB"),
        }


@dataclass
class Env:
    moarad: str
    probe: str
    out_dir: str
    seed: int
    seconds: float
    trace: bool

    def path(self, name):
        return os.path.join(self.out_dir, f"{name}-s{self.seed}")


def boot(env, rows):
    """Boots BOOTS clusters one after another, keeping the last; returns
    (cluster, median boot seconds)."""
    times = []
    for b in range(BOOTS):
        c = clu.Cluster(env.moarad, rows, env.out_dir, f"s{env.seed}-boot{b}")
        try:
            times.append(c.boot())
        except BaseException:
            c.stop()
            raise
        if b < BOOTS - 1:
            c.stop()
    return c, stats.median(times)


def write_plan(path, env, trace_from_us, targets, conns, ops, watch=None, mem_at=None):
    lines = [f"seconds {env.seconds}", f"trace_from_us {trace_from_us}"]
    lines += [f"target {t}" for t in targets]
    lines += conns
    if watch:
        lines.append(watch)
    if mem_at:
        lines.append(mem_at)
    for conn, due, target, method, p, body in ops:
        lines.append(f"op {conn} {'-' if due is None else due} {target} {method} {p} {body or '-'}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def measure(env, c, name, plan_path):
    """Runs the load generator on a plan between /metrics scrapes and
    /proc samples of every daemon; returns (records path, metrics window,
    proc before, proc after)."""
    out_path = env.path(name) + ".records"
    scrape0 = c.scrape()
    proc0 = c.proc_sample()
    subprocess.run([env.probe, "loadgen", plan_path, out_path], check=True,
                   timeout=env.seconds + LOADGEN_SLACK_S)
    proc1 = c.proc_sample()
    scrape1 = c.scrape()
    return out_path, prom.Window(scrape0, scrape1), proc0, proc1


def time_public_functions(env, name, requests, texts):
    """gateway/query public-function timings (ns per call) on the
    workload's own requests and query texts."""
    path = env.path(name) + ".layers"
    with open(path, "w") as f:
        for method, p, body in requests:
            f.write(f"req {method} {p} {body or '-'}\n")
        for t in texts:
            f.write(f"q {t}\n")
    out = subprocess.run([env.probe, "layers", path], check=True, capture_output=True,
                         text=True, timeout=LOADGEN_SLACK_S).stdout
    vals = dict(line.split("\t") for line in out.splitlines())
    return {
        "gateway.http_parse_ns": float(vals["http_parse_ns"]),
        "gateway.normalize_ns": float(vals["normalize_ns"]),
        "query.parse_ns": float(vals["query_parse_ns"]),
        "query.plan_ns": float(vals["query_plan_ns"]),
    }


def write_spans(env, name, traced):
    """One request span per traced reply with its client-side children;
    spans of a request share its id."""
    with open(env.path(name) + ".spans.jsonl", "w") as f:
        for i, r in enumerate(traced):
            spans = [("request", r.due_us, r.done_us), ("generator-wait", r.due_us, r.sent_us),
                     ("server-wait", r.sent_us, r.ttfb_us), ("body-read", r.ttfb_us, r.done_us)]
            for name_, start, end in spans:
                f.write(json.dumps({"request": i, "span": name_,
                                    "parent": None if name_ == "request" else "request",
                                    "start_us": start, "end_us": end, "conn": r.conn,
                                    "op": r.op}) + "\n")


def overhead(untraced_ms, traced_ms):
    if not untraced_ms or not traced_ms:
        return 0.0
    return stats.median(traced_ms) / stats.median(untraced_ms) - 1.0


def query_ok(reply, query, rows, node_ids):
    if reply.status != 200:
        return False
    try:
        result, complete = result_of(reply.body)
    except (ValueError, KeyError):
        return False
    return complete and gen.answer_ok(query, rows, node_ids, result)


def cluster_result(setup_s, latency_ms, ops, window_s, proc0, proc1, attempted, failed,
                   hwm_mb=None):
    """hwm_mb: the daemons' peak memory read during the run, in place of
    the one at its end."""
    cpu_ms = sum(a["cpu_s"] - b["cpu_s"] for b, a in zip(proc0, proc1)) * 1e3
    if hwm_mb is None:
        hwm_mb = sum(a["hwm_mb"] for a in proc1)
    return Result(setup_s, latency_ms, ops, window_s, cpu_ms / ops, hwm_mb, attempted, failed)


def closed_loop(env, name, queries_per_conn, cycle, check_hits, hwm_at=None):
    """Shared body of adhoc and dashboard: closed-loop connections to
    daemon 0, each working through its own query list. With hwm_at,
    rss_mb is read after that many replies (at the end if the window
    ends first)."""
    rows = gen.node_rows(env.seed)
    c, setup_s = boot(env, rows)
    try:
        node_ids = c.node_ids()
        if cycle:
            warm_cache(c, sorted({q for qs in queries_per_conn for q in qs}, key=gen.Query.text),
                       rows, node_ids)
        trace_from = int(env.seconds / 2 * 1e6) if env.trace else 2**63
        plan = env.path(name) + ".plan"
        ops = [(i, None, 0, "GET", clu.query_path(q.text()), None)
               for i, qs in enumerate(queries_per_conn) for q in qs]
        mem_at = hwm_at and f"mem_at {hwm_at} " + " ".join(str(d.proc.pid) for d in c.daemons)
        write_plan(plan, env, trace_from, [c.daemons[0].http],
                   [f"conn closed 0 {int(cycle)}" for _ in queries_per_conn], ops, mem_at=mem_at)
        path, w, proc0, proc1 = measure(env, c, name, plan)
    finally:
        c.stop()
    # Streamed: a dashboard run answers about a million queries. Panels
    # repeat, so each distinct (query, reply) is judged once.
    verdicts, lat, lat_untraced, lat_traced, traced, seen = {}, [], [], [], [], set()
    failed = hits = last = 0
    hwm_mb = None
    for kind, r in iter_loadgen(path):
        if kind == "end":
            last = r
        if kind == "m":
            hwm_mb = sum(r[1:]) / 1024.0
        if kind != "r":
            continue
        key = (r.conn, r.op, r.status, r.body)
        if key not in verdicts:
            verdicts[key] = query_ok(r, queries_per_conn[r.conn][r.op], rows, node_ids)
        failed += not verdicts[key]
        hits += r.cache == "hit"
        seen.add((r.conn, r.op))
        x = (r.done_us - r.sent_us) / 1e3
        if r.ttfb_us:
            lat_traced.append(x)
            if len(traced) < SPAN_CAP:
                traced.append(r)
        else:
            lat_untraced.append(x)
        lat.append(x)
    n = len(lat)
    hit_share = hits / n if n else 0.0
    check_hits(hit_share)
    res = cluster_result(setup_s, lat, n, last / 1e6, proc0, proc1, n, failed, hwm_mb)
    res.findings = [f"wrong answer to {queries_per_conn[conn][op].text()!r}: HTTP {status} {body}"
                    for (conn, op, status, body), good in verdicts.items() if not good]
    res.per_layer = {"check.cache_hit_share": hit_share}
    if env.trace:
        res.per_layer.update(common_layers(env, name, c, w, proc0, proc1, traced, n, last / 1e6,
                                           n_queries=n, n_writes=0, query_us=sum(lat) * 1e3))
        res.per_layer["trace.overhead_p50_share"] = overhead(lat_untraced, lat_traced)
        used = [queries_per_conn[i][j] for i, j in sorted(seen)]
        res.per_layer.update(time_public_functions(
            env, name, [("GET", clu.query_path(q.text()), None) for q in used],
            [q.text() for q in used]))
    res.per_layer.update(read_latencies(lat))
    return res


def read_latencies(lat):
    if not lat:
        return {}
    return {"query_p50_ms": stats.median(lat), "query_tail_ms": stats.tail(lat)[1]}


def common_layers(env, name, c, w, proc0, proc1, traced, n_ops, window_s, n_queries, n_writes,
                  query_us):
    """Per-layer values shared by the cluster workloads; `traced` holds the
    traced replies kept as spans."""
    write_spans(env, name, traced)
    out = layers.from_metrics(w, n_ops, n_queries, n_writes, window_s, len(c.daemons), query_us)
    out.update(layers.from_proc(proc0, proc1, c.node_ids(), window_s))
    out.update(layers.from_client(traced))
    return out


def warm_cache(c, queries, rows, node_ids, deadline_s=20.0):
    """Asks each query at daemon 0 until the gateway serves it from its
    result cache, checking every answer on the way."""
    end = time.monotonic() + deadline_s
    for q in queries:
        while True:
            status, headers, body = clu.http_get(c.daemons[0].http, clu.query_path(q.text()))
            result, complete = result_of(body)
            if status != 200 or not complete or not gen.answer_ok(q, rows, node_ids, result):
                raise RuntimeError(f"warm-up answer to {q.text()!r} is wrong: {body}")
            if headers.get("x-moara-cache") == "hit":
                break
            if time.monotonic() > end:
                raise SelfCheckFailed(f"{q.text()!r} never became a cache hit")
            time.sleep(0.01)


def adhoc(env):
    # Enough distinct queries for 3,000 queries/s, about 20 times what a
    # daemon answers at this commit.
    queries = gen.adhoc_queries(env.seed, int(env.seconds * 3000))

    def check(hit_share):
        if hit_share > 0.01:
            raise SelfCheckFailed(f"adhoc must bypass the cache, but {hit_share:.1%} were hits")

    return closed_loop(env, "adhoc", [queries], cycle=False, check_hits=check,
                       hwm_at=ADHOC_HWM_AT)


def dashboard(env):
    panels = gen.dashboard_panels(env.seed)
    half = len(panels) // 2

    def check(hit_share):
        if hit_share < 0.99:
            raise SelfCheckFailed(f"dashboard must be served from the cache, but only "
                                  f"{hit_share:.1%} were hits")

    return closed_loop(env, "dashboard", [panels, panels[half:] + panels[:half]], cycle=True,
                       check_hits=check)


def churn(env):
    rows = gen.node_rows(env.seed)
    sched = gen.churn_schedule(env.seed, rows, env.seconds, CHURN_OPS_PER_S, CHURN_EPOCH_S,
                               CHURN_START_US)
    c, setup_s = boot(env, rows)
    try:
        node_ids = c.node_ids()
        final = len(sched.states) - 1
        seq, holder = sched.watch_value(final)
        final_text = f'"result":"{seq}%20at%20@{node_ids[holder]:x}"'
        trace_from = CHURN_START_US + int(env.seconds / 2 * 1e6) if env.trace else 2**63
        plan = env.path("churn") + ".plan"
        ops = [(0, op.due_us, op.target, "POST" if op.kind == "write" else "GET",
                "/v1/attrs" if op.kind == "write" else clu.query_path(op.query.text()), op.body)
               for op in sched.ops]
        write_plan(plan, env, trace_from, [d.http for d in c.daemons], ["conn open"], ops,
                   watch=f"watch 0 {clu.watch_path(gen.WATCH_QUERY.text())} {final_text} "
                         f"{WATCH_TAIL_MS}")
        path, w, proc0, proc1 = measure(env, c, "churn", plan)
        converge_failures, converge_checks = converge(c, sched.states[final], node_ids)
    finally:
        c.stop()
    replies, chunks, last = parse_loadgen(path)
    return churn_result(env, c, sched, node_ids, setup_s, replies, chunks, last, w, proc0, proc1,
                        converge_failures, converge_checks)


def converge(c, final_rows, node_ids):
    """Once writes stop, every daemon must give every panel's exact final
    answer within the deadline. Returns (failure descriptions, checks)."""
    end = time.monotonic() + CONVERGE_DEADLINE_S
    pending = {(i, q): "" for i in range(len(c.daemons)) for q in gen.CHURN_PANELS}
    checks = len(pending)
    while pending and time.monotonic() < end:
        for i, q in list(pending):
            status, _, body = clu.http_get(c.daemons[i].http, clu.query_path(q.text()))
            result, complete = result_of(body)
            if status == 200 and complete and gen.answer_ok(q, final_rows, node_ids, result):
                del pending[(i, q)]
            else:
                pending[(i, q)] = body
        if pending:
            time.sleep(0.02)
    return [f"daemon n{node_ids[i]} still answers {q.text()!r} with {body} after "
            f"{CONVERGE_DEADLINE_S}s" for (i, q), body in pending.items()], checks


def churn_result(env, c, sched, node_ids, setup_s, replies, chunks, last, w, proc0, proc1,
                 converge_failures, converge_checks):
    ops = sched.ops
    by_op = {r.op: r for r in replies}
    writes = [(op, by_op.get(i)) for i, op in enumerate(ops) if op.kind == "write"]
    # Writes are sent and answered in order on one connection, so these
    # running counts bound the states a read may observe.
    sent_w = sorted(r.sent_us for _, r in writes if r)
    acked_w = sorted(r.done_us for _, r in writes if r)
    findings = [f"no reply to op {i}" for i in range(len(ops)) if i not in by_op]
    write_ms, read_ms = [], []
    for i, op in enumerate(ops):
        r = by_op.get(i)
        if r is None:
            continue
        if op.kind == "write":
            write_ms.append((r.done_us - r.due_us) / 1e3)
            want = {"ok": True, "set": op.body.count("&") + 1}
            try:
                good = r.status == 200 and json.loads(r.body) == want
            except ValueError:
                good = False
            if not good:
                findings.append(f"write {op.body!r} answered HTTP {r.status} {r.body}")
        else:
            read_ms.append((r.done_us - r.due_us) / 1e3)
            hi = bisect_count(sent_w, r.done_us)
            lo = min(hi, bisect_count(acked_w, r.sent_us - STALENESS_US))
            if not any(query_ok(r, op.query, rows, node_ids) for rows in sched.between(lo, hi)):
                findings.append(f"read {op.query.text()!r} at {r.sent_us}us answered "
                                f"{r.body}, outside states {lo}..{hi}")

    # The watch: every frame must be a state the writes allow, every rise
    # of max(Seq) must show up, and the stream must end on the final truth.
    frames = [f for f in parse_sse(chunks) if f.data is not None]
    allowed = {}
    for rows in sched.between(0, len(sched.states) - 1):
        seq, holder = gen.group_max(rows)
        allowed[seq] = node_ids[holder]
    shown = []
    for f in frames:
        try:
            value, node = split_attributed(json.loads(f.data)["result"])
        except (ValueError, KeyError, TypeError):
            value = node = None
        good = f.event == "message" and value is not None and allowed.get(int(value)) == node
        if not good:
            findings.append(f"watch frame at {f.t_us}us is no allowed state: {f.event} {f.data}")
        shown.append((f.t_us, value if good else None))
    lags, unseen = [], 0
    prev = sched.watch_value(0)[0]
    for op, r in writes:
        seq = sched.watch_value(op.state)[0]
        if seq == prev:
            continue
        prev = seq
        t = next((t for t, v in shown if v is not None and v >= seq), None)
        if t is None:
            unseen += 1
            findings.append(f"write {op.body!r} (max(Seq) = {seq}) never shown on the watch")
        else:
            lags.append((t - op.due_us) / 1e3)
    visible = len(lags) + unseen
    final_seq = sched.watch_value(len(sched.states) - 1)[0]
    final_ok = bool(shown) and shown[-1][1] == final_seq
    if not final_ok:
        findings.append("watch did not end on the final truth")
    findings += converge_failures
    attempted = len(ops) + len(frames) + 1 + converge_checks

    inval = w.get("moara_gateway_cache_invalidations_total")
    seen_share = layers.ratio(len(lags), visible)
    if inval <= 0:
        raise SelfCheckFailed("churn must invalidate cached reads, but no invalidation happened")
    if seen_share < 1.0:
        raise SelfCheckFailed(f"churn must show every write on the watch, but {unseen} of "
                              f"{visible} never appeared")

    window_s = (last - CHURN_START_US) / 1e6
    res = cluster_result(setup_s, lags, len(replies), window_s, proc0, proc1, attempted,
                         len(findings))
    res.findings = findings
    late = [(r.sent_us - r.due_us) / 1e3 for r in replies]
    res.per_layer = {
        "check.watch_seen_share": seen_share,
        "write_p50_ms": stats.median(write_ms),
        "write_tail_ms": stats.tail(write_ms)[1],
        "watch_lag_p50_ms": stats.median(lags),
        "watch_lag_tail_ms": stats.tail(lags)[1],
        "loadgen.late_p99_ms": stats.percentile(late, 99.0),
    }
    res.per_layer.update(read_latencies(read_ms))
    if env.trace:
        n_reads = len(read_ms)
        read_us = sum(read_ms) * 1e3
        traced = [r for r in replies if r.ttfb_us][:SPAN_CAP]
        res.per_layer.update(common_layers(env, "churn", c, w, proc0, proc1, traced, len(replies),
                                           window_s, n_queries=n_reads, n_writes=len(write_ms),
                                           query_us=read_us))
        traced_from = min((r.sent_us for r in replies if r.ttfb_us), default=None)
        if traced_from is not None:
            visible_due = [op.due_us for op, _ in writes
                           if sched.watch_value(op.state)[0] != sched.watch_value(op.state - 1)[0]]
            res.per_layer["trace.overhead_p50_share"] = overhead(
                [x for d, x in zip(visible_due, lags) if d < traced_from],
                [x for d, x in zip(visible_due, lags) if d >= traced_from])
        res.per_layer.update(time_public_functions(
            env, "churn",
            [("POST" if op.kind == "write" else "GET",
              "/v1/attrs" if op.kind == "write" else clu.query_path(op.query.text()), op.body)
             for op in ops],
            [q.text() for q in gen.CHURN_PANELS] + [gen.WATCH_QUERY.text()]))
    return res


def bisect_count(sorted_times, t):
    """How many of sorted_times are <= t."""
    return bisect.bisect_right(sorted_times, t)


def sim_groups(env):
    out_path = env.path("sim-groups") + ".records"
    trace_from = env.seconds / 2 if env.trace else -1
    subprocess.run([env.probe, "sim", str(env.seed), str(env.seconds), str(trace_from), out_path],
                   check=True, timeout=env.seconds + LOADGEN_SLACK_S)
    setups, qs, bad, window, lay, repeat = [], [], [], None, None, None
    # (median wall ms, CPU ms) per query, one pair per block record.
    blocks, block_start = [], 0
    with open(out_path) as f:
        for line in f:
            fld = line.rstrip("\n").split("\t")
            if fld[0] == "setup":
                setups.append(float(fld[1]))
            elif fld[0] == "q":
                qs.append([int(x) for x in fld[1:]])
            elif fld[0] == "block":
                n = len(qs) - block_start
                blocks.append((stats.median([q[0] / 1e6 for q in qs[block_start:]]),
                               int(fld[1]) / 1e6 / n))
                block_start = len(qs)
            elif fld[0] == "bad":
                bad.append("wrong outcome: " + " | ".join(fld[1:]))
            elif fld[0] == "window":
                window = [float(x) for x in fld[1:]]
            elif fld[0] == "layers":
                lay = [float(x) for x in fld[1:]]
            elif fld[0] == "repeat":
                repeat = fld[1] == "1"
    if not repeat:
        raise SelfCheckFailed("sim-groups message counts differ between two clusters built "
                              "from the same seed")
    if len(qs) < SIM_MSGS_PREFIX:
        raise SelfCheckFailed(f"sim-groups ran {len(qs)} queries, fewer than the "
                              f"{SIM_MSGS_PREFIX} its message count is defined over")
    elapsed, cpu_ms, hwm_kb, msgs, nbytes, p_hits, p_miss, size_probes, batched = window
    total_ms = [q[0] / 1e6 for q in qs]
    res = Result(stats.median(setups), total_ms, len(qs), elapsed,
                 stats.percentile([b[1] for b in blocks], SIM_BLOCK_PERCENTILE), hwm_kb / 1024.0,
                 len(qs), len(bad), findings=bad,
                 p50_ms=stats.percentile([b[0] for b in blocks], SIM_BLOCK_PERCENTILE))
    res.per_layer = {
        "check.sim_repeat_exact": 1.0,
        "sim.wall_p50_ms": stats.median(total_ms),
        "sim.cpu_ms_per_query": cpu_ms / len(qs),
        "sim_msgs_per_query": stats.mean([q[6] for q in qs[:SIM_MSGS_PREFIX]]),
        "sim_latency_p50_ms": stats.median([q[5] / 1e3 for q in qs]),
    }
    if env.trace:
        traced = [q for q in qs if q[2] or q[3]]
        untraced = [q for q in qs if not (q[2] or q[3])]
        res.per_layer.update({
            "trace.overhead_p50_share": overhead([q[0] / 1e6 for q in untraced],
                                                 [q[0] / 1e6 for q in traced]),
            "sim.submit_us": stats.mean([q[2] / 1e3 for q in traced]),
            "sim.drive_us": stats.mean([q[3] / 1e3 for q in traced]),
            "sim.bytes_per_query": nbytes / len(qs),
            "core.probe_cache_hit_ratio": layers.ratio(p_hits, p_hits + p_miss),
            "core.size_probes_per_query": size_probes / len(qs),
            "core.batched_fanout_per_query": batched / len(qs),
            "transport.msgs_per_op": msgs / len(qs),
            "transport.bytes_per_op": nbytes / len(qs),
            "query.parse_ns": lay[0] if lay else 0.0,
            "query.plan_ns": lay[1] if lay else 0.0,
        })
    return res


WORKLOADS = {"adhoc": adhoc, "dashboard": dashboard, "churn": churn, "sim-groups": sim_groups}
