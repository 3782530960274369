"""Self-tests for the benchmark's pure pieces.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import layers  # noqa: E402
import prom  # noqa: E402
import stats  # noqa: E402
from records import iter_loadgen, parse_loadgen, parse_sse, split_attributed, unescape  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 11))
        self.assertEqual(stats.percentile(xs, 50), 5)
        self.assertEqual(stats.percentile(xs, 90), 9)
        self.assertEqual(stats.percentile(xs, 99), 10)
        self.assertEqual(stats.percentile(xs, 0), 1)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)
        self.assertEqual(stats.median([5.0]), 5.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_tail_rank_keeps_ten_samples_beyond(self):
        self.assertEqual(stats.tail_rank(100_000), 99.0)
        self.assertEqual(stats.tail_rank(1_000), 99.0)
        self.assertEqual(stats.tail_rank(999), 90.0)
        self.assertEqual(stats.tail_rank(100), 90.0)
        self.assertEqual(stats.tail_rank(99), 50.0)
        self.assertEqual(stats.tail_rank(20), 50.0)
        self.assertIsNone(stats.tail_rank(19))
        p, v = stats.tail(list(range(1000)))
        self.assertEqual((p, v), (99.0, 989))
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 5)


class Oracle(unittest.TestCase):
    rows = [
        gen.Row("a", 10.5, 3, 7, "w", 1),
        gen.Row("b", 20.25, 4, 8, "w", 2),
        gen.Row("b", 20.25, 5, 9, "x", 3),
    ]
    ids = [0, 11, 2]  # protocol ids of the rows' nodes

    def ok(self, agg, attr, pred, result):
        return gen.answer_ok(gen.Query(agg, attr, pred), self.rows, self.ids, result)

    def test_count_and_sum(self):
        b = gen.cmp("Svc", "=", "b")
        self.assertTrue(self.ok("count", None, b, "2"))
        self.assertFalse(self.ok("count", None, b, "3"))
        self.assertTrue(self.ok("sum", "Mem", b, "9"))
        self.assertTrue(self.ok("sum", "Mem", gen.cmp("CPU", ">", 99.0), "0"))
        self.assertTrue(self.ok("count", None, gen.either(gen.cmp("Mem", ">", 4), b), "2"))
        self.assertTrue(self.ok("count", None, gen.both(gen.cmp("Grp", "=", "w"), b), "1"))

    def test_extremes_need_a_holding_node(self):
        b = gen.cmp("Svc", "=", "b")
        # A tie: either holder is a right attribution, ids render in hex.
        self.assertTrue(self.ok("max", "CPU", b, "20.25 at @b"))
        self.assertTrue(self.ok("max", "CPU", b, "20.25 at @2"))
        self.assertFalse(self.ok("max", "CPU", b, "20.25 at @0"))
        self.assertFalse(self.ok("max", "CPU", b, "20.2 at @b"))
        self.assertTrue(self.ok("min", "CPU", gen.cmp("Mem", "<", 100), "10.5 at @0"))
        self.assertTrue(self.ok("max", "CPU", gen.cmp("CPU", ">", 99.0), "(empty)"))
        self.assertFalse(self.ok("max", "CPU", b, "(empty)"))
        self.assertFalse(self.ok("max", "CPU", b, "garbage"))

    def test_query_text(self):
        q = gen.Query("count", None, gen.both(gen.cmp("Svc", "=", "a"), gen.cmp("CPU", "<", 57.3019)))
        self.assertEqual(q.text(), "SELECT count(*) WHERE Svc = 'a' AND CPU < 57.3019")
        self.assertEqual(gen.Query("max", "Seq", gen.cmp("Grp", "=", "w")).text(),
                         "SELECT max(Seq) WHERE Grp = 'w'")


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for seed in (1, 2):
            self.assertEqual(gen.node_rows(seed), gen.node_rows(seed))
            self.assertEqual(gen.adhoc_queries(seed, 200), gen.adhoc_queries(seed, 200))
            self.assertEqual(gen.dashboard_panels(seed), gen.dashboard_panels(seed))
            a = gen.churn_schedule(seed, gen.node_rows(seed), 2.0, 100, 1.0, 0)
            b = gen.churn_schedule(seed, gen.node_rows(seed), 2.0, 100, 1.0, 0)
            self.assertEqual(a, b)
        self.assertNotEqual(gen.node_rows(1), gen.node_rows(2))
        self.assertNotEqual(gen.adhoc_queries(1, 50), gen.adhoc_queries(2, 50))

    def test_adhoc_texts_never_repeat(self):
        texts = [q.text() for q in gen.adhoc_queries(3, 5000)]
        self.assertEqual(len(texts), len(set(texts)))
        self.assertTrue(any(" AND " in t for t in texts) and any(" OR " in t for t in texts))
        self.assertTrue(any(" AND " not in t and " OR " not in t for t in texts))

    def test_churn_watch_value_only_rises_and_group_churns(self):
        for seed in range(5):
            rows = gen.node_rows(seed)
            sched = gen.churn_schedule(seed, rows, 10.0, 100, 1.0, 300_000)
            values = [sched.watch_value(j)[0] for j in range(len(sched.states))]
            self.assertTrue(all(b >= a for a, b in zip(values, values[1:])))
            rises = sum(b > a for a, b in zip(values, values[1:]))
            writes = [op for op in sched.ops if op.kind == "write"]
            self.assertGreater(rises, len(writes) * 0.8)
            sizes = {sum(r.Grp == gen.MEMBER for r in s) for s in sched.states}
            self.assertGreater(len(sizes), 1, "group membership never changed")
            self.assertEqual(len({op.target for op in sched.ops}), gen.NODES)
            dues = [op.due_us for op in sched.ops]
            self.assertEqual(dues, sorted(dues))

    def test_multi_attribute_writes_allow_either_half_first(self):
        rows = gen.node_rows(0)
        sched = gen.churn_schedule(0, rows, 10.0, 100, 1.0, 0)
        joins = [op for op in sched.ops if op.kind == "write" and "&" in op.body]
        self.assertTrue(joins, "no write joined the group")
        j = joins[0].state
        seen = sched.between(j - 1, j)
        self.assertEqual(len(seen), 4, "states j-1 and j plus one partial per attribute")
        node = joins[0].target
        grp_only = [r for r in seen if r[node].Grp == gen.MEMBER
                    and r[node].Seq == sched.states[j - 1][node].Seq]
        self.assertEqual(len(grp_only), 1)


class Metrics(unittest.TestCase):
    A0 = """# HELP moara_x_total x
# TYPE moara_x_total counter
moara_x_total 5
moara_lat_us_sum{endpoint="query"} 100
moara_lat_us_count{endpoint="query"} 4
moara_lat_us_sum{endpoint="attrs"} 7
moara_lat_us_count{endpoint="attrs"} 1
moara_lat_us_bucket{endpoint="query",le="+Inf"} 4
moara_info{version="0.2.0",profile="release"} 1
"""
    A1 = A0.replace("moara_x_total 5", "moara_x_total 9").replace(
        'sum{endpoint="query"} 100', 'sum{endpoint="query"} 400').replace(
        'count{endpoint="query"} 4', 'count{endpoint="query"} 10')

    def test_parse_keys_by_sorted_label_set(self):
        m = prom.parse(self.A0)
        self.assertEqual(m[("moara_x_total", ())], 5.0)
        self.assertEqual(m[("moara_info", (("profile", "release"), ("version", "0.2.0")))], 1.0)
        self.assertEqual(m[("moara_lat_us_bucket", (("endpoint", "query"), ("le", "+Inf")))], 4.0)
        with self.assertRaises(ValueError):
            prom.parse("not a sample line!")

    def test_window_sums_deltas_over_daemons(self):
        w = prom.Window([self.A0, self.A0], [self.A1, self.A0])
        self.assertEqual(w.get("moara_x_total"), 4.0)
        self.assertEqual(w.get("moara_lat_us_count", endpoint="query"), 6.0)
        self.assertEqual(w.hist_mean("moara_lat_us", endpoint="query"), 50.0)
        self.assertEqual(w.hist_mean("moara_lat_us", endpoint="attrs"), 0.0)
        self.assertEqual(w.get("moara_absent_total"), 0.0)

    def test_ledger_unattributed_share(self):
        phase = "moara_query_phase_latency_us"
        before = "\n".join(f'{phase}_sum{{phase="{p}"}} 0' for p in layers.PHASES)
        after = "\n".join(f'{phase}_sum{{phase="{p}"}} {v}' for p, v in
                          zip(layers.PHASES, (10, 20, 999, 999, 999, 570)))
        w = prom.Window([before], [after])
        out = layers.from_metrics(w, n_ops=10, n_queries=10, n_writes=0, window_s=1.0,
                                  n_daemons=1, client_query_us=1200.0)
        # parse + plan + reply = 600 of the 1200 µs the client waited.
        self.assertAlmostEqual(out["ledger.unattributed_share"], 0.5)


class Frames(unittest.TestCase):
    def test_sse_frames_split_across_chunks(self):
        chunks = [
            (5, "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\r\n"),
            (9, 'data: {"result":"3 at @0","initial":true,"complete":true}\n'),
            (12, "\n: keepalive\n\ndata: {\"result\":\"17 at @1f\","),
            (20, '"initial":false,"complete":true}\n\nevent: error\ndata: gone\n\n'),
        ]
        frames = parse_sse(chunks)
        self.assertEqual([f.t_us for f in frames], [12, 12, 20, 20])
        self.assertEqual(json.loads(frames[0].data)["result"], "3 at @0")
        self.assertIsNone(frames[1].data, "comment-only frames carry no data")
        self.assertEqual(split_attributed(json.loads(frames[2].data)["result"]), (17.0, 31))
        self.assertEqual((frames[3].event, frames[3].data), ("error", "gone"))

    def test_attribution(self):
        self.assertEqual(split_attributed("98.9722 at @3"), (98.9722, 3))
        self.assertEqual(split_attributed("186"), (186.0, None))
        self.assertEqual(split_attributed("(empty)"), (None, None))
        with self.assertRaises(ValueError):
            split_attributed("17 at somewhere")

    def test_loadgen_records(self):
        text = ('r\t1\t4\t10\t11\t0\t90\t200\thit\t{"result":"2","complete":true}\n'
                'c\t50\tdata: x\\n\\n\n'
                'r\t1\t4\t91.25\t91.25\t95.5\t99.125\t200\thit\t=\n'
                'm\t2\t4096\t5120\n'
                'end\t99.125\n')
        with tempfile.NamedTemporaryFile("w", suffix=".records", dir=HERE) as f:
            f.write(text)
            f.flush()
            replies, chunks, last = parse_loadgen(f.name)
            marks = [x for kind, x in iter_loadgen(f.name) if kind == "m"]
        self.assertEqual((replies[0].conn, replies[0].op, replies[0].cache), (1, 4, "hit"))
        self.assertEqual(replies[1].body, replies[0].body, "'=' repeats the op's last body")
        self.assertEqual(replies[1].ttfb_us, 95.5, "times keep their sub-µs digits")
        self.assertEqual(chunks, [(50, "data: x\n\n")])
        self.assertEqual(marks, [[2, 4096, 5120]], "replies, then VmHWM kB per daemon")
        self.assertEqual(last, 99.125)
        self.assertEqual(unescape("a\\tb\\\\n"), "a\tb\\n")


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(n, u) for n, u, _ in layers.LEDGER])
        import workloads
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))
        res = workloads.Result(1.0, [1.0] * 100, 100, 1.0, 0.05, 20.0, 100, 0)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: u for k, (_, u) in res.end_to_end().items()})
        self.assertEqual([m["better"] for m in spec["per_layer"]],
                         ["higher" if n in layers.HIGHER_IS_BETTER else "lower"
                          for n, _, _ in layers.LEDGER])
        with self.assertRaises(KeyError):
            layers.finish({"no.such.metric": 1.0})


if __name__ == "__main__":
    unittest.main()
