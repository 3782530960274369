//! The `sim-groups` workload: the in-process simulator at paper scale.
//!
//! 1024 nodes with the default `MoaraConfig` each belong to one of 16
//! groups (attribute `G`) and carry `CPU` (float) and `Mem` (integer).
//! A deterministic stream, generated from the seed, mixes simple and
//! composite group queries issued from rotating front-ends, with a group
//! move (`set_attr` of `G`) before every 16th query. Every outcome is
//! checked against the stream's own attribute table.
//!
//! Output lines (tab-separated): `setup SECONDS` per build (two before the
//! window, the rest spread over it), `repeat 0|1` (whether a second
//! cluster built from the same seed spent exactly the same messages on
//! every query of the check prefix), `q TOTAL_NS PARSE_NS SUBMIT_NS
//! DRIVE_NS TAKE_NS SIM_LATENCY_US MESSAGES OK` per query (the split is 0
//! unless the query was traced), `bad I TEXT GOT EXPECTED` per wrong
//! answer, `block CPU_NS` after every `BLOCK` queries (the process CPU
//! time those queries took), `window SECONDS CPU_MS HWM_KB MESSAGES BYTES
//! PROBE_HITS PROBE_MISSES SIZE_PROBES BATCHED` (time and CPU without the
//! builds, peak memory after `HWM_AT` queries), and in traced runs
//! `layers PARSE_NS PLAN_NS` over the traced queries' texts.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use moara_core::aggregation::{AggResult, NodeRef, Value};
use moara_core::simnet::NodeId;
use moara_core::Cluster;

const NODES: usize = 1024;
const GROUPS: u64 = 16;
const CHURN_EVERY: usize = 16;
/// Queries compared between two clusters built from the same seed.
const REPEAT_PREFIX: usize = 128;
/// Builds per run; the set-up time reported is their median.
const BUILDS: usize = 25;
/// Peak memory is read after this many queries: the simulator keeps
/// state per distinct predicate, so its memory grows with the queries run.
const HWM_AT: usize = 4096;
/// Queries per `block` record; the benchmark reports per-query wall and
/// CPU time from its quietest blocks (`perfbench/workloads.py`).
const BLOCK: usize = 256;

/// splitmix64: a small, fixed generator, so the inputs depend on the seed
/// alone and not on any library's RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    /// A value in [0, 100) with four decimals, e.g. 57.3019.
    fn cpu(&mut self) -> f64 {
        self.below(1_000_000) as f64 / 10_000.0
    }
}

#[derive(Clone, Copy)]
struct Row {
    g: i64,
    cpu: f64,
    mem: i64,
}

#[derive(Clone, Copy)]
enum Pred {
    Group(i64),
    GroupCpuBelow(i64, f64),
    GroupMemAbove(i64, i64),
    EitherGroup(i64, i64),
}

impl Pred {
    fn eval(self, r: &Row) -> bool {
        match self {
            Pred::Group(g) => r.g == g,
            Pred::GroupCpuBelow(g, t) => r.g == g && r.cpu < t,
            Pred::GroupMemAbove(g, m) => r.g == g && r.mem > m,
            Pred::EitherGroup(a, b) => r.g == a || r.g == b,
        }
    }
    fn text(self) -> String {
        match self {
            Pred::Group(g) => format!("G = {g}"),
            Pred::GroupCpuBelow(g, t) => format!("G = {g} AND CPU < {t}"),
            Pred::GroupMemAbove(g, m) => format!("G = {g} AND Mem > {m}"),
            Pred::EitherGroup(a, b) => format!("G = {a} OR G = {b}"),
        }
    }
}

#[derive(Clone, Copy)]
enum Agg {
    Count,
    SumMem,
    MaxCpu,
    MinCpu,
}

/// One step of the deterministic stream: an optional group move, then a
/// query from `origin`.
struct Step {
    churn: Option<(usize, i64)>,
    origin: usize,
    agg: Agg,
    pred: Pred,
}

impl Step {
    fn text(&self) -> String {
        let head = match self.agg {
            Agg::Count => "count(*)",
            Agg::SumMem => "sum(Mem)",
            Agg::MaxCpu => "max(CPU)",
            Agg::MinCpu => "min(CPU)",
        };
        format!("SELECT {head} WHERE {}", self.pred.text())
    }
}

fn initial_table(rng: &mut Rng) -> Vec<Row> {
    (0..NODES)
        .map(|_| Row {
            g: rng.below(GROUPS) as i64,
            cpu: rng.cpu(),
            mem: 1 + rng.below(64) as i64,
        })
        .collect()
}

fn step(rng: &mut Rng, i: usize) -> Step {
    let churn = (i % CHURN_EVERY == CHURN_EVERY - 1)
        .then(|| (rng.below(NODES as u64) as usize, rng.below(GROUPS) as i64));
    let g = rng.below(GROUPS) as i64;
    let pred = match rng.below(4) {
        0 => Pred::Group(g),
        1 => Pred::GroupCpuBelow(g, rng.cpu()),
        2 => Pred::GroupMemAbove(g, rng.below(64) as i64),
        _ => Pred::EitherGroup(g, ((g as u64 + 1 + rng.below(GROUPS - 1)) % GROUPS) as i64),
    };
    let agg = [Agg::Count, Agg::SumMem, Agg::MaxCpu, Agg::MinCpu][rng.below(4) as usize];
    Step {
        churn,
        // Rotating front-ends: a stride co-prime with the node count.
        origin: (i * 389) % NODES,
        agg,
        pred,
    }
}

/// Checks one outcome against the table; `None` when it is right.
fn wrong(table: &[Row], s: &Step, got: &AggResult) -> Option<String> {
    let members: Vec<usize> = (0..table.len())
        .filter(|&n| s.pred.eval(&table[n]))
        .collect();
    let extreme = |max: bool| {
        members
            .iter()
            .map(|&n| table[n].cpu)
            .reduce(|a, b| if (b > a) == max { b } else { a })
    };
    let ok = match (s.agg, got) {
        (Agg::Count, AggResult::Value(Value::Int(c))) => *c == members.len() as i64,
        (Agg::SumMem, AggResult::Value(Value::Int(v))) => {
            *v == members.iter().map(|&n| table[n].mem).sum::<i64>()
        }
        (Agg::MaxCpu | Agg::MinCpu, AggResult::Empty) => members.is_empty(),
        (agg, AggResult::Attributed(Value::Float(v), NodeRef(n))) => {
            let want = extreme(matches!(agg, Agg::MaxCpu));
            let n = *n as usize;
            want == Some(*v) && n < table.len() && members.contains(&n) && table[n].cpu == *v
        }
        _ => false,
    };
    (!ok).then(|| {
        let want = match s.agg {
            Agg::Count => members.len().to_string(),
            Agg::SumMem => members
                .iter()
                .map(|&n| table[n].mem)
                .sum::<i64>()
                .to_string(),
            Agg::MaxCpu => format!("{:?}", extreme(true)),
            Agg::MinCpu => format!("{:?}", extreme(false)),
        };
        format!("{got}\t{want}")
    })
}

fn build(seed: u64, table: &[Row]) -> Result<(Cluster, f64), String> {
    let t = Instant::now();
    let mut c = Cluster::builder().nodes(NODES).seed(seed).build();
    for (i, r) in table.iter().enumerate() {
        let node = NodeId(i as u32);
        c.set_attr(node, "G", r.g);
        c.set_attr(node, "CPU", r.cpu);
        c.set_attr(node, "Mem", r.mem);
    }
    c.run_to_quiescence();
    let check = c
        .query(NodeId(0), "SELECT count(*) WHERE G = 0")
        .map_err(|e| e.to_string())?;
    let want = table.iter().filter(|r| r.g == 0).count() as i64;
    if !matches!(check.result, AggResult::Value(Value::Int(n)) if n == want) || !check.complete {
        return Err(format!(
            "set-up check query answered {} (want {want})",
            check.result
        ));
    }
    c.stats_mut().reset();
    Ok((c, t.elapsed().as_secs_f64()))
}

/// Per-query wall-clock split, in nanoseconds.
#[derive(Default)]
struct Split {
    parse: u64,
    submit: u64,
    drive: u64,
    take: u64,
}

/// Applies the step's churn, then runs its query. Returns the outcome and,
/// in traced runs, the per-step split of the wall time.
fn run_step(
    c: &mut Cluster,
    table: &mut [Row],
    s: &Step,
    traced: bool,
) -> Result<(moara_core::QueryOutcome, Split), String> {
    if let Some((node, g)) = s.churn {
        table[node].g = g;
        c.set_attr(NodeId(node as u32), "G", g);
        c.run_to_quiescence();
    }
    let mut split = Split::default();
    let lap = |t: &mut Instant| {
        let now = Instant::now();
        let d = now.duration_since(*t).as_nanos() as u64;
        *t = now;
        d
    };
    let mut t = Instant::now();
    let text = s.text();
    let query = moara_core::query::parse_query(&text).map_err(|e| format!("{text}: {e}"))?;
    if traced {
        split.parse = lap(&mut t);
    }
    let origin = NodeId(s.origin as u32);
    let fid = c.submit(origin, query);
    if traced {
        split.submit = lap(&mut t);
    }
    c.run_to_quiescence();
    if traced {
        split.drive = lap(&mut t);
    }
    let out = c
        .take_outcome(origin, fid)
        .ok_or_else(|| format!("no outcome for {text} under quiescence"))?;
    if traced {
        split.take = lap(&mut t);
    }
    Ok((out, split))
}

pub fn run(seed: &str, seconds: &str, trace_from: &str, out_path: &str) -> Result<(), String> {
    let seed: u64 = seed.parse().map_err(|_| "seed must be an integer")?;
    let seconds: f64 = seconds.parse().map_err(|_| "seconds must be a number")?;
    // Queries issued this many seconds into the window or later are
    // traced; a negative value traces none.
    let trace_from: f64 = trace_from
        .parse()
        .map_err(|_| "trace start must be a number")?;
    let mut out = String::new();

    let mut rng = Rng(seed);
    let table0 = initial_table(&mut rng);
    let stream_seed = rng.next();

    // The first cluster runs the check prefix, so message counts can be
    // compared exactly with the measured cluster built next.
    let (mut check, secs) = build(seed, &table0)?;
    writeln!(out, "setup\t{secs}").expect("write to String");
    let prefix_msgs = {
        let (mut table, mut srng) = (table0.clone(), Rng(stream_seed));
        (0..REPEAT_PREFIX)
            .map(|i| {
                let s = step(&mut srng, i);
                Ok(run_step(&mut check, &mut table, &s, false)?.0.messages)
            })
            .collect::<Result<Vec<_>, String>>()?
    };
    drop(check);
    let (mut c, secs) = build(seed, &table0)?;
    writeln!(out, "setup\t{secs}").expect("write to String");

    // The other builds are spread over the window, between blocks and
    // outside their times, so their median is not a sample of one
    // moment of the host; they start once memory has been read.
    let window = Duration::from_secs_f64(seconds);
    let build_every = window / BUILDS as u32;
    let mut builds = 2;
    let mut next_build = build_every;
    let (mut build_cpu_ns, mut build_wall) = (0, Duration::ZERO);
    let mut hwm_kb = None;

    let mut table = table0.clone();
    let mut srng = Rng(stream_seed);
    let mut texts = Vec::new();
    let mut repeat = true;
    let cpu0 = crate::self_cpu_ns()?;
    let mut block_cpu0 = cpu0;
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < window || i < REPEAT_PREFIX {
        let s = step(&mut srng, i);
        let t = Instant::now();
        let traced = trace_from >= 0.0 && t.duration_since(start).as_secs_f64() >= trace_from;
        let (outcome, split) = run_step(&mut c, &mut table, &s, traced)?;
        let total = t.elapsed().as_nanos();
        if i < REPEAT_PREFIX && prefix_msgs[i] != outcome.messages {
            repeat = false;
        }
        let bad = if outcome.complete {
            wrong(&table, &s, &outcome.result)
        } else {
            Some(format!("incomplete {}\t-", outcome.result))
        };
        writeln!(
            out,
            "q\t{total}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            split.parse,
            split.submit,
            split.drive,
            split.take,
            outcome.latency().as_micros(),
            outcome.messages,
            u8::from(bad.is_none())
        )
        .expect("write to String");
        if let Some(b) = bad {
            writeln!(out, "bad\t{i}\t{}\t{b}", s.text()).expect("write to String");
        }
        if traced {
            texts.push(s.text());
        }
        i += 1;
        if i == HWM_AT {
            hwm_kb = Some(crate::peak_kb(None)?);
        }
        if i.is_multiple_of(BLOCK) {
            let now = crate::self_cpu_ns()?;
            writeln!(out, "block\t{}", now - block_cpu0).expect("write to String");
            block_cpu0 = now;
            if hwm_kb.is_some() && builds < BUILDS && start.elapsed() >= next_build {
                let t = Instant::now();
                let (extra, secs) = build(seed, &table0)?;
                drop(extra);
                writeln!(out, "setup\t{secs}").expect("write to String");
                builds += 1;
                next_build += build_every;
                build_wall += t.elapsed();
                block_cpu0 = crate::self_cpu_ns()?;
                build_cpu_ns += block_cpu0 - now;
            }
        }
    }
    let elapsed = (start.elapsed() - build_wall).as_secs_f64();
    let cpu_ms = (crate::self_cpu_ns()? - cpu0 - build_cpu_ns) as f64 / 1e6;
    let hwm_kb = match hwm_kb {
        Some(kb) => kb,
        None => crate::peak_kb(None)?,
    };
    let st = c.stats();
    writeln!(out, "repeat\t{}", u8::from(repeat)).expect("write to String");
    writeln!(
        out,
        "window\t{elapsed}\t{cpu_ms}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        hwm_kb,
        st.total_messages(),
        st.total_bytes(),
        st.counter("probe_cache_hits"),
        st.counter("probe_cache_misses"),
        st.counter("size_probes"),
        st.counter("batched_fanout"),
    )
    .expect("write to String");
    if !texts.is_empty() {
        let (parse_ns, plan_ns) = crate::layers::time_query_layers(&texts)?;
        writeln!(out, "layers\t{parse_ns}\t{plan_ns}").expect("write to String");
    }
    std::fs::write(out_path, out).map_err(|e| format!("{out_path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_function_of_the_seed() {
        let texts = |seed| {
            let mut r = Rng(seed);
            let t = initial_table(&mut r);
            let mut s = Rng(r.next());
            let q: Vec<String> = (0..50).map(|i| step(&mut s, i).text()).collect();
            (
                t.iter()
                    .map(|r| (r.g, r.cpu.to_bits(), r.mem))
                    .collect::<Vec<_>>(),
                q,
            )
        };
        assert_eq!(texts(7), texts(7));
        assert_ne!(texts(7), texts(8));
    }

    #[test]
    fn oracle_accepts_right_and_rejects_wrong_answers() {
        let table = vec![
            Row {
                g: 1,
                cpu: 10.5,
                mem: 3,
            },
            Row {
                g: 1,
                cpu: 20.25,
                mem: 4,
            },
            Row {
                g: 2,
                cpu: 30.0,
                mem: 5,
            },
        ];
        let q = |agg, pred| Step {
            churn: None,
            origin: 0,
            agg,
            pred,
        };
        let count = q(Agg::Count, Pred::Group(1));
        assert!(wrong(&table, &count, &AggResult::Value(Value::Int(2))).is_none());
        assert!(wrong(&table, &count, &AggResult::Value(Value::Int(3))).is_some());
        let max = q(Agg::MaxCpu, Pred::Group(1));
        let at = |v, n| AggResult::Attributed(Value::Float(v), NodeRef(n));
        assert!(wrong(&table, &max, &at(20.25, 1)).is_none());
        assert!(
            wrong(&table, &max, &at(20.25, 0)).is_some(),
            "attributed to the wrong node"
        );
        assert!(wrong(&table, &max, &at(10.5, 0)).is_some());
        let none = q(Agg::MinCpu, Pred::GroupCpuBelow(2, 1.0));
        assert!(wrong(&table, &none, &AggResult::Empty).is_none());
        let sum = q(Agg::SumMem, Pred::EitherGroup(1, 2));
        assert!(wrong(&table, &sum, &AggResult::Value(Value::Int(12))).is_none());
    }
}
