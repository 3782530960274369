//! Times public functions of the gateway and query crates on a
//! workload's own inputs, from outside the daemon.
//!
//! Input lines: `req METHOD PATH BODY` (the exact requests the load
//! generator sent) and `q TEXT` (the decoded query texts). Output: one
//! `NAME NS_PER_CALL` line per function.

use std::hint::black_box;
use std::time::{Duration, Instant};

use moara_core::query::{choose_cover, parse_query};
use moara_gateway::http::{parse_request, ParseStep};

/// Wall time spent on each function; long enough to average out timer
/// granularity and short enough to keep a traced run brief.
const BUDGET: Duration = Duration::from_millis(200);

/// Calls `f` on every input, round after round, until the budget is
/// spent; returns nanoseconds per call.
fn time_each<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < BUDGET {
        for x in inputs {
            f(x);
        }
        calls += inputs.len() as u64;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Times `parse_query`, and CNF conversion plus cover choice as the
/// planner's two steps, over `texts`. Returns (parse ns, plan ns).
pub fn time_query_layers(texts: &[String]) -> Result<(f64, f64), String> {
    let mut parsed = Vec::with_capacity(texts.len());
    for t in texts {
        parsed.push(parse_query(t).map_err(|e| format!("query {t:?}: {e}"))?);
    }
    let parse_ns = time_each(texts, |t| {
        black_box(parse_query(black_box(t)).ok());
    });
    let plan_ns = time_each(&parsed, |q| {
        if let Ok(cnf) = black_box(q).predicate.to_cnf() {
            black_box(choose_cover(&cnf, |p| p.key().len() as u64));
        }
    });
    Ok((parse_ns, plan_ns))
}

pub fn run(input_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(input_path).map_err(|e| format!("{input_path}: {e}"))?;
    let mut requests = Vec::new();
    let mut queries = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("req ") {
            let f: Vec<&str> = rest.split(' ').collect();
            let [method, path, body] = f.as_slice() else {
                return Err(format!("bad layers line: {line}"));
            };
            let body = if *body == "-" { "" } else { body };
            let mut req = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
            if !body.is_empty() {
                req.push_str(&format!("Content-Length: {}\r\n", body.len()));
            }
            req.push_str("\r\n");
            req.push_str(body);
            if !matches!(parse_request(req.as_bytes()), ParseStep::Done { .. }) {
                return Err(format!("gateway parser rejects {req:?}"));
            }
            requests.push(req.into_bytes());
        } else if let Some(q) = line.strip_prefix("q ") {
            queries.push(q.to_string());
        }
    }
    let http_ns = time_each(&requests, |r| {
        black_box(parse_request(black_box(r)));
    });
    let norm_ns = time_each(&queries, |q| {
        black_box(moara_gateway::normalize(black_box(q)));
    });
    let (parse_ns, plan_ns) = time_query_layers(&queries)?;
    println!("http_parse_ns\t{http_ns}");
    println!("normalize_ns\t{norm_ns}");
    println!("query_parse_ns\t{parse_ns}");
    println!("query_plan_ns\t{plan_ns}");
    Ok(())
}
