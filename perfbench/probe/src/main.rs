//! Native half of the repository benchmark (`perfbench/run.py` drives it).
//!
//! ```text
//! moara-perfbench-probe loadgen PLAN OUT   # run an HTTP request plan
//! moara-perfbench-probe layers INPUT       # time public functions
//! moara-perfbench-probe sim SEED SECONDS TRACE_FROM OUT   # simulator workload
//! ```
//!
//! Every subcommand writes plain tab-separated records that the Python
//! side parses, checks against its oracle and turns into metrics.

mod layers;
mod loadgen;
mod sim;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("loadgen") if args.len() == 3 => loadgen::run(&args[1], &args[2]),
        Some("layers") if args.len() == 2 => layers::run(&args[1]),
        Some("sim") if args.len() == 5 => sim::run(&args[1], &args[2], &args[3], &args[4]),
        _ => Err(
            "usage: moara-perfbench-probe loadgen PLAN OUT | layers INPUT | \
                  sim SEED SECONDS TRACE_FROM OUT"
                .to_string(),
        ),
    };
    if let Err(e) = result {
        eprintln!("moara-perfbench-probe: {e}");
        std::process::exit(1);
    }
}

/// Escapes tabs, newlines and backslashes so a byte string fits in one
/// tab-separated field (`perfbench/records.py` reverses it).
pub fn escape(bytes: &[u8]) -> String {
    let text = String::from_utf8_lossy(bytes);
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// CPU time (user + system) this process has used, in nanoseconds.
pub fn self_cpu_ns() -> Result<u64, String> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: clock_gettime writes one timespec into the struct it is given.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return Err(format!("CPU clock: {}", std::io::Error::last_os_error()));
    }
    Ok(ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
}

/// Peak resident set size (`VmHWM`), in kB, of process `pid` (`None`:
/// this one).
pub fn peak_kb(pid: Option<u32>) -> Result<u64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM"))
}
