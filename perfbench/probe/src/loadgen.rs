//! Single-threaded HTTP load generator over `ppoll(2)`.
//!
//! The plan file (written by `perfbench/plan.py`) is line based:
//!
//! ```text
//! seconds 10.0
//! trace_from_us US                    # replies to ops sent from then on
//!                                       # record their first-byte time
//! target 127.0.0.1:8101                 # index = order of appearance
//! conn closed TARGET CYCLE              # a closed-loop connection
//! conn open                             # the open-loop connection
//! watch TARGET PATH FINAL TAIL_MS       # an SSE stream (open loop only)
//! mem_at REPLIES PID...                 # when to read the daemons' memory
//! op CONN DUE_US TARGET METHOD PATH BODY   # BODY is `-` when empty
//! ```
//!
//! A closed-loop connection sends its next op when the previous reply
//! is complete and cycles through its ops when `CYCLE` is 1. The
//! open-loop connection sends each op at its due time (pipelined on the
//! keep-alive connection, reconnecting when the op names another
//! target) and is timed from that due time. The watch stream's raw bytes
//! are recorded with their arrival times; once every op is answered the
//! run ends as soon as the stream holds `FINAL` or `TAIL_MS` passes.
//!
//! Output records, one per line, times in microseconds (to the
//! nanosecond) from the start:
//! `r CONN OP DUE SENT TTFB DONE STATUS CACHE BODY` per reply (BODY is
//! `=` when it repeats the previous reply body to the same op),
//! `c TIME BYTES` per chunk read from the watch stream, `m REPLIES
//! HWM_KB...` (`VmHWM` of each `mem_at` process, in its order) once that
//! many replies have arrived, and a final `end LAST_REPLY_US`.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use crate::escape;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
/// How long a closed-loop run waits for replies still in flight when its
/// window ends.
const DRAIN: Duration = Duration::from_secs(10);

struct Op {
    due_us: Option<u64>,
    target: usize,
    request: Vec<u8>,
}

struct Conn {
    open_loop: bool,
    cycle: bool,
    target: usize,
    ops: Vec<Op>,
    next: usize,
    stream: Option<TcpStream>,
    rbuf: Vec<u8>,
    /// Sent but unanswered: (op index, due, sent, first byte).
    inflight: VecDeque<(usize, f64, f64, f64)>,
    /// The last reply body per op, so a repeated body is recorded as `=`.
    last_body: HashMap<usize, Vec<u8>>,
}

struct Watch {
    target: usize,
    path: String,
    final_text: String,
    tail: Duration,
}

struct Plan {
    seconds: f64,
    trace_from_us: u64,
    targets: Vec<String>,
    conns: Vec<Conn>,
    watch: Option<Watch>,
    /// After how many replies to read the peak memory of `mem_pids`.
    mem_at: Option<usize>,
    mem_pids: Vec<u32>,
}

fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    if body == "-" {
        format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
    } else {
        format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\n\
             Content-Type: application/x-www-form-urlencoded\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }
}

fn parse_plan(text: &str) -> Result<Plan, String> {
    let mut plan = Plan {
        seconds: 0.0,
        trace_from_us: u64::MAX,
        targets: Vec::new(),
        conns: Vec::new(),
        watch: None,
        mem_at: None,
        mem_pids: Vec::new(),
    };
    for (n, line) in text.lines().enumerate() {
        let f: Vec<&str> = line.split(' ').collect();
        let bad = || format!("plan line {}: {line}", n + 1);
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
        match f.as_slice() {
            ["seconds", s] => plan.seconds = s.parse().map_err(|_| bad())?,
            ["trace_from_us", t] => plan.trace_from_us = num(t)?,
            ["target", addr] => plan.targets.push(addr.to_string()),
            ["conn", "closed", t, c] => {
                plan.conns
                    .push(Conn::new(false, *c == "1", num(t)? as usize))
            }
            ["conn", "open"] => plan.conns.push(Conn::new(true, false, 0)),
            ["watch", t, path, fin, tail] => {
                plan.watch = Some(Watch {
                    target: num(t)? as usize,
                    path: path.to_string(),
                    final_text: fin.replace("%20", " "),
                    tail: Duration::from_millis(num(tail)?),
                })
            }
            ["mem_at", n, pids @ ..] => {
                plan.mem_at = Some(num(n)? as usize);
                plan.mem_pids = pids
                    .iter()
                    .map(|p| p.parse().map_err(|_| bad()))
                    .collect::<Result<_, _>>()?;
            }
            ["op", c, due, t, method, path, body] => {
                let conn = plan.conns.get_mut(num(c)? as usize).ok_or_else(bad)?;
                conn.ops.push(Op {
                    due_us: if *due == "-" { None } else { Some(num(due)?) },
                    target: num(t)? as usize,
                    request: request_bytes(method, path, body),
                });
            }
            [""] => {}
            _ => return Err(bad()),
        }
    }
    let all_targets = plan
        .conns
        .iter()
        .flat_map(|c| c.ops.iter().map(|o| o.target));
    if all_targets
        .chain(plan.watch.iter().map(|w| w.target))
        .any(|t| t >= plan.targets.len())
    {
        return Err("plan names an unknown target".into());
    }
    Ok(plan)
}

impl Conn {
    fn new(open_loop: bool, cycle: bool, target: usize) -> Conn {
        Conn {
            open_loop,
            cycle,
            target,
            ops: Vec::new(),
            next: 0,
            stream: None,
            rbuf: Vec::new(),
            inflight: VecDeque::new(),
            last_body: HashMap::new(),
        }
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(s)
}

/// Splits one complete HTTP response off the front of `buf`:
/// (bytes used, status, `X-Moara-Cache` value, body).
fn take_response(buf: &[u8]) -> Option<(usize, u16, String, Vec<u8>)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let mut len = 0usize;
    let mut cache = "-".to_string();
    for line in head.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            match k.trim().to_ascii_lowercase().as_str() {
                "content-length" => len = v.trim().parse().ok()?,
                "x-moara-cache" => cache = v.trim().to_string(),
                _ => {}
            }
        }
    }
    (buf.len() >= head_end + len).then(|| {
        (
            head_end + len,
            status,
            cache,
            buf[head_end..head_end + len].to_vec(),
        )
    })
}

pub fn run(plan_path: &str, out_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(plan_path).map_err(|e| format!("{plan_path}: {e}"))?;
    let mut plan = parse_plan(&text)?;
    let mut out = String::new();

    let mut watch_stream = None;
    if let Some(w) = &plan.watch {
        let mut s = connect(&plan.targets[w.target])?;
        s.write_all(&request_bytes("GET", &w.path, "-"))
            .map_err(|e| e.to_string())?;
        watch_stream = Some(s);
    }
    for c in plan.conns.iter_mut().filter(|c| !c.open_loop) {
        c.stream = Some(connect(&plan.targets[c.target])?);
    }

    let start = Instant::now();
    let us = |t: Instant| t.duration_since(start).as_nanos() as f64 / 1e3;
    let window = Duration::from_secs_f64(plan.seconds);
    let mut watch_text = String::new();
    let mut last_done = 0.0f64;
    let mut ops_done_at: Option<Instant> = None;
    let mut replies = 0usize;
    let mut buf = vec![0u8; 64 * 1024];

    loop {
        let now = Instant::now();
        let in_window = now.duration_since(start) < window;
        // Send whatever is due.
        let mut next_wake = now + Duration::from_millis(50);
        for c in plan.conns.iter_mut() {
            if c.open_loop {
                while c.next < c.ops.len() {
                    let op = &c.ops[c.next];
                    let due = start + Duration::from_micros(op.due_us.unwrap_or(0));
                    if due > now {
                        next_wake = next_wake.min(due);
                        break;
                    }
                    if c.stream.is_none() || c.target != op.target {
                        if !c.inflight.is_empty() {
                            break; // reconnect once the old target has answered
                        }
                        c.stream = Some(connect(&plan.targets[op.target])?);
                        c.target = op.target;
                    }
                    let s = c.stream.as_mut().expect("connected above");
                    s.write_all(&op.request).map_err(|e| format!("send: {e}"))?;
                    c.inflight
                        .push_back((c.next, us(due), us(Instant::now()), 0.0));
                    c.next += 1;
                }
            } else if in_window && c.inflight.is_empty() && !c.ops.is_empty() {
                if c.next == c.ops.len() && c.cycle {
                    c.next = 0;
                }
                if c.next < c.ops.len() {
                    let s = c
                        .stream
                        .as_mut()
                        .expect("closed-loop connections connect first");
                    let t = us(Instant::now());
                    s.write_all(&c.ops[c.next].request)
                        .map_err(|e| format!("send: {e}"))?;
                    c.inflight.push_back((c.next, t, t, 0.0));
                    c.next += 1;
                }
            }
        }

        let ops_left = plan
            .conns
            .iter()
            .any(|c| !c.inflight.is_empty() || (c.open_loop && c.next < c.ops.len()));
        if !in_window && !ops_left {
            let done_at = *ops_done_at.get_or_insert_with(Instant::now);
            match &plan.watch {
                Some(w) if !watch_text.contains(&w.final_text) && done_at.elapsed() < w.tail => {}
                _ => break,
            }
        }
        if now.duration_since(start) > window + DRAIN {
            return Err("replies still missing long after the window".into());
        }

        // Wait for readable sockets or the next due time.
        let mut fds: Vec<PollFd> = Vec::new();
        let mut owners: Vec<Option<usize>> = Vec::new();
        for (i, c) in plan.conns.iter().enumerate() {
            if let Some(s) = &c.stream {
                fds.push(PollFd {
                    fd: s.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                });
                owners.push(Some(i));
            }
        }
        if let Some(s) = &watch_stream {
            fds.push(PollFd {
                fd: s.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            owners.push(None);
        }
        let wait = next_wake.saturating_duration_since(Instant::now());
        let ts = Timespec {
            tv_sec: wait.as_secs() as i64,
            tv_nsec: i64::from(wait.subsec_nanos()),
        };
        // SAFETY: `fds` is a live, properly laid out `struct pollfd` array
        // of the length passed, `ts` outlives the call, and a null sigmask
        // leaves the signal mask unchanged.
        let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
        if n < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(format!("ppoll: {e}"));
            }
            continue;
        }
        for (pfd, owner) in fds.iter().zip(owners) {
            if pfd.revents == 0 {
                continue;
            }
            match owner {
                None => {
                    let s = watch_stream.as_mut().expect("polled");
                    let k = s.read(&mut buf).map_err(|e| format!("watch read: {e}"))?;
                    if k == 0 {
                        return Err("watch stream closed by the daemon".into());
                    }
                    let t = us(Instant::now());
                    out.push_str(&format!("c\t{t:.3}\t{}\n", escape(&buf[..k])));
                    watch_text.push_str(&String::from_utf8_lossy(&buf[..k]));
                }
                Some(i) => {
                    let c = &mut plan.conns[i];
                    let s = c.stream.as_mut().expect("polled");
                    let k = s.read(&mut buf).map_err(|e| format!("read: {e}"))?;
                    if k == 0 {
                        return Err("connection closed by the daemon".into());
                    }
                    let t = us(Instant::now());
                    let traced = plan.trace_from_us as f64;
                    let mark_first_byte = |c: &mut Conn| {
                        if let Some(front) = c.inflight.front_mut() {
                            if front.2 >= traced && front.3 == 0.0 {
                                front.3 = t;
                            }
                        }
                    };
                    mark_first_byte(c);
                    c.rbuf.extend_from_slice(&buf[..k]);
                    while let Some((used, status, cache, body)) = take_response(&c.rbuf) {
                        c.rbuf.drain(..used);
                        let Some((op, due, sent, ttfb)) = c.inflight.pop_front() else {
                            return Err("reply without a request".into());
                        };
                        last_done = t;
                        replies += 1;
                        if plan.mem_at == Some(replies) {
                            out.push_str(&format!("m\t{replies}"));
                            for pid in &plan.mem_pids {
                                out.push_str(&format!("\t{}", crate::peak_kb(Some(*pid))?));
                            }
                            out.push('\n');
                        }
                        let body = if c.last_body.get(&op) == Some(&body) {
                            "=".to_string()
                        } else {
                            let text = escape(&body);
                            c.last_body.insert(op, body);
                            text
                        };
                        out.push_str(&format!(
                            "r\t{i}\t{op}\t{due:.3}\t{sent:.3}\t{ttfb:.3}\t{t:.3}\t{status}\t{cache}\t{body}\n"
                        ));
                        if !c.rbuf.is_empty() {
                            mark_first_byte(c);
                        }
                    }
                }
            }
        }
    }
    out.push_str(&format!("end\t{last_done:.3}\n"));
    std::fs::write(out_path, out).map_err(|e| format!("{out_path}: {e}"))
}
