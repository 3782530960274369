//! The daemon event loop sleeps until there is work: a peer frame, a
//! control job or a gateway job wakes it, and with nothing to do it
//! sleeps until the next transport timer or daemon duty. Two
//! consequences are pinned here on in-process daemons (one per thread,
//! exactly the `moarad` loop):
//!
//! * an idle daemon ticks a few times a second, not at a poll rate — and
//!   never spins on a duty that is not armed;
//! * a lone uncached `/v1/query` costs about one tree walk, not a walk
//!   plus a poll slice.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use moara_daemon::{parse_attrs, Daemon, DaemonOpts, Waker};

fn free_port() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

/// A daemon with the gateway on, looping on its own thread until
/// dropped. Dropping sets the stop flag and wakes the loop, so teardown
/// waits on nothing.
struct RunningDaemon {
    ctrl: SocketAddr,
    http: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RunningDaemon {
    fn spawn(join: Option<SocketAddr>, attrs: &str, cache: bool) -> RunningDaemon {
        let attrs = parse_attrs(attrs).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let (tx, rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let defaults = DaemonOpts::new(free_port());
            let mut d = Daemon::start(DaemonOpts {
                join: join.map(|a| a.to_string()),
                attrs,
                http: Some("127.0.0.1:0".parse().unwrap()),
                query_cache: defaults.query_cache.clone().filter(|_| cache),
                ..defaults
            })
            .expect("daemon boots");
            tx.send((d.ctrl_addr(), d.http_addr().unwrap(), d.waker()))
                .unwrap();
            while !stop2.load(Ordering::SeqCst) {
                d.step();
            }
        });
        let (ctrl, http, waker) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("daemon boots");
        RunningDaemon {
            ctrl,
            http,
            stop,
            waker,
            thread: Some(thread),
        }
    }
}

impl Drop for RunningDaemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A keep-alive HTTP/1.1 connection that reads `Content-Length` bodies.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect gateway");
        writer.set_nodelay(true).unwrap();
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(writer.try_clone().unwrap()),
            writer,
        }
    }

    /// GETs `path`; returns (status, body).
    fn get(&mut self, path: &str) -> (u16, String) {
        write!(self.writer, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {line:?}"));
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line).unwrap();
            if line == "\r\n" {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                len = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }
}

/// The event loop's tick count, read from `/metrics`.
fn ticks(client: &mut Client) -> u64 {
    let (status, body) = client.get("/metrics");
    assert_eq!(status, 200);
    body.lines()
        .find_map(|l| l.strip_prefix("moara_event_loop_tick_us_count "))
        .and_then(|v| v.trim().parse().ok())
        .expect("tick histogram count")
}

fn wait_alive(client: &mut Client, want: u32) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = client.get("/healthz");
        if status == 200 && body.contains(&format!("\"alive\":{want}")) {
            return;
        }
        assert!(Instant::now() < deadline, "never saw {want} alive: {body}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The busy-spin regression: the watch keepalive duty is disarmed while
/// no watch exists, so its stamp never advances; were it still counted
/// toward the loop's deadline, the deadline would be "now" forever and
/// the loop would spin. A 200 Hz poll gives ~400 ticks in 2 s; an idle
/// daemon that sleeps until its next duty ticks a handful of times (the
/// 1 s health sample, SWIM's 1 s period, the two scrapes).
#[test]
fn idle_daemon_sleeps_between_duties() {
    let d = RunningDaemon::spawn(None, "ServiceX=true", true);
    let mut client = Client::connect(d.http);
    // Past the first keepalive period, so a stale stamp would show.
    std::thread::sleep(Duration::from_millis(1200));
    let before = ticks(&mut client);
    std::thread::sleep(Duration::from_secs(2));
    let idle_ticks = ticks(&mut client) - before;
    assert!(
        idle_ticks <= 60,
        "idle loop ticked {idle_ticks} times in 2 s (a poll or a spin)"
    );
    assert!(idle_ticks >= 2, "the health duty must still run");
}

/// A lone uncached query waits for no poll slice: the job's send wakes
/// the loop, and each hop's frame wakes the next daemon. A 5 ms poll
/// puts the median near 5 ms; one walk on loopback is ~0.5 ms. The
/// bound is generous for a loaded 2-core box.
#[test]
fn serial_uncached_queries_are_not_held_by_a_poll() {
    let a = RunningDaemon::spawn(None, "ServiceX=true", false);
    let b = RunningDaemon::spawn(Some(a.ctrl), "ServiceX=false", false);
    let _c = RunningDaemon::spawn(Some(a.ctrl), "ServiceX=true", false);
    let mut client = Client::connect(b.http);
    wait_alive(&mut client, 3);
    let path = "/v1/query?q=SELECT%20count(*)%20WHERE%20ServiceX%20%3D%20true";
    let mut rtts = Vec::new();
    for i in 0..60 {
        let t = Instant::now();
        let (status, body) = client.get(path);
        let rtt = t.elapsed();
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.trim(), r#"{"result":"2","complete":true}"#);
        if i >= 10 {
            rtts.push(rtt); // the first few warm connections and caches
        }
    }
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median <= Duration::from_micros(2500),
        "median uncached query {median:?} (sorted: {rtts:?})"
    );
}
