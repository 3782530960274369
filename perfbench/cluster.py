"""A small cluster of real `moarad` processes on loopback, the HTTP calls
the benchmark makes outside its measured windows, and the /proc arm."""

import ctypes
import http.client
import json
import os
import signal
import subprocess
import time
import urllib.parse

import gen

BOOT_DEADLINE_S = 30.0
STOP_DEADLINE_S = 10.0
CLK_TCK = os.sysconf("SC_CLK_TCK")


def http_get(addr, path, timeout=5.0):
    """(status, headers dict, body text) of one GET on a fresh connection."""
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read().decode()
        return resp.status, {k.lower(): v for k, v in resp.getheaders()}, body
    finally:
        conn.close()


def query_path(query_text):
    return "/v1/query?q=" + urllib.parse.quote(query_text, safe="")


def watch_path(query_text):
    return "/v1/watch?q=" + urllib.parse.quote(query_text, safe="")


class Daemon:
    def __init__(self, proc, log_path):
        self.proc = proc
        self.log_path = log_path
        self.ctrl = self.http = None
        self.node_id = None

    def banner(self):
        """Parses the `MOARAD ctrl=... node=nK ... http=...` line once the
        daemon has printed it; False until then."""
        try:
            with open(self.log_path) as f:
                text = f.read()
        except FileNotFoundError:
            return False
        for line in text.splitlines():
            if line.startswith("MOARAD ctrl="):
                fields = dict(kv.split("=", 1) for kv in line.split()[1:])
                self.ctrl, self.http = fields["ctrl"], fields["http"]
                self.node_id = int(fields["node"].lstrip("n"))
                return True
        if self.proc.poll() is not None:
            raise RuntimeError(f"moarad exited with {self.proc.returncode}: {text[-500:]}")
        return False


def _die_with_parent():
    """Runs in the child before exec: the kernel sends it SIGTERM if the
    benchmark process dies, so no daemon outlives an aborted run."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGTERM)


def _wait(cond, what, deadline_s):
    end = time.monotonic() + deadline_s
    while not cond():
        if time.monotonic() > end:
            raise RuntimeError(f"timed out waiting for {what}")
        time.sleep(0.001)


class Cluster:
    """gen.NODES daemons with shipped defaults: each gets only a control
    address, an HTTP address (both kernel-chosen) and its node's
    attributes; every daemon after the first joins through the first,
    once the previous joiner is up."""

    def __init__(self, moarad, rows, log_dir, tag):
        self.rows = rows
        self.daemons = []
        self.moarad, self.log_dir, self.tag = moarad, log_dir, tag

    def _spawn(self, i, join):
        log = os.path.join(self.log_dir, f"{self.tag}-d{i}.log")
        args = [self.moarad, "--listen", "127.0.0.1:0", "--http", "127.0.0.1:0",
                "--attrs", self.rows[i].attrs_arg()]
        if join:
            args += ["--join", join]
        with open(log, "w") as out:
            proc = subprocess.Popen(args, stdout=out, stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL, preexec_fn=_die_with_parent)
        d = Daemon(proc, log)
        self.daemons.append(d)
        return d

    def boot(self):
        """Spawns the cluster and returns once every daemon sees every
        member alive and a check query is answered correctly; returns the
        seconds that took."""
        t0 = time.perf_counter()
        seed = self._spawn(0, None)
        _wait(seed.banner, "the seed daemon's banner", BOOT_DEADLINE_S)
        # One join at a time: when joins overlap, an early joiner can miss
        # a later one for two seconds, which would make set-up time bimodal.
        for i in range(1, gen.NODES):
            _wait(self._spawn(i, seed.ctrl).banner, "a joining daemon's banner", BOOT_DEADLINE_S)

        def converged():
            for d in self.daemons:
                status, _, body = http_get(d.http, "/healthz")
                h = json.loads(body)
                if status != 200 or h.get("alive") != gen.NODES or h.get("members") != gen.NODES:
                    return False
            return True

        _wait(converged, "cluster membership to converge", BOOT_DEADLINE_S)
        check = gen.Query("count", None, gen.cmp("Svc", "=", self.rows[0].Svc))

        def answered():
            status, _, body = http_get(self.daemons[-1].http, query_path(check.text()))
            doc = json.loads(body)
            return status == 200 and doc["complete"] and gen.answer_ok(
                check, self.rows, self.node_ids(), doc["result"])

        _wait(answered, "the check query's correct answer", BOOT_DEADLINE_S)
        return time.perf_counter() - t0

    def node_ids(self):
        return [d.node_id for d in self.daemons]

    def stop(self):
        for d in self.daemons:
            if d.proc.poll() is None:
                d.proc.send_signal(signal.SIGTERM)
        end = time.monotonic() + STOP_DEADLINE_S
        for d in self.daemons:
            try:
                d.proc.wait(timeout=max(0.1, end - time.monotonic()))
            except subprocess.TimeoutExpired:
                d.proc.kill()
                d.proc.wait()

    def scrape(self):
        """Every daemon's /metrics text."""
        out = []
        for d in self.daemons:
            status, _, body = http_get(d.http, "/metrics")
            if status != 200:
                raise RuntimeError(f"/metrics answered {status}")
            out.append(body)
        return out

    def proc_sample(self):
        return [proc_stats(d.proc.pid) for d in self.daemons]


def proc_stats(pid):
    """CPU seconds (utime + stime), VmHWM and VmRSS in MB, and open fds of
    one process, from /proc."""
    with open(f"/proc/{pid}/stat") as f:
        rest = f.read().rsplit(")", 1)[1].split()
    cpu_s = (int(rest[11]) + int(rest[12])) / CLK_TCK
    mem = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                mem[key] = int(value.split()[0]) / 1024.0
    fds = len(os.listdir(f"/proc/{pid}/fd"))
    return {"cpu_s": cpu_s, "hwm_mb": mem.get("VmHWM", 0.0), "rss_mb": mem.get("VmRSS", 0.0),
            "fds": fds}
