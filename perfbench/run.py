#!/usr/bin/env python3
"""The repository benchmark: one named workload per run.

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds `moarad` and the benchmark's
native helper (perfbench/probe) from source into $CARGO_TARGET_DIR
(default .bench_build), runs the workload on inputs made from the seed,
checks every answer against the generator's oracle, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ledger (perfbench/layers.py), from a run whose second half is
traced. Scratch files (plans, records, spans, daemon logs) go to
$CARGO_TARGET_DIR/perfbench.

Exit codes: 0 result printed; 1 build or run error; 3 a self-check found
that the run did not exercise what its workload exists for.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
# Failed operations described in the output, before the result line.
MAX_FINDINGS = 10


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for args in (["-p", "moara-daemon", "--bin", "moarad"],
                 ["--manifest-path", os.path.join(HERE, "probe", "Cargo.toml")]):
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args, cwd=ROOT,
                       env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "moarad"), os.path.join(release, "moara-perfbench-probe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds <= 0:
        ap.error("--seconds must be positive")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    moarad, probe = build(target)
    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    env = workloads.Env(moarad, probe, out_dir, a.seed, a.seconds, bool(a.trace))
    res = workloads.WORKLOADS[a.workload](env)

    tail_p, tail = stats.tail(res.latency_ms)
    print(f"{a.workload} seed={a.seed}: {res.ops} ops in {res.window_s:.2f}s, "
          f"{res.failed}/{res.attempted} failed; latency_tail_ms is p{tail_p:g} of "
          f"{len(res.latency_ms)} samples")
    for line in res.findings[:MAX_FINDINGS]:
        print(f"FAILED: {line}")
    if len(res.findings) > MAX_FINDINGS:
        print(f"FAILED: ... and {len(res.findings) - MAX_FINDINGS} more")
    if a.trace:
        metrics = layers.finish(dict(res.per_layer, error_rate=res.failed / res.attempted,
                                     latency_tail_ms=tail,
                                     throughput_ops_s=res.ops / res.window_s))
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res.end_to_end().items()}
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except workloads.SelfCheckFailed as e:
        print(f"SELF-CHECK FAILED: {e}", file=sys.stderr)
        sys.exit(3)
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError, KeyError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(1)
