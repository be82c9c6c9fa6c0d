"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sem-lpwall --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see ``README.md``):

``sem-lpwall``     SUU-I-SEM on the LP-wall instance, exact LP reuse
``chains-subset``  SUU-C on disjoint chains, subset LP reuse
``serve-greedy``   ``repro serve`` (one warm-pool worker) under HTTP load

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
every per-layer metric from a traced run.  Each metric is printed as a
``name value unit`` line, and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
record, environment stamp included, goes to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench_out"

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Samples a 90th percentile needs to have 10 beyond it.
P90_SAMPLES = 100

#: Slack on top of ``--seconds`` before a child is given up on: set-up,
#: and the last call, which may start just before time is up.
CHILD_SLACK_S = 100.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p)
    return env


def _mc_child(args, extra: list[str], timeout: float):
    """Start ``mc.py``; returns (process, seconds until it printed READY)."""
    cmd = [sys.executable, os.path.join(HERE, "mc.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env())
    try:
        line = proc.stdout.readline()
        if line.strip() != "READY":
            raise RuntimeError(f"{args.workload} set-up failed (exit {proc.wait(timeout)})")
        return proc, time.monotonic() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def _finish(proc, timeout: float) -> str:
    """The child's remaining output once it has exited; killed on timeout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{proc.args[1]} failed (exit {proc.returncode})")
    return out


def run_mc(args) -> dict:
    setups = []
    for _ in range(SETUPS - 1):
        proc, setup_s = _mc_child(args, ["--probe"], CHILD_SLACK_S)
        _finish(proc, CHILD_SLACK_S)
        setups.append(setup_s)
    spans_out = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    proc, setup_s = _mc_child(args, ["--spans-out", spans_out] if args.trace else [],
                              CHILD_SLACK_S)
    setups.append(setup_s)
    out = _finish(proc, args.seconds + CHILD_SLACK_S)
    result = json.loads(out.strip().splitlines()[-1])
    result["setups_s"] = setups
    return result


def env_stamp() -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "env.py")], capture_output=True,
                         text=True, env=_child_env(), timeout=120, check=True)
    return json.loads(out.stdout)


# -- metrics ---------------------------------------------------------------

def end_to_end(workload: str, r: dict) -> dict:
    """``name -> (value, unit, samples)`` for every end-to-end metric."""
    setup = (statistics.median(r["setups_s"]), "s", len(r["setups_s"]))
    rss = (r["peak_rss_mb"], "MB", 1)
    if workload in workloads.MC:
        calls = r["calls_s"]
        n = len(calls)
        med = statistics.median(calls)
        trials = workloads.MC[workload]["n_trials"]
        return {
            "setup_s": setup,
            "trials_per_s": (trials / med, "1/s", n),
            "latency_p50_ms": (1e3 * med, "ms", n),
            "latency_p90_ms": (1e3 * spans.percentile(calls, 90), "ms", n),
            # One caller in a closed loop: calls per second at the median
            # call time (a mean would let one stalled call move it).
            "capacity_rps": (1.0 / med, "1/s", n),
            "peak_rss_mb": rss,
        }
    lat = r["open"]["latency_ms"]
    closed = r["closed"]
    rps = closed["ok"] / closed["wall_s"]
    return {
        "setup_s": setup,
        "trials_per_s": (rps * workloads.SERVE["n_trials"], "1/s", closed["ok"]),
        "latency_p50_ms": (spans.percentile(lat, 50), "ms", len(lat)),
        "latency_p90_ms": (spans.percentile(lat, 90), "ms", len(lat)),
        "capacity_rps": (rps, "1/s", closed["ok"]),
        "peak_rss_mb": rss,
    }


def per_layer(workload: str, r: dict) -> dict:
    """``name -> (value, unit)`` for every per-layer metric."""
    tr = r["trace"]
    out = dict(tr["layers"])
    if workload in workloads.MC:
        counters = tr["counters"]
        n = max(1, len(counters))

        def mean(group, key):
            return sum(c.get(group, {}).get(key, 0) for c in counters) / n

        hits, misses = mean("cache", "hits"), mean("cache", "solves")
        evictions = misses - mean("cache", "entries")
        reuse, coalesced = mean("lp", "reuse_hits"), mean("lp", "coalesced_solves")
        untraced = statistics.median(tr["untraced_calls_s"])
        overhead = untraced / statistics.median(tr["traced_calls_s"])
        queue_wait, lag, in_flight, served, pools = [], [], 0, 0, 0
    else:
        h0, h1 = (h["executor"].get("worker_solve_cache", {}) for h in r["health"])
        n = max(1, r["attempted"])

        def delta(key):
            return (h1.get(key, 0) - h0.get(key, 0)) / n

        hits, misses = delta("hits"), delta("solves")
        evictions = misses - delta("entries")
        reuse, coalesced = delta("reuse_hits"), delta("coalesced_solves")
        overhead = 0.0  # no untraced server in a traced run
        queue_wait, lag = tr["queue_wait_ms"], r["open"]["send_lag_ms"]
        in_flight = r["open"]["max_in_flight"]
        # The first /healthz probe counts as served once it has returned.
        served = r["health"][1]["served"] - r["health"][0]["served"] - 1
        pools = r["health"][1]["executor"]["pools_built"]
    out.update({
        "lp.reuse_hits": (reuse, "count/call"),
        "lp.coalesced_solves": (coalesced, "count/call"),
        "cache.hits": (hits, "count/call"),
        "cache.misses": (misses, "count/call"),
        "cache.evictions": (evictions, "count/call"),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "server.queue_wait_p50_ms": (spans.percentile(queue_wait, 50), "ms"),
        "server.queue_wait_p90_ms": (spans.percentile(queue_wait, 90), "ms"),
        "server.served": (served, "count"),
        "executor.pools_built": (pools, "count"),
        "client.send_lag_p90_ms": (spans.percentile(lag, 90), "ms"),
        "client.send_lag_max_ms": (max(lag, default=0.0), "ms"),
        "client.max_in_flight": (in_flight, "count"),
        "trace.overhead": (overhead, "ratio"),
        "trace.lp_cache_share": (tr["lp_cache_share"], "ratio"),
    })
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: run from the root of a checkout (src/repro not found)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.workload in workloads.MC:
        r = run_mc(args)
    else:
        import serve

        # A traced run reports no set-up time, so it boots one server.
        r = serve.run(args.seed, args.seconds, bool(args.trace), OUT_DIR,
                      1 if args.trace else SETUPS)
        r["env"] = env_stamp()
    selfcheck = r.get("trace", {}).get("selfcheck", [])
    if args.trace:
        fired = r["trace"]["counts"]
        selfcheck += spans.fire_problems(args.workload, fired)
        metrics = {k: (v, u, None) for k, (v, u) in per_layer(args.workload, r).items()}
    else:
        metrics = end_to_end(args.workload, r)
    correct = r["failed"] == 0 and not selfcheck and not r.get("server_problems")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(r["env"], sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        note = ""
        if n is not None:
            note = f" (n={n}" + (", near the maximum" if name == "latency_p90_ms"
                                 and n < P90_SAMPLES else "") + ")"
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"error_rate {r['failed'] / max(1, r['attempted']):.6g} ratio "
          f"({r['failed']} of {r['attempted']} failed)")
    for problem in r.get("problems", [])[:10] + selfcheck:
        print(f"# check failed: {problem}")
    print(f"# output checks: {'pass' if correct else 'FAIL'}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "selfcheck": selfcheck,
              "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
              "raw": r}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
