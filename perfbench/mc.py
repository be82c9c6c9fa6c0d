"""One Monte Carlo workload in a fresh interpreter.

Prints ``READY`` once set-up (imports, instance build, kernel warm-up) is
done, so the parent can time set-up from process start.  With
``--probe`` it exits there; otherwise it calls ``repro.simulate``
repeatedly for ``--seconds``, checks every call's output, and prints one
JSON result line.  With ``--trace 1`` the first half of the time runs
untraced and the second half traced, which gives the tracing overhead.

Run from the root of a checkout:
``python3 perfbench/mc.py --workload sem-lpwall --seed 1 --seconds 20``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import repro  # noqa: E402
import spans  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from env import stamp  # noqa: E402
from repro.core.phased import clear_solve_cache, solve_cache_stats  # noqa: E402
from repro.instance import generators  # noqa: E402
from repro.kernels import get_backend, warmup  # noqa: E402
from repro.lp.stats import lp_stats_delta, lp_stats_snapshot  # noqa: E402


#: The only spans of a traced run that have no parent.
ROOT_SPANS = {"bench.call", "bench.setup"}


def build_instance(spec: dict):
    params = dict(spec)
    if params.pop("kind") == "lpwall":
        # Looked up on the module at call time, so a traced run's wrapper
        # sees the build.
        return generators.lpwall_instance(**params)
    return repro.Scenario(**params)


def setup(workload: str):
    """Instance build and kernel warm-up: with the imports above, everything
    a caller pays before its first simulate call."""
    spec = workloads.MC[workload]
    target = build_instance(spec["instance"])
    if not hasattr(target, "n_jobs"):
        target.to_instance()  # validates the scenario and builds it once
    warmup()
    return target


def one_call(target, spec: dict, sim_seed: int, ref: dict) -> tuple[float, list[str], dict]:
    """One timed simulate call on a cleared solve cache; returns its
    duration, failed checks, and its LP / solve-cache counters."""
    config = repro.SimConfig(n_trials=spec["n_trials"], seed=sim_seed, **spec["config"])
    clear_solve_cache()
    before = lp_stats_snapshot()
    start = time.monotonic()
    try:
        report = repro.simulate(target, spec["policy"], config)
    except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
        return time.monotonic() - start, [f"{type(exc).__name__}: {exc}"], {}
    elapsed = time.monotonic() - start
    counters = {"lp": lp_stats_delta(before), "cache": solve_cache_stats()}
    samples = [float(x) for x in report.stats.samples]
    return elapsed, workloads.check_samples(samples, spec["n_trials"],
                                            report.lower_bound, ref), counters


def run_calls(target, spec, seeds, ref, seconds: float, tracer=None) -> list[dict]:
    """Call until ``seconds`` have passed (at least once); one record per call."""
    records = []
    start = time.monotonic()
    while not records or time.monotonic() - start < seconds:
        if tracer is None:
            elapsed, bad, ctr = one_call(target, spec, next(seeds), ref)
        else:
            with tracer.region("bench.call", rid=len(records)):
                elapsed, bad, ctr = one_call(target, spec, next(seeds), ref)
        records.append({"s": elapsed, "problems": bad, "counters": ctr})
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.MC), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None,
                    help="traced runs: write the raw spans here (gzip JSON lines)")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    target = setup(args.workload)
    print("READY", flush=True)
    if args.probe:
        return 0

    spec = workloads.MC[args.workload]
    ref = workloads.references()[args.workload]
    seeds = workloads.call_seeds(args.workload, args.seed)
    result = {"env": stamp()}
    if tr.leftover_wrappers():
        raise RuntimeError("untraced run started with tracer wrappers installed")
    if args.trace:
        records, result["trace"] = traced(args, target, spec, seeds, ref)
    else:
        records = run_calls(target, spec, seeds, ref, args.seconds)
    result.update(
        calls_s=[r["s"] for r in records],
        attempted=len(records),
        failed=sum(1 for r in records if r["problems"]),
        problems=[p for r in records for p in r["problems"]],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


def traced(args, target, spec, seeds, ref) -> tuple[list[dict], dict]:
    """Untraced calls for half the time, then traced calls for the rest;
    returns every call's record and the per-layer summary."""
    untraced = run_calls(target, spec, seeds, ref, args.seconds / 2)
    t = tr.Tracer()
    t.install(spans.specs(get_backend().__name__))
    selfcheck = [f"missed binding {m}" for m in t.missed_bindings()]
    try:
        with t.region("bench.setup"):
            target = build_instance(spec["instance"])
        traced_records = run_calls(target, spec, seeds, ref, args.seconds / 2, tracer=t)
    finally:
        t.uninstall()
    selfcheck += [f"wrapper left installed: {w}" for w in tr.leftover_wrappers()]
    selfcheck += tr.check_self_time()
    # Every span, pool-thread work included, belongs to a call or set-up.
    selfcheck += [f"{name} span has no parent" for name in
                  sorted({sp[1] for sp in t.spans if sp[4] is None} - ROOT_SPANS)]
    if args.spans_out:
        tr.write_spans(t.spans, args.spans_out)
    summary = spans.summarize(t.spans, units=len(traced_records))
    lp_solve_spans = summary["counts"].get("lp.solve", 0)
    lp_solves = sum(r["counters"].get("lp", {}).get("lp_solves", 0) for r in traced_records)
    if lp_solve_spans != lp_solves:
        selfcheck.append(f"lp.solve fired {lp_solve_spans} times, LP counter says {lp_solves}")
    summary.update(
        untraced_calls_s=[r["s"] for r in untraced],
        traced_calls_s=[r["s"] for r in traced_records],
        counters=[r["counters"] for r in traced_records],
        selfcheck=selfcheck,
    )
    return untraced + traced_records, summary


if __name__ == "__main__":
    sys.exit(main())
