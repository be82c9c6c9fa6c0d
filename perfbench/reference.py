"""Regenerate ``reference.json``: each workload's reference mean makespan.

Each reference pools many calls of exactly the workload's shape (same
instance, policy, knobs and trials per call), with simulation seeds
drawn from a stream the benchmark never uses (``--seed -1``).  Run it
from the root of a checkout only when a workload's definition changes:
``python3 perfbench/reference.py``.  It takes a few minutes.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402

REFERENCE_SEED = -1

#: Calls pooled per MC workload; ``serve-greedy`` pools 5x as many.
CALLS = 8


def _pooled(samples: list[float], calls: int, n_trials: int) -> dict:
    n = len(samples)
    mean = math.fsum(samples) / n
    var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    return {"mean": mean, "se": math.sqrt(var / n), "n": n, "calls": calls,
            "n_trials_per_call": n_trials}


def main() -> int:
    import repro
    from mc import build_instance
    from repro.core.phased import clear_solve_cache

    out = {}
    for name, spec in workloads.MC.items():
        target = build_instance(spec["instance"])
        seeds = workloads.call_seeds(name, REFERENCE_SEED)
        samples = []
        for _ in range(CALLS):
            clear_solve_cache()
            config = repro.SimConfig(n_trials=spec["n_trials"], seed=next(seeds),
                                     **spec["config"])
            samples += [float(x) for x in repro.simulate(target, spec["policy"],
                                                         config).stats.samples]
        out[name] = _pooled(samples, CALLS, spec["n_trials"])
        print(name, out[name], flush=True)

    spec = workloads.SERVE
    scenario = repro.Scenario(**spec["scenario"])
    seeds = workloads.call_seeds("serve-greedy", REFERENCE_SEED)
    samples = []
    calls = 5 * CALLS
    for _ in range(calls):
        # Knobs left at their defaults, as the service resolves them.
        config = repro.SimConfig(n_trials=spec["n_trials"], seed=next(seeds))
        samples += [float(x) for x in repro.simulate(scenario, spec["policy"],
                                                     config).stats.samples]
    out["serve-greedy"] = _pooled(samples, calls, spec["n_trials"])
    print("serve-greedy", out["serve-greedy"], flush=True)

    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
