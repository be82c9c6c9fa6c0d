"""Workload definitions, input generation from the seed, and output checks.

Shared by the benchmark's processes; imports nothing from the program, so
the serve-side client can use it without loading ``repro``.

Each workload runs one fixed instance.  The ``--seed`` argument generates
the per-call / per-request simulation seeds (``SimConfig.seed``), so two
seeds give different Monte Carlo samples of the same instance and every
call's mean can be checked against one recorded reference mean.
"""

from __future__ import annotations

import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seed kept out of all tuning: re-check later claims on it.
HOLDOUT_SEED = 90017

#: A call's mean may differ from the reference mean by at most this many
#: standard errors of the difference (the call's own sample variance over
#: its trial count, plus the reference's squared standard error).  At 5
#: the chance of a false failure per call is below one in a million.
TOLERANCE_SE = 5.0

#: Requests in flight on one connection time out after this long.
REQUEST_TIMEOUT_S = 60.0

SEM = {
    "policy": "sem",
    # > 512 trials: above the default 512-entry process solve cache, so
    # the known cache thrash shows in the LP counts.
    "n_trials": 600,
    "instance": {"kind": "lpwall", "n_jobs": 48, "n_machines": 2, "rng": 5},
    "config": {"discipline": "v2", "lp_reuse": "exact"},
}

CHAINS = {
    "policy": "suu-c",
    "n_trials": 1000,
    "instance": {"kind": "scenario", "shape": "chains", "n_jobs": 36,
                 "n_machines": 6, "model": "specialist", "seed": 0},
    "config": {"discipline": "v2", "lp_reuse": "subset"},
}

SERVE = {
    "policy": "greedy",
    "n_trials": 500,
    "scenario": {"shape": "independent", "n_jobs": 40, "n_machines": 8,
                 "model": "uniform", "seed": 0},
    # Open-loop arrival rate: about 45 % of the closed-loop capacity of a
    # one-worker warm pool on a 2-core x86 box (~12 req/s), low enough
    # that CPU-speed drift on a shared host does not tip it into queueing.
    "open_rps": 5.5,
    # Share of --seconds spent in the open-loop phase; the closed-loop
    # phase takes the rest.  At 30 s that is 107 requests, enough for a
    # p90 with ten samples beyond it.
    "open_share": 0.65,
}

MC = {"sem-lpwall": SEM, "chains-subset": CHAINS}
WORKLOADS = ("sem-lpwall", "chains-subset", "serve-greedy")


def call_seeds(workload: str, seed: int):
    """Endless distinct simulation seeds for ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    while True:
        s = rng.randrange(1, 2**31)
        if s not in seen:
            seen.add(s)
            yield s


def references() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def check_samples(samples, n_trials: int, lower_bound: float, ref: dict) -> list[str]:
    """The output checks of one call or request; returns what failed."""
    problems = []
    if len(samples) != n_trials:
        problems.append(f"{len(samples)} makespans, expected {n_trials}")
    if not all(math.isfinite(x) for x in samples):
        problems.append("non-finite makespan")
        return problems
    if samples and min(samples) < 1:
        problems.append(f"makespan {min(samples)} < 1")
    if len(samples) < 2:
        return problems + ["too few makespans to check the mean"]
    n = len(samples)
    mean = math.fsum(samples) / n
    var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    if mean < lower_bound:
        problems.append(f"mean {mean:.3f} below lower bound {lower_bound:.3f}")
    tol = TOLERANCE_SE * math.sqrt(var / n + ref["se"] ** 2)
    if abs(mean - ref["mean"]) > tol:
        problems.append(f"mean {mean:.3f} differs from reference {ref['mean']:.3f} "
                        f"by more than {tol:.3f}")
    return problems
