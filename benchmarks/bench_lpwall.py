"""The LP wall at Monte Carlo scale, and its collapse under survivor reuse.

On a long-job-heavy :func:`~repro.instance.generators.lpwall_instance`,
every trial entering SEM round ``k >= 2`` carries its own random survivor
set, so ``lp_reuse="exact"`` pays one full LP1 pipeline per distinct
(target, survivor set) — at 10 000 trials that is about ten thousand
solves, and the solver dominates the run.  ``lp_reuse="subset"`` derives
those near-identical sets from shared anchor solves (see
``repro.core.phased``), collapsing the solve count by 25-560x and the
wall-clock by ~1.2-1.6x while the makespan distribution stays
statistically indistinguishable.  Each row records its solve count and
mean makespan in ``extra_info``.

Naming convention: exact/subset pairs share a suffix
(``test_lpwall_exact_<key>`` / ``test_lpwall_subset_<key>``) — that is
what ``benchmarks/check_regression.py --mode ratio`` pairs up to gate CI
on the machine-independent exact-over-subset wall-clock ratio.  On top of
the timing ratio, each subset benchmark *hard-asserts* the solve-count
budget (>= ``SOLVE_COLLAPSE_FLOOR``x fewer distinct LP1 solves than the
exact side of the same pair) and mean-makespan proximity, so a regression
in the reuse machinery fails the bench run itself, not just the ratio
gate.

Run with ``make bench-lpwall``; ``BENCH_7.json`` records the measured
trajectory.
"""

import os

import numpy as np

from repro.core.phased import clear_solve_cache
from repro.core.suu_c import SUUCPolicy
from repro.core.suu_i_sem import SUUISemPolicy
from repro.core.suu_t import SUUTPolicy
from repro.instance import lpwall_instance
from repro.lp.stats import lp_stats_snapshot, reset_lp_stats
from repro.sim.batch import run_policy_batch

#: Monte Carlo scale for every row ("proof at scale": the wall only
#: dominates when trials are numerous enough that distinct survivor sets
#: outnumber distinct rounds by orders of magnitude).
N_TRIALS = 10_000
SEED = 11
#: Acceptance floor: subset mode must cut distinct LP1 solves >= 5x.
SOLVE_COLLAPSE_FLOOR = 5.0
#: Mean-makespan proximity bound between the modes (the derived schedules
#: are rebalanced restrictions; empirically the shift is well under 2%).
MEAN_TOLERANCE = 0.03

#: (policy factory, semantics, instance kwargs) per pair suffix.
CONFIGS = {
    "suuc_10000": (SUUCPolicy, "suu", dict(n_jobs=36, n_machines=3, chain_length=6)),
    "suut_10000": (SUUTPolicy, "suu_star", dict(n_jobs=36, n_machines=3, chain_length=6)),
    "sem_10000": (SUUISemPolicy, "suu", dict(n_jobs=48, n_machines=2)),
}

#: Exact-side (solve count, mean makespan) recorded for the subset side
#: of the same pair (tests run in definition order within one process).
_EXACT_SIDE: dict[str, tuple[int, float]] = {}


def _run(key: str, lp_reuse: str):
    factory, semantics, kwargs = CONFIGS[key]
    instance = lpwall_instance(**kwargs)
    clear_solve_cache()
    reset_lp_stats()
    result = run_policy_batch(
        instance,
        factory,
        N_TRIALS,
        rng=SEED,
        semantics=semantics,
        max_steps=100_000,
        discipline="v2",
        lp_reuse=lp_reuse,
    )
    solves = int(lp_stats_snapshot()["lp_solves"])
    return result.makespans, solves


def _record(benchmark, samples, solves: int) -> None:
    """Solve count and mean makespan into the row's ``extra_info``."""
    benchmark.extra_info.update(
        lp_solves=solves,
        mean_makespan=float(samples.mean()),
        cpu_count=os.cpu_count(),
    )


def _exact_side(benchmark, key: str):
    samples, solves = benchmark.pedantic(
        lambda: _run(key, "exact"), rounds=1, iterations=1
    )
    _EXACT_SIDE[key] = (solves, float(samples.mean()))
    _record(benchmark, samples, solves)
    assert samples.size == N_TRIALS
    # The wall: nearly one distinct solve per trial (a few trials finish
    # in round 1 or happen to share a survivor set; measured ~0.93-1.01
    # solves per trial across the three configs).
    assert solves >= 0.8 * N_TRIALS


def _subset_side(benchmark, key: str):
    samples, solves = benchmark.pedantic(
        lambda: _run(key, "subset"), rounds=1, iterations=1
    )
    _record(benchmark, samples, solves)
    assert samples.size == N_TRIALS
    exact = _EXACT_SIDE.get(key)
    if exact is None:  # subset benchmark ran solo; nothing to compare
        return
    exact_solves, exact_mean = exact
    assert solves * SOLVE_COLLAPSE_FLOOR <= exact_solves, (
        f"{key}: {exact_solves} exact solves -> {solves} subset solves "
        f"(floor {SOLVE_COLLAPSE_FLOOR}x)"
    )
    mean = float(np.mean(samples))
    assert abs(mean - exact_mean) <= MEAN_TOLERANCE * exact_mean, (
        f"{key}: subset mean {mean:.1f} vs exact {exact_mean:.1f} "
        f"(tolerance {MEAN_TOLERANCE:.0%})"
    )


def test_lpwall_exact_suuc_10000(benchmark):
    _exact_side(benchmark, "suuc_10000")


def test_lpwall_subset_suuc_10000(benchmark):
    _subset_side(benchmark, "suuc_10000")


def test_lpwall_exact_suut_10000(benchmark):
    _exact_side(benchmark, "suut_10000")


def test_lpwall_subset_suut_10000(benchmark):
    _subset_side(benchmark, "suut_10000")


def test_lpwall_exact_sem_10000(benchmark):
    _exact_side(benchmark, "sem_10000")


def test_lpwall_subset_sem_10000(benchmark):
    _subset_side(benchmark, "sem_10000")
