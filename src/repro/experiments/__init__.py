"""Experiment harness: one runner per DESIGN.md experiment id.

Each runner registers itself with
:func:`repro.experiments.common.register_experiment` at import time, so
``python -m repro.experiments``, the benchmark suite, and declarative
suite files (:mod:`repro.suite`) dispatch through one id → runner table
(:func:`get_experiment` / :func:`experiment_ids`).

``python -m repro.experiments`` executes every experiment at its default
(full) configuration and rewrites the measured-results section of
EXPERIMENTS.md; the benchmark suite runs the same functions at reduced
sizes and prints their tables.  :func:`all_experiments` returns the
whole id → runner table; :func:`get_experiment` looks up one id.
"""

from repro.experiments.adaptive_exp import run_adaptive
from repro.experiments.chains import run_chains, run_delay, run_segments_ablation
from repro.experiments.common import (
    ExperimentResult,
    all_experiments,
    experiment_ids,
    get_experiment,
    register_experiment,
)
from repro.experiments.competitive import run_competitive
from repro.experiments.equivalence import run_equivalence
from repro.experiments.independent import (
    run_lp_rounding,
    run_obl_scaling,
    run_rounds_ablation,
    run_sem_scaling,
)
from repro.experiments.optimal_exp import run_opt_tiny
from repro.experiments.perjob_exp import run_perjob
from repro.experiments.rounding_ablation import run_rounding_ablation
from repro.experiments.stochastic_exp import run_stochastic
from repro.experiments.table1 import run_table1
from repro.experiments.trees import run_trees

__all__ = [
    "ExperimentResult",
    "register_experiment",
    "get_experiment",
    "experiment_ids",
    "all_experiments",
    "run_table1",
    "run_competitive",
    "run_adaptive",
    "run_obl_scaling",
    "run_sem_scaling",
    "run_lp_rounding",
    "run_chains",
    "run_delay",
    "run_trees",
    "run_equivalence",
    "run_stochastic",
    "run_opt_tiny",
    "run_perjob",
    "run_rounding_ablation",
    "run_rounds_ablation",
    "run_segments_ablation",
]

