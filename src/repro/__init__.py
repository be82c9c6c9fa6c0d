"""repro — Multiprocessor Scheduling Under Uncertainty (SPAA 2008).

A from-scratch reproduction of Crutchfield, Dzunic, Fineman, Karger, and
Scott, *Improved Approximations for Multiprocessor Scheduling Under
Uncertainty* (SPAA 2008, arXiv:0802.2418): the SUU problem model and
simulator, the paper's LP-based approximation algorithms (SUU-I-OBL,
SUU-I-SEM, SUU-C, SUU-T), the stochastic-scheduling variants of
Appendix C (STC-I), the Lin–Rajaraman baseline, and the measurement
harness that reproduces the paper's Table 1 empirically.

Quick start — the :mod:`repro.api` facade::

    import repro

    # Declare the workload, let the registry pick the right algorithm.
    scenario = repro.Scenario(shape="independent", n_jobs=50, n_machines=10,
                              model="specialist", seed=0)
    report = repro.simulate(scenario, policy="auto",
                            config=repro.SimConfig(n_trials=50, seed=1))
    print(report.mean, "vs lower bound", report.lower_bound)

    # Sweep a grid of scenarios across policies, in parallel:
    grid = repro.ScenarioGrid(scenario, shape=["independent", "chains"],
                              n_jobs=[20, 40])
    for rep in repro.evaluate_grid(grid, ["auto", "greedy"], backend="process"):
        print(rep)

Lower-level building blocks (instances, policies, the engine, Monte Carlo
estimators, LP relaxations, bounds) remain importable directly::

    inst = repro.independent_instance(50, 10, "specialist", rng=0)
    stats = repro.estimate_expected_makespan(inst, repro.SUUISemPolicy, 50, rng=1)
    print(stats.mean, "vs lower bound", repro.lower_bound(inst))
"""

from repro.api import (
    FAILURE_MODELS,
    SCENARIO_SHAPES,
    PolicyInfo,
    Report,
    Scenario,
    ScenarioGrid,
    SimConfig,
    default_policy_for,
    evaluate_grid,
    get_policy,
    list_policies,
    make_policy,
    policy_factory,
    policy_info,
    policy_names,
    register_policy,
    simulate,
)

from repro.analysis import (
    PerJobStats,
    RatioMeasurement,
    critical_path_lower_bound,
    format_markdown_table,
    format_table,
    lower_bound,
    lp1_lower_bound,
    lp2_lower_bound,
    measure_ratio,
    per_job_stats,
    single_job_lower_bound,
)
from repro.baselines import (
    BestMachinePolicy,
    GreedyLRPolicy,
    RandomAssignmentPolicy,
    RoundRobinPolicy,
    SerialAllMachinesPolicy,
    exact_policy_expected_makespan,
    optimal_chains_expected_makespan,
    optimal_expected_makespan,
)
from repro.core import (
    LayeredPolicy,
    LP1Relaxation,
    LP2Relaxation,
    PAPER_SCALE,
    SUUCPolicy,
    SUUIAdaptiveLPPolicy,
    SUUIOblPolicy,
    SUUISemPolicy,
    SUUTPolicy,
    build_obl_schedule,
    paper_round_count,
    round_assignment,
    round_lp2,
    solve_lp1,
    solve_lp2,
)
from repro.core.stoch import (
    estimate_stochastic,
    serial_fastest_trial,
    static_mean_trial,
    stc_i_trial,
    stochastic_round_count,
)
from repro.errors import (
    DecompositionError,
    InfeasibleLPError,
    InvalidInstanceError,
    InvalidScenarioError,
    ReproError,
    RoundingError,
    ScheduleViolationError,
    SimulationHorizonError,
    UnknownPolicyError,
    WorkerCrashError,
)
from repro.instance import (
    PrecedenceClass,
    PrecedenceGraph,
    StochasticInstance,
    SUUInstance,
    chain_instance,
    decompose_forest,
    extract_chains,
    failure_matrix,
    forest_instance,
    independent_instance,
    layered_instance,
    load_instance,
    random_dag_instance,
    save_instance,
    stochastic_instance,
    tree_instance,
)
from repro.schedule import (
    IDLE,
    BatchSimulationState,
    FiniteObliviousSchedule,
    IntegralAssignment,
    Policy,
    RepeatingObliviousPolicy,
    SimulationState,
    VectorizedPolicy,
    congestion_profile,
    draw_delays,
    supports_batch,
)
from repro.sim import (
    BatchSimResult,
    ExecutionTrace,
    MakespanStats,
    SimResult,
    TracingPolicy,
    compare_policies,
    estimate_expected_makespan,
    render_gantt,
    run_policy,
    run_policy_batch,
    sample_oblivious_repeat_makespans,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # repro.api facade
    "Scenario",
    "SimConfig",
    "ScenarioGrid",
    "Report",
    "simulate",
    "evaluate_grid",
    "register_policy",
    "get_policy",
    "policy_info",
    "policy_names",
    "policy_factory",
    "list_policies",
    "default_policy_for",
    "make_policy",
    "PolicyInfo",
    "SCENARIO_SHAPES",
    "FAILURE_MODELS",
    # Instances
    "SUUInstance",
    "PrecedenceGraph",
    "PrecedenceClass",
    "StochasticInstance",
    "independent_instance",
    "chain_instance",
    "tree_instance",
    "forest_instance",
    "layered_instance",
    "random_dag_instance",
    "stochastic_instance",
    "failure_matrix",
    "extract_chains",
    "decompose_forest",
    "save_instance",
    "load_instance",
    # Core algorithms
    "SUUIOblPolicy",
    "SUUISemPolicy",
    "SUUCPolicy",
    "SUUTPolicy",
    "LayeredPolicy",
    "SUUIAdaptiveLPPolicy",
    "solve_lp1",
    "solve_lp2",
    "round_assignment",
    "round_lp2",
    "build_obl_schedule",
    "paper_round_count",
    "PAPER_SCALE",
    "LP1Relaxation",
    "LP2Relaxation",
    # Stochastic (Appendix C)
    "stc_i_trial",
    "serial_fastest_trial",
    "static_mean_trial",
    "estimate_stochastic",
    "stochastic_round_count",
    # Baselines
    "GreedyLRPolicy",
    "SerialAllMachinesPolicy",
    "RoundRobinPolicy",
    "BestMachinePolicy",
    "RandomAssignmentPolicy",
    "optimal_expected_makespan",
    "optimal_chains_expected_makespan",
    "exact_policy_expected_makespan",
    # Simulation
    "run_policy",
    "run_policy_batch",
    "estimate_expected_makespan",
    "compare_policies",
    "sample_oblivious_repeat_makespans",
    "SimResult",
    "BatchSimResult",
    "MakespanStats",
    "TracingPolicy",
    "ExecutionTrace",
    "render_gantt",
    "Policy",
    "VectorizedPolicy",
    "supports_batch",
    "SimulationState",
    "BatchSimulationState",
    "IDLE",
    "FiniteObliviousSchedule",
    "RepeatingObliviousPolicy",
    "IntegralAssignment",
    "congestion_profile",
    "draw_delays",
    # Analysis
    "lower_bound",
    "PerJobStats",
    "per_job_stats",
    "lp1_lower_bound",
    "lp2_lower_bound",
    "single_job_lower_bound",
    "critical_path_lower_bound",
    "measure_ratio",
    "RatioMeasurement",
    "format_table",
    "format_markdown_table",
    # Errors
    "ReproError",
    "InvalidInstanceError",
    "InfeasibleLPError",
    "RoundingError",
    "ScheduleViolationError",
    "SimulationHorizonError",
    "DecompositionError",
    "UnknownPolicyError",
    "InvalidScenarioError",
    "WorkerCrashError",
]
