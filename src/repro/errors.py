"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations

__all__ = [
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


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidInstanceError(ReproError):
    """An SUU (or stochastic) instance fails validation.

    Raised, e.g., when a failure-probability matrix contains values outside
    ``[0, 1]``, when some job has no machine with ``q_ij < 1``, or when the
    precedence graph contains a cycle.
    """


class InfeasibleLPError(ReproError):
    """A linear program could not be solved to optimality.

    Carries the solver status message so callers can distinguish
    infeasibility from numerical failure.
    """

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class RoundingError(ReproError):
    """LP rounding failed to produce a feasible integral assignment.

    This indicates either a bug or a pathological numerical situation; the
    paper's rounding argument (Lemma 2 / Lemma 6) guarantees feasibility for
    exact LP solutions.
    """


class ScheduleViolationError(ReproError):
    """A policy assigned a machine to a job that is not eligible.

    Assigning a machine to an already *completed* job is allowed by the paper
    (the machine simply idles), but assigning to a job whose precedence
    constraints are unsatisfied is a bug in the policy and is reported
    loudly instead of being masked.
    """


class SimulationHorizonError(ReproError):
    """A simulation exceeded its ``max_steps`` horizon before completing.

    Horizons exist to turn accidental non-termination (e.g. a policy that
    idles every machine forever) into a clear error instead of a hang.
    """

    def __init__(self, message: str, steps: int | None = None):
        super().__init__(message)
        self.steps = steps


class DecompositionError(ReproError):
    """A precedence graph does not have the structure a routine requires.

    For example, asking for the chain decomposition of a graph that is not a
    directed forest.
    """


class UnknownPolicyError(ReproError, KeyError):
    """A policy name does not resolve in the :mod:`repro.api` registry.

    Carries the set of known names so error messages (and ``repro policies``
    CLI hints) can list what *is* available.  Subclasses :class:`KeyError`
    because the registry is conceptually a mapping.
    """

    def __init__(self, name: str, known=()):
        self.name = name
        self.known = tuple(known)
        hint = f"; known policies: {', '.join(self.known)}" if self.known else ""
        super().__init__(f"unknown policy {name!r}{hint}")

    def __str__(self) -> str:  # KeyError would repr() the message tuple
        return self.args[0]


class InvalidScenarioError(ReproError):
    """A declarative :class:`repro.api.Scenario` fails validation.

    Raised when a scenario names an unknown shape or failure model, or when
    its numeric parameters cannot produce a well-formed instance.
    """


class WorkerCrashError(ReproError):
    """A pool worker process died while running a request's trials.

    The crash breaks the whole worker pool, so every chunk of the request
    fails with it.  Executors that keep a pool across requests drop the
    broken one, and the next request runs on a fresh pool.
    """
