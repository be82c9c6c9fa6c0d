"""Tests for the stepping kernel (:mod:`repro.kernels`).

* **Module surface**: :func:`repro.kernels.get_backend` is the numpy
  kernel module, and :func:`repro.kernels.warmup` drives every kernel
  function.  Bit-identity of the kernel against the scalar engine is
  asserted in ``tests/test_batch_engine.py`` and
  ``tests/test_phased_batch.py``.
* **Validation hoist**: per-step assignment validation always runs at
  ``t == 0``; ``validate=False`` (the trusted registry path) skips later
  steps, and the service layer wires the trust flag automatically.
* **Substreams**: per-policy substreams (``SimConfig.substreams``) break
  common random numbers in grid sweeps without touching single-policy
  runs.
"""

import numpy as np
import pytest

from repro.api.scenario import Scenario, SimConfig
from repro.api.service import evaluate_grid, simulate
from repro.baselines.greedy_lr import GreedyLRPolicy
from repro.errors import InvalidScenarioError, ScheduleViolationError
from repro.instance import PrecedenceGraph, SUUInstance
from repro.kernels import get_backend, numpy_backend, warmup
from repro.schedule.base import VectorizedPolicy
from repro.sim.batch import run_policy_batch


class TestModuleSurface:
    def test_get_backend_is_the_numpy_module(self):
        assert get_backend() is numpy_backend
        for fn in ("accrue", "commit", "drive_step", "chain_build",
                   "chain_finish", "expand_signature"):
            assert callable(getattr(get_backend(), fn))

    def test_warmup_runs_every_kernel(self):
        assert warmup() >= 0.0

    def test_simconfig_validates_substreams(self):
        SimConfig(substreams="per-policy")  # accepted
        with pytest.raises(InvalidScenarioError, match="substreams"):
            SimConfig(substreams="independent")


class _EagerChainPolicy(VectorizedPolicy):
    """Machine 0 always works job 0 (completed assignments are skipped
    harmlessly); machine 1 works ``early_job`` at the first step and job
    1 from then on — a precedence violation in every trial whose job 0
    is still unfinished."""

    name = "eager-chain"

    def __init__(self, early_job=0):
        self._early = early_job
        self._step = 0

    def start(self, instance, rng):
        pass

    def assign(self, state):  # pragma: no cover - scalar path unused
        raise NotImplementedError

    def assign_batch(self, state):
        second = self._early if self._step == 0 else 1
        self._step += 1
        out = np.zeros((state.n_trials, 2), dtype=np.int64)
        out[:, 1] = second
        return out


class _BadJobPolicy(VectorizedPolicy):
    name = "bad-job"

    def start(self, instance, rng):
        self._m = instance.n_machines

    def assign(self, state):  # pragma: no cover - scalar path unused
        raise NotImplementedError

    def assign_batch(self, state):
        return np.full((state.n_trials, self._m), -5, dtype=np.int64)


def _chain2_instance():
    graph = PrecedenceGraph(2, [(0, 1)])
    return SUUInstance(np.full((2, 2), 0.5), graph)


class TestValidateKnob:
    def test_first_step_always_validated(self):
        # Even trusted runs check t == 0: a policy broken from the start
        # fails fast regardless of the knob.
        with pytest.raises(ScheduleViolationError, match="predecessors"):
            run_policy_batch(
                _chain2_instance(), lambda: _EagerChainPolicy(early_job=1),
                3, rng=0, validate=False,
            )

    def test_range_check_at_first_step(self):
        with pytest.raises(ScheduleViolationError, match="out-of-range"):
            run_policy_batch(
                _chain2_instance(), _BadJobPolicy, 3, rng=0, validate=False,
            )

    def test_late_violation_caught_when_validating(self):
        with pytest.raises(ScheduleViolationError, match="predecessors"):
            run_policy_batch(
                _chain2_instance(), _EagerChainPolicy, 8, rng=0, validate=True,
            )

    def test_late_violation_skipped_when_trusted(self):
        # The trust contract: after the first step the driver stops
        # checking, so the (broken) policy runs to completion unharmed.
        result = run_policy_batch(
            _chain2_instance(), _EagerChainPolicy, 8, rng=0, validate=False,
        )
        assert (result.makespans >= 1).all()

    def test_registry_policies_run_trusted(self, small_independent, monkeypatch):
        import repro.api.service as service
        import repro.sim.batch as batch

        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("validate"))
            return batch.run_policy_batch(*args, **kwargs)

        monkeypatch.setattr(service, "run_policy_batch", spy)
        config = SimConfig(n_trials=4, seed=1)
        simulate(small_independent, "greedy-lr", config)
        simulate(small_independent, GreedyLRPolicy, config)
        assert seen == [False, True]


class TestSubstreams:
    @pytest.mark.parametrize("discipline", ["v1", "v2"])
    def test_shared_default_keeps_common_random_numbers(self, discipline):
        sc = Scenario(shape="independent", n_jobs=10, n_machines=4,
                      model="specialist", seed=3)
        config = SimConfig(n_trials=8, seed=5, discipline=discipline)
        a, b = evaluate_grid([sc], ("sem", "sem"), config=config)
        assert np.array_equal(a.stats.samples, b.stats.samples)

    @pytest.mark.parametrize("discipline", ["v1", "v2"])
    def test_per_policy_substreams_are_independent(self, discipline):
        sc = Scenario(shape="independent", n_jobs=10, n_machines=4,
                      model="specialist", seed=3)
        config = SimConfig(n_trials=8, seed=5, discipline=discipline,
                           substreams="per-policy")
        a, b = evaluate_grid([sc], ("sem", "sem"), config=config)
        assert not np.array_equal(a.stats.samples, b.stats.samples)
        # Deterministic in the seed: a second sweep reproduces both cells.
        a2, b2 = evaluate_grid([sc], ("sem", "sem"), config=config)
        assert np.array_equal(a.stats.samples, a2.stats.samples)
        assert np.array_equal(b.stats.samples, b2.stats.samples)

    def test_single_policy_simulate_unaffected(self, small_independent):
        shared = simulate(small_independent, "greedy-lr",
                          SimConfig(n_trials=6, seed=2))
        per = simulate(small_independent, "greedy-lr",
                       SimConfig(n_trials=6, seed=2, substreams="per-policy"))
        assert np.array_equal(shared.stats.samples, per.stats.samples)
