"""Pinned samples: every registered policy reproduces recorded outputs.

The stepping kernel, the RNG disciplines and both step semantics are
all on the path from a seed to a makespan sample, so any change to them
that moves a sample shows up here.  ``tests/data/pinned_samples.json``
holds, for each cell of shape × registered policy × discipline (v1, v2)
× semantics (suu, suu_star):

* ``simulate``: the :func:`repro.api.simulate` makespan samples, and
* ``batch``: the :func:`repro.sim.batch.run_policy_batch` makespans,
  per-job completion times and busy machine-steps, under validation,

or the name of the exception the cell raises (policies for independent
jobs reject precedence instances at the first step).

Regenerate the file, after a change that is *meant* to move samples,
with::

    PYTHONPATH=src python tests/test_pinned_samples.py tests/data/pinned_samples.json
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import sys

import numpy as np
import pytest

import repro
from repro.api.registry import get_policy, list_policies
from repro.sim.batch import run_policy_batch

PINNED = pathlib.Path(__file__).resolve().parent / "data" / "pinned_samples.json"

#: Knob env vars that could move a sample; cleared so the pins hold
#: under every CI leg (the cells pass their discipline explicitly).
KNOB_ENV_VARS = ("REPRO_DISCIPLINE", "REPRO_LP_REUSE", "REPRO_LP_REUSE_EPS",
                 "REPRO_SUBSTREAMS")

SHAPES = {
    "independent": dict(shape="independent", n_jobs=9, n_machines=3),
    "chains": dict(shape="chains", n_jobs=12, n_machines=4),
    "forest": dict(shape="forest", n_jobs=10, n_machines=3),
    "random_dag": dict(shape="random_dag", n_jobs=9, n_machines=3),
}
DISCIPLINES = ("v1", "v2")
SEMANTICS = ("suu", "suu_star")


def _instance(shape):
    return repro.Scenario(model="specialist", seed=4, **SHAPES[shape]).to_instance()


def measure(shape, policy, discipline, semantics):
    """Run one cell and return its JSON-ready record."""
    inst = _instance(shape)
    cell = {}
    try:
        report = repro.simulate(inst, policy, repro.SimConfig(
            n_trials=7, seed=3, discipline=discipline, semantics=semantics))
        cell["simulate"] = {"samples": report.stats.samples.tolist()}
    except Exception as exc:
        cell["simulate"] = {"error": type(exc).__name__}
    try:
        batch = run_policy_batch(
            inst, get_policy(policy), 5, rng=11,
            semantics=semantics, discipline=discipline, validate=True,
        )
        cell["batch"] = {
            "makespans": batch.makespans.tolist(),
            "completion_times": batch.completion_times.tolist(),
            "busy_machine_steps": batch.busy_machine_steps.tolist(),
        }
    except Exception as exc:
        cell["batch"] = {"error": type(exc).__name__}
    return cell


def cell_keys():
    return [
        f"{shape}/{info.name}/{discipline}/{semantics}"
        for shape in SHAPES
        for info in list_policies()
        for discipline in DISCIPLINES
        for semantics in SEMANTICS
    ]


@functools.cache
def _load():
    with open(PINNED) as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def _clean_knob_env(monkeypatch):
    for var in KNOB_ENV_VARS:
        monkeypatch.delenv(var, raising=False)


@pytest.mark.parametrize("key", cell_keys())
def test_cell_matches_pins(key):
    pins = _load()
    assert key in pins, (
        f"no pinned samples for {key}; regenerate "
        "tests/data/pinned_samples.json (see this module's docstring)"
    )
    expect = pins[key]
    shape, policy, discipline, semantics = key.split("/")
    got = measure(shape, policy, discipline, semantics)
    assert got["simulate"] == expect["simulate"]
    assert got["batch"] == expect["batch"]
    if "error" not in expect["batch"]:
        ct = np.asarray(expect["batch"]["completion_times"])
        assert ct.shape == (5, SHAPES[shape]["n_jobs"])
        assert expect["batch"]["makespans"] == ct.max(axis=1).tolist()


if __name__ == "__main__":
    for var in KNOB_ENV_VARS:
        if var in os.environ:
            sys.exit(f"unset {var} before regenerating the pins")
    cells = {}
    for key in cell_keys():
        cells[key] = measure(*key.split("/"))
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else PINNED
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        # One cell a line, so a moved sample shows as a one-line diff.
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
            for k, v in cells.items()
        ) + "\n}\n")
    print(f"wrote {len(cells)} cells to {out}")
