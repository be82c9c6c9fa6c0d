"""The traced layer boundaries and the per-layer metrics computed from them.

Each :func:`specs` entry wraps one program function or method as a span
named ``<layer>.<op>``.  :data:`MUST_FIRE` says on which workloads each
span must fire at least once — the workload design says that layer does
work there — and is checked after every traced run.
"""

from __future__ import annotations

import importlib
import inspect

from tracer import covered, self_times

MC_WORKLOADS = ("sem-lpwall", "chains-subset")
ALL_WORKLOADS = MC_WORKLOADS + ("serve-greedy",)


def _rows(target: str, name: str):
    """A weight reader: the length of ``target``'s argument ``name``."""
    module_name, _, func = target.partition(":")
    sig = inspect.signature(getattr(importlib.import_module(module_name), func))

    def read(args, kwargs):
        return float(len(sig.bind(*args, **kwargs).arguments[name]))

    return read


def _request_id(args, kwargs):
    """The request's config seed: unique per request, it joins server
    spans to the client's send times."""
    body = args[3] if len(args) > 3 else kwargs.get("body")
    if isinstance(body, dict) and isinstance(body.get("config"), dict):
        return body["config"].get("seed")
    return None


def specs(kernel_module: str) -> list[tuple]:
    """``(span name, target, rid_of, weight_of)`` for every traced boundary.

    ``kernel_module`` is the active kernel backend's module: the batch
    engine and chain cursors call ``backend.<fn>`` on it.  A kernel span's
    weight is the number of trial rows it stepped, read from its
    argument shapes.
    """
    k = kernel_module
    return [
        ("lp.solve", "repro.lp.solver:solve_lp", None, None),
        ("lp.assemble", "repro.lp.model:LinearProgram.build_arrays", None, None),
        ("cache.lookup", "repro.core.phased:ProcessSolveCache.lookup", None, None),
        ("policy.begin_step", "repro.core.suu_i_sem:SUUISemPolicy.begin_step", None, None),
        ("policy.phase_key", "repro.core.suu_i_sem:SUUISemPolicy.phase_key", None, None),
        ("policy.assign_group", "repro.core.suu_i_sem:SUUISemPolicy.assign_group", None, None),
        ("chain.prepare_step", "repro.core.chain_batch:ChainCursorBatch.prepare_step", None, None),
        ("chain.dispatch", "repro.core.chain_batch:ChainCursorBatch.dispatch", None, None),
        ("kernel.drive_step", f"{k}:drive_step", None, _rows(f"{k}:drive_step", "remaining")),
        # Discipline v1 splits the step around per-trial generator draws:
        # accrue opens it and carries its weight, commit closes it.
        ("kernel.accrue", f"{k}:accrue", None, _rows(f"{k}:accrue", "remaining")),
        ("kernel.commit", f"{k}:commit", None, None),
        ("kernel.chain_build", f"{k}:chain_build", None, _rows(f"{k}:chain_build", "trials")),
        ("kernel.chain_finish", f"{k}:chain_finish", None, _rows(f"{k}:chain_finish", "trials")),
        ("kernel.expand_signature", f"{k}:expand_signature", None, None),
        ("rng.draw", "repro.util.rng:BatchStreams.thresholds", None, None),
        ("rng.draw", "repro.util.rng:BatchStreams.step_uniforms", None, None),
        ("rng.draw", "repro.util.rng:BatchStreams.policy_integers", None, None),
        ("rng.spawn", "repro.util.rng:spawn_rngs", None, None),
        ("sim.batch", "repro.sim.batch:run_policy_batch", None, None),
        ("analysis.lower_bound", "repro.analysis.bounds:lower_bound", None, None),
        ("instance.build", "repro.api.scenario:Scenario.to_instance", None, None),
        ("instance.build", "repro.instance.generators:lpwall_instance", None, None),
        ("api.simulate", "repro.api.service:simulate", None, None),
        ("server.handler", "repro.server.app:SchedulingService.handle", _request_id, None),
        # The warm-pool round trip as the server sees it: chunks out to the
        # worker processes and samples back.
        ("executor.dispatch", "repro.api.service:_map_chunks", None, None),
    ]


#: span name -> workloads on which it must fire.
MUST_FIRE = {
    "lp.solve": ALL_WORKLOADS,
    "lp.assemble": ALL_WORKLOADS,
    "cache.lookup": MC_WORKLOADS,
    "policy.begin_step": ("sem-lpwall",),
    "policy.phase_key": ("sem-lpwall",),
    "policy.assign_group": ("sem-lpwall",),
    "chain.prepare_step": ("chains-subset",),
    "chain.dispatch": ("chains-subset",),
    "kernel.drive_step": MC_WORKLOADS,
    "kernel.accrue": ("serve-greedy",),
    "kernel.commit": ("serve-greedy",),
    "kernel.chain_build": ("chains-subset",),
    "kernel.chain_finish": ("chains-subset",),
    "kernel.expand_signature": ("chains-subset",),
    "rng.draw": MC_WORKLOADS,
    "rng.spawn": ALL_WORKLOADS,
    "sim.batch": ALL_WORKLOADS,
    "analysis.lower_bound": ALL_WORKLOADS,
    "instance.build": ALL_WORKLOADS,
    "api.simulate": ALL_WORKLOADS,
    "server.handler": ("serve-greedy",),
    "executor.dispatch": ("serve-greedy",),
}

#: span name -> workloads on which it must never fire.
MUST_NOT_FIRE = {
    "policy.begin_step": ("chains-subset", "serve-greedy"),
    "policy.phase_key": ("chains-subset", "serve-greedy"),
    "policy.assign_group": ("chains-subset", "serve-greedy"),
    "chain.prepare_step": ("sem-lpwall", "serve-greedy"),
    "chain.dispatch": ("sem-lpwall", "serve-greedy"),
}


def fire_problems(workload: str, counts: dict) -> list[str]:
    """Spans that broke :data:`MUST_FIRE` / :data:`MUST_NOT_FIRE` here."""
    out = [f"{name} never fired" for name, where in MUST_FIRE.items()
           if workload in where and not counts.get(name)]
    out += [f"{name} fired {counts[name]} times" for name, where in MUST_NOT_FIRE.items()
            if workload in where and counts.get(name)]
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no values)."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return float(values[lo] + (values[hi] - values[lo]) * (pos - lo))


def _layer(name: str) -> str:
    return name.split(".")[0]


def span_totals(spans, self_time: dict) -> dict:
    """span name -> {"calls", "self_s", "total_s", "weight", "outer_calls",
    "outer_weight"} summed over spans.  The ``outer_*`` fields skip a span
    whose parent is in the same layer: it is part of its parent's call, as
    when the numpy backend's ``drive_step`` calls ``accrue`` and ``commit``."""
    names = {(sp[7], sp[0]): sp[1] for sp in spans}
    out: dict[str, dict] = {}
    for sp in spans:
        row = out.setdefault(sp[1], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "weight": 0.0,
                                     "outer_calls": 0, "outer_weight": 0.0})
        row["calls"] += 1
        row["self_s"] += self_time[(sp[7], sp[0])]
        row["total_s"] += sp[3] - sp[2]
        row["weight"] += sp[6]
        if _layer(names.get((sp[7], sp[4]), "")) != _layer(sp[1]):
            row["outer_calls"] += 1
            row["outer_weight"] += sp[6]
    return out


def layer_metrics(totals: dict, units: int) -> dict:
    """The span-derived per-layer metrics, per unit of work (one simulate
    call on the MC workloads, one request on ``serve-greedy``).  ``*_s`` is
    self time, except the handler and the executor round trip, whose
    totals are what a request waits for."""
    units = max(1, units)

    def field(key, *names):
        return sum(totals.get(n, {}).get(key, 0.0) for n in names) / units

    # One kernel call per step (drive_step, or v1's accrue + commit pair)
    # and per chain transition, whatever the backend and discipline.
    calls = ("kernel.drive_step", "kernel.accrue", "kernel.chain_build",
             "kernel.chain_finish", "kernel.expand_signature")
    kernels = calls + ("kernel.commit",)
    out = {
        "lp.solves": (field("calls", "lp.solve"), "count/call"),
        "lp.solve_s": (field("self_s", "lp.solve"), "s/call"),
        "lp.assemble_s": (field("self_s", "lp.assemble"), "s/call"),
    }
    for name in ("policy.begin_step", "policy.phase_key", "policy.assign_group",
                 "chain.prepare_step", "chain.dispatch"):
        out[f"{name}_s"] = (field("self_s", name), "s/call")
        out[f"{name}_calls"] = (field("calls", name), "count/call")
    out.update({
        "kernel.step_s": (field("self_s", *kernels), "s/call"),
        "kernel.calls": (field("outer_calls", *calls), "count/call"),
        "kernel.trial_steps": (field("outer_weight", *calls), "count/call"),
        "rng.draw_s": (field("self_s", "rng.draw"), "s/call"),
        "rng.spawn_s": (field("self_s", "rng.spawn"), "s/call"),
        "sim.batch_self_s": (field("self_s", "sim.batch"), "s/call"),
        "sim.batch_calls": (field("calls", "sim.batch"), "count/call"),
        "analysis.lower_bound_s": (field("self_s", "analysis.lower_bound"), "s/call"),
        "analysis.lower_bound_calls": (field("calls", "analysis.lower_bound"), "count/call"),
        "instance.build_s": (field("self_s", "instance.build"), "s/call"),
        "api.simulate_self_s": (field("self_s", "api.simulate"), "s/call"),
        "server.handler_s": (field("total_s", "server.handler"), "s/call"),
        "executor.dispatch_s": (field("total_s", "executor.dispatch"), "s/call"),
    })
    return out


def busy(spans, keep) -> float:
    """Wall time during which some span that ``keep(name)`` accepts was
    open, summed over processes: spans overlapping on several threads,
    such as LP solves on a thread pool, count once."""
    by_pid: dict = {}
    for sp in spans:
        if keep(sp[1]):
            by_pid.setdefault(sp[7], []).append((sp[2], sp[3]))
    return sum(covered(iv) for iv in by_pid.values())


def share(spans, wall_s: float, prefixes) -> float:
    """Wall time inside layers ``prefixes`` over ``wall_s``."""
    if wall_s <= 0:
        return 0.0
    return busy(spans, lambda name: _layer(name) in prefixes) / wall_s


def summarize(spans, units: int, root: str = "bench.call") -> dict:
    """Per-layer summary of one traced run; ``root`` spans mark the units
    of work whose wall time the layer shares are taken over."""
    totals = span_totals(spans, self_times(spans))
    wall = busy(spans, lambda name: name == root)
    return {
        "counts": {name: row["calls"] for name, row in totals.items()},
        "totals": totals,
        "wall_s": wall,
        "layers": layer_metrics(totals, units),
        "lp_cache_share": share(spans, wall, ("lp", "cache")),
    }
