"""Tracer installation inside the request server and its pool workers.

:mod:`launcher` calls :func:`install_server` before handing control to
``repro serve``.  That also swaps the warm pool's worker initializer for
:func:`worker_init`, which runs the original initializer and then
installs the same wrappers in each spawned worker, so kernel, batch and
RNG spans recorded in the workers are collected too.  Every process
writes its spans to ``$PERFBENCH_TRACE_DIR/spans-<role>-<pid>.jsonl.gz`` when
it exits.
"""

from __future__ import annotations

import json
import os

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: This process's tracer and what to restore at exit.
_installed: dict = {}


def _install(role: str):
    import spans
    import tracer as tr
    from repro.kernels import get_backend

    t = tr.Tracer()
    t.install(spans.specs(get_backend().__name__))
    _installed.update(tracer=t, role=role, missed=t.missed_bindings())
    return t


def install_server() -> None:
    import repro.api.service as service

    _install("server")
    _installed["init_worker"] = service._init_worker
    service._init_worker = worker_init


def worker_init(*args) -> None:
    """Pool-worker initializer: the program's own, then the tracer."""
    from multiprocessing.util import Finalize

    import repro.api.service as service

    service._init_worker(*args)
    _install("worker")
    # Pool workers leave through multiprocessing's exit path, which runs
    # registered finalizers but not atexit handlers.
    Finalize(None, finish, exitpriority=10)


def finish() -> None:
    """Uninstall, self-check, and write this process's spans."""
    import tracer as tr

    t = _installed.pop("tracer", None)
    if t is None:
        return
    if "init_worker" in _installed:
        import repro.api.service as service

        service._init_worker = _installed.pop("init_worker")
    t.uninstall()
    role, pid = _installed["role"], os.getpid()
    out_dir = os.environ[TRACE_DIR_ENV]
    tr.write_spans(t.spans, os.path.join(out_dir, f"spans-{role}-{pid}.jsonl.gz"))
    selfcheck = [f"missed binding {m}" for m in _installed["missed"]]
    selfcheck += [f"wrapper left installed: {w}" for w in tr.leftover_wrappers()]
    with open(os.path.join(out_dir, f"selfcheck-{role}-{pid}.json"), "w") as fh:
        json.dump(selfcheck, fh)
