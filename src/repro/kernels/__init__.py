"""The batch engine's stepping kernel.

The batch engine's per-step inner body (:mod:`repro.sim.batch`) and the
chain cursors' whole-batch boundary transitions
(:mod:`repro.core.chain_batch`) are whole-batch numpy array passes that
live in one module, :mod:`repro.kernels.numpy_backend`:

==================== ====================================================
``accrue``           one step's mass accrual + assignment validation
``commit``           completion commit / in-degree + eligibility refresh
``drive_step``       the fused step: accrue + completion test + commit
``chain_finish``     chain-cursor advance at a drained superstep
``chain_build``      chain start / pause recovery / signature encoding
``expand_signature`` superstep signature -> shared assignment rows
==================== ====================================================

Callers reach these functions as attributes of that module at call time
(``numpy_backend.drive_step(...)``) and never keep them in containers or
instance state, so an outside profiler can rebind a module attribute and
see every call.  The scalar engine (:func:`repro.sim.engine.run_policy`)
is the bit-identity oracle the kernel is tested against.
"""

from __future__ import annotations

import time

import numpy as np

from repro.kernels import numpy_backend

__all__ = ["get_backend", "numba_available", "warmup"]


def get_backend():
    """The stepping-kernel module (:mod:`repro.kernels.numpy_backend`)."""
    return numpy_backend


def numba_available() -> bool:
    """True when numba is importable.

    Kept for benchmark environment stamps, which record it."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def warmup() -> float:
    """Drive every kernel function once on tiny synthetic batches.

    Covers both completion modes and both the precedence-free and DAG
    code paths, so the first real batch pays no first-call costs (lazy
    imports, numpy ufunc dispatch caches).  Returns the wall-clock
    seconds spent.  Worker pools call this from their initializer.
    """
    start = time.perf_counter()
    B, n, m = 2, 3, 2
    ell = np.full((m, n), 0.5, dtype=np.float64)
    ell.setflags(write=False)  # instance.ell is read-only at runtime
    indptr = np.array([0, 1, 1, 1], dtype=np.int64)
    indices = np.array([1], dtype=np.int64)
    indptr.setflags(write=False)
    indices.setflags(write=False)
    for independent in (True, False):
        for mode in (0, 1):
            a = np.array([[0, -1], [2, 0]], dtype=np.int64)
            remaining = np.ones((B, n), dtype=bool)
            indeg = np.zeros((B, n), dtype=np.int64)
            if not independent:
                indeg[:, 1] = 1
            eligible = remaining & (indeg == 0)
            mass = np.zeros((B, n), dtype=np.float64)
            ct = np.zeros((B, n), dtype=np.int64)
            busy = np.zeros(B, dtype=np.int64)
            active = np.ones(B, dtype=bool)
            theta = np.full((B, n), 0.25, dtype=np.float64)
            u = np.full((B, n), 0.99, dtype=np.float64)
            numpy_backend.drive_step(
                a, ell, theta, u, mode, 1, remaining, eligible, indeg,
                mass, ct, busy, active, indptr, indices, independent, True,
            )
            status, b, i, step_mass = numpy_backend.accrue(
                a, ell, remaining, eligible, busy, independent, True
            )
            numpy_backend.commit(
                step_mass > 0.0, 2, ct, remaining, eligible, indeg,
                indptr, indices, active, independent,
            )
    F, C, P = 2, 2, 2
    pos = np.zeros((F, C), dtype=np.int64)
    tau = np.zeros((F, C), dtype=np.int64)
    dr = np.zeros((F, C), dtype=np.int64)
    started = np.ones((F, C), dtype=bool)
    std = np.zeros((F, C), dtype=bool)
    trials = np.arange(F, dtype=np.int64)
    rem = np.ones((F, n), dtype=bool)
    rem.setflags(write=False)
    kind = np.zeros((C, P), dtype=np.int8)
    kind[:, 1] = 1  # a pause after each block
    ilen = np.ones((C, P), dtype=np.int64)
    need = np.ones((C, P), dtype=np.int64)
    ijob = np.zeros((C, P), dtype=np.int64)
    nit = np.full(C, P, dtype=np.int64)
    delays = np.zeros((F, C), dtype=np.int64)
    s = np.zeros(F, dtype=np.int64)
    numpy_backend.chain_build(
        trials, pos, tau, dr, std, delays, s, rem,
        kind, ilen, need, ijob, nit, P + 1,
    )
    numpy_backend.chain_finish(
        trials, pos, tau, dr, started, rem, kind, ilen, need, ijob, nit
    )
    # The superstep expansion: one two-chain signature with a prelude on
    # the entering block (CSR tables flattened as c * P + p).
    enc = np.array([0, 0], dtype=np.int64)  # both chains at (pos 0, tau 0)
    prelude_len = np.zeros((C, P), dtype=np.int64)
    prelude_len[0, 0] = 1
    pre_indptr = np.zeros(C * P + 1, dtype=np.int64)
    pre_indptr[1:] = 1  # chain 0 item 0 has the single prelude pair
    pre_machine = np.zeros(1, dtype=np.int64)
    pre_count = np.ones(1, dtype=np.int64)
    step_indptr = np.arange(C * P + 1, dtype=np.int64)
    step_machine = np.array([0, 1, 0, 1], dtype=np.int64)
    step_count = np.ones(C * P, dtype=np.int64)
    numpy_backend.expand_signature(
        enc, P + 1, ijob, prelude_len, pre_indptr, pre_machine, pre_count,
        step_indptr, step_machine, step_count, m, -1,
    )
    return time.perf_counter() - start
