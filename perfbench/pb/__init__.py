"""Benchmark harness for stodep: workloads, tracing, statistics and reporting.

Importing this package imports nothing else, so run.py can cap the thread
pools before numpy loads.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads(nproc: int) -> None:
    """Cap the BLAS and OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
