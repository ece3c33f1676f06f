"""Test-session set-up: BLAS runs on one thread, as ``bench/run.py`` runs it.

OpenBLAS's second thread waits on a busy core: on a 2-CPU machine with the
other CPU busy, a batch-200 training test took 13.5 s with two threads and
1.2 s with one.  OpenBLAS reads these variables when numpy is first
imported, which happens after pytest loads this file.  A count the caller
exported is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
