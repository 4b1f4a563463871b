"""Pin the BLAS thread pools to one thread for the test suite, as perfbench/run.py does.

With the pools unpinned, the first solve of a process sometimes runs about
ten times slower on a small shared machine.  The pools are sized when numpy
is first imported, so this file must run before anything imports numpy; a
value already set in the environment is kept.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin the BLAS "
                       "threads; set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and "
                       "MKL_NUM_THREADS in the environment instead")
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
