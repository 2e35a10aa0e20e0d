"""Pin BLAS to one thread before anything in the session imports numpy.

A GEMM's bits depend on the BLAS thread count, and `train` runs a batch's
scenes on parallel threads only where BLAS runs on one, so the suite tests
the path that the benchmark and tests/checkpoint_digest.py run.  This is the
root conftest because pytest loads it before it collects
perfbench/test_perfbench.py, which imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
