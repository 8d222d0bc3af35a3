"""One BLAS thread for the harness tests, fixed before numpy loads, as run.py
and make_reference.py fix it: results then do not depend on how OpenBLAS
splits small matrix products across the cores."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
