import os
import sys

# One BLAS thread, as the benchmark and the reproducibility promise assume;
# set before numpy is first imported. An explicit setting is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.dirname(__file__))
