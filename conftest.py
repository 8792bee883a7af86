"""Test-session setup shared by ``tests/`` and ``perfbench/``.

The BLAS libraries read their thread counts once, when NumPy loads them,
so the pins below must be set before any test module imports NumPy.  The
problems under test are small dense ones, where extra BLAS threads cost
more in synchronisation than they gain; an explicit setting in the
environment still wins.
"""
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
