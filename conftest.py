"""Test-session setup shared by ``tests/`` and ``perfbench/``.

The BLAS libraries read their thread counts once, when NumPy loads them,
so the pins below must be set before any test module imports NumPy.  The
problems under test are small dense ones, where extra BLAS threads cost
more in synchronisation than they gain; an explicit setting in the
environment still wins.  The ``certificate`` fixture sets the QP
certificate's tolerances for the tests that need tighter ones.
"""
import os

import pytest

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


@pytest.fixture
def certificate(monkeypatch):
    """``certificate(tol_feas, tol_gap)`` sets the tolerances of every QP
    solve's certificate, ``qp._TOL_FEAS`` and ``qp._TOL_GAP``, for one
    test."""
    from posid import qp

    def tighten(tol_feas: float, tol_gap: float) -> None:
        monkeypatch.setattr(qp, "_TOL_FEAS", tol_feas)
        monkeypatch.setattr(qp, "_TOL_GAP", tol_gap)
    return tighten
