"""Baseline estimator tests against closed-form least-squares oracles."""
import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from posid import baselines, qp
from posid.assembly import input_weight_matrix
from posid.baselines import (BaselineKind, ls_clip, nonneg_ls, ridge_clip,
                             ridge_pre_clip, run_baseline)
from posid.errors import ConfigError, SolverError
from posid.extensions import FiniteResponseConfig, identify_finite_response
from posid.kernels import KernelSpec, gram, window_kernel
from posid.signals import TimeSeriesData


def _prbs(rng, n):
    return rng.choice([-1.0, 1.0], size=n)


def _fir_data(rng, n, g, noise=0.0):
    u = _prbs(rng, n)
    y = np.convolve(u, g)[:n]
    if noise:
        y = y + noise * rng.standard_normal(n)
    return TimeSeriesData.at_rest(u, y)


def test_regression_matrix_is_input_toeplitz():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(12)
    data = TimeSeriesData.at_rest(u, np.zeros(12))
    U = input_weight_matrix(data, 5)
    np.testing.assert_allclose(U, scipy.linalg.toeplitz(u, np.zeros(5)))


def test_noiseless_ls_recovers_truth_and_matches_constrained():
    # strictly positive truth: the unconstrained optimum is feasible, so
    # clipping does nothing and the constrained solve lands on the same g
    rng = np.random.default_rng(1)
    g_true = np.array([1.0, 0.6, 0.3, 0.15, 0.05])
    data = _fir_data(rng, 60, g_true)
    b = ls_clip(data, 5)
    c = nonneg_ls(data, 5)
    np.testing.assert_allclose(b.values, g_true, atol=1e-9)
    np.testing.assert_allclose(b.values, c.values, atol=1e-7)


def test_ls_clip_is_minimum_norm_on_rank_deficiency():
    # more taps than samples: U is 20 x 30 and the least-squares
    # solutions form an affine family; ls_clip clips its minimum-norm one
    rng = np.random.default_rng(6)
    data = _fir_data(rng, 20, np.array([1.0, 0.5, 0.25]), noise=0.1)
    U = input_weight_matrix(data, 30)
    g_star = np.linalg.pinv(U) @ data.outputs
    np.testing.assert_allclose(ls_clip(data, 30).values,
                               np.maximum(g_star, 0.0),
                               rtol=0, atol=1e-10 * np.linalg.norm(g_star))


def test_nonneg_ls_objective_never_worse_than_clipping():
    rng = np.random.default_rng(2)
    g_true = np.array([0.8, 0.0, 0.4, 0.0, 0.1, 0.0])
    data = _fir_data(rng, 50, g_true, noise=0.5)
    U = input_weight_matrix(data, 6)
    raw, *_ = np.linalg.lstsq(U, data.outputs, rcond=None)
    assert raw.min() < 0.0, "noise should push some taps negative"
    b = ls_clip(data, 6)
    c = nonneg_ls(data, 6)
    obj_b = np.sum((U @ b.values - data.outputs) ** 2)
    obj_c = np.sum((U @ c.values - data.outputs) ** 2)
    assert obj_c <= obj_b + 1e-10
    assert c.values.min() >= -1e-12


@pytest.mark.parametrize("seed", range(22))
def test_nonneg_ls_matches_scipy_nnls(seed):
    # scipy's Lawson-Hanson NNLS is exact; nonneg_ls must reach its
    # objective and the NNLS optimality conditions to within the gap the
    # QP solver certifies, _TOL_GAP * (1 + |objective|), where the QP
    # objective is |U g - y|^2 - |y|^2; the last two records have more
    # taps than samples
    rng = np.random.default_rng(100 + seed)
    n, n_g = (60, 4 + seed % 12) if seed < 20 else (15, 25)
    g_true = np.abs(rng.standard_normal(n_g)) * 0.8 ** np.arange(n_g)
    g_true[rng.random(n_g) < 0.3] = 0.0
    data = _fir_data(rng, n, g_true, noise=0.5)
    U = input_weight_matrix(data, n_g)
    y = data.outputs
    g = nonneg_ls(data, n_g).values
    oracle, _ = scipy.optimize.nnls(U, y)
    gap = qp._TOL_GAP * (1.0 + float(y @ y))
    obj = float(np.sum((U @ g - y) ** 2))
    assert obj <= float(np.sum((U @ oracle - y) ** 2)) + gap
    assert g.min() >= 0.0
    grad = U.T @ (U @ g - y)
    tol = qp._TOL_FEAS * (1.0 + float(np.max(np.abs(U.T @ y))))
    assert grad.min() >= -tol
    assert np.max(np.abs(g * grad)) <= gap


def test_nonneg_ls_raises_when_the_qp_does_not_converge(monkeypatch):
    # an unconverged iterate must not be returned as an estimate: with
    # least-squares solves that make no progress, each outer step frees
    # the same tap and drops it again, and the method stops at its cap of
    # 3 n_g outer steps, after two solves each and two to warm-start
    rng = np.random.default_rng(2)
    data = _fir_data(rng, 50, np.array([0.8, 0.4, 0.1]), noise=0.5)
    solves = []

    def no_progress(a, b):
        solves.append(a.shape)
        return -np.ones(a.shape[1])

    monkeypatch.setattr(baselines, "min_norm_lstsq", no_progress)
    with pytest.raises(SolverError, match="9 outer steps"):
        nonneg_ls(data, 3)
    assert len(solves) == 2 + 2 * 9


def _near_square_records():
    """750 records of 25-39 samples whose binary Toeplitz ``U`` has
    within 5 taps as many columns, so ``U'U`` is singular or nearly so;
    yields ``(u, U, y)``."""
    rng = np.random.default_rng(2024)
    for _ in range(750):
        n = int(rng.integers(25, 40))
        n_g = n + int(rng.integers(-5, 6))
        u = _prbs(rng, n)
        U = scipy.linalg.toeplitz(u, np.zeros(n_g))
        g = np.abs(rng.standard_normal(n_g)) * 0.8 ** np.arange(n_g)
        g[rng.random(n_g) < 0.3] = 0.0
        yield u, U, U @ g + 0.3 * rng.standard_normal(n)


def test_nonneg_ls_matches_scipy_nnls_on_near_square_records():
    # every answer on the near-square records is nonnegative and within
    # 1e-6 |y|^2 of scipy's Lawson-Hanson NNLS, compared on the residuals
    for draw, (u, U, y) in enumerate(_near_square_records()):
        z = nonneg_ls(TimeSeriesData.at_rest(u, y), U.shape[1]).values
        oracle, _ = scipy.optimize.nnls(U, y)
        excess = np.sum((U @ z - y) ** 2) - np.sum((U @ oracle - y) ** 2)
        assert z.min() >= 0.0, f"draw {draw}"
        assert excess <= 1e-6 * (y @ y), f"draw {draw}: {excess:.3e}"


def test_ridge_matches_normal_equations():
    rng = np.random.default_rng(3)
    g_true = 0.7 ** np.arange(8)
    data = _fir_data(rng, 60, g_true, noise=0.2)
    kernel = KernelSpec.tc(0.7)
    lam = 0.5
    pre = ridge_pre_clip(data, 8, lam, kernel)
    U = input_weight_matrix(data, 8)
    K = gram(kernel, np.arange(8), np.arange(8))
    oracle = np.linalg.solve(U.T @ U + lam * np.linalg.inv(K),
                             U.T @ data.outputs)
    np.testing.assert_allclose(pre.values, oracle, atol=1e-9)
    clipped = ridge_clip(data, 8, lam, kernel)
    np.testing.assert_allclose(clipped.values, np.maximum(pre.values, 0.0))


def test_ridge_approaches_ls_as_lambda_vanishes():
    rng = np.random.default_rng(4)
    g_true = np.array([1.0, 0.5, 0.25, 0.1])
    data = _fir_data(rng, 80, g_true)
    U = input_weight_matrix(data, 4)
    ls, *_ = np.linalg.lstsq(U, data.outputs, rcond=None)
    pre = ridge_pre_clip(data, 4, 1e-10, KernelSpec.tc(0.6))
    np.testing.assert_allclose(pre.values, ls, atol=1e-4)


def test_run_baseline_dispatch():
    rng = np.random.default_rng(5)
    g_true = 0.8 ** np.arange(10)
    data = _fir_data(rng, 60, g_true, noise=0.3)
    kernel = KernelSpec.tc(0.7)
    for kind in ("b", "c", "d", "e"):
        spec = BaselineKind(kind=kind, fir_length=10, lam=0.2, kernel=kernel)
        est = run_baseline(spec, data)
        assert est.horizon == 10
        assert est.values.min() >= -1e-8, f"baseline {kind} went negative"
    # e is the finite-response estimator on the windowed kernel
    e = run_baseline(BaselineKind(kind="e", fir_length=10, lam=0.2,
                                  kernel=kernel), data)
    direct = identify_finite_response(
        FiniteResponseConfig(kernel=window_kernel(kernel, 10), lam=0.2), data)
    np.testing.assert_allclose(e.values, direct.g.values, atol=1e-12)


def test_baseline_kind_validation():
    with pytest.raises(ConfigError, match="kind"):
        BaselineKind(kind="z")
    with pytest.raises(ConfigError, match="fir_length"):
        BaselineKind(kind="b", fir_length=0)
    with pytest.raises(ConfigError, match="needs a kernel"):
        BaselineKind(kind="d", lam=1.0)
    for lam in (0.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="lambda"):
            BaselineKind(kind="e", lam=lam, kernel=KernelSpec.tc(0.5))
