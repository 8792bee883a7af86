"""Core estimator tests: QP construction, certified horizon, recovery."""
import numpy as np
import pytest

from posid.assembly import assemble_core, assemble_polynomial_blocks
from posid.errors import ConfigError
from posid.estimator import (PositiveIdConfig, _m0_from_constants, build_qp,
                             compute_m0, default_horizon, identify,
                             initial_constraint_horizon, predict,
                             reconstruct_h)
from posid.kernels import KernelSpec
from posid.qp import ConvexQP, SolveOptions, solve
from posid.signals import ImpulseResponse, TimeSeriesData


def _prbs(rng, n):
    return rng.choice([-1.0, 1.0], size=n)


def _single_mode_data(rng, n, a=1.0, rho=0.9):
    u = _prbs(rng, n)
    g = a * rho ** np.arange(n, dtype=float)
    y = np.convolve(u, g)[:n]
    return TimeSeriesData.at_rest(u, y)


def _fit(est, truth):
    n = min(est.size, truth.size)
    return 100.0 * (1.0 - np.linalg.norm(est[:n] - truth[:n])
                    / np.linalg.norm(truth[:n]))


def test_m0_formula_example():
    assert _m0_from_constants(c0=100.0, c=1.0, rho_d=0.8, rho=0.9,
                              a_min=0.01, lam=1.0) == 59


def test_m0_zero_when_single_mode_fits_exactly():
    rng = np.random.default_rng(0)
    data = _single_mode_data(rng, 40, a=1.0, rho=0.9)
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.9, lam=1.0,
                              a_min=0.5)
    assert compute_m0(config, data) == 0


def test_m0_finite_kernel_caps_at_support():
    rng = np.random.default_rng(1)
    data = _single_mode_data(rng, 20)
    kernel = KernelSpec.finite_support(np.eye(7))
    config = PositiveIdConfig(kernel=kernel, rho=0.9, lam=1.0)
    assert compute_m0(config, data) == 7


def test_m0_nonincreasing_in_lambda():
    lam = 1e-4
    prev = _m0_from_constants(c0=100.0, c=1.0, rho_d=0.8, rho=0.9,
                              a_min=0.01, lam=lam)
    for _ in range(40):
        lam *= 2.0
        cur = _m0_from_constants(c0=100.0, c=1.0, rho_d=0.8, rho=0.9,
                                 a_min=0.01, lam=lam)
        assert cur <= prev
        prev = cur


def test_minimal_horizon_has_two_inequality_rows():
    # m = 0: one positivity row at t = 0 plus the amplitude floor
    u = np.zeros(10)
    u[0] = 1.0
    data = TimeSeriesData.at_rest(u, 0.9 ** np.arange(10, dtype=float))
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.9, lam=1.0)
    mats = assemble_core(config.kernel, data, m=0)
    basis = assemble_polynomial_blocks(data, config.rho, 1)
    problem = build_qp(config, mats, basis)
    assert problem.G.shape[0] == 2
    assert problem.l[1] == config.a_min


def test_incompatible_decay_rejected():
    # TC beta=0.81 certifies rate 0.9, not strictly below rho=0.9
    with pytest.raises(ConfigError, match="not strictly smaller"):
        PositiveIdConfig(kernel=KernelSpec.tc(0.81), rho=0.9, lam=1.0)


def test_unconstrained_minimizer_is_normal_equations():
    # The coefficient vector is not unique (the representers outnumber
    # the samples), so the comparison runs on the identifiable
    # quantities: amplitude, fitted outputs, response samples, objective.
    rng = np.random.default_rng(2)
    data = _single_mode_data(rng, 25)
    noisy = TimeSeriesData.at_rest(
        data.inputs, data.outputs + 0.1 * rng.standard_normal(25))
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.6), rho=0.9, lam=0.5)
    mats = assemble_core(config.kernel, noisy, m=10)
    basis = assemble_polynomial_blocks(noisy, config.rho, 1)
    problem = build_qp(config, mats, basis)
    free = solve(ConvexQP(P=problem.P, q=problem.q))
    # closed-form: (M'M + lam * blkdiag(0, Gamma)) z = M' y, min-norm
    M = np.hstack([basis.B, mats.O, mats.L])
    reg = np.zeros((M.shape[1], M.shape[1]))
    reg[1:, 1:] = mats.gamma()
    oracle, *_ = np.linalg.lstsq(M.T @ M + config.lam * reg,
                                 M.T @ noisy.outputs, rcond=None)
    assert free.z[0] == pytest.approx(oracle[0], abs=1e-8)
    np.testing.assert_allclose(M @ free.z, M @ oracle, atol=1e-8)
    h_free = reconstruct_h(free.z[1:], config.kernel, noisy, 10, 30)
    h_ne = reconstruct_h(oracle[1:], config.kernel, noisy, 10, 30)
    np.testing.assert_allclose(h_free.values, h_ne.values, atol=1e-8)
    obj_ne = 0.5 * oracle @ problem.P @ oracle + problem.q @ oracle
    assert free.objective == pytest.approx(obj_ne, abs=1e-8)


def test_pure_mode_data_recovers_amplitude():
    rng = np.random.default_rng(0)
    data = _single_mode_data(rng, 16, a=1.0, rho=0.8)
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.36), rho=0.8, lam=1e-8)
    model = identify(config, data)
    assert abs(model.a - 1.0) <= 1e-3
    assert np.linalg.norm(model.x) <= 1e-3


def test_noiseless_recovery_tc():
    rng = np.random.default_rng(4)
    rho = 0.9
    n = 60
    u = _prbs(rng, n)
    g_true = rho ** np.arange(n, dtype=float)
    y = np.convolve(u, g_true)[:n]
    data = TimeSeriesData.at_rest(u, y)
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.7), rho=rho, lam=1e-6)
    model = identify(config, data)
    assert _fit(model.g.values, rho ** np.arange(model.g.horizon)) >= 99.0


def test_tc_kernel_single_loop_iteration():
    rng = np.random.default_rng(5)
    for trial in range(5):
        n = 30
        u = _prbs(rng, n)
        g_true = 0.85 ** np.arange(n, dtype=float)
        y = np.convolve(u, g_true)[:n] + 0.05 * rng.standard_normal(n)
        data = TimeSeriesData.at_rest(u, y)
        config = PositiveIdConfig(kernel=KernelSpec.tc(0.6), rho=0.85,
                                  lam=0.1)
        model = identify(config, data)
        assert model.diagnostics.iterations == 1, f"trial {trial}"
        assert model.m == initial_constraint_horizon(data)


def test_m_stability_of_solution():
    rng = np.random.default_rng(6)
    n = 30
    u = _prbs(rng, n)
    y = np.convolve(u, 0.8 ** np.arange(n, dtype=float))[:n] \
        + 0.02 * rng.standard_normal(n)
    data = TimeSeriesData.at_rest(u, y)
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.8, lam=0.1)
    model = identify(config, data)
    # same QP with 50 extra constraint rows, solved at the same tolerances
    mats = assemble_core(config.kernel, data, model.m + 50)
    basis = assemble_polynomial_blocks(data, config.rho, 1)
    sol = solve(build_qp(config, mats, basis),
                SolveOptions(tol_feas=1e-10, tol_gap=1e-9))
    a2 = float(sol.z[0])
    h2 = reconstruct_h(sol.z[1:], config.kernel, data, model.m + 50,
                       model.g.horizon)
    g2 = h2.values + a2 * config.rho ** np.arange(model.g.horizon,
                                                  dtype=float)
    assert abs(a2 - model.a) <= 1e-6
    np.testing.assert_allclose(g2, model.g.values, atol=1e-6)


def test_reconstruct_h_trivial_coefficients():
    rng = np.random.default_rng(7)
    data = _single_mode_data(rng, 8)
    kernel = KernelSpec.tc(0.7)
    m = 5
    zero = reconstruct_h(np.zeros(8 + m + 1), kernel, data, m, 12)
    np.testing.assert_array_equal(zero.values, np.zeros(12))
    # single kernel-section coefficient selects that section
    x = np.zeros(8 + m + 1)
    x[8] = 1.0  # first section coefficient, lag 0
    h = reconstruct_h(x, kernel, data, m, 12)
    np.testing.assert_allclose(h.values,
                               kernel.eval(np.zeros(12, dtype=int),
                                           np.arange(12)), atol=1e-14)


def test_reconstruct_h_matches_constraint_rows():
    rng = np.random.default_rng(8)
    data = _single_mode_data(rng, 12)
    kernel = KernelSpec.dc(0.7, 0.4)
    m = 6
    mats = assemble_core(kernel, data, m)
    x = rng.standard_normal(12 + m + 1)
    h = reconstruct_h(x, kernel, data, m, m + 1)
    rows = np.hstack([mats.L.T, mats.K])
    np.testing.assert_allclose(h.values, rows @ x, atol=1e-10)


def test_predict_training_consistency():
    rng = np.random.default_rng(9)
    n = 25
    u = _prbs(rng, n)
    y = np.convolve(u, 0.85 ** np.arange(n, dtype=float))[:n] \
        + 0.05 * rng.standard_normal(n)
    data = TimeSeriesData.at_rest(u, y)
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.6), rho=0.85, lam=0.2)
    model = identify(config, data)
    mats = assemble_core(config.kernel, data, model.m)
    b = assemble_polynomial_blocks(data, config.rho, 1).B[:, 0]
    oracle = b * model.a + np.hstack([mats.O, mats.L]) @ model.x
    got = predict(model, data, data.sample_times)
    np.testing.assert_allclose(got, oracle, atol=1e-8)


def test_predict_unit_impulse_model():
    rng = np.random.default_rng(10)
    data = _single_mode_data(rng, 10)
    # prediction with zero input is identically zero
    quiet = TimeSeriesData(np.array([0, 1]), np.zeros(2), np.zeros(12))
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.9, lam=1.0)
    model = identify(config, data)
    np.testing.assert_array_equal(predict(model, quiet, [3, 7, 11]),
                                  np.zeros(3))


def test_predict_identity_system_returns_input():
    # y = u trains a near-unit-impulse response, so prediction on fresh
    # inputs reproduces them.  The impulse sits on the positivity
    # boundary at every lag, which stalls the dual residual just above
    # the default tolerance; a looser tol_feas is fine for this check.
    rng = np.random.default_rng(13)
    n = 30
    u = _prbs(rng, n)
    data = TimeSeriesData.at_rest(u, u.copy())
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.9, lam=1e-7,
                              solve_options=SolveOptions(tol_feas=1e-6,
                                                         tol_gap=1e-8))
    model = identify(config, data)
    fresh_u = _prbs(rng, 20)
    fresh = TimeSeriesData(np.arange(20), np.zeros(20), fresh_u)
    pred = predict(model, fresh, np.arange(20))
    np.testing.assert_allclose(pred, fresh_u, atol=1e-3)


def test_identified_g_nonnegative():
    rng = np.random.default_rng(11)
    n = 40
    u = _prbs(rng, n)
    y = np.convolve(u, 0.9 ** np.arange(n, dtype=float) * 1.2)[:n] \
        + 0.1 * rng.standard_normal(n)
    data = TimeSeriesData.at_rest(u, y)
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.7), rho=0.9, lam=0.5)
    model = identify(config, data)
    g = model.g.values
    assert g.min() >= -1e-6 * max(g.max(), 1e-12)
    assert model.a >= config.a_min - 1e-12


def test_default_horizon_and_initial_m():
    rng = np.random.default_rng(12)
    data = _single_mode_data(rng, 15)
    assert default_horizon(data) == 30
    assert initial_constraint_horizon(data) == 15
