"""Tests for the repeated-pole, oscillating-pole and finite-response variants."""
import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from posid import estimator
from posid.errors import ConfigError, SolverError
from posid.estimator import PositiveIdConfig, identify, predict
from posid.extensions import (FiniteResponseConfig, OscillatingPoleConfig,
                              RepeatedPoleConfig, identify_finite_response,
                              identify_oscillating_poles,
                              identify_repeated_pole)
from posid.kernels import KernelSpec, gram, window_kernel
from posid.qp import SolveOptions
from posid.signals import TimeSeriesData


def _prbs(rng, n):
    return rng.choice([-1.0, 1.0], size=n)


def _fit(est, truth):
    n = min(est.size, truth.size)
    return 100.0 * (1.0 - np.linalg.norm(est[:n] - truth[:n])
                    / np.linalg.norm(truth[:n]))


def _data_from_response(rng, n, g):
    u = _prbs(rng, n)
    y = np.convolve(u, g[:n])[:n]
    return TimeSeriesData.at_rest(u, y)


# Kernels whose decay is strictly faster than the 0.9 pole of the
# single-mode comparisons below.
N1_KERNELS = {"tc": KernelSpec.tc(0.5), "dc": KernelSpec.dc(0.5, 0.5),
              "ss": KernelSpec.ss(0.8)}


def _same_loop(model, plain):
    # one basis loop: same horizon path, and the same cap mode up to the
    # rounding of convolving it alongside other modes
    assert (model.m, model.diagnostics.m0, model.diagnostics.iterations) \
        == (plain.m, plain.diagnostics.m0, plain.diagnostics.iterations)
    assert model.diagnostics.c0 == pytest.approx(plain.diagnostics.c0,
                                                 rel=1e-9, abs=1e-20)


@pytest.mark.parametrize("kernel", sorted(N1_KERNELS))
@pytest.mark.parametrize("seed", [0, 3, 5])
def test_repeated_pole_n1_matches_single_pole_estimator(seed, kernel):
    # multiplicity one is the plain estimator: same modes, same QP.
    # Tight solve tolerances on both sides, otherwise each solver stops
    # at a slightly different point of the same flat valley.
    rng = np.random.default_rng(seed)
    t = np.arange(40, dtype=float)
    data = _data_from_response(rng, 40, 0.9 ** t)
    base = PositiveIdConfig(kernel=N1_KERNELS[kernel], rho=0.9, lam=1e-3,
                            solve_options=SolveOptions(1e-12, 1e-12))
    plain = identify(base, data)
    rep = identify_repeated_pole(
        RepeatedPoleConfig(base=base, n=1, epsilon=1e-10), data)
    _same_loop(rep, plain)
    assert rep.a == pytest.approx(plain.a, abs=1e-7)
    assert rep.a_poly.size == 0
    np.testing.assert_allclose(rep.g.values, plain.g.values, atol=1e-7)


def test_repeated_pole_recovers_polynomial_amplitude():
    rng = np.random.default_rng(1)
    t = np.arange(60, dtype=float)
    g_true = (1.0 + 0.5 * t) * 0.8 ** t
    data = _data_from_response(rng, 60, g_true)
    base = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.8, lam=1e-3)
    model = identify_repeated_pole(RepeatedPoleConfig(base=base, n=2), data)
    horizon = model.g.horizon
    truth = (1.0 + 0.5 * np.arange(horizon)) * 0.8 ** np.arange(horizon)
    assert _fit(model.g.values, truth) >= 99.0
    assert model.a == pytest.approx(0.5, abs=0.05)
    assert model.a_poly[0] == pytest.approx(1.0, abs=0.05)
    assert model.g.values.min() >= -1e-6 * model.g.values.max()
    # reconstruct replays the stored coefficients
    np.testing.assert_allclose(model.reconstruct(horizon).values,
                               model.g.values, atol=1e-10)


def test_oscillating_period_two_recovery():
    # g_t = rho^t on even t, 0 on odd t, i.e. rho^t (1 + cos(pi t)) / 2
    rng = np.random.default_rng(2)
    t = np.arange(60, dtype=float)
    g_true = 0.9 ** t * 0.5 * (1.0 + np.cos(np.pi * t))
    data = _data_from_response(rng, 60, g_true)
    base = PositiveIdConfig(kernel=KernelSpec.tc(0.6), rho=0.9, lam=1e-3)
    model = identify_oscillating_poles(OscillatingPoleConfig(base=base, n=2),
                                       data)
    horizon = model.g.horizon
    tt = np.arange(horizon, dtype=float)
    truth = 0.9 ** tt * 0.5 * (1.0 + np.cos(np.pi * tt))
    assert _fit(model.g.values, truth) >= 99.0
    np.testing.assert_allclose(model.a_r, [0.5, 0.5], atol=0.02)
    np.testing.assert_allclose(model.a_i, [0.0, 0.0], atol=0.02)
    assert model.equality_residual <= 1e-8
    # zero imaginary part over one period extends to every t
    assert np.max(np.abs(model.dominant_imag_values(horizon))) <= 1e-6
    np.testing.assert_allclose(model.reconstruct(horizon).values,
                               model.g.values, atol=1e-10)


def test_oscillating_period_three_recovery():
    # a sine part tells the sign convention apart: the fitted outputs and
    # the returned response must use the same real part
    def g_true(horizon):
        phase = 2.0 * np.pi * np.arange(horizon) / 3.0
        return 0.9 ** np.arange(horizon) * (1.0 + np.cos(phase)
                                            + 0.5 * np.sin(phase))

    data = _data_from_response(np.random.default_rng(2), 80, g_true(80))
    base = PositiveIdConfig(kernel=KernelSpec.tc(0.6), rho=0.9, lam=1e-3)
    model = identify_oscillating_poles(OscillatingPoleConfig(base=base, n=3),
                                       data)
    assert _fit(model.g.values, g_true(model.g.horizon)) >= 99.0
    np.testing.assert_allclose(predict(model, data, data.sample_times),
                               data.outputs, atol=1e-3)


@pytest.mark.parametrize("kernel", sorted(N1_KERNELS))
@pytest.mark.parametrize("seed", [0, 3, 5])
def test_oscillating_n1_matches_single_pole_estimator(seed, kernel):
    # a one-value period is the single pole: same modes, floor and zero
    # penalty, so the same QP and the same answer to the last bit
    rng = np.random.default_rng(seed)
    t = np.arange(40, dtype=float)
    data = _data_from_response(rng, 40, 0.9 ** t)
    base = PositiveIdConfig(kernel=N1_KERNELS[kernel], rho=0.9, lam=1e-3,
                            solve_options=SolveOptions(tol_feas=1e-12,
                                                       tol_gap=1e-12))
    plain = identify(base, data)
    osc = identify_oscillating_poles(OscillatingPoleConfig(base=base, n=1),
                                     data)
    _same_loop(osc, plain)
    assert osc.a_r[0] == plain.a
    assert osc.a_i[0] == 0.0, "single pole has no imaginary part"
    assert np.array_equal(osc.g.values, plain.g.values)


def test_oscillating_n1_two_mode_record_at_tight_tolerances():
    # a second, faster mode in the record leaves the pole mode a misfit
    # to trade against the kernel part; the phase basis used to stall on
    # it short of the 1e-12 tolerances that identify meets
    rng = np.random.default_rng(5)
    t = np.arange(40, dtype=float)
    data = _data_from_response(rng, 40, 0.9 ** t + 0.5 * 0.5 ** t)
    base = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.9, lam=1e-3,
                            solve_options=SolveOptions(1e-12, 1e-12))
    plain = identify(base, data)
    osc = identify_oscillating_poles(OscillatingPoleConfig(base=base, n=1),
                                     data)
    _same_loop(osc, plain)
    assert osc.diagnostics.qp_status == "optimal"
    assert osc.a_r[0] == pytest.approx(plain.a, abs=1e-6)
    np.testing.assert_allclose(osc.g.values, plain.g.values, atol=1e-6)


@pytest.mark.parametrize("fit", [
    identify,
    lambda base, data: identify_oscillating_poles(
        OscillatingPoleConfig(base, 2), data),
], ids=["identify", "oscillating"])
def test_finite_support_kernel_with_dominant_pole(fit):
    # the kernel support (12) is shorter than the data width (40), so the
    # sections stop at the support while the positivity rows run to m;
    # past the support the response is the dominant part alone
    rng = np.random.default_rng(0)
    t = np.arange(40, dtype=float)
    g_true = 0.9 ** t * (1.0 + 0.5 * np.cos(np.pi * t)) + 0.3 * 0.6 ** t
    u = _prbs(rng, 40)
    y = np.convolve(u, g_true)[:40] + 0.01 * rng.standard_normal(40)
    data = TimeSeriesData.at_rest(u, y)
    base = PositiveIdConfig(kernel=window_kernel(KernelSpec.tc(0.7), 12),
                            rho=0.9, lam=1e-2)
    model = fit(base, data)
    horizon = model.g.horizon
    assert model.diagnostics.qp_status == "optimal"
    assert model.m >= 12 and model.w.size == 12
    np.testing.assert_allclose(model.reconstruct(horizon).values,
                               model.g.values, atol=1e-10)
    np.testing.assert_allclose(model.g.values[12:],
                               model.dominant_values(horizon)[12:],
                               atol=1e-12)


@pytest.mark.parametrize("fit", [
    identify,
    lambda base, data: identify_repeated_pole(RepeatedPoleConfig(base, 2),
                                              data),
    lambda base, data: identify_oscillating_poles(
        OscillatingPoleConfig(base, 2), data),
], ids=["identify", "repeated", "oscillating"])
def test_loop_overrun_raises_solver_error(fit, monkeypatch):
    monkeypatch.setattr(estimator, "_MAX_LOOPS", 0)
    rng = np.random.default_rng(7)
    data = _data_from_response(rng, 30, 0.9 ** np.arange(30, dtype=float))
    base = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.9, lam=1e-2)
    with pytest.raises(SolverError, match="failed to terminate"):
        fit(base, data)


def test_finite_response_matches_nonneg_ls_oracle():
    # eliminate the kernel by hand: with g = K w the problem is
    # min ||T g - y||^2 + lam g' K^-1 g over g >= 0, an NNLS after
    # stacking sqrt(lam) R with R'R = K^-1
    rng = np.random.default_rng(4)
    n, n_g = 40, 12
    u = _prbs(rng, n)
    g_true = np.abs(rng.standard_normal(n_g)) * 0.8 ** np.arange(n_g)
    y = np.convolve(u, g_true)[:n] + 0.01 * rng.standard_normal(n)
    data = TimeSeriesData.at_rest(u, y)
    kernel = window_kernel(KernelSpec.tc(0.7), n_g)
    lam = 1e-2
    config = FiniteResponseConfig(
        kernel=kernel, lam=lam,
        solve_options=SolveOptions(tol_feas=1e-11, tol_gap=1e-11))
    est = identify_finite_response(config, data)
    T = scipy.linalg.toeplitz(u, np.zeros(n_g))
    K = gram(kernel, np.arange(n_g), np.arange(n_g))
    C = np.linalg.cholesky(K)
    R = scipy.linalg.solve_triangular(C, np.eye(n_g), lower=True)
    A = np.vstack([T, np.sqrt(lam) * R])
    b = np.concatenate([y, np.zeros(n_g)])
    g_oracle, _ = scipy.optimize.nnls(A, b)
    assert est.horizon == n_g
    np.testing.assert_allclose(est.values, g_oracle, atol=1e-6)


def test_finite_response_recovers_taps_noiseless():
    rng = np.random.default_rng(5)
    n, n_g = 40, 8
    u = _prbs(rng, n)
    g_true = np.zeros(n_g)
    g_true[:5] = [1.0, 0.5, 0.0, 0.25, 0.1]
    y = np.convolve(u, g_true)[:n]
    data = TimeSeriesData.at_rest(u, y)
    kernel = window_kernel(KernelSpec.tc(0.7), n_g)
    est = identify_finite_response(
        FiniteResponseConfig(kernel=kernel, lam=1e-8), data)
    np.testing.assert_allclose(est.values, g_true, atol=1e-4)
    assert est.values.min() >= -1e-10


def test_finite_response_zero_output_is_zero():
    rng = np.random.default_rng(6)
    u = _prbs(rng, 30)
    data = TimeSeriesData.at_rest(u, np.zeros(30))
    kernel = window_kernel(KernelSpec.dc(0.6, 0.5), 10)
    est = identify_finite_response(
        FiniteResponseConfig(kernel=kernel, lam=0.5), data)
    assert est.horizon == 10
    assert np.max(np.abs(est.values)) <= 1e-8, "zero data, zero response"


def test_extension_config_validation():
    base = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.9, lam=1.0)
    with pytest.raises(ConfigError, match="multiplicity"):
        RepeatedPoleConfig(base=base, n=0)
    with pytest.raises(ConfigError, match="pole count"):
        OscillatingPoleConfig(base=base, n=0)
    with pytest.raises(ConfigError, match="epsilon"):
        RepeatedPoleConfig(base=base, n=2, epsilon=-1.0)
    with pytest.raises(ConfigError, match="finite-support"):
        FiniteResponseConfig(kernel=KernelSpec.tc(0.5), lam=1.0)
    with pytest.raises(ConfigError, match="lambda"):
        FiniteResponseConfig(kernel=window_kernel(KernelSpec.tc(0.5), 5),
                             lam=0.0)
