"""Tests for the repeated-pole, oscillating-pole and finite-response variants."""
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from posid import estimator, experiments
from posid.errors import ConfigError
from posid.estimator import PositiveIdConfig, identify, predict
from posid.extensions import (FiniteResponseConfig, OscillatingPoleConfig,
                              RepeatedPoleConfig, identify_finite_response,
                              identify_oscillating_poles,
                              identify_repeated_pole)
from posid.assembly import assemble_core, required_width
from posid.kernels import KernelSpec, gram, window_kernel
from posid.qp import ConvexQP, solve
from posid.signals import TimeSeriesData

from test_assembly import oscillation_tables


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
def test_repeated_pole_n1_matches_single_pole_estimator(seed, kernel,
                                                        certificate):
    # multiplicity one is the plain estimator: same modes, same QP.
    # Tight solve tolerances on both sides, otherwise each solver stops
    # at a slightly different point of the same flat valley.
    certificate(1e-12, 1e-12)
    rng = np.random.default_rng(seed)
    t = np.arange(40, dtype=float)
    data = _data_from_response(rng, 40, 0.9 ** t)
    base = PositiveIdConfig(kernel=N1_KERNELS[kernel], rho=0.9, lam=1e-3)
    plain = identify(base, data)
    rep = identify_repeated_pole(RepeatedPoleConfig(base=base, n=1), data)
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


def period_error(model):
    """Largest ``|n ifft(a_r + i a_i) - period|`` relative to the period."""
    back = model.n * np.fft.ifft(model.a_r + 1j * model.a_i)
    return float(np.max(np.abs(back - model.period))
                 / np.max(np.abs(model.period)))


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
    assert period_error(model) <= 1e-12
    # zero imaginary part over one period extends to every t
    Vr, Vi = oscillation_tables(2, horizon)
    imag = 0.9 ** tt * (Vi @ model.a_r + Vr @ model.a_i)
    assert np.max(np.abs(imag)) <= 1e-6
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


@pytest.mark.parametrize("fit", [
    identify,
    lambda base, data: identify_repeated_pole(RepeatedPoleConfig(base, 2),
                                              data),
    lambda base, data: identify_oscillating_poles(
        OscillatingPoleConfig(base, 2), data),
    lambda base, data: identify_oscillating_poles(
        OscillatingPoleConfig(base, 3), data),
    lambda base, data: identify_finite_response(
        FiniteResponseConfig(window_kernel(base.kernel, 30), base.lam), data),
], ids=["identify", "repeated2", "oscillating2", "oscillating3", "finite30"])
def test_reconstruct_replays_the_checked_response(fit):
    # the response a model reconstructs is, to the last bit, the one the
    # horizon loop checked and returned
    rng = np.random.default_rng(13)
    for n in (50, 80):
        t = np.arange(n, dtype=float)
        g_true = 0.98 ** t * (1.0 + 0.92 ** t * np.cos(
            2.0 * np.pi * (np.pi ** 2 / 10.0) * t))
        u = _prbs(rng, n)
        clean = np.convolve(u, g_true)[:n]
        sigma2 = float(clean @ clean) / n / 100.0  # 20 dB
        y = clean + np.sqrt(sigma2) * rng.standard_normal(n)
        base = PositiveIdConfig(kernel=KernelSpec.ss(0.97), rho=0.98,
                                lam=10.0 * sigma2)
        model = fit(base, TimeSeriesData.at_rest(u, y))
        assert np.array_equal(model.reconstruct(model.g.horizon).values,
                              model.g.values)


@pytest.mark.parametrize("fit", [
    identify,
    lambda base, data: identify_repeated_pole(RepeatedPoleConfig(base, 2),
                                              data),
    lambda base, data: identify_oscillating_poles(
        OscillatingPoleConfig(base, 2), data),
], ids=["identify", "repeated2", "oscillating2"])
@pytest.mark.parametrize("kernel", [
    KernelSpec.tc(0.0), KernelSpec.dc(0.0, 0.5), KernelSpec.ss(0.0)],
    ids=["tc", "dc", "ss"])
def test_zero_beta_kernel_fits(kernel, fit):
    # beta = 0 dominates at rate 0: k(t, t) vanishes past lag 0, so the
    # certified horizon is 1 and the fit is nonnegative far past the data
    rng = np.random.default_rng(0)
    u = _prbs(rng, 40)
    y = np.convolve(u, 0.9 ** np.arange(40.0))[:40] \
        + 0.01 * rng.standard_normal(40)
    data = TimeSeriesData.at_rest(u, y)
    base = PositiveIdConfig(kernel=kernel, rho=0.9, lam=1.0)
    model = fit(base, data)
    assert model.diagnostics.qp_status == "optimal"
    assert model.diagnostics.m0 == 1
    assert model.reconstruct(1000).values.min() >= 0.0


@pytest.mark.parametrize("kernel", sorted(N1_KERNELS))
@pytest.mark.parametrize("seed", [0, 3, 5])
def test_oscillating_n1_matches_single_pole_estimator(seed, kernel,
                                                      certificate):
    # a one-value period is the single pole: same modes, floor and zero
    # penalty, so the same QP and the same answer to the last bit
    certificate(1e-12, 1e-12)
    rng = np.random.default_rng(seed)
    t = np.arange(40, dtype=float)
    data = _data_from_response(rng, 40, 0.9 ** t)
    base = PositiveIdConfig(kernel=N1_KERNELS[kernel], rho=0.9, lam=1e-3)
    plain = identify(base, data)
    osc = identify_oscillating_poles(OscillatingPoleConfig(base=base, n=1),
                                     data)
    _same_loop(osc, plain)
    assert osc.a_r[0] == plain.a
    assert osc.a_i[0] == 0.0, "single pole has no imaginary part"
    assert np.array_equal(osc.g.values, plain.g.values)


def test_oscillating_n1_two_mode_record_at_tight_tolerances(certificate):
    # a second, faster mode in the record leaves the pole mode a misfit
    # to trade against the kernel part; the phase basis used to stall on
    # it short of the 1e-12 tolerances that identify meets
    certificate(1e-12, 1e-12)
    rng = np.random.default_rng(5)
    t = np.arange(40, dtype=float)
    data = _data_from_response(rng, 40, 0.9 ** t + 0.5 * 0.5 ** t)
    base = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.9, lam=1e-3)
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


def test_finite_response_matches_nonneg_ls_oracle(certificate):
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
    certificate(1e-11, 1e-11)
    est = identify_finite_response(FiniteResponseConfig(kernel, lam), data)
    T = scipy.linalg.toeplitz(u, np.zeros(n_g))
    K = gram(kernel, np.arange(n_g), np.arange(n_g))
    C = np.linalg.cholesky(K)
    R = scipy.linalg.solve_triangular(C, np.eye(n_g), lower=True)
    A = np.vstack([T, np.sqrt(lam) * R])
    b = np.concatenate([y, np.zeros(n_g)])
    g_oracle, _ = scipy.optimize.nnls(A, b)
    assert est.g.horizon == n_g
    np.testing.assert_allclose(est.g.values, g_oracle, atol=1e-6)


def _hand_built_finite_qp(config, data):
    # the finite response's QP as it was built before it ran through the
    # horizon loop: one QP over w on the pivoted sections, nonnegativity
    # of the sampled sections times w on the support
    n_g = config.kernel.support
    mats = assemble_core(config.kernel, data, n_g - 1)
    P = 2.0 * (mats.L.T @ mats.L + config.lam * mats.K)
    q = -2.0 * (mats.L.T @ mats.y)
    return ConvexQP(P=P, q=q, G=mats.rows, l=np.zeros(n_g)), mats.sections


def _monte_carlo_record(run, snr_db):
    protocol = experiments.McProtocol()
    u = experiments.gen_binary_input(
        protocol.n_d, np.random.SeedSequence([protocol.seed, run, 0]))
    clean = experiments.simulate_output(
        experiments.true_system(protocol, protocol.n_d), u, protocol.n_d)
    y = experiments.add_noise(clean, snr_db,
                              np.random.SeedSequence([protocol.seed, run, 1]))
    lam = 10.0 * experiments.noise_variance(clean, snr_db)
    return TimeSeriesData.at_rest(u, y), lam


def _short_record(seed, n):
    rng = np.random.default_rng(seed)
    g = 0.8 ** np.arange(n) * (1.0 + np.cos(np.arange(n)))
    data = _data_from_response(rng, n, g)
    noisy = data.outputs + 0.05 * rng.standard_normal(n)
    return TimeSeriesData.at_rest(data.inputs, noisy), 1e-2


@pytest.mark.parametrize("record, kernel, n_g", [
    (lambda: _monte_carlo_record(0, 10.0), KernelSpec.dc(0.9, 0.9), 125),
    (lambda: _monte_carlo_record(1, 30.0), KernelSpec.dc(0.9, 0.9), 125),
    (lambda: _short_record(1, 40), KernelSpec.tc(0.7), 12),
    (lambda: _short_record(2, 20), KernelSpec.ss(0.8), 30),
], ids=["mc-n200-10dB", "mc-n200-30dB", "tc-n40", "ss-n20-past-span"])
def test_finite_response_loop_is_the_hand_built_qp(record, kernel, n_g,
                                                   monkeypatch):
    data, lam = record()
    config = FiniteResponseConfig(kernel=window_kernel(kernel, n_g), lam=lam)
    built = []
    build_qp = estimator.build_qp

    def capture(*args):
        built.append(build_qp(*args))
        return built[-1]

    monkeypatch.setattr(estimator, "build_qp", capture)
    model = identify_finite_response(config, data)
    oracle, sections = _hand_built_finite_qp(config, data)
    (problem,) = built
    for name in ("P", "q"):
        np.testing.assert_allclose(getattr(problem, name),
                                   getattr(oracle, name), rtol=1e-12,
                                   atol=0.0, err_msg=name)
    np.testing.assert_array_equal(problem.G, oracle.G)
    np.testing.assert_array_equal(problem.l, oracle.l)
    sol = solve(oracle)
    g_oracle = estimator.reconstruct_h(sol.z, sections, config.kernel,
                                       n_g).values
    scale = np.max(np.abs(g_oracle))
    assert np.max(np.abs(model.g.values - g_oracle)) <= 1e-12 * scale
    np.testing.assert_array_equal(model.h.values, model.g.values)
    diag = model.diagnostics
    assert (model.m, diag.m0, diag.iterations) == (n_g - 1, n_g, 1)
    assert not diag.forced_accept and diag.qp_status == "optimal"
    assert diag.c0 == float(data.outputs @ data.outputs)
    assert model.rho == 0.0
    longer = model.reconstruct(n_g + 5).values
    np.testing.assert_allclose(longer[:n_g], model.g.values, rtol=1e-12,
                               atol=0.0)
    assert not longer[n_g:].any(), "zero past the support"


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
    np.testing.assert_allclose(est.g.values, g_true, atol=1e-4)
    assert est.g.values.min() >= -1e-10


def test_finite_response_zero_output_is_zero():
    rng = np.random.default_rng(6)
    u = _prbs(rng, 30)
    data = TimeSeriesData.at_rest(u, np.zeros(30))
    kernel = window_kernel(KernelSpec.dc(0.6, 0.5), 10)
    est = identify_finite_response(
        FiniteResponseConfig(kernel=kernel, lam=0.5), data)
    assert est.g.horizon == 10
    assert np.max(np.abs(est.g.values)) <= 1e-8, "zero data, zero response"


def test_extension_config_validation():
    base = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.9, lam=1.0)
    with pytest.raises(ConfigError, match="multiplicity"):
        RepeatedPoleConfig(base=base, n=0)
    with pytest.raises(ConfigError, match="pole count"):
        OscillatingPoleConfig(base=base, n=0)
    with pytest.raises(ConfigError, match="finite-support"):
        FiniteResponseConfig(kernel=KernelSpec.tc(0.5), lam=1.0)
    for lam in (0.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="lambda"):
            FiniteResponseConfig(kernel=window_kernel(KernelSpec.tc(0.5), 5),
                                 lam=lam)


def test_configs_holding_a_window_are_hashable_values():
    def configs():
        kernel = window_kernel(KernelSpec.tc(0.5), 3)
        return (kernel, PositiveIdConfig(kernel=kernel, rho=0.9, lam=1.0),
                FiniteResponseConfig(kernel=kernel, lam=1.0))
    for first, second in zip(configs(), configs()):
        assert first == second and hash(first) == hash(second)


def _mis_specified_record(seed, n=50):
    # the Monte Carlo system with a 0.8 pole, which the fits below take
    # to be 0.98; input and noise drawn from separate seed sequences
    truth = experiments.true_system(
        experiments.McProtocol(rho_true=0.8, beta_true=0.9), n)
    u = experiments.gen_binary_input(n, np.random.SeedSequence([seed, 0]))
    clean = experiments.simulate_output(truth, u, n)
    y = experiments.add_noise(clean, 10.0, np.random.SeedSequence([seed, 1]))
    base = PositiveIdConfig(kernel=KernelSpec.ss(0.97), rho=0.98,
                            lam=10.0 * experiments.noise_variance(clean, 10.0))
    return base, TimeSeriesData.at_rest(u, y)


def test_horizon_loop_grows_m_in_steps_within_its_pass_bound():
    # the repeated-pole fit of this record rejects several passes before
    # it accepts below m0
    base, data = _mis_specified_record(5, n=80)
    model = identify_repeated_pole(RepeatedPoleConfig(base, 2), data)
    diag = model.diagnostics
    width = required_width(data)
    step = estimator._DELTA_M
    assert diag.iterations >= 3 and not diag.forced_accept
    assert model.m == width + step * (diag.iterations - 1) < diag.m0
    assert diag.iterations <= math.ceil(max(diag.m0 - width, 0) / step) + 1
    assert model.reconstruct(diag.m0).values.min() >= -diag.neg_tol
    np.testing.assert_array_equal(
        model.reconstruct(model.g.horizon).values, model.g.values)


@pytest.mark.parametrize("seed, fit", [
    (4, identify),
    (13, lambda base, data: identify_oscillating_poles(
        OscillatingPoleConfig(base=base, n=2), data)),
], ids=["identify-4", "oscillating2-13"])
def test_mis_specified_short_record_converges(seed, fit):
    # degenerate QPs; the dual active-set method, and the polish of the
    # rows it holds, finish them
    model = fit(*_mis_specified_record(seed))
    diag = model.diagnostics
    assert diag.qp_status == "optimal"
    head = model.reconstruct(max(diag.m0, model.g.horizon)).values
    assert head[:diag.m0].min() >= -diag.neg_tol
