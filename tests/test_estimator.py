"""Core estimator tests: QP construction, certified horizon, recovery."""
import logging
import math

import numpy as np
import pytest
import scipy.linalg

from posid import estimator
from posid.assembly import (assemble_core, assemble_polynomial_blocks,
                            input_weight_matrix, required_width)
from posid.errors import ConfigError, SolverError
from posid.estimator import (PositiveIdConfig, _m0_from_constants, build_qp,
                             cap_misfit, compute_m0, default_horizon, identify,
                             initial_constraint_horizon, predict,
                             reconstruct_h)
from posid.kernels import KernelSpec, gram, window_kernel
from posid.qp import solve
from posid.signals import TimeSeriesData, convolve
from posid.tuning import default_split


def _prbs(rng, n):
    return rng.choice([-1.0, 1.0], size=n)


def _single_mode_data(rng, n, a=1.0, rho=0.9):
    u = _prbs(rng, n)
    g = a * rho ** np.arange(n, dtype=float)
    y = np.convolve(u, g)[:n]
    return TimeSeriesData.at_rest(u, y)


def representer_normal_equations(config, data, basis, m):
    """Unconstrained minimiser in the paper's representer form.

    The representer coefficients ``x`` weight the input-convolved sample
    functionals, with Gram ``O``, and the kernel sections ``0 .. m``,
    with Gram ``K``; ``L`` pairs the two.  The normal equations
    ``(M'M + blkdiag(penalty, lam Gamma)) z = M' y`` with
    ``M = [B, O, L]`` and ``Gamma = [[O, L], [L', K]]`` are solved in the
    min-norm sense.  Returns ``(z, fitted, objective)``: the solution
    mapped to ``(mode coefficients, w)`` through ``w = W' x_s + x_k``,
    the fitted outputs ``M z`` and the objective without the ``y'y``
    constant, all computed in the representer form.
    """
    p = basis.size
    n_sec = max(required_width(data), m + 1)
    W = input_weight_matrix(data, n_sec)
    K_all = gram(config.kernel, np.arange(n_sec), np.arange(n_sec))
    O = W @ K_all @ W.T
    L = W @ K_all[:, :m + 1]
    K = K_all[:m + 1, :m + 1]
    M = np.hstack([basis.B, O, L])
    H = M.T @ M
    H[:p, :p] += basis.penalty
    H[p:, p:] += config.lam * np.block([[O, L], [L.T, K]])
    x, *_ = np.linalg.lstsq(H, M.T @ data.outputs, rcond=None)
    objective = float(x @ H @ x - 2.0 * data.outputs @ M @ x)
    n = W.shape[0]
    w = W.T @ x[p:p + n]
    w[:m + 1] += x[p + n:]
    return np.concatenate([x[:p], w]), M @ x, objective


def _fit(est, truth):
    n = min(est.size, truth.size)
    return 100.0 * (1.0 - np.linalg.norm(est[:n] - truth[:n])
                    / np.linalg.norm(truth[:n]))


def test_m0_formula_example():
    assert _m0_from_constants(c0=100.0, c=1.0, rho_d=0.8, rho=0.9,
                              a_min=0.01, lam=1.0) == 59


def test_m0_at_a_zero_domination_rate():
    # k(t, t) = 0 for every t >= 1, so only lag 0 can need the bound
    assert _m0_from_constants(c0=100.0, c=1.0, rho_d=0.0, rho=0.9,
                              a_min=0.01, lam=1.0) == 1
    assert _m0_from_constants(c0=1e-6, c=1.0, rho_d=0.0, rho=0.9,
                              a_min=0.01, lam=1.0) == 0


def test_m0_zero_when_single_mode_fits_exactly():
    rng = np.random.default_rng(0)
    data = _single_mode_data(rng, 40, a=1.0, rho=0.9)
    basis = assemble_polynomial_blocks(data, 0.9, 1, a_min=0.5)
    c0 = cap_misfit(basis, data.outputs)
    assert compute_m0(KernelSpec.tc(0.5), 1.0, basis, c0) == 0


def test_m0_finite_kernel_caps_at_support():
    rng = np.random.default_rng(1)
    data = _single_mode_data(rng, 20)
    kernel = window_kernel(KernelSpec.tc(0.5), 7)
    basis = assemble_polynomial_blocks(data, 0.9, 1)
    c0 = cap_misfit(basis, data.outputs)
    assert compute_m0(kernel, 1.0, basis, c0) == 7


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
    problem = build_qp(config.lam, mats, basis)
    assert problem.G.shape[0] == 2
    assert problem.l[1] == config.a_min


def test_incompatible_decay_rejected():
    # TC beta=0.81 certifies rate 0.9, not strictly below rho=0.9
    with pytest.raises(ConfigError, match="not strictly smaller"):
        PositiveIdConfig(kernel=KernelSpec.tc(0.81), rho=0.9, lam=1.0)


@pytest.mark.parametrize("setting, name", [
    ({"lam": np.nan}, "lambda"), ({"lam": np.inf}, "lambda"),
    ({"lam": 0.0}, "lambda"), ({"a_min": np.nan}, "a_min"),
    ({"a_min": np.inf}, "a_min"),
], ids=["lam-nan", "lam-inf", "lam-zero", "a-min-nan", "a-min-inf"])
def test_nonfinite_or_nonpositive_settings_rejected(setting, name):
    # a NaN passes a `<= 0` test, so each setting must be shown finite
    with pytest.raises(ConfigError, match=f"{name} must be positive and "
                                          "finite"):
        PositiveIdConfig(**{"kernel": KernelSpec.tc(0.5), "rho": 0.9,
                            "lam": 1.0, **setting})


def test_rank_deficient_fit_names_its_settings():
    # the heating reconstruction: 801 samples of a dithered level from
    # default_rng(1), noise drawn after the input, the 500-sample training
    # window and its 350 inner-train samples; at lam 1e-6 near the
    # coupling boundary, lam K no longer lifts P above the roundoff of
    # M'M, and the fit is refused with the settings to change
    rng = np.random.default_rng(1)
    u = 3.0 + 0.5 * rng.choice([-1.0, 1.0], size=801)
    y = (np.convolve(u, 0.4 * 0.85 ** np.arange(60.0))[:801]
         + 0.01 * rng.standard_normal(801))
    data = TimeSeriesData.at_rest(u, y).restrict(np.arange(500))
    data = data.restrict(default_split(500).train_indices)
    assert data.n_samples == 350
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.99), rho=0.999,
                              lam=1e-6)
    with pytest.raises(ConfigError) as err:
        identify(config, data)
    message = str(err.value)
    for part in ("not positive definite", "rank 322 of 352", "lam=1e-06",
                 "rho=0.999", "kind='tc', beta=0.99", "raise lam",
                 "coupling boundary"):
        assert part in message, part
    assert err.value.exit_code == 2


def test_unconstrained_minimizer_is_normal_equations():
    # The representer-form coefficients are not unique (the representers
    # outnumber the samples), so the comparison with the section-form QP
    # runs on the identifiable quantities: amplitude, fitted outputs,
    # response samples, objective.
    rng = np.random.default_rng(2)
    data = _single_mode_data(rng, 25)
    noisy = TimeSeriesData.at_rest(
        data.inputs, data.outputs + 0.1 * rng.standard_normal(25))
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.6), rho=0.9, lam=0.5)
    mats = assemble_core(config.kernel, noisy, m=10)
    basis = assemble_polynomial_blocks(noisy, config.rho, 1)
    problem = build_qp(config.lam, mats, basis)
    # the minimiser without the positivity rows
    z = scipy.linalg.solve(problem.P, -problem.q, assume_a="pos")
    oracle, fitted, obj_ne = representer_normal_equations(config, noisy,
                                                          basis, 10)
    M = np.hstack([basis.B, mats.L])
    assert z[0] == pytest.approx(oracle[0], abs=1e-8)
    np.testing.assert_allclose(M @ z, fitted, atol=1e-8)
    h_free = reconstruct_h(z[1:], mats.sections, config.kernel, 30)
    h_ne = reconstruct_h(oracle[1:], np.arange(oracle.size - 1),
                         config.kernel, 30)
    np.testing.assert_allclose(h_free.values, h_ne.values, atol=1e-8)
    assert problem.objective(z) == pytest.approx(obj_ne, abs=1e-8)


def test_pure_mode_data_recovers_amplitude():
    rng = np.random.default_rng(0)
    data = _single_mode_data(rng, 16, a=1.0, rho=0.8)
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.36), rho=0.8, lam=1e-8)
    model = identify(config, data)
    assert abs(model.a - 1.0) <= 1e-3
    assert np.linalg.norm(model.w) <= 1e-3


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
    sol = solve(build_qp(config.lam, mats, basis))
    a2 = float(sol.z[0])
    h2 = reconstruct_h(sol.z[1:], mats.sections, config.kernel,
                       model.g.horizon)
    g2 = h2.values + a2 * config.rho ** np.arange(model.g.horizon,
                                                  dtype=float)
    assert abs(a2 - model.a) <= 1e-6
    np.testing.assert_allclose(g2, model.g.values, atol=1e-6)


def test_reconstruct_h_trivial_coefficients():
    kernel = KernelSpec.tc(0.7)
    sections = np.array([0, 2, 5])
    zero = reconstruct_h(np.zeros(3), sections, kernel, 12)
    np.testing.assert_array_equal(zero.values, np.zeros(12))
    # a single coefficient selects its section
    h = reconstruct_h(np.array([0.0, 1.0, 0.0]), sections, kernel, 12)
    np.testing.assert_allclose(h.values,
                               gram(kernel, [2], np.arange(12))[0],
                               atol=1e-14)


def test_reconstruct_h_matches_constraint_rows():
    # the constraint rows sample h = sum_j w[j] k(., J[j]), and L
    # convolves the same h with the input at the sample times
    rng = np.random.default_rng(8)
    data = _single_mode_data(rng, 12)
    kernel = KernelSpec.dc(0.7, 0.4)
    m = 6
    mats = assemble_core(kernel, data, m)
    w = rng.standard_normal(mats.sections.size)
    h = reconstruct_h(w, mats.sections, kernel, m + 1)
    np.testing.assert_allclose(h.values, mats.rows @ w, atol=1e-10)
    h_full = reconstruct_h(w, mats.sections, kernel, required_width(data))
    outputs = [convolve(h_full, data, int(t)) for t in data.sample_times]
    np.testing.assert_allclose(mats.L @ w, outputs, atol=1e-10)


@pytest.mark.parametrize(
    "kernel, m", [(KernelSpec.dc(0.7, 0.4), 700),
                  (window_kernel(KernelSpec.tc(0.8), 9), 7)],
    ids=["dc", "windowed-tc"])
def test_reconstruct_h_from_known_rows_matches_the_gram(kernel, m):
    rng = np.random.default_rng(11)
    mats = assemble_core(kernel, _single_mode_data(rng, 12), m)
    w = rng.standard_normal(mats.sections.size)
    longest = reconstruct_h(w, mats.sections, kernel, 1100).values
    for horizon in (5, 8, 30, 1100):
        h = reconstruct_h(w, mats.sections, kernel, horizon)
        # a lag's bits do not depend on how far the reconstruction runs
        np.testing.assert_array_equal(h.values, longest[:horizon])
        # against one product with the whole Gram only the order of the
        # sums may differ: a few roundoffs of |k| |w|, and past lag ~700
        # the dc values are subnormal, where that bound underflows to 0
        full = gram(kernel, np.arange(horizon), mats.sections)
        bound = 8 * np.finfo(float).eps * (np.abs(full) @ np.abs(w)) \
            + np.finfo(float).tiny
        assert np.all(np.abs(h.values - full @ w) <= bound)


def test_horizon_loop_builds_no_gram_rows_it_already_has(monkeypatch):
    rng = np.random.default_rng(12)
    data = _single_mode_data(rng, 20)
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.6), rho=0.9, lam=0.5,
                              horizon=300)
    lags = []
    real_gram = estimator.gram

    def recording(kernel, rows, cols):
        lags.append(np.asarray(rows))
        return real_gram(kernel, rows, cols)

    monkeypatch.setattr(estimator, "gram", recording)
    model = identify(config, data)
    assert model.diagnostics.iterations == 1
    assert model.g.horizon > model.sections.max() + 1
    # the one reconstruction builds the lags up to the last section once,
    # however far m0 and the horizon reach: the kernel's tail does the rest
    built = np.concatenate(lags)
    np.testing.assert_array_equal(built, np.arange(model.sections.max() + 1))


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
    oracle = b * model.a + mats.L @ model.w
    got = predict(model, data, data.sample_times)
    np.testing.assert_allclose(got, oracle, atol=1e-8)


def test_predict_past_the_fitted_horizon_and_at_no_times():
    # later samples reconstruct the response out to the furthest lag
    # they need, so they equal a convolution with that reconstruction
    rng = np.random.default_rng(9)
    data = _single_mode_data(rng, 25, rho=0.85)
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.6), rho=0.85, lam=0.2,
                              horizon=10)
    model = identify(config, data)
    assert model.g.horizon == 10
    times = np.arange(10, 25)
    np.testing.assert_array_equal(
        predict(model, data, times),
        convolve(model.reconstruct(25), data, times))
    assert predict(model, data, []).shape == (0,)


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
    # inputs reproduces them
    rng = np.random.default_rng(13)
    n = 30
    u = _prbs(rng, n)
    data = TimeSeriesData.at_rest(u, u.copy())
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.9, lam=1e-7)
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


def test_min_g_is_the_minimum_of_a_positive_response():
    # a strictly positive fit reports its true minimum, not zero
    rng = np.random.default_rng(4)
    data = _single_mode_data(rng, 30, rho=0.9)
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.7), rho=0.9, lam=1e-6)
    model = identify(config, data)
    diag = model.diagnostics
    checked = model.reconstruct(max(diag.m0, model.g.horizon, model.m + 1))
    assert diag.min_g > 0.0
    assert diag.min_g == checked.values.min()


def test_short_noisy_mis_specified_record_converges():
    # n = 50 at 10 dB from a system whose pole (0.8) is not the assumed
    # 0.98; the inner QP used to stall short of the identify tolerances
    rng = np.random.default_rng(12)
    n = 50
    t = np.arange(n, dtype=float)
    g_true = 0.8 ** t * (1.0 + 0.9 ** t * np.cos(2.0 * np.pi
                                                  * (np.pi ** 2 / 10.0) * t))
    u = rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
    clean = np.convolve(u, g_true)[:n]
    sigma2 = float(clean @ clean) / n / 10.0
    y = clean + rng.normal(0.0, np.sqrt(sigma2), size=n)
    data = TimeSeriesData.at_rest(u, y)
    config = PositiveIdConfig(kernel=KernelSpec.ss(0.97), rho=0.98,
                              lam=10.0 * sigma2)
    model = identify(config, data)
    diag = model.diagnostics
    assert diag.qp_status == "optimal"
    assert not diag.forced_accept
    # the one tier-1 fit that grows the horizon: 50 -> 100, below m0
    assert (diag.iterations, model.m) == (2, 100)
    assert diag.m0 > model.m
    head = model.reconstruct(max(diag.m0, model.g.horizon)).values
    assert head[:diag.m0].min() >= -diag.neg_tol


def _noisy_single_mode_record():
    # 40 samples of 0.9**t driven by +-1, noise 0.01 N(0, 1) drawn after
    # the input: m starts at 40, and tc(0.5), rho 0.9, lam 0.1 give m0 50
    rng = np.random.default_rng(0)
    u = _prbs(rng, 40)
    y = np.convolve(u, 0.9 ** np.arange(40.0))[:40] \
        + 0.01 * rng.standard_normal(40)
    return TimeSeriesData.at_rest(u, y)


_NOISY_RECORD_CONFIG = PositiveIdConfig(KernelSpec.tc(0.5), 0.9, 0.1)


def test_uncertified_qp_ends_the_fit_with_solver_error(certificate):
    # zero tolerances certify no solve, so the first pass raises, naming
    # the status and the three residuals
    certificate(0.0, 0.0)
    with pytest.raises(SolverError, match=r"inner QP did not converge: "
                       r"status max_iterations, primal \S+, dual \S+, "
                       r"gap \S+$"):
        identify(_NOISY_RECORD_CONFIG, _noisy_single_mode_record())


def test_acceptance_is_forced_at_the_certified_horizon(monkeypatch, caplog):
    # a negative tolerance fails every pass's nonnegativity check, so the
    # loop grows m to m0 and accepts there, within the passes the
    # _fit_basis docstring bounds, warning once
    monkeypatch.setattr(estimator, "_NEG_TOL_SCALE", -1.0)
    data = _noisy_single_mode_record()
    with caplog.at_level(logging.WARNING, logger="posid.estimator"):
        model = identify(_NOISY_RECORD_CONFIG, data)
    diag = model.diagnostics
    assert diag.forced_accept and diag.qp_status == "optimal"
    assert (model.m, diag.m0, diag.iterations) == (50, 50, 2)
    assert diag.iterations == math.ceil(
        (diag.m0 - initial_constraint_horizon(data)) / estimator._DELTA_M) + 1
    warnings = [record.getMessage() for record in caplog.records
                if record.levelno >= logging.WARNING]
    assert len(warnings) == 1
    assert "accepting at the certified horizon m=50" in warnings[0]


def test_default_horizon_and_initial_m():
    rng = np.random.default_rng(12)
    data = _single_mode_data(rng, 15)
    assert default_horizon(data) == 30
    assert initial_constraint_horizon(data) == 15
