"""Synthetic study and heating harness tests."""
import math

import numpy as np
import pytest
import scipy.linalg

from posid.errors import ConfigError, DataError
from posid.experiments import (HeatingConfig, McConfig, McProtocol, add_noise,
                               convert_daisy_whitespace, fit_impulse,
                               fit_output, gen_binary_input,
                               load_heating_data, noise_variance,
                               run_heating, run_monte_carlo, simulate_output,
                               true_system)
from posid.kernels import KernelSpec, decay_compatible
from posid.signals import TimeSeriesData, convolve, read_timeseries_csv


def test_true_system_head_and_positivity():
    protocol = McProtocol()
    g = true_system(protocol, 400)
    assert g.values[0] == 2.0, "t=0: rho^0 (1 + beta^0 cos 0)"
    assert g.values.min() > 0.0, "response must be strictly positive"


def test_true_system_tail_approaches_dominant_mode():
    protocol = McProtocol()
    g = true_system(protocol, 301)
    # the oscillation decays at beta^t, so rho^-t g_t -> 1
    ratio = g.values[300] / protocol.rho_true ** 300
    assert abs(ratio - 1.0) <= 1e-10


def test_binary_input_values_mean_and_determinism():
    u = gen_binary_input(10000, 42)
    assert set(np.unique(u)) == {-1.0, 1.0}
    assert abs(u.mean()) <= 0.05
    np.testing.assert_array_equal(u, gen_binary_input(10000, 42))
    assert not np.array_equal(u, gen_binary_input(10000, 43))


def test_square_binary_toeplitz_motivates_shorter_fir():
    # a square binary Toeplitz system is numerically singular, which is
    # why the study keeps the FIR length below the record length
    u = gen_binary_input(120, 0)
    square = scipy.linalg.toeplitz(u, np.zeros(120))
    over = scipy.linalg.toeplitz(u, np.zeros(60))
    assert np.linalg.cond(square) > 1e10
    assert np.linalg.cond(over) < 1e4


def test_add_noise_hits_requested_snr():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(10000) * 3.0
    noisy = add_noise(y, 20.0, 1)
    noise = noisy - y
    measured = 10.0 * math.log10(float(y @ y) / float(noise @ noise))
    assert abs(measured - 20.0) <= 0.5
    assert noise_variance(y, 20.0) == pytest.approx(
        float(y @ y) / y.size / 100.0)


def test_add_noise_300db_is_negligible():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(2000)
    noise = add_noise(y, 300.0, 2) - y
    assert np.linalg.norm(noise) / np.linalg.norm(y) <= 1e-14


def test_add_noise_same_seed_is_identical():
    rng = np.random.default_rng(4)
    y = rng.standard_normal(100)
    np.testing.assert_array_equal(add_noise(y, 15.0, 7), add_noise(y, 15.0, 7))
    assert not np.array_equal(add_noise(y, 15.0, 7), add_noise(y, 15.0, 8))


def test_simulate_output_matches_pointwise_convolution():
    rng = np.random.default_rng(2)
    u = gen_binary_input(25, 3)
    g = true_system(McProtocol(), 25)
    y = simulate_output(g, u, 25)
    data = TimeSeriesData.at_rest(u, y)
    for t in range(25):
        assert y[t] == pytest.approx(convolve(g, data, t), abs=1e-12)


def test_fit_impulse_reference_points():
    g = 0.9 ** np.arange(50)
    assert fit_impulse(g, g) == 100.0
    assert fit_impulse(np.zeros(50), g) == pytest.approx(0.0, abs=1e-12)
    # doubling is a relative error of exactly one, same as guessing zero
    assert fit_impulse(2.0 * g, g) == pytest.approx(0.0, abs=1e-12)
    shift = np.ones(50)
    closer = fit_impulse(g + 0.01 * shift, g)
    farther = fit_impulse(g + 0.02 * shift, g)
    assert closer > farther
    with pytest.raises(DataError, match="zero norm"):
        fit_impulse(g, np.zeros(50))


def test_fit_output_reference_points():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(100)
    assert fit_output(y, y) == 100.0
    assert fit_output(np.full(100, y.mean()), y) == pytest.approx(0.0,
                                                                  abs=1e-12)
    scores = [fit_output(y + c, y) for c in (0.0, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(scores, scores[1:]))
    with pytest.raises(DataError, match="constant"):
        fit_output(np.zeros(5), np.ones(5))


def test_monte_carlo_mse_identity_and_rows():
    protocol = McProtocol(runs=3, n_d=60, snr_levels_db=(20.0,), seed=5)
    config = McConfig(n_g=40, horizon=80, workers=1)
    report = run_monte_carlo(protocol, methods=("b", "g"), config=config)
    assert report.methods == ("b", "g")
    assert len(report.stats) == 2
    for cell in report.stats:
        assert cell.failures == 0
        assert len(cell.fits) == 3
        # exact bias-variance split of the mean squared error
        assert cell.mse == pytest.approx(cell.bias ** 2 + cell.variance,
                                         rel=1e-8)
    assert len(report.fit_rows) == 6
    runs_seen = sorted(row[2] for row in report.fit_rows if row[0] == "g")
    assert runs_seen == [0, 1, 2]


def test_monte_carlo_deterministic_across_scheduling():
    protocol = McProtocol(runs=2, n_d=50, snr_levels_db=(20.0,), seed=9)
    serial = run_monte_carlo(protocol, methods=("b", "e"),
                             config=McConfig(n_g=30, horizon=60, workers=1))
    again = run_monte_carlo(protocol, methods=("b", "e"),
                            config=McConfig(n_g=30, horizon=60, workers=1))
    pooled = run_monte_carlo(protocol, methods=("b", "e"),
                             config=McConfig(n_g=30, horizon=60, workers=2))
    assert serial == again
    assert serial == pooled, "results must not depend on scheduling"


def test_monte_carlo_near_noiseless_fit():
    protocol = McProtocol(runs=1, n_d=200, snr_levels_db=(300.0,), seed=0)
    report = run_monte_carlo(protocol, methods=("g",),
                             config=McConfig(workers=1))
    assert report.stats[0].fits[0] >= 99.9


def test_monte_carlo_method_validation():
    protocol = McProtocol(runs=1, n_d=30, snr_levels_db=(20.0,))
    with pytest.raises(ConfigError, match="unknown method"):
        run_monte_carlo(protocol, methods=("z",))
    with pytest.raises(ConfigError, match="duplicate"):
        run_monte_carlo(protocol, methods=("b", "b"))
    with pytest.raises(ConfigError, match="decay rates"):
        McProtocol(rho_true=1.0)
    # the checks are range tests that NaN fails, not bounds it slips past
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="SNR levels must be finite"):
            McProtocol(snr_levels_db=(20.0, level))
    with pytest.raises(DataError, match="zero-power"):
        add_noise(np.zeros(10), 20.0, 0)
    with pytest.raises(ConfigError, match="horizon"):
        true_system(McProtocol(), 0)


def _write_heating_csv(path, n=801, seed=0):
    # dithered level: keeps the test window excited so the prediction
    # score has a real denominator
    rng = np.random.default_rng(seed)
    u = 3.0 + 0.5 * rng.choice([-1.0, 1.0], size=n)
    g = 0.4 * 0.85 ** np.arange(60, dtype=float)
    y = np.convolve(u, g)[:n] + 0.01 * rng.standard_normal(n)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t,u,y\n")
        for t in range(n):
            fh.write(f"{t},{float(u[t])!r},{float(y[t])!r}\n")


def test_heating_loader_trims_and_validates(tmp_path):
    path = tmp_path / "heating.csv"
    _write_heating_csv(path)
    data = load_heating_data(path)
    assert data.n_samples == 700
    assert data.t_start == 0
    short = tmp_path / "short.csv"
    # a record of the trimmed length is rejected too
    for n in (10, 700):
        _write_heating_csv(short, n=n)
        with pytest.raises(DataError, match="801"):
            load_heating_data(short)


def test_heating_run_splits_and_scores(tmp_path):
    path = tmp_path / "heating.csv"
    _write_heating_csv(path)
    config = HeatingConfig(rho=0.9, beta=0.85, lam=1e-2, n_g=50)
    report = run_heating(path, methods=("b", "c", "d", "e"), config=config)
    assert report.n_train == 500
    assert report.n_test == 200
    assert [m for m, _ in report.fits] == ["b", "c", "d", "e"]
    for method, fit in report.fits:
        assert fit >= 50.0, f"method {method} fit {fit} unexpectedly poor"
    params = dict(report.hyperparams)
    assert params["d"] == params["e"], "d and e share the tuned grid point"
    with pytest.raises(ConfigError, match="unknown method"):
        run_heating(path, methods=("q",))


def test_heating_positive_method_pinned_and_tuned(tmp_path):
    # method g's branch: the pinned run fits with the given theta, and a
    # tuned run searches lam and beta inside their ranges and the coupling
    path = tmp_path / "heating.csv"
    _write_heating_csv(path)
    pinned = run_heating(path, methods=("g",), config=HeatingConfig(
        rho=0.95, beta=0.8, lam=1e-2, n_g=50))
    tuned = run_heating(path, methods=("g",), config=HeatingConfig(
        rho=0.95, n_g=50, tune_budget=4))
    for report in (pinned, tuned):
        [(method, fit)] = report.fits
        assert method == "g" and fit >= 50.0, fit
    assert pinned.hyperparams == (("g", "rho=0.95 lam=0.01 beta=0.8"),)
    [(_, note)] = tuned.hyperparams
    theta = {key: float(value)
             for key, value in (item.split("=") for item in note.split())}
    assert theta["rho"] == 0.95
    assert 1e-6 <= theta["lam"] <= 1e4
    assert 0.3 <= theta["beta"] <= 0.99
    assert decay_compatible(KernelSpec.tc(theta["beta"]), theta["rho"])


def test_heating_rejects_duplicate_methods(tmp_path):
    # the same selector check as the Monte Carlo study: a repeated method
    # would be fitted twice and keep one hyperparameter entry
    path = tmp_path / "heating.csv"
    _write_heating_csv(path)
    with pytest.raises(ConfigError, match="duplicate"):
        run_heating(path, methods=("b", "b"),
                    config=HeatingConfig(n_g=50))


def test_daisy_conversion_round_trip(tmp_path):
    src = tmp_path / "raw.dat"
    rows = ["1 2.5 0.1", "2 3.5 0.2", "3 1.5 0.3"]
    src.write_text("\n".join(rows) + "\n")
    dest = tmp_path / "out.csv"
    assert convert_daisy_whitespace(src, dest) == 3
    data = read_timeseries_csv(dest)
    np.testing.assert_allclose(data.inputs, [2.5, 3.5, 1.5])
    np.testing.assert_allclose(data.outputs, [0.1, 0.2, 0.3])
    two_col = tmp_path / "two.dat"
    two_col.write_text("5.0 6.0\n7.0 8.0\n")
    assert convert_daisy_whitespace(two_col, dest) == 2
    data = read_timeseries_csv(dest)
    np.testing.assert_allclose(data.inputs, [5.0, 7.0])
    wide = tmp_path / "wide.dat"
    wide.write_text("1 2 3 4\n")
    with pytest.raises(DataError, match="2 or 3"):
        convert_daisy_whitespace(wide, dest)
