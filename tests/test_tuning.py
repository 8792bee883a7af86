"""Hold-out tuning tests: splits, grids, coupling, reproducibility."""
import math

import numpy as np
import pytest

from posid import tuning
from posid.errors import ConfigError
from posid.estimator import PositiveIdConfig, identify
from posid.kernels import KernelSpec, decay_compatible
from posid.signals import TimeSeriesData
from posid.tuning import (HyperparamSpace, SplitSpec, ThetaPoint,
                          default_split, tune, validation_score)


def _prbs(rng, n):
    return rng.choice([-1.0, 1.0], size=n)


def _single_mode_data(rng, n, rho=0.9, noise=0.01):
    u = _prbs(rng, n)
    g = rho ** np.arange(n, dtype=float)
    y = np.convolve(u, g)[:n] + noise * rng.standard_normal(n)
    return TimeSeriesData.at_rest(u, y)


def test_default_split_is_temporal():
    split = default_split(10, train_fraction=0.7)
    np.testing.assert_array_equal(split.train_indices, np.arange(7))
    np.testing.assert_array_equal(split.validation_indices, np.arange(7, 10))
    # extreme fractions still leave both parts nonempty
    tiny = default_split(5, train_fraction=0.01)
    assert tiny.train_indices.size == 1
    assert tiny.validation_indices.size == 4


def test_split_validation():
    with pytest.raises(ConfigError, match="nonempty"):
        SplitSpec(np.array([], dtype=int), np.array([1]))
    with pytest.raises(ConfigError, match="disjoint"):
        SplitSpec(np.array([0, 1]), np.array([1, 2]))
    with pytest.raises(ConfigError, match="train fraction"):
        default_split(10, train_fraction=1.0)


@pytest.mark.parametrize("train, val", [
    (np.arange(30), np.array([-1, -2])),
    (np.arange(30), np.array([30, 40])),
    (np.arange(30)[::-1], np.arange(30, 40)),
    (np.array([0, 0, 1]), np.arange(30, 40)),
], ids=["negative", "past-the-samples", "unsorted", "repeated"])
def test_tune_rejects_a_split_before_fitting(train, val, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a candidate was fitted")

    monkeypatch.setattr(tuning, "identify", no_fit)
    data = _single_mode_data(np.random.default_rng(0), 40)
    space = HyperparamSpace(kind="tc", rho_range=(0.9, 0.9),
                            lam_range=(1e-2, 1e-2), beta_range=(0.5, 0.5))
    with pytest.raises(ConfigError, match="split"):
        tune(space, data, split=SplitSpec(train, val), budget=1)


@pytest.mark.parametrize("setting, message", [
    ({"a_min": -1.0}, "a_min must be positive"),
])
def test_tune_rejects_a_bad_run_level_setting_before_scoring(
        setting, message, monkeypatch):
    # a setting forwarded to every candidate fails them all alike; tune
    # names it instead of scoring each candidate inf
    def no_score(*args, **kwargs):
        raise AssertionError("a candidate was scored")

    monkeypatch.setattr(tuning, "validation_score", no_score)
    data = _single_mode_data(np.random.default_rng(0), 40)
    space = HyperparamSpace(kind="tc", rho_range=(0.9, 0.95),
                            lam_range=(1e-2, 1.0), beta_range=(0.3, 0.5))
    with pytest.raises(ConfigError, match=message):
        tune(space, data, budget=4, **setting)


def test_validation_score_rejects_a_split_past_the_samples(monkeypatch):
    # the range check tune makes also guards the public scoring function:
    # an index past the data is a ConfigError, not an IndexError and not
    # an infinite score
    def no_fit(*args, **kwargs):
        raise AssertionError("a candidate was fitted")

    monkeypatch.setattr(tuning, "identify", no_fit)
    data = _single_mode_data(np.random.default_rng(0), 40)
    for train, val in ((np.arange(30), np.array([38, 45])),
                       (np.arange(41), np.array([50]))):
        with pytest.raises(ConfigError, match="out of range for 40"):
            validation_score(ThetaPoint(0.9, 1e-2, 0.5), data,
                             SplitSpec(train, val), "tc")


def test_budget_one_evaluates_single_candidate():
    rng = np.random.default_rng(0)
    data = _single_mode_data(rng, 40)
    space = HyperparamSpace(kind="tc", rho_range=(0.9, 0.9),
                            lam_range=(1e-2, 1e-2), beta_range=(0.5, 0.5))
    result = tune(space, data, budget=1)
    assert len(result.trace) == 1
    assert result.theta == ThetaPoint(rho=0.9, lam=1e-2, beta=0.5)
    assert math.isfinite(result.score)


def test_grid_picks_trace_argmin():
    rng = np.random.default_rng(1)
    data = _single_mode_data(rng, 50)
    for gamma_range, budget in ((None, 4), ((0.3, 0.7), 8)):
        space = HyperparamSpace(kind="tc" if gamma_range is None else "dc",
                                rho_range=(0.85, 0.95),
                                lam_range=(1e-4, 1e0), beta_range=(0.5, 0.5),
                                gamma_range=gamma_range)
        result = tune(space, data, budget=budget)
        assert len(result.trace) == budget, "two points on each free axis"
        # rho slowest, then lam, beta and gamma: ascending tuples
        points = [(theta.rho, theta.lam, theta.beta, theta.gamma)
                  for theta, _ in result.trace]
        assert points == sorted(points)
        assert len({point[-1] for point in points}) == (
            1 if gamma_range is None else 2)
        scores = [score for _, score in result.trace]
        assert result.score == min(scores)
        best = min(range(budget), key=lambda i: scores[i])
        assert result.theta == result.trace[best][0]


def test_tuned_pole_lands_near_truth():
    rng = np.random.default_rng(2)
    data = _single_mode_data(rng, 60, rho=0.9)
    space = HyperparamSpace(kind="tc", rho_range=(0.7, 0.99),
                            lam_range=(1e-4, 1e-4), beta_range=(0.45, 0.45))
    result = tune(space, data, budget=20)
    assert abs(result.theta.rho - 0.9) <= 0.05, (
        f"tuned rho {result.theta.rho} too far from 0.9")


def test_coupling_never_violated():
    rng = np.random.default_rng(3)
    data = _single_mode_data(rng, 40)
    space = HyperparamSpace(kind="tc", rho_range=(0.5, 0.99),
                            lam_range=(1e-2, 1e-2), beta_range=(0.1, 0.9))
    for strategy in ("grid", "random"):
        result = tune(space, data, budget=12, strategy=strategy, seed=7)
        assert result.trace, "search must evaluate something"
        for theta, _ in result.trace:
            assert decay_compatible(theta.kernel("tc"), theta.rho)


def test_random_search_is_reproducible():
    rng = np.random.default_rng(4)
    data = _single_mode_data(rng, 40)
    space = HyperparamSpace(kind="tc", rho_range=(0.8, 0.99),
                            lam_range=(1e-3, 1e1), beta_range=(0.2, 0.6))
    first = tune(space, data, budget=6, strategy="random", seed=11)
    second = tune(space, data, budget=6, strategy="random", seed=11)
    assert first.trace == second.trace
    assert first.theta == second.theta
    other = tune(space, data, budget=6, strategy="random", seed=12)
    assert other.trace != first.trace


def test_validation_score_matches_convolution_loop():
    rng = np.random.default_rng(5)
    data = _single_mode_data(rng, 40)
    split = default_split(40)
    theta = ThetaPoint(rho=0.9, lam=1e-3, beta=0.5)
    score = validation_score(theta, data, split, "tc")
    config = PositiveIdConfig(kernel=theta.kernel("tc"), rho=theta.rho,
                              lam=theta.lam)
    model = identify(config, data.restrict(split.train_indices))
    times = data.sample_times[split.validation_indices]
    g = model.reconstruct(int(times.max()) + 1).values
    errors = []
    for t in times:
        pred = sum(g[s] * data.inputs[t - s] for s in range(t + 1))
        errors.append(data.outputs[t] - pred)
    oracle = float(np.mean(np.square(errors)))
    assert score == pytest.approx(oracle, abs=1e-10)


def test_validation_score_zero_on_exact_reproduction(certificate):
    certificate(1e-12, 1e-12)
    rng = np.random.default_rng(5)
    data = _single_mode_data(rng, 40, noise=0.0)
    split = default_split(40)
    theta = ThetaPoint(rho=0.9, lam=1e-10, beta=0.5)
    score = validation_score(theta, data, split, "tc")
    assert 0.0 <= score <= 1e-12


def test_validation_score_amplitude_floor_formula(certificate):
    # zero outputs with a huge lambda pin the model at (a_min, h = 0),
    # so the score is the mean squared floor prediction
    certificate(1e-12, 1e-12)
    rng = np.random.default_rng(5)
    n = 40
    u = _prbs(rng, n)
    data = TimeSeriesData.at_rest(u, np.zeros(n))
    split = default_split(n)
    theta = ThetaPoint(rho=0.9, lam=1e8, beta=0.5)
    a_min = 0.01
    score = validation_score(theta, data, split, "tc", a_min=a_min)
    b_full = np.convolve(0.9 ** np.arange(n, dtype=float), u)[:n]
    oracle = np.mean((a_min * b_full[split.validation_indices]) ** 2)
    assert score == pytest.approx(oracle, rel=1e-5)


def test_validation_score_inf_on_failure():
    rng = np.random.default_rng(6)
    data = _single_mode_data(rng, 30)
    split = default_split(30)
    # beta 0.9 decays at 0.949, slower than the 0.9 pole: invalid config
    bad = ThetaPoint(rho=0.9, lam=1e-2, beta=0.9)
    assert validation_score(bad, data, split, "tc") == math.inf


def test_no_feasible_grid_candidate_raises():
    rng = np.random.default_rng(7)
    data = _single_mode_data(rng, 30)
    space = HyperparamSpace(kind="tc", rho_range=(0.5, 0.5),
                            lam_range=(1e-2, 1e-2), beta_range=(0.9, 0.9))
    with pytest.raises(ConfigError, match="coupling"):
        tune(space, data, budget=4)


def test_space_and_strategy_validation():
    with pytest.raises(ConfigError, match="gamma range"):
        HyperparamSpace(kind="dc")
    with pytest.raises(ConfigError, match="takes no gamma"):
        HyperparamSpace(kind="tc", gamma_range=(0.1, 0.9))
    with pytest.raises(ConfigError, match="cannot tune"):
        HyperparamSpace(kind="finite")
    with pytest.raises(ConfigError, match="bad rho range"):
        HyperparamSpace(kind="tc", rho_range=(0.9, 0.5))
    rng = np.random.default_rng(8)
    data = _single_mode_data(rng, 30)
    space = HyperparamSpace(kind="tc")
    with pytest.raises(ConfigError, match="strategy"):
        tune(space, data, budget=2, strategy="anneal")
    with pytest.raises(ConfigError, match="budget"):
        tune(space, data, budget=0)


def _tune_benchmark_record(seed, n=300, snr_db=20.0):
    # the record of the small-problem benchmark's tune: binary input and
    # the Monte Carlo true system rho**t (1 + beta**t cos(2 pi omega t))
    # at 20 dB, drawn from default_rng([seed, 3])
    rng = np.random.default_rng([seed, 3])
    t = np.arange(n, dtype=float)
    g = 0.98 ** t * (1.0 + 0.92 ** t * np.cos(2.0 * math.pi ** 3 / 10.0 * t))
    u = rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
    clean = np.convolve(u, g)[:n]
    sigma2 = float(clean @ clean) / n / 10.0 ** (snr_db / 10.0)
    y = clean + rng.normal(0.0, math.sqrt(sigma2), size=n)
    return TimeSeriesData.at_rest(u, y)


def test_tune_candidate_keeps_section_coefficients_bounded():
    # tc(0.5) on 211 lags has only ~45 sections above roundoff; over all
    # of them the polish left max|w| at 4e17 along the null directions
    data = _tune_benchmark_record(1)
    train = data.restrict(default_split(data.n_samples, 0.7).train_indices)
    assert train.n_samples == 210
    config = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.9, lam=0.1)
    model = identify(config, train)
    assert model.diagnostics.qp_status == "optimal"
    assert np.max(np.abs(model.w)) <= 1e4
