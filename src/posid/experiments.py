"""Benchmark harnesses: synthetic Monte Carlo study and heating data.

The synthetic study draws random binary inputs, pushes them through a
known internally positive system, adds white Gaussian noise at fixed SNR
levels, and compares the positive estimator against the clipped and
constrained baselines.  The heating evaluation trains every method on
the first 500 samples of a two-column temperature record and scores
one-step-free predictions on the next 200.
"""
from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import (KIND_NONNEG_RIDGE, KIND_RIDGE_CLIP, BaselineKind,
                        run_baseline)
from .errors import ConfigError, DataError, PosidError
from .estimator import PositiveIdConfig, identify, predict
from .kernels import KIND_TC, KernelSpec
from .signals import ImpulseResponse, TimeSeriesData, convolve, \
    read_timeseries_csv
from .tuning import HyperparamSpace, default_split, tune

logger = logging.getLogger(__name__)

METHOD_POSITIVE = "g"
MC_METHODS = ("b", "c", "d", "e", METHOD_POSITIVE)

_HEATING_RAW_ROWS = 801
_HEATING_TRAIN = 500
_HEATING_TEST = 200
# Search ranges of the heating hyperparameters left unset.
_HEATING_RHO_RANGE = (0.5, 0.999)
_HEATING_LAM_RANGE = (1e-6, 1e4)
_HEATING_BETA_RANGE = (0.3, 0.99)
# Unpinned regularisation weights are this multiple of the noise
# variance, floored at _LAM_FLOOR.
_LAM_SCALE = 10.0
_LAM_FLOOR = 1e-8
# Oscillation frequency of the synthetic study's true system.
_OMEGA_TRUE = math.pi ** 2 / 10.0


@dataclass(frozen=True)
class McProtocol:
    """Ground truth and sampling plan for the synthetic study."""

    rho_true: float = 0.98
    beta_true: float = 0.92
    runs: int = 30
    n_d: int = 200
    snr_levels_db: tuple[float, ...] = (10.0, 20.0, 30.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.rho_true < 1.0 and 0.0 < self.beta_true < 1.0):
            raise ConfigError("true decay rates must lie in (0, 1)")
        if self.runs < 1 or self.n_d < 1:
            raise ConfigError("runs and n_d must be at least 1")
        if not self.snr_levels_db:
            raise ConfigError("need at least one SNR level")
        if not all(map(math.isfinite, self.snr_levels_db)):
            raise ConfigError("SNR levels must be finite")
        if len(set(self.snr_levels_db)) != len(self.snr_levels_db):
            raise ConfigError("duplicate SNR levels")


@dataclass(frozen=True)
class McConfig:
    """Estimator settings shared across Monte Carlo runs.

    The kernel hyperparameters are fixed rather than re-tuned per run.
    ``lam_g`` / ``lam_fir`` may be pinned; when ``None`` they are ten
    times the known per-run noise variance, floored at ``1e-8``.  The
    positive estimator keeps the default ``a_min``.  The baseline length
    125 keeps the regression overdetermined at the default 200 samples;
    a square binary Toeplitz system is numerically singular and turns
    the unregularized baselines into pure noise amplifiers.  Every
    setting is checked here, before any run starts.
    """

    rho: float = 0.98
    beta: float = 0.9
    gamma: float = 0.9
    lam_g: float | None = None
    lam_fir: float | None = None
    n_g: int = 125
    horizon: int = 400
    workers: int | None = None

    def __post_init__(self) -> None:
        # the positive estimator's config, as every run builds it
        PositiveIdConfig(KernelSpec.dc(self.beta, self.gamma), self.rho, 1.0,
                         horizon=self.horizon)
        for name in ("lam_g", "lam_fir", "n_g", "workers"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(
                    f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class MethodStats:
    """Aggregates for one (method, SNR) cell."""

    method: str
    snr_db: float
    bias: float
    variance: float
    mse: float
    fits: tuple[float, ...]
    failures: int


@dataclass(frozen=True)
class MetricsReport:
    """Outcome of a Monte Carlo study: per-method statistics and raw rows."""

    methods: tuple[str, ...]
    stats: tuple[MethodStats, ...]
    # (method, snr_db, run, fit) rows for box plots
    fit_rows: tuple[tuple[str, float, int, float], ...]
    # (method, snr_db, run, message) rows for excluded runs
    failures: tuple[tuple[str, float, int, str], ...]


def true_system(protocol: McProtocol, horizon: int) -> ImpulseResponse:
    """Decaying oscillation around a dominant geometric mode.

    g_t = rho^t (1 + beta^t cos(2 pi omega t)) with omega = pi^2 / 10;
    strictly positive since beta < 1.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    t = np.arange(horizon, dtype=float)
    values = protocol.rho_true ** t * (
        1.0 + protocol.beta_true ** t
        * np.cos(2.0 * math.pi * _OMEGA_TRUE * t))
    return ImpulseResponse(values)


def gen_binary_input(n: int, seed) -> np.ndarray:
    """Seeded symmetric binary sequence with values in {-1, +1}."""
    if n < 1:
        raise ConfigError(f"input length must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0


def add_noise(y: np.ndarray, snr_db: float, seed) -> np.ndarray:
    """Add white Gaussian noise at the requested signal-to-noise ratio."""
    y = np.asarray(y, dtype=float)
    sigma2 = noise_variance(y, snr_db)
    if sigma2 <= 0.0:
        raise DataError("cannot set an SNR against a zero-power signal")
    rng = np.random.default_rng(seed)
    return y + rng.normal(0.0, math.sqrt(sigma2), size=y.size)


def noise_variance(y: np.ndarray, snr_db: float) -> float:
    """Noise variance that puts the mean power of ``y`` at ``snr_db``."""
    y = np.asarray(y, dtype=float)
    return float(y @ y) / y.size / 10.0 ** (snr_db / 10.0)


def _values(g) -> np.ndarray:
    return g.values if isinstance(g, ImpulseResponse) else \
        np.asarray(g, dtype=float)


def simulate_output(g, u: np.ndarray, n: int) -> np.ndarray:
    """First n outputs of the at-rest convolution of g with u.

    Exact whenever g covers lags 0..n-1; later taps never reach the
    requested window.
    """
    return np.convolve(u, _values(g))[:n]


def fit_impulse(g_hat, g_true) -> float:
    """100 (1 - relative l2 error) over the common horizon."""
    a = _values(g_hat)
    b = _values(g_true)
    n = min(a.size, b.size)
    a, b = a[:n], b[:n]
    denom = float(np.linalg.norm(b))
    if denom == 0.0:
        raise DataError("reference impulse response has zero norm")
    return 100.0 * (1.0 - float(np.linalg.norm(a - b)) / denom)


def fit_output(y_hat, y_test) -> float:
    """Prediction score 100 (1 - sqrt(SSE / SST)) on held-out outputs."""
    y_hat = np.asarray(y_hat, dtype=float)
    y_test = np.asarray(y_test, dtype=float)
    sst = float(np.sum((y_test - y_test.mean()) ** 2))
    if sst == 0.0:
        raise DataError("test outputs are constant; score undefined")
    sse = float(np.sum((y_test - y_hat) ** 2))
    return 100.0 * (1.0 - math.sqrt(sse / sst))


def _to_horizon(values: np.ndarray, horizon: int) -> np.ndarray:
    """Truncate or zero-pad an estimate to the common horizon."""
    if values.size >= horizon:
        return values[:horizon]
    out = np.zeros(horizon)
    out[:values.size] = values
    return out


def _mc_estimate(method: str, data: TimeSeriesData, config: McConfig,
                 sigma2: float) -> np.ndarray:
    scaled = max(_LAM_FLOOR, _LAM_SCALE * sigma2)
    kernel = KernelSpec.dc(config.beta, config.gamma)
    if method == METHOD_POSITIVE:
        lam = scaled if config.lam_g is None else config.lam_g
        est = PositiveIdConfig(kernel=kernel, rho=config.rho, lam=lam,
                               horizon=config.horizon)
        return identify(est, data).g.values
    lam = scaled if config.lam_fir is None else config.lam_fir
    kind = BaselineKind(method, config.n_g, lam, kernel)
    return run_baseline(kind, data).values


def _mc_single_run(protocol: McProtocol, config: McConfig,
                   methods: tuple[str, ...], run: int) -> dict:
    """One run: fresh input, one noise draw per SNR, all methods.

    Seeds derive from (master seed, run index, stream), so results do
    not depend on scheduling.
    """
    u = gen_binary_input(protocol.n_d,
                         np.random.SeedSequence([protocol.seed, run, 0]))
    g_true = true_system(protocol, protocol.n_d)
    y_clean = simulate_output(g_true, u, protocol.n_d)
    out: dict = {}
    for j, snr in enumerate(protocol.snr_levels_db):
        y = add_noise(y_clean, snr,
                      np.random.SeedSequence([protocol.seed, run, 1 + j]))
        data = TimeSeriesData.at_rest(u, y)
        sigma2 = noise_variance(y_clean, snr)
        for method in methods:
            try:
                g_hat = _mc_estimate(method, data, config, sigma2)
                out[(method, snr)] = ("ok",
                                      _to_horizon(g_hat, config.horizon))
            except (PosidError, np.linalg.LinAlgError) as exc:
                logger.warning("run %d method %s snr %g failed: %s",
                               run, method, snr, exc)
                out[(method, snr)] = ("failed", str(exc))
    return out


def _checked_methods(methods) -> tuple[str, ...]:
    """The method selectors as a tuple, each known and none repeated."""
    methods = tuple(methods)
    for method in methods:
        if method not in MC_METHODS:
            raise ConfigError(f"unknown method {method!r}; "
                              f"choose from {', '.join(MC_METHODS)}")
    if len(set(methods)) != len(methods):
        raise ConfigError("duplicate method selectors")
    return methods


def run_monte_carlo(protocol: McProtocol, methods=MC_METHODS,
                    config: McConfig | None = None) -> MetricsReport:
    """Run the synthetic study and aggregate bias/variance/MSE and fits.

    Runs execute independently (in processes when ``config.workers``
    allows); aggregation is ordered by run index, so a fixed protocol
    seed gives an identical report.
    """
    config = config or McConfig()
    methods = _checked_methods(methods)
    workers = config.workers if config.workers is not None else \
        max(1, os.cpu_count() or 1)
    run_ids = range(protocol.runs)
    if workers == 1 or protocol.runs == 1:
        results = [_mc_single_run(protocol, config, methods, r)
                   for r in run_ids]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_mc_single_run,
                                    [protocol] * protocol.runs,
                                    [config] * protocol.runs,
                                    [methods] * protocol.runs, run_ids))

    g_ref = true_system(protocol, config.horizon).values
    stats = []
    fit_rows = []
    failures = []
    for snr in protocol.snr_levels_db:
        for method in methods:
            estimates = []
            fits = []
            n_failed = 0
            for run, result in enumerate(results):
                status, payload = result[(method, snr)]
                if status != "ok":
                    failures.append((method, snr, run, payload))
                    n_failed += 1
                    continue
                estimates.append(payload)
                fit = fit_impulse(payload, g_ref)
                fits.append(fit)
                fit_rows.append((method, snr, run, fit))
            if estimates:
                stack = np.vstack(estimates)
                mean_g = stack.mean(axis=0)
                bias = float(np.linalg.norm(mean_g - g_ref))
                variance = float(np.mean(
                    np.sum((stack - mean_g) ** 2, axis=1)))
                mse = float(np.mean(np.sum((stack - g_ref) ** 2, axis=1)))
            else:
                bias = variance = mse = math.nan
            stats.append(MethodStats(method, snr, bias, variance, mse,
                                     tuple(fits), n_failed))
    return MetricsReport(methods=methods, stats=tuple(stats),
                         fit_rows=tuple(fit_rows), failures=tuple(failures))


@dataclass(frozen=True)
class HeatingConfig:
    """Heating evaluation settings.

    Any of ``rho``/``beta``/``lam`` left as ``None`` triggers a hold-out
    grid search over the missing axes before the final training pass,
    with ``rho`` in (0.5, 0.999), ``lam`` in (1e-6, 1e4) and ``beta`` in
    (0.3, 0.99).  Every setting is checked here, before any run starts.
    """

    rho: float | None = None
    beta: float | None = None
    lam: float | None = None
    n_g: int = 200
    tune_budget: int = 24
    a_min: float = 1e-6

    def __post_init__(self) -> None:
        if self.rho is not None and not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must lie in (0, 1), got {self.rho}")
        if self.beta is not None:
            KernelSpec.tc(self.beta)
        for name in ("lam", "n_g", "tune_budget", "a_min"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(
                    f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class HeatingReport:
    """Test-window fit of every method on the heating record, and the
    hyperparameters each method used."""

    fits: tuple[tuple[str, float], ...]
    hyperparams: tuple[tuple[str, str], ...]
    n_train: int
    n_test: int


def load_heating_data(path) -> TimeSeriesData:
    """Read the 801-sample record and keep its training and test windows,
    the first 700 samples."""
    data = read_timeseries_csv(path)
    if data.n_samples != _HEATING_RAW_ROWS:
        raise DataError(f"heating record must have {_HEATING_RAW_ROWS} "
                        f"rows, got {data.n_samples}")
    return data.restrict(np.arange(_HEATING_TRAIN + _HEATING_TEST))


def _axis_range(fixed: float | None,
                rng: tuple[float, float]) -> tuple[float, float]:
    return rng if fixed is None else (fixed, fixed)


def _tuned_positive_theta(train: TimeSeriesData, config: HeatingConfig):
    space = HyperparamSpace(
        kind=KIND_TC,
        rho_range=_axis_range(config.rho, _HEATING_RHO_RANGE),
        lam_range=_axis_range(config.lam, _HEATING_LAM_RANGE),
        beta_range=_axis_range(config.beta, _HEATING_BETA_RANGE))
    result = tune(space, train, budget=config.tune_budget,
                  a_min=config.a_min)
    return result.theta


def _tune_fir_kernel(method: str, train: TimeSeriesData,
                     full: TimeSeriesData, val_times: np.ndarray,
                     val_truth: np.ndarray,
                     config: HeatingConfig) -> tuple[float, float]:
    """Small prediction-error grid over (beta, lam) for method d/e."""
    betas = ([config.beta] if config.beta is not None
             else np.linspace(*_HEATING_BETA_RANGE, 4))
    lams = ([config.lam] if config.lam is not None
             else np.geomspace(*_HEATING_LAM_RANGE, 6))
    best = (math.inf, float(betas[0]), float(lams[0]))
    for beta in betas:
        for lam in lams:
            kind = BaselineKind(method, fir_length=config.n_g,
                                lam=float(lam),
                                kernel=KernelSpec.tc(float(beta)))
            try:
                g_hat = run_baseline(kind, train)
                pred = convolve(g_hat, full, val_times)
            except (PosidError, np.linalg.LinAlgError) as exc:
                logger.warning("heating %s candidate (%g, %g) failed: %s",
                               method, beta, lam, exc)
                continue
            score = float(np.mean((pred - val_truth) ** 2))
            if score < best[0]:
                best = (score, float(beta), float(lam))
    if not math.isfinite(best[0]):
        raise ConfigError(f"every (beta, lam) candidate failed for "
                          f"method {method!r}")
    return best[1], best[2]


def run_heating(path, methods=MC_METHODS,
                config: HeatingConfig | None = None) -> HeatingReport:
    """Train on samples 0..499, score predictions on 500..699."""
    config = config or HeatingConfig()
    methods = _checked_methods(methods)
    data = load_heating_data(path)
    train = data.restrict(np.arange(_HEATING_TRAIN))
    test_times = data.sample_times[_HEATING_TRAIN:]
    test_truth = data.outputs[_HEATING_TRAIN:]

    # Inner split of the training window for hyperparameter selection.
    inner = default_split(_HEATING_TRAIN)
    inner_train = train.restrict(inner.train_indices)
    inner_times = train.sample_times[inner.validation_indices]
    inner_truth = train.outputs[inner.validation_indices]

    fits = []
    hyperparams = []
    fir_grid: tuple[float, float] | None = None
    for method in methods:
        if method == METHOD_POSITIVE:
            theta = _tuned_positive_theta(train, config)
            est = PositiveIdConfig(kernel=KernelSpec.tc(theta.beta),
                                   rho=theta.rho, lam=theta.lam,
                                   a_min=config.a_min)
            model = identify(est, train)
            pred = predict(model, data, test_times)
            hyperparams.append((method,
                                f"rho={theta.rho!r} lam={theta.lam!r} "
                                f"beta={theta.beta!r}"))
        else:
            kernel, lam, note = None, 1.0, f"n_g={config.n_g}"
            if method in (KIND_RIDGE_CLIP, KIND_NONNEG_RIDGE):
                if fir_grid is None:
                    fir_grid = _tune_fir_kernel(
                        KIND_NONNEG_RIDGE, inner_train, train,
                        inner_times, inner_truth, config)
                beta, lam = fir_grid
                kernel = KernelSpec.tc(beta)
                note = f"beta={beta!r} lam={lam!r}"
            kind = BaselineKind(method, config.n_g, lam, kernel)
            pred = convolve(run_baseline(kind, train), data, test_times)
            hyperparams.append((method, note))
        fits.append((method, fit_output(pred, test_truth)))
    return HeatingReport(fits=tuple(fits), hyperparams=tuple(hyperparams),
                         n_train=_HEATING_TRAIN, n_test=_HEATING_TEST)


def convert_daisy_whitespace(src_path, dest_path) -> int:
    """Convert a whitespace-separated record to the t,u,y CSV layout.

    Two columns are read as (u, y); three as (index, u, y) with the
    index replaced by 0..n-1.  Returns the number of data rows written.
    """
    try:
        table = np.loadtxt(src_path, dtype=float, ndmin=2)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot parse {src_path}: {exc}") from exc
    if table.shape[1] == 2:
        u, y = table[:, 0], table[:, 1]
    elif table.shape[1] == 3:
        u, y = table[:, 1], table[:, 2]
    else:
        raise DataError(
            f"expected 2 or 3 whitespace columns, got {table.shape[1]}")
    with open(dest_path, "w", encoding="ascii") as fh:
        fh.write("t,u,y\n")
        for t in range(table.shape[0]):
            fh.write(f"{t},{float(u[t])!r},{float(y[t])!r}\n")
    return table.shape[0]
