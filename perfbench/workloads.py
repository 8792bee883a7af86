"""Seeded inputs, timed operations and answer checks for each workload.

A workload builds its inputs from the benchmark seed with NumPy alone, so
the package only ever sees generated arrays (the Monte Carlo study is
the exception: the protocol draws its own records from the seed it is
given).  One *unit* is a fixed batch of operations on those inputs;
``run.py`` repeats units for the requested time.

A unit keeps the models it returned, and :func:`check_unit` checks them
after the unit's timer has stopped and, in a traced run, after the
tracer is removed, so the checks' own calls into the package are neither
timed nor traced.  A fit passes when its QP status is optimal, its
response is finite and, unless acceptance was forced, the exact
reconstruction is nonnegative (to ``neg_tol``) on every lag below ``m0``.
"""
from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from posid import errors, estimator, experiments, extensions, tuning
from posid.extensions import OscillatingPoleConfig, RepeatedPoleConfig
from posid.kernels import KernelSpec
from posid.signals import TimeSeriesData

from tracer import Patches

# The Monte Carlo true system: g[t] = rho**t (1 + beta**t cos(2 pi w t)).
TRUE_RHO = 0.98
TRUE_BETA = 0.92
TRUE_OMEGA = math.pi ** 2 / 10.0
MC_METHODS = ("b", "c", "d", "e", "g")


@dataclass
class Op:
    """Outcome of one operation."""

    seconds: float
    error: str | None = None      # what was raised, if anything
    check: str | None = None      # first failed answer check
    fits: list = field(default_factory=list)    # fit_pct of each model
    forced: bool = False
    models: list = field(default_factory=list)  # until they are checked

    @property
    def ok(self) -> bool:
        return self.error is None and self.check is None


@dataclass
class Unit:
    """One batch of operations and the unit-level answer check."""

    wall: float
    ops: list
    check: str | None = None
    val_mse: float | None = None


def true_response(length: int) -> np.ndarray:
    t = np.arange(length, dtype=float)
    return TRUE_RHO ** t * (1.0 + TRUE_BETA ** t
                            * np.cos(2.0 * math.pi * TRUE_OMEGA * t))


def make_record(rng: np.random.Generator, n: int, snr_db: float):
    """At-rest record of the true system: binary input, white noise.

    Returns the data and the noise variance used to set ``lam``.
    """
    u = rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
    clean = np.convolve(u, true_response(n))[:n]
    sigma2 = float(clean @ clean) / n / 10.0 ** (snr_db / 10.0)
    y = clean + rng.normal(0.0, math.sqrt(sigma2), size=n)
    return TimeSeriesData.at_rest(u, y), sigma2


def fit_pct(g_hat: np.ndarray) -> float:
    """100 (1 - relative l2 error) against the true system."""
    g_true = true_response(g_hat.size)
    err = float(np.linalg.norm(g_hat - g_true))
    return 100.0 * (1.0 - err / float(np.linalg.norm(g_true)))


def check_fit(model) -> str | None:
    """First answer check a returned model fails, or ``None``."""
    diag = model.diagnostics
    if diag.qp_status != "optimal":
        return f"qp status {diag.qp_status}"
    if not np.all(np.isfinite(model.g.values)):
        return "response not finite"
    if not diag.forced_accept and diag.m0 > 0:
        head = model.reconstruct(max(diag.m0, model.g.horizon)).values
        low = float(head[:diag.m0].min())
        if low < -diag.neg_tol:
            return f"negative response {low:.3e} below m0={diag.m0}"
    return None


def check_unit(unit: Unit) -> None:
    """Check every model the unit returned, then let go of them."""
    for op in unit.ops:
        for model in op.models:
            op.check = op.check or check_fit(model)
        op.models = []


def _keep(op: Op, model) -> None:
    op.models.append(model)
    op.fits.append(fit_pct(model.g.values))
    op.forced = op.forced or model.diagnostics.forced_accept


def timed_fits(fits) -> Op:
    """Run fits back to back, under one timer, as one operation."""
    models = []
    error = None
    start = time.perf_counter()
    for fit in fits:
        try:
            models.append(fit())
        except errors.PosidError as exc:
            error = error or type(exc).__name__
        except Exception as exc:  # a package bug must not end the run
            error = error or f"unexpected {type(exc).__name__}: {exc}"
    op = Op(time.perf_counter() - start, error=error)
    for model in models:
        _keep(op, model)
    return op


def _op_timer(spans: list, note=lambda result: result):
    """Wrapper factory recording ``(start, end, note(result))`` per call."""
    def make(fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            spans.append((start, end, note(result)))
            return result
        return timed
    return make


def _capture(models: list):
    def make(fn):
        def capturing(*args, **kwargs):
            model = fn(*args, **kwargs)
            models.append(model)
            return model
        return capturing
    return make


@dataclass(frozen=True)
class IdentifyWorkload:
    """``identify`` at n=800: one dense QP of dimension 2n+2 per fit."""

    name: str = "identify_n800"
    n: int = 800
    records: int = 2
    snr_db: float = 20.0
    horizon: int = 1600

    def make_inputs(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        return [make_record(rng, self.n, self.snr_db)
                for _ in range(self.records)]

    def run_unit(self, inputs) -> Unit:
        start = time.perf_counter()
        ops = []
        for data, sigma2 in inputs:
            config = estimator.PositiveIdConfig(
                kernel=KernelSpec.dc(0.9, 0.9), rho=0.98, lam=10.0 * sigma2,
                horizon=self.horizon)
            ops.append(timed_fits([lambda: estimator.identify(config,
                                                              data)]))
        return Unit(time.perf_counter() - start, ops)


@dataclass(frozen=True)
class MonteCarloPart:
    """The criterion-7 Monte Carlo study; an operation is one run."""

    runs: int = 30
    n_d: int = 200

    def make_inputs(self, seed: int):
        return experiments.McProtocol(runs=self.runs, n_d=self.n_d,
                                      snr_levels_db=(20.0,), seed=seed)

    def run_unit(self, protocol) -> Unit:
        runs: list = []
        models: list = []
        with Patches() as patches:
            patches.replace(experiments, "identify", _capture(models))
            # Each run's record also notes how many models were made.
            timed = patches.replace(
                experiments, "_mc_single_run",
                _op_timer(runs, lambda _: len(models)))
            start = time.perf_counter()
            report = experiments.run_monte_carlo(
                protocol, methods=MC_METHODS,
                config=experiments.McConfig(workers=1))
            wall = time.perf_counter() - start
        if not timed:  # the per-run helper is gone: split the wall time
            runs = [(0.0, wall / protocol.runs, None)] * protocol.runs
        fits = {run: fit for method, _, run, fit in report.fit_rows
                if method == "g"}
        failed = {run for _, _, run, _ in report.failures}
        ops = []
        made = 0
        for run, (begin, end, upto) in enumerate(runs):
            op = Op(end - begin, fits=[fits[run]] if run in fits else [])
            if run in failed:
                op.error = "method failed"
            if upto is not None and upto > made:
                op.models = [models[upto - 1]]
                op.forced = op.models[0].diagnostics.forced_accept
                made = upto
            ops.append(op)
        medians = {s.method: statistics.median(s.fits)
                   for s in report.stats if s.fits}
        check = None
        if not all(medians.get("g", -math.inf) > medians.get(m, math.inf)
                   for m in MC_METHODS[:-1]):
            check = f"criterion-7 ordering violated: {medians}"
        return Unit(wall, ops, check=check)


@dataclass(frozen=True)
class TunePart:
    """``tune`` over a 16-point tc grid on each of ``records`` n=300
    records; an operation is one candidate."""

    n: int = 300
    records: int = 1
    snr_db: float = 20.0
    budget: int = 16
    rho_range: tuple = (0.9, 0.99)
    lam_range: tuple = (0.1, 10.0)
    beta_range: tuple = (0.5, 0.8)

    def make_inputs(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        return [make_record(rng, self.n, self.snr_db)[0]
                for _ in range(self.records)]

    def run_unit(self, inputs) -> Unit:
        space = tuning.HyperparamSpace(
            "tc", rho_range=self.rho_range, lam_range=self.lam_range,
            beta_range=self.beta_range)
        start = time.perf_counter()
        ops: list = []
        scores: list = []
        checks = [self._tune_one(space, data, ops, scores)
                  for data in inputs]
        return Unit(time.perf_counter() - start, ops,
                    check=next((c for c in checks if c), None),
                    val_mse=statistics.median(scores) if scores else 0.0)

    def _tune_one(self, space, data, ops: list, scores: list):
        """Tune on one record, adding one op per candidate and the best
        finite score; returns the record's failed check, or ``None``."""
        split = tuning.default_split(data.n_samples, 0.7)
        candidates: list = []
        models: list = []
        with Patches() as patches:
            patches.replace(tuning, "identify", _capture(models))
            timed = patches.replace(tuning, "validation_score",
                                    _op_timer(candidates))
            start = time.perf_counter()
            try:
                result = tuning.tune(space, data, split=split,
                                     budget=self.budget)
            except errors.PosidError as exc:
                ops.append(Op(time.perf_counter() - start,
                              error=type(exc).__name__))
                return None
            wall = time.perf_counter() - start
        if not timed:
            candidates = [(0.0, wall / len(result.trace), s)
                          for _, s in result.trace]
        by_config = {(m.config.rho, m.config.lam, m.config.kernel.beta): m
                     for m in models}
        for (begin, end, score), (theta, _) in zip(candidates,
                                                   result.trace):
            op = Op(end - begin)
            model = by_config.get((theta.rho, theta.lam, theta.beta))
            if not math.isfinite(score):
                op.error = "candidate failed"
            elif model is not None:
                _keep(op, model)
            ops.append(op)
        best = result.theta
        if not math.isfinite(result.score):
            return "best validation score is not finite"
        scores.append(result.score)
        if not math.sqrt(best.beta) < best.rho:
            return f"best candidate {best} violates the decay coupling"
        return None


@dataclass(frozen=True)
class VariantsPart:
    """Short records fitted by the base estimator and both pole variants.

    An operation is one pair of records (one of each size) through all
    three estimators.  Single fits fall into six clusters of duration,
    and a median read between two clusters jumps from run to run; pairs
    keep the median from sitting on one fit's cost.
    """

    sizes: tuple = (50, 80)
    pairs: int = 12
    snr_db: float = 20.0

    def make_inputs(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        return [[make_record(rng, n, self.snr_db) for n in self.sizes]
                for _ in range(self.pairs)]

    def run_unit(self, inputs) -> Unit:
        start = time.perf_counter()
        ops = []
        for records in inputs:
            fits = []
            for data, sigma2 in records:
                base = estimator.PositiveIdConfig(
                    kernel=KernelSpec.ss(0.97), rho=0.98, lam=10.0 * sigma2)
                fits += [
                    lambda b=base, d=data: estimator.identify(b, d),
                    lambda b=base, d=data: extensions.identify_repeated_pole(
                        RepeatedPoleConfig(b, 2), d),
                    lambda b=base, d=data:
                        extensions.identify_oscillating_poles(
                            OscillatingPoleConfig(b, 2), d),
                ]
            ops.append(timed_fits(fits))
        return Unit(time.perf_counter() - start, ops)


@dataclass(frozen=True)
class SmallProblemsWorkload:
    """Every small-problem layer in one closed loop.

    A unit is one Monte Carlo study, one tune and a dozen record pairs
    through the pole variants, so the baselines, the tuning loop and the
    variant loops each run in every unit.  One workload, not three:
    the host's slow spells last up to minutes, so each workload needs
    long runs, and the time allowed for all runs affords 50-second runs
    for two workloads.
    """

    name: str = "small_problems"
    mc: MonteCarloPart = MonteCarloPart()
    tune: TunePart = TunePart()
    variants: VariantsPart = VariantsPart()

    def make_inputs(self, seed: int):
        return (self.mc.make_inputs(seed), self.tune.make_inputs(seed),
                self.variants.make_inputs(seed))

    def run_unit(self, inputs) -> Unit:
        start = time.perf_counter()
        parts = [part.run_unit(part_inputs) for part, part_inputs
                 in zip((self.mc, self.tune, self.variants), inputs)]
        return Unit(time.perf_counter() - start,
                    [op for part in parts for op in part.ops],
                    check=next((p.check for p in parts if p.check), None),
                    val_mse=parts[1].val_mse)


WORKLOADS = {w.name: w for w in (IdentifyWorkload(),
                                 SmallProblemsWorkload())}
