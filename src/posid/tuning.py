"""Hold-out hyperparameter selection for the positive estimator.

Candidates are scored by identifying on the training subset of the
output samples (the input history is always kept whole) and measuring the
mean squared prediction error on the held-out validation times.  Two
search strategies are provided: a near-balanced grid and seeded uniform
random search, both restricted to candidates whose kernel decay is
strictly faster than the candidate pole.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PosidError
from .estimator import PositiveIdConfig, identify, predict
from .kernels import KIND_DC, KIND_SS, KIND_TC, KernelSpec, decay_compatible
from .signals import TimeSeriesData

logger = logging.getLogger(__name__)

_DECAYING = (KIND_TC, KIND_DC, KIND_SS)


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint index sets into the output samples of one experiment.

    Each part is nonempty, nonnegative and strictly increasing.
    """

    train_indices: np.ndarray
    validation_indices: np.ndarray

    def __post_init__(self) -> None:
        train = np.asarray(self.train_indices, dtype=np.int64)
        val = np.asarray(self.validation_indices, dtype=np.int64)
        if train.size == 0 or val.size == 0:
            raise ConfigError("both split parts must be nonempty")
        for part in (train, val):
            if part[0] < 0 or np.any(np.diff(part) <= 0):
                raise ConfigError("split parts must be nonnegative and "
                                  "strictly increasing")
        if np.intersect1d(train, val).size:
            raise ConfigError("split parts must be disjoint")
        object.__setattr__(self, "train_indices", train)
        object.__setattr__(self, "validation_indices", val)


def default_split(n_samples: int, train_fraction: float = 0.7) -> SplitSpec:
    """Temporal split: the first ``train_fraction`` of samples train."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(
            f"train fraction must lie in (0, 1), got {train_fraction}")
    cut = int(math.floor(train_fraction * n_samples))
    cut = min(max(cut, 1), n_samples - 1)
    return SplitSpec(np.arange(cut), np.arange(cut, n_samples))


@dataclass(frozen=True)
class ThetaPoint:
    """One candidate hyperparameter point."""

    rho: float
    lam: float
    beta: float
    gamma: float | None = None

    def kernel(self, kind: str) -> KernelSpec:
        return KernelSpec(kind, self.beta,
                          self.gamma if kind == KIND_DC else None)


@dataclass(frozen=True)
class HyperparamSpace:
    """Search ranges for one kernel family.

    ``lam_range`` is explored on a log scale.  A range with equal
    endpoints pins that axis to a single value.  ``gamma_range`` is
    required for the ``dc`` family and rejected otherwise.
    """

    kind: str
    rho_range: tuple[float, float] = (0.5, 0.99)
    lam_range: tuple[float, float] = (1e-6, 1e2)
    beta_range: tuple[float, float] = (0.1, 0.9)
    gamma_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _DECAYING:
            raise ConfigError(f"cannot tune kernel kind {self.kind!r}")
        for name, rng, lo_ok, hi_ok in (
                ("rho", self.rho_range, 0.0, 1.0),
                ("lam", self.lam_range, 0.0, math.inf),
                ("beta", self.beta_range, 0.0, 1.0)):
            lo, hi = rng
            if not (lo_ok < lo <= hi) or not hi < hi_ok:
                raise ConfigError(f"bad {name} range {rng}")
        if self.kind == KIND_DC:
            if self.gamma_range is None:
                raise ConfigError("dc family needs a gamma range")
            lo, hi = self.gamma_range
            if not (-1.0 <= lo <= hi <= 1.0):
                raise ConfigError(f"bad gamma range {self.gamma_range}")
        elif self.gamma_range is not None:
            raise ConfigError(f"{self.kind} family takes no gamma range")

    @property
    def axes(self) -> list[str]:
        out = ["rho", "lam", "beta"]
        if self.kind == KIND_DC:
            out.append("gamma")
        return out

    def range_of(self, axis: str) -> tuple[float, float]:
        return {"rho": self.rho_range, "lam": self.lam_range,
                "beta": self.beta_range, "gamma": self.gamma_range}[axis]


def _coupled(space: HyperparamSpace, theta: ThetaPoint) -> bool:
    """Kernel decay strictly faster than the candidate pole."""
    return decay_compatible(theta.kernel(space.kind), theta.rho)


def _check_split_range(split: SplitSpec, data: TimeSeriesData) -> None:
    """Raise ``ConfigError`` when a split index is past the samples."""
    top = max(split.train_indices[-1], split.validation_indices[-1])
    if top >= data.n_samples:
        raise ConfigError(f"split index {top} is out of range for "
                          f"{data.n_samples} samples")


def validation_score(theta: ThetaPoint, data: TimeSeriesData,
                     split: SplitSpec, kind: str,
                     a_min: float = 1e-6) -> float:
    """Mean squared hold-out prediction error of one candidate.

    A split index past the data's samples raises ``ConfigError`` before
    anything is fitted.  Failures of the candidate (solver breakdowns,
    invalid configurations) score ``inf`` so the search can move on; the
    cause is logged.
    """
    _check_split_range(split, data)
    try:
        config = PositiveIdConfig(kernel=theta.kernel(kind), rho=theta.rho,
                                  lam=theta.lam, a_min=a_min)
        train = data.restrict(split.train_indices)
        model = identify(config, train)
        times = data.sample_times[split.validation_indices]
        truth = data.outputs[split.validation_indices]
        pred = predict(model, data, times)
        return float(np.mean((truth - pred) ** 2))
    except (PosidError, np.linalg.LinAlgError) as exc:
        logger.warning("candidate %s failed: %s", theta, exc)
        return math.inf


@dataclass(frozen=True)
class TuneResult:
    """Best candidate, its score, and the full evaluation trace."""

    theta: ThetaPoint
    score: float
    trace: tuple


def _grid_axis(lo: float, hi: float, count: int, log: bool) -> np.ndarray:
    if lo == hi:
        return np.array([lo])
    if count == 1:
        mid = math.sqrt(lo * hi) if log else 0.5 * (lo + hi)
        return np.array([mid])
    if log:
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _grid_candidates(space: HyperparamSpace, budget: int) -> list[ThetaPoint]:
    axes = space.axes
    free = [axis for axis in axes if space.range_of(axis)[0]
            != space.range_of(axis)[1]]
    counts = {axis: 1 for axis in axes}
    # Round-robin growth keeps the grid near-balanced within the budget.
    grew = True
    while grew:
        grew = False
        for axis in free:
            total = math.prod(counts.values())
            if total // counts[axis] * (counts[axis] + 1) <= budget:
                counts[axis] += 1
                grew = True
    # Axes run in ThetaPoint's field order, the last one fastest.
    grids = [_grid_axis(*space.range_of(axis), counts[axis],
                        log=(axis == "lam"))
             for axis in axes]
    return [ThetaPoint(*map(float, point))
            for point in itertools.product(*grids)]


def _random_candidates(space: HyperparamSpace, budget: int,
                       seed) -> list[ThetaPoint]:
    rng = np.random.default_rng(seed)
    out: list[ThetaPoint] = []
    attempts = 0
    while len(out) < budget and attempts < 1000 * budget:
        attempts += 1
        rho = float(rng.uniform(*space.rho_range))
        lam_lo, lam_hi = space.lam_range
        lam = float(np.exp(rng.uniform(np.log(lam_lo), np.log(lam_hi))))
        beta = float(rng.uniform(*space.beta_range))
        gamma = (float(rng.uniform(*space.gamma_range))
                 if space.kind == KIND_DC else None)
        theta = ThetaPoint(rho, lam, beta, gamma)
        if _coupled(space, theta):
            out.append(theta)
    if not out:
        raise ConfigError(
            "no feasible candidate found: every draw violates the "
            "decay/pole coupling")
    return out


def tune(space: HyperparamSpace, data: TimeSeriesData,
         split: SplitSpec | None = None, budget: int = 16,
         strategy: str = "grid", seed=0, a_min: float = 1e-6) -> TuneResult:
    """Search the space and return the best-scoring candidate.

    ``strategy`` is ``"grid"`` (default) or ``"random"``.  Candidates
    violating the decay/pole coupling are never evaluated.  Ties keep the
    earliest candidate, making the result deterministic for a fixed seed.
    A split index past the data's samples raises ``ConfigError``, and so
    does an ``a_min`` that :class:`PositiveIdConfig` rejects, before any
    candidate is scored; every candidate is fitted with that ``a_min``.
    """
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    if split is None:
        split = default_split(data.n_samples)
    _check_split_range(split, data)
    if strategy == "grid":
        candidates = [theta for theta in _grid_candidates(space, budget)
                      if _coupled(space, theta)]
        if not candidates:
            raise ConfigError(
                "no grid candidate satisfies the decay/pole coupling; "
                "widen rho upward or beta downward")
    elif strategy == "random":
        candidates = _random_candidates(space, budget, seed)
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")
    # A bad a_min would fail every candidate alike, each scored inf;
    # build one config here so its own error surfaces.
    first = candidates[0]
    PositiveIdConfig(kernel=first.kernel(space.kind), rho=first.rho,
                     lam=first.lam, a_min=a_min)
    trace = []
    best_idx = -1
    best_score = math.inf
    for i, theta in enumerate(candidates):
        score = validation_score(theta, data, split, space.kind, a_min)
        trace.append((theta, score))
        if score < best_score:
            best_idx, best_score = i, score
    if best_idx < 0 or not math.isfinite(best_score):
        raise ConfigError("every candidate failed to score")
    return TuneResult(theta=candidates[best_idx], score=best_score,
                      trace=tuple(trace))
