"""Reference estimators used in the comparison studies.

All four estimate a finitely supported response of length ``n_g``:

* ``b``: unregularised least squares, clipped to be nonnegative;
* ``c``: least squares constrained to the nonnegative orthant, solved
  by Lawson & Hanson's NNLS method;
* ``d``: kernel ridge regression, clipped to be nonnegative;
* ``e``: kernel ridge constrained to the nonnegative orthant, i.e. the
  main estimator's horizon loop with no dominant part.

Methods ``d`` and ``e`` need a kernel; decaying kernels are windowed to
the response support.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qp
from .assembly import input_weight_matrix
from .errors import ConfigError, SolverError
from .extensions import FiniteResponseConfig, identify_finite_response
from .kernels import KernelSpec, gram, window_kernel
from .signals import ImpulseResponse, TimeSeriesData

KIND_LS_CLIP = "b"
KIND_NONNEG_LS = "c"
KIND_RIDGE_CLIP = "d"
KIND_NONNEG_RIDGE = "e"

_KINDS = (KIND_LS_CLIP, KIND_NONNEG_LS, KIND_RIDGE_CLIP, KIND_NONNEG_RIDGE)


@dataclass(frozen=True)
class BaselineKind:
    """Which baseline to run and with what knobs.

    ``lam`` and ``kernel`` only matter for the kernel methods (``d`` and
    ``e``), so one call builds the kind of any method.
    """

    kind: str
    fir_length: int = 200
    lam: float = 1.0
    kernel: KernelSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(
                f"baseline kind must be one of {_KINDS}, got {self.kind!r}")
        if self.fir_length <= 0:
            raise ConfigError(
                f"fir_length must be positive, got {self.fir_length}")
        if self.kind in (KIND_RIDGE_CLIP, KIND_NONNEG_RIDGE):
            if not 0.0 < self.lam < np.inf:
                raise ConfigError(
                    f"lambda must be positive and finite, got {self.lam}")
            if self.kernel is None:
                raise ConfigError(f"baseline {self.kind!r} needs a kernel")


def ls_clip(data: TimeSeriesData, n_g: int) -> ImpulseResponse:
    """Least squares (minimum-norm on rank deficiency), clipped at zero.

    Solved by :func:`posid.qp.min_norm_lstsq`: LAPACK ``gelsy``, a
    complete orthogonal factorisation, with numerical rank cut at
    ``eps * max(U.shape)``, numpy's default ``lstsq`` cutoff.
    """
    U = input_weight_matrix(data, n_g)
    g = qp.min_norm_lstsq(U, data.outputs)
    return ImpulseResponse(np.maximum(g, 0.0))


def nonneg_ls(data: TimeSeriesData, n_g: int) -> ImpulseResponse:
    """Least squares over the nonnegative orthant.

    Lawson & Hanson's active-set method (*Solving Least Squares
    Problems*, 1974, ch. 23), warm-started.  The least-squares solve on
    every tap, re-solved without its nonpositive taps until it is
    positive, is feasible and stationary on its free taps, so the method
    starts there rather than at ``g = 0``.  Each outer step frees the zero
    tap with the largest gradient ``U'(y - U g)``, if that exceeds a
    tolerance proportional to ``|U|_1 |y|_inf`` (so it does not depend on
    the units of ``u`` or ``y``); inner steps then move back towards the
    last point until the solve on the free taps is positive.  Every solve
    is :func:`posid.qp.min_norm_lstsq` on the free taps.  With more taps
    than samples (``n_g > n``) the minimisers form a polyhedron, and the
    answer is a vertex of it, not its minimum-norm point.  Raises
    :class:`SolverError` after ``3 n_g`` outer steps.
    """
    U = input_weight_matrix(data, n_g)
    y = data.outputs

    def solve_on(free):
        g = np.zeros(n_g)
        g[free] = qp.min_norm_lstsq(U[:, free], y)
        return g

    free = np.ones(n_g, dtype=bool)
    g = solve_on(free)
    while np.any(free & (g <= 0.0)):
        free &= g > 0.0
        g = solve_on(free)
    tol = (10.0 * np.finfo(float).eps * max(U.shape)
           * np.linalg.norm(U, 1) * np.linalg.norm(y, np.inf))
    for _ in range(3 * n_g):
        grad = np.where(free, -np.inf, U.T @ (y - U @ g))
        j = int(np.argmax(grad))
        if grad[j] <= tol:
            return ImpulseResponse(g)
        free[j] = True
        s = solve_on(free)
        while np.any(free & (s <= 0.0)):
            # back along g -> s to where the first free tap reaches zero
            neg = np.flatnonzero(free & (s <= 0.0))
            step = g[neg] / (g[neg] - s[neg])
            g = g + step.min() * (s - g)
            g[neg[np.argmin(step)]] = 0.0
            free &= g > 0.0
            s = solve_on(free)
        g = s
    raise SolverError(f"NNLS did not converge in {3 * n_g} outer steps")


def ridge_clip(data: TimeSeriesData, n_g: int, lam: float,
               kernel: KernelSpec) -> ImpulseResponse:
    """Kernel ridge regression, clipped at zero."""
    g = ridge_pre_clip(data, n_g, lam, kernel).values
    return ImpulseResponse(np.maximum(g, 0.0))


def ridge_pre_clip(data: TimeSeriesData, n_g: int, lam: float,
                   kernel: KernelSpec) -> ImpulseResponse:
    """Ridge solution before clipping.

    Uses the identity ``g = K U' (U K U' + lam I)^{-1} y`` so the kernel
    matrix is never inverted directly.
    """
    U = input_weight_matrix(data, n_g)
    K = gram(kernel, np.arange(n_g), np.arange(n_g))
    inner = U @ K @ U.T + lam * np.eye(U.shape[0])
    coeffs = np.linalg.solve(inner, data.outputs)
    return ImpulseResponse(K @ (U.T @ coeffs))


def run_baseline(kind: BaselineKind, data: TimeSeriesData) -> ImpulseResponse:
    """Run one baseline estimator on one experiment."""
    n_g = kind.fir_length
    if kind.kind == KIND_LS_CLIP:
        return ls_clip(data, n_g)
    if kind.kind == KIND_NONNEG_LS:
        return nonneg_ls(data, n_g)
    if kind.kind == KIND_RIDGE_CLIP:
        return ridge_clip(data, n_g, kind.lam, kind.kernel)
    config = FiniteResponseConfig(kernel=window_kernel(kind.kernel, n_g),
                                  lam=kind.lam)
    return identify_finite_response(config, data).g
