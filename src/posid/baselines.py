"""Reference estimators used in the comparison studies.

All four estimate a finitely supported response of length ``n_g``:

* ``b``: unregularised least squares, clipped to be nonnegative;
* ``c``: least squares constrained to the nonnegative orthant;
* ``d``: kernel ridge regression, clipped to be nonnegative;
* ``e``: kernel ridge constrained to the nonnegative orthant (the
  finite-response variant of the main estimator).

Methods ``d`` and ``e`` need a kernel; decaying kernels are windowed to
the response support.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qp
from .assembly import input_weight_matrix, required_width
from .errors import ConfigError
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
    ``e``).
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
            if self.lam <= 0.0:
                raise ConfigError(f"lambda must be positive, got {self.lam}")
            if self.kernel is None:
                raise ConfigError(f"baseline {self.kind!r} needs a kernel")


def regression_matrix(data: TimeSeriesData, n_g: int) -> np.ndarray:
    """Rows ``u[t_i - s]`` for lags ``s < n_g``: outputs are ``U @ g``."""
    width = required_width(data)
    phi = input_weight_matrix(data, max(width, n_g))
    return phi[:, :n_g]


def ls_clip(data: TimeSeriesData, n_g: int) -> ImpulseResponse:
    """Least squares (minimum-norm on rank deficiency), clipped at zero."""
    U = regression_matrix(data, n_g)
    g, *_ = np.linalg.lstsq(U, data.outputs, rcond=None)
    return ImpulseResponse(np.maximum(g, 0.0))


def nonneg_ls(data: TimeSeriesData, n_g: int) -> ImpulseResponse:
    """Least squares over the nonnegative orthant."""
    U = regression_matrix(data, n_g)
    problem = qp.ConvexQP(P=2.0 * (U.T @ U), q=-2.0 * (U.T @ data.outputs),
                          G=np.eye(n_g), l=np.zeros(n_g))
    sol = qp.solve(problem)
    return ImpulseResponse(np.maximum(sol.z, 0.0))


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
    U = regression_matrix(data, n_g)
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
    return identify_finite_response(config, data)
