"""Finite-dimensional matrix assembly for the constrained estimator.

Two kinds of blocks make up every QP.  :func:`assemble_core` builds the
kernel blocks at a constraint horizon ``m``; a :class:`DominantBasis`
describes the dominant part once per fit: its input-convolved modes, a
sampler for the mode values, the floor and penalty rows, and the mode
combination that caps the horizon.  :func:`assemble_polynomial_blocks`
gives the simple or repeated pole, :func:`assemble_oscillation_blocks`
the poles at unit-root phases, fitted over one real period.

The residual is parameterised by its section coefficients
``h = sum_s w[s] k(., s)`` over ``s < N = max(width, m + 1)``: every
functional of the problem (an input-convolved sample, which reaches lags
``< width``, or a positivity row ``0 .. m``) evaluates ``h`` through
these sections, so by the representer theorem the parameterisation is
exact.  Every convolution against the input is an exact finite sum: the
input vanishes before its declared support start, so the weight of lag
``s`` at time ``t`` is ``u[t - s]`` and is zero for ``s > t - t_start``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConfigError
from .kernels import KernelSpec, gram
from .signals import TimeSeriesData


@dataclass(frozen=True)
class QPDataMatrices:
    """Kernel data matrices of the finite-dimensional problem at horizon ``m``.

    ``K`` is the kernel Gram on the sections ``[0, N)^2``; ``L = W K``
    convolves it with the input at the sample times, so ``L w`` is the
    residual's contribution to the outputs, ``K[:m + 1] w`` its values
    on the constraint rows and ``w' K w`` its squared RKHS norm.
    """

    L: np.ndarray = field(repr=False)
    K: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    m: int


@dataclass(frozen=True)
class DominantBasis:
    """Dominant part ``sum_j coeffs[j] * mode_j(t)`` as the QP sees it.

    ``modes(horizon)`` samples the ``p`` modes on ``t < horizon``: its
    first ``m + 1`` rows are the positivity constraint rows and its full
    length gives the dominant part of a reconstruction.  ``B`` convolves
    the same modes with the input at the sample times.  Each ``floor``
    row of the coefficients is bounded below by ``a_min``.  ``penalty``
    is the mode-coefficient penalty, already scaled by epsilon.  ``cap``
    holds the coefficients of the mode ``B @ cap`` whose best
    single-mode misfit ``c0`` sets the horizon cap ``m0``.
    """

    B: np.ndarray = field(repr=False)
    modes: Callable[[int], np.ndarray] = field(repr=False)
    floor: np.ndarray = field(repr=False)
    penalty: np.ndarray = field(repr=False)
    cap: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return int(self.B.shape[1])


def input_weight_matrix(data: TimeSeriesData, width: int) -> np.ndarray:
    """Convolution weights ``W[i, s] = u[t_i - s]`` for lags ``s < width``.

    Rows follow the sample times; entries with ``t_i - s`` before the
    input support are zero.  For at-rest data and ``width = n`` this is
    the lower-triangular Toeplitz operator of the input.
    """
    if width <= 0:
        raise ConfigError(f"weight width must be positive, got {width}")
    times = data.sample_times
    w = np.zeros((times.size, width))
    for i, t in enumerate(times):
        window = data.input_window(int(t))
        n = min(window.size, width)
        w[i, :n] = window[:n]
    return w


def required_width(data: TimeSeriesData) -> int:
    """Number of lags with possibly nonzero convolution weight."""
    return data.t_last - data.t_start + 1


def assemble_core(kernel: KernelSpec, data: TimeSeriesData,
                  m: int) -> QPDataMatrices:
    """Assemble the kernel data matrices for constraint horizon ``m``.

    The sections run over ``N = max(width, m + 1)`` lags, capped at a
    finite kernel's support: sections past it are the zero function.
    """
    if m < 0:
        raise ConfigError(f"constraint horizon must be nonnegative, got {m}")
    n_sec = max(required_width(data), m + 1)
    if kernel.support is not None:
        n_sec = min(n_sec, kernel.support)
    K = gram(kernel, np.arange(n_sec), np.arange(n_sec))
    L = input_weight_matrix(data, n_sec) @ K
    return QPDataMatrices(L=L, K=K, y=data.outputs.copy(), m=int(m))


def _check_pole(rho: float) -> None:
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"rho must lie in (0, 1), got {rho}")


def _input_convolved(data: TimeSeriesData, modes) -> np.ndarray:
    """Modes convolved with the input at every sample time."""
    width = required_width(data)
    return input_weight_matrix(data, width) @ modes(width)


def polynomial_modes(rho: float, degrees: int, horizon: int) -> np.ndarray:
    """Columns ``t**j * rho**t`` for ``j < degrees`` on ``t < horizon``.

    The ``t = 0, j = 0`` entry is 1 (zero to the zeroth power taken as
    one), so the constant mode reaches time zero.
    """
    t = np.arange(horizon, dtype=float)
    # np.power(0.0, 0) is 1, which is the convention needed at t = 0.
    cols = [np.power(t, j) * rho ** t for j in range(degrees)]
    return np.stack(cols, axis=1)


def assemble_polynomial_blocks(data: TimeSeriesData, rho: float, n: int,
                               epsilon: float = 0.0) -> DominantBasis:
    """Basis of a dominant pole of multiplicity ``n``.

    The modes are ``t**j * rho**t`` for ``j < n``; the top-degree
    coefficient is floored at ``a_min`` and sets the horizon cap, and
    ``epsilon`` penalises the lower-degree ones.  ``n = 1`` is the simple
    pole of the base estimator.
    """
    if n < 1:
        raise ConfigError(f"pole multiplicity must be >= 1, got {n}")
    _check_pole(rho)
    modes = partial(polynomial_modes, rho, n)
    penalty = epsilon * np.diag(np.r_[np.ones(n - 1), 0.0])
    return DominantBasis(B=_input_convolved(data, modes), modes=modes,
                         floor=np.eye(n)[n - 1:], penalty=penalty,
                         cap=np.eye(n)[n - 1])


def oscillation_tables(n: int, rows: int):
    """Root-of-unity phase tables for period ``n``.

    Returns ``(Vr, Vi)``: the real and imaginary parts of
    ``omega**(t * k)`` with ``omega = exp(2 pi i / n)`` on
    ``t < rows, k < n``.
    """
    if n < 1:
        raise ConfigError(f"period must be >= 1, got {n}")
    if rows < 1:
        raise ConfigError(f"need at least one row, got {rows}")
    t = np.arange(rows)
    k = np.arange(n)
    angles = 2.0 * np.pi * np.outer(t, k) / n
    return np.cos(angles), np.sin(angles)


def periodic_modes(rho: float, n: int, horizon: int) -> np.ndarray:
    """Columns ``rho**t * [t mod n == j]`` for ``j < n`` on ``t < horizon``.

    With the real period ``x`` as coefficients they give
    ``rho**t * x[t mod n]``.
    """
    t = np.arange(horizon)
    decay = rho ** t.astype(float)
    return decay[:, None] * (t[:, None] % n == np.arange(n))


def assemble_oscillation_blocks(data: TimeSeriesData, rho: float, n: int,
                                epsilon: float = 0.0) -> DominantBasis:
    """Basis of ``n`` simple dominant poles at the unit-root phases.

    Poles ``rho * omega**k`` with real combined response are
    ``rho**t * x[t mod n]`` for one real period ``x``, the coefficients
    here; the phase coefficients are ``fft(x) / n``.  Every period value
    is floored at ``a_min``, and ``epsilon`` penalises every phase but
    the constant one, which by Parseval is ``epsilon`` times the spread
    ``x'x / n - (sum x)**2 / n**2``.  The constant phase, the mode
    ``rho**t`` itself, sets the horizon cap.
    """
    _check_pole(rho)
    if n < 1:
        raise ConfigError(f"period must be >= 1, got {n}")
    modes = partial(periodic_modes, rho, n)
    penalty = epsilon * (np.eye(n) / n - np.full((n, n), 1.0 / n ** 2))
    return DominantBasis(B=_input_convolved(data, modes), modes=modes,
                         floor=np.eye(n), penalty=penalty, cap=np.ones(n))
