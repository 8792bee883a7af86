"""Finite-dimensional matrix assembly for the constrained estimator.

Two kinds of blocks make up every QP.  :func:`assemble_core` builds the
kernel blocks at a constraint horizon ``m``; a :class:`DominantBasis`
describes the dominant part once per fit: its input-convolved modes, a
sampler for the mode values, the floor, equality and penalty rows, and
the mode that caps the horizon.  :func:`assemble_polynomial_blocks`
gives the simple or repeated pole, :func:`assemble_oscillation_blocks`
the poles at unit-root phases.

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
    row of the coefficients is bounded below by ``a_min``; each ``eq``
    row, if any, is held at zero.  ``penalty`` is the mode-coefficient
    penalty, already scaled by epsilon.  Column ``cap`` is the mode whose
    best single-mode misfit ``c0`` sets the horizon cap ``m0``.
    """

    B: np.ndarray = field(repr=False)
    modes: Callable[[int], np.ndarray] = field(repr=False)
    floor: np.ndarray = field(repr=False)
    penalty: np.ndarray = field(repr=False)
    cap: int
    eq: np.ndarray | None = field(default=None, repr=False)

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
                         cap=n - 1)


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


def phase_modes(rho: float, n: int, rows: int) -> np.ndarray:
    """Columns ``rho**t cos(2 pi k t / n)`` then ``-rho**t sin(2 pi k t / n)``.

    With coefficients ``(a_r, a_i)`` they give the real part of
    ``rho**t sum_k (a_r[k] + i a_i[k]) omega**(t k)``.
    """
    Vr, Vi = oscillation_tables(n, rows)
    decay = (rho ** np.arange(rows, dtype=float))[:, None]
    return np.hstack([decay * Vr, -(decay * Vi)])


def assemble_oscillation_blocks(data: TimeSeriesData, rho: float, n: int,
                                epsilon: float = 0.0) -> DominantBasis:
    """Basis of ``n`` simple dominant poles at the unit-root phases.

    Coefficients are the real phase parts ``a_r`` then the imaginary
    parts ``a_i``.  Over one period the equality rows hold the implied
    imaginary part at zero and the floor rows bound the phase values
    below; ``epsilon`` penalises every phase but the constant one, and
    the constant cosine mode sets the horizon cap.
    """
    _check_pole(rho)
    modes = partial(phase_modes, rho, n)
    Vr, Vi = oscillation_tables(n, n)
    penalised = np.tile(np.r_[0.0, np.ones(n - 1)], 2)
    return DominantBasis(B=_input_convolved(data, modes), modes=modes,
                         floor=np.hstack([Vr, Vi]),
                         penalty=epsilon * np.diag(penalised),
                         cap=0, eq=np.hstack([Vi, Vr]))
