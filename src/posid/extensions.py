"""Estimator variants for richer dominant-pole structure.

* repeated pole: dominant part ``rho**t`` times a degree ``n - 1``
  polynomial whose top coefficient is bounded below;
* oscillating poles: ``n`` simple poles of modulus ``rho`` at the complex
  roots of unity, whose real combined response is ``rho**t x[t mod n]``
  for one real period ``x``; the model keeps that period and reports
  its phase coefficients;
* finite response: zero spectral radius, i.e. the response is supported
  on ``[0, n_g)`` and estimated with a finite-support kernel alone.

Each variant only builds its :class:`~posid.assembly.DominantBasis` and
runs the base estimator's horizon loop on it, so all of them share its
QP over the mode and section coefficients ``(coeffs, w)``, acceptance
test, certified cap ``m0``, diagnostics and model fields.  The returned
model evaluates the basis's mode sampler on ``coeffs``, as the loop
did; each model class here only names entries of ``coeffs``.  The
finite response runs on the empty basis: a QP over ``w`` alone,
constrained on the kernel's support, which is also its ``m0``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (assemble_oscillation_blocks,
                       assemble_polynomial_blocks, empty_basis)
from .errors import ConfigError
from .estimator import FittedModel, PositiveIdConfig, _fit_basis
from .kernels import KernelSpec
from .signals import TimeSeriesData

# Mode-coefficient penalty as a fraction of lambda.
_EPSILON_FRACTION = 1e-4


@dataclass(frozen=True)
class RepeatedPoleConfig:
    """Dominant pole of multiplicity ``n``.

    ``base`` carries the kernel, pole, regularisation and loop controls.
    The lower-degree mode coefficients are penalised by ``1e-4 * lam``.
    """

    base: PositiveIdConfig
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"pole multiplicity must be >= 1, got {self.n}")


@dataclass(frozen=True)
class OscillatingPoleConfig:
    """``n`` simple dominant poles ``rho * omega**k`` at unit-root phases.

    Every phase but the constant one is penalised by ``1e-4 * lam``.
    """

    base: PositiveIdConfig
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"pole count must be >= 1, got {self.n}")


@dataclass(frozen=True)
class FiniteResponseConfig:
    """Finitely supported response (zero spectral radius).

    The kernel must be windowed (see :func:`posid.kernels.window_kernel`):
    its support length is the response length ``n_g``.
    """

    kernel: KernelSpec
    lam: float

    def __post_init__(self) -> None:
        if self.kernel.support is None:
            raise ConfigError(
                "finite-response estimation needs a finite-support kernel; "
                "window a decaying kernel first")
        if not 0.0 < self.lam < np.inf:
            raise ConfigError(
                f"lambda must be positive and finite, got {self.lam}")


class RepeatedPoleModel(FittedModel):
    """Identified model ``g[t] = rho**t (a t**(n-1) + sum_j a_poly[j] t**j) + h[t]``.

    ``coeffs`` is ``(a_poly, a)``, in increasing degree.
    """

    @property
    def a(self) -> float:
        return float(self.coeffs[-1])

    @a.setter
    def a(self, value: float) -> None:
        self.coeffs[-1] = value

    @property
    def a_poly(self) -> np.ndarray:
        return self.coeffs[:-1]


class OscillatingPoleModel(FittedModel):
    """Identified model with oscillating dominant part of period ``n``.

    ``g[t] = rho**t * period[t mod n] + h[t]``, where ``period`` is
    ``coeffs``, the fitted real period whose nonnegativity the horizon
    loop checked.  The phase coefficients ``a_r + i a_i = fft(period) /
    n`` give the same part as ``rho**t * sum_k (a_r[k] cos(2 pi k t / n)
    - a_i[k] sin(2 pi k t / n))``, and ``n * ifft(a_r + i a_i)`` gives
    the period back.
    """

    @property
    def n(self) -> int:
        return self.coeffs.size

    @property
    def period(self) -> np.ndarray:
        return self.coeffs

    @property
    def a_r(self) -> np.ndarray:
        return (np.fft.fft(self.coeffs) / self.n).real

    @property
    def a_i(self) -> np.ndarray:
        return (np.fft.fft(self.coeffs) / self.n).imag


def identify_repeated_pole(config: RepeatedPoleConfig,
                           data: TimeSeriesData) -> RepeatedPoleModel:
    """Identification with a dominant pole of multiplicity ``n``.

    Variables are the mode coefficients ``(a_poly, a)`` followed by the
    section coefficients ``w``; nonnegativity couples them through the
    sampled modes on the constraint rows.
    """
    base = config.base
    basis = assemble_polynomial_blocks(data, base.rho, config.n,
                                       _EPSILON_FRACTION * base.lam,
                                       base.a_min)
    return RepeatedPoleModel(config=config, **_fit_basis(
        base.kernel, base.lam, data, basis, base.horizon))


def identify_oscillating_poles(config: OscillatingPoleConfig,
                               data: TimeSeriesData) -> OscillatingPoleModel:
    """Identification with ``n`` simple dominant poles at unit-root phases.

    Variables are the real period ``x`` of the dominant part
    ``rho**t x[t mod n]``, then the section coefficients ``w``;
    nonnegativity is sampled on the constraint rows and every period
    value is floored at ``a_min``.  The model keeps ``x`` as its
    ``period`` and reports the phase coefficients ``fft(x) / n``.
    """
    base = config.base
    basis = assemble_oscillation_blocks(data, base.rho, config.n,
                                        _EPSILON_FRACTION * base.lam,
                                        base.a_min)
    return OscillatingPoleModel(config=config, **_fit_basis(
        base.kernel, base.lam, data, basis, base.horizon))


def identify_finite_response(config: FiniteResponseConfig,
                             data: TimeSeriesData) -> FittedModel:
    """Nonnegative finitely supported response estimate.

    The horizon loop on the empty basis: one QP over the section
    coefficients ``w`` with nonnegativity of ``g = K w`` on every lag of
    the support, beyond which the response is identically zero.
    """
    return FittedModel(config=config, **_fit_basis(
        config.kernel, config.lam, data, empty_basis(data),
        config.kernel.support))
