"""Estimator variants for richer dominant-pole structure.

* repeated pole: dominant part ``rho**t`` times a degree ``n - 1``
  polynomial whose top coefficient is bounded below;
* oscillating poles: ``n`` simple poles of modulus ``rho`` at the complex
  roots of unity, whose real combined response is ``rho**t x[t mod n]``
  for one real period ``x``; the model reports its phase coefficients;
* finite response: zero spectral radius, i.e. the response is supported
  on ``[0, n_g)`` and estimated with a finite-support kernel alone.

The two pole variants only build their
:class:`~posid.assembly.DominantBasis` and run the base estimator's
horizon loop on it, so they share its QP over the mode and section
coefficients ``(coeffs, w)``, acceptance test, certified cap ``m0``
(taken from the basis cap mode) and diagnostics.  The finite response
has no dominant part and needs no loop: one QP over ``w`` alone covers
its whole support.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qp
from .assembly import (assemble_core, assemble_oscillation_blocks,
                       assemble_polynomial_blocks, oscillation_tables,
                       polynomial_modes)
from .errors import ConfigError
from .estimator import (_IDENTIFY_OPTIONS, PositiveIdConfig,
                        IdentifyDiagnostics, _fit_basis, _solve_or_raise,
                        reconstruct_h)
from .kernels import KernelSpec, KIND_FINITE
from .signals import ImpulseResponse, TimeSeriesData

# Default mode-coefficient penalty as a fraction of lambda.
_EPSILON_FRACTION = 1e-4


def _resolved_epsilon(epsilon: float | None, lam: float) -> float:
    if epsilon is None:
        return _EPSILON_FRACTION * lam
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    return float(epsilon)


@dataclass(frozen=True)
class RepeatedPoleConfig:
    """Dominant pole of multiplicity ``n``.

    ``base`` carries the kernel, pole, regularisation and loop controls;
    ``epsilon`` penalises the lower-degree mode coefficients and defaults
    to ``1e-4 * lam``.
    """

    base: PositiveIdConfig
    n: int
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"pole multiplicity must be >= 1, got {self.n}")
        _resolved_epsilon(self.epsilon, self.base.lam)


@dataclass(frozen=True)
class OscillatingPoleConfig:
    """``n`` simple dominant poles ``rho * omega**k`` at unit-root phases."""

    base: PositiveIdConfig
    n: int
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"pole count must be >= 1, got {self.n}")
        _resolved_epsilon(self.epsilon, self.base.lam)


@dataclass(frozen=True)
class FiniteResponseConfig:
    """Finitely supported response (zero spectral radius).

    The kernel must be finite-support: its support length is the response
    length ``n_g``.
    """

    kernel: KernelSpec
    lam: float
    solve_options: qp.SolveOptions | None = None

    def __post_init__(self) -> None:
        if self.kernel.kind != KIND_FINITE:
            raise ConfigError(
                "finite-response estimation needs a finite-support kernel; "
                "window a decaying kernel first")
        if self.lam <= 0.0:
            raise ConfigError(f"lambda must be positive, got {self.lam}")

    @property
    def n_g(self) -> int:
        return int(self.kernel.support)


@dataclass
class RepeatedPoleModel:
    """Identified model ``g[t] = rho**t (a t**(n-1) + sum_j a_poly[j] t**j) + h[t]``.

    ``w`` holds the section coefficients of the residual,
    ``h = sum_s w[s] k(., s)``.
    """

    a: float
    a_poly: np.ndarray = field(repr=False)
    rho: float
    n: int
    w: np.ndarray = field(repr=False)
    m: int
    h: ImpulseResponse
    g: ImpulseResponse
    diagnostics: IdentifyDiagnostics
    config: RepeatedPoleConfig = field(repr=False)

    def dominant_values(self, horizon: int) -> np.ndarray:
        modes = polynomial_modes(self.rho, self.n, horizon)
        coeffs = np.concatenate([self.a_poly, [self.a]])
        return modes @ coeffs

    def reconstruct(self, horizon: int) -> ImpulseResponse:
        h = reconstruct_h(self.w, self.config.base.kernel, horizon)
        return ImpulseResponse(h.values + self.dominant_values(horizon))


@dataclass
class OscillatingPoleModel:
    """Identified model with oscillating dominant part of period ``n``.

    ``g[t] = rho**t * sum_k (a_r[k] cos(2 pi k t / n)
    - a_i[k] sin(2 pi k t / n)) + h[t]``.  The phase coefficients
    ``a_r + i a_i = fft(x) / n`` come from the fitted real period ``x``,
    so the implied imaginary part is zero up to rounding; its largest
    value over one period is reported in ``equality_residual``.  ``w``
    holds the section coefficients of the residual ``h``.
    """

    a_r: np.ndarray = field(repr=False)
    a_i: np.ndarray = field(repr=False)
    rho: float
    n: int
    w: np.ndarray = field(repr=False)
    m: int
    h: ImpulseResponse
    g: ImpulseResponse
    diagnostics: IdentifyDiagnostics
    equality_residual: float
    config: OscillatingPoleConfig = field(repr=False)

    def _phase_sum(self, horizon: int) -> np.ndarray:
        """Phase sum ``rho**t sum_k (a_r[k] + i a_i[k]) omega**(t k)``."""
        vr, vi = oscillation_tables(self.n, horizon)
        decay = self.rho ** np.arange(horizon, dtype=float)
        return decay * ((vr + 1j * vi) @ (self.a_r + 1j * self.a_i))

    def dominant_values(self, horizon: int) -> np.ndarray:
        return self._phase_sum(horizon).real

    def dominant_imag_values(self, horizon: int) -> np.ndarray:
        return self._phase_sum(horizon).imag

    def reconstruct(self, horizon: int) -> ImpulseResponse:
        h = reconstruct_h(self.w, self.config.base.kernel, horizon)
        return ImpulseResponse(h.values + self.dominant_values(horizon))


def identify_repeated_pole(config: RepeatedPoleConfig,
                           data: TimeSeriesData) -> RepeatedPoleModel:
    """Identification with a dominant pole of multiplicity ``n``.

    Variables are the mode coefficients ``(a_poly, a)`` followed by the
    section coefficients ``w``; nonnegativity couples them through the
    sampled modes on the constraint rows.
    """
    base = config.base
    basis = assemble_polynomial_blocks(
        data, base.rho, config.n,
        _resolved_epsilon(config.epsilon, base.lam))
    coeffs, fields = _fit_basis(base, data, basis)
    return RepeatedPoleModel(a=float(coeffs[-1]), a_poly=coeffs[:-1].copy(),
                             rho=base.rho, n=config.n, config=config,
                             **fields)


def identify_oscillating_poles(config: OscillatingPoleConfig,
                               data: TimeSeriesData) -> OscillatingPoleModel:
    """Identification with ``n`` simple dominant poles at unit-root phases.

    Variables are the real period ``x`` of the dominant part
    ``rho**t x[t mod n]``, then the section coefficients ``w``;
    nonnegativity is sampled on the constraint rows and every period
    value is floored at ``a_min``.  The model reports the phase
    coefficients ``fft(x) / n``.
    """
    base = config.base
    n = config.n
    basis = assemble_oscillation_blocks(
        data, base.rho, n, _resolved_epsilon(config.epsilon, base.lam))
    period, fields = _fit_basis(base, data, basis)
    phases = np.fft.fft(period) / n
    a_r, a_i = phases.real.copy(), phases.imag.copy()
    vr, vi = oscillation_tables(n, n)
    eq_res = float(np.max(np.abs(vi @ a_r + vr @ a_i), initial=0.0))
    return OscillatingPoleModel(a_r=a_r, a_i=a_i, rho=base.rho, n=n,
                                equality_residual=eq_res, config=config,
                                **fields)


def identify_finite_response(config: FiniteResponseConfig,
                             data: TimeSeriesData) -> ImpulseResponse:
    """Nonnegative finitely supported response estimate.

    One QP over the section coefficients ``w`` with nonnegativity of
    ``g = K w`` on every lag of the support; the response is identically
    zero beyond it, so no horizon loop is needed.
    """
    n_g = config.n_g
    mats = assemble_core(config.kernel, data, n_g - 1)
    P = 2.0 * (mats.L.T @ mats.L + config.lam * mats.K)
    q = -2.0 * (mats.L.T @ mats.y)
    sol = _solve_or_raise(qp.ConvexQP(P=P, q=q, G=mats.K, l=np.zeros(n_g)),
                          config.solve_options or _IDENTIFY_OPTIONS)
    return reconstruct_h(sol.z, config.kernel, n_g)
