"""Impulse response estimation with internal-positivity side-information.

The estimated response is split as ``g[t] = (dominant part)[t] + h[t]``:
a finite combination of known modes plus a residual ``h`` living in the
RKHS of a stable kernel whose decay is strictly faster than the dominant
pole ``rho``.  The base estimator's dominant part is ``a * rho**t`` with
``a >= a_min``; the variants in :mod:`posid.extensions` swap in a
repeated pole or poles at unit-root phases.  Each is described by one
:class:`~posid.assembly.DominantBasis`, and all of them run the same
horizon loop here.

The infinite-dimensional regularised least-squares problem reduces
exactly to a convex QP over the mode coefficients and the section
coefficients ``w`` of the residual, ``h = sum_s w[s] k(., s)`` (see
:mod:`posid.assembly`).  Nonnegativity of ``g`` is imposed on a finite
constraint horizon ``m`` that a certified bound ``m_0`` makes
sufficient, and the loop grows ``m`` until the reconstructed response is
nonnegative below ``m_0``.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import qp
from .assembly import (DominantBasis, QPDataMatrices, assemble_core,
                       assemble_polynomial_blocks, required_width)
from .errors import ConfigError, SolverError
from .kernels import KernelSpec, decay_compatible, domination_bound, gram
from .signals import ImpulseResponse, TimeSeriesData, convolve

logger = logging.getLogger(__name__)

# Safety margin on the nonnegativity check of the reconstructed response.
_NEG_TOL_SCALE = 1e-8
# Iteration guard: the loop is finite by construction (m is capped by the
# certified bound) but a defensive cap keeps bugs from spinning.
_MAX_LOOPS = 1000
# Default inner solve options, tighter than the library defaults: the
# nonnegativity acceptance test must sit clearly above solver noise.
_IDENTIFY_OPTIONS = qp.SolveOptions(tol_feas=1e-10, tol_gap=1e-9)


@dataclass(frozen=True)
class PositiveIdConfig:
    """Hyperparameters of one identification run.

    Parameters
    ----------
    kernel : KernelSpec
        Stable kernel for the residual part.  Its certified decay rate
        must be strictly smaller than ``rho``.
    rho : float
        Dominant pole, in ``(0, 1)``.
    lam : float
        Regularisation weight, positive.
    a_min : float
        Strictly positive lower bound on the dominant amplitude.
    delta_m : int
        Constraint-horizon increment between loop iterations.
    horizon : int or None
        Reconstruction horizon of the returned response; default
        ``2 * (t_last - t_start + 1)``.
    solve_options : qp.SolveOptions or None
        Overrides for the inner QP solves.  Identification defaults to
        tighter-than-library tolerances so the nonnegativity check sits
        well above solver noise.
    """

    kernel: KernelSpec
    rho: float
    lam: float
    a_min: float = 1e-6
    delta_m: int = 50
    horizon: int | None = None
    solve_options: qp.SolveOptions | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must lie in (0, 1), got {self.rho}")
        if self.lam <= 0.0:
            raise ConfigError(f"lambda must be positive, got {self.lam}")
        if self.a_min <= 0.0:
            raise ConfigError(f"a_min must be positive, got {self.a_min}")
        if self.delta_m <= 0:
            raise ConfigError(f"delta_m must be positive, got {self.delta_m}")
        if self.horizon is not None and self.horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if not decay_compatible(self.kernel, self.rho):
            bound = domination_bound(self.kernel)
            raise ConfigError(
                f"kernel decay rate {bound.rho_d:.6g} is not strictly "
                f"smaller than rho {self.rho:.6g}")


@dataclass
class IdentifyDiagnostics:
    """Run-level diagnostics attached to every identified model."""

    m0: int
    iterations: int
    qp_status: str
    qp_primal: float
    qp_dual: float
    qp_gap: float
    objective: float
    c0: float
    h_norm: float
    min_g: float
    neg_tol: float
    forced_accept: bool = False


@dataclass
class PositiveIdModel:
    """Identified model ``g[t] = a * rho**t + h[t]``.

    ``w`` holds the section coefficients of the residual,
    ``h = sum_s w[s] k(., s)``; ``h`` and ``g`` are reconstructions over
    the configured horizon.  The config is kept so predictions can extend
    the reconstruction exactly instead of relying on the truncated ``g``.
    """

    a: float
    rho: float
    w: np.ndarray = field(repr=False)
    m: int
    h: ImpulseResponse
    g: ImpulseResponse
    diagnostics: IdentifyDiagnostics
    config: PositiveIdConfig = field(repr=False)

    def dominant_values(self, horizon: int) -> np.ndarray:
        return self.a * self.rho ** np.arange(horizon, dtype=float)

    def reconstruct(self, horizon: int) -> ImpulseResponse:
        """Response on ``t < horizon`` from the exact section form."""
        h = reconstruct_h(self.w, self.config.kernel, horizon)
        return ImpulseResponse(h.values + self.dominant_values(horizon))


def default_horizon(data: TimeSeriesData) -> int:
    """Default reconstruction horizon: twice the data span."""
    return 2 * required_width(data)


def initial_constraint_horizon(data: TimeSeriesData) -> int:
    """Starting value of the constraint horizon ``m``."""
    return required_width(data)


def build_qp(config: PositiveIdConfig, mats: QPDataMatrices,
             basis: DominantBasis) -> qp.ConvexQP:
    """Finite-dimensional QP over ``z = (mode coefficients, w)``.

    Cost: squared output misfit of ``B @ coeffs + L @ w`` plus ``lam``
    times the RKHS norm ``w' K w`` of the residual plus the basis mode
    penalty.  Constraints: the response sampled on ``0 .. m`` (modes plus
    ``K[:m + 1] @ w``, zero past a finite kernel's support) is
    nonnegative and every basis floor row is at least ``a_min``.
    """
    p = basis.size
    m = mats.m
    M = np.hstack([basis.B, mats.L])
    P = 2.0 * (M.T @ M)
    P[p:, p:] += 2.0 * config.lam * mats.K
    P[:p, :p] += 2.0 * basis.penalty
    q = -2.0 * (M.T @ mats.y)
    n_floor = basis.floor.shape[0]
    G = np.zeros((m + 1 + n_floor, M.shape[1]))
    G[:m + 1, :p] = basis.modes(m + 1)
    rows = mats.K[:m + 1]
    G[:rows.shape[0], p:] = rows
    G[m + 1:, :p] = basis.floor
    l = np.zeros(m + 1 + n_floor)
    l[m + 1:] = config.a_min
    return qp.ConvexQP(P=P, q=q, G=G, l=l)


def reconstruct_h(w: np.ndarray, kernel: KernelSpec,
                  horizon: int) -> ImpulseResponse:
    """Residual ``h[t] = sum_s w[s] k(t, s)`` on ``t < horizon``.

    The sum runs over the ``w.size`` sections and is exact.
    """
    w = np.asarray(w, dtype=float)
    k_cols = gram(kernel, np.arange(horizon), np.arange(w.size))
    return ImpulseResponse(k_cols @ w)


def _m0_from_constants(c0: float, c: float, rho_d: float, rho: float,
                       a_min: float, lam: float) -> int:
    """Smallest constraint horizon certified to force global nonnegativity.

    Beyond this index the dominant term ``a_min * rho**t`` provably
    outweighs any residual the data can support, so only indices below it
    ever need checking.
    """
    if c0 <= 0.0:
        return 0
    value = 0.5 * (math.log(c0 * c) - math.log(a_min ** 2 * lam)) \
        / (math.log(rho) - math.log(rho_d))
    return max(0, math.ceil(value))


def compute_m0(config: PositiveIdConfig, data: TimeSeriesData,
               b: np.ndarray | None = None) -> int:
    """Certified sufficient constraint horizon for this configuration.

    Uses the best single-mode misfit ``c0`` (amplitude clamped at
    ``a_min``) together with the kernel domination bound.  Finite-support
    kernels cap at their support length: the residual vanishes beyond it,
    leaving the nonnegative dominant term alone.
    """
    support = config.kernel.support
    if support is not None:
        return int(support)
    if b is None:
        b = assemble_polynomial_blocks(data, config.rho, 1).B[:, 0]
    c0 = _best_single_mode_misfit(data.outputs, b, config.a_min)
    bound = domination_bound(config.kernel)
    return _m0_from_constants(c0, bound.c, bound.rho_d, config.rho,
                              config.a_min, config.lam)


def _best_single_mode_misfit(y: np.ndarray, b: np.ndarray,
                             a_min: float) -> float:
    denom = float(b @ b)
    if denom <= 0.0:
        raise ConfigError(
            "the convolved dominant mode vanishes at every sample time; "
            "the input does not excite the system")
    a_star = max(a_min, float(y @ b) / denom)
    resid = y - a_star * b
    return float(resid @ resid)


def _solve_or_raise(problem: qp.ConvexQP,
                    options: qp.SolveOptions) -> qp.QPSolution:
    sol = qp.solve(problem, options)
    if sol.status == qp.INFEASIBLE:
        raise SolverError(
            "inner QP reported infeasible constraints; this indicates an "
            "assembly bug since the feasible set always contains "
            "(a_min, 0)")
    if sol.status != qp.OPTIMAL:
        raise SolverError(
            f"inner QP did not converge: status {sol.status}, primal "
            f"{sol.primal_residual:.3e}, dual {sol.dual_residual:.3e}, "
            f"gap {sol.gap:.3e}")
    return sol


def _fit_basis(config: PositiveIdConfig, data: TimeSeriesData,
               basis: DominantBasis) -> tuple[np.ndarray, dict]:
    """The constraint-horizon loop shared by every dominant basis.

    Grows ``m`` from the data span in steps of ``delta_m`` until the
    reconstructed response is nonnegative (to a small
    coefficient-relative tolerance) on every index below the certified
    bound ``m_0`` of the basis cap mode; at ``m = m_0`` acceptance is
    forced and any residual negativity is reported in the diagnostics.
    Returns the mode coefficients and the model fields every variant
    shares.
    """
    options = config.solve_options or _IDENTIFY_OPTIONS
    horizon = config.horizon or default_horizon(data)
    cap_mode = basis.B @ basis.cap
    m0 = compute_m0(config, data, cap_mode)
    m = initial_constraint_horizon(data)
    p = basis.size
    for iterations in range(1, _MAX_LOOPS + 1):
        mats = assemble_core(config.kernel, data, m)
        sol = _solve_or_raise(build_qp(config, mats, basis), options)
        coeffs, w = sol.z[:p], sol.z[p:]
        check_len = max(m0, horizon, m + 1)
        h = reconstruct_h(w, config.kernel, check_len)
        g_vals = h.values + basis.modes(check_len) @ coeffs
        neg_tol = _NEG_TOL_SCALE * (1.0 + float(np.max(np.abs(coeffs))))
        min_head = float(g_vals[:m0].min(initial=0.0))
        accepted = min_head >= -neg_tol
        if not accepted and m < m0:
            logger.info("negativity %.3e below index %d at m=%d; growing m",
                        min_head, m0, m)
            m = min(m + config.delta_m, m0)
            continue
        if not accepted:
            logger.warning(
                "accepting at the certified horizon m=%d with residual "
                "negativity %.3e", m, min_head)
        h_norm = float(np.sqrt(max(w @ mats.K @ w, 0.0)))
        diag = IdentifyDiagnostics(
            m0=m0, iterations=iterations, qp_status=sol.status,
            qp_primal=sol.primal_residual, qp_dual=sol.dual_residual,
            qp_gap=sol.gap, objective=sol.objective + float(mats.y @ mats.y),
            c0=_best_single_mode_misfit(mats.y, cap_mode, config.a_min),
            h_norm=h_norm, min_g=float(g_vals.min(initial=0.0)),
            neg_tol=neg_tol, forced_accept=not accepted)
        return coeffs, dict(w=w, m=m, h=ImpulseResponse(h.values[:horizon]),
                            g=ImpulseResponse(g_vals[:horizon]),
                            diagnostics=diag)
    raise SolverError("constraint-horizon loop failed to terminate")


def identify(config: PositiveIdConfig, data: TimeSeriesData) -> PositiveIdModel:
    """Identify a model with a simple dominant pole.

    Runs the shared horizon loop on the one-mode basis ``rho**t``.
    """
    basis = assemble_polynomial_blocks(data, config.rho, 1)
    coeffs, fields = _fit_basis(config, data, basis)
    return PositiveIdModel(a=float(coeffs[0]), rho=config.rho, config=config,
                           **fields)


def predict(model: PositiveIdModel, data: TimeSeriesData, times) -> np.ndarray:
    """Predicted outputs at the given times.

    ``data`` supplies the input history (it must cover
    ``[t_start, max(times)]``); the response is re-reconstructed exactly
    out to the furthest lag needed, so no truncation tail enters.
    """
    times = np.asarray(times, dtype=np.int64)
    if times.size == 0:
        return np.zeros(0)
    needed = int(times.max()) - data.t_start + 1
    if needed <= model.g.horizon:
        g = model.g
    else:
        g = model.reconstruct(needed)
    return np.array([convolve(g, data, int(t)) for t in times])
