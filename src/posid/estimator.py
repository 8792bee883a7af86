"""Impulse response estimation with internal-positivity side-information.

The estimated response is split as ``g[t] = (dominant part)[t] + h[t]``:
a finite combination of known modes plus a residual ``h`` living in the
RKHS of a stable kernel whose decay is strictly faster than the dominant
pole ``rho``.  The base estimator's dominant part is ``a * rho**t`` with
``a >= a_min``; the variants in :mod:`posid.extensions` swap in a
repeated pole, poles at unit-root phases, or no dominant part at all (a
response of zero spectral radius on a windowed kernel).  Each is
described by one :class:`~posid.assembly.DominantBasis`, and every one
of them runs the one horizon loop here and returns a
:class:`FittedModel`.  The model evaluates its dominant part with that
basis's mode sampler and the fitted mode coefficients, the one formula
the loop certified; the subclasses only name the coefficients.

The infinite-dimensional regularised least-squares problem reduces
exactly to a convex QP over the mode coefficients and the section
coefficients ``w`` of the residual, ``h = sum_j w[j] k(., J[j])``.  The
sections ``J`` are the pivots of a pivoted Cholesky of the section Gram,
stopped at LAPACK's numerical-rank tolerance (see :mod:`posid.assembly`):
every dropped section lies in the span of the kept ones to roundoff, so
the QP keeps only the Gram's numerical rank of directions and the fit
moves only at roundoff level.  Nonnegativity of ``g`` is imposed on a
finite constraint horizon ``m`` that a certified bound ``m_0`` makes
sufficient, and the loop grows ``m`` until the reconstructed response is
nonnegative below ``m_0``.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import qp
from .assembly import (DominantBasis, QPDataMatrices, assemble_core,
                       assemble_polynomial_blocks, required_width)
from .errors import ConfigError, SolverError, check_count, check_positive
from .kernels import (KernelSpec, decay_compatible, domination_bound, gram,
                      section_tail)
from .signals import ImpulseResponse, TimeSeriesData, convolve

logger = logging.getLogger(__name__)

# Safety margin on the nonnegativity check of the reconstructed response.
_NEG_TOL_SCALE = 1e-8
# Constraint-horizon increment between loop iterations.
_DELTA_M = 50


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
    horizon : int or None
        Reconstruction horizon of the returned response; default
        ``2 * (t_last - t_start + 1)``.
    """

    kernel: KernelSpec
    rho: float
    lam: float
    a_min: float = 1e-6
    horizon: int | None = None

    def __post_init__(self) -> None:
        check_positive("lambda", self.lam)
        check_positive("a_min", self.a_min)
        if self.horizon is not None:
            check_count("horizon", self.horizon)
        if not decay_compatible(self.kernel, self.rho):
            bound = domination_bound(self.kernel)
            raise ConfigError(
                f"kernel decay rate {bound.rho_d:.6g} is not strictly "
                f"smaller than rho {self.rho:.6g}")


@dataclass
class IdentifyDiagnostics:
    """Run-level diagnostics attached to every identified model.

    ``iterations`` counts horizon-loop passes; ``qp_path`` and
    ``qp_iterations`` are the last QP's solution path (``polish`` for the
    active-set polish after the dual method, ``dual`` for the dual
    method's own point) and its dual active-set steps (0 when the
    unconstrained minimiser meets every row).
    """

    m0: int
    iterations: int
    qp_status: str
    qp_path: str
    qp_iterations: int
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
class FittedModel:
    """Model ``g = (dominant part) + h`` fitted by the horizon loop.

    The model evaluates what the loop certified.  The dominant part is
    ``modes(horizon) @ coeffs``: ``coeffs`` are the QP's mode
    coefficients and ``modes`` is the sampler of the fit's
    :class:`~posid.assembly.DominantBasis`, whose rows the loop checked.
    ``modes`` must be a module-level function or a ``functools.partial``
    of one, so that the model pickles.  ``w`` holds the coefficients of
    ``h = sum_j w[j] k(., sections[j])`` on ``kernel`` over the pivoted
    sections of the last QP.  So predictions extend ``h`` and ``g``
    exactly past the horizon that ``config`` set: past the last section
    ``h`` is the kernel's geometric tail, evaluated in O(horizon) by
    :func:`reconstruct_h`.  ``sections`` is
    read-only and shared with every fit on the same kernel and section
    count.  This base model has no modes (zero spectral radius,
    ``rho = 0``).  Each subclass names entries of ``coeffs`` (``a``,
    ``a_poly``, ``period``) and reports values derived from them (``n``,
    ``a_r``, ``a_i``).  None of them is a second copy: setting ``a``, or
    writing into ``a_poly`` or ``period``, changes what the model
    evaluates.
    """

    coeffs: np.ndarray = field(repr=False)
    modes: Callable[[int], np.ndarray] = field(repr=False)
    w: np.ndarray = field(repr=False)
    sections: np.ndarray = field(repr=False)
    m: int
    h: ImpulseResponse
    g: ImpulseResponse
    diagnostics: IdentifyDiagnostics
    config: object = field(repr=False)
    kernel: KernelSpec = field(repr=False)
    rho: float

    def dominant_values(self, horizon: int) -> np.ndarray:
        return self.modes(horizon) @ self.coeffs

    def reconstruct(self, horizon: int) -> ImpulseResponse:
        """Response on ``t < horizon`` from the exact section form."""
        h = reconstruct_h(self.w, self.sections, self.kernel, horizon)
        return ImpulseResponse(h.values + self.dominant_values(horizon))


class PositiveIdModel(FittedModel):
    """Identified model ``g[t] = a * rho**t + h[t]`` with ``a = coeffs[0]``."""

    @property
    def a(self) -> float:
        return float(self.coeffs[0])

    @a.setter
    def a(self, value: float) -> None:
        self.coeffs[0] = value


def default_horizon(data: TimeSeriesData) -> int:
    """Default reconstruction horizon: twice the data span."""
    return 2 * required_width(data)


def initial_constraint_horizon(data: TimeSeriesData) -> int:
    """Starting value of the constraint horizon ``m``."""
    return required_width(data)


def build_qp(lam: float, mats: QPDataMatrices,
             basis: DominantBasis) -> qp.ConvexQP:
    """Finite-dimensional QP over ``z = (mode coefficients, w)``.

    Cost: squared output misfit of ``B @ coeffs + L @ w`` plus ``lam``
    times the RKHS norm ``w' K w`` of the residual plus the basis mode
    penalty.  Constraints: the response sampled on ``0 .. m`` (modes plus
    ``mats.rows @ w``, zero past a finite kernel's support) is
    nonnegative and every basis floor row is at least ``basis.a_min``.
    ``w`` runs over the pivoted sections ``mats.sections``.
    """
    p = basis.size
    m = mats.m
    M = np.hstack([basis.B, mats.L])
    P = 2.0 * (M.T @ M)
    P[p:, p:] += 2.0 * lam * mats.K
    P[:p, :p] += 2.0 * basis.penalty
    q = -2.0 * (M.T @ mats.y)
    n_floor = basis.floor.shape[0]
    G = np.zeros((m + 1 + n_floor, M.shape[1]))
    G[:m + 1, :p] = basis.modes(m + 1)
    G[:mats.rows.shape[0], p:] = mats.rows
    G[m + 1:, :p] = basis.floor
    l = np.zeros(m + 1 + n_floor)
    l[m + 1:] = basis.a_min
    return qp.ConvexQP(P=P, q=q, G=G, l=l)


def reconstruct_h(w: np.ndarray, sections: np.ndarray, kernel: KernelSpec,
                  horizon: int) -> ImpulseResponse:
    """Residual ``h[t] = sum_j w[j] k(t, sections[j])`` on ``t < horizon``.

    The sum runs over the given sections and is exact.  Up to the last
    section ``a = max(sections)``, ``h`` is one product of the Gram on
    ``t <= a`` with ``w``; past it, the kernel's semiseparable tail
    (:func:`~posid.kernels.section_tail`) continues it from ``h(a)`` in
    O(horizon), so no Gram past ``a`` is built.  The product has the same
    shape for every horizon, so ``h[t]`` is the same, bit for bit, for
    every ``horizon > t``.
    """
    w = np.asarray(w, dtype=float)
    last = int(np.max(sections))
    head = gram(kernel, np.arange(last + 1), sections) @ w
    tail = section_tail(kernel, sections, w, head[-1],
                        max(horizon - last - 1, 0))
    return ImpulseResponse(np.concatenate([head, tail])[:horizon])


def _m0_from_constants(c0: float, c: float, rho_d: float, rho: float,
                       a_min: float, lam: float) -> int:
    """Smallest constraint horizon certified to force global nonnegativity.

    Beyond this index the dominant term ``a_min * rho**t`` provably
    outweighs any residual the data can support, so only indices below it
    ever need checking.
    """
    if c0 <= 0.0:
        return 0
    if rho_d == 0.0:
        # k(t, t) = 0 at every t >= 1, so only lag 0 can need the bound
        return int(c0 * c > a_min ** 2 * lam)
    value =0.5 * (math.log(c0 * c) - math.log(a_min ** 2 * lam)) \
        / (math.log(rho) - math.log(rho_d))
    return max(0, math.ceil(value))


def cap_misfit(basis: DominantBasis, y: np.ndarray) -> float:
    """Best single-mode misfit ``c0`` of the basis cap mode.

    The amplitude is clamped at ``basis.a_min``.  With no modes ``c0`` is
    the misfit of the zero response, ``y' y``.
    """
    if not basis.size:
        return float(y @ y)
    b = basis.B @ basis.cap
    denom = float(b @ b)
    if denom <= 0.0:
        raise ConfigError(
            "the convolved dominant mode vanishes at every sample time; "
            "the input does not excite the system")
    a_star = max(basis.a_min, float(y @ b) / denom)
    resid = y - a_star * b
    return float(resid @ resid)


def compute_m0(kernel: KernelSpec, lam: float, basis: DominantBasis,
               c0: float) -> int:
    """Certified sufficient constraint horizon of one fit.

    Uses the cap misfit ``c0`` (see :func:`cap_misfit`) and the kernel
    domination bound.  A window caps it at its support: the residual
    vanishes beyond, leaving the nonnegative dominant term alone.
    """
    if kernel.support is not None:
        return int(kernel.support)
    bound = domination_bound(kernel)
    return _m0_from_constants(c0, bound.c, bound.rho_d, basis.rho,
                              basis.a_min, lam)


def _fit_basis(kernel: KernelSpec, lam: float, data: TimeSeriesData,
               basis: DominantBasis, horizon: int | None) -> dict:
    """The constraint-horizon loop shared by every estimator.

    Grows ``m`` from the data span in steps of ``_DELTA_M`` until the
    reconstructed response is nonnegative (to a small
    coefficient-relative tolerance) on every index below the certified
    bound ``m_0`` of the basis cap mode; at ``m = m_0`` acceptance is
    forced and any residual negativity is reported in the diagnostics.
    A basis with no modes starts on the kernel's support instead: its
    constraint rows past the support are zero.  Each rejected pass with
    ``m < m_0`` raises ``m``, and ``m >= m_0`` accepts, so the loop makes
    at most ``ceil(max(m_0 - m_start, 0) / _DELTA_M) + 1`` passes.
    ``horizon`` defaults to twice the data span.  A QP that
    :class:`~posid.qp.ConvexQP` refuses, such as one whose ``P`` has a
    rank-deficient factor at a small ``lam`` near the coupling boundary,
    raises ``ConfigError`` naming ``lam``, ``rho`` and the kernel.
    Returns the model fields every estimator shares, among them the mode
    coefficients ``coeffs`` and the basis sampler ``modes`` that the
    acceptance check evaluated.
    """
    horizon = horizon or default_horizon(data)
    c0 = cap_misfit(basis, data.outputs)
    m0 = compute_m0(kernel, lam, basis, c0)
    p = basis.size
    m = initial_constraint_horizon(data) if p else m0 - 1
    for iterations in itertools.count(1):
        mats = assemble_core(kernel, data, m)
        try:
            problem = build_qp(lam, mats, basis)
        except ConfigError as err:
            raise ConfigError(
                f"{err} in the fit at lam={lam:g}, rho={basis.rho:g}, "
                f"kernel {kernel}: raise lam, or move the kernel's decay "
                f"rate further below rho, away from the coupling "
                f"boundary") from err
        sol = qp.solve(problem)
        if sol.status != qp.OPTIMAL:
            raise SolverError(
                f"inner QP did not converge: status {sol.status}, primal "
                f"{sol.primal_residual:.3e}, dual {sol.dual_residual:.3e}, "
                f"gap {sol.gap:.3e}")
        coeffs, w = sol.z[:p], sol.z[p:]
        check_len = max(m0, horizon, m + 1)
        h = reconstruct_h(w, mats.sections, kernel, check_len)
        g_vals = h.values + basis.modes(check_len) @ coeffs
        top = float(np.abs(coeffs).max(initial=0.0))
        neg_tol = _NEG_TOL_SCALE * (1.0 + top)
        min_head = float(g_vals[:m0].min(initial=0.0))
        accepted = min_head >= -neg_tol
        if not accepted and m < m0:
            logger.info("negativity %.3e below index %d at m=%d; growing m",
                        min_head, m0, m)
            m = min(m + _DELTA_M, m0)
            continue
        if not accepted:
            logger.warning(
                "accepting at the certified horizon m=%d with residual "
                "negativity %.3e", m, min_head)
        h_norm = float(np.sqrt(max(w @ mats.K @ w, 0.0)))
        diag = IdentifyDiagnostics(
            m0=m0, iterations=iterations, qp_status=sol.status,
            qp_path=sol.path, qp_iterations=sol.iterations,
            qp_primal=sol.primal_residual, qp_dual=sol.dual_residual,
            qp_gap=sol.gap, objective=sol.objective + float(mats.y @ mats.y),
            c0=c0, h_norm=h_norm, min_g=float(g_vals.min()),
            neg_tol=neg_tol, forced_accept=not accepted)
        return dict(coeffs=coeffs, modes=basis.modes, w=w,
                    sections=mats.sections, m=m,
                    h=ImpulseResponse(h.values[:horizon]),
                    g=ImpulseResponse(g_vals[:horizon]),
                    diagnostics=diag, kernel=kernel, rho=basis.rho)


def identify(config: PositiveIdConfig, data: TimeSeriesData) -> PositiveIdModel:
    """Identify a model with a simple dominant pole.

    Runs the shared horizon loop on the one-mode basis ``rho**t``.
    """
    basis = assemble_polynomial_blocks(data, config.rho, 1,
                                       a_min=config.a_min)
    return PositiveIdModel(config=config, **_fit_basis(
        config.kernel, config.lam, data, basis, config.horizon))


def predict(model: FittedModel, data: TimeSeriesData, times) -> np.ndarray:
    """Predicted outputs at the given times.

    ``data`` supplies the input history (it must cover
    ``[t_start, max(times)]``); the response is re-reconstructed exactly
    out to the furthest lag needed, so no truncation tail enters.  All
    times are evaluated by one :func:`~posid.signals.convolve` call, which
    raises :class:`~posid.errors.DataError` for a time outside the input
    window.
    """
    times = np.asarray(times, dtype=np.int64)
    if times.size == 0:
        return np.zeros(0)
    needed = int(times.max()) - data.t_start + 1
    if needed <= model.g.horizon:
        g = model.g
    else:
        g = model.reconstruct(needed)
    return convolve(g, data, times)
