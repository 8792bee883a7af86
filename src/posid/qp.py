"""Dense convex quadratic programming.

Solves

    minimize    0.5 * z' P z + q' z
    subject to  G z >= l

with ``P`` positive definite and at least one inequality row (every
estimator's QP carries its positivity rows; a problem without rows is
rejected).  Every solve works on a column- and row-scaled copy of the
problem, and its only linear algebra is the pivoted Cholesky factor of
the scaled ``P`` that :class:`ConvexQP` keeps, in two stages:

1. Goldfarb & Idnani's finite dual active-set method starts from the
   unconstrained minimiser and adds the most violated row at each step
   until every row holds.
2. One active-set polish, :func:`_polish`, solves the KKT system with the
   rows the dual method holds with positive multipliers as equalities,
   by a range-space solve on the same factor.  Over the empty active set
   that is the unconstrained minimiser, the dual method's start.

The cost is not scaled: every test of the dual method compares ratios
that do not change with the scale of ``P`` and ``q``.

Every solve has one certificate, in the original units: primal and dual
residuals at most ``_TOL_FEAS`` (times ``1 + |l|_inf`` and ``1 +
|q|_inf``) and a complementarity gap, normalised by ``1 + |objective|``,
at most ``_TOL_GAP`` (see those constants for why they are tight).

The polish is accepted when it certifies ``optimal`` *and* meets every
inactive row in the scaled units, ``Gs zs - ls >= 0``.  The second test
is needed: the certificate allows a violation of ``_TOL_FEAS * (1 +
|l|_inf)``, which a row scaled by a tiny factor can pass while it is
violated by a macroscopic amount in its own units; row normalisation
gives every row the same say.  Otherwise the answer is the dual
method's point.

The returned status reflects the final certified residuals, which
:func:`kkt_certificate` recomputes from the same residual builder, and
the returned ``path`` names the candidate: ``polish`` for the polish,
``dual`` for the dual method's point.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigError

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
# Which candidate a solution is: the active-set polish, or the point
# where the dual active-set method stopped.
POLISH = "polish"
DUAL = "dual"

# The dual method adds a scaled row (unit sup-norm) only when its slack
# is below -_VIOLATION: at a degenerate point, roundoff gives the rows
# through it that are not active slacks of either sign, and adding those
# takes the zero-length steps on which dual methods cycle.
_VIOLATION = 1e-12
# The share below which the dual method takes a component as roundoff: a
# row whose L^-1 n_p lies this close to the span of the active rows' gets
# no primal step, and a multiplier falling at this share of the fastest
# rate does not bound the step.  Without the cut, finite-response draw 58
# of the robustness tests fails; any cut in [1e-12, 1e-6] gives the same
# answers there.
_DEPENDENT = 1e-10
# Finite in exact arithmetic, the dual method can cycle in roundoff, so
# it stops after this many steps per variable.  The robustness fits take
# up to 0.52 d steps, and near-square NNLS QPs up to 1.2 d.
_STEPS_PER_VARIABLE = 10
# The one certificate of every solve (see the module docstring).  The
# estimator's nonnegativity acceptance test must sit clearly above solver
# noise, and the looser pair (1e-8, 1e-7) also certified near-square NNLS
# answers up to 1.5e-2 |y|^2 above their optimum.
_TOL_FEAS = 1e-10
_TOL_GAP = 1e-9


@dataclass(frozen=True)
class _JacobiFactor:
    """Jacobi scaling ``D P D`` of a QP's ``P`` and its pivoted Cholesky
    factor ``D P D = L L'``, the only linear algebra of :func:`solve`.

    ``col`` is the diagonal of ``D``: ``P[i, i] ** -0.5`` where that is
    positive and 1 elsewhere.  ``(D P D)[piv][:, piv] = U' U`` with ``U``
    in the upper triangle (LAPACK ``dpstrf`` at its default tolerance
    ``d * eps * max diag``), so ``L^-1 b = U^-T b[piv]``, and
    ``x = L^-T c`` has ``x[piv] = U^-1 c``.  These two solves give the
    unconstrained minimiser, every dual step and the polish.
    """

    col: np.ndarray
    U: np.ndarray
    piv: np.ndarray

    @classmethod
    def of(cls, P: np.ndarray) -> "_JacobiFactor":
        """Scale and factor a symmetric ``P``; raise unless the factor
        has full rank, which proves ``P`` positive definite.

        ``D`` and the pivoting are congruences, so they keep the inertia
        of ``P``.
        """
        pdiag = np.diag(P)
        col = np.where(pdiag > 0.0, pdiag, 1.0) ** -0.5
        U, piv, rank, _ = scipy.linalg.lapack.dpstrf(
            P * (col[:, None] * col[None, :]))
        if rank < P.shape[0]:
            raise ConfigError(
                f"P is not positive definite (Jacobi-scaled pivoted "
                f"Cholesky rank {rank} of {P.shape[0]})")
        return cls(col=col, U=U, piv=piv - 1)

    def lsolve(self, b: np.ndarray) -> np.ndarray:
        """``L^-1 b`` for a vector or a matrix ``b``."""
        return scipy.linalg.solve_triangular(self.U, b[self.piv], trans="T",
                                             check_finite=False)

    def ltsolve(self, c: np.ndarray) -> np.ndarray:
        """``L^-T c`` for a vector ``c``."""
        x = np.empty_like(c)
        x[self.piv] = scipy.linalg.solve_triangular(self.U, c,
                                                    check_finite=False)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``(D P D)^-1 b = L^-T L^-1 b``."""
        return self.ltsolve(self.lsolve(b))


@dataclass
class ConvexQP:
    """One convex QP instance with at least one inequality row.

    Every entry of ``P``, ``q``, ``G`` and ``l`` must be finite, and ``G``
    must have at least one row: the certificate scales the primal
    residual by ``1 + |l|_inf``, and every estimator's QP has rows.
    A zero row of ``G`` with a positive bound can never hold, so it is
    rejected too, and so is a problem without variables.
    ``P`` is symmetrised on construction and must be positive definite.
    The test is scale-free: ``P`` is Jacobi-scaled to ``D P D``
    (unit diagonal where ``P``'s is positive) and factored by one pivoted
    Cholesky, and a factor of rank below ``d`` rejects ``P`` (see
    :class:`_JacobiFactor`).  The instance keeps the scaling and the
    factor for :func:`solve`, so ``P`` must not be rebound or written
    after construction.
    """

    P: np.ndarray
    q: np.ndarray
    G: np.ndarray
    l: np.ndarray
    _factor: _JacobiFactor = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        P = np.asarray(self.P, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ConfigError("P must be a square matrix")
        if P.size == 0:
            raise ConfigError("a QP needs at least one variable")
        if q.ndim != 1 or q.size != P.shape[0]:
            raise ConfigError("q must be a vector matching P")
        if not (np.isfinite(P).all() and np.isfinite(q).all()):
            raise ConfigError("P and q must be finite")
        P = 0.5 * (P + P.T)
        factor = _JacobiFactor.of(P)
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        l = np.asarray(self.l, dtype=float).ravel()
        if G.shape != (l.size, q.size):
            raise ConfigError(
                f"G shape {G.shape} incompatible with {l.size} bounds "
                f"and {q.size} variables")
        if l.size == 0:
            raise ConfigError("a QP needs at least one inequality row")
        if not (np.isfinite(G).all() and np.isfinite(l).all()):
            raise ConfigError("G and l must be finite")
        if np.any(~G.any(axis=1) & (l > 0.0)):
            raise ConfigError("a zero row of G has a positive bound")
        self.P, self.q, self.G, self.l = P, q, G, l
        self._factor = factor

    @property
    def dim(self) -> int:
        return int(self.q.size)

    def objective(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(0.5 * z @ self.P @ z + self.q @ z)


@dataclass
class QPSolution:
    """Solver output: argmin, certified residuals, multipliers.

    ``gap`` is the complementarity gap normalised by ``1 + |objective|``;
    ``lam`` are the inequality multipliers (nonnegative, one per row of
    ``G``).  ``path`` is ``polish`` for an active-set polish and
    ``dual`` for the dual active-set method's point; ``iterations``
    counts the dual method's steps (0 when the unconstrained minimiser
    meets every row).
    """

    z: np.ndarray
    objective: float
    status: str
    primal_residual: float
    dual_residual: float
    gap: float
    lam: np.ndarray = field(repr=False)
    iterations: int
    path: str


@dataclass(frozen=True)
class KktReport:
    """Independently recomputed optimality measures for a solution."""

    stationarity: float
    primal: float
    complementarity: float
    dual_feasibility: float


def kkt_certificate(problem: ConvexQP, solution: QPSolution) -> KktReport:
    """Recompute KKT residuals from the original problem data."""
    z = np.asarray(solution.z, dtype=float)
    lam = np.asarray(solution.lam, dtype=float)
    grad, slack = _residuals(problem, z, lam)
    return KktReport(
        stationarity=float(np.max(np.abs(grad), initial=0.0)),
        primal=float(np.max(-slack, initial=0.0)),
        complementarity=float(np.max(np.abs(lam * slack), initial=0.0)),
        dual_feasibility=float(np.max(-lam, initial=0.0)))


def _residuals(problem: ConvexQP, z: np.ndarray, lam: np.ndarray):
    """Lagrangian gradient ``P z + q - G' lam`` and slack ``G z - l``."""
    grad = problem.P @ z + problem.q - problem.G.T @ lam
    return grad, problem.G @ z - problem.l


def _finish(problem: ConvexQP, z, lam, iterations: int,
            path: str) -> QPSolution:
    """Assemble a solution record with residuals in original units.

    Negative entries of ``lam`` are clipped to zero first; the status is
    ``optimal`` when the residuals meet ``_TOL_FEAS`` and ``_TOL_GAP``."""
    z = np.asarray(z, dtype=float)
    lam = np.maximum(lam, 0.0)
    obj = problem.objective(z)
    grad, slack = _residuals(problem, z, lam)
    primal = float(np.max(-slack, initial=0.0))
    dual = float(np.max(np.abs(grad), initial=0.0))
    gap = float(np.abs(lam) @ np.abs(slack)) / (1.0 + abs(obj))
    l_scale = 1.0 + float(np.max(np.abs(problem.l)))
    q_scale = 1.0 + float(np.max(np.abs(problem.q), initial=0.0))
    certified = (primal <= _TOL_FEAS * l_scale
                 and dual <= _TOL_FEAS * q_scale
                 and gap <= _TOL_GAP)
    return QPSolution(z=z, objective=obj,
                      status=OPTIMAL if certified else MAX_ITERATIONS,
                      primal_residual=primal, dual_residual=dual, gap=gap,
                      lam=lam, iterations=iterations, path=path)


def _row_scale(mat: np.ndarray, vec: np.ndarray):
    """Normalise inequality rows to unit sup-norm.

    Zero rows are kept, scaled by 1: :class:`ConvexQP` admits only those
    with a bound of at most zero, which always hold.
    """
    norms = np.max(np.abs(mat), axis=1)
    norms = np.where(norms <= 0.0, 1.0, norms)
    return mat / norms[:, None], vec / norms, norms


def solve(problem: ConvexQP) -> QPSolution:
    """Solve one convex QP with at least one inequality row.

    After the scaling, :func:`_dual_active_set` runs, and :func:`_polish`
    runs once over the rows it holds with positive multipliers; the answer
    is that polish if it is accepted, or else the dual method's point.
    When no row binds, the dual method takes no step and the polish, over
    the empty active set, is the unconstrained minimiser.

    Returns a :class:`QPSolution` whose status is ``optimal`` only when
    the certified residuals meet the module's one certificate and
    ``max_iterations`` otherwise.
    Constraints that contradict each other through nonzero rows are not
    detected: such a solve ends in ``max_iterations``.
    """
    # Jacobi column scaling, on every problem: kernel-section curvature
    # can span dozens of orders of magnitude along the diagonal.  The
    # problem built it, and factored it, in its definiteness test.
    factor = problem._factor
    col = factor.col
    Gs, ls, g_norms = _row_scale(problem.G * col[None, :], problem.l)
    # The unconstrained minimiser, solved once: the dual method's start
    # and the polish over the empty mask.
    free = factor.solve(-problem.q * col)
    zs, lams, steps = _dual_active_set(factor, Gs, ls, free)

    def certify(zp, lp, path=POLISH):
        # A scaled point's solution record, in the original units.
        return _finish(problem, col * zp, lp / g_norms, steps, path)

    return (_polish(factor, Gs, ls, lams > 0.0, certify, free)
            or certify(zs, lams, DUAL))


def _dual_active_set(factor: _JacobiFactor, Gs: np.ndarray, ls: np.ndarray,
                     free: np.ndarray):
    """Goldfarb & Idnani's dual active-set method on the scaled problem.

    The scaled problem has ``D P D = L L'`` (see :class:`_JacobiFactor`)
    and the rows ``Gs z >= ls``.  From the caller's minimiser ``free``,
    each step moves towards the most violated inactive row ``p`` with
    every multiplier kept nonnegative (Math. Programming 27, 1983).  The
    thin QR ``Q R`` of ``L^-1 N`` for the active normals ``N``, redone
    whenever the active set changes, and ``v = Q' L^-1 n_p`` give the
    primal direction ``L^-T Q2 v2`` and the fall ``R^-1 v1`` of the
    active multipliers per unit of ``p``'s.  A full step meets row ``p``,
    which joins; a partial step ends where an active multiplier reaches
    zero, and that row leaves.  Row ``p`` joins only when its ``L^-1 n_p``
    has a part ``v2`` outside the active rows' span, so the active rows
    stay independent.  The method ends when no row is violated, when no
    step exists, at the step cap or at a non-finite direction.
    Returns the last point, its multipliers (``p``'s included) and the
    steps taken: the origin and 0 if ``free`` is not finite.
    """
    d = free.size
    z, lam = np.zeros(d), np.zeros(ls.size)
    if not np.isfinite(free).all():
        return z, lam, 0
    z, active, p = free, np.zeros(0, dtype=int), None
    for steps in range(_STEPS_PER_VARIABLE * d):
        # One slack picks row p and sizes the step to it: a second sum
        # can differ from it in sign by roundoff near _VIOLATION, and the
        # method then cycles between two nearly parallel rows.
        slack = Gs @ z - ls
        if p is None:
            slack[active] = np.inf
            p = int(np.argmin(slack))
            if slack[p] >= -_VIOLATION:
                break
        a = active.size
        B = factor.lsolve(Gs[np.append(active, p)].T)
        Q, R = np.linalg.qr(B[:, :a], mode="complete")
        v = Q.T @ B[:, a]
        dz = factor.ltsolve(Q[:, a:] @ v[a:])
        r = scipy.linalg.solve_triangular(R[:a], v[:a], check_finite=False)
        if not (np.isfinite(dz).all() and np.isfinite(r).all()):
            break
        # A full step meets row p unless its normal is in the active span;
        # a partial step ends where an active multiplier reaches zero.
        v2 = v[a:] @ v[a:]
        t_full = (-slack[p] / v2
                  if v2 > _DEPENDENT ** 2 * (v @ v) else np.inf)
        u = lam[active]
        shrink = np.flatnonzero(r > _DEPENDENT * np.max(np.abs(r), initial=0))
        ratios = u[shrink] / r[shrink]
        t = min(t_full, np.min(ratios, initial=np.inf))
        if t == np.inf:
            break
        if t_full < np.inf:
            z = z + t * dz
        lam[active] = np.maximum(u - t * r, 0.0)
        lam[p] += t
        if t == t_full:
            active, p = np.append(active, p), None
        else:
            drop = shrink[np.argmin(ratios)]
            lam[active[drop]] = 0.0
            active = np.delete(active, drop)
    else:
        steps = _STEPS_PER_VARIABLE * d
    return z, lam, steps


def _polish(factor: _JacobiFactor, Gs: np.ndarray, ls: np.ndarray,
            active: np.ndarray, certify,
            free: np.ndarray) -> QPSolution | None:
    """Range-space KKT solve with the rows of the mask ``active`` held
    tight, on the scaled problem of :func:`_dual_active_set`.

    With no active row the answer is the unconstrained minimiser
    ``free``.  Otherwise, with ``B = L^-1 Ga'`` for the held rows
    ``Ga z >= la`` and ``R`` the triangle of its QR, the multipliers
    solve ``R'R mult = la - Ga free`` and the point is
    ``free + L^-T B mult``.  The held rows are independent, since the
    dual method admits only rows independent of its active ones; only
    the row it was adding when it stopped early may not be, and a
    singular ``R`` then makes the solve non-finite.  ``certify(z, lam)``
    gets the raw KKT multipliers (0 on inactive rows) and certifies the
    answer in the original units (:func:`_finish` clips the multipliers
    at zero).  Returns that solution record when it is ``optimal`` and
    the point meets every inactive row in the scaled units; ``None``
    when it does not, or when the solve is not finite.
    """
    z, lam = free, np.zeros(ls.size)
    if active.any():
        B = factor.lsolve(Gs[active].T)
        R = np.linalg.qr(B, mode="r")
        lam[active] = scipy.linalg.cho_solve(
            (R, False), ls[active] - Gs[active] @ free, check_finite=False)
        z = free + factor.ltsolve(B @ lam[active])
    if not (np.isfinite(z).all() and np.isfinite(lam).all()):
        return None
    # The certificate alone would pass a violated row of tiny norm (it
    # allows _TOL_FEAS * (1 + |l|_inf) in the original units), so the
    # polish must also meet every inactive row in the scaled units.
    if np.any((Gs @ z - ls < 0.0) & ~active):
        return None
    found = certify(z, lam)
    return found if found.status == OPTIMAL else None


def dump_qp(problem: ConvexQP, path) -> None:
    """Write a QP to ``path`` as an uncompressed ``.npz`` archive.

    The archive holds exactly the arrays ``P``, ``q``, ``G`` and ``l``.
    It is written through an open file handle, so ``path`` is used as
    given: NumPy appends no ``.npz`` suffix.  ``with np.load(path) as
    arrays: ConvexQP(**arrays)`` rebuilds the problem; :class:`ConvexQP`
    validates it, and a missing or extra array fails the keyword binding.
    """
    with open(path, "wb") as fh:
        np.savez(fh, P=problem.P, q=problem.q, G=problem.G, l=problem.l)
