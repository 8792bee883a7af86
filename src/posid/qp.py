"""Dense convex quadratic programming.

Solves

    minimize    0.5 * z' P z + q' z
    subject to  G z >= l

with at least one inequality row (every estimator's QP carries its
positivity rows; a problem without rows is rejected).  Every solve works
on a column-, row- and cost-scaled copy of the problem.  One routine,
:func:`_pivot`, runs block principal pivoting over active sets (Júdice
& Pires 1994; Kim & Park 2011) on both sides of a primal-dual
interior-point method:

1. Before the interior point, pivoting starts from the empty active set.
   Each round is one active-set polish: the KKT point with the rows of
   the current active set held as equalities.  Round 0 is the polish
   over the empty active set, the unconstrained minimiser ``P z = -q``:
   when ``P`` has full numerical rank it comes from two triangular
   solves with the pivoted Cholesky factor that :class:`ConvexQP` keeps
   from its PSD test, and otherwise, like every later round, from a
   minimum-norm least-squares solve (a complete orthogonal
   factorisation, LAPACK ``gelsy``, with numerical rank cut at ``eps *
   max(shape)``).
2. When no round is accepted, the interior point (Mehrotra
   predictor-corrector on the slack/multiplier pair) runs, and pivoting
   starts again from the active set guessed at its best iterate.  The
   answer is the first accepted round, or else that iterate.

Both sides accept a round by one rule: it certifies ``optimal`` in the
original units *and* meets every inactive row in the scaled units,
``Gs zs - ls >= 0``.  The second test is needed: the certificate allows
a violation of ``tol_feas * (1 + |l|_inf)``, which a row scaled by a
tiny factor can pass while it is violated by a macroscopic amount in its
own units; row normalisation gives every row the same say.  Otherwise
every infeasible row flips in one block: an active row with a negative
KKT multiplier leaves the active set, an inactive row with a negative
scaled slack joins it.  Pivoting stops when the number of infeasible
rows has not fallen below its best for two rounds in a row, so each side
runs at most ``2 (k + 1)`` rounds for ``k`` rows.

The returned status reflects the final certified residuals, which
:func:`kkt_certificate` recomputes from the same residual builder, and
the returned ``path`` names the candidate: ``polish`` for a pivoting
round, ``ipm`` for the interior-point iterate.
"""
from __future__ import annotations

import zipfile
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import ConfigError

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
# Which candidate a solution is: an interior-point iterate or a polish.
IPM = "ipm"
POLISH = "polish"

# Negative eigenvalues of the trailing Schur complement of the
# Jacobi-scaled P, whose positive diagonal entries are 1, down to this
# size are roundoff; a more negative one rejects P.
_PSD_RTOL = 1e-8
# Interior-point iteration cap, and the fraction of the step to the
# boundary of the positive orthant taken by each iteration.
_MAX_ITER = 200
_STEP_FRACTION = 0.99
# Pivoting gives up at the second round in a row whose infeasible-row
# count is not below its best so far.  One such round is let pass because
# a block flip can overshoot and the next round still finish; a second
# marks the cycling of degenerate QPs, which the interior point handles.
# So the best count falls at least every second round, and each pivoting
# run ends within 2 (k + 1) rounds for k rows.
_STALL_ROUNDS = 2


@dataclass(frozen=True)
class SolveOptions:
    """Termination controls for :func:`solve`.

    ``tol_feas`` bounds the primal and dual residuals (scaled by
    ``1 + |l|_inf`` and ``1 + |q|_inf`` respectively), ``tol_gap`` bounds
    the complementarity gap normalised by ``1 + |objective|``.  A solution
    is ``optimal`` only when all three bounds hold.
    """

    tol_feas: float = 1e-8
    tol_gap: float = 1e-7

    def __post_init__(self) -> None:
        if self.tol_feas <= 0 or self.tol_gap <= 0:
            raise ConfigError("solver tolerances must be positive")


@dataclass(frozen=True)
class _JacobiFactor:
    """Jacobi scaling ``Pc = D P D`` of a QP's ``P`` and its pivoted
    Cholesky factor.

    ``col`` is the diagonal of ``D``: ``P[i, i] ** -0.5`` where that is
    positive and 1 elsewhere.  ``Pc[piv][:, piv] = U' U`` on the leading
    ``rank`` rows of ``U`` (LAPACK ``dpstrf`` at its default tolerance
    ``d * eps * max diag Pc``); only those rows, in the upper triangle,
    hold the factor.
    """

    col: np.ndarray
    Pc: np.ndarray
    U: np.ndarray
    piv: np.ndarray
    rank: int

    @classmethod
    def of(cls, P: np.ndarray) -> "_JacobiFactor":
        """Scale and factor a symmetric ``P``; raise unless it is PSD.

        A full-rank factor proves ``P`` positive definite.  Otherwise the
        trailing Schur complement ``S = Pc[t, t] - U12' U12`` of the
        unpivoted indices ``t`` decides: ``P`` is rejected when an
        eigenvalue of ``S`` is below ``-_PSD_RTOL``.  ``D`` and the
        pivoting are congruences, so they keep the inertia of ``P``.
        """
        pdiag = np.diag(P)
        col = np.where(pdiag > 0.0, pdiag, 1.0) ** -0.5
        Pc = P * (col[:, None] * col[None, :])
        U, piv, rank, _ = scipy.linalg.lapack.dpstrf(Pc)
        piv = piv - 1
        if rank < P.shape[0]:
            t = piv[rank:]
            U12 = U[:rank, rank:]
            low = np.linalg.eigvalsh(Pc[np.ix_(t, t)] - U12.T @ U12)[0]
            if low < -_PSD_RTOL:
                raise ConfigError(
                    f"P is not positive semidefinite (Jacobi-scaled Schur "
                    f"complement eigenvalue {low:.3e})")
        return cls(col=col, Pc=Pc, U=U, piv=piv, rank=int(rank))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``Pc^-1 b`` by two triangular solves; needs full rank."""
        y = scipy.linalg.solve_triangular(self.U, b[self.piv], trans="T",
                                          check_finite=False)
        x = np.empty_like(b)
        x[self.piv] = scipy.linalg.solve_triangular(self.U, y,
                                                    check_finite=False)
        return x


@dataclass
class ConvexQP:
    """One convex QP instance with at least one inequality row.

    Every entry of ``P``, ``q``, ``G`` and ``l`` must be finite, and ``G``
    must have at least one row: without rows the interior-point loop has
    no slack to average (its barrier parameter divides by the row count).
    A zero row of ``G`` with a positive bound can never hold, so it is
    rejected too, and so is a problem without variables.
    ``P`` is symmetrised on construction and must be positive
    semidefinite up to roundoff.  The test is scale-free: ``P`` is
    Jacobi-scaled to ``Pc = D P D`` (unit diagonal where ``P``'s is
    positive) and factored by one pivoted Cholesky; a full-rank factor
    accepts ``P``, and otherwise ``P`` is rejected when its trailing Schur
    complement has an eigenvalue below ``-1e-8`` (see
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

    @property
    def n_ineq(self) -> int:
        return int(self.G.shape[0])

    def objective(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(0.5 * z @ self.P @ z + self.q @ z)


@dataclass
class QPSolution:
    """Solver output: argmin, certified residuals, multipliers.

    ``gap`` is the complementarity gap normalised by ``1 + |objective|``;
    ``lam`` are the inequality multipliers (nonnegative, one per row of
    ``G``).  ``path`` is ``ipm`` for an interior-point iterate and
    ``polish`` for an active-set polish; ``iterations`` counts the
    interior-point iterations run before it, 0 when a pivoting round was
    certified first, so a solve fell back to the interior point exactly
    when it is positive.  ``rounds`` counts the pivoting rounds run on
    both sides of the interior point, one polish each, round 0 (the
    unconstrained minimiser) included.
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
    rounds: int


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


def _finish(problem: ConvexQP, opt: SolveOptions, z, lam,
            iterations: int, path: str, rounds: int) -> QPSolution:
    """Assemble a solution record with residuals in original units.

    Negative entries of ``lam`` are clipped to zero first."""
    z = np.asarray(z, dtype=float)
    lam = np.maximum(lam, 0.0)
    obj = problem.objective(z)
    grad, slack = _residuals(problem, z, lam)
    primal = float(np.max(-slack, initial=0.0))
    dual = float(np.max(np.abs(grad), initial=0.0))
    gap = float(np.abs(lam) @ np.abs(slack)) / (1.0 + abs(obj))
    l_scale = 1.0 + float(np.max(np.abs(problem.l)))
    q_scale = 1.0 + float(np.max(np.abs(problem.q), initial=0.0))
    certified = (primal <= opt.tol_feas * l_scale
                 and dual <= opt.tol_feas * q_scale
                 and gap <= opt.tol_gap)
    return QPSolution(z=z, objective=obj,
                      status=OPTIMAL if certified else MAX_ITERATIONS,
                      primal_residual=primal, dual_residual=dual, gap=gap,
                      lam=lam, iterations=iterations, path=path,
                      rounds=rounds)


def _row_scale(mat: np.ndarray, vec: np.ndarray):
    """Normalise inequality rows to unit sup-norm.

    Zero rows are kept, scaled by 1: :class:`ConvexQP` admits only those
    with a bound of at most zero, which always hold.
    """
    norms = np.max(np.abs(mat), axis=1)
    norms = np.where(norms <= 0.0, 1.0, norms)
    return mat / norms[:, None], vec / norms, norms


def solve(problem: ConvexQP, options: SolveOptions | None = None) -> QPSolution:
    """Solve one convex QP with at least one inequality row.

    After the scaling, :func:`_pivot` runs from the empty active set,
    whose polish is the unconstrained minimiser.  When it accepts no
    round, the interior-point method runs, and :func:`_pivot` runs again
    from the active set guessed at the best iterate; the answer is its
    accepted round, or else that iterate.

    Returns a :class:`QPSolution` whose status is ``optimal`` only when
    the certified residuals meet the requested tolerances and
    ``max_iterations`` otherwise.
    Constraints that contradict each other through nonzero rows are not
    detected: such a solve ends in ``max_iterations``.
    """
    opt = options or SolveOptions()
    d = problem.dim
    k = problem.n_ineq

    # Jacobi column scaling, on every problem: kernel-section curvature
    # can span dozens of orders of magnitude along the diagonal, which
    # stalls the Newton steps unless the variables are rebalanced first.
    # The problem built it, and factored it, in its PSD test.
    factor = problem._factor
    col, Pc = factor.col, factor.Pc
    qc = problem.q * col

    Gs, ls, g_norms = _row_scale(problem.G * col[None, :], problem.l)

    cost_scale = max(1.0, float(np.max(np.abs(Pc), initial=0.0)),
                     float(np.max(np.abs(qc), initial=0.0)))
    Ps = Pc / cost_scale
    qs = qc / cost_scale

    scaled = (Ps, qs, Gs, ls)

    def certify(zs, lams, iterations, path, rounds):
        # A scaled iterate's solution record, in the original units.
        return _finish(problem, opt, col * zs, cost_scale * lams / g_norms,
                       iterations, path, rounds)

    # With a full-rank factor, Ps zs = -qs is solved as Pc zs = -qc.
    free_solve = (lambda: factor.solve(-qc)) if factor.rank == d else None
    found, rounds = _pivot(scaled, np.zeros(k, dtype=bool),
                           lambda zs, lams, r: certify(zs, lams, 0, POLISH, r),
                           free_solve)
    if found is not None:
        return found

    reg = 1e-12 * (1.0 + float(np.trace(Ps)) / d)

    # Starting point: regularised unconstrained minimiser, slacks clipped
    # away from the boundary, unit multipliers.
    z = scipy.linalg.solve(Ps + np.eye(d), -qs)
    s = np.maximum(Gs @ z - ls, 1.0)
    lam = np.ones(k)

    best = None
    best_score = np.inf
    for iterations in range(1, _MAX_ITER + 1):
        sol = certify(z, lam, iterations, IPM, rounds)
        if sol.status == OPTIMAL:
            best, best_iterate = sol, (z, lam)
            break
        score = max(sol.primal_residual, sol.dual_residual, sol.gap)
        if score < best_score:
            best, best_iterate, best_score = sol, (z, lam), score

        rd = Ps @ z + qs - Gs.T @ lam
        rp = Gs @ z - s - ls
        mu = float(s @ lam) / k
        w = lam / s
        cho = _regularised_cholesky(Ps + (Gs.T * w) @ Gs, reg)
        if cho is None:
            break

        # Affine scaling direction.  A numerically singular Newton matrix
        # can factor without error and still give a non-finite
        # direction; that ends the loop like a failed factor.
        rhs_z = -rd - Gs.T @ (lam + w * rp)
        dz = scipy.linalg.cho_solve(cho, rhs_z)
        if not np.isfinite(dz).all():
            break
        ds = Gs @ dz + rp
        dlam = -lam - w * ds
        alpha_aff = min(_max_step(s, ds), _max_step(lam, dlam))
        mu_aff = float((s + alpha_aff * ds) @ (lam + alpha_aff * dlam)) / k
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # Corrected direction reusing the same factorisation.
        center = (sigma * mu - ds * dlam) / s
        rhs_z = -rd - Gs.T @ (lam + w * rp - center)
        dz = scipy.linalg.cho_solve(cho, rhs_z)
        if not np.isfinite(dz).all():
            break
        ds = Gs @ dz + rp
        dlam = -lam - w * ds + center
        alpha = _STEP_FRACTION * min(_max_step(s, ds),
                                     _max_step(lam, dlam))
        if alpha < 1e-10:
            break
        z = z + alpha * dz
        s = s + alpha * ds
        lam = lam + alpha * dlam

    # Pivoting resumes from the best iterate, because on flat valleys the
    # barrier stops inside the tolerance ball while the equality solve
    # lands on the exact face.  Rows that are (nearly) tight or carry a
    # multiplier larger than their slack start in the active set.
    zs, lams = best_iterate
    slack = Gs @ zs - ls
    scale = 1.0 + float(np.max(np.abs(ls), initial=0.0))
    active = (slack <= 1e-7 * scale) | (lams > np.maximum(slack, 0.0))
    found, more = _pivot(
        scaled, active,
        lambda zp, lp, r: certify(zp, lp, iterations, POLISH, rounds + r))
    return found or replace(best, rounds=rounds + more)


def _pivot(scaled, active: np.ndarray, certify,
           free_solve=None) -> tuple[QPSolution | None, int]:
    """Block principal pivoting over active sets from the mask ``active``.

    Each round polishes the current active set (:func:`_polish`, which
    also takes ``free_solve``) and hands its raw KKT point and the number
    of rounds run so far, this one included, to ``certify(zs, lams,
    rounds)`` for its solution record.  The round is accepted when that
    record is ``optimal`` and the point meets every inactive row in the
    scaled units.  Otherwise every infeasible row flips: an active row
    with a negative multiplier leaves the active set, an inactive row
    with a negative scaled slack joins it.  Pivoting gives up once the
    infeasible count has not fallen below its best for ``_STALL_ROUNDS``
    (2) rounds in a row, or a round has no row to flip, or its solve is
    not finite.  The best count falls at least every second round, from
    at most ``k`` for ``k`` rows, and a count of 0 ends the loop, so it
    runs at most ``2 (k + 1)`` rounds.  Returns the accepted record, or
    ``None``, and the number of rounds run.
    """
    _, _, Gs, ls = scaled
    fewest, stalled, rounds = ls.size + 1, 0, 0

    # One round's verdict on its KKT point.  The certificate alone would
    # pass a violated row of tiny norm (it allows tol_feas * (1 +
    # |l|_inf) in the original units), so the round must also meet every
    # inactive row in the scaled units.  A rejected round leaves its
    # infeasible rows, in the raw multipliers' signs and the scaled
    # slacks, for the next flip.
    def verdict(zs, lams):
        nonlocal infeasible
        infeasible = np.where(active, lams < 0.0, Gs @ zs - ls < 0.0)
        sol = certify(zs, lams, rounds)
        if sol.status == OPTIMAL and not np.any(infeasible & ~active):
            return sol
        return None

    while True:
        rounds += 1
        infeasible = None
        found = _polish(scaled, active, verdict, free_solve)
        count = 0 if infeasible is None else int(infeasible.sum())
        stalled = 0 if count < fewest else stalled + 1
        fewest = min(fewest, count)
        if found is not None or count == 0 or stalled >= _STALL_ROUNDS:
            return found, rounds
        active = active ^ infeasible


def _regularised_cholesky(h: np.ndarray, reg: float):
    """Cholesky factor of ``h + reg * I``, or ``None`` when that is not
    positive definite (near the optimum, roundoff on weights of 1e12 and
    more) or ``h`` is not finite (a weight ``lam / s`` that overflowed)."""
    if not np.isfinite(h).all():
        return None
    h[np.diag_indices_from(h)] += reg
    try:
        return scipy.linalg.cho_factor(h, check_finite=False)
    except np.linalg.LinAlgError:
        return None


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0.0
    if not np.any(neg):
        return 1.0
    return float(min(1.0, np.min(-v[neg] / dv[neg])))


def _polish(scaled, active: np.ndarray, certify,
            free_solve=None) -> QPSolution | None:
    """Equality-KKT solve with the rows of the mask ``active`` held tight.

    Works on the scaled problem ``scaled = (Ps, qs, Gs, ls)`` that the
    interior-point loop iterates on, as OSQP polishes the problem its
    iterations solve; in the original units ``P`` can span dozens of
    orders of magnitude.  With no active row the KKT system is ``Ps zs =
    -qs`` and the answer is the unconstrained minimiser; ``free_solve()``,
    when given, returns it from the full-rank factor the problem keeps.
    Every other system is solved by minimum-norm least squares, because
    ``P`` from Gram assembly can be numerically singular:
    :func:`min_norm_lstsq`, a complete orthogonal factorisation with
    numerical rank cut at ``eps * max(kkt.shape)``.  ``certify(z, lam)``
    gets the raw KKT multipliers, negative ones included (0 on inactive
    rows), so pivoting can read their signs; it maps the answer back,
    certifies it in the original units (:func:`_finish` clips the
    multipliers at zero) and returns the solution record, or ``None`` to
    reject it.  Returns ``None`` also when the solve is not finite.
    """
    Ps, qs, Gs, ls = scaled
    d = qs.size
    if free_solve is not None and not active.any():
        sol = free_solve()
    else:
        Ga = Gs[active]
        ka = Ga.shape[0]
        kkt = np.zeros((d + ka, d + ka))
        kkt[:d, :d] = Ps
        kkt[:d, d:] = -Ga.T
        kkt[d:, :d] = Ga
        rhs = np.concatenate([-qs, ls[active]])
        sol = min_norm_lstsq(kkt, rhs)
    if not np.all(np.isfinite(sol)):
        return None
    lam_full = np.zeros(ls.size)
    lam_full[active] = sol[d:]
    return certify(sol[:d], lam_full)


def min_norm_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a x = b``.

    LAPACK ``gelsy``: a complete orthogonal factorisation built on QR with
    column pivoting.  The numerical rank is the largest leading triangle
    whose estimated condition number stays below ``1 / (eps *
    max(a.shape))``, numpy's default ``lstsq`` cutoff; the
    trailing columns are treated as null directions.
    """
    x, *_ = scipy.linalg.lstsq(a, b, cond=np.finfo(float).eps * max(a.shape),
                               lapack_driver="gelsy", check_finite=False)
    return x


def dump_qp(problem: ConvexQP, path) -> None:
    """Write a QP to ``path`` as an uncompressed ``.npz`` archive.

    The archive holds exactly the arrays ``P``, ``q``, ``G`` and ``l``.
    It is written through an open file handle, so ``path`` is used as
    given: NumPy appends no ``.npz`` suffix.
    """
    with open(path, "wb") as fh:
        np.savez(fh, P=problem.P, q=problem.q, G=problem.G, l=problem.l)


def load_qp_dump(path) -> ConvexQP:
    """Rebuild a QP from a :func:`dump_qp` archive.

    Raises :class:`ConfigError` when the file is not a readable ``.npz``
    archive (a truncated or foreign file included), when the archive does
    not hold exactly ``P``, ``q``, ``G`` and ``l``, and when
    :class:`ConvexQP` rejects the data, so a file never loads as a
    different problem.
    """
    # The handle is opened here because np.load leaks its own when the
    # archive is truncated.
    try:
        with open(path, "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ConfigError(
                    f"{path}: a single array, not an .npz archive")
            if sorted(archive.files) != ["G", "P", "l", "q"]:
                raise ConfigError(
                    f"{path}: expected arrays P, q, G and l, got "
                    f"{', '.join(archive.files) or 'none'}")
            arrays = {name: archive[name] for name in archive.files}
        return ConvexQP(**arrays)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: unreadable QP dump: {exc}") from exc
