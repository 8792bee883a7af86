"""Dense convex quadratic programming.

Solves

    minimize    0.5 * z' P z + q' z
    subject to  G z >= l,   A z = r

with a primal-dual interior-point method (Mehrotra predictor-corrector on
the slack/multiplier pair).  Problems the interior-point loop cannot finish
are handed to an operator-splitting fallback and an active-set polish; the
returned status reflects the final certified residuals, which can also be
recomputed independently through :func:`kkt_certificate`.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigError

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
INFEASIBLE = "infeasible"

# Ratio below which a negative eigenvalue of P is treated as roundoff.
_PSD_RTOL = 1e-8
# Diagonal ridge applied when roundoff produced tiny negative curvature.
_RIDGE_FRACTION = 1e-12


@dataclass(frozen=True)
class SolveOptions:
    """Termination controls for :func:`solve`.

    ``tol_feas`` bounds the primal and dual residuals (scaled by
    ``1 + |l|_inf`` and ``1 + |q|_inf`` respectively), ``tol_gap`` bounds
    the complementarity gap normalised by ``1 + |objective|``.
    """

    tol_feas: float = 1e-8
    tol_gap: float = 1e-7
    max_iter: int = 200
    step_fraction: float = 0.99

    def __post_init__(self) -> None:
        if self.tol_feas <= 0 or self.tol_gap <= 0:
            raise ConfigError("solver tolerances must be positive")
        if self.max_iter <= 0:
            raise ConfigError("max_iter must be positive")
        if not 0.0 < self.step_fraction < 1.0:
            raise ConfigError("step_fraction must lie in (0, 1)")


@dataclass
class ConvexQP:
    """One convex QP instance.

    ``P`` is symmetrised on construction; eigenvalues below
    ``-1e-8 * max_eig`` raise, while tiny negative ones (roundoff from
    Gram assembly) are absorbed by adding the ridge
    ``1e-12 * trace(P) / d`` to the diagonal.
    """

    P: np.ndarray
    q: np.ndarray
    G: np.ndarray | None = None
    l: np.ndarray | None = None
    A: np.ndarray | None = None
    r: np.ndarray | None = None

    def __post_init__(self) -> None:
        P = np.asarray(self.P, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ConfigError("P must be a square matrix")
        if q.ndim != 1 or q.size != P.shape[0]:
            raise ConfigError("q must be a vector matching P")
        P = 0.5 * (P + P.T)
        eigs = np.linalg.eigvalsh(P)
        top = max(float(eigs[-1]), 0.0)
        if eigs[0] < -_PSD_RTOL * max(top, 1.0):
            raise ConfigError(
                f"P is not positive semidefinite (min eigenvalue {eigs[0]:.3e})")
        if eigs[0] < 0.0:
            ridge = _RIDGE_FRACTION * max(np.trace(P) / P.shape[0], 1.0)
            P = P + ridge * np.eye(P.shape[0])
        self.P = P
        self.q = q
        if (self.G is None) != (self.l is None):
            raise ConfigError("G and l must be given together")
        if (self.A is None) != (self.r is None):
            raise ConfigError("A and r must be given together")
        if self.G is not None:
            G = np.atleast_2d(np.asarray(self.G, dtype=float))
            l = np.asarray(self.l, dtype=float).ravel()
            if G.shape != (l.size, q.size):
                raise ConfigError(
                    f"G shape {G.shape} incompatible with {l.size} bounds "
                    f"and {q.size} variables")
            self.G, self.l = G, l
        if self.A is not None:
            A = np.atleast_2d(np.asarray(self.A, dtype=float))
            r = np.asarray(self.r, dtype=float).ravel()
            if A.shape != (r.size, q.size):
                raise ConfigError(
                    f"A shape {A.shape} incompatible with {r.size} targets "
                    f"and {q.size} variables")
            self.A, self.r = A, r

    @property
    def dim(self) -> int:
        return int(self.q.size)

    @property
    def n_ineq(self) -> int:
        return 0 if self.G is None else int(self.G.shape[0])

    @property
    def n_eq(self) -> int:
        return 0 if self.A is None else int(self.A.shape[0])

    def objective(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(0.5 * z @ self.P @ z + self.q @ z)


@dataclass
class QPSolution:
    """Solver output: argmin, certified residuals, multipliers.

    ``gap`` is the complementarity gap normalised by ``1 + |objective|``;
    ``lam`` are the inequality multipliers (nonnegative, one per row of
    ``G``), ``nu`` the equality multipliers.
    """

    z: np.ndarray
    objective: float
    status: str
    primal_residual: float
    dual_residual: float
    gap: float
    lam: np.ndarray = field(default=None, repr=False)
    nu: np.ndarray = field(default=None, repr=False)
    iterations: int = 0


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
    lam = (np.zeros(problem.n_ineq) if solution.lam is None
           else np.asarray(solution.lam, dtype=float))
    nu = (np.zeros(problem.n_eq) if solution.nu is None
          else np.asarray(solution.nu, dtype=float))
    grad = problem.P @ z + problem.q
    primal = 0.0
    comp = 0.0
    dual_feas = 0.0
    if problem.n_ineq:
        slack = problem.G @ z - problem.l
        grad = grad - problem.G.T @ lam
        primal = max(primal, float(np.max(-slack, initial=0.0)))
        comp = float(np.max(np.abs(lam * slack), initial=0.0))
        dual_feas = float(np.max(-lam, initial=0.0))
    if problem.n_eq:
        grad = grad + problem.A.T @ nu
        primal = max(primal,
                     float(np.max(np.abs(problem.A @ z - problem.r),
                                  initial=0.0)))
    return KktReport(stationarity=float(np.max(np.abs(grad), initial=0.0)),
                     primal=primal, complementarity=comp,
                     dual_feasibility=dual_feas)


def solve(problem: ConvexQP, options: SolveOptions | None = None) -> QPSolution:
    """Solve one convex QP.

    Returns a :class:`QPSolution` whose status is ``optimal`` only when
    the certified residuals meet the requested tolerances, ``infeasible``
    when the constraints admit no point, and ``max_iterations`` otherwise
    (best iterate returned).
    """
    opt = options or SolveOptions()
    if problem.n_ineq == 0:
        return _solve_equality_only(problem, opt)
    return _solve_interior_point(problem, opt)


def _finish(problem: ConvexQP, opt: SolveOptions, z, lam, nu,
            iterations: int, force_status: str | None = None) -> QPSolution:
    """Assemble a solution record with residuals in original units."""
    z = np.asarray(z, dtype=float)
    lam = np.zeros(problem.n_ineq) if lam is None else np.maximum(lam, 0.0)
    nu = np.zeros(problem.n_eq) if nu is None else np.asarray(nu, dtype=float)
    obj = problem.objective(z)
    grad = problem.P @ z + problem.q
    primal = 0.0
    gap_abs = 0.0
    l_scale = 1.0
    if problem.n_ineq:
        slack = problem.G @ z - problem.l
        grad = grad - problem.G.T @ lam
        primal = max(primal, float(np.max(-slack, initial=0.0)))
        gap_abs = float(np.abs(lam) @ np.abs(slack))
        l_scale += float(np.max(np.abs(problem.l), initial=0.0))
    if problem.n_eq:
        grad = grad + problem.A.T @ nu
        primal = max(primal, float(np.max(np.abs(problem.A @ z - problem.r),
                                          initial=0.0)))
        l_scale += float(np.max(np.abs(problem.r), initial=0.0))
    dual = float(np.max(np.abs(grad), initial=0.0))
    gap = gap_abs / (1.0 + abs(obj))
    q_scale = 1.0 + float(np.max(np.abs(problem.q), initial=0.0))
    if force_status is not None:
        status = force_status
    elif (primal <= opt.tol_feas * l_scale
          and dual <= opt.tol_feas * q_scale
          and gap <= opt.tol_gap):
        status = OPTIMAL
    else:
        status = MAX_ITERATIONS
    return QPSolution(z=z, objective=obj, status=status,
                      primal_residual=primal, dual_residual=dual, gap=gap,
                      lam=lam, nu=nu, iterations=iterations)


def _solve_equality_only(problem: ConvexQP, opt: SolveOptions) -> QPSolution:
    P, q = problem.P, problem.q
    d = problem.dim
    e = problem.n_eq
    if e == 0:
        try:
            z = scipy.linalg.solve(P, -q, assume_a="pos")
        except np.linalg.LinAlgError:
            z = np.linalg.lstsq(P, -q, rcond=None)[0]
        return _finish(problem, opt, z, None, None, iterations=0)
    kkt = np.zeros((d + e, d + e))
    kkt[:d, :d] = P
    kkt[:d, d:] = problem.A.T
    kkt[d:, :d] = problem.A
    rhs = np.concatenate([-q, problem.r])
    try:
        sol = scipy.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    if not np.all(np.isfinite(sol)):
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return _finish(problem, opt, sol[:d], None, sol[d:], iterations=0)


def _row_scale(mat: np.ndarray, vec: np.ndarray, zero_bad: str):
    """Normalise constraint rows to unit sup-norm.

    Zero rows with an unsatisfiable right-hand side mark the whole problem
    infeasible; trivially satisfied zero rows are kept (harmless after
    scaling by 1).
    """
    norms = np.max(np.abs(mat), axis=1)
    zero = norms <= 0.0
    if zero_bad == "ineq":
        if np.any(zero & (vec > 0.0)):
            return None
    else:
        if np.any(zero & (vec != 0.0)):
            return None
    norms = np.where(zero, 1.0, norms)
    return mat / norms[:, None], vec / norms, norms


def _solve_interior_point(problem: ConvexQP, opt: SolveOptions) -> QPSolution:
    d = problem.dim
    k = problem.n_ineq
    e = problem.n_eq

    # Jacobi column scaling: kernel-section curvature can span dozens of
    # orders of magnitude along the diagonal, which stalls the Newton
    # steps unless the variables are rebalanced first.
    pdiag = np.diag(problem.P)
    col = np.where(pdiag > 0.0, pdiag, 1.0) ** -0.5
    if float(np.max(col)) / float(np.min(col)) < 10.0:
        col = np.ones(d)
    Pc = problem.P * (col[:, None] * col[None, :])
    qc = problem.q * col

    scaled_g = _row_scale(problem.G * col[None, :], problem.l, "ineq")
    if scaled_g is None:
        return _finish(problem, opt, np.zeros(d), None, None, 0,
                       force_status=INFEASIBLE)
    Gs, ls, g_norms = scaled_g
    if e:
        scaled_a = _row_scale(problem.A * col[None, :], problem.r, "eq")
        if scaled_a is None:
            return _finish(problem, opt, np.zeros(d), None, None, 0,
                           force_status=INFEASIBLE)
        As, rs, a_norms = scaled_a
    else:
        As = np.zeros((0, d))
        rs = np.zeros(0)
        a_norms = np.ones(0)

    cost_scale = max(1.0, float(np.max(np.abs(Pc), initial=0.0)),
                     float(np.max(np.abs(qc), initial=0.0)))
    Ps = Pc / cost_scale
    qs = qc / cost_scale

    reg = 1e-12 * (1.0 + float(np.trace(Ps)) / d)

    # Starting point: regularised equality-constrained minimiser, slacks
    # clipped away from the boundary, unit multipliers.
    init = np.zeros((d + e, d + e))
    init[:d, :d] = Ps + np.eye(d)
    if e:
        init[:d, d:] = As.T
        init[d:, :d] = As
        init[d:, d:] = -reg * np.eye(e)
    rhs0 = np.concatenate([-qs, rs])
    try:
        start = scipy.linalg.solve(init, rhs0)
    except np.linalg.LinAlgError:
        start = np.linalg.lstsq(init, rhs0, rcond=None)[0]
    z = start[:d]
    nu = start[d:]
    s = np.maximum(Gs @ z - ls, 1.0)
    lam = np.ones(k)

    best = None
    best_score = np.inf
    iterations = 0
    for iterations in range(1, opt.max_iter + 1):
        sol = _finish(problem, opt, col * z, cost_scale * lam / g_norms,
                      cost_scale * nu / a_norms if e else None,
                      iterations)
        score = max(sol.primal_residual, sol.dual_residual, sol.gap)
        if score < best_score:
            best, best_score = sol, score
        if sol.status == OPTIMAL:
            # One active-set polish step: on flat valleys the barrier
            # stops inside the tolerance ball, while the equality solve
            # lands on the exact face.  Keep it only when it certifies
            # strictly better.
            polished = _polish(problem, opt, sol, iterations)
            if polished is not None and polished.status == OPTIMAL:
                p_score = max(polished.primal_residual,
                              polished.dual_residual, polished.gap)
                if p_score < score:
                    return polished
            return sol

        rd = Ps @ z + qs - Gs.T @ lam + (As.T @ nu if e else 0.0)
        rp = Gs @ z - s - ls
        re = As @ z - rs if e else np.zeros(0)
        mu = float(s @ lam) / k

        # Divergence heuristic: multipliers exploding while the primal
        # residual stalls indicates an infeasible constraint set.
        if (np.max(lam) > 1e13
                and sol.primal_residual > 1e3 * opt.tol_feas
                and mu < 1e-10):
            return _finish(problem, opt, col * z, None, None, iterations,
                           force_status=INFEASIBLE)

        w = lam / s
        h = Ps + (Gs.T * w) @ Gs
        h[np.diag_indices_from(h)] += reg
        if e:
            kkt = np.zeros((d + e, d + e))
            kkt[:d, :d] = h
            kkt[:d, d:] = As.T
            kkt[d:, :d] = As
            kkt[d:, d:] = -reg * np.eye(e)
            try:
                lu = scipy.linalg.lu_factor(kkt)
            except np.linalg.LinAlgError:
                break
            def kkt_solve(rhs_z, rhs_e):
                out = scipy.linalg.lu_solve(lu, np.concatenate([rhs_z, rhs_e]))
                return out[:d], out[d:]
        else:
            try:
                cho = scipy.linalg.cho_factor(h)
            except np.linalg.LinAlgError:
                break
            def kkt_solve(rhs_z, rhs_e):
                return scipy.linalg.cho_solve(cho, rhs_z), np.zeros(0)

        # Affine scaling direction.  A numerically singular KKT matrix
        # can factor without error and still give a non-finite
        # direction; that goes to the rescue path like a failed factor.
        rhs_z = -rd - Gs.T @ (lam + w * rp)
        dz, dnu = kkt_solve(rhs_z, -re)
        if not (np.isfinite(dz).all() and np.isfinite(dnu).all()):
            break
        ds = Gs @ dz + rp
        dlam = -lam - w * ds
        alpha_aff = min(_max_step(s, ds), _max_step(lam, dlam))
        mu_aff = float((s + alpha_aff * ds) @ (lam + alpha_aff * dlam)) / k
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # Corrected direction reusing the same factorisation.
        center = (sigma * mu - ds * dlam) / s
        rhs_z = -rd - Gs.T @ (lam + w * rp - center)
        dz, dnu = kkt_solve(rhs_z, -re)
        if not (np.isfinite(dz).all() and np.isfinite(dnu).all()):
            break
        ds = Gs @ dz + rp
        dlam = -lam - w * ds + center
        alpha = opt.step_fraction * min(_max_step(s, ds),
                                        _max_step(lam, dlam))
        alpha = min(1.0, alpha)
        if alpha < 1e-10:
            break
        z = z + alpha * dz
        s = s + alpha * ds
        lam = lam + alpha * dlam
        nu = nu + alpha * dnu if e else nu

    # Rescue path: operator splitting to get near the solution, then an
    # active-set polish; fall back to the best interior-point iterate.
    candidates = [best]
    admm = _admm_rescue(problem, Ps, qs, Gs, ls, As, rs, cost_scale,
                        col, g_norms, a_norms, opt, iterations)
    if admm is not None:
        candidates.append(admm)
    for cand in list(candidates):
        polished = _polish(problem, opt, cand, iterations)
        if polished is not None:
            candidates.append(polished)
    for cand in candidates:
        if cand is not None and cand.status == OPTIMAL:
            return cand
    return min((c for c in candidates if c is not None),
               key=lambda c: max(c.primal_residual, c.dual_residual, c.gap))


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0.0
    if not np.any(neg):
        return 1.0
    return float(min(1.0, np.min(-v[neg] / dv[neg])))


def _polish(problem: ConvexQP, opt: SolveOptions,
            guess: QPSolution | None, iterations: int) -> QPSolution | None:
    """Equality-KKT solve on the active set guessed from a near-solution."""
    if guess is None or problem.n_ineq == 0:
        return None
    slack = problem.G @ guess.z - problem.l
    lam = guess.lam if guess.lam is not None else np.zeros(problem.n_ineq)
    scale = 1.0 + float(np.max(np.abs(problem.l), initial=0.0))
    active = (slack <= 1e-7 * scale) | (lam > np.maximum(slack, 0.0))
    if not np.any(active):
        # Min-norm solve: P from Gram assembly can be numerically
        # singular, and a Cholesky solution would inflate the nullspace.
        z, *_ = np.linalg.lstsq(problem.P, -problem.q, rcond=None)
        if not np.all(np.isfinite(z)):
            return None
        return _finish(problem, opt, z, None, None, iterations)
    Ga = problem.G[active]
    la = problem.l[active]
    d = problem.dim
    ka = Ga.shape[0]
    e = problem.n_eq
    kkt = np.zeros((d + ka + e, d + ka + e))
    kkt[:d, :d] = problem.P
    kkt[:d, d:d + ka] = -Ga.T
    kkt[d:d + ka, :d] = Ga
    rhs = np.concatenate([-problem.q, la, problem.r if e else np.zeros(0)])
    if e:
        kkt[:d, d + ka:] = problem.A.T
        kkt[d + ka:, :d] = problem.A
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    if not np.all(np.isfinite(sol)):
        return None
    z = sol[:d]
    lam_full = np.zeros(problem.n_ineq)
    lam_full[active] = np.maximum(sol[d:d + ka], 0.0)
    nu = sol[d + ka:] if e else None
    return _finish(problem, opt, z, lam_full, nu, iterations)


def _admm_rescue(problem, Ps, qs, Gs, ls, As, rs, cost_scale, col,
                 g_norms, a_norms, opt, iterations) -> QPSolution | None:
    """Operator-splitting pass used when the interior-point loop stalls."""
    d = problem.dim
    e = problem.n_eq
    M = np.vstack([Gs, As]) if e else Gs
    k_total = M.shape[0]
    sigma = 1e-6
    rho = 1.0
    lhs = Ps + sigma * np.eye(d) + rho * (M.T @ M)
    try:
        cho = scipy.linalg.cho_factor(lhs)
    except np.linalg.LinAlgError:
        return None
    z = np.zeros(d)
    wv = M @ z
    u = np.zeros(k_total)
    for _ in range(4000):
        rhs = -qs + sigma * z + rho * M.T @ (wv - u)
        z = scipy.linalg.cho_solve(cho, rhs)
        mz = M @ z
        wv = mz + u
        wv[:Gs.shape[0]] = np.maximum(wv[:Gs.shape[0]], ls)
        if e:
            wv[Gs.shape[0]:] = rs
        u = u + mz - wv
    y = rho * u
    lam = np.maximum(-y[:Gs.shape[0]], 0.0)
    nu = y[Gs.shape[0]:] if e else None
    return _finish(problem, opt,
                   col * z, cost_scale * lam / g_norms,
                   cost_scale * nu / a_norms if e else None,
                   iterations)


def dump_qp(problem: ConvexQP, path) -> None:
    """Serialise a QP to a matrix-market style text file for reproduction."""
    blocks = [("P", problem.P), ("q", problem.q)]
    if problem.n_ineq:
        blocks += [("G", problem.G), ("l", problem.l)]
    if problem.n_eq:
        blocks += [("A", problem.A), ("r", problem.r)]
    buf = io.StringIO()
    for name, arr in blocks:
        arr = np.atleast_2d(np.asarray(arr, dtype=float))
        buf.write(f"%%MatrixMarket matrix array real general\n%block {name}\n")
        buf.write(f"{arr.shape[0]} {arr.shape[1]}\n")
        for col in range(arr.shape[1]):
            for row in range(arr.shape[0]):
                buf.write(f"{float(arr[row, col])!r}\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def load_qp_dump(path) -> ConvexQP:
    """Rebuild a QP from a :func:`dump_qp` file."""
    blocks: dict[str, np.ndarray] = {}
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    i = 0
    while i < len(lines):
        if not lines[i].startswith("%%MatrixMarket"):
            raise ConfigError(f"{path}: bad dump header at line {i + 1}")
        name = lines[i + 1].removeprefix("%block ").strip()
        rows, cols = (int(x) for x in lines[i + 2].split())
        count = rows * cols
        vals = np.array([float(x) for x in lines[i + 3:i + 3 + count]])
        blocks[name] = vals.reshape((cols, rows)).T
        i += 3 + count
    def vec(name):
        return blocks[name].ravel() if name in blocks else None
    return ConvexQP(P=blocks["P"], q=vec("q"),
                    G=blocks.get("G"), l=vec("l"),
                    A=blocks.get("A"), r=vec("r"))
