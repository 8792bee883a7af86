"""Interior-point QP solver tests against closed-form and enumeration oracles."""
import itertools

import numpy as np
import pytest
import scipy.linalg

from posid import qp
from posid.errors import ConfigError
from posid.qp import (ConvexQP, SolveOptions, dump_qp, kkt_certificate,
                      load_qp_dump, solve)


def _random_strictly_convex(rng, d, n_ineq):
    root = rng.standard_normal((d, d))
    P = root.T @ root + d * np.eye(d)
    q = rng.standard_normal(d)
    G = rng.standard_normal((n_ineq, d)) if n_ineq else None
    l = rng.standard_normal(n_ineq) if n_ineq else None
    return ConvexQP(P=P, q=q, G=G, l=l)


def _active_set_oracle(problem):
    """Exhaustive KKT enumeration for small strictly convex QPs.

    Tries every subset of inequality rows as the active set, solves the
    KKT system with the active rows held as equalities, and keeps the best
    candidate that is primal feasible with nonnegative multipliers on the
    active rows.
    """
    P, q = problem.P, problem.q
    G = problem.G if problem.G is not None else np.zeros((0, P.shape[0]))
    l = problem.l if problem.l is not None else np.zeros(0)
    d = P.shape[0]
    best = None
    for active in itertools.chain.from_iterable(
            itertools.combinations(range(G.shape[0]), k)
            for k in range(G.shape[0] + 1)):
        rows = G[list(active)]
        n_c = len(active)
        # stationarity P z + q - rows' mult = 0, feasibility rows z = l
        kkt = np.zeros((d + n_c, d + n_c))
        kkt[:d, :d] = P
        kkt[:d, d:] = -rows.T
        kkt[d:, :d] = rows
        try:
            sol = np.linalg.solve(
                kkt, np.concatenate([-q, l[list(active)]]))
        except np.linalg.LinAlgError:
            continue
        z = sol[:d]
        mults = sol[d:]
        if np.any(G @ z < l - 1e-9):
            continue
        if np.any(mults < -1e-9):
            continue
        obj = 0.5 * z @ P @ z + q @ z
        if best is None or obj < best[1] - 1e-12:
            best = (z, obj)
    assert best is not None, "enumeration found no KKT point"
    return best


def test_unconstrained_shift_to_ones():
    # min ||z - 1||^2 has the all-ones minimizer
    d = 6
    sol = solve(ConvexQP(P=2.0 * np.eye(d), q=-2.0 * np.ones(d)))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.z, np.ones(d), atol=1e-8)


def test_matches_active_set_enumeration():
    rng = np.random.default_rng(7)
    tight = SolveOptions(tol_feas=1e-11, tol_gap=1e-11)
    for trial in range(30):
        problem = _random_strictly_convex(rng, 5, 3)
        z_star, obj_star = _active_set_oracle(problem)
        sol = solve(problem, tight)
        assert sol.status == "optimal", f"trial {trial}: {sol.status}"
        np.testing.assert_allclose(sol.z, z_star, atol=1e-7,
                                   err_msg=f"trial {trial}")
        assert sol.objective == pytest.approx(obj_star, abs=1e-7)


def test_nonfinite_kkt_direction_goes_to_rescue(monkeypatch):
    # a numerically singular KKT matrix can factor without error and still
    # give a non-finite Newton direction; the solve must then fall back to
    # the rescue path instead of passing NaN on to the next linear solve
    rng = np.random.default_rng(9)
    problem = _random_strictly_convex(rng, 4, 3)
    real_cho_solve = scipy.linalg.cho_solve
    calls = []

    def first_call_nan(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            return np.full(problem.dim, np.nan)
        return real_cho_solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_solve", first_call_nan)
    sol = solve(problem, SolveOptions(tol_feas=1e-10, tol_gap=1e-10))
    assert calls, "the Newton direction was not computed"
    z_star, _ = _active_set_oracle(problem)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.z, z_star, atol=1e-7)


def test_failed_newton_factor_retries_with_a_larger_shift(monkeypatch):
    # near the optimum roundoff can leave the Newton matrix numerically
    # indefinite; the solve then raises its diagonal shift and goes on
    # instead of leaving the interior-point loop for the rescue path
    rng = np.random.default_rng(9)
    problem = _random_strictly_convex(rng, 4, 3)
    real_cho_factor = scipy.linalg.cho_factor
    diagonals = []

    def fail_twice(a, *args, **kwargs):
        diagonals.append(np.diag(a).copy())
        if len(diagonals) <= 2:
            raise np.linalg.LinAlgError("not positive definite")
        return real_cho_factor(a, *args, **kwargs)

    def no_rescue(*args, **kwargs):
        pytest.fail("the rescue path was taken")

    monkeypatch.setattr(scipy.linalg, "cho_factor", fail_twice)
    monkeypatch.setattr(qp, "_admm_rescue", no_rescue)
    sol = solve(problem, SolveOptions(tol_feas=1e-10, tol_gap=1e-10))
    assert np.all(diagonals[1] > diagonals[0])
    assert np.all(diagonals[2] > diagonals[1])
    z_star, _ = _active_set_oracle(problem)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.z, z_star, atol=1e-7)


def test_kkt_certificate_small_residuals():
    rng = np.random.default_rng(9)
    problem = _random_strictly_convex(rng, 4, 2)
    sol = solve(problem)
    report = kkt_certificate(problem, sol)
    assert report.stationarity <= 1e-7
    assert report.primal <= 1e-10
    assert report.complementarity <= 1e-7
    assert report.dual_feasibility <= 1e-12


def test_perturbed_point_fails_certificate():
    rng = np.random.default_rng(10)
    problem = _random_strictly_convex(rng, 4, 2)
    sol = solve(problem)
    bumped = type(sol)(z=sol.z + 1e-3, objective=sol.objective,
                       status=sol.status, primal_residual=0.0,
                       dual_residual=0.0, gap=0.0, lam=sol.lam,
                       iterations=sol.iterations)
    report = kkt_certificate(problem, bumped)
    assert report.stationarity > 1e-4


def test_scaling_equivariance():
    # scaling the objective or constraint rows leaves the argmin unchanged
    rng = np.random.default_rng(12)
    problem = _random_strictly_convex(rng, 5, 3)
    base = solve(problem).z
    scaled_cost = ConvexQP(P=37.0 * problem.P, q=37.0 * problem.q,
                           G=problem.G, l=problem.l)
    np.testing.assert_allclose(solve(scaled_cost).z, base, atol=1e-8)
    row = np.array([10.0, 0.01, 5.0])
    scaled_rows = ConvexQP(P=problem.P, q=problem.q,
                           G=row[:, None] * problem.G, l=row * problem.l)
    np.testing.assert_allclose(solve(scaled_rows).z, base, atol=1e-8)


def test_active_constraint_is_respected():
    # unconstrained optimum at origin; force z0 >= 1
    problem = ConvexQP(P=np.eye(2), q=np.zeros(2),
                       G=np.array([[1.0, 0.0]]), l=np.array([1.0]))
    sol = solve(problem)
    np.testing.assert_allclose(sol.z, [1.0, 0.0], atol=1e-8)
    assert sol.lam[0] > 0.0  # multiplier active


def test_scalar_active_bound_value_and_objective():
    # min z^2 subject to z >= 2
    problem = ConvexQP(P=np.array([[2.0]]), q=np.zeros(1),
                       G=np.ones((1, 1)), l=np.array([2.0]))
    sol = solve(problem)
    assert sol.z[0] == pytest.approx(2.0, abs=1e-8)
    assert sol.objective == pytest.approx(4.0, abs=1e-7)


def test_dump_load_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    problem = _random_strictly_convex(rng, 4, 2)
    path = tmp_path / "problem.npz"
    dump_qp(problem, path)
    back = load_qp_dump(path)
    np.testing.assert_array_equal(back.P, problem.P)
    np.testing.assert_array_equal(back.q, problem.q)
    np.testing.assert_array_equal(back.G, problem.G)
    np.testing.assert_array_equal(back.l, problem.l)
    np.testing.assert_allclose(solve(back).z, solve(problem).z, atol=1e-10)


def _dump_lines(tmp_path):
    path = tmp_path / "problem.txt"
    dump_qp(_random_strictly_convex(np.random.default_rng(14), 3, 2), path)
    return path, path.read_text().splitlines(keepends=True)


def _block_start(lines, name):
    return lines.index(f"%block {name}\n") - 1


def test_load_dump_rejects_missing_block(tmp_path):
    path, lines = _dump_lines(tmp_path)
    path.write_text("".join(lines[_block_start(lines, "q"):]))
    with pytest.raises(ConfigError, match="missing block.*P"):
        load_qp_dump(path)


def test_load_dump_rejects_truncated_block(tmp_path):
    path, lines = _dump_lines(tmp_path)
    # values cut short, then the header cut short
    for cut in (len(lines) - 1, _block_start(lines, "l") + 2):
        path.write_text("".join(lines[:cut]))
        with pytest.raises(ConfigError):
            load_qp_dump(path)


def test_load_dump_rejects_unknown_block(tmp_path):
    # an equality block would otherwise be dropped and the file would
    # load as a different problem
    path, lines = _dump_lines(tmp_path)
    extra = ["%%MatrixMarket matrix array real general\n", "%block A\n",
             "1 3\n", "1.0\n", "0.0\n", "0.0\n"]
    path.write_text("".join(lines + extra))
    with pytest.raises(ConfigError, match="'A'"):
        load_qp_dump(path)


def test_validation_errors():
    with pytest.raises(ConfigError):
        ConvexQP(P=np.eye(2), q=np.zeros(3))
    with pytest.raises(ConfigError):
        ConvexQP(P=np.eye(2), q=np.zeros(2), G=np.eye(2))  # G without l
    with pytest.raises(ConfigError):
        SolveOptions(tol_feas=0.0)
    # indefinite P must be rejected
    with pytest.raises(ConfigError):
        ConvexQP(P=np.diag([1.0, -1.0]), q=np.zeros(2))
    # non-symmetric P is accepted but symmetrised
    problem = ConvexQP(P=np.array([[1.0, 2.0], [0.0, 1.0]]), q=np.zeros(2))
    np.testing.assert_allclose(problem.P, [[1.0, 1.0], [1.0, 1.0]])


def test_nonnegativity_box():
    # min 0.5||z + 1||^2 s.t. z >= 0 pins every coordinate at zero
    d = 5
    problem = ConvexQP(P=np.eye(d), q=np.ones(d), G=np.eye(d), l=np.zeros(d))
    sol = solve(problem)
    np.testing.assert_allclose(sol.z, np.zeros(d), atol=1e-8)
    np.testing.assert_allclose(sol.lam, np.ones(d), atol=1e-6)
