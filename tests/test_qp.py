"""QP solver tests against closed-form and enumeration oracles."""
import itertools
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from posid import qp
from posid.assembly import (assemble_core, assemble_polynomial_blocks,
                            input_weight_matrix)
from posid.baselines import nonneg_ls
from posid.errors import ConfigError, SolverError
from posid.estimator import (PositiveIdConfig, build_qp, identify,
                             initial_constraint_horizon)
from posid.experiments import (McProtocol, add_noise, gen_binary_input,
                               noise_variance, simulate_output, true_system)
from posid.kernels import KernelSpec
from posid.qp import ConvexQP, dump_qp, kkt_certificate, solve
from posid.signals import TimeSeriesData

from test_baselines import _near_square_records
from test_extensions import _mis_specified_record
from test_robustness import DRAW_FITS, _random_draw


def _random_strictly_convex(rng, d, n_ineq):
    root = rng.standard_normal((d, d))
    P = root.T @ root + d * np.eye(d)
    q = rng.standard_normal(d)
    G = rng.standard_normal((n_ineq, d))
    l = rng.standard_normal(n_ineq)
    return ConvexQP(P=P, q=q, G=G, l=l)


def _binding_random_qp(seed, d, n_ineq):
    """A random strictly convex QP whose first row cuts off its
    unconstrained minimiser by 1, so round 0 of its solve is rejected."""
    problem = _random_strictly_convex(np.random.default_rng(seed), d, n_ineq)
    free = np.linalg.solve(problem.P, -problem.q)
    l = problem.l.copy()
    l[0] = problem.G[0] @ free + 1.0
    return ConvexQP(P=problem.P, q=problem.q, G=problem.G, l=l)


def _active_set_oracle(problem):
    """Exhaustive KKT enumeration for small strictly convex QPs.

    Tries every subset of inequality rows as the active set, solves the
    KKT system with the active rows held as equalities, and keeps the best
    candidate that is primal feasible with nonnegative multipliers on the
    active rows.
    """
    P, q, G, l = problem.P, problem.q, problem.G, problem.l
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


def test_matches_active_set_enumeration(certificate):
    # the random draws and the QPs whose first row cuts their free
    # minimiser off are all finished by the first polish of the rows the
    # dual method holds
    rng = np.random.default_rng(7)
    certificate(1e-11, 1e-11)
    problems = [_random_strictly_convex(rng, 5, 3) for _ in range(30)]
    problems += [_binding_random_qp(seed, 5, 3) for seed in range(30)]
    for trial, problem in enumerate(problems):
        z_star, obj_star = _active_set_oracle(problem)
        sol = solve(problem)
        assert sol.status == "optimal", f"trial {trial}: {sol.status}"
        assert sol.path == "polish", f"trial {trial}"
        # a binding QP needs at least one dual step
        assert trial < 30 or sol.iterations > 0, f"trial {trial}"
        np.testing.assert_allclose(sol.z, z_star, atol=1e-7,
                                   err_msg=f"trial {trial}")
        assert sol.objective == pytest.approx(obj_star, abs=1e-7)


def _fault_in_second_dual_step(monkeypatch, solve_number, fault):
    """Hand triangular solve ``solve_number`` of the dual method's second
    step to ``fault(real_solve, a, b, **kwargs)``; return the number of
    solves in each step opened.  Solve 1 of a step is the one for the
    normals of the active rows and the joining one, the only solve with a
    matrix right-hand side; solve 2 gives the primal direction.  Only the
    dual method's solves count: the polish's come after it."""
    real = scipy.linalg.solve_triangular
    real_dual = qp._dual_active_set
    solves = []
    in_dual = []

    def solve_triangular(a, b, **kwargs):
        if in_dual and np.ndim(b) == 2:
            solves.append(0)
        if in_dual and solves:
            solves[-1] += 1
            if len(solves) == 2 and solves[-1] == solve_number:
                return fault(real, a, b, **kwargs)
        return real(a, b, **kwargs)

    def dual_active_set(*args):
        in_dual.append(True)
        try:
            return real_dual(*args)
        finally:
            in_dual.clear()

    monkeypatch.setattr(scipy.linalg, "solve_triangular", solve_triangular)
    monkeypatch.setattr(qp, "_dual_active_set", dual_active_set)
    return solves


def _assert_ends_at_the_faulty_step(monkeypatch, solve_number, fault):
    # the box's free minimiser violates all five rows, so the dual method
    # needs five steps; a fault in the second must end it after one, and
    # the solve must report a finite, uncertified answer instead of
    # passing NaN on to the next step
    problem = _nonnegativity_box()
    solves = _fault_in_second_dual_step(monkeypatch, solve_number, fault)
    sol = solve(problem)
    assert len(solves) == 2, "the dual method must end at the faulty step"
    assert (sol.path, sol.iterations) == ("dual", 1)
    _assert_finite_with_honest_status(problem, sol)


def test_nonfinite_kkt_direction_ends_the_solve(monkeypatch):
    # a numerically singular factor can give a non-finite primal direction
    # without raising an error
    _assert_ends_at_the_faulty_step(
        monkeypatch, 2,
        lambda real, a, b, **kwargs: np.full(b.shape, np.nan))


def _assert_finite_with_honest_status(problem, sol):
    # the polish of the dual method's rows may still certify; the status
    # must agree with the independently recomputed residuals, at the
    # solver's tolerances, either way
    report = kkt_certificate(problem, sol)
    slack = problem.G @ sol.z - problem.l
    gap = (np.abs(sol.lam) @ np.abs(slack)
           / (1.0 + abs(problem.objective(sol.z))))
    certified = (
        report.primal <= qp._TOL_FEAS * (1 + np.max(np.abs(problem.l)))
        and report.stationarity
        <= qp._TOL_FEAS * (1 + np.max(np.abs(problem.q)))
        and report.dual_feasibility == 0.0
        and gap <= qp._TOL_GAP)
    assert sol.status == ("optimal" if certified else "max_iterations")
    assert np.all(np.isfinite(sol.z)) and np.all(np.isfinite(sol.lam))
    assert np.isfinite([sol.primal_residual, sol.dual_residual,
                        sol.gap]).all()


def test_nonfinite_newton_matrix_ends_the_solve(monkeypatch):
    # an overflowed entry in the triangular factor of the Newton matrix
    # makes the solve's result non-finite
    def overflowed(real, a, b, **kwargs):
        a = a.copy()
        a[0, -1] = np.inf
        return real(a, b, **kwargs)

    _assert_ends_at_the_faulty_step(monkeypatch, 1, overflowed)


def test_nonfinite_free_minimiser_ends_at_the_origin(monkeypatch):
    # a non-finite unconstrained minimiser starts no dual step, and its
    # polish over the empty active set is not finite either, so the
    # answer is the dual method's start: the origin, with no multiplier
    monkeypatch.setattr(qp._JacobiFactor, "solve",
                        lambda self, b: np.full_like(b, np.inf))
    polish = _record_calls(monkeypatch, "_polish")
    problem = _binding_random_qp(0, 5, 10)
    sol = solve(problem)
    assert [result for _, result in polish] == [None]
    assert (sol.status, sol.path, sol.iterations) == (
        "max_iterations", "dual", 0)
    np.testing.assert_array_equal(sol.z, 0.0)
    np.testing.assert_array_equal(sol.lam, 0.0)
    _assert_finite_with_honest_status(problem, sol)


def test_dual_method_stops_at_its_step_cap(monkeypatch):
    # this binding QP takes 9 dual steps on 5 variables; a cap of one
    # step per variable stops the method after 5, and the polish of the
    # rows it holds then is rejected, so the answer is the dual point
    problem = _binding_random_qp(0, 5, 10)
    assert solve(problem).iterations == 9
    monkeypatch.setattr(qp, "_STEPS_PER_VARIABLE", 1)
    dual = _record_calls(monkeypatch, "_dual_active_set")
    sol = solve(problem)
    [(_, (zs, _, steps))] = dual
    assert steps == sol.iterations == 5
    assert (sol.status, sol.path) == ("max_iterations", "dual")
    np.testing.assert_array_equal(sol.z, problem._factor.col * zs)
    _assert_finite_with_honest_status(problem, sol)


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
                       iterations=sol.iterations, path=sol.path)
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
    path = tmp_path / "problem.qp"
    dump_qp(problem, path)
    # written to exactly the given path, with no suffix appended
    assert [p.name for p in tmp_path.iterdir()] == ["problem.qp"]
    back = _load_dump(path)
    np.testing.assert_array_equal(back.P, problem.P)
    np.testing.assert_array_equal(back.q, problem.q)
    np.testing.assert_array_equal(back.G, problem.G)
    np.testing.assert_array_equal(back.l, problem.l)
    np.testing.assert_allclose(solve(back).z, solve(problem).z, atol=1e-10)


def _dump_arrays():
    problem = _random_strictly_convex(np.random.default_rng(14), 3, 2)
    return {"P": problem.P, "q": problem.q, "G": problem.G, "l": problem.l}


def _write_archive(path, arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _load_dump(path):
    """Rebuild a QP from a :func:`dump_qp` archive, as its docstring says."""
    with np.load(path) as arrays:
        return ConvexQP(**arrays)


@pytest.mark.parametrize("name", ["P", "q", "G", "l"])
def test_nonfinite_data_is_rejected(name, tmp_path):
    arrays = {"P": np.eye(2), "q": np.zeros(2), "G": np.eye(2),
              "l": np.zeros(2)}
    arrays[name] = arrays[name].copy()
    arrays[name].flat[0] = np.nan
    with pytest.raises(ConfigError, match="finite"):
        ConvexQP(**arrays)
    # a dump with a non-finite entry is rejected on load the same way
    path = tmp_path / "problem.qp"
    arrays = _dump_arrays()
    arrays[name].flat[0] = np.nan
    _write_archive(path, arrays)
    with pytest.raises(ConfigError, match="finite"):
        _load_dump(path)


def test_validation_errors():
    rows = {"G": np.eye(2), "l": np.zeros(2)}
    with pytest.raises(ConfigError):
        ConvexQP(P=np.eye(2), q=np.zeros(3), **rows)
    with pytest.raises(ConfigError):
        ConvexQP(P=np.eye(2), q=np.zeros(2), G=np.eye(2), l=np.zeros(3))
    # indefinite P must be rejected
    with pytest.raises(ConfigError):
        ConvexQP(P=np.diag([1.0, -1.0]), q=np.zeros(2), **rows)
    # so must a singular one, with the rank of its factor named
    B = np.random.default_rng(3).standard_normal((5, 2))
    rows5 = {"G": np.eye(5), "l": np.full(5, -1.0)}
    for P, rank in ((B @ B.T, 2), (np.zeros((5, 5)), 0)):
        with pytest.raises(ConfigError,
                           match=f"not positive definite .*rank {rank} of 5"):
            ConvexQP(P=P, q=np.zeros(5), **rows5)
    # a QP without variables is rejected
    with pytest.raises(ConfigError, match="at least one variable"):
        ConvexQP(P=np.zeros((0, 0)), q=np.zeros(0), G=np.zeros((1, 0)),
                 l=np.array([-1.0]))
    # a QP without inequality rows is rejected
    with pytest.raises(ConfigError, match="at least one inequality row"):
        ConvexQP(P=np.eye(2), q=np.zeros(2), G=np.zeros((0, 2)),
                 l=np.zeros(0))
    # non-symmetric P is accepted but symmetrised
    problem = ConvexQP(P=np.array([[2.0, 2.0], [0.0, 2.0]]), q=np.zeros(2),
                       **rows)
    np.testing.assert_allclose(problem.P, [[2.0, 1.0], [1.0, 2.0]])


def _nonnegativity_box():
    # min 0.5||z + 1||^2 s.t. z >= 0 pins every coordinate at zero
    d = 5
    return ConvexQP(P=np.eye(d), q=np.ones(d), G=np.eye(d), l=np.zeros(d))


def test_nonnegativity_box():
    sol = solve(_nonnegativity_box())
    np.testing.assert_allclose(sol.z, np.zeros(5), atol=1e-8)
    np.testing.assert_allclose(sol.lam, np.ones(5), atol=1e-6)


def test_zero_row_with_positive_bound_is_infeasible():
    G = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ConfigError, match="zero row"):
        ConvexQP(P=np.eye(2), q=np.zeros(2), G=G, l=np.array([0.0, 1.0]))
    # a zero row with a zero bound always holds and is kept
    sol = solve(ConvexQP(P=np.eye(2), q=np.ones(2), G=G, l=np.zeros(2)))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.z, [0.0, -1.0], atol=1e-7)


def test_contradictory_rows_end_in_max_iterations():
    # z0 >= 1 and -z0 >= 0 admit no point; only a zero row with a positive
    # bound is rejected up front, so this solve reports that it did not
    # converge
    problem = ConvexQP(P=np.eye(2), q=np.zeros(2),
                       G=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                       l=np.array([1.0, 0.0]))
    sol = solve(problem)
    assert sol.status == "max_iterations"
    assert sol.primal_residual >= 0.5


def _record_calls(monkeypatch, name, owner=qp):
    """Wrap ``owner.<name>`` and return the list of its (args, result)."""
    calls = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, recording)
    return calls


def test_answer_is_the_object_a_path_returned(monkeypatch):
    # the benchmark counts QP paths by wrapping _polish and matching the
    # answer of solve to its result by identity; the box's unconstrained
    # minimiser violates all five rows, so the dual method adds each in
    # one step, and the answer is the one polish of those rows
    polish = _record_calls(monkeypatch, "_polish")
    sol = solve(_nonnegativity_box())
    assert len(polish) == 1
    assert sol is polish[0][1]
    assert (sol.path, sol.iterations) == ("polish", 5)


def test_inactive_rows_return_the_unconstrained_minimiser(monkeypatch,
                                                          certificate):
    # no row binds: the dual method takes no step and holds no row, so
    # the polish, over the empty active set, is certified and returned
    polish = _record_calls(monkeypatch, "_polish")
    dual = _record_calls(monkeypatch, "_dual_active_set")
    certificate(1e-11, 1e-11)
    for seed in range(10):
        drawn = _random_strictly_convex(np.random.default_rng(seed), 5, 3)
        free = np.linalg.solve(drawn.P, -drawn.q)
        # every row holds at the free minimiser with a slack of 1 or more
        problem = ConvexQP(P=drawn.P, q=drawn.q, G=drawn.G,
                           l=drawn.G @ free - 1.0 - np.abs(drawn.l))
        polish.clear()
        sol = solve(problem)
        z_star, _ = _active_set_oracle(problem)
        assert (sol.status, sol.path, sol.iterations) == (
            "optimal", "polish", 0), f"seed {seed}"
        assert len(polish) == 1 and sol is polish[0][1]
        np.testing.assert_allclose(sol.z, z_star, atol=1e-9,
                                   err_msg=f"seed {seed}")
        np.testing.assert_array_equal(sol.lam, 0.0)
    assert [steps for _, (_, _, steps) in dual] == [0] * 10


def _tiny_row_qp():
    # 1e-9 * z0 >= 1e-9 * 0.1 cuts the free minimiser 0 off by 0.1 in
    # its own units, but only by 1e-10 in the certificate's, inside
    # _TOL_FEAS * (1 + |l|_inf)
    return ConvexQP(P=np.eye(2), q=np.zeros(2),
                    G=np.array([[1e-9, 0.0], [0.0, 1.0]]),
                    l=np.array([1e-10, -1.0]))


def test_tiny_row_violated_by_the_free_minimiser_reaches_the_dual_method(
        monkeypatch):
    # the dual method works on the normalised rows, so it adds the tiny
    # row, and the polish of that row is the face z0 = 0.1
    polish = _record_calls(monkeypatch, "_polish")
    sol = solve(_tiny_row_qp())
    assert (sol.status, sol.path, sol.iterations) == ("optimal", "polish", 1)
    assert sol is polish[0][1]
    np.testing.assert_allclose(sol.z, [0.1, 0.0], rtol=0, atol=1e-8)


def test_tiny_row_violated_by_the_polish_rejects_it(monkeypatch):
    # with the dual method patched to hold no row, the polish is the free
    # minimiser 0; the certificate in the original units passes it, but
    # it violates the tiny row in the scaled units, so it is rejected and
    # the answer is the dual method's point
    def no_row(factor, Gs, ls, free):
        return free, np.zeros(ls.size), 0

    monkeypatch.setattr(qp, "_dual_active_set", no_row)
    polish = _record_calls(monkeypatch, "_polish")
    sol = solve(_tiny_row_qp())
    assert [result for _, result in polish] == [None]
    assert (sol.status, sol.path, sol.iterations) == ("optimal", "dual", 0)
    np.testing.assert_array_equal(sol.z, 0.0)


def test_polish_of_dependent_rows_returns_none():
    # two equal held rows make the triangle R of the polish singular: the
    # solve is not finite, and the polish returns None before certifying,
    # with no exception or warning
    problem = ConvexQP(P=np.eye(2), q=np.zeros(2),
                       G=np.array([[1.0, 0.0], [1.0, 0.0]]), l=np.ones(2))

    def certify(z, lam):
        raise AssertionError("a non-finite polish was certified")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert qp._polish(problem._factor, problem.G, problem.l,
                          np.ones(2, dtype=bool), certify, np.zeros(2)) is None


def _seed1_mc_record():
    """The seed-1 n=200 dc(0.9, 0.9) Monte Carlo record and its config."""
    protocol = McProtocol()
    n = 200
    g_true = true_system(protocol, n)
    u = gen_binary_input(n, np.random.SeedSequence([1, 0]))
    y_clean = simulate_output(g_true, u, n)
    y = add_noise(y_clean, 20.0, np.random.SeedSequence([1, 1]))
    config = PositiveIdConfig(kernel=KernelSpec.dc(0.9, 0.9), rho=0.98,
                              lam=10.0 * noise_variance(y_clean, 20.0))
    return config, TimeSeriesData.at_rest(u, y)


def test_identify_with_no_binding_row_runs_no_newton_step(monkeypatch):
    # the seed-1 n=200 dc(0.9, 0.9) Monte Carlo record ends with no
    # active positivity row, so the dual method, whose steps are Newton
    # steps on the face of its active rows, takes none in its fit
    config, data = _seed1_mc_record()
    dual = _record_calls(monkeypatch, "_dual_active_set")
    model = identify(config, data)
    diag = model.diagnostics
    assert (diag.qp_status, diag.qp_path, diag.qp_iterations) == (
        "optimal", "polish", 0)
    assert len(dual) == diag.iterations
    assert [steps for _, (_, _, steps) in dual] == [0] * diag.iterations


def test_nonneg_ls_of_the_monte_carlo_record_lands_on_the_nnls_face():
    # baseline c on the seed-1 Monte Carlo record, 200 samples and 125
    # taps, and the same problem as the QP (2 U'U, -2 U'y, I, 0): the
    # dual method adds the binding taps, and the polish of its rows is
    # the exact NNLS face, the one scipy's Lawson-Hanson solver finds
    _, data = _seed1_mc_record()
    U = input_weight_matrix(data, 125)
    sol = solve(ConvexQP(P=2.0 * (U.T @ U), q=-2.0 * (U.T @ data.outputs),
                         G=np.eye(125), l=np.zeros(125)))
    assert (sol.status, sol.path, sol.iterations) == ("optimal", "polish", 6)
    oracle, _ = scipy.optimize.nnls(U, data.outputs)
    np.testing.assert_allclose(sol.z, oracle, rtol=0, atol=1e-9)
    np.testing.assert_allclose(nonneg_ls(data, 125).values, oracle,
                               rtol=0, atol=1e-9)


def test_near_square_nnls_qps_are_refused_or_certified():
    # the QPs (2 U'U, -2 U'y, I, 0) of the near-square NNLS records have a
    # singular or near-singular P, on which the polish's QR of L^-1 Ga'
    # is least accurate: ConvexQP refuses the 356 whose factor is
    # rank-deficient, and every QP it accepts is certified within
    # 1e-6 |y|^2 of scipy's Lawson-Hanson NNLS, compared on the residuals
    refused = 0
    for draw, (_, U, y) in enumerate(_near_square_records()):
        n_g = U.shape[1]
        try:
            problem = ConvexQP(P=2.0 * (U.T @ U), q=-2.0 * (U.T @ y),
                               G=np.eye(n_g), l=np.zeros(n_g))
        except ConfigError:
            refused += 1
            continue
        sol = solve(problem)
        oracle, _ = scipy.optimize.nnls(U, y)
        excess = np.sum((U @ sol.z - y) ** 2) - np.sum((U @ oracle - y) ** 2)
        assert sol.status == "optimal", f"draw {draw}"
        assert excess <= 1e-6 * (y @ y), f"draw {draw}: {excess:.3e}"
    assert refused == 356


def _qps_of(fit, records):
    """The QPs and solutions of ``fit`` on each ``(base, data)`` record,
    whether the fit succeeds or not."""
    with pytest.MonkeyPatch.context() as patch:
        solves = _record_calls(patch, "solve")
        for base, data in records:
            try:
                fit(base, data)
            except SolverError:
                pass
    return [(args[0], sol) for args, sol in solves]


def _mis_specified_qps(fits, fit=identify):
    """The QPs of mis-specified fits by ``fit`` (``identify`` unless
    given), the fits given as ``(seed, n)``; see :func:`_qps_of`."""
    return _qps_of(fit, [_mis_specified_record(seed, n) for seed, n in fits])


def test_finite_response_draw_159_is_certified_on_the_dual_path():
    # the polish of the rows the dual method holds is rejected on the QP
    # of finite-response draw 159, and the dual method's own point is
    # certified
    [(_, sol)] = _qps_of(DRAW_FITS["finite"], [_random_draw(159)])
    assert (sol.status, sol.path) == ("optimal", "dual")
    assert sol.iterations > 0


def test_finite_response_draw_58_ends_well_before_the_step_cap():
    # draw 58 is degenerate: two nearly parallel rows are violated by
    # about _VIOLATION in turn, and when the step length came from
    # another sum than the slack that chose the row, the signs could
    # disagree and the method cycled between the two to its step cap
    [(problem, sol)] = _qps_of(DRAW_FITS["finite"], [_random_draw(58)])
    assert (sol.status, sol.path) == ("optimal", "dual")
    assert 0 < sol.iterations < problem.dim


def test_every_solve_runs_the_dual_method_and_one_polish(monkeypatch):
    # mis-specified fits, finite-response draws 58 (degenerate, answered
    # by the dual point) and 159, and random QPs whose first row binds
    problems = [problem for problem, _
                in _mis_specified_qps([(10, 80), (13, 50), (9, 80)])]
    problems += [problem for problem, _
                 in _qps_of(DRAW_FITS["finite"],
                            [_random_draw(58), _random_draw(159)])]
    problems += [_binding_random_qp(seed, 6, 5) for seed in range(60)]
    dual = _record_calls(monkeypatch, "_dual_active_set")
    polish = _record_calls(monkeypatch, "_polish")
    paths = Counter()
    for problem in problems:
        dual.clear()
        polish.clear()
        sol = solve(problem)
        assert (len(dual), len(polish)) == (1, 1)
        assert sol is polish[0][1] or sol.path == "dual"
        paths[sol.path] += 1
    assert paths["polish"] >= 1 and paths["dual"] >= 2


@pytest.mark.parametrize("row", [[1e-9, 1.0, 1.0], [1.0, 1e-7, 1e5]],
                         ids=["tiny", "spread"])
def test_row_scaling_leaves_the_answer_unchanged(row):
    # the solver normalises the rows before it iterates and polishes, so
    # rows scaled over many orders of magnitude give the same argmin
    row = np.array(row)
    for seed in range(200):
        problem = _random_strictly_convex(np.random.default_rng(seed), 5, 3)
        sol = solve(ConvexQP(P=problem.P, q=problem.q,
                             G=row[:, None] * problem.G, l=row * problem.l))
        assert sol.status == "optimal", f"seed {seed}: {sol.status}"
        np.testing.assert_allclose(sol.z, solve(problem).z, rtol=0,
                                   atol=1e-8, err_msg=f"seed {seed}")


def test_full_rank_identify_qp_factors_p_once(monkeypatch):
    # the first QP of the seed-1 n=200 fit has no binding row: one
    # pivoted Cholesky both proves P definite and gives the certified
    # minimiser, with no QR of held rows
    config, data = _seed1_mc_record()
    mats = assemble_core(config.kernel, data,
                         initial_constraint_horizon(data))
    basis = assemble_polynomial_blocks(data, config.rho, 1,
                                       a_min=config.a_min)
    dpstrf = _record_calls(monkeypatch, "dpstrf", scipy.linalg.lapack)
    qr = _record_calls(monkeypatch, "qr", np.linalg)
    problem = build_qp(config.lam, mats, basis)
    sol = solve(problem)
    assert [args[0].shape for args, _ in dpstrf] == [(problem.dim,) * 2]
    assert (sol.status, sol.path, sol.iterations) == ("optimal", "polish", 0)
    assert qr == []


_ROWS = {"G": np.eye(2), "l": np.full(2, -1.0)}


@pytest.mark.parametrize("P", [
    [[1.0, 0.0], [0.0, -1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[2.0, 0.0], [0.0, -0.5]],
], ids=["diag", "zero-diagonal", "negative-diagonal"])
def test_indefinite_p_is_rejected(P, tmp_path):
    with pytest.raises(ConfigError, match="not positive definite"):
        ConvexQP(P=np.array(P), q=np.zeros(2), **_ROWS)
    # a dump of it does not load either
    path = tmp_path / "problem.qp"
    _write_archive(path, {"P": np.array(P), "q": np.zeros(2), **_ROWS})
    with pytest.raises(ConfigError, match="not positive definite"):
        _load_dump(path)


def _old_rule_accepts(P):
    # the eigenvalue rule this factorisation replaced
    eigs = np.linalg.eigvalsh(P)
    return eigs[0] >= -1e-8 * max(eigs[-1], 1.0)


@pytest.mark.parametrize("P", [
    [[1e9, 0.0], [0.0, -1.0]],
    [[1e-10, 2e-10], [2e-10, 1e-10]],
    [[1.0, 1e-6 * (1.0 + 1e-6)], [1e-6 * (1.0 + 1e-6), 1e-12]],
], ids=["large-spread", "below-unit-scale", "badly-scaled-pair"])
def test_indefinite_p_the_scale_bound_rule_accepted_is_rejected(P):
    # the rule is scale-free: a negative eigenvalue counts against the
    # Jacobi-scaled P, not against max(largest eigenvalue, 1)
    P = np.array(P)
    assert _old_rule_accepts(P)
    with pytest.raises(ConfigError, match="not positive definite"):
        ConvexQP(P=P, q=np.zeros(2), **_ROWS)


def _random_symmetric(rng, kind):
    """A symmetric matrix of the given kind, rows and columns scaled by
    factors from 1e-6 to 1e6."""
    d = int(rng.integers(2, 9))
    if kind == "indefinite":
        while True:
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            lam = rng.uniform(0.1, 1.0, d)
            lam[:rng.integers(1, d)] *= -1.0
            A = (Q * lam) @ Q.T
            if np.all(np.diag(A) > 0.0):
                break
    else:
        rank = d + 2 if kind == "psd" else int(rng.integers(1, d))
        B = rng.standard_normal((d, rank))
        A = B @ B.T
    s = 10.0 ** rng.uniform(-6.0, 6.0, d)
    return A * (s[:, None] * s[None, :])


def test_psd_verdict_matches_a_scaled_eigenvalue_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(210):
        kind = ("psd", "low-rank", "indefinite")[trial % 3]
        P = _random_symmetric(rng, kind)
        col = np.diag(P) ** -0.5
        oracle = np.linalg.eigvalsh(P * (col[:, None] * col[None, :]))[0]
        d = P.shape[0]
        rows = {"q": np.zeros(d), "G": np.eye(d), "l": np.full(d, -1.0)}
        # every case lies well clear of zero, where definiteness ends:
        # the low-rank and indefinite ones are rejected
        if kind == "psd":
            assert oracle >= 1e-3, f"trial {trial}"
            ConvexQP(P=P, **rows)
        else:
            assert oracle <= 1e-12, f"trial {trial}"
            with pytest.raises(ConfigError, match="not positive definite"):
                ConvexQP(P=P, **rows)
