"""Robustness ratchet: the mis-specified short-record fits.

The Monte Carlo system with a 0.8 pole is fitted as if its pole were
0.98 (see ``test_extensions._mis_specified_record``): seeds 0-14,
n in {50, 80}, through ``identify`` and the repeated and oscillating
variants with n=2, 90 fits in all.  Their QPs are degenerate, and some
of them still end in ``SolverError``.  The failures per estimator may
not rise above the bounds below; a change that lowers a count lowers
its bound with it.  Every fit that succeeds must be certified: an
optimal QP and a response nonnegative (to ``neg_tol``) on ``[0, 10 m0)``,
ten times the horizon the fit itself checks, so the claim that ``m0``
makes nonnegativity global is tested rather than assumed.
Every QP solve reported optimal must meet its own tolerances in an
independently recomputed KKT certificate.

Seeded random draws of kernel, pole, regularisation and record then
check what every returned model must satisfy, in every variant: an
optimal QP, nonnegativity on ``[0, 10 m0)`` unless acceptance was forced, a
reconstruction equal to the checked response bit for bit, before and
after a pickle round trip, and ``SolverError`` as the only failure.  The
failures per estimator may not rise above their own bounds either.
"""
import pickle

import numpy as np
import pytest

from posid import experiments, qp
from posid.errors import SolverError
from posid.estimator import PositiveIdConfig, identify
from posid.extensions import (FiniteResponseConfig, OscillatingPoleConfig,
                              RepeatedPoleConfig, identify_finite_response,
                              identify_oscillating_poles,
                              identify_repeated_pole)
from posid.kernels import KernelSpec, window_kernel
from posid.signals import TimeSeriesData

from test_extensions import _mis_specified_record

ESTIMATORS = {
    "identify": identify,
    "repeated": lambda base, data: identify_repeated_pole(
        RepeatedPoleConfig(base, 2), data),
    "oscillating": lambda base, data: identify_oscillating_poles(
        OscillatingPoleConfig(base, 2), data),
}
# Failures of the 90 fits per estimator, with BLAS at one thread: none
# fails.  The dual active-set method certifies the four QPs that failed
# before it replaced the interior point: identify (8, 80), (10, 80) and
# (13, 50), and repeated (13, 50).
FAILURE_BOUNDS = {"identify": 0, "repeated": 0, "oscillating": 0}


@pytest.fixture(scope="module")
def runs():
    """The fits and every QP solve they made.

    Returns ``(outcomes, solves)``: ``outcomes`` maps ``(estimator, seed,
    n)`` to the model, or ``None`` on SolverError; ``solves`` lists
    ``(key, problem, solution)`` for each ``qp.solve`` call.
    """
    out = {}
    solves = []
    real_solve = qp.solve
    key = None

    def recording(problem):
        solution = real_solve(problem)
        solves.append((key, problem, solution))
        return solution

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qp, "solve", recording)
        for seed in range(15):
            for n in (50, 80):
                base, data = _mis_specified_record(seed, n)
                for name, fit in ESTIMATORS.items():
                    key = (name, seed, n)
                    try:
                        out[key] = fit(base, data)
                    except SolverError:
                        out[key] = None
    return out, solves


def _min_to_ten_m0(model):
    """The least response value on ``[0, 10 m0)``."""
    m0 = model.diagnostics.m0
    return model.reconstruct(max(10 * m0, model.g.horizon)).values[
        :10 * m0].min()


@pytest.fixture(scope="module")
def outcomes(runs):
    """``(estimator, seed, n) -> model``, or ``None`` on SolverError."""
    return runs[0]


def test_failure_counts_do_not_rise(outcomes):
    failed = {name: sorted((seed, n) for (est, seed, n), model
                           in outcomes.items() if est == name and
                           model is None)
              for name in ESTIMATORS}
    for name, bound in FAILURE_BOUNDS.items():
        assert len(failed[name]) <= bound, (name, failed[name])


def test_every_success_is_certified(outcomes):
    for key, model in outcomes.items():
        if model is None:
            continue
        diag = model.diagnostics
        assert diag.qp_status == "optimal", key
        assert _min_to_ten_m0(model) >= -diag.neg_tol, key


def test_every_optimal_solve_meets_its_tolerances(runs):
    certified = 0
    for key, problem, solution in runs[1]:
        if solution.status != qp.OPTIMAL:
            continue
        certified += 1
        report = qp.kkt_certificate(problem, solution)
        q_scale = 1.0 + np.max(np.abs(problem.q))
        l_scale = 1.0 + np.max(np.abs(problem.l))
        assert report.stationarity <= qp._TOL_FEAS * q_scale, key
        assert report.primal <= qp._TOL_FEAS * l_scale, key
        assert report.dual_feasibility == 0.0, key
    # every successful fit contributes at least its last solve
    assert certified >= sum(model is not None
                            for model in runs[0].values())


DRAW_FITS = {
    **ESTIMATORS,
    "finite": lambda base, data: identify_finite_response(
        FiniteResponseConfig(window_kernel(base.kernel, 30), base.lam), data),
}
# Failures of the 400 draws per estimator, with BLAS at one thread: none
# fails, with BLAS at two threads neither.  Draw 341 (ss(0.967)) in the
# three pole estimators and finite-response draws 34, 58, 66, 156, 159,
# 175, 196, 227, 344, 346 and 371 failed before the dual active-set
# method replaced the interior point.
DRAW_FAILURE_BOUNDS = {"identify": 0, "repeated": 0, "oscillating": 0,
                       "finite": 0}


def _random_draw(draw):
    """Fit settings and record of one seeded draw.

    The kernel's domination rate is a fraction of ``rho`` below one, so
    every draw lies inside the coupling; a quarter of them lie within 2%
    of its boundary.  The record comes from the Monte Carlo system with
    its own random pole, so the fitted pole is mostly mis-specified.
    """
    rng = np.random.default_rng([2111, draw])
    rho = rng.uniform(0.5, 0.99)
    near = rng.random() < 0.25
    rho_d = rho * (rng.uniform(0.98, 0.999) if near
                   else rng.uniform(0.3, 0.98))
    kind = rng.choice(["tc", "dc", "ss"])
    if kind == "ss":
        kernel = KernelSpec.ss(rho_d ** (2.0 / 3.0))
    elif kind == "dc":
        kernel = KernelSpec.dc(rho_d ** 2, rng.uniform(-1.0, 1.0))
    else:
        kernel = KernelSpec.tc(rho_d ** 2)
    n = int(rng.integers(30, 121))
    truth = experiments.true_system(
        experiments.McProtocol(rho_true=rng.uniform(0.5, 0.99),
                               beta_true=rng.uniform(0.5, 0.95)), n)
    u = rng.choice([-1.0, 1.0], size=n)
    clean = experiments.simulate_output(truth, u, n)
    snr_db = rng.uniform(10.0, 40.0)
    y = clean + np.sqrt(experiments.noise_variance(clean, snr_db)) \
        * rng.standard_normal(n)
    base = PositiveIdConfig(kernel=kernel, rho=rho,
                            lam=10.0 ** rng.uniform(-4.0, 1.0))
    return base, TimeSeriesData.at_rest(u, y)


@pytest.mark.parametrize("name", sorted(DRAW_FITS))
def test_random_draws_return_certified_replayable_models(name):
    failed = []
    for draw in range(400):
        base, data = _random_draw(draw)
        try:
            model = DRAW_FITS[name](base, data)
        except SolverError:
            failed.append(draw)
            continue
        diag = model.diagnostics
        assert diag.qp_status == "optimal", draw
        if not diag.forced_accept:
            assert _min_to_ten_m0(model) >= -diag.neg_tol, draw
        horizon = model.g.horizon
        assert np.array_equal(model.reconstruct(horizon).values,
                              model.g.values), draw
        copy = pickle.loads(pickle.dumps(model))
        assert np.array_equal(copy.reconstruct(horizon).values,
                              model.g.values), draw
    assert len(failed) <= DRAW_FAILURE_BOUNDS[name], failed
