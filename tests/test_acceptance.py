"""Release acceptance gate: eleven numbered criteria, one test each.

Each test prints a single pass line with its headline margin so the run
log reads as a checklist.  Criterion 9 needs the real heating record and
skips itself when the file is absent (set POSID_HEATING_DATA or drop the
CSV at data/heating.csv).
"""
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from posid.assembly import assemble_core, assemble_polynomial_blocks
from posid.estimator import PositiveIdConfig, build_qp, identify, \
    reconstruct_h
from posid.experiments import (HeatingConfig, McConfig, McProtocol,
                               add_noise, gen_binary_input, noise_variance,
                               run_heating, run_monte_carlo, simulate_output,
                               true_system)
from posid.extensions import (FiniteResponseConfig, OscillatingPoleConfig,
                              RepeatedPoleConfig, identify_finite_response,
                              identify_oscillating_poles,
                              identify_repeated_pole)
from posid.kernels import KernelSpec, domination_bound, gram, window_kernel
from posid.qp import ConvexQP, SolveOptions, solve
from posid.signals import (ImpulseResponse, TimeSeriesData,
                           hankel_numerical_rank)

from test_qp import _active_set_oracle

from posid.cli import main as cli_main


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS ({detail})")


def _mc_instance(n, seed, snr_db=20.0):
    protocol = McProtocol()
    g_true = true_system(protocol, n)
    u = gen_binary_input(n, np.random.SeedSequence([seed, 0]))
    y_clean = simulate_output(g_true, u, n)
    y = add_noise(y_clean, snr_db, np.random.SeedSequence([seed, 1]))
    sigma2 = noise_variance(y_clean, snr_db)
    return TimeSeriesData.at_rest(u, y), sigma2


def test_criterion_01_tc_single_iteration():
    # TC kernel on at-rest data: the first constraint horizon already
    # covers the certified width, so the loop accepts immediately
    worst = 0.0
    for seed in range(20):
        data, sigma2 = _mc_instance(200, seed)
        config = PositiveIdConfig(kernel=KernelSpec.tc(0.9), rho=0.98,
                                  lam=10.0 * sigma2, horizon=400)
        start = time.perf_counter()
        model = identify(config, data)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert model.diagnostics.iterations == 1, (
            f"seed {seed}: took {model.diagnostics.iterations} iterations")
        assert model.diagnostics.qp_status == "optimal"
        assert elapsed < 5.0, f"seed {seed}: {elapsed:.2f}s"
    _report(1, f"20 instances, single iteration, worst {worst:.2f}s")


def test_criterion_02_constraint_horizon_stability():
    opts = SolveOptions(tol_feas=1e-10, tol_gap=1e-9)
    worst = 0.0
    for seed in range(10):
        data, sigma2 = _mc_instance(100, 100 + seed)
        config = PositiveIdConfig(kernel=KernelSpec.tc(0.9), rho=0.98,
                                  lam=10.0 * sigma2)
        basis = assemble_polynomial_blocks(data, config.rho, 1)
        solutions = []
        for m in (100, 150):
            mats = assemble_core(config.kernel, data, m)
            sol = solve(build_qp(config, mats, basis), opts)
            assert sol.status == "optimal"
            h = reconstruct_h(sol.z[1:], config.kernel, data, m, 300)
            g = sol.z[0] * config.rho ** np.arange(300) + h.values
            solutions.append(np.concatenate([[sol.z[0]], g]))
        diff = float(np.max(np.abs(solutions[0] - solutions[1])))
        worst = max(worst, diff)
        assert diff <= 1e-6, f"seed {seed}: sup change {diff:.3e}"
    _report(2, f"10 instances, worst (a, g) change {worst:.3e} <= 1e-6")


def _random_feasible_qp(rng, d, n_ineq):
    # anchor the thresholds below a random interior point so the
    # inequality system is never accidentally empty
    root = rng.standard_normal((d, d))
    P = root.T @ root + d * np.eye(d)
    q = rng.standard_normal(d)
    G = rng.standard_normal((n_ineq, d))
    z0 = rng.standard_normal(d)
    l = G @ z0 - rng.uniform(0.1, 1.0, size=n_ineq)
    return ConvexQP(P=P, q=q, G=G, l=l)


def test_criterion_03_solver_matches_enumeration():
    rng = np.random.default_rng(17)
    tight = SolveOptions(tol_feas=1e-11, tol_gap=1e-11)
    worst_z = worst_obj = 0.0
    for trial in range(30):
        d = int(rng.integers(2, 9))
        n_ineq = int(rng.integers(1, 7))
        problem = _random_feasible_qp(rng, d, n_ineq)
        z_star, obj_star = _active_set_oracle(problem)
        sol = solve(problem, tight)
        assert sol.status == "optimal", f"trial {trial}: {sol.status}"
        dz = float(np.max(np.abs(sol.z - z_star)))
        dobj = abs(sol.objective - obj_star)
        worst_z = max(worst_z, dz)
        worst_obj = max(worst_obj, dobj)
        assert dz <= 1e-7, f"trial {trial}: argmin off by {dz:.3e}"
        assert dobj <= 1e-7, f"trial {trial}: objective off by {dobj:.3e}"
    _report(3, f"30 instances d<=8, worst argmin {worst_z:.3e}, "
               f"objective {worst_obj:.3e}")


def test_criterion_04_unconstrained_normal_equations():
    # representer coefficients are never unique (the kernel sections are
    # rank deficient in sample space), so the equivalence is stated on
    # the identifiable quantities: amplitude, fitted outputs, response
    # samples, objective value
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        n = 30
        u = rng.choice([-1.0, 1.0], size=n)
        g_true = 0.9 ** np.arange(n, dtype=float)
        y = np.convolve(u, g_true)[:n] + 0.1 * rng.standard_normal(n)
        data = TimeSeriesData.at_rest(u, y)
        config = PositiveIdConfig(kernel=KernelSpec.tc(0.6), rho=0.9,
                                  lam=0.5)
        m = 12
        mats = assemble_core(config.kernel, data, m)
        basis = assemble_polynomial_blocks(data, config.rho, 1)
        problem = build_qp(config, mats, basis)
        free = solve(ConvexQP(P=problem.P, q=problem.q),
                     SolveOptions(tol_feas=1e-12, tol_gap=1e-12))
        assert free.status == "optimal"
        M = np.hstack([basis.B, mats.O, mats.L])
        reg = np.zeros((M.shape[1], M.shape[1]))
        reg[1:, 1:] = mats.gamma()
        oracle, *_ = np.linalg.lstsq(M.T @ M + config.lam * reg,
                                     M.T @ y, rcond=None)

        def rel(got, ref):
            got, ref = np.atleast_1d(got), np.atleast_1d(ref)
            return float(np.max(np.abs(got - ref))
                         / max(1.0, float(np.max(np.abs(ref)))))

        h_free = reconstruct_h(free.z[1:], config.kernel, data, m, 40)
        h_star = reconstruct_h(oracle[1:], config.kernel, data, m, 40)
        obj_free = 0.5 * free.z @ problem.P @ free.z + problem.q @ free.z
        obj_star = 0.5 * oracle @ problem.P @ oracle + problem.q @ oracle
        errs = [rel(free.z[0], oracle[0]), rel(M @ free.z, M @ oracle),
                rel(h_free.values, h_star.values), rel(obj_free, obj_star)]
        worst = max(worst, *errs)
        assert max(errs) <= 1e-8, f"seed {seed}: relative error {errs}"
    _report(4, f"3 instances, worst relative deviation {worst:.3e} <= 1e-8")


def test_criterion_05_finite_support_coefficient_space():
    rng = np.random.default_rng(3)
    tight = SolveOptions(tol_feas=1e-11, tol_gap=1e-11)
    worst = 0.0
    for n_g in (8, 14, 20):
        n = 50
        u = rng.choice([-1.0, 1.0], size=n)
        g_true = np.abs(rng.standard_normal(n_g)) * 0.8 ** np.arange(n_g)
        y = np.convolve(u, g_true)[:n] + 0.05 * rng.standard_normal(n)
        data = TimeSeriesData.at_rest(u, y)
        kernel = window_kernel(KernelSpec.tc(0.7), n_g)
        lam = 1e-2
        est = identify_finite_response(
            FiniteResponseConfig(kernel=kernel, lam=lam,
                                 solve_options=tight), data)
        # direct QP over the response samples themselves
        T = scipy.linalg.toeplitz(u, np.zeros(n_g))
        K = gram(kernel, np.arange(n_g), np.arange(n_g))
        K_inv = np.linalg.solve(K, np.eye(n_g))
        K_inv = 0.5 * (K_inv + K_inv.T)
        direct = solve(ConvexQP(P=2.0 * (T.T @ T + lam * K_inv),
                                q=-2.0 * (T.T @ y), G=np.eye(n_g),
                                l=np.zeros(n_g)), tight)
        assert direct.status == "optimal"
        diff = float(np.max(np.abs(est.values - direct.z)))
        worst = max(worst, diff)
        assert diff <= 1e-6, f"n_g {n_g}: sup difference {diff:.3e}"
    _report(5, f"n_g in (8, 14, 20), worst sup difference {worst:.3e}")


def test_criterion_06_positivity_across_variants():
    rng = np.random.default_rng(11)

    def check(name, values, scale_hint=None):
        top = max(float(np.max(values)), 1e-30)
        low = float(np.min(values))
        assert low >= -1e-6 * top, f"{name}: min {low:.3e} vs max {top:.3e}"
        return low

    n = 60
    t = np.arange(n, dtype=float)
    u = rng.choice([-1.0, 1.0], size=n)

    def noisy(g):
        y = np.convolve(u, g)[:n]
        return TimeSeriesData.at_rest(
            u, y + 1e-3 * np.linalg.norm(y) / np.sqrt(n)
            * rng.standard_normal(n))

    base = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.9, lam=1e-2)
    model = identify(base, noisy(0.9 ** t))
    check("base", model.g.values)

    rep_base = PositiveIdConfig(kernel=KernelSpec.tc(0.5), rho=0.8,
                                lam=1e-2)
    rep = identify_repeated_pole(RepeatedPoleConfig(base=rep_base, n=2),
                                 noisy((1.0 + 0.5 * t) * 0.8 ** t))
    check("repeated", rep.g.values)

    osc = identify_oscillating_poles(
        OscillatingPoleConfig(base=PositiveIdConfig(
            kernel=KernelSpec.tc(0.6), rho=0.9, lam=1e-2), n=2),
        noisy(0.9 ** t * 0.5 * (1.0 + np.cos(np.pi * t))))
    check("oscillating", osc.g.values)
    assert osc.equality_residual <= 1e-8, (
        f"phase equality residual {osc.equality_residual:.3e}")

    fir = np.zeros(12)
    fir[:6] = [1.0, 0.5, 0.2, 0.0, 0.3, 0.1]
    est = identify_finite_response(
        FiniteResponseConfig(kernel=window_kernel(KernelSpec.tc(0.7), 12),
                             lam=1e-2), noisy(fir))
    check("finite", est.values)
    _report(6, "base, repeated, oscillating and finite variants all "
               "nonnegative; phase equality residual "
               f"{osc.equality_residual:.1e}")


def test_criterion_07_monte_carlo_ordering():
    protocol = McProtocol(runs=30, n_d=200, snr_levels_db=(20.0,), seed=0)
    start = time.perf_counter()
    report = run_monte_carlo(protocol, config=McConfig())
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"study took {elapsed:.0f}s"
    medians = {s.method: float(np.median(s.fits)) for s in report.stats}
    mses = {s.method: s.mse for s in report.stats}
    failures = sum(s.failures for s in report.stats)
    assert failures == 0, f"{failures} runs failed"
    for other in ("b", "c", "d", "e"):
        assert medians["g"] > medians[other], (
            f"median fit g {medians['g']:.2f} not above "
            f"{other} {medians[other]:.2f}")
    assert mses["g"] < mses["e"], (
        f"mse g {mses['g']:.4f} not below e {mses['e']:.4f}")
    _report(7, f"median fits g {medians['g']:.2f} > "
               f"b {medians['b']:.2f}, c {medians['c']:.2f}, "
               f"d {medians['d']:.2f}, e {medians['e']:.2f}; "
               f"mse g {mses['g']:.4f} < e {mses['e']:.4f}; "
               f"{elapsed:.0f}s")


def test_criterion_08_near_noiseless_recovery():
    worst = 100.0
    for seed in range(5):
        protocol = McProtocol(runs=1, n_d=200, snr_levels_db=(300.0,),
                              seed=seed)
        report = run_monte_carlo(protocol, methods=("g",),
                                 config=McConfig(workers=1))
        fit = report.stats[0].fits[0]
        worst = min(worst, fit)
        assert fit >= 99.0, f"seed {seed}: fit {fit:.3f}"
    _report(8, f"5 seeds at 300 dB, worst fit {worst:.3f} >= 99")


def test_criterion_09_heating_record():
    path = os.environ.get("POSID_HEATING_DATA")
    if path is None:
        candidate = Path(__file__).resolve().parent.parent / "data" \
            / "heating.csv"
        path = str(candidate) if candidate.exists() else None
    if path is None or not Path(path).exists():
        pytest.skip("heating record not supplied (set POSID_HEATING_DATA "
                    "or add data/heating.csv)")
    report = run_heating(path, methods=("g", "e"), config=HeatingConfig())
    fits = dict(report.fits)
    assert abs(fits["g"] - 92.2) <= 3.0, f"method g fit {fits['g']:.2f}"
    assert abs(fits["e"] - 89.7) <= 3.0, f"method e fit {fits['e']:.2f}"
    _report(9, f"heating fits g {fits['g']:.1f} (92.2 +- 3.0), "
               f"e {fits['e']:.1f} (89.7 +- 3.0)")


def test_criterion_10_kernel_theory():
    rng = np.random.default_rng(23)
    kernels = {"tc": KernelSpec.tc(0.7), "dc": KernelSpec.dc(0.7, 0.6),
               "ss": KernelSpec.ss(0.7),
               "finite": window_kernel(KernelSpec.tc(0.7), 25)}
    for name, kernel in kernels.items():
        for _ in range(5):
            limit = 24 if name == "finite" else 60
            pts = np.unique(rng.integers(0, limit + 1, size=12))
            K = gram(kernel, pts, pts)
            eigs = np.linalg.eigvalsh(0.5 * (K + K.T))
            floor = -1e-10 * max(1.0, float(eigs[-1]))
            assert eigs[0] >= floor, (
                f"{name}: Gram eigenvalue {eigs[0]:.3e}")
    t = np.arange(201, dtype=float)
    for name in ("tc", "dc", "ss"):
        kernel = kernels[name]
        bound = domination_bound(kernel)
        diag = kernel.eval(t, t)
        cap = bound.c * bound.rho_d ** (2.0 * t)
        assert np.all(diag <= cap * (1.0 + 1e-9) + 1e-300), (
            f"{name}: domination violated")
    ranks = []
    for lag in (1, 3, 5):
        section = KernelSpec.tc(0.7).eval(np.arange(23, dtype=float),
                                          float(lag))
        rank = hankel_numerical_rank(ImpulseResponse(section), 12)
        ranks.append(rank)
        assert rank <= lag + 1, f"section {lag}: Hankel rank {rank}"
    _report(10, "Gram PSD for all families, domination holds to t=200, "
                f"section Hankel ranks {ranks} within bound")


def test_criterion_11_deterministic_artifacts(tmp_path):
    args = ["montecarlo", "--runs", "3", "--n-d", "60", "--snr", "10", "20",
            "--methods", "b", "e", "g", "--seed", "0", "--workers", "1",
            "--n-g", "40", "--horizon", "100"]
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert cli_main(args + ["--out-dir", str(first)]) == 0
    assert cli_main(args + ["--out-dir", str(second)]) == 0
    for name in ("metrics.csv", "fits.csv"):
        a = (first / name).read_bytes()
        b = (second / name).read_bytes()
        assert a == b, f"{name} differs between identical seeded runs"
    _report(11, "metrics.csv and fits.csv byte-identical across two runs")
