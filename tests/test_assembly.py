"""Data-matrix assembly tests against Toeplitz and convolution oracles."""
import numpy as np
import pytest
import scipy.linalg

from posid import assembly, estimator
from posid.assembly import (QPDataMatrices, _section_basis, assemble_core,
                            assemble_oscillation_blocks,
                            assemble_polynomial_blocks, input_weight_matrix,
                            periodic_modes, polynomial_modes, required_width)
from posid.errors import ConfigError
from posid.kernels import KernelSpec, gram, window_kernel
from posid.qp import solve
from posid.signals import ImpulseResponse, TimeSeriesData, convolve

from test_signals import toeplitz_operator


def _random_at_rest(rng, n):
    u = rng.standard_normal(n)
    y = rng.standard_normal(n)
    return TimeSeriesData.at_rest(u, y)


def assemble_core_definitional(kernel, data, rho, m, sections):
    """Entry-by-entry assembly through explicit convolution calls.

    Slow reference for :func:`assemble_core` on the given sections:
    ``L[i, j]`` is the kernel section ``k(., sections[j])`` convolved with
    the input at sample time ``t_i``, ``K`` the Gram on the sections and
    ``rows`` the sections sampled on ``0 .. m``.  Also returns the
    simple-pole mode ``rho**t`` convolved with the input at every sample
    time.
    """
    width = required_width(data)
    times = data.sample_times
    L = np.zeros((times.size, len(sections)))
    b = np.zeros(times.size)
    mode = ImpulseResponse(rho ** np.arange(width, dtype=float))
    for j, s in enumerate(sections):
        section = ImpulseResponse(gram(kernel, np.arange(width), [s])[:, 0])
        for i, t in enumerate(times):
            L[i, j] = convolve(section, data, int(t))
    for i, t in enumerate(times):
        b[i] = convolve(mode, data, int(t))
    mats = QPDataMatrices(L=L, K=gram(kernel, sections, sections),
                          rows=gram(kernel, np.arange(m + 1), sections),
                          sections=np.asarray(sections), y=data.outputs.copy(),
                          m=int(m))
    return mats, b


def oscillation_tables(n, rows):
    """Root-of-unity phase tables for period ``n``.

    Returns ``(Vr, Vi)``: the real and imaginary parts of
    ``omega**(t * k)`` with ``omega = exp(2 pi i / n)`` on
    ``t < rows, k < n``.
    """
    angles = 2.0 * np.pi * np.outer(np.arange(rows), np.arange(n)) / n
    return np.cos(angles), np.sin(angles)


def weights_by_window(data, width):
    """:func:`input_weight_matrix` row by row from the reversed inputs."""
    w = np.zeros((data.n_samples, width))
    for i, t in enumerate(data.sample_times):
        window = data.inputs[t - data.t_start::-1]
        n = min(window.size, width)
        w[i, :n] = window[:n]
    return w


def phase_basis(data, rho, n, epsilon):
    """The oscillating poles over complex phase coefficients ``(a_r, a_i)``.

    Reference for the real-period basis: columns ``rho**t cos(2 pi k t / n)``
    then ``-rho**t sin(2 pi k t / n)`` give the real part of
    ``rho**t sum_k (a_r[k] + i a_i[k]) omega**(t k)``.  Over one period
    the ``eq`` rows are its imaginary part, which must vanish, and the
    ``floor`` rows its values; ``epsilon`` penalises every phase but the
    constant one.  Returns ``(B, modes, floor, eq, penalty)``.
    """
    def modes(rows):
        Vr, Vi = oscillation_tables(n, rows)
        decay = (rho ** np.arange(rows, dtype=float))[:, None]
        return np.hstack([decay * Vr, -(decay * Vi)])

    width = required_width(data)
    B = input_weight_matrix(data, width) @ modes(width)
    Vr, Vi = oscillation_tables(n, n)
    penalised = np.tile(np.r_[0.0, np.ones(n - 1)], 2)
    return (B, modes, np.hstack([Vr, Vi]), np.hstack([Vi, Vr]),
            epsilon * np.diag(penalised))


def test_input_weight_matrix_is_toeplitz_at_rest():
    rng = np.random.default_rng(0)
    data = _random_at_rest(rng, 9)
    np.testing.assert_allclose(input_weight_matrix(data, 9),
                               toeplitz_operator(data, 9))


def test_input_weight_matrix_sparse_sampling():
    u = np.arange(1.0, 8.0)   # times -2..4
    data = TimeSeriesData(np.array([0, 3]), np.zeros(2), u, t_start=-2)
    w = input_weight_matrix(data, 4)
    # row for t=0: u[0], u[-1], u[-2], then zero beyond the support
    np.testing.assert_allclose(w[0], [3.0, 2.0, 1.0, 0.0])
    np.testing.assert_allclose(w[1], [6.0, 5.0, 4.0, 3.0])
    assert required_width(data) == 6


def test_input_weight_matrix_matches_input_windows():
    # pre-history (t_start < 0), sparse sample times, widths below and
    # above the span, and inputs reaching past the last sample
    rng = np.random.default_rng(9)
    for _ in range(200):
        t_start = -int(rng.integers(0, 4))
        t_last = int(rng.integers(0, 15))
        times = np.arange(t_start, t_last + 1)
        keep = np.sort(rng.choice(times.size, size=int(
            rng.integers(1, times.size + 1)), replace=False))
        times = np.unique(np.r_[times[keep], t_last])
        span = t_last - t_start + 1
        inputs = rng.standard_normal(span + int(rng.integers(0, 5)))
        data = TimeSeriesData(times, rng.standard_normal(times.size),
                              inputs, t_start=t_start)
        for width in (1, max(1, span - 2), span, span + 3):
            assert np.array_equal(input_weight_matrix(data, width),
                                  weights_by_window(data, width))


def test_core_matches_definitional_assembly():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(12)
    data = TimeSeriesData(np.array([2, 3, 7, 11]), rng.standard_normal(4),
                          u, t_start=0)
    basis = assemble_polynomial_blocks(data, 0.6, n=1)
    for kernel in (KernelSpec.tc(0.8), KernelSpec.dc(0.7, -0.3)):
        # m = 5 keeps the sections at the data width, m = 14 extends them
        for m in (5, 14):
            fast = assemble_core(kernel, data, m=m)
            slow, b = assemble_core_definitional(kernel, data, 0.6, m,
                                                 fast.sections)
            np.testing.assert_allclose(fast.L, slow.L, atol=1e-10)
            np.testing.assert_allclose(fast.K, slow.K, atol=1e-12)
            np.testing.assert_allclose(fast.rows, slow.rows, atol=1e-12)
            np.testing.assert_allclose(basis.B[:, 0], b, atol=1e-12)
    np.testing.assert_allclose(basis.modes(6)[:, 0], 0.6 ** np.arange(6),
                               atol=1e-14)


def test_impulse_input_gives_plain_grams():
    # unit-impulse input makes the weight matrix the identity
    n = 6
    u = np.zeros(n)
    u[0] = 1.0
    data = TimeSeriesData.at_rest(u, np.zeros(n))
    kernel = KernelSpec.tc(0.9)
    mats = assemble_core(kernel, data, m=4)
    idx = np.arange(n)
    np.testing.assert_allclose(mats.L, gram(kernel, idx, idx), atol=1e-12)
    np.testing.assert_allclose(mats.K, gram(kernel, idx, idx), atol=1e-12)


def test_mode_output_vector_constant_input():
    # step input at rest: b_t is the geometric partial sum, b_0 = 1
    n = 8
    data = TimeSeriesData.at_rest(np.ones(n), np.zeros(n))
    b = assemble_polynomial_blocks(data, 0.5, n=1).B[:, 0]
    t = np.arange(n, dtype=float)
    np.testing.assert_allclose(b, (1.0 - 0.5 ** (t + 1)) / 0.5, atol=1e-12)
    assert b[0] == 1.0


def test_at_rest_L_is_toeplitz_times_gram():
    rng = np.random.default_rng(2)
    data = _random_at_rest(rng, 10)
    kernel = KernelSpec.tc(0.85)
    mats = assemble_core(kernel, data, m=3)
    T = toeplitz_operator(data, 10)
    idx = np.arange(10)
    np.testing.assert_allclose(mats.K, gram(kernel, idx, idx), atol=1e-12)
    np.testing.assert_allclose(mats.L, T @ gram(kernel, idx, idx),
                               atol=1e-10)


def test_section_gram_psd():
    rng = np.random.default_rng(3)
    data = _random_at_rest(rng, 8)
    mats = assemble_core(KernelSpec.dc(0.8, 0.4), data, m=6)
    eigs = np.linalg.eigvalsh(mats.K)
    assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)


def test_finite_kernel_caps_sections_at_support():
    # sections past the support are the zero function, so they are left
    # out whichever of the width and m + 1 is larger
    rng = np.random.default_rng(8)
    data = _random_at_rest(rng, 10)
    kernel = window_kernel(KernelSpec.tc(0.7), 4)
    for m in (2, 12):
        mats = assemble_core(kernel, data, m=m)
        assert mats.K.shape == (4, 4)
        table = gram(KernelSpec.tc(0.7), np.arange(4), np.arange(4))
        np.testing.assert_allclose(mats.K, table, atol=1e-14)
        np.testing.assert_allclose(
            mats.L, toeplitz_operator(data, 10)[:, :4] @ table, atol=1e-12)


# Pivot draws: (kernel family, beta range, gamma range or None).  The
# betas keep sqrt(beta) and beta**1.5 below the 0.98 pole of the fits.
_PIVOT_FAMILIES = {"tc": (KernelSpec.tc, (0.5, 0.95), None),
                   "dc+": (KernelSpec.dc, (0.5, 0.95), (0.1, 0.95)),
                   "dc-": (KernelSpec.dc, (0.5, 0.95), (-0.95, -0.1)),
                   "ss": (KernelSpec.ss, (0.7, 0.98), None)}


def _draw_kernel(rng, family):
    make, (lo, hi), gammas = _PIVOT_FAMILIES[family]
    beta = float(rng.uniform(lo, hi))
    if gammas is None:
        return make(beta)
    return make(beta, float(rng.uniform(*gammas)))


def _lapack_rank_tol(K):
    return K.shape[0] * np.finfo(float).eps * float(K.diagonal().max())


@pytest.mark.parametrize("family", sorted(_PIVOT_FAMILIES))
def test_dropped_sections_are_roundoff(family):
    # every dropped section lies in the span of the kept ones up to a
    # Schur-complement residual within LAPACK's rank tolerance
    rng = np.random.default_rng(sorted(_PIVOT_FAMILIES).index(family))
    for n in map(int, (40, *rng.integers(100, 801, size=3), 800)):
        kernel = _draw_kernel(rng, family)
        data = _random_at_rest(rng, n)
        mats = assemble_core(kernel, data, m=n)
        N = n + 1
        K = gram(kernel, np.arange(N), np.arange(N))
        J = mats.sections
        assert np.all(np.diff(J) > 0) and J[0] >= 0 and J[-1] < N
        C = scipy.linalg.cholesky(K[np.ix_(J, J)], lower=True)
        V = scipy.linalg.solve_triangular(C, K[J], lower=True)
        S = K - V.T @ V
        tol = _lapack_rank_tol(K)
        dropped = np.setdiff1d(np.arange(N), J)
        assert S.diagonal()[dropped].max(initial=0.0) <= tol, kernel
        assert np.abs(S).max() <= tol, kernel
        np.testing.assert_array_equal(mats.K, K[np.ix_(J, J)])
        np.testing.assert_array_equal(mats.rows, K[:, J])


def test_full_rank_gram_keeps_every_section():
    rng = np.random.default_rng(11)
    for n in (20, 80, 150, 200):
        data = _random_at_rest(rng, n)
        mats = assemble_core(KernelSpec.ss(0.97), data, m=n)
        np.testing.assert_array_equal(mats.sections, np.arange(n + 1))


@pytest.mark.parametrize("kernel, m", [
    (KernelSpec.dc(0.9, 0.9), 120),
    (window_kernel(KernelSpec.dc(0.8, -0.4), 150), 120),
    # m + 1 past the data width grows the sections to m + 1
    (KernelSpec.tc(0.8), 249)])
def test_cached_assembly_is_bit_identical_and_shared(kernel, m):
    rng = np.random.default_rng(12)
    records = [_random_at_rest(rng, 200) for _ in range(2)]
    cold = []
    for data in records:
        _section_basis.cache_clear()
        cold.append(assemble_core(kernel, data, m=m))
    _section_basis.cache_clear()
    first = assemble_core(kernel, records[0], m=m)
    hits = _section_basis.cache_info().hits
    second = assemble_core(kernel, records[1], m=m)
    assert _section_basis.cache_info().hits == hits + 1
    assert second.sections is first.sections
    for warm, ref in zip((first, second), cold):
        for name in ("L", "K", "rows", "sections"):
            assert np.array_equal(getattr(warm, name), getattr(ref, name))


def test_shared_arrays_are_read_only_and_the_cache_is_bounded():
    rng = np.random.default_rng(13)
    n = 120
    u = rng.choice([-1.0, 1.0], size=n)
    y = np.convolve(u, 0.98 ** np.arange(n))[:n] \
        + 0.1 * rng.standard_normal(n)
    data = TimeSeriesData.at_rest(u, y)
    config = estimator.PositiveIdConfig(kernel=KernelSpec.dc(0.9, 0.5),
                                        rho=0.98, lam=0.1)
    model = estimator.identify(config, data)
    mats = assemble_core(config.kernel, data, m=model.m)
    for shared in (mats.rows, mats.K, mats.sections, model.sections):
        with pytest.raises(ValueError):
            shared[...] = 0
    again = estimator.identify(config, data)
    assert again.sections is model.sections
    assert np.array_equal(again.w, model.w)
    assert np.array_equal(again.g.values, model.g.values)
    maxsize = _section_basis.cache_info().maxsize
    assert maxsize == 8
    small = _random_at_rest(rng, 10)
    for m in range(10, 10 + maxsize + 3):
        assemble_core(config.kernel, small, m=m)
    assert _section_basis.cache_info().currsize <= maxsize


# Kernels of the section-product test: every family over betas that
# include 0, dc over gammas that include -1, 0 and 1, and windows.
_PRODUCT_KERNELS = (
    [KernelSpec.tc(beta) for beta in (0.0, 0.3, 0.9)]
    + [KernelSpec.dc(beta, gamma) for beta in (0.0, 0.3, 0.9)
       for gamma in (-1.0, -0.95, 0.0, 0.9, 1.0)]
    + [KernelSpec.ss(beta) for beta in (0.0, 0.3, 0.97)]
    + [window_kernel(KernelSpec.dc(0.8, -0.4), 150),
       window_kernel(KernelSpec.ss(0.9), assembly._BLOCK + 3)])


@pytest.mark.parametrize(
    "kernel", _PRODUCT_KERNELS,
    ids=lambda k: "-".join(str(v) for v in (k.kind, k.beta, k.gamma, k.support)
                           if v is not None))
def test_section_product_matches_the_dense_product(kernel):
    # L is built from the kernels' semiseparable split by blocks of lags;
    # it equals the dense W K[:, J] to a few roundoffs of |W| |K[:, J]|
    # entrywise, and bit for bit when the lags fit in one block.  Both
    # products round: against an extended-precision product the split
    # stays within 6.5 eps |W| |K[:, J]| on these draws, the dense one
    # within 8.4 eps, and they differ by at most 7.2 eps
    rng = np.random.default_rng(7)
    block = assembly._BLOCK
    for n_sec in (block - 1, block, block + 1, 2 * block, 801):
        # the input starts before 0 and every other time is sampled
        t_start = -int(rng.integers(1, 6))
        times = np.arange(0, n_sec + t_start, 2)
        u = rng.standard_normal(times[-1] - t_start + 1)
        data = TimeSeriesData(times, rng.standard_normal(times.size), u,
                              t_start=t_start)
        mats = assemble_core(kernel, data, m=n_sec - 1)
        N = n_sec if kernel.support is None else min(n_sec, kernel.support)
        W = input_weight_matrix(data, N)
        cols = gram(kernel, np.arange(N), mats.sections)
        if N <= block:
            assert np.array_equal(mats.L, W @ cols), (kernel, N)
        bound = 16 * np.finfo(float).eps * (np.abs(W) @ np.abs(cols))
        assert np.all(np.abs(mats.L - W @ cols) <= bound), (kernel, N)


def _unpivoted_g(config, data, basis, m, horizon):
    """``g`` of the QP over every section ``s < max(width, m + 1)``."""
    n_sec = max(required_width(data), m + 1)
    K = gram(config.kernel, np.arange(n_sec), np.arange(n_sec))
    mats = QPDataMatrices(L=input_weight_matrix(data, n_sec) @ K, K=K,
                          rows=K[:m + 1], sections=np.arange(n_sec),
                          y=data.outputs.copy(), m=m)
    sol = solve(estimator.build_qp(config.lam, mats, basis))
    assert sol.status == "optimal"
    h = estimator.reconstruct_h(sol.z[1:], mats.sections, config.kernel,
                                horizon)
    return h.values + basis.modes(horizon) @ sol.z[:1]


@pytest.mark.parametrize("family", sorted(_PIVOT_FAMILIES))
def test_pivoted_fit_matches_unpivoted_qp(family):
    # long enough records that the Gram is rank-deficient to roundoff
    rng = np.random.default_rng(20 + sorted(_PIVOT_FAMILIES).index(family))
    n = int(rng.integers(150, 601))
    kernel = _draw_kernel(rng, family)
    t = np.arange(n, dtype=float)
    u = rng.choice([-1.0, 1.0], size=n)
    clean = np.convolve(u, 0.98 ** t * (1.0 + 0.9 ** t * np.cos(t)))[:n]
    y = clean + 0.1 * rng.standard_normal(n)
    data = TimeSeriesData.at_rest(u, y)
    config = estimator.PositiveIdConfig(kernel=kernel, rho=0.98, lam=0.1)
    model = estimator.identify(config, data)
    assert model.sections.size < max(n, model.m) + 1
    basis = assemble_polynomial_blocks(data, config.rho, 1)
    oracle = _unpivoted_g(config, data, basis, model.m, model.g.horizon)
    err = np.max(np.abs(model.g.values - oracle)) / np.max(np.abs(oracle))
    assert err <= 1e-8, (kernel, n, model.w.size)


def test_mode_vectors():
    rng = np.random.default_rng(4)
    data = _random_at_rest(rng, 7)
    rho = 0.7
    basis = assemble_polynomial_blocks(data, rho, n=1)
    T = toeplitz_operator(data, 7)
    np.testing.assert_allclose(basis.B[:, 0], T @ (rho ** np.arange(7.0)),
                               atol=1e-12)
    np.testing.assert_allclose(basis.modes(4)[:, 0], rho ** np.arange(4.0))
    # one mode, floored at a_min, no penalty, caps the horizon itself
    np.testing.assert_array_equal(basis.floor, [[1.0]])
    np.testing.assert_array_equal(basis.penalty, [[0.0]])
    np.testing.assert_array_equal(basis.cap, [1.0])
    # a one-value period is the same basis, value for value
    period = assemble_oscillation_blocks(data, rho, n=1, epsilon=0.5)
    np.testing.assert_array_equal(period.B, basis.B)
    np.testing.assert_array_equal(period.modes(4), basis.modes(4))
    np.testing.assert_array_equal(period.floor, basis.floor)
    np.testing.assert_array_equal(period.penalty, basis.penalty)
    np.testing.assert_array_equal(period.cap, basis.cap)


def test_polynomial_modes_values():
    cols = polynomial_modes(0.5, 3, 4)
    t = np.arange(4.0)
    np.testing.assert_allclose(cols[:, 0], 0.5 ** t)
    np.testing.assert_allclose(cols[:, 1], t * 0.5 ** t)
    np.testing.assert_allclose(cols[:, 2], t ** 2 * 0.5 ** t)
    assert cols[0, 0] == 1.0  # 0**0 taken as 1


def test_polynomial_block_matches_convolution():
    rng = np.random.default_rng(5)
    n = 9
    u = rng.standard_normal(n)
    data = TimeSeriesData.at_rest(u, np.zeros(n))
    rho = 0.8
    blocks = assemble_polynomial_blocks(data, rho, n=3, epsilon=0.5)
    t = np.arange(n, dtype=float)
    for j in range(3):
        mode = t ** j * rho ** t
        mode[0] = 1.0 if j == 0 else 0.0
        oracle = np.convolve(u, mode)[:n]
        np.testing.assert_allclose(blocks.B[:, j], oracle, atol=1e-12,
                                   err_msg=f"degree {j}")
    np.testing.assert_allclose(blocks.modes(5), polynomial_modes(rho, 3, 5))
    # the top degree is floored and caps the horizon; the others are
    # penalised
    np.testing.assert_array_equal(blocks.floor, [[0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(np.diag(blocks.penalty), [0.5, 0.5, 0.0])
    np.testing.assert_array_equal(blocks.cap, [0.0, 0.0, 1.0])


def test_oscillation_tables_structure():
    Vr, Vi = oscillation_tables(4, 6)
    # k=0 column is the constant phase
    np.testing.assert_allclose(Vr[:, 0], np.ones(6))
    np.testing.assert_allclose(Vi[:, 0], np.zeros(6))
    # period n: row t=4 equals row t=0
    np.testing.assert_allclose(Vr[4], Vr[0], atol=1e-12)
    np.testing.assert_allclose(Vi[4], Vi[0], atol=1e-12)
    # the period modes pick one phase of the decay each and sum to it
    modes = periodic_modes(0.5, 4, 6)
    decay = 0.5 ** np.arange(6.0)
    np.testing.assert_array_equal(modes.sum(axis=1), decay)
    np.testing.assert_array_equal(modes[[1, 5], 1], decay[[1, 5]])
    np.testing.assert_array_equal(np.count_nonzero(modes, axis=1), 1)


def test_oscillation_block_matches_convolution():
    rng = np.random.default_rng(6)
    n = 8
    u = rng.standard_normal(n)
    data = TimeSeriesData.at_rest(u, np.zeros(n))
    rho, period = 0.85, 3
    blocks = assemble_oscillation_blocks(data, rho, n=period, epsilon=0.5)
    t = np.arange(n, dtype=float)
    for j in range(period):
        mode = np.where(t % period == j, rho ** t, 0.0)
        np.testing.assert_allclose(blocks.B[:, j],
                                   np.convolve(u, mode)[:n], atol=1e-12)
        np.testing.assert_array_equal(blocks.modes(n)[:, j], mode)
    # every period value is floored; the cap is the constant phase rho**t
    np.testing.assert_array_equal(blocks.floor, np.eye(period))
    np.testing.assert_array_equal(blocks.cap, np.ones(period))
    np.testing.assert_allclose(blocks.B @ blocks.cap,
                               np.convolve(u, rho ** t)[:n], atol=1e-12)
    # the spread about the mean is penalised
    np.testing.assert_allclose(blocks.penalty,
                               0.5 * (np.eye(3) / 3 - np.ones((3, 3)) / 9),
                               atol=1e-15)


@pytest.mark.parametrize("period", [1, 2, 3, 4, 7])
def test_period_basis_is_the_phase_basis(period):
    # with c = fft(x) / n the phase coefficients describe the same
    # response, satisfy the phase equalities, pay the same penalty and
    # meet the same floor, so both bases pose the same problem
    rng = np.random.default_rng(period)
    data = _random_at_rest(rng, 12)
    rho, eps = 0.8, 0.3
    new = assemble_oscillation_blocks(data, rho, period, epsilon=eps)
    B, modes, floor, eq, penalty = phase_basis(data, rho, period, eps)
    for _ in range(5):
        x = rng.standard_normal(period)
        c = np.fft.fft(x) / period
        coeffs = np.concatenate([c.real, c.imag])
        np.testing.assert_allclose(B @ coeffs, new.B @ x, atol=1e-12)
        np.testing.assert_allclose(modes(15) @ coeffs, new.modes(15) @ x,
                                   atol=1e-13)
        np.testing.assert_allclose(eq @ coeffs, 0.0, atol=1e-13)
        assert coeffs @ penalty @ coeffs == pytest.approx(
            x @ new.penalty @ x, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(floor @ coeffs,
                                   x[-np.arange(period) % period],
                                   atol=1e-13)


def test_assembly_validation():
    rng = np.random.default_rng(7)
    data = _random_at_rest(rng, 5)
    with pytest.raises(ConfigError):
        assemble_core(KernelSpec.tc(0.5), data, m=-1)
    with pytest.raises(ConfigError):
        assemble_polynomial_blocks(data, 1.5, n=1)
    with pytest.raises(ConfigError):
        assemble_oscillation_blocks(data, 1.5, n=2)
    with pytest.raises(ConfigError):
        input_weight_matrix(data, 0)
    with pytest.raises(ConfigError):
        assemble_polynomial_blocks(data, 0.5, n=0)
