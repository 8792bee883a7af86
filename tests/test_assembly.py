"""Data-matrix assembly tests against Toeplitz and convolution oracles."""
import numpy as np
import pytest

from posid.assembly import (QPDataMatrices, assemble_core,
                            assemble_oscillation_blocks,
                            assemble_polynomial_blocks, input_weight_matrix,
                            oscillation_tables, periodic_modes,
                            polynomial_modes, required_width)
from posid.errors import ConfigError
from posid.kernels import KernelSpec, gram, window_kernel
from posid.signals import (ImpulseResponse, TimeSeriesData, convolve,
                           toeplitz_operator)


def _random_at_rest(rng, n):
    u = rng.standard_normal(n)
    y = rng.standard_normal(n)
    return TimeSeriesData.at_rest(u, y)


def assemble_core_definitional(kernel, data, rho, m):
    """Entry-by-entry assembly through explicit convolution calls.

    Slow reference for :func:`assemble_core`: ``L[i, s]`` is the kernel
    section ``k(., s)`` convolved with the input at sample time ``t_i``
    for every section ``s < max(width, m + 1)``.  Also returns the
    simple-pole mode ``rho**t`` convolved with the input at every sample
    time.
    """
    width = required_width(data)
    times = data.sample_times
    n_sec = max(width, m + 1)
    L = np.zeros((times.size, n_sec))
    b = np.zeros(times.size)
    mode = ImpulseResponse(rho ** np.arange(width, dtype=float))
    for s in range(n_sec):
        section = ImpulseResponse(
            np.array([kernel.eval(r, s) for r in range(width)]))
        for i, t in enumerate(times):
            L[i, s] = convolve(section, data, int(t))
    for i, t in enumerate(times):
        b[i] = convolve(mode, data, int(t))
    K = np.array([[kernel.eval(r, s) for s in range(n_sec)]
                  for r in range(n_sec)])
    mats = QPDataMatrices(L=L, K=K, y=data.outputs.copy(), m=int(m))
    return mats, b


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
            slow, b = assemble_core_definitional(kernel, data, 0.6, m=m)
            np.testing.assert_allclose(fast.L, slow.L, atol=1e-10)
            np.testing.assert_allclose(fast.K, slow.K, atol=1e-12)
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
        np.testing.assert_allclose(mats.K, kernel.table, atol=1e-14)
        np.testing.assert_allclose(
            mats.L, toeplitz_operator(data, 10)[:, :4] @ kernel.table,
            atol=1e-12)


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
    with pytest.raises(ConfigError):
        oscillation_tables(0, 3)
