"""Data-matrix assembly tests against Toeplitz and convolution oracles."""
import numpy as np
import pytest

from posid.assembly import (QPDataMatrices, assemble_core,
                            assemble_oscillation_blocks,
                            assemble_polynomial_blocks, input_weight_matrix,
                            oscillation_tables, polynomial_modes,
                            required_width)
from posid.errors import ConfigError
from posid.kernels import KernelSpec, gram
from posid.signals import (ImpulseResponse, TimeSeriesData, convolve,
                           toeplitz_operator)


def _random_at_rest(rng, n):
    u = rng.standard_normal(n)
    y = rng.standard_normal(n)
    return TimeSeriesData.at_rest(u, y)


def assemble_core_definitional(kernel, data, rho, m):
    """Entry-by-entry assembly through explicit convolution calls.

    Slow reference for :func:`assemble_core`; also returns the simple-pole
    mode ``rho**t`` convolved with the input at every sample time.
    """
    width = required_width(data)
    times = data.sample_times
    n = times.size
    O = np.zeros((n, n))
    L = np.zeros((n, m + 1))
    b = np.zeros(n)
    mode = ImpulseResponse(rho ** np.arange(width, dtype=float))
    # Kernel convolved once per sample time: row i holds the function
    # s -> sum_r u[t_i - r] k(r, s), enough to build both O and L.
    section = gram(kernel, np.arange(width), np.arange(max(width, m + 1)))
    half_rows = []
    for i, t in enumerate(times):
        window = data.input_window(int(t))
        row = window @ section[:window.size]
        half_rows.append(row)
        L[i] = row[:m + 1]
        b[i] = convolve(mode, data, int(t))
    for i in range(n):
        half_fn = ImpulseResponse(half_rows[i][:width])
        for j, t2 in enumerate(times):
            O[i, j] = convolve(half_fn, data, int(t2))
    K = gram(kernel, np.arange(m + 1), np.arange(m + 1))
    mats = QPDataMatrices(O=O, L=L, K=K, y=data.outputs.copy(), m=int(m))
    return mats, b


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
    for kernel in (KernelSpec.tc(0.8), KernelSpec.dc(0.7, -0.3)):
        fast = assemble_core(kernel, data, m=5)
        basis = assemble_polynomial_blocks(data, 0.6, n=1)
        slow, b = assemble_core_definitional(kernel, data, 0.6, m=5)
        np.testing.assert_allclose(fast.O, slow.O, atol=1e-10)
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
    np.testing.assert_allclose(mats.O, gram(kernel, idx, idx), atol=1e-12)
    np.testing.assert_allclose(mats.L, gram(kernel, idx, np.arange(5)),
                               atol=1e-12)


def test_mode_output_vector_constant_input():
    # step input at rest: b_t is the geometric partial sum, b_0 = 1
    n = 8
    data = TimeSeriesData.at_rest(np.ones(n), np.zeros(n))
    b = assemble_polynomial_blocks(data, 0.5, n=1).B[:, 0]
    t = np.arange(n, dtype=float)
    np.testing.assert_allclose(b, (1.0 - 0.5 ** (t + 1)) / 0.5, atol=1e-12)
    assert b[0] == 1.0


def test_at_rest_O_is_congruent_gram():
    rng = np.random.default_rng(2)
    data = _random_at_rest(rng, 10)
    kernel = KernelSpec.tc(0.85)
    mats = assemble_core(kernel, data, m=3)
    T = toeplitz_operator(data, 10)
    idx = np.arange(10)
    oracle = T @ gram(kernel, idx, idx) @ T.T
    np.testing.assert_allclose(mats.O, oracle, atol=1e-10)


def test_joint_gram_psd():
    rng = np.random.default_rng(3)
    data = _random_at_rest(rng, 8)
    mats = assemble_core(KernelSpec.dc(0.8, 0.4), data, m=6)
    eigs = np.linalg.eigvalsh(mats.gamma())
    assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)


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
    assert basis.cap == 0 and basis.eq is None


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
    assert blocks.cap == 2 and blocks.eq is None


def test_oscillation_tables_structure():
    Vr, Vi = oscillation_tables(4, 6)
    # k=0 column is the constant phase
    np.testing.assert_allclose(Vr[:, 0], np.ones(6))
    np.testing.assert_allclose(Vi[:, 0], np.zeros(6))
    # period n: row t=4 equals row t=0
    np.testing.assert_allclose(Vr[4], Vr[0], atol=1e-12)
    np.testing.assert_allclose(Vi[4], Vi[0], atol=1e-12)


def test_oscillation_block_matches_convolution():
    rng = np.random.default_rng(6)
    n = 8
    u = rng.standard_normal(n)
    data = TimeSeriesData.at_rest(u, np.zeros(n))
    rho, period = 0.85, 3
    blocks = assemble_oscillation_blocks(data, rho, n=period, epsilon=0.5)
    t = np.arange(n, dtype=float)
    for k in range(period):
        cos_mode = rho ** t * np.cos(2 * np.pi * k * t / period)
        sin_mode = rho ** t * np.sin(2 * np.pi * k * t / period)
        np.testing.assert_allclose(blocks.B[:, k],
                                   np.convolve(u, cos_mode)[:n], atol=1e-12)
        # the imaginary coefficients enter the real part with a minus
        np.testing.assert_allclose(blocks.B[:, period + k],
                                   -np.convolve(u, sin_mode)[:n], atol=1e-12)
    np.testing.assert_allclose(blocks.modes(n)[:, 1],
                               rho ** t * np.cos(2 * np.pi * t / period))
    Vr, Vi = oscillation_tables(period, period)
    np.testing.assert_array_equal(blocks.floor, np.hstack([Vr, Vi]))
    np.testing.assert_array_equal(blocks.eq, np.hstack([Vi, Vr]))
    # every phase but the constant one is penalised, real and imaginary
    np.testing.assert_array_equal(blocks.penalty,
                                  np.diag([0.0, 0.5, 0.5, 0.0, 0.5, 0.5]))
    assert blocks.cap == 0


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
