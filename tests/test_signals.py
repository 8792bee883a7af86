"""Containers, convolution and CSV round trips.

Also home to two oracles other test modules import: the Toeplitz
operator of at-rest data and the numerical rank of a Hankel window.
"""
import numpy as np
import pytest
import scipy.linalg

from posid.errors import DataError
from posid.signals import (ImpulseResponse, TimeSeriesData, convolve,
                           read_impulse_csv, read_timeseries_csv,
                           write_impulse_csv)


def toeplitz_operator(data, n):
    """Lower-triangular convolution matrix ``[u[i - j]]`` of order ``n``.

    Only defined for data sampled densely from time zero at rest, where
    output ``i`` of an impulse response ``g`` is row ``i`` of this matrix
    times ``g[:n]``.
    """
    assert data.t_start == 0
    np.testing.assert_array_equal(data.sample_times,
                                  np.arange(data.n_samples))
    assert n <= data.inputs.size
    return scipy.linalg.toeplitz(data.inputs[:n], np.zeros(n))


def hankel_numerical_rank(g, size, tol=1e-8):
    """Numerical rank of the leading ``size x size`` Hankel window of ``g``.

    Counts singular values above ``tol`` times the largest one; the
    window needs ``2 * size - 1`` lags of ``g``.
    """
    assert 2 * size - 1 <= g.horizon
    h = scipy.linalg.hankel(g.values[:size], g.values[size - 1:2 * size - 1])
    svals = np.linalg.svd(h, compute_uv=False)
    return int(np.sum(svals > tol * svals[0]))


def test_convolve_unit_impulse_returns_input():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(12)
    data = TimeSeriesData.at_rest(u, np.zeros(12))
    g = ImpulseResponse(np.array([1.0, 0.0, 0.0]))
    for t in range(12):
        assert convolve(g, data, t) == pytest.approx(u[t], abs=1e-15)


def test_convolve_step_input_geometric_sum():
    rho = 0.8
    g = ImpulseResponse(rho ** np.arange(20.0))
    data = TimeSeriesData.at_rest(np.ones(12), np.zeros(12))
    for t in range(12):
        expect = (1.0 - rho ** (t + 1)) / (1.0 - rho)
        assert convolve(g, data, t) == pytest.approx(expect, abs=1e-12)


def test_convolve_matches_naive_double_loop():
    rng = np.random.default_rng(2)
    g = ImpulseResponse(rng.standard_normal(16))
    u = rng.standard_normal(11)
    data = TimeSeriesData.at_rest(u, np.zeros(11))
    t = 10
    # naive oracle: sum over lags with explicit zero extension
    oracle = sum(g.values[s] * (u[t - s] if 0 <= t - s < 11 else 0.0)
                 for s in range(16))
    assert convolve(g, data, t) == pytest.approx(oracle, abs=1e-12)


def test_convolve_with_pre_history():
    # t_start < 0: lags reach into the pre-history window
    u = np.array([0.5, -1.0, 2.0, 3.0, 1.0])   # times -2..2
    data = TimeSeriesData(np.array([0, 1, 2]), np.zeros(3), u, t_start=-2)
    g = ImpulseResponse(np.array([1.0, 1.0, 1.0, 1.0]))
    # t=1: u1+u0+u_{-1}+u_{-2} = 3 + 2 - 1 + 0.5
    assert convolve(g, data, 1) == pytest.approx(4.5)


def test_convolve_batch_matches_per_time_sums():
    # pre-history, and responses shorter and longer than the input window
    rng = np.random.default_rng(4)
    u = rng.standard_normal(9)   # times -3..5
    data = TimeSeriesData(np.array([0, 2, 5]), np.zeros(3), u, t_start=-3)
    times = np.array([5, -3, 0, 2, 2])
    for horizon in (4, 9, 14):
        g = rng.standard_normal(horizon)
        oracle = [sum(g[s] * u[t + 3 - s] for s in range(min(horizon, t + 4)))
                  for t in times]
        np.testing.assert_allclose(
            convolve(ImpulseResponse(g), data, times), oracle, atol=1e-12)


def test_convolve_rejects_times_outside_the_input_window():
    # one bad time fails the whole batch, on either side of the window
    u = np.arange(1.0, 6.0)   # times -1..3
    data = TimeSeriesData(np.array([0, 2]), np.zeros(2), u, t_start=-1)
    g = ImpulseResponse(np.ones(3))
    np.testing.assert_array_equal(convolve(g, data, [-1, 3]), [1.0, 12.0])
    with pytest.raises(DataError, match="time -2 precedes"):
        convolve(g, data, [0, -2, 3])
    with pytest.raises(DataError, match="not available at time 4"):
        convolve(g, data, [0, 4, 3])


def test_toeplitz_operator_small():
    data = TimeSeriesData.at_rest(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    np.testing.assert_allclose(
        toeplitz_operator(data, 3),
        [[1, 0, 0], [2, 1, 0], [3, 2, 1]])


def test_toeplitz_operator_impulse_input():
    u = np.zeros(5)
    u[0] = 1.0
    data = TimeSeriesData.at_rest(u, np.zeros(5))
    np.testing.assert_allclose(toeplitz_operator(data, 5), np.eye(5))


def test_toeplitz_rows_equal_convolution():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(8)
    data = TimeSeriesData.at_rest(u, np.zeros(8))
    g = rng.standard_normal(8)
    out = toeplitz_operator(data, 8) @ g
    oracle = np.convolve(u, g)[:8]
    np.testing.assert_allclose(out, oracle, atol=1e-12)


def test_hankel_rank_two_modes():
    t = np.arange(19)
    g = ImpulseResponse(0.9 ** t + 0.4 ** t)
    assert hankel_numerical_rank(g, 10) == 2
    # SVD oracle on the explicit Hankel window
    h = scipy.linalg.hankel(g.values[:10], g.values[9:19])
    svals = np.linalg.svd(h, compute_uv=False)
    assert int(np.sum(svals > 1e-8 * svals[0])) == 2


def test_hankel_rank_single_mode():
    g = ImpulseResponse(0.7 ** np.arange(21.0))
    assert hankel_numerical_rank(g, 11) == 1


def test_hankel_rank_finite_support():
    # support of size 3 bounds the Hankel rank by 3
    values = np.zeros(19)
    values[:3] = [1.0, 0.5, 0.25]
    assert hankel_numerical_rank(ImpulseResponse(values), 10) <= 3


def test_data_validation():
    with pytest.raises(DataError):
        TimeSeriesData(np.array([0, 0]), np.zeros(2), np.zeros(2))
    with pytest.raises(DataError):
        TimeSeriesData(np.array([0, 1]), np.zeros(2), np.zeros(1))
    with pytest.raises(DataError):
        TimeSeriesData(np.array([0]), np.zeros(1), np.zeros(1), t_start=1)
    with pytest.raises(DataError):
        TimeSeriesData(np.array([0]), np.array([np.nan]), np.zeros(1))
    data = TimeSeriesData.at_rest(np.arange(4.0), np.zeros(4))
    assert data.t_start == 0
    np.testing.assert_array_equal(data.sample_times, np.arange(4))
    assert data.n_samples == 4
    assert data.t_last == 3


def test_restrict_keeps_input_history():
    data = TimeSeriesData.at_rest(np.arange(10.0), np.arange(10.0) ** 2)
    sub = data.restrict([2, 5, 7])
    np.testing.assert_allclose(sub.sample_times, [2, 5, 7])
    np.testing.assert_allclose(sub.outputs, [4.0, 25.0, 49.0])
    assert sub.inputs.size == 10


def test_timeseries_csv_roundtrip(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("t,u,y\n-1,0.5,\n0,1.0,2.0\n1,-1.5,0.25\n")
    data = read_timeseries_csv(path)
    assert data.t_start == -1
    np.testing.assert_allclose(data.sample_times, [0, 1])
    np.testing.assert_allclose(data.outputs, [2.0, 0.25])
    np.testing.assert_allclose(data.inputs, [0.5, 1.0, -1.5])


def test_timeseries_csv_errors(tmp_path):
    with pytest.raises(DataError, match="missing.csv"):
        read_timeseries_csv(tmp_path / "missing.csv")
    gap = tmp_path / "gap.csv"
    gap.write_text("t,u,y\n0,1.0,1.0\n2,1.0,1.0\n")
    with pytest.raises(DataError, match="contiguous"):
        read_timeseries_csv(gap)
    nohdr = tmp_path / "nohdr.csv"
    nohdr.write_text("0,1.0,1.0\n")
    with pytest.raises(DataError, match="header"):
        read_timeseries_csv(nohdr)


def test_impulse_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    g = ImpulseResponse(rng.standard_normal(17))
    path = tmp_path / "g.csv"
    write_impulse_csv(path, g)
    back = read_impulse_csv(path)
    # repr round trip is exact
    np.testing.assert_array_equal(back.values, g.values)
    with pytest.raises(DataError):
        read_impulse_csv(tmp_path / "nope.csv")


@pytest.mark.parametrize("field", ["u", "y"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_timeseries_csv_rejects_nonfinite_values(tmp_path, value, field):
    path = tmp_path / "d.csv"
    u, y = ("1.0", value) if field == "y" else (value, "0.5")
    path.write_text(f"t,u,y\n0,1.0,0.0\n1,{u},{y}\n2,0.0,0.25\n")
    name = "input u" if field == "u" else "output y"
    with pytest.raises(DataError, match=f"d.csv:3: {name} '{value}'"):
        read_timeseries_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_impulse_csv_rejects_nonfinite_values(tmp_path, value):
    path = tmp_path / "g.csv"
    path.write_text(f"s,g\n0,0.5\n1,{value}\n2,0.25\n")
    with pytest.raises(DataError, match=f"g.csv:3: impulse value '{value}'"):
        read_impulse_csv(path)
