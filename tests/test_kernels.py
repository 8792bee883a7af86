"""Kernel family tests: definitional values, PSD Grams, domination bounds."""
import numpy as np
import pytest

from posid.assembly import assemble_core
from posid.errors import ConfigError
from posid.kernels import (DominationBound, KernelSpec, decay_compatible,
                           domination_bound, gram, section_tail,
                           semiseparable_split,
                           window_kernel)
from posid.signals import TimeSeriesData


def _definitional(kernel, s, t):
    # Independent scalar evaluation straight from the formulas.
    if kernel.kind == "tc":
        return kernel.beta ** max(s, t)
    if kernel.kind == "dc":
        return kernel.beta ** ((s + t) / 2.0) * kernel.gamma ** abs(s - t)
    if kernel.kind == "ss":
        mx = max(s, t)
        return kernel.beta ** (s + t + mx) / 2.0 \
            - kernel.beta ** (3 * mx) / 6.0
    raise AssertionError(kernel.kind)


def _elementwise_eval_grid(kernel, s, t):
    # The closed forms evaluated entry by entry on the broadcast grid, the
    # oracle that gram's per-lag power tables must match bit for bit; a
    # negative gamma takes its sign from the parity of the lag.
    s = np.asarray(s, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    if kernel.kind == "tc":
        out = np.power(kernel.beta, np.maximum(s, t).astype(float))
    elif kernel.kind == "dc":
        diag = np.power(kernel.beta, (s + t).astype(float) / 2.0)
        lag = np.abs(s - t)
        off = np.power(abs(kernel.gamma), lag)
        if kernel.gamma < 0.0:
            np.negative(off, out=off, where=(lag & 1).astype(bool))
        out = diag * off
    else:
        mx = np.maximum(s, t).astype(float)
        ssum = (s + t).astype(float)
        out = (np.power(kernel.beta, ssum + mx) / 2.0
               - np.power(kernel.beta, 3.0 * mx) / 6.0)
    if kernel.support is None:
        return out
    n = kernel.support
    return np.where((s < n) & (t < n), out, 0.0)


def _all_decaying():
    return [KernelSpec.tc(0.9), KernelSpec.dc(0.8, -0.4), KernelSpec.ss(0.7)]


def test_single_point_gram():
    # rows=cols=[5] must return the 1x1 matrix [[k(5,5)]]
    for kernel in _all_decaying():
        out = gram(kernel, [5], [5])
        assert out.shape == (1, 1)
        np.testing.assert_allclose(out[0, 0], _definitional(kernel, 5, 5),
                                   rtol=1e-14)


def test_gram_matches_definitional_formula():
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 40, size=7)
    cols = rng.integers(0, 40, size=9)
    for kernel in _all_decaying():
        out = gram(kernel, rows, cols)
        oracle = np.array([[_definitional(kernel, s, t) for t in cols]
                           for s in rows])
        np.testing.assert_allclose(out, oracle, rtol=1e-13, atol=1e-15)


def test_tc_gram_psd_on_grid():
    k = KernelSpec.tc(0.9)
    idx = np.arange(10)
    eigs = np.linalg.eigvalsh(gram(k, idx, idx))
    assert eigs.min() >= -1e-12, f"TC gram not PSD: {eigs.min():.3e}"


def test_all_families_psd_random_grids():
    rng = np.random.default_rng(3)
    kernels = _all_decaying() + [window_kernel(KernelSpec.tc(0.85), 12)]
    for kernel in kernels:
        for _ in range(5):
            idx = np.unique(rng.integers(0, 60, size=12))
            eigs = np.linalg.eigvalsh(gram(kernel, idx, idx))
            scale = max(eigs.max(), 1.0)
            assert eigs.min() >= -1e-10 * scale, (kernel.kind, eigs.min())


def test_gram_matches_definitional_values():
    for kernel in _all_decaying():
        out = gram(kernel, np.arange(4), np.arange(5))
        assert out.shape == (4, 5)
        expected = [[_definitional(kernel, s, t) for t in range(5)]
                    for s in range(4)]
        np.testing.assert_allclose(out, expected, rtol=1e-14,
                                   err_msg=kernel.kind)


def test_domination_bound_values():
    assert domination_bound(KernelSpec.tc(0.81)) == \
        DominationBound(c=1.0, rho_d=0.9)
    dc = domination_bound(KernelSpec.dc(0.81, 0.3))
    assert dc.rho_d == pytest.approx(0.9)
    ss = domination_bound(KernelSpec.ss(0.8))
    assert ss.c == pytest.approx(1.0 / 3.0)
    assert ss.rho_d == pytest.approx(0.8 ** 1.5)
    # a window only zeroes entries, so the family's bound certifies it
    assert domination_bound(window_kernel(KernelSpec.tc(0.5), 3)) == \
        domination_bound(KernelSpec.tc(0.5))


def test_domination_bound_holds_on_diagonal():
    # k(t,t) <= c * rho_d**(2t) for t up to 200
    t = np.arange(201)
    for kernel in _all_decaying():
        bound = domination_bound(kernel)
        diag = np.diag(gram(kernel, t, t))
        envelope = bound.c * bound.rho_d ** (2.0 * t)
        assert np.all(diag <= envelope * (1 + 1e-12)), kernel.kind


def test_window_kernel_zero_outside_support():
    base = KernelSpec.tc(0.9)
    w = window_kernel(base, 4)
    assert (w.kind, w.beta, w.gamma, w.support) == ("tc", 0.9, None, 4)
    assert gram(w, [4], [1])[0, 0] == 0.0
    assert gram(w, [2], [7])[0, 0] == 0.0
    np.testing.assert_allclose(gram(w, [2], [3]), gram(base, [2], [3]))


def test_window_gram_is_the_family_gram_inside_the_support():
    idx = np.arange(9)
    for base in _all_decaying():
        w = window_kernel(base, 5)
        full, cut = gram(base, idx, idx), gram(w, idx, idx)
        np.testing.assert_array_equal(cut[:5, :5], full[:5, :5])
        assert not cut[5:].any() and not cut[:, 5:].any(), base.kind
        # a window that covers every index changes nothing
        np.testing.assert_array_equal(gram(window_kernel(base, 9), idx, idx),
                                      full)


def test_window_narrows_and_never_widens():
    w = window_kernel(KernelSpec.dc(0.8, 0.5), 6)
    narrow = window_kernel(w, 3)
    assert narrow == window_kernel(KernelSpec.dc(0.8, 0.5), 3)
    cut = gram(narrow, range(6), range(6))
    np.testing.assert_array_equal(cut[:3, :3], gram(w, range(3), range(3)))
    assert not cut[3:].any() and not cut[:, 3:].any()
    with pytest.raises(ConfigError, match="widen"):
        window_kernel(w, 7)


def test_windowed_spec_is_a_hashable_value():
    a = window_kernel(KernelSpec.tc(0.5), 3)
    b = window_kernel(KernelSpec.tc(0.5), 3)
    assert a == b and hash(a) == hash(b)
    assert a != window_kernel(KernelSpec.tc(0.5), 4)
    assert a != KernelSpec.tc(0.5)
    assert len({a, b, KernelSpec.tc(0.5)}) == 2


def test_decay_compatible():
    assert decay_compatible(KernelSpec.tc(0.81), 0.95)   # 0.9 < 0.95
    assert not decay_compatible(KernelSpec.tc(0.81), 0.9)
    assert not decay_compatible(KernelSpec.tc(0.81), 0.5)
    # finite support is compatible with any pole in (0,1)
    assert decay_compatible(window_kernel(KernelSpec.tc(0.9), 5), 0.1)
    with pytest.raises(ConfigError):
        decay_compatible(KernelSpec.tc(0.5), 1.0)


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        KernelSpec(kind="rbf")
    with pytest.raises(ConfigError):
        KernelSpec.tc(1.0)
    with pytest.raises(ConfigError):
        KernelSpec.tc(-0.1)
    with pytest.raises(ConfigError):
        KernelSpec.dc(0.5, 1.5)
    with pytest.raises(ConfigError):
        KernelSpec(kind="tc", beta=0.5, gamma=0.2)
    with pytest.raises(ConfigError):
        gram(KernelSpec.tc(0.5), [-1], [0])
    with pytest.raises(ConfigError):
        window_kernel(KernelSpec.tc(0.5), 0)
    with pytest.raises(ConfigError, match="support"):
        KernelSpec(kind="ss", beta=0.5, support=-1)


def test_window_of_window_is_idempotent():
    w = window_kernel(KernelSpec.tc(0.9), 6)
    assert window_kernel(w, 6) is w


def test_known_point_values():
    assert gram(KernelSpec.tc(0.5), [1], [2])[0, 0] == pytest.approx(0.25)
    assert gram(KernelSpec.ss(0.5), [0], [0])[0, 0] == pytest.approx(1.0 / 3.0)
    np.testing.assert_allclose(
        gram(KernelSpec.tc(0.5), [0, 1], [0, 1, 2]),
        [[1.0, 0.5, 0.25], [0.5, 0.5, 0.25]])


def test_dc_with_sqrt_beta_gamma_equals_tc():
    beta = 0.5
    dc = KernelSpec.dc(beta, np.sqrt(beta))
    tc = KernelSpec.tc(beta)
    idx = np.arange(21)
    np.testing.assert_allclose(gram(dc, idx, idx), gram(tc, idx, idx),
                               rtol=1e-12, atol=1e-14)


def test_negative_gamma_dc_gram_keeps_its_values():
    # the sign of a negative gamma is applied by the parity of |s - t|;
    # powers of 0.5 are exact, so the 801 x 801 Gram of dc(0.9, -0.5)
    # equals the negative-base power it replaced bit for bit, and every
    # negative gamma has the magnitudes of its positive twin exactly
    idx = np.arange(801)
    s, t = idx[:, None], idx[None, :]
    diag = np.power(0.9, (s + t).astype(float) / 2.0)
    np.testing.assert_array_equal(
        gram(KernelSpec.dc(0.9, -0.5), idx, idx),
        diag * np.power(-0.5, np.abs(s - t)))
    sign = np.where(np.abs(s - t) % 2, -1.0, 1.0)
    for gamma in (0.3, 0.9):
        np.testing.assert_array_equal(
            gram(KernelSpec.dc(0.9, -gamma), idx, idx),
            sign * gram(KernelSpec.dc(0.9, gamma), idx, idx))


def test_sections_absolutely_summable():
    # partial sums of |k(t, s)| over s settle well before s = 2000
    s = np.arange(2001)
    for kernel in _all_decaying():
        for t in (0, 5, 50):
            vals = np.abs(gram(kernel, [t], s)[0])
            tail = np.cumsum(vals)
            assert tail[-1] - tail[-500] < 1e-9, (kernel.kind, t)


_TABLE_KERNELS = (
    [KernelSpec.tc(0.9), KernelSpec.ss(0.97), KernelSpec.ss(0.7)]
    + [KernelSpec.dc(0.9, g) for g in (0.9, -0.5, 0.3, 0.0, -1.0, 1.0)]
    + [KernelSpec.tc(0.0), KernelSpec.dc(0.0, 0.5), KernelSpec.ss(0.0),
       window_kernel(KernelSpec.dc(0.8, -0.4), 30)])


def _table_grids():
    rng = np.random.default_rng(11)
    return {
        "801x801": (np.arange(801), np.arange(801)),
        "1600x270": (np.arange(1600),
                     np.sort(rng.choice(1600, 270, replace=False))),
        "unsorted": (rng.integers(0, 60, 17), rng.integers(0, 60, 23)),
        "repeated": ([3, 3, 1, 0, 3], [2, 2, 7, 7]),
        "empty rows": ([], [1, 2]),
        "empty cols": ([4], []),
        "empty": ([], []),
    }


@pytest.mark.parametrize("kernel", _TABLE_KERNELS, ids=repr)
def test_table_gram_equals_elementwise_closed_forms(kernel):
    # gathering from per-lag power tables changes no bit of any entry
    for name, (rows, cols) in _table_grids().items():
        r = np.asarray(rows, dtype=np.int64)
        c = np.asarray(cols, dtype=np.int64)
        out = gram(kernel, rows, cols)
        oracle = _elementwise_eval_grid(kernel, r[:, None], c[None, :])
        assert out.shape == (r.size, c.size), name
        assert np.array_equal(out, oracle), name


_TAIL_KERNELS = [
    KernelSpec.tc(0.9), KernelSpec.tc(0.6),
    KernelSpec.dc(0.9, 0.9), KernelSpec.dc(0.9, -0.5), KernelSpec.dc(0.9, 0.0),
    KernelSpec.dc(0.9, 1.0), KernelSpec.dc(0.9, -1.0),
    KernelSpec.ss(0.97), KernelSpec.ss(0.8),
    KernelSpec.tc(0.0), KernelSpec.dc(0.0, 0.5), KernelSpec.ss(0.0),
    window_kernel(KernelSpec.dc(0.8, -0.4), 150),
]


@pytest.mark.parametrize(
    "kernel", _TAIL_KERNELS,
    ids=lambda k: "-".join(str(v) for v in (k.kind, k.beta, k.gamma, k.support)
                           if v is not None))
def test_semiseparable_split_factors_the_family(kernel):
    # k(a + d, s) = sum_l p[l, d] q[l](s) for s <= a, to a few roundoffs
    # of the terms' magnitudes; a single term's factor is the kernel row
    # at the anchor
    family = KernelSpec(kernel.kind, kernel.beta, kernel.gamma)
    for anchor in (0, 1, 37, 400):
        lags = np.arange(anchor + 1)
        offsets = np.arange(300)
        p, q = semiseparable_split(kernel, anchor, lags, offsets)
        assert p.shape == (len(q), offsets.size) and len(q) in (1, 2)
        rows = np.stack([np.broadcast_to(q_l, lags.shape) for q_l in q])
        if len(q) == 1:
            np.testing.assert_array_equal(q[0],
                                          gram(family, [anchor], lags)[0])
        exact = gram(family, anchor + offsets, lags)
        bound = 4 * np.finfo(float).eps * (np.abs(p).T @ np.abs(rows)) \
            + np.finfo(float).tiny
        assert np.all(np.abs(p.T @ rows - exact) <= bound), (kernel, anchor)


@pytest.mark.parametrize(
    "kernel", _TAIL_KERNELS,
    ids=lambda k: "-".join(str(v) for v in (k.kind, k.beta, k.gamma, k.support)
                           if v is not None))
def test_section_tail_is_the_closed_form_bit_for_bit(kernel):
    # tc and dc continue h(a) by k(k, 0); ss is its two closed-form
    # terms anchored at a, weighted by the residual's coefficients
    rng = np.random.default_rng(3)
    sections = np.sort(rng.choice(120, size=40, replace=False))
    w = rng.standard_normal(sections.size)
    last = int(sections.max())
    lags = np.arange(1, 501)
    if kernel.kind == "ss":
        beta = kernel.beta
        near = (np.power(beta, 2.0 * last + sections) / 2.0) @ w
        far = np.power(beta, 3.0 * last) / 6.0 * np.sum(w)
        expected = (near * np.power(beta, 2.0 * lags)
                    - far * np.power(beta, 3.0 * lags))
        h_last = np.nan
    else:
        h_last = 0.37
        family = KernelSpec(kernel.kind, kernel.beta, kernel.gamma)
        expected = h_last * gram(family, lags, [0])[:, 0]
    if kernel.support is not None:
        expected[last + lags >= kernel.support] = 0.0
    tail = section_tail(kernel, sections, w, h_last, lags.size)
    assert np.array_equal(tail, expected)


@pytest.mark.parametrize("n_sec", [12, 201, 801])
@pytest.mark.parametrize(
    "kernel", _TAIL_KERNELS,
    ids=lambda k: "-".join(str(v) for v in (k.kind, k.beta, k.gamma, k.support)
                           if v is not None))
def test_section_tail_matches_the_gram_past_the_last_section(kernel, n_sec):
    # the pivoted sections of a fit with n_sec candidate lags
    rng = np.random.default_rng(n_sec)
    u = rng.choice([-1.0, 1.0], size=12)
    data = TimeSeriesData.at_rest(u, rng.standard_normal(12))
    sections = assemble_core(kernel, data, n_sec - 1).sections
    w = rng.standard_normal(sections.size)
    last = int(sections.max())
    h_last = float(gram(kernel, [last], sections)[0] @ w)
    tail = section_tail(kernel, sections, w, h_last, 2000)
    K = gram(kernel, np.arange(last + 1, last + 2001), sections)
    # a few roundoffs of |k| |w| (the dc rate's powers compounded, not
    # taken from the tables, miss this by an order of magnitude); far
    # lags underflow, where the bound is the smallest normal
    bound = 8 * np.finfo(float).eps * (np.abs(K) @ np.abs(w)) \
        + np.finfo(float).tiny
    assert tail.shape == (2000,)
    assert np.all(np.abs(tail - K @ w) <= bound)
