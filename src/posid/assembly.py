"""Finite-dimensional matrix assembly for the constrained estimator.

Two kinds of blocks make up every QP.  :func:`assemble_core` builds the
kernel blocks at a constraint horizon ``m``; a :class:`DominantBasis`
describes the dominant part once per fit: its input-convolved modes, a
sampler for the mode values, the floor and penalty rows, and the mode
combination that caps the horizon.  :func:`assemble_polynomial_blocks`
gives the simple or repeated pole, :func:`assemble_oscillation_blocks`
the poles at unit-root phases, fitted over one real period, and
:func:`empty_basis` no dominant part at all (zero spectral radius).

The residual is parameterised by section coefficients
``h = sum_j w[j] k(., J[j])``.  Every functional of the problem (an
input-convolved sample, which reaches lags ``< width``, or a positivity
row ``0 .. m``) evaluates ``h`` at lags ``t < N = max(width, m + 1)``,
so by the representer theorem the span of the ``N`` sections ``k(., s)``,
``s < N``, is exact.  Their Gram ``K`` is numerically low-rank, though:
at ``N = 801`` a ``dc(0.9, 0.9)`` Gram has rank about 270 to roundoff.
So ``J`` keeps the pivots of one greedy pivoted Cholesky of ``K``
(LAPACK ``dpstrf``), which stops once every remaining Schur-complement
diagonal is at most LAPACK's numerical-rank tolerance
``tol = N * eps * max diag K``.

The restriction is exact to roundoff.  With
``S = K - K[:, J] K[J, J]^-1 K[J, :]``, ``S[s, s]`` is the squared RKHS
distance of the section ``k(., s)`` from the span of the kept ones, and
it is at most ``tol``.  Projecting any residual ``h`` onto that span does
not raise its norm and moves each value ``h(t)``, ``t < N``, and with
them every functional above, by at most
``||h|| sqrt(S[t, t]) <= ||h|| sqrt(tol)``.  The QP, meanwhile, loses
the ``N - |J|`` directions that only roundoff told apart.

The output block ``L = W K[:, J]``, with ``W`` the ``n x N`` input
weights, is a near/far-field product.  The lags are cut into blocks of
``b = 64``.  A section meets the lags of its own block through the
kernel values themselves: the near field, ``n b r`` multiply-adds over
all ``r = |J|`` sections.  Every other block reaches it through the
kernels' semiseparable split (:func:`~posid.kernels.semiseparable_split`):
anchored at the block's edge nearer the section, ``k(t, s)`` is a sum of
one (tc, dc) or two (ss) products of a factor of the block's lag and a
factor of the section, so the whole block enters through one or two
weighted sums of its input columns: the far field.  A fit then costs
``O(n N terms + n Q r + n b r)`` for ``Q = N / b`` blocks instead of the
dense ``n N r``.  Each column block of ``W`` is gathered from the input,
used and dropped, so no ``n x N`` array is formed.  With one block the
near field is the whole product, bit for bit the dense one; otherwise
the two agree to a few roundoffs of ``|W| |K[:, J]|`` entrywise.

The Gram, its pivots ``J``, ``K[:, J]``, ``K[J, J]`` and the plan of
the product depend only on ``(kernel, N)``, never on the data.  They
are built once per key per process and kept in a bounded LRU of 8
entries, read-only and shared by every fit with that key.  An entry
holds ``N r + r**2`` doubles for the sections: at most twice the
``N**2`` Gram its miss builds, and about 0.45 of it for dc(0.9, 0.9)
at ``N = 801`` (``r = 269``).  The plan adds at most ``2 terms N``
block weights and ``2 terms Q r`` far-field factors: at ``N = 801``,
2% more for tc(0.9) and dc(0.9, 0.9) and 4% more for ss(0.97).  Each
worker process of :func:`~posid.experiments.run_monte_carlo` keeps its
own cache.

Every convolution against the input is an exact finite sum: the
input vanishes before its declared support start, so the weight of lag
``s`` at time ``t`` is ``u[t - s]`` and is zero for ``s > t - t_start``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import check_count, check_unit_interval
from .kernels import KernelSpec, gram, semiseparable_split
from .signals import TimeSeriesData


@dataclass(frozen=True)
class QPDataMatrices:
    """Kernel data matrices of the finite-dimensional problem at horizon ``m``.

    ``sections`` holds the sorted pivoted lags ``J`` of the residual
    ``h = sum_j w[j] k(., J[j])``.  The sections of the other candidate
    lags lie in their span to roundoff (see the module docstring), so
    restricting ``w`` to ``J`` drops only directions that roundoff told
    apart.  With ``Kn`` the Gram on all ``N`` candidate lags,
    ``K = Kn[J, J]`` gives the squared RKHS norm ``w' K w`` of ``h``,
    ``L = W Kn[:, J]`` its contribution ``L w`` to the outputs at the
    sample times, and ``rows = Kn[:m + 1, J]`` its values ``rows @ w`` on
    the constraint rows ``0 .. m`` (fewer rows when a finite support ends
    first: past it ``h`` is zero).  ``K``, ``rows`` and ``sections`` are
    read-only and shared with every other fit on the same kernel and
    section count.
    """

    L: np.ndarray = field(repr=False)
    K: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    sections: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    m: int


@dataclass(frozen=True)
class DominantBasis:
    """Dominant part ``sum_j coeffs[j] * mode_j(t)`` as the QP sees it.

    ``modes(horizon)`` samples the ``p`` modes on ``t < horizon``: its
    first ``m + 1`` rows are the positivity constraint rows and its full
    length gives the dominant part of a reconstruction.  It is also the
    fitted model's evaluator (see :class:`~posid.estimator.FittedModel`),
    so it is a module-level function or a ``functools.partial`` of one,
    which pickles with the model.  ``B`` convolves
    the same modes with the input at the sample times.  Each ``floor``
    row of the coefficients is bounded below by ``a_min``.  ``penalty``
    is the mode-coefficient penalty, already scaled by epsilon.  ``cap``
    holds the coefficients of the mode ``B @ cap``, floored at ``a_min``
    and decaying at ``rho``, whose best single-mode misfit ``c0`` sets
    the horizon cap ``m0``.
    """

    B: np.ndarray = field(repr=False)
    modes: Callable[[int], np.ndarray] = field(repr=False)
    floor: np.ndarray = field(repr=False)
    penalty: np.ndarray = field(repr=False)
    cap: np.ndarray = field(repr=False)
    rho: float
    a_min: float

    @property
    def size(self) -> int:
        return int(self.B.shape[1])


def input_weight_matrix(data: TimeSeriesData, width: int) -> np.ndarray:
    """Convolution weights ``W[i, s] = u[t_i - s]`` for lags ``s < width``.

    Rows follow the sample times; entries with ``t_i - s`` before the
    input support are zero.  These are the rows ``t_i - t_start`` of the
    lower-triangular Toeplitz matrix of the input.
    """
    check_count("weight width", width)
    return _input_windows(data, width)[data.sample_times - data.t_start]


def _input_windows(data: TimeSeriesData, width: int) -> np.ndarray:
    """Read-only view ``V[t - t_start, s] = u[t - s]`` for lags ``s < width``.

    One row per time of the input span, all of them sharing one padded
    copy of the input, so any rows and columns of the weight matrix can
    be gathered from it without forming the whole matrix.
    """
    span = required_width(data)
    padded = np.concatenate([np.zeros(width - 1), data.inputs[:span]])
    return np.lib.stride_tricks.sliding_window_view(padded, width)[:, ::-1]


def required_width(data: TimeSeriesData) -> int:
    """Number of lags with possibly nonzero convolution weight."""
    return data.t_last - data.t_start + 1


def assemble_core(kernel: KernelSpec, data: TimeSeriesData,
                  m: int) -> QPDataMatrices:
    """Assemble the kernel data matrices for constraint horizon ``m``.

    The candidate sections run over ``N = max(width, m + 1)`` lags,
    capped at a finite kernel's support: sections past it are the zero
    function.  The kept sections are the pivots of one ``dpstrf`` call
    at LAPACK's default tolerance, in increasing order, computed once
    per kernel and ``N``, and ``L`` is the near/far-field product (see
    the module docstring).
    """
    check_count("constraint horizon", m, least=0)
    n_sec = max(required_width(data), m + 1)
    if kernel.support is not None:
        n_sec = min(n_sec, kernel.support)
    basis = _section_basis(kernel, n_sec)
    L = basis.times(_input_windows(data, n_sec),
                    data.sample_times - data.t_start)
    return QPDataMatrices(L=L, K=basis.K,
                          rows=basis.cols[:m + 1], sections=basis.sections,
                          y=data.outputs.copy(), m=int(m))


# Lags per column block of the near/far-field product.  A block costs
# ``n b r`` in its near field and adds ``2 * terms`` far-field columns,
# which cost ``n r`` each, so the optimum ``b ~ sqrt(2 terms N)`` is 40-90
# for N = 800-2000; BLAS favours the wider blocks.  Measured on 2 vCPU
# with BLAS at 1 thread (two runs each, the product with its gathers):
# dc(0.9, 0.9) at N = 801 (r = 269, n = 800) takes 1.7-2.5 ms at
# b = 32-64 and 2.0-3.3 ms at b = 96-128, against 8.6-10.9 ms for
# building W and one dense product; at N = 2001, 8-11 ms at b = 64-96
# against 54 ms; ss(0.97) is alike.  The optimum is flat over 32-96.
_BLOCK = 64


@dataclass(frozen=True)
class _SectionBasis:
    """Everything about the sections that depends on ``(kernel, N)`` only.

    ``sections`` are the pivoted lags ``J``, ``cols = Kn[:, J]`` and
    ``K = Kn[J, J]``.  The rest is the near/far-field plan for
    ``L = W Kn[:, J]``: per column block ``start .. stop - 1`` of lags,
    the slice ``lo .. hi`` of the sections inside it, whose near field
    is ``cols[start:stop, lo:hi]``, and the block's far-field weights;
    ``far`` turns the weighted block sums into section columns.
    """

    sections: np.ndarray
    cols: np.ndarray
    K: np.ndarray
    blocks: tuple[tuple[int, int, int, int, np.ndarray], ...]
    far: np.ndarray

    def times(self, windows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``W @ cols`` for ``W = windows[rows]``, gathered by blocks of lags.

        So the ``n x N`` weight matrix is never formed: each block of its
        columns is gathered, used and dropped.
        """
        L = np.empty((rows.size, self.sections.size))
        sums = np.empty((rows.size, self.far.shape[0]))
        at = 0
        for start, stop, lo, hi, weights in self.blocks:
            block = windows[rows, start:stop]
            np.matmul(block, self.cols[start:stop, lo:hi], out=L[:, lo:hi])
            np.matmul(block, weights, out=sums[:, at:at + weights.shape[1]])
            at += weights.shape[1]
        L += sums @ self.far
        return L


@lru_cache(maxsize=8)
def _section_basis(kernel: KernelSpec, n_sec: int) -> _SectionBasis:
    """Pivoted sections of ``n_sec`` lags and the plan of their product.

    They depend on the kernel and ``n_sec`` only, so they are cached per
    key and returned read-only: every fit and model with the key shares
    them.  Lags in an earlier block than a section ``j`` reach it through
    the split anchored at the block's last lag ``a``,
    ``k(j, s) = sum_l p_l(j - a) q_l(a, s)``; lags in a later block
    through the split anchored at its first lag ``a``,
    ``k(s, j) = sum_l p_l(s - a) q_l(a, j)``
    (:func:`~posid.kernels.semiseparable_split`).  So a block's weights
    are ``q_l(a, .)`` on its lags for the sections after it and
    ``p_l(. - a)`` for the sections before it, and ``far`` holds the
    matching ``p_l(j - a)`` and ``q_l(a, j)``.
    """
    K = gram(kernel, np.arange(n_sec), np.arange(n_sec))
    _, piv, rank, _ = scipy.linalg.lapack.dpstrf(K, lower=1)
    sections = np.sort(piv[:rank] - 1)
    # take keeps C order, so a full-rank Gram gives the unpivoted blocks
    # bit for bit (fancy indexing would hand BLAS a Fortran-order copy)
    cols = K.take(sections, axis=1)
    blocks, far = [], []
    for start in range(0, n_sec, _BLOCK):
        stop = min(start + _BLOCK, n_sec)
        lags = np.arange(start, stop)
        lo, hi = (int(i) for i in np.searchsorted(sections, (start, stop)))
        weights = []
        if hi < rank:
            p, q = semiseparable_split(kernel, stop - 1, lags,
                                       sections[hi:] - (stop - 1))
            weights.append(_rows(q, lags.size).T)
            far.append(np.zeros((len(p), rank)))
            far[-1][:, hi:] = p
        if lo > 0:
            p, q = semiseparable_split(kernel, start, sections[:lo],
                                       lags - start)
            weights.append(p.T)
            far.append(np.zeros((len(p), rank)))
            far[-1][:, :lo] = _rows(q, lo)
        weights = np.hstack(weights) if weights else np.zeros((len(lags), 0))
        blocks.append((start, stop, lo, hi, weights))
    basis = _SectionBasis(sections, cols, cols[sections], tuple(blocks),
                          np.vstack(far) if far else np.zeros((0, rank)))
    for array in (basis.sections, basis.cols, basis.K, basis.far,
                  *(block[-1] for block in blocks)):
        array.flags.writeable = False
    return basis


def _rows(factors: list[np.ndarray], size: int) -> np.ndarray:
    """Split factors as rows of ``size`` entries; a 0-d one is repeated."""
    return np.stack([np.broadcast_to(f, (size,)) for f in factors])


def _input_convolved(data: TimeSeriesData, modes) -> np.ndarray:
    """Modes convolved with the input at every sample time."""
    width = required_width(data)
    return input_weight_matrix(data, width) @ modes(width)


def polynomial_modes(rho: float, degrees: int, horizon: int) -> np.ndarray:
    """Columns ``t**j * rho**t`` for ``j < degrees`` on ``t < horizon``.

    The ``t = 0, j = 0`` entry is 1 (zero to the zeroth power taken as
    one), so the constant mode reaches time zero.
    """
    t = np.arange(horizon, dtype=float)
    # np.power(0.0, 0) is 1, which is the convention needed at t = 0.
    cols = [np.power(t, j) * rho ** t for j in range(degrees)]
    return np.stack(cols, axis=1)


def assemble_polynomial_blocks(data: TimeSeriesData, rho: float, n: int,
                               epsilon: float = 0.0,
                               a_min: float = 1e-6) -> DominantBasis:
    """Basis of a dominant pole of multiplicity ``n``.

    The modes are ``t**j * rho**t`` for ``j < n``; the top-degree
    coefficient is floored at ``a_min`` and sets the horizon cap, and
    ``epsilon`` penalises the lower-degree ones.  ``n = 1`` is the simple
    pole of the base estimator.
    """
    check_count("pole multiplicity", n)
    check_unit_interval("rho", rho)
    modes = partial(polynomial_modes, rho, n)
    penalty = epsilon * np.diag(np.r_[np.ones(n - 1), 0.0])
    return DominantBasis(B=_input_convolved(data, modes), modes=modes,
                         floor=np.eye(n)[n - 1:], penalty=penalty,
                         cap=np.eye(n)[n - 1], rho=rho, a_min=a_min)


def periodic_modes(rho: float, n: int, horizon: int) -> np.ndarray:
    """Columns ``rho**t * [t mod n == j]`` for ``j < n`` on ``t < horizon``.

    With the real period ``x`` as coefficients they give
    ``rho**t * x[t mod n]``.
    """
    t = np.arange(horizon)
    decay = rho ** t.astype(float)
    return decay[:, None] * (t[:, None] % n == np.arange(n))


def assemble_oscillation_blocks(data: TimeSeriesData, rho: float, n: int,
                                epsilon: float = 0.0,
                                a_min: float = 1e-6) -> DominantBasis:
    """Basis of ``n`` simple dominant poles at the unit-root phases.

    Poles ``rho * omega**k`` with real combined response are
    ``rho**t * x[t mod n]`` for one real period ``x``, the coefficients
    here; the phase coefficients are ``fft(x) / n``.  Every period value
    is floored at ``a_min``, and ``epsilon`` penalises every phase but
    the constant one, which by Parseval is ``epsilon`` times the spread
    ``x'x / n - (sum x)**2 / n**2``.  The constant phase, the mode
    ``rho**t`` itself, sets the horizon cap.
    """
    check_unit_interval("rho", rho)
    check_count("period", n)
    modes = partial(periodic_modes, rho, n)
    penalty = epsilon * (np.eye(n) / n - np.full((n, n), 1.0 / n ** 2))
    return DominantBasis(B=_input_convolved(data, modes), modes=modes,
                         floor=np.eye(n), penalty=penalty, cap=np.ones(n),
                         rho=rho, a_min=a_min)


def _no_modes(horizon: int) -> np.ndarray:
    return np.zeros((horizon, 0))


def empty_basis(data: TimeSeriesData) -> DominantBasis:
    """Basis with no modes, for a response of zero spectral radius."""
    empty = np.zeros((0, 0))
    return DominantBasis(B=np.zeros((data.n_samples, 0)), modes=_no_modes,
                         floor=empty, penalty=empty, cap=np.zeros(0),
                         rho=0.0, a_min=0.0)
