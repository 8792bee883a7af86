"""Stable kernels on the nonnegative integer lattice.

Three exponentially decaying families are provided (``tc``, ``dc``, ``ss``),
each optionally windowed to a finite support ``[0, n)``.  Every family is
positive semidefinite and absolutely summable along its sections, and each
family carries an explicit diagonal domination bound

    k(t, t) <= c * rho_d**(2 * t)

that also holds for its windows.  The bound certifies compatibility
between the kernel decay and a dominant pole ``rho`` (the bound rate must
satisfy ``rho_d < rho``); a window is compatible with every pole.

Gram matrices are evaluated from per-lag power tables.  Every term of a
family is a power of ``beta`` (or of ``gamma``) whose exponent is one
integer combination of the two indices: ``max(s, t)`` for tc, ``s + t``
and ``|s - t|`` for dc, ``s + t + max(s, t)`` and ``max(s, t)`` for ss.
Each term is tabulated once per lag up to its largest combination and
gathered onto the grid, so the number of ``pow`` calls grows with the
largest index, not with the number of entries.  The tables are computed
by the same calls as the closed forms above, so the values are
bit-identical to evaluating those forms entry by entry.

Every family is also semiseparable (Chen & Andersen 2021, "On
semiseparable kernels and efficient implementation for regularized
system identification and function estimation", Automatica): for
``s <= a <= t``, ``k(t, s)`` is a sum of one (tc, dc) or two (ss)
products of a factor of ``t - a`` and a factor of ``(a, s)``, and
:func:`semiseparable_split` is the one place that states them.  The
identity is used in both directions.  Past the last section ``a`` of a
residual ``h = sum_j w[j] k(., J[j])``, ``h`` is one or two terms in
``t - a``, which :func:`section_tail` evaluates in O(count) with no
Gram.  And :func:`~posid.assembly.assemble_core` anchors each block of
lags at its last lag for the sections after it (``k(j, s)``, ``s`` in
the block) and at its first lag for the sections before it
(``k(s, j)`` by symmetry), so a whole block meets a distant section
through one or two weighted sums.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

KIND_TC = "tc"
KIND_DC = "dc"
KIND_SS = "ss"

_KINDS = (KIND_TC, KIND_DC, KIND_SS)


@dataclass(frozen=True)
class KernelSpec:
    """Immutable, hashable description of one kernel.

    Parameters
    ----------
    kind : str
        One of ``"tc"``, ``"dc"``, ``"ss"``.
    beta : float
        Decay parameter in ``[0, 1)``.
    gamma : float, optional
        Off-diagonal correlation in ``[-1, 1]``; ``dc`` only.
    support : int, optional
        Window length ``n``: the kernel equals its family on
        ``[0, n) x [0, n)`` and is zero outside.  ``None`` leaves the
        family unwindowed.

    Use the classmethod constructors (:meth:`tc`, :meth:`dc`, :meth:`ss`)
    and :func:`window_kernel` rather than filling fields by hand.
    """

    kind: str
    beta: float = 0.0
    gamma: float | None = None
    support: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if not 0.0 <= self.beta < 1.0:
            raise ConfigError(
                f"kernel beta must lie in [0, 1), got {self.beta}")
        if self.kind == KIND_DC:
            if self.gamma is None or not -1.0 <= self.gamma <= 1.0:
                raise ConfigError(
                    f"dc kernel needs gamma in [-1, 1], got {self.gamma}")
        elif self.gamma is not None:
            raise ConfigError(f"{self.kind} kernel takes no gamma")
        if self.support is not None and self.support <= 0:
            raise ConfigError(f"support must be positive, got {self.support}")

    @classmethod
    def tc(cls, beta: float) -> "KernelSpec":
        """k(s, t) = beta**max(s, t)."""
        return cls(kind=KIND_TC, beta=beta)

    @classmethod
    def dc(cls, beta: float, gamma: float) -> "KernelSpec":
        """k(s, t) = beta**((s + t) / 2) * gamma**|s - t|."""
        return cls(kind=KIND_DC, beta=beta, gamma=gamma)

    @classmethod
    def ss(cls, beta: float) -> "KernelSpec":
        """k(s, t) = beta**(s + t + max(s, t)) / 2 - beta**(3 max(s, t)) / 6."""
        return cls(kind=KIND_SS, beta=beta)


def _integer_power(base: float, lag: np.ndarray) -> np.ndarray:
    """``base ** lag`` for nonnegative integer lags.

    A negative base takes its sign from the parity of the lag, because
    ``pow`` on a negative base is several times slower.
    """
    out = np.power(abs(base), lag)
    if base < 0.0:
        np.negative(out, out=out, where=(lag & 1).astype(bool))
    return out


def _eval_grid(kernel: KernelSpec, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Kernel values on the grid of broadcast index arrays ``s`` and ``t``.

    Gathered from per-lag power tables (see the module docstring).  Each
    N x N lag array is freed before the next one is built.
    """
    s = np.asarray(s, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    top = max(int(s.max(initial=0)), int(t.max(initial=0)))
    beta = kernel.beta
    if kernel.kind == KIND_TC:
        power = np.power(beta, np.arange(top + 1, dtype=float))
        out = power.take(np.maximum(s, t))
    elif kernel.kind == KIND_DC:
        diag = np.power(beta, np.arange(2 * top + 1, dtype=float) / 2.0)
        out = diag.take(s + t)
        lag = s - t
        np.abs(lag, out=lag)
        off = _integer_power(kernel.gamma, np.arange(top + 1, dtype=np.int64))
        off = off.take(lag)
        del lag
        out *= off
    else:
        lag = np.maximum(s, t)
        cube = np.power(beta, 3.0 * np.arange(top + 1, dtype=float)) / 6.0
        tail = cube.take(lag)
        lag += s
        lag += t
        head = np.power(beta, np.arange(3 * top + 1, dtype=float)) / 2.0
        out = head.take(lag)
        del lag
        out -= tail
    if kernel.support is None:
        return out
    n = kernel.support
    return np.where((s < n) & (t < n), out, 0.0)


def gram(kernel: KernelSpec, rows, cols) -> np.ndarray:
    """Gram matrix ``[k(r, c)]`` for the given index lists.

    Parameters
    ----------
    kernel : KernelSpec
    rows, cols : sequences of nonnegative integers

    Returns
    -------
    ndarray of shape ``(len(rows), len(cols))``.
    """
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    if r.ndim != 1 or c.ndim != 1:
        raise ConfigError("gram indices must be one-dimensional")
    if r.size and r.min() < 0 or c.size and c.min() < 0:
        raise ConfigError("gram indices must be nonnegative")
    return _eval_grid(kernel, r[:, None], c[None, :])


def semiseparable_split(kernel: KernelSpec, anchor: int, lags,
                        offsets) -> tuple[np.ndarray, list[np.ndarray]]:
    """Factors of ``k(anchor + d, s) = sum_l p[l, d] q[l](s)``, ``s <= anchor``.

    Returns ``p`` on the ``offsets`` ``d >= 0``, one row per term, and
    the list ``q`` of the terms' factors on the ``lags`` ``s``, for the
    unwindowed family.  A factor that is the same for every lag is a 0-d
    array.  tc and dc have one term, the kernel row at the anchor:
    ``k(a + d, s) = k(d, 0) k(a, s)``, with ``k(d, 0)`` from the family's
    own power tables (dc as ``beta**(d/2) * gamma**d``: the rounded rate
    ``sqrt(beta) * gamma`` would compound its error over ``d``).  ss has
    the two terms of its closed form::

        k(a + d, s) = beta**(2d) * beta**(2a + s) / 2
                      - beta**(3d) * beta**(3a) / 6

    Every factor is a kernel value or a term of a closed form, with no
    division by one, so none overflows at ``beta = 0`` or ``gamma = 0``.
    """
    family = replace(kernel, support=None)
    s = np.asarray(lags, dtype=np.int64)
    d = np.asarray(offsets, dtype=np.int64)
    if kernel.kind != KIND_SS:
        return _eval_grid(family, d, 0)[None], [_eval_grid(family, anchor, s)]
    beta = kernel.beta
    p = np.stack([np.power(beta, 2.0 * d), -np.power(beta, 3.0 * d)])
    q = [np.power(beta, 2.0 * anchor + s) / 2.0,
         np.asarray(np.power(beta, 3.0 * anchor) / 6.0)]
    return p, q


def section_tail(kernel: KernelSpec, sections, w: np.ndarray,
                 h_last: float, count: int) -> np.ndarray:
    """Residual ``h(a + k)`` for ``k = 1 .. count`` past the last section.

    ``h = sum_j w[j] k(., sections[j])``, ``a = max(sections)`` and
    ``h_last = h(a)``.  Every section lies at or before ``a``, so
    :func:`semiseparable_split` anchored at ``a`` gives
    ``h(a + k) = sum_l c[l] p[l, k]`` with ``c[l] = q[l] @ w``.  A single
    term's factor is the kernel row at ``a`` (tc, dc), whose weight is
    ``h_last`` itself.  A window zeroes the lags ``a + k >= support``.
    """
    s = np.asarray(sections, dtype=np.int64)
    last = int(s.max())
    lags = np.arange(1, count + 1, dtype=np.int64)
    p, q = semiseparable_split(kernel, last, s, lags)
    if len(q) == 1:
        weights = [h_last]
    else:
        weights = [q_l @ w if q_l.ndim else q_l * np.sum(w) for q_l in q]
    tail = weights[0] * p[0]
    for c, p_l in zip(weights[1:], p[1:]):
        tail += c * p_l
    if kernel.support is not None:
        tail[last + lags >= kernel.support] = 0.0
    return tail


@dataclass(frozen=True)
class DominationBound:
    """Certified diagonal envelope ``k(t, t) <= c * rho_d**(2 t)``.

    A window only zeroes entries, so the bound of a family also holds for
    every window of it.
    """

    c: float
    rho_d: float


def domination_bound(kernel: KernelSpec) -> DominationBound:
    """Diagonal domination bound of a kernel's family.

    tc/dc give ``(c, rho_d) = (1, sqrt(beta))``; ss gives
    ``(1/3, beta**1.5)``.  The support is ignored: the family's bound
    certifies each of its windows.
    """
    if kernel.kind == KIND_SS:
        return DominationBound(c=1.0 / 3.0, rho_d=float(kernel.beta ** 1.5))
    return DominationBound(c=1.0, rho_d=float(np.sqrt(kernel.beta)))


def window_kernel(kernel: KernelSpec, support: int) -> KernelSpec:
    """Kernel equal to ``kernel`` on ``[0, support)^2`` and zero outside.

    A window of a PSD kernel is PSD: its Gram on any index set is the
    family's Gram on the indices inside the support, padded with zero rows
    and columns.  Narrowing a window is allowed; widening one raises,
    since the entries past the old support are gone.
    """
    if kernel.support is not None and support > kernel.support:
        raise ConfigError(f"cannot widen a window of {kernel.support} "
                          f"to {support}")
    if support == kernel.support:
        return kernel
    return replace(kernel, support=support)


def decay_compatible(kernel: KernelSpec, rho: float) -> bool:
    """Whether the kernel decay is strictly faster than the pole ``rho``.

    True when the certified domination rate satisfies ``rho_d < rho``.
    Windowed kernels are compatible with every ``rho`` in ``(0, 1)``
    because their diagonal vanishes beyond the support.
    """
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"rho must lie in (0, 1), got {rho}")
    return kernel.support is not None or domination_bound(kernel).rho_d < rho
