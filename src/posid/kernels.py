"""Stable kernels on the nonnegative integer lattice.

Three exponentially decaying families are provided (``tc``, ``dc``, ``ss``)
plus arbitrary finite-support tables.  Every family is positive
semidefinite and absolutely summable along its sections, and each decaying
family carries an explicit diagonal domination bound

    k(t, t) <= c * rho_d**(2 * t)

used to certify compatibility between the kernel decay and a dominant pole
``rho`` (the bound rate must satisfy ``rho_d < rho``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

KIND_TC = "tc"
KIND_DC = "dc"
KIND_SS = "ss"
KIND_FINITE = "finite"

_DECAYING_KINDS = (KIND_TC, KIND_DC, KIND_SS)
# Relative floor for the smallest eigenvalue of a finite-support table.
_PSD_RTOL = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of one kernel.

    Parameters
    ----------
    kind : str
        One of ``"tc"``, ``"dc"``, ``"ss"``, ``"finite"``.
    beta : float
        Decay parameter in ``[0, 1)`` for the decaying kinds.
    gamma : float, optional
        Off-diagonal correlation in ``[-1, 1]``; ``dc`` only.
    table : ndarray, optional
        Symmetric PSD matrix of kernel values on ``[0, n) x [0, n)``;
        ``finite`` only.  The kernel is zero outside the table.

    Use the classmethod constructors (:meth:`tc`, :meth:`dc`, :meth:`ss`,
    :meth:`finite_support`) rather than filling fields by hand.
    """

    kind: str
    beta: float = 0.0
    gamma: float | None = None
    table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in (*_DECAYING_KINDS, KIND_FINITE):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if self.kind in _DECAYING_KINDS:
            if not 0.0 <= self.beta < 1.0:
                raise ConfigError(
                    f"kernel beta must lie in [0, 1), got {self.beta}")
            if self.kind == KIND_DC:
                if self.gamma is None or not -1.0 <= self.gamma <= 1.0:
                    raise ConfigError(
                        f"dc kernel needs gamma in [-1, 1], got {self.gamma}")
            elif self.gamma is not None:
                raise ConfigError(f"{self.kind} kernel takes no gamma")
            if self.table is not None:
                raise ConfigError(f"{self.kind} kernel takes no table")
        else:
            if self.table is None:
                raise ConfigError("finite-support kernel needs a table")
            table = np.asarray(self.table, dtype=float)
            if table.ndim != 2 or table.shape[0] != table.shape[1]:
                raise ConfigError("kernel table must be a square matrix")
            if not np.allclose(table, table.T, atol=1e-12, rtol=1e-12):
                raise ConfigError("kernel table must be symmetric")
            table = 0.5 * (table + table.T)
            eigs = np.linalg.eigvalsh(table)
            scale = max(eigs[-1], 0.0)
            if eigs[0] < -_PSD_RTOL * max(scale, 1.0):
                raise ConfigError(
                    f"kernel table is not PSD (min eigenvalue {eigs[0]:.3e})")
            object.__setattr__(self, "table", table)

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

    @classmethod
    def finite_support(cls, table: np.ndarray) -> "KernelSpec":
        """Kernel equal to ``table`` on its index square, zero outside."""
        return cls(kind=KIND_FINITE, table=np.asarray(table, dtype=float))

    @property
    def support(self) -> int | None:
        """Support length for finite kernels, ``None`` otherwise."""
        if self.kind == KIND_FINITE:
            return int(self.table.shape[0])
        return None


def _eval_grid(kernel: KernelSpec, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    if kernel.kind == KIND_TC:
        return np.power(kernel.beta, np.maximum(s, t).astype(float))
    if kernel.kind == KIND_DC:
        diag = np.power(kernel.beta, (s + t).astype(float) / 2.0)
        # |s - t| stays an integer array: gamma may be negative and float
        # exponents of a negative base are undefined.
        off = np.power(kernel.gamma, np.abs(s - t))
        return diag * off
    if kernel.kind == KIND_SS:
        mx = np.maximum(s, t).astype(float)
        ssum = (s + t).astype(float)
        return (np.power(kernel.beta, ssum + mx) / 2.0
                - np.power(kernel.beta, 3.0 * mx) / 6.0)
    table = kernel.table
    n = table.shape[0]
    s_b, t_b = np.broadcast_arrays(s, t)
    inside = (s_b < n) & (t_b < n)
    out = np.zeros(s_b.shape, dtype=float)
    out[inside] = table[s_b[inside], t_b[inside]]
    return out


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


@dataclass(frozen=True)
class DominationBound:
    """Certified diagonal envelope ``k(t, t) <= c * rho_d**(2 t)``.

    For finite-support kernels no single geometric rate is canonical: the
    diagonal vanishes beyond the support, so any rate in ``(0, 1)`` admits a
    finite constant.  That case is reported with ``rho_d = None`` and ``c``
    equal to the largest diagonal table entry; the caller picks the rate.
    """

    c: float
    rho_d: float | None

    def __post_init__(self) -> None:
        if self.c < 0.0:
            raise ConfigError("domination constant must be nonnegative")
        if self.rho_d is not None and not 0.0 <= self.rho_d < 1.0:
            raise ConfigError("domination rate must lie in [0, 1)")


def domination_bound(kernel: KernelSpec) -> DominationBound:
    """Diagonal domination bound of a kernel.

    tc/dc give ``(c, rho_d) = (1, sqrt(beta))``; ss gives
    ``(1/3, beta**1.5)``; finite-support kernels return the sentinel form
    described on :class:`DominationBound`.
    """
    if kernel.kind in (KIND_TC, KIND_DC):
        return DominationBound(c=1.0, rho_d=float(np.sqrt(kernel.beta)))
    if kernel.kind == KIND_SS:
        return DominationBound(c=1.0 / 3.0, rho_d=float(kernel.beta ** 1.5))
    diag = np.diag(kernel.table)
    return DominationBound(c=float(diag.max(initial=0.0)), rho_d=None)


def window_kernel(kernel: KernelSpec, support: int) -> KernelSpec:
    """Finite-support kernel equal to ``kernel`` on ``[0, support)^2``.

    Windowing a PSD kernel keeps the table PSD (it is a principal
    submatrix of the original Gram).
    """
    if support <= 0:
        raise ConfigError(f"support must be positive, got {support}")
    if kernel.kind == KIND_FINITE and kernel.table.shape[0] == support:
        return kernel
    idx = np.arange(support)
    return KernelSpec.finite_support(gram(kernel, idx, idx))


def decay_compatible(kernel: KernelSpec, rho: float) -> bool:
    """Whether the kernel decay is strictly faster than the pole ``rho``.

    True when the certified domination rate satisfies ``rho_d < rho``.
    Finite-support kernels are compatible with every ``rho`` in ``(0, 1)``
    because their diagonal vanishes beyond the support.
    """
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"rho must lie in (0, 1), got {rho}")
    bound = domination_bound(kernel)
    if bound.rho_d is None:
        return True
    return bound.rho_d < rho
