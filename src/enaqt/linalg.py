"""Dense complex linear-algebra primitives shared by all other modules. A linear map E is held
as its row-major matrix M, vec(E(rho)) = M @ vec(rho) with vec(rho) the rows of rho end to end.
superoperator builds it from any map; kernel and circuit build their step's M in closed form.

Units convention: energies in cm^-1, times in fs. The phase accumulated by a
level of energy E over time t is 2*pi*c * E[cm^-1] * t[fs] with
c = 2.99792458e-5 cm/fs, i.e. an effective hbar of ~5308.84 cm^-1 fs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, NumericalError

SPEED_OF_LIGHT_CM_FS = 2.99792458e-5
"""Speed of light in cm/fs."""

HBAR_CM1_FS = 1.0 / (2.0 * np.pi * SPEED_OF_LIGHT_CM_FS)
"""Effective hbar in cm^-1 fs (~5308.84): phase = E*dt/HBAR_CM1_FS."""

KB_CM1_PER_K = 0.6950348004
"""Boltzmann constant in cm^-1 per kelvin (k_B / (h c))."""


def herm_defect(m: np.ndarray) -> float:
    """Max-norm distance of `m` from its own adjoint."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def eigh(m: np.ndarray):
    """Eigendecomposition of a hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as orthonormal columns. Raises NotHermitianError if the
    input deviates from hermiticity by more than 1e-10 (max norm).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    defect = herm_defect(m)
    if defect > 1e-10:
        raise NotHermitianError(
            f"matrix is not hermitian: max |m - m^dag| = {defect:.3e} > 1.0e-10"
        )
    w, v = np.linalg.eigh(m)
    return w, v


def evolution_unitary(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i*h*dt/hbar) for hermitian h (hbar = HBAR_CM1_FS), via eigendecomposition.

    Diagonalizing instead of scaling-and-squaring guarantees the result is
    unitary up to eigensolver error, which the step maps rely on.
    """
    w, v = eigh(h)
    with np.errstate(over="ignore", invalid="ignore"):  # a phase past the float range is rejected below
        phases = -1j * w * (dt / HBAR_CM1_FS)
    if not np.isfinite(phases).all():
        raise NumericalError(f"exp(-i H dt / hbar) at dt {dt!r} fs is not finite: E dt / hbar overflows")
    return (v * np.exp(phases)) @ v.conj().T


def frob_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance sqrt(sum |a_ij - b_ij|^2)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def superoperator(apply_stack, dim: int) -> np.ndarray:
    """Row-major M with vec(E(rho)) = M @ vec(rho), from one call of E on the stack of the dim^2
    basis elements |a><b|, element a*dim + b: the transposed view of the stacked outputs."""
    basis = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    return np.asarray(apply_stack(basis), dtype=complex).reshape(dim * dim, dim * dim).T


def choi_from_transfer(t: np.ndarray) -> np.ndarray:
    """Choi matrix of the channel with row-major transfer matrix t, a reshuffle of t.

    choi[a*d + i, b*d + j] = E(|a><b|)[i, j] = t[i*d + j, a*d + b].
    """
    d = math.isqrt(t.shape[0])
    return t.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


def successive_ratios(rows) -> list:
    """Ratios y_k / y_(k+1) of successive (x, y) rows, skipping rows whose y is not > 0.

    Per halving of x, a first-order error gives ~2 and a second-order one ~4.
    """
    return [a[1] / b[1] for a, b in zip(rows, rows[1:]) if b[1] > 0]
