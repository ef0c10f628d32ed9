"""Continuous-time Lindblad integrator used as the correctness oracle.

The model is a Hamiltonian H (cm^-1) and a rate matrix rates[M, N] (fs^-1) for
the rank-one jumps |N><M|, the convention of fmo and kernel.JumpRateSpec. Their
GKSL dissipator sum_MN rates[M, N] (|N><M| rho |M><N| - 1/2 {|M><M|, rho}) has
the closed form

    D(rho)_NN += sum_M rho_MM rates[M, N],   D(rho)_ab -= 1/2 (G_a + G_b) rho_ab,

with G = rates.sum(1) the total rate out of each state. The anticommutator
projector sits on the *source* state |M>, the only trace-free choice, and its
terms deplete the state the population leaves.

A fixed-step classical RK4 drives the integration (deliberately not an
eigendecomposition-based exponential, and never the kernel's operator-sum step,
to stay structurally independent of the discrete kernel it cross-checks). For
the linear master equation one RK4 step of size h is exactly
T = 1 + hL (1 + hL/2 (1 + hL/3 (1 + hL/4))), with the Liouvillian matrix L
built by linalg.superoperator from one lindblad_rhs call on the stack of d^2 basis elements.
rk4_integrate steps T through kernel.propagate. convergence_report needs only final states:
it raises T, and the kernel's step_transfer_matrix built from the per-step probabilities
rates * dt and U(dt), to their step counts by squaring.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import DimensionMismatchError, NotHermitianError, StepTooLargeWarning
from .kernel import JumpRateSpec, Trajectory
from .linalg import HBAR_CM1_FS, evolution_unitary, frob_dist, herm_defect, superoperator


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian (cm^-1) plus the rates[M, N] (fs^-1) of the jumps |N><M|."""

    hamiltonian: np.ndarray
    rates_per_fs: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        r = np.asarray(self.rates_per_fs, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or r.shape != h.shape:
            raise DimensionMismatchError(
                f"hamiltonian {h.shape} and rate matrix {r.shape} must be square and of equal shape"
            )
        defect = herm_defect(h)
        if defect > 1e-10:
            raise NotHermitianError(f"hamiltonian hermiticity defect {defect:.3e}")
        if not np.all(np.isfinite(r)) or np.any(r < 0.0):
            raise ValueError("rates must be finite and >= 0")
        if np.any(np.diag(r) != 0.0):
            raise ValueError("rate matrix diagonal must be zero")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "rates_per_fs", r)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def lindblad_rhs(rho: np.ndarray, model: LindbladModel) -> np.ndarray:
    """d(rho)/dt: -(i/hbar)[H, rho] plus the closed-form dissipator, on a state or a stack (..., d, d)."""
    rho = np.asarray(rho, dtype=complex)
    h, rates = model.hamiltonian, model.rates_per_fs
    d = model.dim
    if rho.shape[-2:] != h.shape:
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match hamiltonian {h.shape}"
        )
    out = (-1j / HBAR_CM1_FS) * (h @ rho - rho @ h)
    pops = np.diagonal(rho, axis1=-2, axis2=-1)
    # einsum, not @: matmul takes another BLAS route for one state than for a stack
    out[..., np.arange(d), np.arange(d)] += np.einsum("...m,mn->...n", pops, rates)
    total = rates.sum(axis=1)  # G
    out -= 0.5 * (total[:, None] + total[None, :]) * rho
    return out


def rk4_integrate(
    rho0: np.ndarray, model: LindbladModel, dt: float, steps: int, observers: np.ndarray,
) -> Trajectory:
    """Fixed-step RK4 integration of the master equation.

    Steps the RK4 polynomial T of the module docstring through kernel.propagate and its
    invariant checks; RK4 is not positivity preserving, so with no dissipation dt must be
    small. Emits StepTooLargeWarning once if sqrt(||dt L||_1 ||dt L||_inf) >= 0.1, where
    the fixed step starts losing its accuracy budget; this SVD-free bound on ||dt L||_2
    bounds ||rhs|| * dt for every state of Frobenius norm <= 1.
    """
    return kernel.propagate(rk4_transfer_matrix(model, dt), rho0, dt, steps, observers)


def rk4_transfer_matrix(model: LindbladModel, dt: float) -> np.ndarray:
    """The RK4 polynomial T of the module docstring.

    Warns if dt is coarse (see rk4_integrate), at the line that called its caller.
    """
    d = model.dim
    hl = dt * superoperator(lambda basis: lindblad_rhs(basis, model), d)
    bound = np.sqrt(np.linalg.norm(hl, 1) * np.linalg.norm(hl, np.inf))  # >= ||dt L||_2
    if bound >= 0.1:
        warnings.warn(f"RK4 step {dt} fs is coarse: ||dt L||_2 bound {bound:.3f} >= 0.1",
                      StepTooLargeWarning, stacklevel=3)
    one = np.eye(d * d)
    return one + hl @ (one + hl / 2.0 @ (one + hl / 3.0 @ (one + hl / 4.0)))


def _final_state(t: np.ndarray, rho0: np.ndarray, steps: int) -> np.ndarray:
    """rho0 after `steps` steps of the row-major transfer matrix t, by squaring t."""
    return (np.linalg.matrix_power(t, steps) @ rho0.reshape(-1)).reshape(rho0.shape)


def convergence_report(model: LindbladModel, rho0: np.ndarray, t_final: float, dt_list) -> list:
    """(dt, Frobenius distance) rows at t_final between the discrete kernel and RK4, largest dt first.

    Every dt in dt_list must divide t_final. The oracle runs once at
    min(dt_list)/10, and its final state is hermitized. Distances shrink roughly
    linearly in dt: the discrete step solves the master equation to first order.
    """
    dt_list = [float(dt) for dt in dt_list]
    if not dt_list:
        raise ValueError("dt_list must be non-empty")
    for dt in dt_list:
        if abs(t_final / dt - round(t_final / dt)) > 1e-9:
            raise ValueError(f"dt = {dt} fs does not divide t_final = {t_final} fs")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != model.hamiltonian.shape:
        raise DimensionMismatchError(f"state shape {rho0.shape} does not match dim {model.dim}")
    # each dt's jump probabilities first, so that a dt past one jump per step fails before the RK4 run
    with np.errstate(over="ignore"):  # a probability past the float range is inf, which JumpRateSpec rejects
        specs = [(dt, JumpRateSpec(model.rates_per_fs * dt)) for dt in sorted(dt_list, reverse=True)]
    oracle_steps = int(round(10.0 * t_final / min(dt_list)))  # min(dt_list) / 10 may underflow to 0
    ref = _final_state(rk4_transfer_matrix(model, t_final / oracle_steps), rho0, oracle_steps)
    ref = 0.5 * (ref + ref.conj().T)

    rows = []
    for dt, rates in specs:
        u = evolution_unitary(model.hamiltonian, dt)
        t = kernel.step_transfer_matrix(rates, u, 1.0)
        final = _final_state(t, rho0, int(round(t_final / dt)))
        rows.append((dt, frob_dist(final, ref)))
    return rows
