"""Continuous-time Lindblad integrator used as the correctness oracle.

Implements the standard GKSL dissipator

    L(rho) = sum_k Gamma_k ( L_k rho L_k^dag - 1/2 {L_k^dag L_k, rho} ).

For rank-one transition operators L = |N><M| the anticommutator projector
sits on the *source* state |M>, which is the only trace-free choice and the
one whose normalisation terms deplete the state the population leaves.

A fixed-step classical RK4 drives the integration (deliberately not an
eigendecomposition-based exponential, to stay structurally independent of
the discrete kernel it cross-checks). For the linear master equation one RK4
step of size h is exactly T = 1 + hL (1 + hL/2 (1 + hL/3 (1 + hL/4))), with
the Liouvillian matrix L built from lindblad_rhs on the d^2 basis elements.
rk4_integrate steps T by matvec; convergence_report needs only final states,
so it raises T and the kernel's transfer matrix to their step counts by squaring.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .errors import DimensionMismatchError, NotHermitianError, StepTooLargeWarning
from .kernel import JumpRateSpec, Trajectory
from .linalg import HBAR_CM1_FS, evolution_unitary, frob_dist, herm_defect


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian (cm^-1) plus jump operators with rates in fs^-1."""

    hamiltonian: np.ndarray
    jumps: tuple = ()
    # (L, L^dag, Gamma, sum Gamma L^dag L) over the jumps for the rhs; None without jumps
    _stacked: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatchError(f"hamiltonian must be square, got {h.shape}")
        defect = herm_defect(h)
        if defect > 1e-10:
            raise NotHermitianError(f"hamiltonian hermiticity defect {defect:.3e}")
        jumps = []
        for op, rate in self.jumps:
            op = np.asarray(op, dtype=complex)
            if op.shape != h.shape:
                raise DimensionMismatchError(
                    f"jump operator shape {op.shape} does not match {h.shape}"
                )
            if rate < 0:
                raise ValueError(f"jump rate must be >= 0, got {rate}")
            jumps.append((op, float(rate)))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jumps", tuple(jumps))
        stacked = None
        if jumps:
            L = np.stack([op for op, _ in jumps])
            g = np.array([rate for _, rate in jumps])[:, None, None]
            Ld = L.conj().transpose(0, 2, 1)
            stacked = (L, Ld, g, np.sum(g * (Ld @ L), axis=0))
        object.__setattr__(self, "_stacked", stacked)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @classmethod
    def from_rate_matrix(cls, hamiltonian: np.ndarray, rates_per_fs: np.ndarray):
        """Model with rank-one transition jumps |N><M| at rate rates[M, N]."""
        r = np.asarray(rates_per_fs, dtype=float)
        d = r.shape[0]
        if r.shape != (d, d):
            raise DimensionMismatchError(f"rate matrix must be square, got {r.shape}")
        jumps = []
        for m in range(d):
            for n in range(d):
                if m == n or r[m, n] == 0.0:
                    continue
                op = np.zeros((d, d), dtype=complex)
                op[n, m] = 1.0
                jumps.append((op, r[m, n]))
        return cls(hamiltonian=hamiltonian, jumps=tuple(jumps))

    def transition_rate_matrix(self) -> np.ndarray:
        """Recover rates[M, N] from rank-one transition jumps.

        Raises ValueError if any jump operator is not a single-entry basis
        transition (the discrete kernel only represents those).
        """
        d = self.dim
        rates = np.zeros((d, d))
        for op, rate in self.jumps:
            idx = np.argwhere(np.abs(op) > 1e-14)
            if len(idx) != 1:
                raise ValueError(
                    "jump operator is not a basis transition |N><M|; "
                    "cannot map onto the discrete kernel"
                )
            n, m = idx[0]
            if n == m:
                raise ValueError("diagonal jump operators have no kernel counterpart")
            rates[m, n] += rate * float(np.abs(op[n, m]) ** 2)
        return rates


def lindblad_rhs(rho: np.ndarray, model: LindbladModel) -> np.ndarray:
    """d(rho)/dt: -(i/hbar)[H, rho] plus the GKSL dissipator."""
    rho = np.asarray(rho, dtype=complex)
    h = model.hamiltonian
    if rho.shape != h.shape:
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match hamiltonian {h.shape}"
        )
    out = (-1j / HBAR_CM1_FS) * (h @ rho - rho @ h)
    if model._stacked is not None:
        L, Ld, g, LdL_tot = model._stacked
        out += np.sum(g * (L @ rho @ Ld), axis=0)
        out -= 0.5 * (LdL_tot @ rho + rho @ LdL_tot)
    return out


def rk4_integrate(
    rho0: np.ndarray,
    model: LindbladModel,
    dt: float,
    steps: int,
    observers: np.ndarray | None = None,
) -> Trajectory:
    """Fixed-step RK4 integration of the master equation.

    Steps the RK4 polynomial T of the module docstring through kernel.propagate,
    which checks the shapes but never raises on the states here (psd_tol =
    inf); metadata["final_state"] is the hermitized last state. Emits
    StepTooLargeWarning once if sqrt(||dt L||_1 ||dt L||_inf) >= 0.1, where
    the fixed step starts losing its accuracy budget; this SVD-free bound on
    ||dt L||_2 bounds ||rhs|| * dt for every state of Frobenius norm <= 1.
    """
    obs = np.stack([np.diag(e) for e in np.eye(model.dim)]) if observers is None else observers
    traj = kernel.propagate(_rk4_transfer_matrix(model, dt), rho0, dt, steps, obs, psd_tol=np.inf)
    rho = traj.metadata["final_state"]
    traj.metadata["final_state"] = 0.5 * (rho + rho.conj().T)
    return traj


def _rk4_transfer_matrix(model: LindbladModel, dt: float) -> np.ndarray:
    """The RK4 polynomial T of the module docstring; warns if dt is coarse (see rk4_integrate)."""
    d = model.dim
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    hl = dt * np.stack([lindblad_rhs(e, model).reshape(-1) for e in basis], axis=1)
    bound = np.sqrt(np.linalg.norm(hl, 1) * np.linalg.norm(hl, np.inf))  # >= ||dt L||_2
    if bound >= 0.1:
        warnings.warn(f"RK4 step {dt} fs is coarse: ||dt L||_2 bound {bound:.3f} >= 0.1",
                      StepTooLargeWarning, stacklevel=3)
    one = np.eye(d * d)
    return one + hl @ (one + hl / 2.0 @ (one + hl / 3.0 @ (one + hl / 4.0)))


def _final_state(t: np.ndarray, rho0: np.ndarray, steps: int) -> np.ndarray:
    """rho0 after `steps` steps of the row-major transfer matrix t, by squaring t."""
    return (np.linalg.matrix_power(t, steps) @ rho0.reshape(-1)).reshape(rho0.shape)


@dataclass
class ConvergenceReport:
    """Distances between the discrete step iteration and the RK4 oracle."""

    t_final: float
    oracle_dt: float
    rows: list = field(default_factory=list)  # (dt, frobenius distance)

    def ratios(self) -> list:
        """Successive error ratios; ~2 per dt halving for a first-order map."""
        return [
            self.rows[i][1] / self.rows[i + 1][1]
            for i in range(len(self.rows) - 1)
            if self.rows[i + 1][1] > 0
        ]


def convergence_report(
    model: LindbladModel,
    rho0: np.ndarray,
    t_final: float,
    dt_list,
    oracle_dt: float | None = None,
) -> ConvergenceReport:
    """Frobenius distance at t_final between the discrete kernel and RK4.

    Every dt in dt_list must divide t_final. The oracle runs once at
    oracle_dt (default min(dt_list)/10). Distances shrink roughly linearly
    in dt: the discrete step solves the master equation to first order.
    """
    dt_list = [float(dt) for dt in dt_list]
    if not dt_list:
        raise ValueError("dt_list must be non-empty")
    for dt in dt_list:
        if abs(t_final / dt - round(t_final / dt)) > 1e-9:
            raise ValueError(f"dt = {dt} fs does not divide t_final = {t_final} fs")
    if oracle_dt is None:
        oracle_dt = min(dt_list) / 10.0
    if oracle_dt > min(dt_list) / 10.0 + 1e-12:
        raise ValueError("oracle_dt must be at most min(dt_list)/10")

    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != model.hamiltonian.shape:
        raise DimensionMismatchError(f"state shape {rho0.shape} does not match dim {model.dim}")
    oracle_steps = int(round(t_final / oracle_dt))
    ref = _final_state(_rk4_transfer_matrix(model, t_final / oracle_steps), rho0, oracle_steps)
    ref = 0.5 * (ref + ref.conj().T)

    rates = model.transition_rate_matrix()
    report = ConvergenceReport(t_final=t_final, oracle_dt=oracle_dt)
    for dt in sorted(dt_list, reverse=True):
        u = evolution_unitary(model.hamiltonian, dt)
        ops = kernel.build_evolution_operators(JumpRateSpec(rates * dt), u)
        final = _final_state(kernel.step_transfer_matrix(ops, 1.0), rho0, int(round(t_final / dt)))
        report.rows.append((dt, frob_dist(final, ref)))
    return report
