"""Discrete-time operator-sum step for environment-assisted transport.

One evolution step combines unitary evolution U = exp(-i H dt / hbar) with
incoherent jumps between basis states. Writing s_M = sqrt(1 - sum_N gamma_MN)
for the per-step survival amplitudes, the step map is

    rho' = S (U rho U^dag) S  +  sum_{M != N} gamma_MN |N><M| rho |M><N|,

with S = diag(s_M). The first term expands into all ordered products
M_MM (U rho U^dag) M_NN^dag, i.e. it contains the asymmetric decoherence
cross-terms for every pair M != N; the second term is the population
transfer. The map is linear, hermiticity-preserving, and built from a Kraus
family satisfying sum M^dag M = 1 exactly; its trace drift per step is
second order in dt because U does not commute with the projectors.

Jump probabilities are per-step values gamma = Gamma * dt supplied by the
caller; the kernel never sees rates and time steps separately.

Trajectories are stepped by the transfer matrix T of the step map,
vec(rho') = T vec(rho), in the row-major convention vec(rho)[a*d + b] = rho[a, b]:

    T_full = diag(s (x) s) (U (x) conj(U)),  T_full[n(d+1), m(d+1)] += gamma[m, n],

and the chi-blended step is T = (1 - chi) (U (x) conj(U)) + chi T_full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    ProbabilityOutOfRangeError,
    StateInvalidError,
    SurvivalUnderflowError,
)


@dataclass(frozen=True)
class JumpRateSpec:
    """Per-step jump probabilities gamma[M, N] = P(jump M -> N in one step).

    The diagonal must be zero, every entry in [0, 1], and every row must sum
    to at most 1 so that the survival amplitude sqrt(1 - sum) exists.
    """

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionMismatchError(f"gamma must be square, got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ProbabilityOutOfRangeError("gamma contains non-finite entries")
        if np.any(g < 0.0):
            raise ProbabilityOutOfRangeError(
                f"gamma entries must be >= 0; minimum is {g.min():.3e}"
            )
        if np.any(np.diag(g) != 0.0):
            raise ProbabilityOutOfRangeError("gamma diagonal must be zero")
        # row sum <= 1 also bounds every single entry by 1
        row = g.sum(axis=1)
        if np.any(row > 1.0):
            bad = int(np.argmax(row))
            raise SurvivalUnderflowError(
                f"jump probability out of state {bad} sums to {row[bad]:.4f} > 1; "
                "use a smaller time step"
            )
        object.__setattr__(self, "gamma", g)

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def survival_amplitudes(self) -> np.ndarray:
        """s_M = sqrt(1 - sum_N gamma[M, N])."""
        return np.sqrt(1.0 - self.gamma.sum(axis=1))


@dataclass(frozen=True)
class EvolutionOperators:
    """Evolution operators for one step: jumps plus unitary evolution.

    The survival branch evolves coherently under the Kraus operators
    s_M |M><M| U; the jump branch applies the rank-one sqrt(gamma_MN) |N><M|
    with no coherent factor.
    """

    unitary: np.ndarray
    rates: JumpRateSpec
    survival: np.ndarray

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


def build_evolution_operators(rates: JumpRateSpec, u: np.ndarray) -> EvolutionOperators:
    """Assemble the step operators from per-step probabilities and a unitary."""
    u = np.asarray(u, dtype=complex)
    d = rates.dim
    if u.shape != (d, d):
        raise DimensionMismatchError(
            f"unitary shape {u.shape} does not match rate dimension {d}"
        )
    return EvolutionOperators(unitary=u, rates=rates, survival=rates.survival_amplitudes())


def enaqt_step(rho: np.ndarray, ops: EvolutionOperators) -> np.ndarray:
    """Apply one step of the combined jump + unitary evolution to a state or a stack (..., d, d).

    Equivalent to summing M_MM U rho U^dag M_NN^dag over all ordered pairs
    (M, N) plus the jump terms; evaluated in the algebraically identical
    compact form S (U rho U^dag) S + population transfer, which is exact
    (no extra approximation) and keeps hermiticity to rounding error.
    """
    rho = np.asarray(rho, dtype=complex)
    d = ops.dim
    if rho.shape[-2:] != (d, d):
        raise DimensionMismatchError(f"state shape {rho.shape} does not match dim {d}")
    coh = ops.unitary @ rho @ ops.unitary.conj().T
    out = ops.survival[:, None] * coh * ops.survival[None, :]
    # complex diagonal keeps the map linear on arbitrary (non-hermitian) inputs
    transfer = np.diagonal(rho, axis1=-2, axis2=-1) @ ops.rates.gamma
    out[..., np.arange(d), np.arange(d)] += transfer
    return out


def _check_chi(chi: float):
    if not 0.0 <= chi <= 1.0:
        raise ValueError(f"chi must lie in [0, 1], got {chi}")


def tunable_step(rho: np.ndarray, ops: EvolutionOperators, chi: float) -> np.ndarray:
    """Blend coherent-only and full-step evolution with weight chi in [0, 1].

    chi = 1 reproduces enaqt_step exactly (same bits); chi = 0 is pure
    unitary evolution.
    """
    _check_chi(chi)
    rho = np.asarray(rho, dtype=complex)
    if chi == 1.0:
        return enaqt_step(rho, ops)
    coh = ops.unitary @ rho @ ops.unitary.conj().T
    if chi == 0.0:
        return coh
    return (1.0 - chi) * coh + chi * enaqt_step(rho, ops)


@dataclass
class Trajectory:
    """Recorded evolution: times in fs, one population row per step.

    populations[k, i] is the expectation of observer projector i at step k;
    trace and min_eig track the state's numerical health.
    """

    times: np.ndarray
    populations: np.ndarray
    trace: np.ndarray
    min_eig: np.ndarray


def step_transfer_matrix(ops: EvolutionOperators, chi: float, full: np.ndarray | None = None) -> np.ndarray:
    """Row-major transfer matrix of tunable_step, in the module docstring's closed form.

    `full` stands in for T_full (the circuit backend passes its circuit's T); chi in
    [0, 1], and chi = 0 and chi = 1 return the unblended ends.
    """
    _check_chi(chi)
    coh = np.kron(ops.unitary, ops.unitary.conj())
    if chi == 0.0:
        return coh
    if full is None:
        full = np.kron(ops.survival, ops.survival)[:, None] * coh
        pops = np.arange(ops.dim) * (ops.dim + 1)  # vec indices of the diagonal
        full[np.ix_(pops, pops)] += ops.rates.gamma.T
    if chi == 1.0:
        return full
    return (1.0 - chi) * coh + chi * full


CHUNK = 128  # rows stepped and checked per batch in propagate
STATE_TOL = 1e-6  # largest negative eigenvalue and hermiticity defect a stepped state may show


def propagate(
    t: np.ndarray, rho0: np.ndarray, dt: float, steps: int, observers: np.ndarray,
) -> Trajectory:
    """Iterate vec(rho) <- t @ vec(rho), recording projector populations per step.

    t is a row-major d^2 x d^2 transfer matrix, observers an (n_obs, d, d) stack
    of hermitian projectors; populations are Re tr(P_i rho_k). States are
    stepped and checked CHUNK rows at a time, never held as the whole
    (steps+1, d^2) stack. Raises StateInvalidError at the first step whose
    state loses hermiticity or positivity beyond STATE_TOL (a symptom of
    gamma/dt misconfiguration, or of a step map that is not positive).
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    t = np.asarray(t, dtype=complex)
    v = np.asarray(rho0, dtype=complex).reshape(-1)
    obs = np.asarray(observers, dtype=complex)
    d = math.isqrt(t.shape[0])
    if t.shape != (d * d, d * d) or np.shape(rho0) != (d, d) or obs.shape[1:] != (d, d):
        raise DimensionMismatchError(f"state {np.shape(rho0)} and observers {obs.shape} "
                                     f"do not match the transfer matrix {t.shape}")

    # tr(P rho) = vec(P^T) . vec(rho)
    obs_cols = obs.transpose(0, 2, 1).reshape(len(obs), d * d).T
    times = np.arange(steps + 1) * dt
    populations = np.empty((steps + 1, len(obs)))
    trace = np.empty(steps + 1)
    min_eig = np.empty(steps + 1)
    rows_held = min(CHUNK, steps + 1)
    buf = np.empty((rows_held, d * d), dtype=complex)
    work, mag = np.empty((rows_held, d, d), dtype=complex), np.empty((rows_held, d, d))  # check buffers
    buf[0] = v
    for start in range(0, steps + 1, CHUNK):
        n = min(CHUNK, steps + 1 - start)
        for i in range(1 if start == 0 else 0, n):
            v = np.dot(t, v, out=buf[i])
        rows, mats = slice(start, start + n), buf[:n].reshape(n, d, d)
        populations[rows] = (buf[:n] @ obs_cols).real
        trace[rows] = buf[:n, :: d + 1].sum(axis=1).real
        scr = np.conjugate(mats.transpose(0, 2, 1), out=work[:n])  # the adjoints
        np.multiply(np.add(scr, mats, out=scr), 0.5, out=scr)
        min_eig[rows] = np.linalg.eigvalsh(scr).min(axis=1)
        np.subtract(mats, np.conjugate(mats.transpose(0, 2, 1), out=scr), out=scr)
        herm = np.abs(scr, out=mag[:n]).max(axis=(1, 2))
        bad = np.flatnonzero((min_eig[rows] < -STATE_TOL) | (herm > STATE_TOL))
        if bad.size:
            k = start + bad[0]
            raise StateInvalidError(
                f"state invalid at step {k}: min eigenvalue {min_eig[k]:.3e}, "
                f"hermiticity defect {herm[bad[0]]:.3e} (tolerance {STATE_TOL:.1e})"
            )
    return Trajectory(times=times, populations=populations, trace=trace, min_eig=min_eig)


def evolve_trajectory(
    rho0: np.ndarray, ops: EvolutionOperators, dt: float, steps: int, observers: np.ndarray,
    chi: float = 1.0,
) -> Trajectory:
    """Iterate tunable_step from rho0 through its transfer matrix; see propagate."""
    t = step_transfer_matrix(ops, chi)
    return propagate(t, rho0, dt, steps, observers)
