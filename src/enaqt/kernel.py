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

Jump probabilities are per-step values gamma = Gamma * dt, formed by the caller (fmo.StepModel)
from rates in fs^-1: the kernel never sees rates and time steps separately.

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
from .linalg import choi_from_transfer, herm_defect


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
                f"jump probability out of state {bad} sums to {float(row[bad])!r} > 1; "
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

    populations[k, i] is the expectation of observer projector i at step k; trace and min_eig
    track the state's numerical health, and min_eig is None when it was not recorded.
    """

    times: np.ndarray
    populations: np.ndarray
    trace: np.ndarray
    min_eig: np.ndarray | None


def step_transfer_matrix(rates: JumpRateSpec, u: np.ndarray, chi: float,
                         full: np.ndarray | None = None) -> np.ndarray:
    """Row-major transfer matrix of tunable_step, in the module docstring's closed form.

    `full` stands in for T_full (the circuit backend passes its circuit's T); chi in
    [0, 1], and chi = 0 and chi = 1 return the unblended ends.
    """
    _check_chi(chi)
    u, d = np.asarray(u, dtype=complex), rates.dim
    if u.shape != (d, d):
        raise DimensionMismatchError(f"unitary shape {u.shape} does not match rate dimension {d}")
    coh = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d)  # U (x) conj(U)
    if chi == 0.0:
        return coh
    if full is None:
        s = rates.survival_amplitudes()
        full = np.outer(s, s).ravel()[:, None] * coh
        pops = np.arange(d) * (d + 1)  # vec indices of the diagonal
        full[np.ix_(pops, pops)] += rates.gamma.T
    if chi == 1.0:
        return full
    return (1.0 - chi) * coh + chi * full


CHUNK = 128  # states stepped, checked and yielded per chunk by chunks; a whole number of lane blocks
LANES = 16  # consecutive states that one product with T^LANES moves on; a power of two
STATE_TOL = 1e-6  # largest negative eigenvalue and hermiticity defect a stepped state may show
CHANNEL_TOL = 1e-12  # largest negative Choi eigenvalue, TP and HP defect of a certified step map


def chunks(t: np.ndarray, rho0: np.ndarray, steps: int, observers: np.ndarray, record_min_eig: bool = True):
    """Iterate vec(rho) <- t @ vec(rho), yielding the recorded rows one checked chunk at a time.

    t is a row-major d^2 x d^2 transfer matrix and observers an (n_obs, d, d) stack of
    hermitian projectors; populations are Re tr(P_i rho_k). Each chunk of CHUNK states (the
    last may be shorter) is yielded as (start, populations (n, n_obs), trace (n,), min_eig
    (n,) or None): the rows of steps start .. start + n - 1, in fresh arrays, once every one
    of its states has passed the checks below. The arguments are checked when the first chunk
    is asked for. Only one chunk's lane buffer lives between yields, so memory does not grow
    with `steps`.

    The states advance in lanes: a block holds LANES consecutive states, as rows. T^LANES is
    built once per call by repeated squaring, and a warm-up fills the first block on the way:
    before T^w is squared, it carries states 0 .. w-1 to states w .. 2w-1. After that, one
    product with T^LANES moves a whole block LANES steps on, so step k is T^LANES applied
    floor(k / LANES) times to warm-up state k mod LANES. The population and trace products
    always run over whole blocks, so a state's bits do not depend on the length of the run;
    only the states up to `steps` are checked.

    A checked state passes if its hermiticity defect is at most STATE_TOL and the smallest
    eigenvalue of its hermitian part rho_h is at least -STATE_TOL; an inf or nan entry fails it.
    The checks of a chunk take that eigenvalue, min_eig, by one of two routes. Temple's route
    reads it off the diagonal: with theta = d_1 the smallest diagonal entry of rho_h, at index
    m, eps_m^2 the squared norm of column m off the diagonal, and beta = d_2 - ||offdiag
    rho_h||_F, which is at most lambda_2 (Weyl), Temple's inequality gives theta - eps_m^2 /
    (beta - theta) <= lambda_min <= theta when beta > theta. A chunk takes the route only when
    each of its states has beta > theta, eps_m^2 / (beta - theta) <= eps ||rho_h||_F and theta -
    eps_m^2 / (beta - theta) >= -STATE_TOL: its min_eig is then d_1, within eps ||rho_h||_F of
    the exact eigenvalue, as eigvalsh is to rounding. Every other chunk (a coherent state, tied
    smallest diagonal entries, or a failing state) runs one batched eigvalsh, so a failure is
    always eigvalsh's verdict. Dephasing shrinks each coherence by a fixed factor per step, so a
    long run at chi near 1 takes Temple's route on nearly every chunk.

    Without record_min_eig, min_eig is None and a T that passes _channel_certified maps states
    to states, so only rho0 and the last state are checked; every other run checks every state.
    Raises StateInvalidError at the first step whose state fails a check: a symptom of gamma/dt
    misconfiguration, or of a step map that is not positive. A state at step w or later is not
    finite when T^w overflows, and its failure names T^w.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    t = np.asarray(t, dtype=complex)
    obs = np.asarray(observers, dtype=complex)
    d = math.isqrt(t.shape[-1] if t.ndim else 0)
    if t.shape != (d * d, d * d) or np.shape(rho0) != (d, d) or obs.shape[1:] != (d, d):
        raise DimensionMismatchError(f"state {np.shape(rho0)} and observers {obs.shape} "
                                     f"do not match the transfer matrix {t.shape}")

    # tr(P rho) = vec(P^T) . vec(rho), and tr(rho) = vec(1) . vec(rho) in the last column
    cols = np.concatenate([obs.transpose(0, 2, 1).reshape(len(obs), d * d), np.eye(d).reshape(1, -1)]).T
    # buf[1 + j, l]: the state at step j * LANES + l of the chunk; buf[0] carries the
    # previous chunk's last block
    buf = np.empty((1 + CHUNK // LANES, LANES, d * d), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # holds no yield: the caller keeps its own error state
        certified = not record_min_eig and _channel_certified(t, steps)
        power = t.T  # the warm-up fills the first block while squaring T^T up to (T^T)^LANES
        buf[1, 0] = np.asarray(rho0, dtype=complex).reshape(-1)
        for i in range(LANES.bit_length() - 1):
            width = 1 << i
            np.matmul(buf[1, :width], power, buf[1, width:2 * width])
            power = power @ power
    for start in range(0, steps + 1, CHUNK):
        n = min(CHUNK, steps + 1 - start)
        filled = -(-n // LANES)
        # a state past the float range fails its check; certified runs too, as rho0 is stepped before its check
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1 if start == 0 else 0, filled):
                np.matmul(buf[j], power, buf[j + 1])  # out=, passed positionally: cheaper per call
            flat = buf[1:1 + filled].reshape(-1, d * d)
            values = (flat @ cols).real[:n]
            buf[0] = buf[filled]
            states = flat[:n].reshape(n, d, d)
            if not certified:
                eig = _check_states(states, range(start, start + n), t)
            elif ends := sorted({start, start + n - 1} & {0, steps}):  # rho0 and the last state only
                _check_states(states[np.subtract(ends, start)], ends, t)
        yield start, values[:, :-1], values[:, -1], eig if record_min_eig else None


def _check_states(states: np.ndarray, at, t: np.ndarray) -> np.ndarray:
    """Check states[i], the state at step at[i] of a run of t, as chunks describes; their smallest eigenvalues,
    all from Temple's route (_diagonal_min_eig) or all from one batched eigvalsh."""
    # a contiguous adjoint: the elementwise loops below run slower on a strided view
    adj = np.conjugate(states.transpose(0, 2, 1), order="C")
    herm = np.abs(states - adj).max(axis=(1, 2))
    rho_h = (adj + states) * 0.5
    finite = np.isfinite(rho_h).all(axis=(1, 2))  # false for an inf or nan entry, or a sum past the float range
    if (eig := _diagonal_min_eig(rho_h)) is None:
        rho_h[~finite] = 0.0  # eigvalsh need not converge on such an entry
        eig = np.where(finite, np.linalg.eigvalsh(rho_h).min(axis=1), np.nan)
    bad = np.flatnonzero(~(eig >= -STATE_TOL) | ~(herm <= STATE_TOL))
    if bad.size:
        k = int(bad[0])
        if not finite[k] and (w := _overflowing_power(t)) <= at[k]:
            raise StateInvalidError(f"the state at step {at[k]} cannot be computed: T^{w}, the power of the step "
                                    "map that carries it, overflows")
        raise StateInvalidError(f"state invalid at step {at[k]}: min eigenvalue {eig[k]:.3e}, "
                                f"hermiticity defect {herm[k]:.3e} (tolerance {STATE_TOL:.1e})")
    return eig


def _diagonal_min_eig(rho_h: np.ndarray) -> np.ndarray | None:
    """The smallest diagonal entries of the hermitian stack rho_h, if Temple's bound makes each one its smallest
    eigenvalue to eps ||rho||_F and a passing one (see chunks); else None."""
    eps = np.finfo(float).eps
    # the last state is the most dephased, so test first, on it alone, what the bound below implies:
    # eps_m^2 <= eps ||rho||_F (d_2 - d_1) <= sqrt(2) eps ||rho||_F^2, with a margin for rounding
    last = rho_h[-1]
    m = last.real.diagonal().argmin()
    row = np.abs(last[m])
    row[m] = 0.0
    if not row @ row <= 2 * eps * np.vdot(last, last).real:
        return None
    n, d = rho_h.shape[:2]
    diag = rho_h.real.diagonal(axis1=1, axis2=2)  # real: rho_h is hermitian
    off = np.abs(rho_h)
    off *= off
    off.reshape(n, d * d)[:, ::d + 1] = 0.0  # |rho_ij|^2 off the diagonal, zeroed there, never subtracted
    rows, m = np.arange(n), diag.argmin(axis=1)
    theta = diag[rows, m]
    eps2 = off[rows, m].sum(axis=1)  # row m holds the moduli of column m
    rest = diag.copy()
    rest[rows, m] = np.inf
    off2 = off.sum(axis=(1, 2))
    gap = rest.min(axis=1) - np.sqrt(off2) - theta  # beta - theta, with beta = d_2 - ||offdiag||_F <= lambda_2
    bound = gap * (eps * np.sqrt(off2 + np.square(diag).sum(axis=1)))  # (beta - theta) eps ||rho||_F
    # a bound that is a normal float, so no underflow in eps2 counts, and finite, so is every entry;
    # eps2 / (beta - theta) within it, and theta - eps2 / (beta - theta) >= -STATE_TOL
    ok = (bound >= np.finfo(float).tiny) & (bound < np.inf) & (eps2 <= bound) & (eps2 <= gap * (theta + STATE_TOL))
    return theta if ok.all() else None


def _overflowing_power(t: np.ndarray) -> float:
    """The least w in 2, 4 .. LANES at which T^w, squared up from a finite T as chunks squares it, is
    not finite; else inf (a T that is not finite is handed in, not an overflow)."""
    power, width = t.T, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while width < LANES and np.isfinite(power).all():
            power, width = power @ power, 2 * width
        return width if width > 1 and not np.isfinite(power).all() else math.inf


def propagate(
    t: np.ndarray, rho0: np.ndarray, dt: float, steps: int, observers: np.ndarray,
    record_min_eig: bool = True,
) -> Trajectory:
    """The whole run of chunks(t, rho0, steps, observers, record_min_eig), collected, with times in
    steps of dt > 0. It holds every row until it returns, so a long run is better read from chunks."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    _, populations, trace, min_eig = zip(*chunks(t, rho0, steps, observers, record_min_eig))
    return Trajectory(np.arange(steps + 1) * dt, np.concatenate(populations), np.concatenate(trace),
                      np.concatenate(min_eig) if record_min_eig else None)


def _channel_certified(t: np.ndarray, steps: int) -> bool:
    """Whether the step map of row-major T t provably keeps a run of `steps` states valid.

    Its hermitian Choi part plus CHANNEL_TOL 1 must pass one Cholesky, and its Choi matrix
    must be hermitian and its partial trace the identity, each to CHANNEL_TOL: T is completely
    positive and preserves hermiticity and the trace. Such a step lowers a state's smallest
    eigenvalue by at most CHANNEL_TOL, and its rounding adds about d^2 eps, so the run must
    keep steps (CHANNEL_TOL + d^2 eps) within STATE_TOL / 10.
    """
    d = math.isqrt(len(t))
    if steps * (CHANNEL_TOL + d * d * np.finfo(float).eps) > STATE_TOL / 10:
        return False
    choi = choi_from_transfer(t)
    try:  # a zero pivot: a Choi eigenvalue at or below -CHANNEL_TOL
        np.linalg.cholesky((choi + choi.conj().T) * 0.5 + CHANNEL_TOL * np.eye(d * d))
    except np.linalg.LinAlgError:
        return False
    return (herm_defect(choi) <= CHANNEL_TOL
            and np.abs(t[::d + 1].sum(axis=0) - np.eye(d).ravel()).max() <= CHANNEL_TOL)


def evolve_trajectory(
    rho0: np.ndarray, ops: EvolutionOperators, dt: float, steps: int, observers: np.ndarray,
    chi: float = 1.0,
) -> Trajectory:
    """Iterate tunable_step from rho0 through its transfer matrix; see propagate."""
    return propagate(step_transfer_matrix(ops.rates, ops.unitary, chi), rho0, dt, steps, observers)
