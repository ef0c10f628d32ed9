"""FMO-complex physics: site Hamiltonian, exciton basis, thermal jump rates.

The 7-site single-exciton Hamiltonian H[m][m] = eps_m, H[m][n] = V_mn (cm^-1)
is diagonalized into exciton states |M> = sum_m c_m(M) |m>. Bath-induced
jumps act between excitons: for a downhill pair with gap omega > 0,

    Gamma_down = 2 pi J(omega) (1 + n(omega)) / hbar,
    Gamma_up   = 2 pi J(omega) n(omega) / hbar,

with J an Ohmic spectral density with exponential cutoff and n the Bose
occupation at temperature T; uphill rates follow from detailed balance, so
the stationary distribution over excitons is thermal. Each pair rate is
additionally weighted by the spatial overlap sum_m |c_m(M)|^2 |c_m(N)|^2 of
the two excitons.

Alternatively an explicit exciton-to-exciton rate table (fs^-1) can be
supplied, in which case it is used verbatim; the shipped default model file
carries such a table (see its provenance block).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    ModelFileError,
    SpecInvalidError,
)
from .kernel import JumpRateSpec, Trajectory
from .linalg import HBAR_CM1_FS, KB_CM1_PER_K, eigh


@dataclass(frozen=True)
class HamiltonianSpec:
    """Site energies (cm^-1) and symmetric coupling matrix (cm^-1, zero diagonal)."""

    site_energies_cm1: np.ndarray
    couplings_cm1: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.site_energies_cm1, dtype=float)
        v = np.asarray(self.couplings_cm1, dtype=float)
        if e.ndim != 1 or len(e) < 2:
            raise SpecInvalidError(f"need >= 2 site energies, got shape {e.shape}")
        n = len(e)
        if v.shape != (n, n):
            raise SpecInvalidError(f"couplings must be {n}x{n}, got {v.shape}")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(v))):
            raise SpecInvalidError("site energies and couplings must be finite")
        if not np.array_equal(v, v.T):
            raise SpecInvalidError("coupling matrix must be exactly symmetric")
        if np.any(np.diag(v) != 0.0):
            raise SpecInvalidError("coupling matrix diagonal must be zero")
        object.__setattr__(self, "site_energies_cm1", e)
        object.__setattr__(self, "couplings_cm1", v)

    @property
    def n_sites(self) -> int:
        return len(self.site_energies_cm1)


@dataclass(frozen=True)
class ExcitonBasis:
    """Exciton energies (ascending, cm^-1) and basis change D.

    Columns of D are the exciton states expressed in the site basis:
    D[m, M] = c_m(M). D^dag H_site D is diagonal.
    """

    energies_cm1: np.ndarray
    transform: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.energies_cm1)

    def site_weights(self) -> np.ndarray:
        """W[m, M] = |c_m(M)|^2, the site content of each exciton."""
        return np.abs(self.transform) ** 2

    def to_exciton(self, rho_site: np.ndarray) -> np.ndarray:
        d = self.transform
        return d.conj().T @ np.asarray(rho_site, dtype=complex) @ d

    def site_projectors(self) -> np.ndarray:
        """Stack of projectors |m><m| rotated into the exciton basis."""
        d = self.transform
        return np.stack([np.outer(d[m, :].conj(), d[m, :]) for m in range(self.dim)])


@dataclass(frozen=True)
class BathSpec:
    """Phonon bath: Ohmic parameters at temperature T, or an explicit rate table.

    Exactly one generation path applies: if rates_per_fs is given it is used
    verbatim (exciton-indexed, ascending energy order); otherwise rates are
    generated from (lambda_cm1, omega_c_cm1, temperature_k).
    """

    temperature_k: float | None = None
    lambda_cm1: float | None = None
    omega_c_cm1: float | None = None
    rates_per_fs: np.ndarray | None = None

    def __post_init__(self):
        if self.rates_per_fs is not None:
            r = np.asarray(self.rates_per_fs, dtype=float)
            if r.ndim != 2 or r.shape[0] != r.shape[1]:
                raise SpecInvalidError(f"rate table must be square, got {r.shape}")
            if np.any(r < 0.0) or not np.all(np.isfinite(r)):
                raise SpecInvalidError("rate table entries must be finite and >= 0")
            if np.any(np.diag(r) != 0.0):
                raise SpecInvalidError("rate table diagonal must be zero")
            object.__setattr__(self, "rates_per_fs", r)
            return
        if self.temperature_k is None or not self.temperature_k > 0:
            raise SpecInvalidError(
                f"spectral-density bath needs temperature > 0 K, got {self.temperature_k}"
            )
        if self.lambda_cm1 is None or self.lambda_cm1 < 0:
            raise SpecInvalidError(f"lambda_cm1 must be >= 0, got {self.lambda_cm1}")
        if self.omega_c_cm1 is None or not self.omega_c_cm1 > 0:
            raise SpecInvalidError(f"omega_c_cm1 must be > 0, got {self.omega_c_cm1}")


def site_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """Single-exciton Hamiltonian: diag(site energies) + couplings."""
    return (np.diag(spec.site_energies_cm1) + spec.couplings_cm1).astype(complex)


def exciton_basis(h_site: np.ndarray) -> ExcitonBasis:
    """Diagonalize the site Hamiltonian; energies ascending."""
    w, v = eigh(h_site)
    return ExcitonBasis(energies_cm1=w, transform=v)


def ohmic_spectral_density(omega_cm1, lambda_cm1: float, omega_c_cm1: float):
    """J(omega) = (lambda/omega_c) * omega * exp(-omega/omega_c), omega > 0."""
    omega_cm1 = np.asarray(omega_cm1, dtype=float)
    return (lambda_cm1 / omega_c_cm1) * omega_cm1 * np.exp(-omega_cm1 / omega_c_cm1)


def bose_occupation(omega_cm1, temperature_k: float):
    """n(omega) = 1 / (exp(omega/kT) - 1) with omega in cm^-1."""
    x = np.asarray(omega_cm1, dtype=float) / (KB_CM1_PER_K * temperature_k)
    with np.errstate(over="ignore"):  # exp overflow means n -> 0 exactly
        return 1.0 / np.expm1(x)


def thermal_rate_matrix(
    basis: ExcitonBasis,
    bath: BathSpec,
    overlap_exponent: float = 1.0,
) -> np.ndarray:
    """Exciton-to-exciton jump rates (fs^-1) from the Ohmic bath.

    rates[M, N] = 2 pi J(|w|) * (1+n or n) * overlap^exponent / hbar, with
    the (1+n) branch on downhill transitions. The exponent is exposed for
    rate-table calibration; the standard generation path uses 1.
    """
    w = basis.energies_cm1
    weights = basis.site_weights()
    overlap = weights.T @ weights  # overlap[M, N] = sum_m |c_m(M)|^2 |c_m(N)|^2
    m, n = np.nonzero(w[:, None] != w[None, :])  # off-diagonal pairs with a nonzero gap
    gap = np.abs(w[m] - w[n])
    j = ohmic_spectral_density(gap, bath.lambda_cm1, bath.omega_c_cm1)
    occ = bose_occupation(gap, bath.temperature_k)
    pref = np.where(w[m] > w[n], 1.0 + occ, occ)
    rates = np.zeros((basis.dim, basis.dim))
    rates[m, n] = 2.0 * np.pi * j * pref * overlap[m, n] ** overlap_exponent / HBAR_CM1_FS
    return rates


def jump_rates(basis: ExcitonBasis, bath: BathSpec, dt: float) -> JumpRateSpec:
    """Per-step jump probabilities gamma = Gamma * dt for the exciton basis.

    Uses the bath's explicit rate table verbatim when present, otherwise the
    detailed-balance Ohmic rates. Raises SurvivalUnderflowError (via
    JumpRateSpec) if any row of gamma sums above 1; use a smaller dt.
    """
    if bath.rates_per_fs is not None:
        rates = bath.rates_per_fs
        if rates.shape != (basis.dim, basis.dim):
            raise DimensionMismatchError(
                f"rate table shape {rates.shape} does not match {basis.dim} excitons"
            )
    else:
        rates = thermal_rate_matrix(basis, bath)
    return JumpRateSpec(rates * dt)


def transfer_efficiency(traj: Trajectory, sink_sites, at_time_fs: float) -> float:
    """Sum of sink-site populations at the trajectory point nearest at_time_fs.

    sink_sites are 1-based site labels (FMO sink = {3, 4}); the trajectory's
    population columns must be site populations in site order.
    """
    k = traj.index_at(at_time_fs)  # raises TimeOutOfRangeError when outside
    n = traj.populations.shape[1]
    total = 0.0
    for s in sink_sites:
        if not 1 <= s <= n:
            raise IndexOutOfRangeError(f"sink site {s} outside 1..{n}")
        total += float(traj.populations[k, s - 1])
    return total


@dataclass(frozen=True)
class FmoModel:
    """Parsed model file: Hamiltonian spec, bath data, sink sites, metadata."""

    hamiltonian: HamiltonianSpec
    sink_sites: tuple
    lambda_cm1: float | None = None
    omega_c_cm1: float | None = None
    rates_per_fs: np.ndarray | None = None
    provenance: dict | None = None

    def bath(self, temperature_k: float | None = None) -> BathSpec:
        """Resolve a BathSpec from the file data.

        A temperature selects the Ohmic generation path; without one the
        stored table wins when present, else the Ohmic bath runs at 300 K.
        """
        if temperature_k is None and self.rates_per_fs is not None:
            return BathSpec(rates_per_fs=self.rates_per_fs)
        if self.lambda_cm1 is None or self.omega_c_cm1 is None:
            raise ModelFileError(
                "model file has no Ohmic bath parameters; cannot generate rates"
            )
        return BathSpec(
            temperature_k=300.0 if temperature_k is None else temperature_k,
            lambda_cm1=self.lambda_cm1,
            omega_c_cm1=self.omega_c_cm1,
        )


def default_model_path() -> Path:
    """Path of the shipped 7-site model file."""
    return Path(resources.files("enaqt").joinpath("data/fmo_default.json"))


def load_model(path) -> FmoModel:
    """Read and validate a model JSON file.

    Required fields: site_energies_cm1, couplings_cm1, sink_sites, and a
    bath object carrying {lambda_cm1, omega_c_cm1} and/or rates_per_fs.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ModelFileError(f"model file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc

    def require(field):
        if field not in raw:
            raise ModelFileError(f"{path}: missing field {field!r}")
        return raw[field]

    try:
        spec = HamiltonianSpec(
            site_energies_cm1=np.array(require("site_energies_cm1"), dtype=float),
            couplings_cm1=np.array(require("couplings_cm1"), dtype=float),
        )
    except (SpecInvalidError, ValueError) as exc:
        raise ModelFileError(f"{path}: bad Hamiltonian data: {exc}") from exc

    bath_raw = require("bath")
    if not isinstance(bath_raw, dict):
        raise ModelFileError(f"{path}: field 'bath' must be an object")
    rates = bath_raw.get("rates_per_fs")
    if rates is not None:
        try:
            rates = np.array(rates, dtype=float)
        except ValueError as exc:
            raise ModelFileError(f"{path}: bad bath.rates_per_fs: {exc}") from exc
        if rates.shape != (spec.n_sites, spec.n_sites):
            raise ModelFileError(
                f"{path}: bath.rates_per_fs must be {spec.n_sites}x{spec.n_sites}"
            )

    sink = require("sink_sites")
    if (not isinstance(sink, list) or not sink
            or any(type(s) is not int or not 1 <= s <= spec.n_sites for s in sink)):
        raise ModelFileError(f"{path}: sink_sites must be a list of integer labels 1..{spec.n_sites}")
    for field in ("lambda_cm1", "omega_c_cm1"):
        value = bath_raw.get(field)
        if value is not None and (type(value) not in (int, float) or not np.isfinite(value)):
            raise ModelFileError(f"{path}: bath.{field} must be a finite number, got {value!r}")

    return FmoModel(
        hamiltonian=spec,
        sink_sites=tuple(int(s) for s in sink),
        lambda_cm1=bath_raw.get("lambda_cm1"),
        omega_c_cm1=bath_raw.get("omega_c_cm1"),
        rates_per_fs=rates,
        provenance=raw.get("provenance"),
    )
