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

A model file's bath carries the Ohmic parameters (lambda, omega_c), an
explicit exciton-to-exciton rate table (fs^-1), or both; `load_model`
validates every field it carries. `jump_rates` is the one place that picks
the source: a temperature selects the Ohmic rates, otherwise the table is used
verbatim when present, else the Ohmic rates at 300 K.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import IndexOutOfRangeError, ModelFileError, SpecInvalidError
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


def _check_number(name: str, value, allow_zero: bool = False):
    """SpecInvalidError unless value is finite and > 0 (>= 0 with allow_zero)."""
    if not (math.isfinite(value) and (value >= 0.0 if allow_zero else value > 0.0)):
        raise SpecInvalidError(f"{name} must be finite and {'>=' if allow_zero else '>'} 0, got {value!r}")


def thermal_rate_matrix(
    basis: ExcitonBasis,
    lambda_cm1: float,
    omega_c_cm1: float,
    temperature_k: float,
    overlap_exponent: float = 1.0,
) -> np.ndarray:
    """Exciton-to-exciton jump rates (fs^-1) from the Ohmic bath at temperature_k.

    rates[M, N] = 2 pi J(|w|) * (1+n or n) * overlap^exponent / hbar, with
    the (1+n) branch on downhill transitions. The exponent is exposed for
    rate-table calibration; the standard generation path uses 1.
    """
    _check_number("lambda_cm1", lambda_cm1, allow_zero=True)
    _check_number("omega_c_cm1", omega_c_cm1)
    _check_number("temperature_k", temperature_k)
    w = basis.energies_cm1
    weights = basis.site_weights()
    overlap = weights.T @ weights  # overlap[M, N] = sum_m |c_m(M)|^2 |c_m(N)|^2
    m, n = np.nonzero(w[:, None] != w[None, :])  # off-diagonal pairs with a nonzero gap
    gap = np.abs(w[m] - w[n])
    j = ohmic_spectral_density(gap, lambda_cm1, omega_c_cm1)
    occ = bose_occupation(gap, temperature_k)
    pref = np.where(w[m] > w[n], 1.0 + occ, occ)
    rates = np.zeros((basis.dim, basis.dim))
    rates[m, n] = 2.0 * np.pi * j * pref * overlap[m, n] ** overlap_exponent / HBAR_CM1_FS
    return rates


def jump_rates(basis: ExcitonBasis, model: FmoModel, dt: float,
               temperature_k: float | None = None) -> JumpRateSpec:
    """Per-step jump probabilities gamma = Gamma * dt for the exciton basis.

    A temperature selects the model's Ohmic rates; without one the model's
    rate table is used verbatim when present, else the Ohmic rates at 300 K.
    Raises ModelFileError when the Ohmic rates are asked for and the model has
    no Ohmic parameters, and SurvivalUnderflowError (via JumpRateSpec) if any
    row of gamma sums above 1; use a smaller dt.
    """
    if temperature_k is None and model.rates_per_fs is not None:
        rates = model.rates_per_fs
    elif model.lambda_cm1 is None:
        raise ModelFileError("model file has no Ohmic bath parameters; cannot generate rates")
    else:
        rates = thermal_rate_matrix(basis, model.lambda_cm1, model.omega_c_cm1,
                                    300.0 if temperature_k is None else temperature_k)
    return JumpRateSpec(rates * dt)


def transfer_efficiency(traj: Trajectory, sink_sites) -> float:
    """Sum of sink-site populations at the trajectory's final time.

    sink_sites are 1-based site labels (FMO sink = {3, 4}); the trajectory's
    population columns must be site populations in site order.
    """
    n = traj.populations.shape[1]
    total = 0.0
    for s in sink_sites:
        if not 1 <= s <= n:
            raise IndexOutOfRangeError(f"sink site {s} outside 1..{n}")
        total += float(traj.populations[-1, s - 1])
    return total


@dataclass(frozen=True)
class FmoModel:
    """Hamiltonian spec, sink sites and bath: the Ohmic pair, a rate table, or both.

    lambda_cm1 (>= 0) and omega_c_cm1 (> 0) come together; rates_per_fs is an
    n x n exciton-to-exciton table in fs^-1 (finite, >= 0, zero diagonal).
    """

    hamiltonian: HamiltonianSpec
    sink_sites: tuple
    lambda_cm1: float | None = None
    omega_c_cm1: float | None = None
    rates_per_fs: np.ndarray | None = None

    def __post_init__(self):
        if (self.lambda_cm1 is None) != (self.omega_c_cm1 is None):
            raise SpecInvalidError("lambda_cm1 and omega_c_cm1 must be given together")
        if self.lambda_cm1 is not None:
            _check_number("lambda_cm1", self.lambda_cm1, allow_zero=True)
            _check_number("omega_c_cm1", self.omega_c_cm1)
        elif self.rates_per_fs is None:
            raise SpecInvalidError("needs lambda_cm1 and omega_c_cm1, rates_per_fs, or both")
        if self.rates_per_fs is not None:
            r = np.asarray(self.rates_per_fs, dtype=float)
            n = self.hamiltonian.n_sites
            if r.shape != (n, n):
                raise SpecInvalidError(f"rates_per_fs must be {n}x{n}, got shape {r.shape}")
            if not np.all(np.isfinite(r)) or np.any(r < 0.0):
                raise SpecInvalidError("rates_per_fs entries must be finite and >= 0")
            if np.any(np.diag(r) != 0.0):
                raise SpecInvalidError("rates_per_fs diagonal must be zero")
            object.__setattr__(self, "rates_per_fs", r)


def default_model_path() -> Path:
    """Path of the shipped 7-site model file."""
    return Path(resources.files("enaqt").joinpath("data/fmo_default.json"))


def load_model(path) -> FmoModel:
    """Read and validate a model JSON file, every field it carries.

    Required fields: site_energies_cm1, couplings_cm1, sink_sites, and a
    bath object carrying {lambda_cm1, omega_c_cm1} and/or rates_per_fs; any
    other field (such as a provenance block) is free-form and ignored.
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

    def floats(field, value):
        try:  # OverflowError: a JSON integer past the float range
            return np.array(value, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelFileError(f"{path}: bad {field}: {exc}") from exc

    try:
        spec = HamiltonianSpec(
            site_energies_cm1=floats("site_energies_cm1", require("site_energies_cm1")),
            couplings_cm1=floats("couplings_cm1", require("couplings_cm1")),
        )
    except SpecInvalidError as exc:
        raise ModelFileError(f"{path}: bad Hamiltonian data: {exc}") from exc

    bath = require("bath")
    if not isinstance(bath, dict):
        raise ModelFileError(f"{path}: field 'bath' must be an object")
    for field in ("lambda_cm1", "omega_c_cm1"):
        value = bath.get(field)
        if value is not None and type(value) not in (int, float):
            raise ModelFileError(f"{path}: bath.{field} must be a number, got {value!r}")
        floats(f"bath.{field}", value)  # an integer passes the type check however large
    rates = bath.get("rates_per_fs")
    if rates is not None:
        rates = floats("bath.rates_per_fs", rates)

    sink = require("sink_sites")
    if (not isinstance(sink, list) or not sink
            or any(type(s) is not int or not 1 <= s <= spec.n_sites for s in sink)):
        raise ModelFileError(f"{path}: sink_sites must be a list of integer labels 1..{spec.n_sites}")

    try:
        return FmoModel(hamiltonian=spec, sink_sites=tuple(sink), lambda_cm1=bath.get("lambda_cm1"),
                        omega_c_cm1=bath.get("omega_c_cm1"), rates_per_fs=rates)
    except SpecInvalidError as exc:
        raise ModelFileError(f"{path}: bad bath: {exc}") from exc
