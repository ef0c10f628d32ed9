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

A model's bath carries the Ohmic parameters (lambda, omega_c), an explicit
exciton-to-exciton rate table (fs^-1), or both; `FmoModel` checks every model
rule, and `load_model` only parses a file into one. `jump_rates` is the one
place that picks the source: a temperature selects the Ohmic rates, otherwise
the table is used verbatim when present, else the Ohmic rates at 300 K. Rates
stay in fs^-1; `StepModel` forms the per-step probabilities Gamma * dt and the
step of a run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import circuit, kernel, lindblad
from .errors import IndexOutOfRangeError, ModelFileError, NumericalError, SpecInvalidError
from .linalg import HBAR_CM1_FS, KB_CM1_PER_K, eigh

MAX_SITES = 32  # a step map T holds d^4 complex entries: 17 MB at 32 sites, 268 MB at 64


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
        return d.conj()[:, :, None] * d[:, None, :]


def site_hamiltonian(model: FmoModel) -> np.ndarray:
    """Single-exciton Hamiltonian: diag(site energies) + couplings."""
    return (np.diag(model.site_energies_cm1) + model.couplings_cm1).astype(complex)


def exciton_basis(h_site: np.ndarray) -> ExcitonBasis:
    """Diagonalize the site Hamiltonian; energies ascending."""
    w, v = eigh(h_site)
    return ExcitonBasis(energies_cm1=w, transform=v)


def ohmic_spectral_density(omega_cm1, lambda_cm1: float, omega_c_cm1: float):
    """J(omega) = (lambda/omega_c) * omega * exp(-omega/omega_c) = lambda x exp(-x), x = omega/omega_c > 0."""
    omega_cm1 = np.asarray(omega_cm1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a factor past the float range: J is lambda x exp(-x)
        x = omega_cm1 / omega_c_cm1
        j = (lambda_cm1 / omega_c_cm1) * omega_cm1 * np.exp(-x)
        return np.where(np.isfinite(j), j, lambda_cm1 * np.nan_to_num(x * np.exp(-x)))  # at most lambda / e


def bose_occupation(omega_cm1, temperature_k: float):
    """n(omega) = 1 / (exp(omega/kT) - 1) with omega in cm^-1."""
    with np.errstate(over="ignore", divide="ignore"):  # omega/kT or exp past the float range: n -> 0 or inf
        return 1.0 / np.expm1(np.asarray(omega_cm1, dtype=float) / (KB_CM1_PER_K * temperature_k))


def _check_number(name: str, value, allow_zero: bool = False):
    """SpecInvalidError unless value is finite and > 0 (>= 0 with allow_zero)."""
    rule = f"{name} must be finite and {'>=' if allow_zero else '>'} 0"
    try:
        ok = math.isfinite(value) and (value >= 0.0 if allow_zero else value > 0.0)
    except OverflowError:
        raise SpecInvalidError(f"{rule}, got an integer past the float range") from None
    if not ok:
        raise SpecInvalidError(f"{rule}, got {value!r}")


def _floats(name: str, value) -> np.ndarray:
    """value as a float array; SpecInvalidError when it has no such form, or holds an integer past the float range."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecInvalidError(f"bad {name}: {exc}") from exc


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
    rates = np.zeros((basis.dim, basis.dim))
    with np.errstate(over="ignore", invalid="ignore"):  # an inf gap has rate 0; an inf rate is the error below
        gap = np.abs(w[m] - w[n])
        j = ohmic_spectral_density(gap, lambda_cm1, omega_c_cm1)
        occ = bose_occupation(gap, temperature_k)
        pref = np.where(w[m] > w[n], 1.0 + occ, occ)
        rates[m, n] = 2.0 * np.pi * j * pref * overlap[m, n] ** overlap_exponent / HBAR_CM1_FS
        # where n(w) overflows, at y = w/kT below about 6e-309, w n(w) = kT y / expm1(y) is kT to the
        # last bit: J n = (lambda/omega_c) exp(-x) kT, and the J that J (1 + n) adds is below an ulp of it
        if (lost := ~np.isfinite(occ)).any():
            jn = lambda_cm1 * np.exp(-gap[lost] / omega_c_cm1) / omega_c_cm1 * (KB_CM1_PER_K * temperature_k)
            rates[m[lost], n[lost]] = 2.0 * np.pi * jn * overlap[m, n][lost] ** overlap_exponent / HBAR_CM1_FS
    if not np.all(np.isfinite(rates)):
        raise SpecInvalidError(f"Ohmic rates overflow at lambda_cm1 {lambda_cm1!r}, omega_c_cm1 "
                               f"{omega_c_cm1!r} and temperature_k {temperature_k!r}")
    return rates


def jump_rates(basis: ExcitonBasis, model: FmoModel, temperature_k: float | None = None) -> np.ndarray:
    """Exciton-to-exciton jump rates Gamma[M, N] (fs^-1) for the exciton basis.

    A temperature selects the model's Ohmic rates; without one the model's
    rate table is used verbatim when present, else the Ohmic rates at 300 K.
    Raises ModelFileError when the Ohmic rates are asked for and the model has
    no Ohmic parameters. A step of dt fs jumps with probability Gamma * dt.
    """
    if temperature_k is None and model.rates_per_fs is not None:
        return model.rates_per_fs
    if model.lambda_cm1 is None:
        raise ModelFileError("model file has no Ohmic bath parameters; cannot generate rates")
    return thermal_rate_matrix(basis, model.lambda_cm1, model.omega_c_cm1,
                               300.0 if temperature_k is None else temperature_k)


def transfer_efficiency(populations, sink_sites) -> float:
    """Sum of the sink-site entries of one population row, such as a trajectory's final row.

    sink_sites are 1-based site labels (FMO sink = {3, 4}); the row must hold
    site populations in site order.
    """
    n = len(populations)
    total = 0.0
    for s in sink_sites:
        if not 1 <= s <= n:
            raise IndexOutOfRangeError(f"sink site {s} outside 1..{n}")
        total += float(populations[s - 1])
    return total


@dataclass(frozen=True)
class FmoModel:
    """Site energies and couplings (cm^-1), sink sites and bath: the Ohmic pair, a rate table, or both.

    Every model rule is checked here, for a file and a model built in code alike: 2 to MAX_SITES
    sites, finite couplings, exactly symmetric with a zero diagonal, sink_sites a non-empty list or
    tuple (kept as a tuple) of distinct integer labels 1..n, lambda_cm1 (>= 0) and omega_c_cm1 (> 0)
    together, and rates_per_fs an n x n exciton-to-exciton table in fs^-1 (finite, >= 0, zero
    diagonal). A number that is not finite, or an integer past the float range, breaks a rule too,
    so a model built in code from any numbers raises only SpecInvalidError. sha256 is the hex
    digest of the file bytes load_model parsed, None for a model built in code.
    """

    site_energies_cm1: np.ndarray
    couplings_cm1: np.ndarray
    sink_sites: tuple
    lambda_cm1: float | None = None
    omega_c_cm1: float | None = None
    rates_per_fs: np.ndarray | None = None
    sha256: str | None = None

    def __post_init__(self):
        e, v = _floats("site_energies_cm1", self.site_energies_cm1), _floats("couplings_cm1", self.couplings_cm1)
        n = len(e) if e.ndim == 1 else 0
        if n < 2:
            raise SpecInvalidError(f"site_energies_cm1 needs >= 2 sites, got shape {e.shape}")
        if n > MAX_SITES:
            raise SpecInvalidError(f"{n} sites, more than the {MAX_SITES} a model may have")
        if v.shape != (n, n):
            raise SpecInvalidError(f"couplings_cm1 must be {n}x{n}, got shape {v.shape}")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(v))):
            raise SpecInvalidError("site_energies_cm1 and couplings_cm1 must be finite")
        if not np.array_equal(v, v.T) or np.any(np.diag(v) != 0.0):
            raise SpecInvalidError("couplings_cm1 must be exactly symmetric with a zero diagonal")
        sinks = self.sink_sites
        if (not isinstance(sinks, (list, tuple)) or not sinks
                or any(type(s) is not int or not 1 <= s <= n for s in sinks) or len(set(sinks)) < len(sinks)):
            raise SpecInvalidError(f"sink_sites must be a non-empty list of distinct integer labels 1..{n}")
        if (self.lambda_cm1 is None) != (self.omega_c_cm1 is None):
            raise SpecInvalidError("lambda_cm1 and omega_c_cm1 must be given together")
        if self.lambda_cm1 is not None:
            _check_number("lambda_cm1", self.lambda_cm1, allow_zero=True)
            _check_number("omega_c_cm1", self.omega_c_cm1)
        elif self.rates_per_fs is None:
            raise SpecInvalidError("needs lambda_cm1 and omega_c_cm1, rates_per_fs, or both")
        if self.rates_per_fs is not None:
            r = _floats("rates_per_fs", self.rates_per_fs)
            if r.shape != (n, n):
                raise SpecInvalidError(f"rates_per_fs must be {n}x{n}, got shape {r.shape}")
            if not np.all(np.isfinite(r)) or np.any(r < 0.0):
                raise SpecInvalidError("rates_per_fs entries must be finite and >= 0")
            if np.any(np.diag(r) != 0.0):
                raise SpecInvalidError("rates_per_fs diagonal must be zero")
            object.__setattr__(self, "rates_per_fs", r)
        object.__setattr__(self, "site_energies_cm1", e)
        object.__setattr__(self, "couplings_cm1", v)
        object.__setattr__(self, "sink_sites", tuple(sinks))

    @property
    def n_sites(self) -> int:
        return len(self.site_energies_cm1)


def default_model_path() -> Path:
    """Path of the shipped 7-site model file."""
    return Path(resources.files("enaqt").joinpath("data/fmo_default.json"))


def load_model(path) -> FmoModel:
    """Parse a model JSON file into an FmoModel, whose rules raise here as a ModelFileError naming the file.

    Required fields of the top-level object: site_energies_cm1, couplings_cm1, sink_sites, and
    a bath object carrying {lambda_cm1, omega_c_cm1} and/or rates_per_fs; any other field is
    free-form and ignored. Every numeric field holds JSON numbers only, not strings or booleans,
    nested to its shape, else it is a ModelFileError naming the field. The file is read once: the
    model's sha256 is the digest of the bytes parsed.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
        raw = json.loads(data.decode("utf-8"))
    except FileNotFoundError as exc:
        raise ModelFileError(f"model file not found: {path}") from exc
    except OSError as exc:  # a directory, say, or no read permission
        raise ModelFileError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # a JSON integer longer than Python converts (sys.get_int_max_str_digits)
        raise ModelFileError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ModelFileError(f"{path}: the top level must be a JSON object")

    def require(field):
        if field not in raw:
            raise ModelFileError(f"{path}: missing field {field!r}")
        return raw[field]

    def numbers(field, value, depth):
        """value, if it holds JSON numbers (int or float, not bool) in lists nested `depth` deep: the one
        reader of every numeric field; FmoModel converts them and checks their rules."""
        level = [value]
        for _ in range(depth):
            if not set(map(type, level)) <= {list}:
                break
            level = [x for items in level for x in items]
        else:  # a JSON bool is a Python bool, not an int here
            if set(map(type, level)) <= {int, float}:
                return value
        shape = "a list of " + "lists of " * (depth - 1) + "JSON numbers" if depth else "a JSON number"
        raise ModelFileError(f"{path}: {field} must be {shape}, got {json.dumps(value)[:40]}")

    site_energies = numbers("site_energies_cm1", require("site_energies_cm1"), 1)
    couplings = numbers("couplings_cm1", require("couplings_cm1"), 2)
    bath = require("bath")
    if not isinstance(bath, dict):
        raise ModelFileError(f"{path}: field 'bath' must be an object")
    # a bath field that is missing or null is not given
    given = {field: numbers(f"bath.{field}", bath[field], depth) for field, depth in
             (("lambda_cm1", 0), ("omega_c_cm1", 0), ("rates_per_fs", 2)) if bath.get(field) is not None}
    try:
        return FmoModel(site_energies_cm1=site_energies, couplings_cm1=couplings, sink_sites=require("sink_sites"),
                        **given, sha256=hashlib.sha256(data).hexdigest())
    except SpecInvalidError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc


class StepModel:
    """A model's step at dt_fs: exciton basis, rates (fs^-1, `jump_rates` at temperature_k) and
    their per-step probabilities Gamma * dt, exciton-basis Hamiltonian, U = diag(exp(-i E dt /
    hbar)) and the site projectors that read populations. All of it is built here, so a bad rate or
    time step (dt_fs not finite and > 0) raises on construction; the circuit's T is built when first read.
    """

    BACKENDS = ("operator", "circuit", "lindblad-oracle")  # the steps transfer_matrix builds

    def __init__(self, model: FmoModel, dt_fs: float, temperature_k: float | None = None):
        _check_number("dt_fs", dt_fs)
        self.model, self.dt_fs = model, dt_fs
        self.basis = exciton_basis(site_hamiltonian(model))
        self.rates_per_fs = jump_rates(self.basis, model, temperature_k)
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range: rejected by JumpRateSpec or below
            self.rates = kernel.JumpRateSpec(self.rates_per_fs * dt_fs)
            phases = -1j * self.basis.energies_cm1 * dt_fs / HBAR_CM1_FS
        self.h_exciton = np.diag(self.basis.energies_cm1).astype(complex)
        if not np.isfinite(phases).all():
            raise NumericalError(f"the step unitary at dt {dt_fs!r} fs is not finite: E dt / hbar overflows")
        self.unitary = np.diag(np.exp(phases))
        self.observers = self.basis.site_projectors()

    @functools.cached_property
    def circuit_t(self) -> np.ndarray:
        """Row-major T of the compiled step circuit (see circuit.build_step_circuit)."""
        return circuit.circuit_transfer_matrix(circuit.build_step_circuit(self.rates, self.unitary))

    def initial_state(self, site: int) -> np.ndarray:
        """The excitation on one site, |site><site| for a site label in 1..dim, in the exciton basis."""
        if not 1 <= site <= self.basis.dim:
            raise IndexOutOfRangeError(f"site {site} outside 1..{self.basis.dim}")
        rho = np.zeros((self.basis.dim, self.basis.dim), dtype=complex)
        rho[site - 1, site - 1] = 1.0
        return self.basis.to_exciton(rho)

    def transfer_matrix(self, chi: float, backend: str = "operator") -> np.ndarray:
        """Row-major step T at chi of one of the BACKENDS; ValueError for any other name."""
        if backend not in self.BACKENDS:
            raise ValueError(f"unknown backend {backend!r}: choose from {', '.join(self.BACKENDS)}")
        if backend == "lindblad-oracle":
            # chi scales the dissipator linearly, so the continuum counterpart of
            # the blended step is the master equation with rates chi * Gamma
            return lindblad.rk4_transfer_matrix(lindblad.LindbladModel(self.h_exciton, chi * self.rates_per_fs),
                                                self.dt_fs)
        full = self.circuit_t if backend == "circuit" else None
        return kernel.step_transfer_matrix(self.rates, self.unitary, chi, full)
