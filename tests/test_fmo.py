import dataclasses
import json

import numpy as np
import pytest

from enaqt import fmo, linalg
from enaqt.errors import (
    IndexOutOfRangeError,
    ModelFileError,
    SpecInvalidError,
    SurvivalUnderflowError,
)
from enaqt.kernel import Trajectory


@pytest.fixture(scope="module")
def shipped():
    model = fmo.load_model(fmo.default_model_path())
    h = fmo.site_hamiltonian(model.hamiltonian)
    basis = fmo.exciton_basis(h)
    return model, h, basis


def random_density(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestHamiltonianSpec:
    def test_two_site(self):
        spec = fmo.HamiltonianSpec(
            site_energies_cm1=np.zeros(2),
            couplings_cm1=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        assert np.allclose(fmo.site_hamiltonian(spec), [[0, 1], [1, 0]])

    def test_zero_couplings(self):
        spec = fmo.HamiltonianSpec(
            site_energies_cm1=np.array([10.0, 20.0, 30.0]),
            couplings_cm1=np.zeros((3, 3)),
        )
        assert np.allclose(fmo.site_hamiltonian(spec), np.diag([10.0, 20.0, 30.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(SpecInvalidError):
            fmo.HamiltonianSpec(
                site_energies_cm1=np.zeros(2),
                couplings_cm1=np.array([[0.0, 1.0], [2.0, 0.0]]),
            )

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(SpecInvalidError):
            fmo.HamiltonianSpec(
                site_energies_cm1=np.zeros(2),
                couplings_cm1=np.array([[1.0, 0.0], [0.0, 0.0]]),
            )

    def test_shipped_file_round_trip(self, shipped):
        model, h, _ = shipped
        raw = json.loads(fmo.default_model_path().read_text())
        assert np.array_equal(np.diag(h).real, raw["site_energies_cm1"])
        off = h - np.diag(np.diag(h))
        assert np.array_equal(off.real, np.array(raw["couplings_cm1"]))
        assert linalg.herm_defect(h) == 0.0


class TestExcitonBasis:
    def test_diagonal_hamiltonian(self):
        basis = fmo.exciton_basis(np.diag([5.0, 1.0, 3.0]))
        assert np.allclose(basis.energies_cm1, [1.0, 3.0, 5.0])
        # columns are (signed) standard basis vectors
        assert np.allclose(np.abs(basis.transform).max(axis=0), 1.0)

    def test_symmetric_dimer(self):
        h = np.array([[0.0, -50.0], [-50.0, 0.0]])
        basis = fmo.exciton_basis(h)
        assert np.allclose(np.abs(basis.transform), 1.0 / np.sqrt(2.0))
        assert np.allclose(basis.energies_cm1, [-50.0, 50.0])

    def test_shipped_diagonalization(self, shipped):
        _, h, basis = shipped
        d = basis.transform
        residual = d.conj().T @ h @ d - np.diag(basis.energies_cm1)
        assert np.max(np.abs(residual)) <= 1e-8
        assert np.max(np.abs(d.conj().T @ d - np.eye(7))) <= 1e-10

    def test_round_trip_rotations(self, rng, shipped):
        _, _, basis = shipped
        rho = random_density(7, rng)
        d = basis.transform
        assert np.allclose(d @ basis.to_exciton(rho) @ d.conj().T, rho, atol=1e-13)


def thermal_rate_matrix_loop(basis, lambda_cm1, omega_c_cm1, temperature_k, overlap_exponent=1.0):
    """Reference: the rates by a Python loop over the exciton pairs, one scalar at a time."""
    w, d = basis.energies_cm1, basis.dim
    weights = basis.site_weights()
    overlap = weights.T @ weights
    rates = np.zeros((d, d))
    for m in range(d):
        for n in range(d):
            gap = abs(w[m] - w[n])
            if m == n or gap == 0.0:
                continue
            j = fmo.ohmic_spectral_density(gap, lambda_cm1, omega_c_cm1)
            occ = fmo.bose_occupation(gap, temperature_k)
            pref = (1.0 + occ) if w[m] > w[n] else occ
            rates[m, n] = 2.0 * np.pi * j * pref * overlap[m, n] ** overlap_exponent / linalg.HBAR_CM1_FS
    return rates


class TestRates:
    # exponent 0.5 is the rate-table calibration's (demos/calibrate_rates.py)
    @pytest.mark.parametrize("temperature_k,exponent", [(77.0, 1.0), (300.0, 1.0), (300.0, 0.5)])
    def test_matches_pair_loop_on_shipped_model(self, shipped, temperature_k, exponent):
        model, _, basis = shipped
        bath = (model.lambda_cm1, model.omega_c_cm1, temperature_k)
        assert np.array_equal(fmo.thermal_rate_matrix(basis, *bath, exponent),
                              thermal_rate_matrix_loop(basis, *bath, exponent))

    def test_matches_pair_loop_on_disorder_ensemble(self, rng, shipped):
        model, _, _ = shipped
        for _ in range(16):
            spec = fmo.HamiltonianSpec(
                model.hamiltonian.site_energies_cm1 + rng.normal(0.0, 50.0, 7), model.hamiltonian.couplings_cm1)
            basis = fmo.exciton_basis(fmo.site_hamiltonian(spec))
            bath = (model.lambda_cm1, model.omega_c_cm1, rng.uniform(77.0, 300.0))
            assert np.array_equal(fmo.thermal_rate_matrix(basis, *bath), thermal_rate_matrix_loop(basis, *bath))

    def test_degenerate_pair_has_no_rate(self):
        # a zero gap has no spectral weight; the loop skipped it and so does the vectorised pass
        transform = np.linalg.qr(np.array([[1.0, 2.0, 0.5], [0.3, 1.0, 2.0], [2.0, 0.1, 1.0]]))[0]
        basis = fmo.ExcitonBasis(energies_cm1=np.array([0.0, 0.0, 120.0]), transform=transform)
        rates = fmo.thermal_rate_matrix(basis, 35.0, 150.0, 300.0)
        assert rates[0, 1] == rates[1, 0] == 0.0 and rates[2, 0] > 0.0
        assert np.array_equal(rates, thermal_rate_matrix_loop(basis, 35.0, 150.0, 300.0))

    def test_bose_occupation_vanishes_at_low_temperature(self):
        assert fmo.bose_occupation(200.0, 1e-3) == pytest.approx(0.0, abs=1e-300)

    def test_detailed_balance_identity(self, shipped):
        _, _, basis = shipped
        rates = fmo.thermal_rate_matrix(basis, 25.0, 150.0, 300.0)
        w = basis.energies_cm1
        kt = linalg.KB_CM1_PER_K * 300.0
        for m in range(7):
            for n in range(m + 1, 7):
                # w ascending: m -> n is uphill, n -> m downhill
                if rates[n, m] == 0.0:
                    continue
                ratio = rates[m, n] / rates[n, m]
                assert ratio == pytest.approx(np.exp(-(w[n] - w[m]) / kt), rel=1e-12)

    def test_rates_increase_with_temperature(self, shipped):
        _, _, basis = shipped
        r_cold = fmo.thermal_rate_matrix(basis, 25.0, 150.0, 77.0)
        r_hot = fmo.thermal_rate_matrix(basis, 25.0, 150.0, 300.0)
        assert np.all(r_hot >= r_cold)

    def test_shipped_ohmic_relaxation_time_at_300k(self, shipped):
        model, _, basis = shipped
        rates = fmo.thermal_rate_matrix(basis, model.lambda_cm1, model.omega_c_cm1, 300.0)
        tau_fast = 1.0 / rates.sum(axis=1).max()
        assert 50.0 <= tau_fast <= 100.0

    def test_explicit_table_used_verbatim(self, shipped):
        model, _, basis = shipped
        dt = 10.0
        spec = fmo.jump_rates(basis, model, dt)
        assert np.array_equal(spec.gamma, model.rates_per_fs * dt)

    def test_survival_underflow_propagates(self, shipped):
        model, _, basis = shipped
        with pytest.raises(SurvivalUnderflowError, match="smaller time step"):
            fmo.jump_rates(basis, model, 100.0)

    def test_bath_spec_validation(self, shipped, tmp_path):
        _, _, basis = shipped
        with pytest.raises(SpecInvalidError):
            fmo.thermal_rate_matrix(basis, 25.0, 150.0, -10.0)
        with pytest.raises(SpecInvalidError):
            fmo.thermal_rate_matrix(basis, 25.0, 0.0, 300.0)
        with pytest.raises(ModelFileError, match="rates_per_fs"):
            fmo.load_model(write_two_site_model(tmp_path, {"rates_per_fs": [[0.0, -1.0], [0.0, 0.0]]}))


def site_populations(rho_exciton, basis):
    """Site populations as the program reads them: Tr(P_m rho), P_m from site_projectors."""
    return np.einsum("oij,ji->o", basis.site_projectors(), rho_exciton).real


class TestSitePopulations:
    def test_single_exciton_state(self, shipped):
        _, _, basis = shipped
        rho = np.zeros((7, 7), dtype=complex)
        rho[2, 2] = 1.0
        pops = site_populations(rho, basis)
        assert pops == pytest.approx(np.abs(basis.transform[:, 2]) ** 2, abs=1e-12)

    def test_maximally_mixed(self, shipped):
        _, _, basis = shipped
        pops = site_populations(np.eye(7, dtype=complex) / 7.0, basis)
        assert pops == pytest.approx(np.full(7, 1.0 / 7.0), abs=1e-12)

    def test_against_rotation_oracle(self, rng, shipped):
        _, _, basis = shipped
        rho = random_density(7, rng)
        d = basis.transform
        expected = np.diag(d @ rho @ d.conj().T).real
        assert site_populations(rho, basis) == pytest.approx(expected, abs=1e-13)

    def test_sums_to_trace(self, rng, shipped):
        _, _, basis = shipped
        rho = random_density(7, rng) * 0.9
        assert site_populations(rho, basis).sum() == pytest.approx(
            np.trace(rho).real, abs=1e-10
        )

    def test_projectors_match(self, rng, shipped):
        _, _, basis = shipped
        rho = random_density(7, rng)
        via_proj = np.einsum("oij,ji->o", basis.site_projectors(), rho).real
        d = basis.transform
        assert via_proj == pytest.approx(np.diag(d @ rho @ d.conj().T).real, abs=1e-13)

    def test_conserved_along_trajectory(self, shipped):
        from enaqt import kernel, linalg

        model, _, basis = shipped
        rates = fmo.jump_rates(basis, model, 10.0)
        u = np.diag(np.exp(-1j * basis.energies_cm1 * 10.0 / linalg.HBAR_CM1_FS))
        ops = kernel.build_evolution_operators(rates, u)
        rho0 = np.zeros((7, 7), dtype=complex)
        rho0[0, 0] = 1.0
        traj = kernel.evolve_trajectory(
            basis.to_exciton(rho0), ops, 10.0, 100, basis.site_projectors(),
        )
        assert np.max(np.abs(traj.populations.sum(axis=1) - traj.trace)) <= 1e-10


class TestTransferEfficiency:
    def _traj(self, pops):
        pops = np.asarray(pops, dtype=float)
        n = len(pops)
        return Trajectory(
            times=np.arange(n) * 10.0,
            populations=pops,
            trace=np.ones(n),
            min_eig=np.zeros(n),
        )

    def test_all_population_on_site3(self):
        traj = self._traj([[0, 0, 1.0, 0, 0, 0, 0]])
        assert fmo.transfer_efficiency(traj, (3, 4)) == pytest.approx(1.0)

    def test_uniform_population(self):
        traj = self._traj([np.full(7, 1.0 / 7.0)])
        assert fmo.transfer_efficiency(traj, (3, 4)) == pytest.approx(2.0 / 7.0)

    def test_bad_site_label(self):
        traj = self._traj([[1, 0], [0, 1]])
        with pytest.raises(IndexOutOfRangeError):
            fmo.transfer_efficiency(traj, (3,))


def write_two_site_model(tmp_path, bath):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"site_energies_cm1": [0.0, 1.0], "couplings_cm1": [[0.0, 1.0], [1.0, 0.0]],
                             "sink_sites": [2], "bath": bath}))
    return p


class TestLoadModel:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError, match="not found"):
            fmo.load_model(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ModelFileError, match="line 1"):
            fmo.load_model(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"site_energies_cm1": [0.0, 1.0]}))
        with pytest.raises(ModelFileError, match="couplings_cm1"):
            fmo.load_model(p)

    def test_bad_rate_shape(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            json.dumps(
                {
                    "site_energies_cm1": [0.0, 1.0],
                    "couplings_cm1": [[0.0, 1.0], [1.0, 0.0]],
                    "sink_sites": [2],
                    "bath": {"rates_per_fs": [[0.0]]},
                }
            )
        )
        with pytest.raises(ModelFileError, match="rates_per_fs"):
            fmo.load_model(p)

    def test_bad_sink_sites(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            json.dumps(
                {
                    "site_energies_cm1": [0.0, 1.0],
                    "couplings_cm1": [[0.0, 1.0], [1.0, 0.0]],
                    "sink_sites": [5],
                    "bath": {"lambda_cm1": 25.0, "omega_c_cm1": 150.0},
                }
            )
        )
        with pytest.raises(ModelFileError, match="sink_sites"):
            fmo.load_model(p)

    def test_shipped_model_loads(self, shipped):
        model, _, _ = shipped
        assert model.hamiltonian.n_sites == 7
        assert model.sink_sites == (3, 4)
        assert model.rates_per_fs is not None
        assert model.lambda_cm1 is not None

    def test_bath_resolution_rules(self, shipped):
        model, _, basis = shipped
        dt = 10.0

        def ohmic(temperature_k):
            return fmo.thermal_rate_matrix(basis, model.lambda_cm1, model.omega_c_cm1, temperature_k) * dt

        assert np.array_equal(fmo.jump_rates(basis, model, dt).gamma, model.rates_per_fs * dt)
        assert np.array_equal(fmo.jump_rates(basis, model, dt, temperature_k=250.0).gamma, ohmic(250.0))
        ohmic_only = dataclasses.replace(model, rates_per_fs=None)
        assert np.array_equal(fmo.jump_rates(basis, ohmic_only, dt).gamma, ohmic(300.0))
        table_only = dataclasses.replace(model, lambda_cm1=None, omega_c_cm1=None)
        with pytest.raises(ModelFileError, match="no Ohmic bath parameters"):
            fmo.jump_rates(basis, table_only, dt, temperature_k=250.0)

    @pytest.mark.parametrize("bath,field", [
        ({"rates_per_fs": [[0.0, float("nan")], [0.0, 0.0]]}, "rates_per_fs"),
        ({"rates_per_fs": [[0.1, 0.0], [0.0, 0.0]]}, "rates_per_fs"),
        ({"lambda_cm1": -5.0, "omega_c_cm1": 150.0}, "lambda_cm1"),
        ({"lambda_cm1": 25.0, "omega_c_cm1": 0.0}, "omega_c_cm1"),
        ({"lambda_cm1": 25.0, "rates_per_fs": [[0.0, 0.0], [0.0, 0.0]]}, "omega_c_cm1"),
        ({}, "rates_per_fs"),
    ])
    def test_every_bath_field_checked_at_load(self, tmp_path, bath, field):
        with pytest.raises(ModelFileError, match=field):
            fmo.load_model(write_two_site_model(tmp_path, bath))
