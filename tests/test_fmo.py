import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from enaqt import circuit, fmo, kernel, linalg, lindblad
from enaqt.errors import (
    IndexOutOfRangeError,
    ModelFileError,
    SpecInvalidError,
    StepTooLargeWarning,
    SurvivalUnderflowError,
)


@pytest.fixture(scope="module")
def shipped():
    model = fmo.load_model(fmo.default_model_path())
    h = fmo.site_hamiltonian(model)
    basis = fmo.exciton_basis(h)
    return model, h, basis


def random_density(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def code_model(site_energies_cm1, couplings_cm1, sink_sites=(1,)):
    """A model built in code, with an Ohmic bath."""
    return fmo.FmoModel(site_energies_cm1=site_energies_cm1, couplings_cm1=couplings_cm1, sink_sites=sink_sites,
                        lambda_cm1=35.0, omega_c_cm1=150.0)


class TestFmoModel:
    def test_two_site(self):
        model = code_model(np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(fmo.site_hamiltonian(model), [[0, 1], [1, 0]])

    def test_zero_couplings(self):
        model = code_model(np.array([10.0, 20.0, 30.0]), np.zeros((3, 3)))
        assert np.allclose(fmo.site_hamiltonian(model), np.diag([10.0, 20.0, 30.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(SpecInvalidError, match="couplings_cm1 must be exactly symmetric"):
            code_model(np.zeros(2), np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(SpecInvalidError, match="zero diagonal"):
            code_model(np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("sink_sites", [(9,), (0,), (True,), (3, 3), (), (3.0,), "34", 3],
                             ids=["past-n", "zero", "bool", "repeated", "empty", "float", "string", "int"])
    def test_model_built_in_code_rejects_a_bad_sink(self, shipped, sink_sites):
        # the rules of a model file hold for a model built in code too
        with pytest.raises(SpecInvalidError, match=r"sink_sites must be a non-empty list of distinct integer "
                                                   r"labels 1\.\.7"):
            dataclasses.replace(shipped[0], sink_sites=sink_sites)

    @pytest.mark.parametrize("n, message", [(1, r"site_energies_cm1 needs >= 2 sites, got shape \(1,\)"),
                                            (fmo.MAX_SITES + 1, "33 sites, more than the 32 a model may have")])
    def test_model_built_in_code_rejects_a_site_count_outside_2_to_max_sites(self, n, message):
        with pytest.raises(SpecInvalidError, match=f"^{message}$"):
            code_model(np.zeros(n), np.zeros((n, n)))

    def test_sink_list_is_kept_as_a_tuple(self, shipped):
        assert dataclasses.replace(shipped[0], sink_sites=[4, 3]).sink_sites == (4, 3)

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
            disordered = dataclasses.replace(model, site_energies_cm1=model.site_energies_cm1 + rng.normal(0.0, 50.0, 7))
            basis = fmo.exciton_basis(fmo.site_hamiltonian(disordered))
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

    def test_bose_occupation_quotient_overflow_is_silent(self):
        # at 1e-320 K omega/kT overflows before exp does; n is still exactly 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(fmo.bose_occupation([10.0, 500.0], 1e-320), [0.0, 0.0])

    def test_spectral_density_past_the_float_range(self):
        # (lambda/omega_c) omega overflows: J is lambda x exp(-x), 0 where omega/omega_c overflows too
        assert np.array_equal(fmo.ohmic_spectral_density([10.0, 500.0], 1.0, 1e-308), [0.0, 0.0])
        assert fmo.ohmic_spectral_density(100.0, 1e308, 1.0) == pytest.approx(1e308 * (100.0 * np.exp(-100.0)), rel=1e-14)

    def test_rates_past_the_float_range(self, shipped):
        _, _, basis = shipped
        assert np.array_equal(fmo.thermal_rate_matrix(basis, 1.0, 1e-308, 300.0), np.zeros((7, 7)))
        # (lambda/omega_c) omega overflows, J does not, and the rates are finite
        rates = fmo.thermal_rate_matrix(basis, 1e308, 1.0, 300.0)
        assert np.all(np.isfinite(rates)) and rates.max() > 1e290
        with pytest.raises(SpecInvalidError, match=r"lambda_cm1 1e\+308, omega_c_cm1 1\.0 and temperature_k 1e\+308"):
            fmo.thermal_rate_matrix(basis, 1e308, 1.0, 1e308)

    # 1e-300 takes the closed form, the others the limit of J n, where n(omega) overflows
    @pytest.mark.parametrize("gap", [1e-300, 1e-320, 5e-324])
    def test_tiny_gap_rate_is_its_limit(self, gap):
        # as omega -> 0, J(omega) n(omega) -> (lambda/omega_c) kT, uphill and downhill alike
        c, s = np.cos(0.3), np.sin(0.3)
        basis = fmo.ExcitonBasis(energies_cm1=np.array([0.0, gap]), transform=np.array([[c, -s], [s, c]]))
        overlap = 2.0 * c**2 * s**2
        expected = 2.0 * np.pi * (35.0 / 150.0) * linalg.KB_CM1_PER_K * 300.0 * overlap / linalg.HBAR_CM1_FS
        rates = fmo.thermal_rate_matrix(basis, 35.0, 150.0, 300.0)
        assert rates[0, 1] == pytest.approx(expected, rel=1e-15)
        assert rates[1, 0] == pytest.approx(expected, rel=1e-15)

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
        spec = kernel.JumpRateSpec(fmo.jump_rates(basis, model) * dt)
        assert np.array_equal(spec.gamma, model.rates_per_fs * dt)

    def test_survival_underflow_propagates(self, shipped):
        model, _, basis = shipped
        with pytest.raises(SurvivalUnderflowError, match="smaller time step"):
            kernel.JumpRateSpec(fmo.jump_rates(basis, model) * 100.0)

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

    def test_projectors_equal_outer_product_stack(self, shipped):
        # the broadcast product gives the bits of one np.outer per site
        _, _, basis = shipped
        d = basis.transform
        expected = np.stack([np.outer(d[m].conj(), d[m]) for m in range(basis.dim)])
        assert np.array_equal(basis.site_projectors(), expected)

    def test_conserved_along_trajectory(self, shipped):
        step_model = fmo.StepModel(shipped[0], 10.0)
        ops = kernel.build_evolution_operators(step_model.rates, step_model.unitary)
        traj = kernel.evolve_trajectory(step_model.initial_state(1), ops, 10.0, 100, step_model.observers)
        assert np.max(np.abs(traj.populations.sum(axis=1) - traj.trace)) <= 1e-10


class TestTransferEfficiency:
    # the efficiency reads one population row, a trajectory's final one

    def test_all_population_on_site3(self):
        assert fmo.transfer_efficiency(np.array([0, 0, 1.0, 0, 0, 0, 0]), (3, 4)) == pytest.approx(1.0)

    def test_uniform_population(self):
        assert fmo.transfer_efficiency(np.full(7, 1.0 / 7.0), (3, 4)) == pytest.approx(2.0 / 7.0)

    def test_bad_site_label(self):
        with pytest.raises(IndexOutOfRangeError):
            fmo.transfer_efficiency(np.array([0.0, 1.0]), (3,))


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
        assert model.n_sites == 7
        assert model.sink_sites == (3, 4)
        assert model.rates_per_fs is not None
        assert model.lambda_cm1 is not None

    def test_bath_resolution_rules(self, shipped):
        model, _, basis = shipped

        def ohmic(temperature_k):
            return fmo.thermal_rate_matrix(basis, model.lambda_cm1, model.omega_c_cm1, temperature_k)

        assert np.array_equal(fmo.jump_rates(basis, model), model.rates_per_fs)
        assert np.array_equal(fmo.jump_rates(basis, model, temperature_k=250.0), ohmic(250.0))
        ohmic_only = dataclasses.replace(model, rates_per_fs=None)
        assert np.array_equal(fmo.jump_rates(basis, ohmic_only), ohmic(300.0))
        table_only = dataclasses.replace(model, lambda_cm1=None, omega_c_cm1=None)
        with pytest.raises(ModelFileError, match="no Ohmic bath parameters"):
            fmo.jump_rates(basis, table_only, temperature_k=250.0)

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


def hand_built(model, dt, temperature_k):
    """A run's set-up built step by step, as each caller once built it: the reference for StepModel."""
    basis = fmo.exciton_basis(fmo.site_hamiltonian(model))
    rates_per_fs = fmo.jump_rates(basis, model, temperature_k)
    rates = kernel.JumpRateSpec(rates_per_fs * dt)
    h_exciton = np.diag(basis.energies_cm1).astype(complex)
    unitary = np.diag(np.exp(-1j * basis.energies_cm1 * dt / linalg.HBAR_CM1_FS))
    return basis, rates_per_fs, rates, h_exciton, unitary


class TestStepModel:
    @pytest.mark.parametrize("dt, temperature_k", [(10.0, None), (20.0, None), (10.0, 77.0)])
    def test_equals_the_hand_built_set_up(self, shipped, dt, temperature_k):
        model = shipped[0]
        step_model = fmo.StepModel(model, dt, temperature_k)
        basis, rates_per_fs, rates, h_exciton, unitary = hand_built(model, dt, temperature_k)
        assert np.array_equal(step_model.unitary, unitary)
        assert np.array_equal(step_model.rates.gamma, rates.gamma)
        assert np.array_equal(step_model.rates_per_fs, rates_per_fs)
        assert np.array_equal(step_model.h_exciton, h_exciton)
        assert np.array_equal(step_model.observers, basis.site_projectors())
        for site in range(1, basis.dim + 1):
            rho = np.zeros((basis.dim, basis.dim), dtype=complex)
            rho[site - 1, site - 1] = 1.0
            assert np.array_equal(step_model.initial_state(site), basis.to_exciton(rho))
        circuit_t = circuit.circuit_transfer_matrix(circuit.build_step_circuit(rates, unitary))
        for chi in (0.0, 0.06, 1.0):
            with warnings.catch_warnings():  # RK4 at 10 fs and more is coarse
                warnings.simplefilter("ignore", StepTooLargeWarning)
                expected = {
                    "operator": kernel.step_transfer_matrix(rates, unitary, chi),
                    "circuit": kernel.step_transfer_matrix(rates, unitary, chi, circuit_t),
                    "lindblad-oracle": lindblad.rk4_transfer_matrix(
                        lindblad.LindbladModel(h_exciton, chi * rates_per_fs), dt),
                }
                for backend, t in expected.items():
                    assert np.array_equal(step_model.transfer_matrix(chi, backend), t), (backend, chi)

    def test_one_eigh_and_one_circuit_built_for_its_backend_only(self, shipped, monkeypatch):
        calls = {"eigh": 0, "build_step_circuit": 0}

        def counted(module, name):
            original = getattr(module, name)

            def call(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(module, name, call)

        counted(fmo, "eigh")
        counted(circuit, "build_step_circuit")
        step_model = fmo.StepModel(shipped[0], 10.0)
        for chi in (0.0, 0.5, 1.0):
            step_model.transfer_matrix(chi)
        assert calls == {"eigh": 1, "build_step_circuit": 0}
        for chi in (0.0, 0.5, 1.0):
            step_model.transfer_matrix(chi, "circuit")
        assert calls == {"eigh": 1, "build_step_circuit": 1}

    def test_too_large_a_step_raises_on_construction(self, shipped):
        with pytest.raises(SurvivalUnderflowError, match="smaller time step"):
            fmo.StepModel(shipped[0], 100.0)

    @pytest.mark.parametrize("site", [0, -1, 8])
    def test_initial_state_rejects_a_site_outside_the_model(self, shipped, site):
        # a label that numpy indexing would wrap (0 is site 7, -1 site 6) or overrun
        with pytest.raises(IndexOutOfRangeError, match=f"site {site} outside 1..7"):
            fmo.StepModel(shipped[0], 10.0).initial_state(site)

    def test_unknown_backend_is_a_value_error_naming_the_backends(self, shipped):
        with pytest.raises(ValueError, match="unknown backend 'bogus': choose from operator, circuit, lindblad-oracle"):
            fmo.StepModel(shipped[0], 10.0).transfer_matrix(1.0, "bogus")

    @pytest.mark.parametrize("dt_fs", [0.0, -0.0, -10.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_time_step_that_is_not_finite_and_positive(self, shipped, dt_fs):
        with pytest.raises(SpecInvalidError, match=re.escape(f"dt_fs must be finite and > 0, got {dt_fs!r}")):
            fmo.StepModel(shipped[0], dt_fs)

    def test_unitary_is_the_evolution_unitary_of_its_hamiltonian(self, shipped):
        # one formula for U: the shipped model and a seeded disorder ensemble (shipped couplings,
        # N(0, 50 cm^-1) site energies, Ohmic rates) at 77 and 300 K
        model = shipped[0]
        rng = np.random.default_rng(1)
        ensemble = [dataclasses.replace(model, site_energies_cm1=model.site_energies_cm1 + rng.normal(0.0, 50.0, 7),
                                        rates_per_fs=None) for _ in range(32)]
        runs = [(model, None)] + [(member, t) for member in ensemble for t in (77.0, 300.0)]
        for member, temperature_k in runs:
            step_model = fmo.StepModel(member, 10.0, temperature_k)
            assert np.array_equal(linalg.evolution_unitary(step_model.h_exciton, 10.0), step_model.unitary)

    def test_circuit_verify_row_is_the_same_with_or_without_the_built_circuit(self, shipped):
        step_model = fmo.StepModel(shipped[0], 10.0)
        args = (step_model.rates, step_model.h_exciton, 10.0, (1.0,))
        assert (circuit.compare_step_channels(*args, step_model.circuit_t)
                == circuit.compare_step_channels(*args))

    def test_convergence_report_steps_the_operator_backends_t(self, shipped, monkeypatch):
        # the oracle's discrete step at each dt is the step simulate runs
        step_model, seen = fmo.StepModel(shipped[0], 10.0), []
        final_state = lindblad._final_state

        def spy(t, rho0, steps):
            seen.append(t)
            return final_state(t, rho0, steps)

        monkeypatch.setattr(lindblad, "_final_state", spy)
        dts = [20.0, 10.0, 5.0]
        lindblad.convergence_report(lindblad.LindbladModel(step_model.h_exciton, step_model.rates_per_fs),
                                    step_model.initial_state(1), 2000.0, dts)
        assert len(seen) == 1 + len(dts)  # the RK4 reference first
        for dt, t in zip(dts, seen[1:]):
            assert np.array_equal(t, fmo.StepModel(shipped[0], dt).transfer_matrix(1.0)), dt
