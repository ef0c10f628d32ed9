"""Properties of every built channel over random valid models: jump probabilities with
row sums <= 1 and a hermitian Hamiltonian, at d = 2..4; and of model-file loading over
every mix of valid and invalid bath fields."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from enaqt import circuit, fmo, kernel, linalg  # noqa: E402
from enaqt.errors import ModelFileError  # noqa: E402

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def models(draw):
    """(rates, hamiltonian, dt): gamma scaled so that no row sums above 1, H = A + A^dag."""
    d = draw(st.integers(2, 4))
    g = draw(arrays(float, (d, d), elements=st.floats(0.0, 1.0)))
    np.fill_diagonal(g, 0.0)
    g /= max(1.0, g.sum(axis=1).max())
    assume(np.all(g.sum(axis=1) <= 1.0))
    a = draw(arrays(float, (2, d, d), elements=st.floats(-200.0, 200.0)))
    h = a[0] + 1j * a[1]
    return kernel.JumpRateSpec(g), h + h.conj().T, draw(st.floats(1.0, 20.0))


def min_choi_eig(t):
    return np.linalg.eigvalsh(circuit.choi_from_transfer(t)).min()


@PROPERTY
@given(models())
def test_circuit_channel_is_cptp(model):
    rates, h, dt = model
    d = rates.dim
    t = circuit.circuit_transfer_matrix(circuit.build_step_circuit(rates, linalg.evolution_unitary(h, dt)))
    assert min_choi_eig(t) >= -1e-12
    # trace preservation: sum_n T[n(d+1), :] = vec(1)
    assert np.max(np.abs(t[:: d + 1].sum(axis=0) - np.eye(d).reshape(-1))) <= 1e-12


@PROPERTY
@given(models(), st.floats(0.0, 1.0))
def test_step_map_is_completely_positive(model, chi):
    rates, h, dt = model
    ops = kernel.build_evolution_operators(rates, linalg.evolution_unitary(h, dt))
    assert min_choi_eig(kernel.step_transfer_matrix(ops, chi)) >= -1e-12


@PROPERTY
@given(models(), st.floats(0.0, 1.0), arrays(float, (2, 4), elements=st.floats(-1.0, 1.0)))
def test_populations_stay_in_unit_interval(model, chi, amplitudes):
    # with U diagonal the step is trace preserving, so populations are probabilities that sum to 1
    rates, h, dt = model
    d = rates.dim
    psi = amplitudes[0, :d] + 1j * amplitudes[1, :d]
    assume(np.linalg.norm(psi) > 0.1)
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    u = np.diag(np.exp(-1j * np.diag(h).real * dt / linalg.HBAR_CM1_FS))
    t = kernel.step_transfer_matrix(kernel.build_evolution_operators(rates, u), chi)
    observers = np.stack([np.diag(e).astype(complex) for e in np.eye(d)])
    pops = kernel.propagate(t, rho0, dt, 20, observers).populations
    assert pops.min() >= -1e-12 and pops.max() <= 1.0 + 1e-12
    assert np.max(np.abs(pops.sum(axis=1) - 1.0)) <= 1e-12


KINDS = ("missing", "valid", "negative", "zero", "nan", "inf", "huge", "string")
# the kinds each bath field accepts, besides being missing
ACCEPTED = {"lambda_cm1": ("valid", "zero"), "omega_c_cm1": ("valid",), "rates_per_fs": ("valid", "zero")}


def bath_value(valid, kind):
    """The shipped value of a bath field, edited to `kind`; a table edits one off-diagonal entry."""
    if kind == "string":
        return "x"
    if kind == "valid":
        return valid
    # huge: a JSON integer past the float range
    number = {"negative": -1.0, "zero": 0.0, "nan": float("nan"), "inf": float("inf"), "huge": 10**400}[kind]
    if not isinstance(valid, list):
        return number
    table = [list(row) for row in valid]
    table[0][1] = number
    return table


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("models")


@settings(PROPERTY, max_examples=150)
@given(st.fixed_dictionaries({field: st.sampled_from(KINDS) for field in ACCEPTED}))
@example({"lambda_cm1": "valid", "omega_c_cm1": "valid", "rates_per_fs": "missing"})
@example({"lambda_cm1": "missing", "omega_c_cm1": "missing", "rates_per_fs": "valid"})
@example({"lambda_cm1": "zero", "omega_c_cm1": "valid", "rates_per_fs": "zero"})
# each field huge while the others are valid
@example({"lambda_cm1": "huge", "omega_c_cm1": "valid", "rates_per_fs": "valid"})
@example({"lambda_cm1": "valid", "omega_c_cm1": "huge", "rates_per_fs": "missing"})
@example({"lambda_cm1": "missing", "omega_c_cm1": "missing", "rates_per_fs": "huge"})
def test_bath_fields_load_or_fail_cleanly(model_dir, kinds):
    raw = json.loads(fmo.default_model_path().read_text())
    for field, kind in kinds.items():
        valid = raw["bath"].pop(field)
        if kind != "missing":
            raw["bath"][field] = bath_value(valid, kind)
    # one fresh file per mix: truncating a file just written can wait on its flush
    path = model_dir / ("-".join(kinds[field] for field in ACCEPTED) + ".json")
    if not path.exists():
        path.write_text(json.dumps(raw))
    has = {field: kind != "missing" for field, kind in kinds.items()}
    accepted = (all(kind == "missing" or kind in ACCEPTED[field] for field, kind in kinds.items())
                and has["lambda_cm1"] == has["omega_c_cm1"]
                and (has["lambda_cm1"] or has["rates_per_fs"]))
    try:
        model = fmo.load_model(path)
    except ModelFileError:
        assert not accepted
        return
    assert accepted
    basis = fmo.exciton_basis(fmo.site_hamiltonian(model.hamiltonian))
    for temperature_k in (None, 300.0):
        try:
            rates = fmo.jump_rates(basis, model, 10.0, temperature_k)
        except ModelFileError:
            assert not has["lambda_cm1"]
            continue
        assert isinstance(rates, kernel.JumpRateSpec)
