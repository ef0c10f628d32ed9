"""Properties of every built channel over random valid models: jump probabilities with
row sums <= 1 and a hermitian Hamiltonian, at d = 2..4; of model-file loading over
every mix of valid and invalid bath fields; and of the CLI over generated argv and
generated model files."""

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from enaqt import circuit, cli, fmo, kernel, linalg  # noqa: E402
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
    return np.linalg.eigvalsh(linalg.choi_from_transfer(t)).min()


@PROPERTY
@given(models())
def test_circuit_channel_is_cptp(model):
    rates, h, dt = model
    d = rates.dim
    t = circuit.circuit_transfer_matrix(circuit.build_step_circuit(rates, linalg.evolution_unitary(h, dt)))
    assert min_choi_eig(t) >= -1e-12
    # trace preservation: sum_n T[n(d+1), :] = vec(1)
    assert np.max(np.abs(t[:: d + 1].sum(axis=0) - np.eye(d).reshape(-1))) <= 1e-12
    # so chunks steps it without per-state checks when it records no min_eig
    assert kernel._channel_certified(t, 1000)


@PROPERTY
@given(models(), st.floats(0.0, 1.0))
def test_step_map_is_completely_positive(model, chi):
    rates, h, dt = model
    assert min_choi_eig(kernel.step_transfer_matrix(rates, linalg.evolution_unitary(h, dt), chi)) >= -1e-12


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
    t = kernel.step_transfer_matrix(rates, u, chi)
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
    for temperature_k in (None, 300.0):
        try:
            step_model = fmo.StepModel(model, 10.0, temperature_k)
        except ModelFileError:
            assert not has["lambda_cm1"]
            continue
        assert isinstance(step_model.rates, kernel.JumpRateSpec)


# option values: +-0, subnormals, +-1e308, nan, inf, empty and non-numeric text, and a few ordinary
# values so that some runs go through. For run time only, every --steps and --dims is drawn from this
# pool, so an accepted one is at most 7: within the 50 steps and 8 dims that keep Tier-1 fast
POOL = ("0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "1e-310", "1e308", "-1e308", "nan", "inf", "-inf",
        "", ",", "x", "-1", "0.5", "1", "2", "7")
SCALAR = st.sampled_from(POOL)
LIST = st.lists(SCALAR, min_size=1, max_size=3).map(",".join)
BACKEND = st.sampled_from(fmo.StepModel.BACKENDS + ("x",))
# each subcommand's options besides --config and the output paths: (flag, values, always given)
ARGV_OPTIONS = {
    "simulate": [("--initial-site", SCALAR, False), ("--dt-fs", SCALAR, False), ("--steps", SCALAR, True),
                 ("--chi", SCALAR, False), ("--temperature", SCALAR, False),
                 ("--backend", BACKEND, False)],
    "oracle": [("--initial-site", SCALAR, False), ("--dt-fs", SCALAR, False), ("--steps", SCALAR, True),
               ("--temperature", SCALAR, False), ("--dt-list", LIST, False), ("--t-final", SCALAR, False)],
    "sweep-chi": [("--initial-site", SCALAR, False), ("--dt-fs", SCALAR, False), ("--steps", SCALAR, True),
                  ("--temperature", SCALAR, False), ("--backend", BACKEND, False),
                  ("--chis", LIST, False)],
    "circuit-verify": [("--dt-fs", SCALAR, False), ("--temperature", SCALAR, False), ("--scalings", LIST, False)],
    "gatecount": [("--dims", LIST, True)],
}


@st.composite
def argvs(draw):
    """One subcommand's argv: the shipped model, outputs to the null device, each option drawn or left out."""
    command = draw(st.sampled_from(sorted(ARGV_OPTIONS)))
    argv = [command, "--out", os.devnull]
    if command != "gatecount":
        argv += ["--config", str(fmo.default_model_path())]
    if command == "oracle":
        argv += ["--convergence-out", os.devnull]
    for flag, values, always in ARGV_OPTIONS[command]:
        if always or draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


def oracle_argv(*options):
    return ["oracle", "--out", os.devnull, "--config", str(fmo.default_model_path()), "--convergence-out", os.devnull,
            "--steps", "1", *options]


@settings(PROPERTY, max_examples=150)
@given(argvs())
# rates times dt past the float range
@example(["circuit-verify", "--out", os.devnull, "--config", str(fmo.default_model_path()), "--dt-fs", "1e308",
          "--temperature", "1e308"])
@example(oracle_argv("--temperature", "1e308", "--dt-fs", "5e-324", "--t-final", "1e308", "--dt-list", "1e308"))
# the convergence table: a dt of 0 steps, a step count past the float range, an RK4 step of 0 fs, RK4 at 1e307 fs
@example(oracle_argv("--t-final", "1e-310"))
@example(oracle_argv("--t-final", "1e308"))
@example(oracle_argv("--t-final", "5e-324", "--dt-list", "5e-324"))
@example(oracle_argv("--t-final", "1e308", "--dt-list", "1e308"))
def test_every_argv_ends_in_an_exit_code_and_at_most_one_line(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    err = stderr.getvalue().splitlines()
    assert code in (0, 1, 2)
    failures = [line for line in err if not line.startswith("warning: ")]
    assert len(failures) == (code != 0), err
    assert all(line.startswith("error: " if code == 1 else "numerical invariant violated: ") for line in failures)


# model-file numbers: +-0, subnormals, +-1e308, NaN and Infinity as Python's json writes and reads them,
# and an integer past the float range; one number in five is drawn from these and the rest from ordinary
# values, so that some of the models load and run
EXTREME = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, math.nan, math.inf, -math.inf, 10**400)
ORDINARY = (-1.0, 0.01, 0.5, 1.0, 2.0, 7.0, 100.0, 0, 1)
NUMBER = st.integers(0, 4).flatmap(lambda k: st.sampled_from(EXTREME if k == 0 else ORDINARY))
ANY_JSON = st.recursive(st.none() | st.booleans() | NUMBER | st.text(max_size=3),
                        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                                     max_size=3),
                        max_leaves=8)


@st.composite
def model_files(draw):
    """A model file's JSON value: now and then any JSON at all, else an object for 1 to 3 sites whose
    fields, the bath's too, are each the right shape filled from NUMBER, any JSON, or missing."""
    if draw(st.integers(0, 9)) == 0:
        return draw(ANY_JSON)
    n = draw(st.sampled_from((2, 2, 3, 1)))

    def square(symmetric):
        m = [[0.0 if i == j else draw(NUMBER) for j in range(n)] for i in range(n)]
        return [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)] if symmetric else m

    def fields(shaped):
        raw = {}
        for field, value in shaped.items():
            kind = draw(st.sampled_from(("shaped",) * 14 + ("any", "missing")))
            if kind != "missing":
                raw[field] = value() if kind == "shaped" else draw(ANY_JSON)
        return raw

    return fields({
        "site_energies_cm1": lambda: [draw(NUMBER) for _ in range(n)],
        "couplings_cm1": lambda: square(symmetric=True),
        "sink_sites": lambda: draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)),
        "bath": lambda: fields({"lambda_cm1": lambda: draw(NUMBER), "omega_c_cm1": lambda: draw(NUMBER),
                                "rates_per_fs": lambda: square(symmetric=False)}),
    })


# each subcommand that reads a model, at its defaults but for a short run
MODEL_COMMANDS = (("simulate", "--steps", "2"), ("simulate", "--steps", "2", "--backend", "circuit"),
                  ("simulate", "--steps", "2", "--backend", "lindblad-oracle"), ("sweep-chi", "--steps", "2"),
                  ("oracle", "--steps", "2", "--convergence-out", os.devnull), ("circuit-verify",))


@settings(PROPERTY, max_examples=200)
@given(model_files(), st.sampled_from(MODEL_COMMANDS), st.booleans())
# found by this test: an exciton gap past the float range (Ohmic rates, then U at 10 fs)
@example({"site_energies_cm1": [-1e308, 1e308], "couplings_cm1": [[0, 0], [0, 0]], "sink_sites": [1],
          "bath": {"lambda_cm1": 1.0, "omega_c_cm1": 1.0}}, MODEL_COMMANDS[0], False)
def test_every_model_file_ends_in_an_exit_code_and_at_most_one_line(model_dir, raw, command, ohmic):
    text = json.dumps(raw)
    path = model_dir / (hashlib.sha256(text.encode()).hexdigest() + ".json")
    if not path.exists():  # a fresh file per model: truncating a file just written can wait on its flush
        path.write_text(text)
    argv = [command[0], "--config", str(path), "--out", os.devnull, *command[1:]]
    if ohmic:
        argv += ["--temperature", "77"]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    err = stderr.getvalue().splitlines()
    assert code in (0, 1, 2)
    failures = [line for line in err if not line.startswith("warning: ")]
    assert len(failures) == (code != 0), err
    assert all(line.startswith("error: " if code == 1 else "numerical invariant violated: ") for line in failures)
