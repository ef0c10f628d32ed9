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
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from enaqt import circuit, cli, fmo, kernel, linalg  # noqa: E402
from enaqt.errors import ModelFileError, SpecInvalidError  # noqa: E402

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


@st.composite
def dephased_states(draw):
    """(rho_h, tied): a hermitian d x d state, d = 2..7, with diagonal entries in [-1e-6, 1] and off-diagonal
    entries of modulus up to a scale from 1e-30 to 1e-2; tied makes its two smallest diagonal entries equal."""
    d = draw(st.integers(2, 7))
    diag = draw(arrays(float, d, elements=st.floats(-1e-6, 1.0)))
    tied = draw(st.booleans())
    if tied:
        m = int(diag.argmin())
        diag[(m + 1) % d] = diag[m]
    scale = draw(st.floats(-30.0, -2.0).map(lambda k: 10.0 ** k))
    parts = draw(arrays(float, (2, d, d), elements=st.floats(-1.0, 1.0)))
    upper = np.triu(parts[0] + 1j * parts[1], 1) * scale
    return np.diag(diag).astype(complex) + upper + upper.conj().T, tied


def exactly_positive_definite(rho_h, shift) -> bool:
    """Whether rho_h - shift 1 is positive definite, by an LDL^dag elimination of its entries as exact rationals."""
    d = len(rho_h)
    re = [[Fraction(float(x.real)) for x in row] for row in rho_h]
    im = [[Fraction(float(x.imag)) for x in row] for row in rho_h]
    for k in range(d):
        re[k][k] -= shift
    for k in range(d):
        pivot = re[k][k]  # real: the elimination keeps the trailing block hermitian
        if pivot <= 0:
            return False
        for i in range(k + 1, d):
            for j in range(k + 1, d):  # a_ij -= a_ik a_kj / pivot
                re[i][j] -= (re[i][k] * re[k][j] - im[i][k] * im[k][j]) / pivot
                im[i][j] -= (re[i][k] * im[k][j] + im[i][k] * re[k][j]) / pivot
    return True


def two_site(coherence, scale=1.0):
    return np.array([[0.25, coherence], [coherence, 0.75]], dtype=complex) * scale, False


@settings(PROPERTY, max_examples=100)
@given(dephased_states())
# about the edge of the route: eps^2 / (beta - theta) at 0.3, 1 and 3 times eps ||rho||_F
@example(two_site(0.5e-8))
@example(two_site(0.94e-8))
@example(two_site(1.5e-8))
# scaled down until eps^2 and the bound are both subnormal and round to the same float
@example(two_site(1.05e-8, 3e-154))
def test_temple_route_is_as_accurate_as_eigvalsh(state):
    rho_h, tied = state
    diag, norm = np.diag(rho_h).real, np.linalg.norm(rho_h)
    eps = np.finfo(float).eps
    routed = kernel._diagonal_min_eig(rho_h[None])
    if tied:
        assert routed is None  # beta - theta <= 0: Temple's bound does not apply
    # off-diagonals below 1e-20 against a gap of 1e-3 leave the bound far inside eps ||rho||_F
    d1, d2 = np.sort(diag)[:2]
    if d2 - d1 >= 1e-3 and d1 >= 0.0 and np.abs(rho_h - np.diag(diag)).max() <= 1e-20:
        assert routed is not None
    if routed is not None:
        # exactly, d_1 - eps ||rho||_F < lambda_min <= d_1 (a Rayleigh quotient)
        assert routed[0] == diag.min()
        assert exactly_positive_definite(rho_h, Fraction(d1) - Fraction(eps * norm))
        assert not exactly_positive_definite(rho_h, Fraction(d1))
        # eigvalsh is itself accurate only to a small multiple of eps ||rho||
        assert abs(routed[0] - np.linalg.eigvalsh(rho_h).min()) <= 4 * eps * norm


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
# a numeric field's entry: one in ten a JSON string or boolean, which is no number
NOT_A_NUMBER = ("0", "1e1", "x", True, False)
ENTRY = st.integers(0, 9).flatmap(lambda k: st.sampled_from(NOT_A_NUMBER) if k == 0 else NUMBER)
ANY_JSON = st.recursive(st.none() | st.booleans() | NUMBER | st.text(max_size=3),
                        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                                     max_size=3),
                        max_leaves=8)


@st.composite
def model_files(draw):
    """A model file's JSON value: now and then any JSON at all, else an object for 1 to 3 sites whose
    fields, the bath's too, are each the right shape filled from ENTRY, any JSON, or missing."""
    if draw(st.integers(0, 9)) == 0:
        return draw(ANY_JSON)
    n = draw(st.sampled_from((2, 2, 3, 1)))

    def square(symmetric):
        m = [[0.0 if i == j else draw(ENTRY) for j in range(n)] for i in range(n)]
        return [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)] if symmetric else m

    def fields(shaped):
        raw = {}
        for field, value in shaped.items():
            kind = draw(st.sampled_from(("shaped",) * 14 + ("any", "missing")))
            if kind != "missing":
                raw[field] = value() if kind == "shaped" else draw(ANY_JSON)
        return raw

    return fields({
        "site_energies_cm1": lambda: [draw(ENTRY) for _ in range(n)],
        "couplings_cm1": lambda: square(symmetric=True),
        "sink_sites": lambda: draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)),
        "bath": lambda: fields({"lambda_cm1": lambda: draw(ENTRY), "omega_c_cm1": lambda: draw(ENTRY),
                                "rates_per_fs": lambda: square(symmetric=False)}),
    })


def holds_a_non_number(raw) -> bool:
    """Whether a numeric field of the model file `raw` holds a JSON string or boolean anywhere."""
    def leaves(value):
        if isinstance(value, (list, dict)):
            for item in value.values() if isinstance(value, dict) else value:
                yield from leaves(item)
        else:
            yield value

    if not isinstance(raw, dict):
        return False
    bath = raw.get("bath") if isinstance(raw.get("bath"), dict) else {}
    fields = [raw.get("site_energies_cm1"), raw.get("couplings_cm1"),
              *(bath.get(field) for field in ("lambda_cm1", "omega_c_cm1", "rates_per_fs"))]
    return any(type(leaf) in (str, bool) for field in fields for leaf in leaves(field))


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
    if holds_a_non_number(raw):  # a file error, whichever numbers a run reads
        assert code == 1, err


@st.composite
def code_models(draw):
    """FmoModel fields as a model built in code passes them: lists of numbers drawn from EXTREME, with
    integers past the float range of either sign, and ORDINARY; each bath field given or None."""
    number = st.integers(0, 2).flatmap(lambda k: st.sampled_from(EXTREME + (-10**400,) if k == 0 else ORDINARY))
    n = draw(st.sampled_from((2, 2, 3, 1)))
    upper = [[draw(number) for _ in range(n)] for _ in range(n)]
    optional = st.booleans().flatmap(lambda given: number if given else st.none())
    table = [[0 if i == j else draw(number) for j in range(n)] for i in range(n)]
    return {
        "site_energies_cm1": [draw(number) for _ in range(n)],
        "couplings_cm1": [[0 if i == j else upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)],
        "sink_sites": draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)),
        "lambda_cm1": draw(optional),
        "omega_c_cm1": draw(optional),
        "rates_per_fs": table if draw(st.booleans()) else None,
    }


@settings(PROPERTY, max_examples=200)
@given(code_models())
@example({"site_energies_cm1": [0.0, 1.0], "couplings_cm1": [[0, 1.0], [1.0, 0]], "sink_sites": [2],
          "lambda_cm1": 10**400, "omega_c_cm1": 150.0, "rates_per_fs": None})
def test_a_model_built_in_code_fails_only_with_spec_invalid_error(fields):
    try:
        model = fmo.FmoModel(**fields)
    except SpecInvalidError:
        return
    assert model.site_energies_cm1.dtype == float and np.isfinite(model.couplings_cm1).all()
