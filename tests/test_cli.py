import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import enaqt
from enaqt import circuit, cli, errors, fmo, kernel
from enaqt.errors import StepTooLargeWarning


def run_cli(args):
    return cli.main(args)


def run_cli_process(args, cwd):
    """The CLI in a fresh interpreter, with Python's own warning display: (exit code, stderr lines)."""
    env = dict(os.environ, PYTHONPATH=str(Path(enaqt.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "enaqt.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr.splitlines()


@pytest.fixture(scope="module")
def default_config():
    return str(fmo.default_model_path())


@pytest.fixture()
def toy_model(tmp_path):
    """2-site model with zero Hamiltonian and zero rates."""
    p = tmp_path / "toy.json"
    p.write_text(
        json.dumps(
            {
                "site_energies_cm1": [0.0, 0.0],
                "couplings_cm1": [[0.0, 0.0], [0.0, 0.0]],
                "sink_sites": [2],
                "bath": {"rates_per_fs": [[0.0, 0.0], [0.0, 0.0]]},
            }
        )
    )
    return str(p)


def read_rows(path):
    header = None
    rows = []
    meta = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return meta, header, np.array(rows)


class TestSimulate:
    def test_frozen_toy_rows(self, toy_model, tmp_path):
        out = tmp_path / "traj.csv"
        code = run_cli(
            ["simulate", "--config", toy_model, "--steps", "1", "--out", str(out)]
        )
        assert code == 0
        meta, header, rows = read_rows(out)
        assert header == ["t_fs", "site1", "site2", "trace", "min_eig"]
        assert rows.shape == (2, 5)
        # H = 0 and rates = 0: the two rows are identical except for time
        assert np.array_equal(rows[0, 1:], rows[1, 1:])

    def test_deterministic_output(self, default_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli(
                ["simulate", "--config", default_config, "--steps", "40", "--out", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_metadata_header_reproducible(self, default_config, tmp_path):
        out = tmp_path / "t.csv"
        run_cli(["simulate", "--config", default_config, "--steps", "5",
                 "--chi", "0.5", "--out", str(out)])
        meta, _, _ = read_rows(out)
        config_line = next(line for line in meta if line.startswith("# config: "))
        payload = json.loads(config_line[len("# config: "):])
        assert payload["chi"] == 0.5
        assert payload["steps"] == 5
        assert payload["model"] == default_config
        assert any(line.startswith("# config_sha256: ") for line in meta)
        assert any(line.startswith("# model_sha256: ") for line in meta)

    def test_shipped_efficiency_site1(self, default_config, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--config", default_config, "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert rows.shape == (401, 10)
        sink = rows[-1, header.index("site3")] + rows[-1, header.index("site4")]
        assert sink >= 0.93

    def test_cross_backend_populations(self, default_config, tmp_path):
        # frozen band: measured max gap 4.7e-3 at the shipped rates (the two
        # backends agree only to first order per step); halving dt must
        # shrink the gap ~4x, checked in the acceptance suite
        outs = {}
        for backend in ("operator", "circuit"):
            out = tmp_path / f"{backend}.csv"
            assert run_cli(
                ["simulate", "--config", default_config, "--backend", backend,
                 "--out", str(out)]
            ) == 0
            _, _, rows = read_rows(out)
            outs[backend] = rows
        gap = np.max(np.abs(outs["operator"][:, 1:8] - outs["circuit"][:, 1:8]))
        assert gap <= 6e-3

    @pytest.mark.parametrize("chi", [1.0, 0.5])
    def test_circuit_backend_matches_step_loop(self, default_config, tmp_path, chi):
        # reference: the circuit backend's former stepping loop, one step and
        # one einsum / eigvalsh per row
        steps, dt = 300, 10.0
        args = ["simulate", "--config", default_config, "--backend", "circuit",
                "--steps", str(steps), "--chi", str(chi)]
        out = tmp_path / "circuit.csv"
        assert run_cli(args + ["--out", str(out)]) == 0
        _, _, rows = read_rows(out)

        runner = cli._Runner(cli.RunConfig(model=default_config))
        d = runner.basis.dim
        layout = circuit.QubitLayout(d)
        gates = circuit.build_step_circuit(runner.rates, runner.unitary)
        step_t = circuit.channel_transfer_matrix(
            lambda r: circuit.apply_circuit(r, gates, layout), d
        )
        if chi != 1.0:
            coh_t = circuit.channel_transfer_matrix(
                lambda r: runner.unitary @ r @ runner.unitary.conj().T, d
            )
            step_t = (1.0 - chi) * coh_t + chi * step_t
        rho = runner.initial_state().reshape(-1)
        expected = []
        for k in range(steps + 1):
            if k:
                rho = step_t @ rho
            mat = rho.reshape(d, d)
            pops = np.einsum("oij,ji->o", runner.observers, mat).real
            min_eig = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min()
            expected.append([k * dt, *pops, np.trace(mat).real, min_eig])
        assert rows.shape == (steps + 1, d + 3)
        assert np.max(np.abs(rows - np.array(expected))) <= 1e-12

    def test_lindblad_oracle_backend(self, default_config, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(
            ["simulate", "--config", default_config, "--backend", "lindblad-oracle",
             "--steps", "50", "--out", str(out)]
        ) == 0
        _, _, rows = read_rows(out)
        assert np.max(np.abs(rows[:, 8] - 1.0)) <= 1e-9  # RK4 conserves trace

    def test_oracle_backend_respects_chi(self, default_config, tmp_path):
        # chi scales the dissipator: chi=0 through the RK4 backend must stay
        # localized while chi=1 funnels population to the sink; at chi=0 RK4
        # stays positive to the shared tolerance only at a small step, and at
        # 1 fs neither run gives a coarse-step warning
        sinks = {}
        for chi in ("0.0", "1.0"):
            out = tmp_path / f"chi{chi}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_cli(
                    ["simulate", "--config", default_config, "--backend", "lindblad-oracle",
                     "--chi", chi, "--dt-fs", "1", "--steps", "500", "--out", str(out)]
                ) == 0
            _, header, rows = read_rows(out)
            sinks[chi] = rows[-1, header.index("site3")] + rows[-1, header.index("site4")]
        assert sinks["0.0"] < 0.05
        assert sinks["1.0"] > 0.2

    def test_oracle_backend_checks_states(self, default_config, tmp_path, capsys):
        # RK4 with no dissipator is not positivity preserving: at 10 fs the
        # chi=0 state has min eigenvalue -1.0e-4 after one step
        out = tmp_path / "t.csv"
        assert run_cli(
            ["simulate", "--config", default_config, "--backend", "lindblad-oracle",
             "--chi", "0", "--steps", "50", "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "invalid at step 1:" in err[0]

    def test_shown_warning_is_one_line(self, default_config, tmp_path):
        code, err = run_cli_process(
            ["simulate", "--config", default_config, "--backend", "lindblad-oracle",
             "--chi", "0", "--steps", "50", "--out", str(tmp_path / "t.csv")], tmp_path)
        assert code == 2
        assert len(err) == 2
        assert err[0].startswith("warning: RK4 step 10.0 fs is coarse")
        assert err[1].startswith("numerical invariant violated: ")

    def test_recorded_warning_is_not_shown(self, default_config, tmp_path, capsys):
        # a caller that records warnings gets the warning and no stderr line
        before = warnings.formatwarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["simulate", "--config", default_config, "--backend", "lindblad-oracle",
                            "--steps", "5", "--out", str(tmp_path / "t.csv")]) == 0
        assert [w.category for w in caught] == [StepTooLargeWarning]
        assert capsys.readouterr().err == ""
        assert warnings.formatwarning is before

    def test_bad_backend_is_config_error(self, default_config):
        assert run_cli(["simulate", "--config", default_config, "--backend", "bogus"]) == 1

    def test_missing_model_is_config_error(self):
        assert run_cli(["simulate", "--config", "/does/not/exist.json"]) == 1

    def test_max_steps_is_accepted(self, default_config):
        # validation alone: no trajectory is allocated
        cli.RunConfig(model=default_config, steps=cli.MAX_STEPS).validate(7)

    def test_bad_initial_site(self, default_config):
        assert run_cli(["simulate", "--config", default_config, "--initial-site", "9"]) == 1

    def test_oversized_dt_is_numerical_error(self, default_config):
        assert run_cli(["simulate", "--config", default_config, "--dt-fs", "200"]) == 2

    def test_ohmic_generation_path(self, default_config, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(
            ["simulate", "--config", default_config, "--temperature", "300",
             "--steps", "20", "--out", str(out)]
        ) == 0


class TestCsvBytes:
    SPECIALS = [0.0, -0.0, 5e-324, 1e308, 0.1 + 0.2, -2.2e-16, np.nan, np.inf, -np.inf]

    def test_rows_match_format_17g(self, default_config):
        n = 2 * kernel.CHUNK + 5
        cycle = np.resize(np.array(self.SPECIALS), (n, 10))
        traj = kernel.Trajectory(
            times=np.arange(n) * 2.5, populations=cycle[:, :7],
            trace=cycle[:, 8], min_eig=cycle[:, 9],
        )
        lines = list(cli._trajectory_csv(cli.RunConfig(model=default_config), traj, 7))
        data = [line for line in lines if not line.startswith("#")][1:]
        expected = [
            ",".join(format(float(x), ".17g") for x in (t, *pops, tr, me))
            for t, pops, tr, me in zip(traj.times, traj.populations, traj.trace, traj.min_eig)
        ]
        assert data == expected

    def test_emit_writes_the_joined_lines(self, tmp_path, capsys):
        lines = ["# enaqt", "t_fs,site1", "0,-0", "5e-324,nan", "inf,-2.2000000000000001e-16"]
        expected = "\n".join(lines) + "\n"
        out = tmp_path / "out.csv"
        out.write_text("stale\n" * 100)
        cli._emit(iter(lines), str(out))
        assert out.read_bytes() == expected.encode()
        cli._emit(iter(lines), None)
        assert capsys.readouterr().out == expected


class TestSweepChi:
    def test_chi_consistency(self, default_config, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        assert run_cli(
            ["sweep-chi", "--config", default_config, "--chis", "0.0,0.06,1.0",
             "--steps", "400", "--out", str(sweep_out)]
        ) == 0
        _, header, rows = read_rows(sweep_out)
        assert header == ["chi", "efficiency"]
        eff = {row[0]: row[1] for row in rows}

        # chi = 1 row equals the plain simulate result at 4 ps
        sim_out = tmp_path / "sim.csv"
        run_cli(["simulate", "--config", default_config, "--out", str(sim_out)])
        _, sim_header, sim_rows = read_rows(sim_out)
        sink = sim_rows[-1, sim_header.index("site3")] + sim_rows[-1, sim_header.index("site4")]
        assert eff[1.0] == pytest.approx(sink, abs=1e-12)

        # chi = 0 equals the coherent-only value; jumps help transport
        assert eff[1.0] > eff[0.06]
        assert eff[0.0] < 0.1

    def test_oracle_backend_sweeps_chi(self, default_config, tmp_path):
        # each swept value is the final sink population of the same run at that chi
        # (1 fs keeps the RK4 step below its accuracy warning)
        run = ["--config", default_config, "--backend", "lindblad-oracle", "--dt-fs", "1",
               "--steps", "400"]
        sweep_out = tmp_path / "sweep.csv"
        chis = ["0.06", "0.5", "1"]
        assert run_cli(["sweep-chi", *run, "--chis", ",".join(chis), "--out", str(sweep_out)]) == 0
        _, _, rows = read_rows(sweep_out)
        for chi, (_, eff) in zip(chis, rows, strict=True):
            sim_out = tmp_path / f"sim{chi}.csv"
            assert run_cli(["simulate", *run, "--chi", chi, "--out", str(sim_out)]) == 0
            _, header, sim = read_rows(sim_out)
            assert eff == sim[-1, header.index("site3")] + sim[-1, header.index("site4")]
        assert rows[0, 1] < rows[1, 1] < rows[2, 1]

    def test_circuit_backend_builds_its_step_once(self, default_config, tmp_path, monkeypatch):
        calls, build = [], circuit.circuit_transfer_matrix

        def counted(gates):
            calls.append(gates)
            return build(gates)

        monkeypatch.setattr(circuit, "circuit_transfer_matrix", counted)
        assert run_cli(["sweep-chi", "--config", default_config, "--backend", "circuit",
                        "--chis", "0,0.06,0.5,1", "--steps", "20", "--out", str(tmp_path / "s.csv")]) == 0
        assert len(calls) == 1

    def test_rejects_bad_chi(self, default_config):
        assert run_cli(["sweep-chi", "--config", default_config, "--chis", "0.5,1.5"]) == 1


class TestOracle:
    def test_zero_rate_model_matches_unitary(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            json.dumps(
                {
                    "site_energies_cm1": [0.0, 100.0],
                    "couplings_cm1": [[0.0, 40.0], [40.0, 0.0]],
                    "sink_sites": [2],
                    "bath": {"rates_per_fs": [[0.0, 0.0], [0.0, 0.0]]},
                }
            )
        )
        traj_out = tmp_path / "traj.csv"
        conv_out = tmp_path / "conv.csv"
        code = run_cli(
            ["oracle", "--config", str(p), "--steps", "50", "--dt-list", "4,2,1",
             "--t-final", "200", "--out", str(traj_out),
             "--convergence-out", str(conv_out)]
        )
        assert code == 0
        _, header, rows = read_rows(conv_out)
        assert header == ["dt_fs", "frobenius_distance"]
        assert np.all(rows[:, 1] <= 1e-9)

    def test_defaults_warn_in_one_line(self, default_config, tmp_path):
        code, err = run_cli_process(["oracle", "--config", default_config, "--out", str(tmp_path / "traj.csv"),
                                     "--convergence-out", str(tmp_path / "conv.csv")], tmp_path)
        assert code == 0
        assert len(err) == 1 and err[0].startswith("warning: ")

    def test_fmo_convergence_table(self, default_config, tmp_path):
        conv_out = tmp_path / "conv.csv"
        code = run_cli(
            ["oracle", "--config", default_config, "--steps", "10",
             "--dt-list", "20,10,5", "--t-final", "2000",
             "--out", str(tmp_path / "traj.csv"), "--convergence-out", str(conv_out)]
        )
        assert code == 0
        _, _, rows = read_rows(conv_out)
        assert list(rows[:, 0]) == [20.0, 10.0, 5.0]
        ratios = rows[:-1, 1] / rows[1:, 1]
        assert np.all((1.6 <= ratios) & (ratios <= 2.4))


class TestGatecount:
    def test_table(self, tmp_path, capsys):
        assert run_cli(["gatecount"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "dim,jumps,per_jump_gates,jump_gates_total,coherent_gates,qubits"
        table = {int(l.split(",")[0]): l for l in lines[1:]}
        assert table[7] == "7,42,6,252,1,8"
        assert table[2] == "2,2,2,4,1,4"

    def test_rejects_dim_one(self):
        assert run_cli(["gatecount", "--dims", "1"]) == 1

    def test_largest_dim_runs(self, capsys):
        assert run_cli(["gatecount", "--dims", "64"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "64,4032,12,48384,1,14"


class TestCircuitVerify:
    def test_default_model_verifies(self, default_config, tmp_path):
        out = tmp_path / "verify.csv"
        assert run_cli(
            ["circuit-verify", "--config", default_config, "--scalings", "1.0,0.5",
             "--out", str(out)]
        ) == 0
        text = out.read_text()
        assert "choi_distance_circuit_vs_operator_model" in text
        equiv_line = next(
            l for l in text.splitlines()
            if l.startswith("# choi_distance_circuit_vs_operator_model")
        )
        assert float(equiv_line.split(": ")[1]) <= 1e-10

    def test_config_echoes_only_its_options(self, default_config, tmp_path):
        out = tmp_path / "verify.csv"
        assert run_cli(["circuit-verify", "--config", default_config, "--scalings", "1",
                        "--out", str(out)]) == 0
        meta, _, _ = read_rows(out)
        config_line = next(line for line in meta if line.startswith("# config: "))
        payload = json.loads(config_line[len("# config: "):])
        assert sorted(payload) == ["command", "dt_fs", "model", "scalings", "temperature_k"]

    def test_builds_the_scale_one_circuit_once(self, default_config, tmp_path, monkeypatch):
        # the Kraus-reference certificate and the scale 1 row share one build
        calls, build = [], circuit.circuit_transfer_matrix

        def counted(gates):
            calls.append(gates)
            return build(gates)

        monkeypatch.setattr(circuit, "circuit_transfer_matrix", counted)
        assert run_cli(["circuit-verify", "--config", default_config, "--scalings", "1,0.5,0.25",
                        "--out", str(tmp_path / "v.csv")]) == 0
        assert len(calls) == 3


def _bump_coupling(m):
    m["couplings_cm1"][0][1] += 1e-7


MODEL_EDITS = {
    "sink-not-a-number": lambda m: m.update(sink_sites=["x"]),
    "sink-fractional": lambda m: m.update(sink_sites=[3.7]),
    "sink-not-a-list": lambda m: m.update(sink_sites="34"),
    "sink-empty": lambda m: m.update(sink_sites=[]),
    "nan-site-energy": lambda m: m["site_energies_cm1"].__setitem__(0, float("nan")),
    "inf-coupling": lambda m: m["couplings_cm1"][2].__setitem__(3, float("inf")),
    "coupling-asymmetric-1e-7": _bump_coupling,
    "lambda-not-a-number": lambda m: m["bath"].update(lambda_cm1="a"),
    # every bath field is checked at load, whichever source a run uses
    "table-negative": lambda m: m["bath"]["rates_per_fs"][0].__setitem__(1, -1e-3),
    "table-nan": lambda m: m["bath"]["rates_per_fs"][2].__setitem__(5, float("nan")),
    "table-diagonal": lambda m: m["bath"]["rates_per_fs"][3].__setitem__(3, 1e-3),
    "lambda-negative": lambda m: m["bath"].update(lambda_cm1=-5.0),
    "omega-c-zero": lambda m: m["bath"].update(omega_c_cm1=0.0),
    "lambda-without-omega-c": lambda m: m["bath"].pop("omega_c_cm1"),
    "bath-empty": lambda m: m.update(bath={}),
    "site-energy-object": lambda m: m["site_energies_cm1"].__setitem__(0, {}),
    "table-object": lambda m: m["bath"]["rates_per_fs"][0].__setitem__(1, {}),
    # JSON integers past the float range
    "site-energy-huge-int": lambda m: m["site_energies_cm1"].__setitem__(0, 10**400),
    "omega-c-huge-int": lambda m: m["bath"].update(omega_c_cm1=10**400),
    "table-huge-int": lambda m: m["bath"]["rates_per_fs"][0].__setitem__(1, 10**400),
}

ARG_CASES = {
    "dt-fs-inf": ["simulate", "--dt-fs", "inf"],
    "dt-fs-nan": ["simulate", "--dt-fs", "nan"],
    "temperature-inf": ["simulate", "--temperature", "inf"],
    "oracle-dt-zero": ["oracle", "--dt-list", "0"],
    "oracle-dt-not-dividing": ["oracle", "--dt-list", "3"],
    "oracle-dt-negative": ["oracle", "--dt-list", "-5"],
    "oracle-dt-empty": ["oracle", "--dt-list", ","],
    "oracle-dt-inf": ["oracle", "--dt-list", "20,inf"],
    "oracle-t-final-nan": ["oracle", "--t-final", "nan"],
    "oracle-t-final-inf": ["oracle", "--t-final", "inf"],
    "verify-scaling-negative": ["circuit-verify", "--scalings", "1,-0.5"],
    "verify-scaling-nan": ["circuit-verify", "--scalings", "1,nan"],
    "verify-scaling-zero": ["circuit-verify", "--scalings", "1,0"],
    "verify-scaling-inf": ["circuit-verify", "--scalings", "1,inf"],
    # every CLI step preserves the trace (U is diagonal in the exciton basis): no command renormalizes
    "oracle-backend-renormalize": ["simulate", "--backend", "lindblad-oracle", "--renormalize"],
    "oracle-renormalize": ["oracle", "--renormalize"],
    # options a subcommand would ignore are not registered for it
    "sweep-chi-chi": ["sweep-chi", "--chi", "0.5"],
    "verify-steps": ["circuit-verify", "--steps", "10"],
    "verify-chi": ["circuit-verify", "--chi", "0.5"],
    "verify-initial-site": ["circuit-verify", "--initial-site", "2"],
    "oracle-chi": ["oracle", "--chi", "0.5"],
    # the model file's rate table is used whenever no --temperature is given
    "simulate-explicit-rates": ["simulate", "--explicit-rates"],
    "oracle-explicit-rates": ["oracle", "--explicit-rates"],
    "sweep-chi-explicit-rates": ["sweep-chi", "--explicit-rates"],
    "verify-explicit-rates": ["circuit-verify", "--explicit-rates"],
    "steps-above-max": ["simulate", "--steps", str(cli.MAX_STEPS + 1)],
}
TAKES_STEPS = ("simulate", "oracle", "sweep-chi")

DIMS_CASES = ["2.5", "nan", "inf", "3,-2", "2,65"]


def assert_one_line_config_error(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert caught == []
    return err


class TestBadInputCorpus:
    @pytest.mark.parametrize("edit", MODEL_EDITS.values(), ids=MODEL_EDITS.keys())
    def test_model_file(self, edit, default_config, tmp_path, capsys):
        model = json.loads(open(default_config).read())
        edit(model)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(model))
        for temperature in (["--temperature", "300"], []):
            err = assert_one_line_config_error(["simulate", "--config", str(path), *temperature,
                                                "--steps", "2", "--out", str(tmp_path / "t.csv")], capsys)
            assert str(path) in err  # a load-time failure names the file

    @pytest.mark.parametrize("args", ARG_CASES.values(), ids=ARG_CASES.keys())
    def test_run_arguments(self, args, default_config, tmp_path, capsys):
        steps = ["--steps", "2"] if args[0] in TAKES_STEPS and "--steps" not in args else []
        argv = [args[0], "--config", default_config, *args[1:], *steps, "--out", str(tmp_path / "t.csv")]
        assert_one_line_config_error(argv, capsys)

    @pytest.mark.parametrize("dims", DIMS_CASES)
    def test_gatecount_dims(self, dims, capsys):
        assert_one_line_config_error(["gatecount", "--dims", dims], capsys)


ERROR_CLASSES = sorted((c for c in vars(errors).values()
                        if isinstance(c, type) and issubclass(c, errors.EnaqtError)), key=lambda c: c.__name__)
# named here, not derived from the class tree, so that the test pins the mapping class by class
EXIT_2 = {"NumericalError", "NotHermitianError", "ProbabilityOutOfRangeError", "StateInvalidError",
          "SurvivalUnderflowError"}


class TestExitCodes:
    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_each_error_class(self, cls, monkeypatch, capsys):
        def fail(args):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_gatecount", fail)
        code = cli.main(["gatecount"])
        err = capsys.readouterr().err.splitlines()
        numerical = cls.__name__ in EXIT_2
        assert issubclass(cls, errors.NumericalError) == numerical
        assert code == (2 if numerical else 1)
        assert err == [("numerical invariant violated: boom" if numerical else "error: boom")]

    def test_the_policy_lives_in_errors(self):
        # cli keeps no list of error classes of its own
        assert EXIT_2 <= {c.__name__ for c in ERROR_CLASSES}
        assert not [name for name, value in vars(cli).items() if isinstance(value, tuple)
                    and any(isinstance(c, type) and issubclass(c, Exception) for c in value)]


def test_package_exports_only_its_version():
    # every name is imported from its module; loaded submodules appear as package attributes
    assert enaqt.__version__ == "0.1.0"
    assert not [name for name, value in vars(enaqt).items()
                if not name.startswith("__") and not isinstance(value, type(enaqt))]
