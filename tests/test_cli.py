import collections
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
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

        step_model = fmo.StepModel(fmo.load_model(default_config), dt)
        d = step_model.basis.dim
        gates = circuit.build_step_circuit(step_model.rates, step_model.unitary)
        step_t = circuit.channel_transfer_matrix(lambda r: circuit.apply_circuit(r, gates), d)
        if chi != 1.0:
            coh_t = circuit.channel_transfer_matrix(
                lambda r: step_model.unitary @ r @ step_model.unitary.conj().T, d
            )
            step_t = (1.0 - chi) * coh_t + chi * step_t
        rho = step_model.initial_state(1).reshape(-1)
        expected = []
        for k in range(steps + 1):
            if k:
                rho = step_t @ rho
            mat = rho.reshape(d, d)
            pops = np.einsum("oij,ji->o", step_model.observers, mat).real
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
        assert not out.exists()  # the partial file is removed

    def test_shown_warning_is_one_line(self, default_config, tmp_path):
        code, err = run_cli_process(
            ["simulate", "--config", default_config, "--backend", "lindblad-oracle",
             "--chi", "0", "--steps", "50", "--out", str(tmp_path / "t.csv")], tmp_path)
        assert code == 2
        assert len(err) == 2
        assert err[0].startswith("warning: RK4 step 10.0 fs is coarse")
        assert err[1].startswith("numerical invariant violated: ")

    def test_every_in_process_run_shows_its_warning(self, default_config, tmp_path):
        # Python's default filter shows a repeated warning once per location and process;
        # a caller's own ignore filter still silences the third run
        args = ["simulate", "--config", default_config, "--backend", "lindblad-oracle",
                "--steps", "5", "--out", str(tmp_path / "t.csv")]
        script = ("import warnings\nfrom enaqt.cli import main\n"
                  f"for _ in range(2):\n    assert main({args!r}) == 0\n"
                  f"warnings.simplefilter('ignore')\nassert main({args!r}) == 0\n")
        env = dict(os.environ, PYTHONPATH=str(Path(enaqt.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 2 and all(line.startswith("warning: RK4 step") for line in err)

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

    def test_header_hashes_the_model_bytes_parsed(self, default_config, tmp_path, monkeypatch):
        # the model file is read once: an edit during the run does not reach the header
        model, original = tmp_path / "model.json", Path(default_config).read_bytes()
        model.write_bytes(original)
        jump_rates = fmo.jump_rates

        def rewriting(*args, **kwargs):
            model.write_bytes(original + b"\n")
            return jump_rates(*args, **kwargs)

        monkeypatch.setattr(fmo, "jump_rates", rewriting)
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--config", str(model), "--steps", "2", "--out", str(out)]) == 0
        meta, _, _ = read_rows(out)
        assert f"# model_sha256: {hashlib.sha256(original).hexdigest()}" in meta
        assert model.read_bytes() != original

    def test_bad_backend_is_config_error(self, default_config):
        assert run_cli(["simulate", "--config", default_config, "--backend", "bogus"]) == 1

    def test_missing_model_is_config_error(self):
        assert run_cli(["simulate", "--config", "/does/not/exist.json"]) == 1

    def test_max_steps_is_accepted(self, default_config, capsys):
        # parsing alone: no trajectory is allocated
        argv = ["simulate", "--config", default_config, "--steps"]
        assert cli.build_parser().parse_args(argv + [str(cli.MAX_STEPS)]).steps == cli.MAX_STEPS
        assert run_cli(argv + [str(cli.MAX_STEPS + 1)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: argument --steps: ")

    def test_bad_initial_site(self, default_config, tmp_path, capsys):
        # checked before any output is opened, in every subcommand that takes a site: an older --out stays
        out = tmp_path / "t.csv"
        out.write_bytes(b"older\n")
        for site in ("9", "8", "0", "-1"):
            for command in ("simulate", "oracle", "sweep-chi"):
                err = assert_one_line_config_error([command, "--config", default_config, "--initial-site", site,
                                                    "--out", str(out)], capsys)
                assert err == f"error: initial site must be in 1..7, got {site}\n"
                assert out.read_bytes() == b"older\n"

    def test_oversized_dt_is_numerical_error(self, default_config):
        assert run_cli(["simulate", "--config", default_config, "--dt-fs", "200"]) == 2

    def test_ohmic_generation_path(self, default_config, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(
            ["simulate", "--config", default_config, "--temperature", "300",
             "--steps", "20", "--out", str(out)]
        ) == 0

    def test_tiny_temperature_prints_nothing(self, default_config, tmp_path):
        # omega/kT overflows below about 1e-306 K, and n is then exactly 0, with no warning line
        code, err = run_cli_process(["simulate", "--config", default_config, "--temperature", "1e-306",
                                     "--steps", "2", "--out", str(tmp_path / "t.csv")], tmp_path)
        assert code == 0 and err == []

    @pytest.mark.parametrize("bath, temperature, code, message", [
        # omega/omega_c overflows: J underflows to 0, so every rate is 0 and the run goes through
        ({"lambda_cm1": 1, "omega_c_cm1": 1e-308}, "300", 0, None),
        # J stays finite, but the rates are far past one jump per step
        ({"lambda_cm1": 1e308, "omega_c_cm1": 1}, "300", 2, "numerical invariant violated: jump probability out of"),
        # J n overflows: the rates themselves are past the float range
        ({"lambda_cm1": 1e308, "omega_c_cm1": 1}, "1e308", 1,
         "error: Ohmic rates overflow at lambda_cm1 1e+308, omega_c_cm1 1 and temperature_k 1e+308"),
    ], ids=["underflow", "finite", "overflow"])
    def test_extreme_ohmic_bath_prints_no_warning(self, default_config, tmp_path, bath, temperature, code, message):
        raw = json.loads(Path(default_config).read_text())
        raw["bath"] = bath
        model = tmp_path / "model.json"
        model.write_text(json.dumps(raw))
        status, err = run_cli_process(["simulate", "--config", str(model), "--temperature", temperature,
                                       "--steps", "2", "--out", str(tmp_path / "t.csv")], tmp_path)
        assert status == code and len(err) == (message is not None)
        assert message is None or err[0].startswith(message)

    def test_tiny_exciton_gap_runs(self, tmp_path):
        # n(omega) overflows below a gap of about 1e-306 cm^-1 at 300 K, but J n stays finite
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"site_energies_cm1": [0.0, 1e-320], "couplings_cm1": [[0, 0], [0, 0]],
                                     "sink_sites": [2], "bath": {"lambda_cm1": 35.0, "omega_c_cm1": 150.0}}))
        status, err = run_cli_process(["simulate", "--config", str(model), "--temperature", "300",
                                       "--steps", "2", "--out", str(tmp_path / "t.csv")], tmp_path)
        assert status == 0 and err == []


class TestCsvBytes:
    SPECIALS = [0.0, -0.0, 5e-324, 1e308, 0.1 + 0.2, -2.2e-16, np.nan, np.inf, -np.inf]

    def test_rows_match_format_17g(self, default_config):
        n = 2 * kernel.CHUNK + 5
        cycle = np.resize(np.array(self.SPECIALS), (n, 10))
        traj = kernel.Trajectory(
            times=np.arange(n) * 2.5, populations=cycle[:, :7],
            trace=cycle[:, 8], min_eig=cycle[:, 9],
        )
        # in the chunks of kernel.chunks: (start, populations, trace, min_eig)
        chunks = ((k, traj.populations[k:k + kernel.CHUNK], traj.trace[k:k + kernel.CHUNK],
                   traj.min_eig[k:k + kernel.CHUNK]) for k in range(0, n, kernel.CHUNK))
        args = cli.build_parser().parse_args(["simulate", "--config", default_config, "--dt-fs", "2.5"])
        lines = list(cli._trajectory_csv(args, fmo.load_model(default_config), chunks))
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
        cli._emit((iter(lines), str(out)))
        assert out.read_bytes() == expected.encode()
        cli._emit((iter(lines), None))
        assert capsys.readouterr().out == expected

    def test_failed_emit_removes_only_a_regular_file(self, tmp_path):
        def failing():
            yield "# enaqt"
            raise errors.StateInvalidError("boom")

        out = tmp_path / "out.csv"
        for path in (out, os.devnull):
            with pytest.raises(errors.StateInvalidError):
                cli._emit((failing(), str(path)))
        assert not out.exists() and os.path.exists(os.devnull)
        # a later output's failure removes an earlier, complete one too
        first = tmp_path / "first.csv"
        with pytest.raises(errors.StateInvalidError):
            cli._emit((iter(["# enaqt"]), str(first)), (failing(), str(out)))
        assert not first.exists() and not out.exists()

    def test_failed_emit_keeps_an_older_file_that_got_no_line(self, tmp_path):
        def failing_at_once():
            raise errors.StateInvalidError("boom")
            yield

        first, out = tmp_path / "first.csv", tmp_path / "out.csv"
        for path in (first, out):
            path.write_bytes(b"older\n")
        with pytest.raises(errors.StateInvalidError):
            cli._emit((failing_at_once(), str(out)))
        assert out.read_bytes() == b"older\n"
        # an older file that a complete output rewrote goes; the one the failing output never reached stays
        with pytest.raises(errors.StateInvalidError):
            cli._emit((iter(["# enaqt"]), str(first)), (failing_at_once(), str(out)))
        assert not first.exists() and out.read_bytes() == b"older\n"

    # an existing file is written in place and trimmed after its last line, never truncated on open
    LINES = ["# enaqt", "t_fs,site1", "0,1", "10,0.5"]
    EXPECTED = "".join(f"{line}\n" for line in LINES).encode()

    def test_rewrite_over_a_larger_file_keeps_it_until_trimmed(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_text("stale\n" * 1000)
        inode, sizes = out.stat().st_ino, []

        def lines():
            sizes.append(out.stat().st_size)  # as the first line is asked for
            yield from self.LINES

        cli._emit((lines(), str(out)))
        assert sizes == [6000]
        assert out.read_bytes() == self.EXPECTED and out.stat().st_ino == inode

    def test_rewrite_over_a_shorter_file(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_text("x\n")
        cli._emit((iter(self.LINES), str(out)))
        assert out.read_bytes() == self.EXPECTED

    def test_rewrite_keeps_the_mode(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_text("stale\n" * 100)
        out.chmod(0o640)
        cli._emit((iter(self.LINES), str(out)))
        assert stat.S_IMODE(out.stat().st_mode) == 0o640 and out.read_bytes() == self.EXPECTED

    def test_rewrite_through_a_symlink_writes_its_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("stale\n" * 100)
        link.symlink_to(target)
        cli._emit((iter(self.LINES), str(link)))
        assert link.is_symlink() and target.read_bytes() == self.EXPECTED


def traced_peak_kb(argv) -> float:
    """tracemalloc's peak over one in-process CLI run, in KB."""
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    # rows are formatted and written chunk by chunk, so the peak does not grow with --steps
    def test_simulate_peak_does_not_grow_with_steps(self, default_config):
        argv = ["simulate", "--config", default_config, "--out", os.devnull, "--steps"]
        traced_peak_kb(argv + ["100"])  # first-run allocations out of the way
        short, long = (traced_peak_kb(argv + [steps]) for steps in ("2000", "20000"))
        assert long - short <= 100

    def test_sweep_keeps_only_the_last_rows(self, default_config):
        # one chi at a time: one T, one T^16 and one lane buffer whatever the number of chi
        # values (measured: 263 KB at 8 chi, 271 KB at 64)
        argv = ["sweep-chi", "--config", default_config, "--steps", "1000", "--out", os.devnull, "--chis"]
        eight = argv + ["0,0.06,0.125,0.25,0.4,0.5,0.75,1"]
        traced_peak_kb(eight)
        few, many = traced_peak_kb(eight), traced_peak_kb(argv + [",".join(map(repr, np.linspace(0, 1, 64).tolist()))])
        assert abs(many - few) <= 50 and max(few, many) < 400


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
        assert eff[1.0] == sink

        # chi = 0 equals the coherent-only value; jumps help transport
        assert eff[1.0] > eff[0.06]
        assert eff[0.0] < 0.1

    def test_oracle_backend_sweeps_chi(self, default_config, tmp_path):
        self._assert_swept_chi_is_simulate(default_config, tmp_path, "lindblad-oracle")

    @pytest.mark.parametrize("backend", ["operator", "circuit"])
    def test_transfer_backends_sweep_chi(self, default_config, tmp_path, backend):
        self._assert_swept_chi_is_simulate(default_config, tmp_path, backend)

    @staticmethod
    def _assert_swept_chi_is_simulate(default_config, tmp_path, backend):
        # each swept value is the final sink population of the same run at that chi, bit for
        # bit, certified or not (1 fs keeps the RK4 step below its accuracy warning)
        run = ["--config", default_config, "--backend", backend, "--dt-fs", "1", "--steps", "400"]
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

    def test_oracle_backend_names_the_failing_member(self, default_config, tmp_path, capsys):
        # RK4 with no dissipator loses positivity at step 1 at 10 fs (see TestSimulate); the
        # member is the position of its chi in --chis
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            code = run_cli(["sweep-chi", "--config", default_config, "--backend", "lindblad-oracle",
                            "--chis", "1,0", "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and not (tmp_path / "s.csv").exists()
        assert len(err) == 1 and err[0].startswith("numerical invariant violated: member 1 (chi 0.0): "
                                                   "state invalid at step 1: ")

    def test_smuggled_non_cp_step_exits_2_naming_its_member(self, default_config, monkeypatch, capsys):
        # a negative gamma set past JumpRateSpec's checks: not certified, so its states are
        # checked one by one and the first bad one is named
        build = fmo.StepModel.transfer_matrix

        def smuggled(step_model, chi, backend):
            if chi != 0.5:
                return build(step_model, chi, backend)
            rates = kernel.JumpRateSpec(step_model.rates.gamma)
            gamma = rates.gamma.copy()
            gamma[0, 1] = -0.05
            object.__setattr__(rates, "gamma", gamma)
            return kernel.step_transfer_matrix(rates, step_model.unitary, 1.0)

        monkeypatch.setattr(fmo.StepModel, "transfer_matrix", smuggled)
        assert run_cli(["sweep-chi", "--config", default_config, "--chis", "1,0.5"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical invariant violated: member 1 (chi 0.5): state invalid at step 23: "
                       "min eigenvalue -2.297e-03, hermiticity defect 1.052e-16 (tolerance 1.0e-06)"]

    def test_certified_sweep_does_no_per_chunk_checks(self, default_config, monkeypatch):
        # per chi: one Cholesky of its Choi matrix, and the state checks of rho0 and of the last
        # state, one eigvalsh each (they fall in different chunks); nothing that grows with --steps
        counts = collections.Counter()

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in ("cholesky", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        check = kernel._check_states

        def check_counted(states, *args):
            counts["states"] += states.shape[0]
            return check(states, *args)

        monkeypatch.setattr(kernel, "_check_states", check_counted)
        for steps in ("1000", "2000"):
            counts.clear()
            assert run_cli(["sweep-chi", "--config", default_config, "--chis", "0,0.06,0.125,0.25,0.4,0.5,0.75,1",
                            "--steps", steps, "--out", os.devnull]) == 0
            assert counts == {"cholesky": 8, "eigvalsh": 16, "states": 16}

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
    def test_dt_list_must_divide_t_final_into_at_most_2_to_the_23_steps(self, default_config, tmp_path, capsys):
        # above 2^53 every float is a whole number, so without the bound any dt would divide 1e20 fs
        out, conv = tmp_path / "t.csv", tmp_path / "c.csv"
        for t_final, dt_list in (("1e20", "3,7"), (str(2 ** 23 + 1), "1")):
            assert run_cli(["oracle", "--config", default_config, "--t-final", t_final, "--dt-list", dt_list,
                            "--out", str(out), "--convergence-out", str(conv)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: --dt-list and --t-final: dt ")
            assert err[0].endswith(f"does not divide t_final {float(t_final)} fs into 1..8388608 whole steps")
            assert not out.exists() and not conv.exists()  # rejected before any output is opened

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

    @pytest.mark.parametrize("stale", ["repeated", "longer-run"])
    def test_rewrite_over_longer_files_equals_a_fresh_run(self, default_config, tmp_path, stale):
        def oracle(out, conv, steps="300", dt_list="4,2,1"):
            assert run_cli(["oracle", "--config", default_config, "--dt-fs", "1", "--steps", steps,
                            "--t-final", "40", "--dt-list", dt_list, "--out", str(out),
                            "--convergence-out", str(conv)]) == 0
            return out.read_bytes(), conv.read_bytes()

        fresh = oracle(tmp_path / "fresh.csv", tmp_path / "fresh_conv.csv")
        out, conv = tmp_path / "out.csv", tmp_path / "conv.csv"
        if stale == "repeated":
            for path, text in ((out, fresh[0]), (conv, fresh[1])):
                path.write_bytes(text * 3)
        else:  # the same paths, just written by a longer run with a longer table
            oracle(out, conv, steps="10000", dt_list="4,2,1,0.5,0.25")
        assert all(len(path.read_bytes()) > len(text) for path, text in zip((out, conv), fresh))
        assert oracle(out, conv) == fresh

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

    def test_one_file_for_both_outputs_is_config_error(self, default_config, tmp_path, capsys):
        out = tmp_path / "t.csv"
        for path in (out, tmp_path / "." / "t.csv"):
            err = assert_one_line_config_error(["oracle", "--config", default_config, "--steps", "2",
                                                "--out", str(out), "--convergence-out", str(path)], capsys)
            assert str(out) in err and not out.exists()
        # a hard link is the same file by another name; neither name loses its bytes
        conv = tmp_path / "conv.csv"
        conv.write_bytes(b"older\n")
        os.link(conv, out)
        err = assert_one_line_config_error(["oracle", "--config", default_config, "--dt-fs", "1", "--steps", "50",
                                            "--out", str(out), "--convergence-out", str(conv)], capsys)
        assert str(out) in err and out.read_bytes() == conv.read_bytes() == b"older\n"
        # a device is not a regular file: both outputs may go there
        assert run_cli(["oracle", "--config", default_config, "--dt-fs", "1", "--steps", "2", "--t-final", "20",
                        "--dt-list", "20,10", "--out", os.devnull, "--convergence-out", os.devnull]) == 0

    def test_unusable_second_path_keeps_an_older_first_file(self, default_config, tmp_path, capsys):
        # opened in place, the older --out got no line before the convergence path failed to open
        out = tmp_path / "out.csv"
        out.write_bytes(b"older\n")
        assert_one_line_config_error(["oracle", "--config", default_config, "--out", str(out),
                                      "--convergence-out", str(tmp_path / "missing" / "c.csv")], capsys)
        assert out.read_bytes() == b"older\n"

    def test_convergence_table_does_not_depend_on_dt(self, default_config, tmp_path):
        # the table's RK4 runs take the rates in fs^-1: --dt-fs, the trajectory's step, does not round them
        tables = []
        for dt in ("3", "10"):
            conv_out = tmp_path / f"conv{dt}.csv"
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                assert run_cli(["oracle", "--config", default_config, "--steps", "2", "--dt-fs", dt,
                                "--out", str(tmp_path / "traj.csv"), "--convergence-out", str(conv_out)]) == 0
            tables.append([line for line in conv_out.read_text().splitlines() if not line.startswith("# config")])
        assert tables[0] == tables[1]


# no coupling and no jumps, so no jump probability bounds dt; the RK4 step of the oracle's trajectory
# at 10 fs is fine enough not to warn (its ||dt L|| bound is 0.019)
STILL_MODEL = {"site_energies_cm1": [0.0, 10.0], "couplings_cm1": [[0.0, 0.0], [0.0, 0.0]], "sink_sites": [2],
               "bath": {"rates_per_fs": [[0.0, 0.0], [0.0, 0.0]]}}


class TestNonFiniteSteps:
    """A U or T past the float range is rejected where it is built: one line, exit 2, no numpy warning
    (a warning is an error here), and no nan row."""

    @pytest.mark.parametrize("argv, built", [
        (["simulate", "--dt-fs", "1e308", "--steps", "2"], "the step unitary at dt 1e+308 fs"),
        (["simulate", "--dt-fs", "1e308", "--steps", "2", "--backend", "circuit"], "the step unitary at dt 1e+308"),
        (["oracle", "--steps", "1", "--t-final", "1e300", "--dt-list", "1e300"], "the RK4 step at dt 1e+299 fs"),
        # 1e300 fs times a scaling of 1e10 is inf
        (["circuit-verify", "--dt-fs", "1e300", "--scalings", "1,1e10"], "exp(-i H dt / hbar) at dt inf fs"),
        # a finite RK4 step of 1e4 fs whose 100th power overflows; the step's coarseness warns first
        (["oracle", "--steps", "1", "--t-final", "1e6", "--dt-list", "1e5"], "the RK4 reference at 1000000.0 fs"),
    ], ids=["simulate", "simulate-circuit", "oracle", "circuit-verify", "oracle-reference"])
    def test_is_one_line_exit_2(self, argv, built, tmp_path, capsys):
        model = tmp_path / "still.json"
        model.write_text(json.dumps(STILL_MODEL))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli([argv[0], "--config", str(model), *argv[1:]]) == 2
        assert all(w.category is StepTooLargeWarning for w in caught)  # no numpy warning
        out, err = capsys.readouterr()
        assert len(err.splitlines()) == 1 and err.startswith(f"numerical invariant violated: {built}")
        assert "is not finite" in err and "nan" not in out

    def test_state_past_the_float_range_fails_its_check(self, tmp_path, capsys):
        # the RK4 step at 1e30 fs is finite, but T^4 overflows in the warm-up: states 4..7 are nan
        model = tmp_path / "still.json"
        model.write_text(json.dumps(STILL_MODEL))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["simulate", "--config", str(model), "--backend", "lindblad-oracle", "--dt-fs", "1e30",
                            "--steps", "40"]) == 2
        assert [w.category for w in caught] == [StepTooLargeWarning]  # no numpy warning
        out, err = capsys.readouterr()
        assert err == ("numerical invariant violated: state invalid at step 4: min eigenvalue nan, "
                       "hermiticity defect nan (tolerance 1.0e-06)\n")
        assert "nan" not in out

    @pytest.mark.parametrize("command", ["simulate", "oracle"])
    def test_time_column_past_the_float_range_is_a_config_error(self, command, tmp_path, capsys):
        # a site energy of 5e-324 cm^-1 keeps U finite at 1e308 fs, but step 2 would print t = inf
        model = tmp_path / "still.json"
        model.write_text(json.dumps({**STILL_MODEL, "site_energies_cm1": [0.0, 5e-324]}))
        out = tmp_path / "t.csv"
        assert run_cli([command, "--config", str(model), "--dt-fs", "1e308", "--steps", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --steps 2 x --dt-fs 1e+308 fs is past the float range\n"
        assert not out.exists()
        assert run_cli([command, "--config", str(model), "--dt-fs", "1e308", "--steps", "1", "--out", str(out)]) == 0


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

    def test_oversized_scaling_names_the_state_in_one_short_line(self, default_config, capsys):
        # the row sum is about 1e307: it prints as a float repr, not as 300 fixed-point digits
        assert run_cli(["circuit-verify", "--config", default_config, "--scalings", "1e308",
                        "--out", os.devnull]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and len(err[0]) <= 160, err
        assert re.match(r"numerical invariant violated: jump probability out of state \d+ sums to "
                        r"\S+ > 1; use a smaller time step$", err[0]), err

    def test_failed_certificate_is_one_numerical_error_line(self, default_config, tmp_path, monkeypatch,
                                                             capsys):
        reference = circuit.sequential_kraus_step
        monkeypatch.setattr(circuit, "sequential_kraus_step",
                            lambda *args: reference(*args) * (1 + 1e-6))  # a Choi distance of about 6.6e-6
        out = tmp_path / "verify.csv"
        assert run_cli(["circuit-verify", "--config", default_config, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.match(r"numerical invariant violated: circuit/operator-model Choi "
                                          r"distance \S+ exceeds 1e-10$", err[0]), err
        assert not out.exists()

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
    # transfer_efficiency would count the site twice
    "sink-duplicate": lambda m: m.update(sink_sites=[3, 3]),
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
    # a sweep steps every chi's trajectory, so its work is len(chis) x steps states
    "sweep-above-max": ["sweep-chi", "--chis", "0,1", "--steps", str(cli.MAX_STEPS // 2 + 1)],
    "sweep-no-chi": ["sweep-chi", "--chis", ","],
}
TAKES_STEPS = ("simulate", "oracle", "sweep-chi")

# one bad value per option that has a rule of its own
BAD_OPTIONS = {
    "dt-fs": ["simulate", "--dt-fs", "nan"],
    "steps": ["simulate", "--steps", "0"],
    "chi": ["simulate", "--chi", "1.5"],
    "temperature": ["simulate", "--temperature", "-1"],
    "chis": ["sweep-chi", "--chis", ""],
    "t-final": ["oracle", "--t-final", "inf"],
    "dt-list": ["oracle", "--dt-list", "0"],
    "scalings": ["circuit-verify", "--scalings", "nan"],
    "dims": ["gatecount", "--dims", "65"],
}

DIMS_CASES = ["2.5", "nan", "inf", "3,-2", "2,65", ","]

# paths a run cannot read or write: (option, what the path is)
PATH_CASES = {
    "config-directory": ("--config", "directory"),
    "config-unreadable": ("--config", "no-permission"),
    "out-missing-directory": ("--out", "missing-directory"),
    "out-directory": ("--out", "directory"),
    "out-unwritable-directory": ("--out", "no-permission"),
    "convergence-out-missing-directory": ("--convergence-out", "missing-directory"),
    "convergence-out-directory": ("--convergence-out", "directory"),
}


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
        model = json.loads(Path(default_config).read_text())
        edit(model)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(model))
        for temperature in (["--temperature", "300"], []):
            err = assert_one_line_config_error(["simulate", "--config", str(path), *temperature,
                                                "--steps", "2", "--out", str(tmp_path / "t.csv")], capsys)
            assert str(path) in err  # a load-time failure names the file

    def test_model_file_not_utf8(self, default_config, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(Path(default_config).read_bytes().replace(b'"bath"', b'"b\xffath"'))
        err = assert_one_line_config_error(["simulate", "--config", str(path), "--steps", "2",
                                            "--out", str(tmp_path / "t.csv")], capsys)
        assert str(path) in err and "UTF-8" in err

    @pytest.mark.parametrize("text", ["3", "null", '"site_energies_cm1"', '["site_energies_cm1"]', "[1, 2]"],
                             ids=["number", "null", "string", "array-of-a-field-name", "array"])
    def test_top_level_not_an_object(self, text, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(text)
        err = assert_one_line_config_error(["simulate", "--config", str(path)], capsys)
        assert err == f"error: {path}: the top level must be a JSON object\n"

    @pytest.mark.parametrize("command", ["simulate", "sweep-chi", "oracle", "circuit-verify"])
    def test_too_many_sites_fail_before_any_step_map(self, command, tmp_path, capsys):
        # a step map holds d^4 complex entries: 19 MB at d = MAX_SITES + 1, rejected on load
        d = fmo.MAX_SITES + 1
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"site_energies_cm1": [0.0] * d, "couplings_cm1": np.zeros((d, d)).tolist(),
                                    "sink_sites": [1], "bath": {"lambda_cm1": 35.0, "omega_c_cm1": 150.0}}))
        tracemalloc.start()
        try:
            err = assert_one_line_config_error([command, "--config", str(path)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err == f"error: {path}: {d} sites, more than the {fmo.MAX_SITES} a model may have\n"
        assert peak < d ** 4 * 16 / 10

    def test_max_sites_loads(self, tmp_path):
        d = fmo.MAX_SITES
        path = tmp_path / "largest.json"
        path.write_text(json.dumps({"site_energies_cm1": [0.0] * d, "couplings_cm1": np.zeros((d, d)).tolist(),
                                    "sink_sites": [1], "bath": {"lambda_cm1": 35.0, "omega_c_cm1": 150.0}}))
        assert fmo.load_model(path).hamiltonian.n_sites == d

    @pytest.mark.parametrize("args", ARG_CASES.values(), ids=ARG_CASES.keys())
    def test_run_arguments(self, args, default_config, tmp_path, capsys):
        steps = ["--steps", "2"] if args[0] in TAKES_STEPS and "--steps" not in args else []
        argv = [args[0], "--config", default_config, *args[1:], *steps, "--out", str(tmp_path / "t.csv")]
        assert_one_line_config_error(argv, capsys)

    @pytest.mark.parametrize("args", BAD_OPTIONS.values(), ids=BAD_OPTIONS.keys())
    def test_bad_option_fails_before_the_model_is_read(self, args, capsys):
        # the option's own error, not the missing model file's (gatecount reads no model)
        err = assert_one_line_config_error(args + ([] if args[0] == "gatecount" else ["--config", "/missing.json"]),
                                           capsys)
        assert err.startswith(f"error: argument {args[1]}: ")

    @pytest.mark.parametrize("dims", DIMS_CASES)
    def test_gatecount_dims(self, dims, capsys):
        assert_one_line_config_error(["gatecount", "--dims", dims], capsys)

    @pytest.mark.parametrize("flag, kind", PATH_CASES.values(), ids=PATH_CASES.keys())
    def test_unusable_path(self, flag, kind, default_config, tmp_path, capsys):
        path = {"directory": tmp_path, "missing-directory": tmp_path / "missing" / "t.csv"}.get(kind)
        if kind == "no-permission":
            if os.geteuid() == 0:
                pytest.skip("permissions do not bind root")
            path = tmp_path / "locked" / ("model.json" if flag == "--config" else "t.csv")
            path.parent.mkdir()
            if flag == "--config":
                path.write_bytes(Path(default_config).read_bytes())
                path.chmod(0)
            else:
                path.parent.chmod(0o500)
        # oracle takes all three paths, and checks them before it builds its RK4 step, which
        # warns at the default 10 fs
        argv = ["oracle", "--config", default_config, "--steps", "2", "--t-final", "20",
                "--dt-list", "20,10", "--out", str(tmp_path / "t.csv"), flag, str(path)]
        err = assert_one_line_config_error(argv, capsys)
        assert str(path) in err
        if flag == "--convergence-out":  # both paths are opened before any stepping; the failed run leaves neither
            assert not (tmp_path / "t.csv").exists()


def test_closed_stdout_ends_in_one_line(default_config, tmp_path):
    # the reader closes the pipe after the first line: stepping stops, and the run exits 1
    # with one stderr line, with no traceback and no failed flush at interpreter shutdown
    env = dict(os.environ, PYTHONPATH=str(Path(enaqt.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "enaqt.cli", "simulate", "--config", default_config,
                             "--steps", "100000"], cwd=tmp_path, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith("# enaqt ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err.splitlines() == ["error: cannot write stdout: Broken pipe"]


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


def test_parser_is_shared_across_calls(default_config, tmp_path, capsys):
    # a call that fails to parse leaves nothing behind for the next one
    assert cli.build_parser() is cli.build_parser()
    assert run_cli(["simulate", "--config", default_config, "--steps", "7", "--bogus"]) == 1
    assert capsys.readouterr().err.startswith("error: unrecognized arguments: --bogus")
    out = tmp_path / "t.csv"
    assert run_cli(["simulate", "--config", default_config, "--out", str(out)]) == 0
    meta, _, rows = read_rows(out)
    assert len(rows) == cli.build_parser().parse_args(["simulate", "--config", default_config]).steps + 1
    assert '"steps":400' in meta[1]


def test_package_exports_only_its_version():
    # every name is imported from its module; loaded submodules appear as package attributes
    assert enaqt.__version__ == "0.1.0"
    assert not [name for name, value in vars(enaqt).items()
                if not name.startswith("__") and not isinstance(value, type(enaqt))]
