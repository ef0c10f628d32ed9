"""Self-tests of the benchmark: tracer counts, seeded inputs, output checks, CLI.

    python3 -m pytest -q bench/test_bench.py

Not part of the package's test suite (pytest's testpaths is `tests/`); they
run whole workload passes and take about half a minute.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _digests(workload) -> list:
    return [hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for cmd in workload.commands for p in cmd.outputs]


def _traced(name, seed, workdir):
    """One untraced pass, then two traced ones; returns the workload and summaries."""
    cli, known_warning = child.import_enaqt()
    workload = workloads.build(name, seed, workdir)
    runner = child.PassRunner(cli, known_warning, workload)
    plain = runner.run_pass()
    assert plain["failures"] == []
    untraced_bytes = _digests(workload)
    summaries, passes = [], []
    for _ in range(2):
        with tracer.Tracer() as t:
            passes.append(runner.run_pass(tracer=t))
        summaries.append(t.summary())
        assert passes[-1]["failures"] == []
        assert _digests(workload) == untraced_bytes
    return workload, summaries, passes


def _calls(summary) -> dict:
    return {name: s["calls"] for name, s in summary.items()}


@pytest.fixture(scope="module")
def transport(tmp_path_factory):
    return _traced("transport", 1, tmp_path_factory.mktemp("transport"))


@pytest.fixture(scope="module")
def verify(tmp_path_factory):
    return _traced("verify", 1, tmp_path_factory.mktemp("verify"))


@pytest.fixture(scope="module")
def disorder(tmp_path_factory):
    return {seed: _traced("disorder", seed, tmp_path_factory.mktemp(f"disorder{seed}"))
            for seed in (1, 2)}


@pytest.mark.parametrize("name", ["transport", "verify"])
def test_two_traced_runs_give_identical_calls(name, request):
    _, summaries, _ = request.getfixturevalue(name)
    assert _calls(summaries[0]) == _calls(summaries[1])


def test_transport_closed_forms(transport):
    workload, (summary, _), _ = transport
    steps = sum(s for _, s in workloads.TRANSPORT_RUNS)
    steps += len(workloads.TRANSPORT_CHIS) * workloads.TRANSPORT_SWEEP_STEPS
    assert steps == 22_000
    calls = _calls(summary)
    assert calls["kernel.tunable_step"] == steps
    runs = len(workloads.TRANSPORT_RUNS) + len(workloads.TRANSPORT_CHIS)
    assert calls["kernel.evolve_trajectory"] == runs
    assert calls["kernel.build_evolution_operators"] == runs
    assert calls["fmo.transfer_efficiency"] == len(workloads.TRANSPORT_CHIS)
    assert calls["cli.main"] == calls["cli.build_parser"] == len(workload.commands)
    assert calls["lindblad.lindblad_rhs"] == calls["circuit.apply_circuit"] == 0


def test_verify_closed_forms(verify):
    _, (summary, _), passes = verify
    calls = _calls(summary)
    gates, basis, channel_builds = 85, 49, 5  # 42 jumps x 2 + 1 coherent; 7x7 inputs
    assert calls["circuit.gate_matrix"] == gates * basis * channel_builds == 20_825
    assert calls["circuit.apply_circuit"] == basis * channel_builds
    oracle_steps = int(workloads.VERIFY_T_FINAL_FS / (5 / 10))  # oracle_dt = min(dt)/10
    assert calls["lindblad.lindblad_rhs"] == 4 * (checks.DEFAULT_STEPS + oracle_steps) == 17_600
    assert calls["kernel.tunable_step"] == 0
    assert all(p["step_too_large_warnings"] == 1 for p in passes)


def test_disorder_seed_changes_inputs_not_counts(disorder):
    (w1, (s1, _), _), (w2, (s2, _), _) = disorder[1], disorder[2]
    assert w1.inputs_sha256() != w2.inputs_sha256()
    n = workloads.DISORDER_REALIZATIONS * len(workloads.DISORDER_TEMPERATURES_K) \
        * len(workloads.DISORDER_SITES)
    assert len(w1.commands) == len(w2.commands) == n == 128
    assert _calls(s1) == _calls(s2)
    calls = _calls(s1)
    assert calls["kernel.tunable_step"] == n * workloads.DISORDER_STEPS
    assert calls["fmo.thermal_rate_matrix"] == calls["linalg.eigh"] == n


def test_same_seed_gives_byte_identical_models(tmp_path):
    a = workloads.build("disorder", 7, tmp_path / "a")
    b = workloads.build("disorder", 7, tmp_path / "b")
    assert [Path(p).read_bytes() for p in a.inputs] == [Path(p).read_bytes() for p in b.inputs]
    assert a.inputs_sha256() == b.inputs_sha256()
    model = json.loads(Path(a.inputs[0]).read_text())
    assert "rates_per_fs" not in model["bath"] and model["provenance"]["seed"] == 7


def test_tracer_restores_every_binding():
    cli, _ = child.import_enaqt()
    import enaqt.circuit
    import enaqt.fmo
    import enaqt.linalg

    before = (enaqt.fmo.eigh, enaqt.linalg.eigh, enaqt.circuit.QubitLayout.n_system, cli.main)
    with tracer.Tracer():
        assert enaqt.fmo.eigh is enaqt.linalg.eigh is not before[1]
        assert enaqt.circuit.QubitLayout(7).n_system == 3
    assert (enaqt.fmo.eigh, enaqt.linalg.eigh, enaqt.circuit.QubitLayout.n_system, cli.main) == before


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.spans = [("cli.main", 0, 100, -1, 0), ("linalg.eigh", 10, 40, 0, 0),
               ("kernel.enaqt_step", 50, 60, 0, 0)]
    s = t.summary()
    assert s["cli.main"] == {"calls": 1, "s": 100e-9, "self_s": 60e-9}
    assert s["linalg.eigh"]["self_s"] == 30e-9


def _corrupt(path, old, new):
    text = Path(path).read_text()
    assert old in text
    Path(path).write_text(text.replace(old, new, 1))


def test_checks_catch_broken_outputs(transport, verify, tmp_path):
    (tw, _, _), (vw, _, _) = transport, verify
    traj, sweep, cv = (tmp_path / n for n in ("t.csv", "s.csv", "cv.csv"))
    shutil.copy(tw.commands[1].outputs[0], traj)
    shutil.copy(tw.commands[2].outputs[0], sweep)
    shutil.copy(vw.commands[0].outputs[0], cv)
    assert checks.trajectory(traj, 4000, 10.0) == []
    assert checks.trajectory(traj, 4001, 10.0) != []
    _corrupt(traj, "\n10,", "\n10.5,")
    assert checks.trajectory(traj, 4000, 10.0) != []

    reference = dict(checks.SWEEP_REFERENCE)
    assert checks.sweep(sweep, reference) == []
    reference[0.06] += 1e-8
    assert checks.sweep(sweep, reference) != []

    assert checks.circuit_verify(cv) == []
    key = "# choi_distance_circuit_vs_operator_model: "
    cv.write_text("".join(key + "1e-09\n" if line.startswith(key) else line
                          for line in cv.read_text().splitlines(keepends=True)))
    assert checks.circuit_verify(cv) != []


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_every_end_to_end_metric():
    proc = _run(BENCH.parent, "--workload", "disorder", "--seed", "3",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert "seed=3" in proc.stdout and "error_rate 0 " in proc.stdout


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
