"""Command-line driver: config ingestion, simulation, report emission.

Subcommands:

- simulate       one trajectory (operator, circuit, or lindblad-oracle
                 backend), CSV with per-site populations.
- oracle         RK4 reference trajectory plus a discrete-vs-oracle
                 convergence table.
- sweep-chi      transfer efficiency at the final time for a list of chi.
- gatecount      jump/gate/qubit counts for one compiled step, dims 2..64
                 (default 2..8).
- circuit-verify Choi-matrix equivalence of the compiled step against the
                 operator model, plus the scaling of its distance to the
                 one-shot step map.

All outputs are deterministic for identical inputs: every run echoes its
resolved configuration (and hashes) into `#`-prefixed header lines, floats
are printed with repr-exact precision, and nothing in the pipeline draws
random numbers. Exit codes: 0 ok, 1 configuration error, 2 numerical
invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, circuit, fmo, kernel, lindblad
from .errors import ConfigError, EnaqtError, NumericalError
from .linalg import HBAR_CM1_FS, frob_dist, successive_ratios

BACKENDS = ("operator", "circuit", "lindblad-oracle")
MAX_GATECOUNT_DIM = 64  # building a step circuit costs ~d^2 gates: 64 runs in a fraction of a second
MAX_STEPS = 10_000_000  # a trajectory records 10 float64 columns per step at 7 sites: ~0.8 GB here


@dataclass
class RunConfig:
    """Resolved run parameters (model path plus CLI overrides)."""

    model: str
    initial_site: int = 1
    dt_fs: float = 10.0
    steps: int = 400
    chi: float = 1.0
    temperature_k: float | None = None
    backend: str = "operator"

    def validate(self, n_sites: int):
        if not 1 <= self.initial_site <= n_sites:
            raise ConfigError(f"initial site must be in 1..{n_sites}, got {self.initial_site}")
        if not 0.0 <= self.chi <= 1.0:
            raise ConfigError(f"chi must lie in [0, 1], got {self.chi}")
        if not 1 <= self.steps <= MAX_STEPS:
            raise ConfigError(f"steps must be in 1..{MAX_STEPS}, got {self.steps}")
        if not 0 < self.dt_fs < math.inf:
            raise ConfigError(f"dt must be finite and positive, got {self.dt_fs}")
        if self.temperature_k is not None and not 0 < self.temperature_k < math.inf:
            raise ConfigError(f"temperature must be finite and positive, got {self.temperature_k}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}, got {self.backend!r}")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _sha256_file(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run_fields(run) -> dict:
    """The RunConfig fields `run` carries; parsed arguments carry those their subcommand registers."""
    return {f.name: getattr(run, f.name) for f in fields(RunConfig) if hasattr(run, f.name)}


def _config_lines(run, extra: dict) -> list:
    """Header lines echoing the run fields of `run` (parsed arguments or a RunConfig) plus `extra`."""
    payload = _run_fields(run)
    payload.update(extra)
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode()).hexdigest()
    return [
        f"# enaqt {__version__}",
        f"# config: {canon}",
        f"# config_sha256: {digest}",
        f"# model_sha256: {_sha256_file(run.model)}",
    ]


def _distance_table(header: str, rows) -> list:
    """An `x,distance` table of (x, distance) rows under `header`, closed by their successive ratios."""
    lines = [header]
    lines.extend(f"{_fmt(x)},{_fmt(dist)}" for x, dist in rows)
    lines.append("# successive_ratios: " + ",".join(_fmt(r) for r in successive_ratios(rows)))
    return lines


def _emit(lines, out_path: str | None):
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(f"{line}\n" for line in lines)


class _Runner:
    """Shared setup for commands that evolve the shipped model."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.model = fmo.load_model(cfg.model)
        cfg.validate(self.model.hamiltonian.n_sites)
        self.h_site = fmo.site_hamiltonian(self.model.hamiltonian)
        self.basis = fmo.exciton_basis(self.h_site)
        self.rates = fmo.jump_rates(self.basis, self.model, cfg.dt_fs, cfg.temperature_k)
        self.h_exciton = np.diag(self.basis.energies_cm1).astype(complex)
        self.unitary = np.diag(
            np.exp(-1j * self.basis.energies_cm1 * cfg.dt_fs / HBAR_CM1_FS)
        )
        self.observers = self.basis.site_projectors()
        self.circuit_t = None  # the circuit backend's full step, built once per run
        if cfg.backend == "circuit":
            self.circuit_t = circuit.circuit_transfer_matrix(circuit.build_step_circuit(self.rates, self.unitary))

    def initial_state(self) -> np.ndarray:
        site = self.cfg.initial_site
        rho = np.zeros((self.basis.dim, self.basis.dim), dtype=complex)
        rho[site - 1, site - 1] = 1.0
        return self.basis.to_exciton(rho)

    def trajectory(self, chi: float | None = None) -> kernel.Trajectory:
        cfg = self.cfg
        chi = cfg.chi if chi is None else chi
        rho0 = self.initial_state()
        if cfg.backend == "lindblad-oracle":
            # chi scales the dissipator linearly, so the continuum counterpart of
            # the blended step is the master equation with rates chi * Gamma
            model = lindblad.LindbladModel(self.h_exciton, chi * self.rates.gamma / cfg.dt_fs)
            return lindblad.rk4_integrate(rho0, model, cfg.dt_fs, cfg.steps, self.observers)
        ops = kernel.build_evolution_operators(self.rates, self.unitary)
        t = kernel.step_transfer_matrix(ops, chi, self.circuit_t)
        return kernel.propagate(t, rho0, cfg.dt_fs, cfg.steps, self.observers)


def _trajectory_csv(run, traj: kernel.Trajectory, n_sites: int):
    lines = _config_lines(run, {"command": "simulate"})
    header = ["t_fs"] + [f"site{m}" for m in range(1, n_sites + 1)] + ["trace", "min_eig"]
    lines.append(",".join(header))
    row = ",".join(["%.17g"] * len(header))  # the same bytes as _fmt per value
    table = (traj.times, traj.populations, traj.trace, traj.min_eig)
    blocks = (np.column_stack([col[k:k + kernel.CHUNK] for col in table]).tolist()
              for k in range(0, len(traj.times), kernel.CHUNK))
    return itertools.chain(lines, (row % tuple(r) for block in blocks for r in block))


def cmd_simulate(args) -> int:
    cfg = _run_config(args)
    runner = _Runner(cfg)
    traj = runner.trajectory()
    _emit(_trajectory_csv(args, traj, runner.model.hamiltonian.n_sites), args.out)
    return 0


def cmd_oracle(args) -> int:
    cfg = _run_config(args)
    dt_list = _positive_floats(args.dt_list, "--dt-list")
    t_final = args.t_final
    if not 0 < t_final < math.inf:
        raise ConfigError(f"--t-final must be finite and positive, got {t_final}")
    for dt in dt_list:
        n = t_final / dt
        if not (n < math.inf and abs(n - round(n)) <= 1e-9):
            raise ConfigError(f"--dt-list value {dt} fs does not divide --t-final {t_final} fs")
    runner = _Runner(cfg)
    traj = runner.trajectory()
    _emit(_trajectory_csv(args, traj, runner.model.hamiltonian.n_sites), args.out)

    model = lindblad.LindbladModel(runner.h_exciton, runner.rates.gamma / cfg.dt_fs)
    rows = lindblad.convergence_report(model, runner.initial_state(), t_final, dt_list)
    lines = _config_lines(args, {"command": "oracle", "t_final_fs": t_final, "dt_list": dt_list})
    lines.extend(_distance_table("dt_fs,frobenius_distance", rows))
    _emit(lines, args.convergence_out)
    return 0


def cmd_sweep_chi(args) -> int:
    cfg = _run_config(args)
    runner = _Runner(cfg)
    chis = _parse_floats(args.chis)
    for c in chis:
        if not 0.0 <= c <= 1.0:
            raise ConfigError(f"chi values must lie in [0, 1], got {c}")
    lines = _config_lines(args, {"command": "sweep-chi", "chis": chis})
    lines.append("chi,efficiency")
    for c in chis:
        traj = runner.trajectory(chi=c)
        eff = fmo.transfer_efficiency(traj, runner.model.sink_sites)
        lines.append(f"{_fmt(c)},{_fmt(eff)}")
    _emit(lines, args.out)
    return 0


def cmd_gatecount(args) -> int:
    dims = _parse_floats(args.dims)
    for d in dims:
        if not (2 <= d <= MAX_GATECOUNT_DIM and float(d).is_integer()):
            raise ConfigError(f"gate counting needs integer dims in 2..{MAX_GATECOUNT_DIM}, got {d}")
    lines = [f"# enaqt {__version__}"]
    lines.append("dim,jumps,per_jump_gates,jump_gates_total,coherent_gates,qubits")
    for d in map(int, dims):
        rates = kernel.JumpRateSpec(np.zeros((d, d)))
        gates = circuit.build_step_circuit(rates, np.eye(d, dtype=complex))
        rep = circuit.gate_count(gates)
        lines.append(
            f"{d},{rep.jumps},{rep.per_jump_elementary},"
            f"{rep.jump_elementary_total},{rep.coherent_gates},{rep.qubits}"
        )
    _emit(lines, args.out)
    return 0


def cmd_circuit_verify(args) -> int:
    cfg = _run_config(args)
    scalings = _positive_floats(args.scalings, "--scalings")
    runner = _Runner(cfg)
    t_circuit = circuit.circuit_transfer_matrix(circuit.build_step_circuit(runner.rates, runner.unitary))
    t_seq = circuit.channel_transfer_matrix(  # the Kraus reference, on one stack of basis elements
        lambda basis: circuit.sequential_kraus_step(basis, runner.rates, runner.unitary),
        runner.basis.dim, 1)
    equiv = frob_dist(circuit.choi_from_transfer(t_circuit), circuit.choi_from_transfer(t_seq))

    rows = circuit.compare_step_channels(runner.rates, runner.h_exciton, cfg.dt_fs, scalings, t_circuit)
    lines = _config_lines(args, {"command": "circuit-verify", "scalings": scalings})
    lines.append(f"# choi_distance_circuit_vs_operator_model: {_fmt(equiv)}")
    lines.extend(_distance_table("scale,choi_distance_vs_step_map", rows))
    _emit(lines, args.out)
    if equiv > 1e-10:
        print(
            f"circuit/operator-model Choi distance {equiv:.3e} exceeds 1e-10",
            file=sys.stderr,
        )
        return 2
    return 0


def _parse_floats(text: str) -> list:
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse list {text!r}: {exc}") from exc


def _positive_floats(text: str, flag: str) -> list:
    values = _parse_floats(text)
    if not values or not all(0 < v < math.inf for v in values):
        raise ConfigError(f"{flag} needs finite positive values, got {text!r}")
    return values


def _run_config(args) -> RunConfig:
    """The run's RunConfig; a field whose option the subcommand does not take keeps its default."""
    return RunConfig(**_run_fields(args))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: sweep-chi would otherwise read --chi as its --chis
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


RUN_OPTIONS = {
    "--config": dict(required=True, dest="model", help="model JSON file"),
    "--initial-site": dict(type=int, dest="initial_site"),
    "--dt-fs": dict(type=float, dest="dt_fs"),
    "--steps": dict(type=int, dest="steps"),
    "--chi": dict(type=float, dest="chi"),
    "--temperature": dict(type=float, dest="temperature_k",
                          help="generate rates from the Ohmic bath at this temperature (K)"),
    "--out": dict(dest="out", help="output path (default: stdout)"),
    "--backend": dict(choices=BACKENDS, dest="backend"),
}


def _add_run_options(p, omit=()):
    """Register the run options the subcommand reads (all but `omit`), at their RunConfig defaults."""
    for flag, kwargs in RUN_OPTIONS.items():
        if flag not in omit:
            p.add_argument(flag, default=getattr(RunConfig, kwargs["dest"], None), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="enaqt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"enaqt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trajectory, emit CSV")
    _add_run_options(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="RK4 reference run plus convergence table")
    _add_run_options(p, omit=("--chi", "--backend"))
    p.add_argument("--dt-list", default="20,10,5", dest="dt_list")
    p.add_argument("--t-final", type=float, default=2000.0, dest="t_final")
    p.add_argument("--convergence-out", default=None, dest="convergence_out")
    # its trajectory file is the simulate run of this backend
    p.set_defaults(func=cmd_oracle, backend="lindblad-oracle")

    p = sub.add_parser("sweep-chi", help="efficiency vs chi")
    _add_run_options(p, omit=("--chi",))
    p.add_argument("--chis", default="0.0,0.06,0.5,1.0")
    p.set_defaults(func=cmd_sweep_chi)

    p = sub.add_parser("gatecount", help="circuit complexity per step")
    p.add_argument("--dims", default="2,3,4,5,6,7,8")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gatecount)

    p = sub.add_parser("circuit-verify", help="channel equivalence certificates")
    _add_run_options(p, omit=("--initial-site", "--steps", "--chi", "--backend"))
    p.add_argument("--scalings", default="1.0,0.5,0.25")
    p.set_defaults(func=cmd_circuit_verify)
    return parser


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    # a shown warning is one stderr line; callers that record warnings still get them
    formatwarning, warnings.formatwarning = warnings.formatwarning, _one_line_warning
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 2
    except EnaqtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
