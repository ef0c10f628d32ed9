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
import functools
import hashlib
import itertools
import json
import math
import os
import stat
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import __version__, circuit, fmo, kernel, lindblad
from .errors import ConfigError, EnaqtError, NumericalError, StateInvalidError
from .linalg import frob_dist, successive_ratios, superoperator

BACKENDS = ("operator", "circuit", "lindblad-oracle")
MAX_GATECOUNT_DIM = 64  # building a step circuit costs ~d^2 gates: 64 runs in a fraction of a second
MAX_STEPS = 10_000_000  # states one command may step: memory stays flat, so this bounds time (1e7 rows ~2.5 min)
# (a sweep steps one trajectory per chi, so it counts len(chis) x steps)


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


def _run_fields(run) -> dict:
    """The RunConfig fields `run` carries; parsed arguments carry those their subcommand registers."""
    return {f.name: getattr(run, f.name) for f in fields(RunConfig) if hasattr(run, f.name)}


def _config_lines(run, model: fmo.FmoModel, extra: dict) -> list:
    """Header lines echoing the run fields of `run` (parsed arguments or a RunConfig) plus `extra`.

    The model hash is that of the file bytes `model` was parsed from, read once by load_model.
    """
    payload = _run_fields(run)
    payload.update(extra)
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode()).hexdigest()
    return [
        f"# enaqt {__version__}",
        f"# config: {canon}",
        f"# config_sha256: {digest}",
        f"# model_sha256: {model.sha256}",
    ]


def _distance_table(header: str, rows) -> list:
    """An `x,distance` table of (x, distance) rows under `header`, closed by their successive ratios."""
    lines = [header]
    lines.extend(f"{_fmt(x)},{_fmt(dist)}" for x, dist in rows)
    lines.append("# successive_ratios: " + ",".join(_fmt(r) for r in successive_ratios(rows)))
    return lines


def _emit(*outputs):
    """Write each (lines, out_path) pair in turn, each line as `lines` yields it, to out_path or stdout.

    Every out_path is opened before the first line is asked for. A regular file is written
    in place, not truncated on open (on ext4, truncating a file whose old contents are still
    dirty flushes them), and trimmed after its last line. Not atomic: a run killed mid-write
    leaves the new head and the old tail; after a power loss the file may hold any mix of old
    and new blocks at either length (ext4's auto_da_alloc guard for a truncate-and-rewrite
    does not apply). If a `lines` raises, the rows already printed stay on stdout, and every
    out_path file that this run created or handed a line is removed (a regular file only:
    never a device such as /dev/null); a file that existed before and got no line is kept.
    An OSError while opening or writing (a missing directory, a closed pipe) is a ConfigError
    naming the path, and stops the iteration of `lines`.
    """
    streams = []  # one per output opened so far
    untouched = {path for _, path in outputs if path and os.path.exists(path)}  # older files, kept until a line reaches them
    try:
        for _, current in outputs:
            streams.append(open(current, "w", opener=lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666))
                           if current else sys.stdout)
        for (lines, current), stream in zip(outputs, streams):
            text = (f"{line}\n" for line in lines)
            first = next(text, "")  # from here the file is this run's: it gets a line or its trim
            untouched.discard(current)
            stream.write(first)
            stream.writelines(text)
            if current:
                if stat.S_ISREG(os.fstat(stream.fileno()).st_mode):  # ftruncate fails on /dev/null and pipes
                    stream.truncate()
                stream.close()
    except BaseException as exc:
        for (_, out_path), stream in zip(outputs, streams):
            if out_path:
                with contextlib.suppress(OSError):  # a failed flush: the file goes anyway
                    stream.close()
                if os.path.isfile(out_path) and out_path not in untouched:
                    os.remove(out_path)
        if not isinstance(exc, OSError):
            raise
        if not current:  # the interpreter's last flush of stdout goes to /dev/null, not to a closed pipe
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise ConfigError(f"cannot write {current or 'stdout'}: {exc.strerror or exc}") from exc


def _step_model(cfg: RunConfig) -> fmo.StepModel:
    """The run's step model, built once its model file is read and `cfg` checked against it."""
    model = fmo.load_model(cfg.model)
    cfg.validate(model.hamiltonian.n_sites)
    return fmo.StepModel(model, cfg.dt_fs, cfg.temperature_k)


def _trajectory(cfg: RunConfig, step_model: fmo.StepModel):
    """The run's checked chunks (see kernel.chunks), stepped as they are read; T is built at the first."""
    yield from kernel.chunks(step_model.transfer_matrix(cfg.chi, cfg.backend),
                             step_model.initial_state(cfg.initial_site), cfg.steps, step_model.observers)


def _trajectory_csv(run, model: fmo.FmoModel, chunks):
    """The trajectory CSV of `chunks` (see kernel.chunks), each chunk formatted as it arrives."""
    lines = _config_lines(run, model, {"command": "simulate"})
    header = ["t_fs"] + [f"site{m}" for m in range(1, model.hamiltonian.n_sites + 1)] + ["trace", "min_eig"]
    lines.append(",".join(header))
    row = ",".join(["%.17g"] * len(header))  # the same bytes as _fmt per value
    blocks = (np.column_stack([np.arange(start, start + len(trace)) * run.dt_fs, pops, trace, min_eig]).tolist()
              for start, pops, trace, min_eig in chunks)
    return itertools.chain(lines, (row % tuple(r) for block in blocks for r in block))


def cmd_simulate(args) -> int:
    cfg = _run_config(args)
    step_model = _step_model(cfg)
    _emit((_trajectory_csv(args, step_model.model, _trajectory(cfg, step_model)), args.out))
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
    # both files are open at once, so one regular file for both (a hard link too) would interleave them
    out, conv = args.out, args.convergence_out
    if out and conv and (os.path.samefile(out, conv) if os.path.isfile(out) and os.path.exists(conv) else
                         not os.path.exists(out) and os.path.realpath(out) == os.path.realpath(conv)):
        raise ConfigError(f"--out and --convergence-out are the same file {out}")
    step_model = _step_model(cfg)
    _emit((_trajectory_csv(args, step_model.model, _trajectory(cfg, step_model)), args.out),
          (_convergence_csv(args, step_model, t_final, dt_list), args.convergence_out))
    return 0


def _convergence_csv(args, step_model: fmo.StepModel, t_final: float, dt_list: list):
    """The oracle's convergence table; its RK4 runs start when its first line is asked for."""
    rows = lindblad.convergence_report(lindblad.LindbladModel(step_model.h_exciton, step_model.rates_per_fs),
                                       step_model.initial_state(args.initial_site), t_final, dt_list)
    yield from _config_lines(args, step_model.model, {"command": "oracle", "t_final_fs": t_final, "dt_list": dt_list})
    yield from _distance_table("dt_fs,frobenius_distance", rows)


def cmd_sweep_chi(args) -> int:
    cfg = _run_config(args)
    chis = _parse_floats(args.chis)
    if not chis:
        raise ConfigError("--chis needs at least one value")
    for c in chis:
        if not 0.0 <= c <= 1.0:
            raise ConfigError(f"chi values must lie in [0, 1], got {c}")
    if len(chis) * cfg.steps > MAX_STEPS:
        raise ConfigError(f"a sweep steps {len(chis)} chi values x {cfg.steps} steps, "
                          f"more than the {MAX_STEPS} states one command may step")
    step_model = _step_model(cfg)
    rho0, sinks = step_model.initial_state(cfg.initial_site), step_model.model.sink_sites
    lines = _config_lines(args, step_model.model, {"command": "sweep-chi", "chis": chis})
    lines.append("chi,efficiency")
    # one chi at a time, so memory does not grow with len(chis); efficiencies print no
    # min_eig, so a certified step map runs unchecked, and only the last row is kept
    for member, c in enumerate(chis):
        try:
            for _, populations, _, _ in kernel.chunks(step_model.transfer_matrix(c, cfg.backend), rho0, cfg.steps,
                                                      step_model.observers, record_min_eig=False):
                final = populations[-1]
        except StateInvalidError as exc:
            raise StateInvalidError(f"member {member} (chi {c!r}): {exc}") from exc
        lines.append(f"{_fmt(c)},{_fmt(fmo.transfer_efficiency(final, sinks))}")
    _emit((lines, args.out))
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
    _emit((lines, args.out))
    return 0


def cmd_circuit_verify(args) -> int:
    cfg = _run_config(args)
    scalings = _positive_floats(args.scalings, "--scalings")
    step_model = _step_model(cfg)
    t_seq = superoperator(  # the Kraus reference
        lambda basis: circuit.sequential_kraus_step(basis, step_model.rates, step_model.unitary), step_model.basis.dim)
    equiv = frob_dist(circuit.choi_from_transfer(step_model.circuit_t), circuit.choi_from_transfer(t_seq))
    if equiv > 1e-10:
        raise NumericalError(f"circuit/operator-model Choi distance {equiv:.3e} exceeds 1e-10")

    rows = circuit.compare_step_channels(step_model.rates, step_model.h_exciton, cfg.dt_fs, scalings,
                                         step_model.circuit_t)
    lines = _config_lines(args, step_model.model, {"command": "circuit-verify", "scalings": scalings})
    lines.append(f"# choi_distance_circuit_vs_operator_model: {_fmt(equiv)}")
    lines.extend(_distance_table("scale,choi_distance_vs_step_map", rows))
    _emit((lines, args.out))
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


@functools.cache  # one parser per process: it holds no state between parses
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="enaqt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"enaqt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trajectory, emit CSV")
    _add_run_options(p)

    p = sub.add_parser("oracle", help="RK4 reference run plus convergence table")
    _add_run_options(p, omit=("--chi", "--backend"))
    p.add_argument("--dt-list", default="20,10,5", dest="dt_list")
    p.add_argument("--t-final", type=float, default=2000.0, dest="t_final")
    p.add_argument("--convergence-out", default=None, dest="convergence_out")
    # its trajectory file is the simulate run of this backend
    p.set_defaults(backend="lindblad-oracle")

    p = sub.add_parser("sweep-chi", help="efficiency vs chi")
    _add_run_options(p, omit=("--chi",))
    p.add_argument("--chis", default="0.0,0.06,0.5,1.0")

    p = sub.add_parser("gatecount", help="circuit complexity per step")
    p.add_argument("--dims", default="2,3,4,5,6,7,8")
    p.add_argument("--out", default=None)

    p = sub.add_parser("circuit-verify", help="channel equivalence certificates")
    _add_run_options(p, omit=("--initial-site", "--steps", "--chi", "--backend"))
    p.add_argument("--scalings", default="1.0,0.5,0.25")
    return parser


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    # a shown warning is one stderr line; callers that record warnings still get them. Entering
    # catch_warnings resets Python's once-per-location registries, so every run shows its warnings
    formatwarning, warnings.formatwarning = warnings.formatwarning, _one_line_warning
    try:
        with warnings.catch_warnings():
            args = parser.parse_args(argv)
            # looked up by name per call: the memoized parser outlives any rebinding of a handler
            return globals()["cmd_" + args.command.replace("-", "_")](args)
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
