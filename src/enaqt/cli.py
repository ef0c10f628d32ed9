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
random numbers. Each option's own rule is its argparse type, so a bad value
fails as it is parsed, before any file is read. Exit codes: 0 ok,
1 configuration error, 2 numerical invariant violation.
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

import numpy as np

from . import __version__, circuit, fmo, kernel, lindblad
from .errors import ConfigError, EnaqtError, NumericalError, StateInvalidError
from .linalg import frob_dist, successive_ratios, superoperator

BACKENDS = ("operator", "circuit", "lindblad-oracle")
MAX_GATECOUNT_DIM = 64  # building a step circuit costs ~d^2 gates: 64 runs in a fraction of a second
MAX_STEPS = 10_000_000  # states one command may step: memory stays flat, so this bounds time (1e7 rows ~2.5 min)
# (a sweep steps one trajectory per chi, so it counts len(chis) x steps)


RUN_FIELDS = ("model", "initial_site", "dt_fs", "steps", "chi", "temperature_k", "backend")  # echoed by `# config:`


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _config_lines(args, model: fmo.FmoModel, extra: dict) -> list:
    """Header lines echoing the RUN_FIELDS that `args` carry (those its subcommand registers) plus `extra`.

    The model hash is that of the file bytes `model` was parsed from, read once by load_model.
    """
    payload = {name: getattr(args, name) for name in RUN_FIELDS if name in args}
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


def _step_model(args) -> fmo.StepModel:
    """The run's step model, built once its model file is read and any --initial-site checked against it."""
    model = fmo.load_model(args.model)
    n = model.hamiltonian.n_sites
    if "initial_site" in args and not 1 <= args.initial_site <= n:
        raise ConfigError(f"initial site must be in 1..{n}, got {args.initial_site}")
    return fmo.StepModel(model, args.dt_fs, args.temperature_k)


def _trajectory(args, step_model: fmo.StepModel, chi: float):
    """The run's checked chunks (see kernel.chunks), stepped as they are read; T is built at the first."""
    yield from kernel.chunks(step_model.transfer_matrix(chi, args.backend),
                             step_model.initial_state(args.initial_site), args.steps, step_model.observers)


def _trajectory_csv(args, model: fmo.FmoModel, chunks):
    """The trajectory CSV of `chunks` (see kernel.chunks), each chunk formatted as it arrives."""
    if not args.steps * args.dt_fs < math.inf:  # the last row's time, checked before any output is opened
        raise ConfigError(f"--steps {args.steps} x --dt-fs {args.dt_fs} fs is past the float range")
    lines = _config_lines(args, model, {"command": "simulate"})
    header = ["t_fs"] + [f"site{m}" for m in range(1, model.hamiltonian.n_sites + 1)] + ["trace", "min_eig"]
    lines.append(",".join(header))
    row = ",".join(["%.17g"] * len(header))  # the same bytes as _fmt per value
    blocks = (np.column_stack([np.arange(start, start + len(trace)) * args.dt_fs, pops, trace, min_eig]).tolist()
              for start, pops, trace, min_eig in chunks)
    return itertools.chain(lines, (row % tuple(r) for block in blocks for r in block))


def cmd_simulate(args) -> int:
    step_model = _step_model(args)
    _emit((_trajectory_csv(args, step_model.model, _trajectory(args, step_model, args.chi)), args.out))
    return 0


def cmd_oracle(args) -> int:
    for dt in args.dt_list:
        try:
            lindblad._step_count(args.t_final, dt)  # the convergence table's rule, checked before any output
        except ValueError as exc:
            raise ConfigError(f"--dt-list and --t-final: {exc}") from exc
    # both files are open at once, so one regular file for both (a hard link too) would interleave them
    out, conv = args.out, args.convergence_out
    if out and conv and (os.path.samefile(out, conv) if os.path.isfile(out) and os.path.exists(conv) else
                         not os.path.exists(out) and os.path.realpath(out) == os.path.realpath(conv)):
        raise ConfigError(f"--out and --convergence-out are the same file {out}")
    step_model = _step_model(args)
    # oracle takes no --chi: its trajectory runs at chi 1
    _emit((_trajectory_csv(args, step_model.model, _trajectory(args, step_model, 1.0)), args.out),
          (_convergence_csv(args, step_model), args.convergence_out))
    return 0


def _convergence_csv(args, step_model: fmo.StepModel):
    """The oracle's convergence table; its RK4 runs start when its first line is asked for."""
    rows = lindblad.convergence_report(lindblad.LindbladModel(step_model.h_exciton, step_model.rates_per_fs),
                                       step_model.initial_state(args.initial_site), args.t_final, args.dt_list)
    yield from _config_lines(args, step_model.model,
                             {"command": "oracle", "t_final_fs": args.t_final, "dt_list": args.dt_list})
    yield from _distance_table("dt_fs,frobenius_distance", rows)


def cmd_sweep_chi(args) -> int:
    if len(args.chis) * args.steps > MAX_STEPS:
        raise ConfigError(f"a sweep steps {len(args.chis)} chi values x {args.steps} steps, "
                          f"more than the {MAX_STEPS} states one command may step")
    step_model = _step_model(args)
    rho0, sinks = step_model.initial_state(args.initial_site), step_model.model.sink_sites
    lines = _config_lines(args, step_model.model, {"command": "sweep-chi", "chis": args.chis})
    lines.append("chi,efficiency")
    # one chi at a time, so memory does not grow with len(chis); efficiencies print no
    # min_eig, so a certified step map runs unchecked, and only the last row is kept
    for member, c in enumerate(args.chis):
        try:
            for _, populations, _, _ in kernel.chunks(step_model.transfer_matrix(c, args.backend), rho0, args.steps,
                                                      step_model.observers, record_min_eig=False):
                final = populations[-1]
        except StateInvalidError as exc:
            raise StateInvalidError(f"member {member} (chi {c!r}): {exc}") from exc
        lines.append(f"{_fmt(c)},{_fmt(fmo.transfer_efficiency(final, sinks))}")
    _emit((lines, args.out))
    return 0


def cmd_gatecount(args) -> int:
    lines = [f"# enaqt {__version__}"]
    lines.append("dim,jumps,per_jump_gates,jump_gates_total,coherent_gates,qubits")
    for d in map(int, args.dims):
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
    step_model = _step_model(args)
    t_seq = superoperator(  # the Kraus reference
        lambda basis: circuit.sequential_kraus_step(basis, step_model.rates, step_model.unitary), step_model.basis.dim)
    equiv = frob_dist(circuit.choi_from_transfer(step_model.circuit_t), circuit.choi_from_transfer(t_seq))
    if equiv > 1e-10:
        raise NumericalError(f"circuit/operator-model Choi distance {equiv:.3e} exceeds 1e-10")

    rows = circuit.compare_step_channels(step_model.rates, step_model.h_exciton, args.dt_fs, args.scalings,
                                         step_model.circuit_t)
    lines = _config_lines(args, step_model.model, {"command": "circuit-verify", "scalings": args.scalings})
    lines.append(f"# choi_distance_circuit_vs_operator_model: {_fmt(equiv)}")
    lines.extend(_distance_table("scale,choi_distance_vs_step_map", rows))
    _emit((lines, args.out))
    return 0


def _checked(convert, ok, rule: str):
    """An argparse type: `convert` the text, and take the value only if `ok` holds for it, else fail with `rule`."""
    def parse(text):
        with contextlib.suppress(ValueError):
            value = convert(text)
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"{rule}, got {text}")
    return parse


def _checked_list(item):
    """An argparse type: a comma list of one or more values, each parsed by the type `item`; empty ones skip."""
    def parse(text):
        values = [item(tok) for tok in map(str.strip, text.split(",")) if tok]
        if not values:
            raise argparse.ArgumentTypeError(f"needs at least one value, got {text!r}")
        return values
    return parse


_positive = _checked(float, lambda x: 0 < x < math.inf, "must be finite and positive")
_unit = _checked(float, lambda x: 0 <= x <= 1, "must lie in [0, 1]")
_steps = _checked(int, lambda n: 1 <= n <= MAX_STEPS, f"must be an integer in 1..{MAX_STEPS}")
_dim = _checked(float, lambda d: 2 <= d <= MAX_GATECOUNT_DIM and d.is_integer(),
                f"must be an integer in 2..{MAX_GATECOUNT_DIM}")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: sweep-chi would otherwise read --chi as its --chis
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


RUN_OPTIONS = {
    "--config": dict(required=True, dest="model", help="model JSON file"),
    "--initial-site": dict(type=int, default=1),
    "--dt-fs": dict(type=_positive, default=10.0),
    "--steps": dict(type=_steps, default=400),
    "--chi": dict(type=_unit, default=1.0),
    "--temperature": dict(type=_positive, dest="temperature_k",
                          help="generate rates from the Ohmic bath at this temperature (K)"),
    "--out": dict(help="output path (default: stdout)"),
    "--backend": dict(choices=BACKENDS, default="operator"),
}


def _add_run_options(p, omit=()):
    """Register the run options the subcommand reads: all but `omit`."""
    for flag, kwargs in RUN_OPTIONS.items():
        if flag not in omit:
            p.add_argument(flag, **kwargs)


@functools.cache  # one parser per process: it holds no state between parses
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="enaqt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"enaqt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trajectory, emit CSV")
    _add_run_options(p)

    p = sub.add_parser("oracle", help="RK4 reference run plus convergence table")
    _add_run_options(p, omit=("--chi", "--backend"))
    p.add_argument("--dt-list", type=_checked_list(_positive), default="20,10,5")
    p.add_argument("--t-final", type=_positive, default=2000.0)
    p.add_argument("--convergence-out")
    # its trajectory file is the simulate run of this backend
    p.set_defaults(backend="lindblad-oracle")

    p = sub.add_parser("sweep-chi", help="efficiency vs chi")
    _add_run_options(p, omit=("--chi",))
    p.add_argument("--chis", type=_checked_list(_unit), default="0.0,0.06,0.5,1.0")

    p = sub.add_parser("gatecount", help="circuit complexity per step")
    p.add_argument("--dims", type=_checked_list(_dim), default="2,3,4,5,6,7,8")
    p.add_argument("--out")

    p = sub.add_parser("circuit-verify", help="channel equivalence certificates")
    _add_run_options(p, omit=("--initial-site", "--steps", "--chi", "--backend"))
    p.add_argument("--scalings", type=_checked_list(_positive), default="1.0,0.5,0.25")
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
