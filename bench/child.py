"""Runs one workload in this process through `enaqt.cli.main` and writes a result file.

Started by run.py as a child process, from the root of the checkout, with
BLAS threads already pinned in its environment. It imports enaqt from the
checkout's own `src/`, writes the workload's inputs, runs one warm-up pass
and then timed passes until `--seconds` have elapsed, and checks every
command's outputs after each pass. Without tracing it also times fresh
`enaqt --version` interpreters between passes, spread over the run, so that
set-up time samples the same spells of machine speed as the passes. With
`--trace 1` it alternates untraced and traced passes, so the difference
between them is the tracing overhead.

    python3 bench/child.py --workload verify --seed 1 --seconds 10 --trace 0 \
        --result bench/out/verify/result.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

import checks
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 9
SETUP_CODE = "from enaqt.cli import main; main(['--version'])"


def import_enaqt():
    """Import enaqt from the checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "enaqt" / "cli.py").is_file():
        raise SystemExit(f"no enaqt sources under {src}")
    sys.path.insert(0, str(src))
    import enaqt
    from enaqt import cli, errors

    if Path(enaqt.__file__).resolve().parent != (src / "enaqt").resolve():
        raise SystemExit(f"imported enaqt from {enaqt.__file__}, not from {src}")
    return cli, errors.StepTooLargeWarning


def time_setup() -> float:
    """Wall time of a fresh interpreter running `enaqt --version`."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    elapsed = perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.startswith("enaqt "):
        raise SystemExit(f"`enaqt --version` failed: {proc.stderr.strip()[-300:]}")
    return elapsed


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


class PassRunner:
    """Runs the workload's command list once per call and checks the outputs."""

    def __init__(self, cli, known_warning, workload):
        self.cli = cli
        self.known_warning = known_warning
        self.workload = workload
        self.first_hashes = None

    def run_pass(self, tracer=None) -> dict:
        """One pass: wall time, per-command times, failures, known warnings."""
        cmd_s, errors, warned = [], {}, 0
        start = perf_counter()
        for i, cmd in enumerate(self.workload.commands):
            if tracer is not None:
                tracer.command_id = i
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = perf_counter()
                try:
                    code = self.cli.main(list(cmd.argv))
                except Exception:
                    code, err_text = None, traceback.format_exc()
                t1 = perf_counter()
            cmd_s.append(t1 - t0)
            problems = []
            if code is None:
                problems.append("traceback: " + err_text.strip().splitlines()[-1])
            elif code != 0:
                problems.append(f"exit code {code}")
            if err.getvalue():
                problems.append("stderr: " + err.getvalue().strip()[:200])
            for w in caught:
                if issubclass(w.category, self.known_warning):
                    warned += 1
                else:
                    problems.append(f"warning {w.category.__name__}: {w.message}")
            if problems:
                errors[i] = problems
        wall_s = perf_counter() - start

        # checked outside the timed region, before the next pass overwrites them
        hashes = []
        for i, cmd in enumerate(self.workload.commands):
            digest = None
            if i not in errors:
                try:
                    problems = checks.check(cmd)
                    digest = tuple(_file_sha256(p) for p in cmd.outputs)
                except (OSError, ValueError, IndexError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
                if problems:
                    errors[i] = problems
            hashes.append(digest)
        if self.first_hashes is None:
            self.first_hashes = hashes
        for i, (h, h0) in enumerate(zip(hashes, self.first_hashes)):
            if h is not None and h0 is not None and h != h0:
                errors.setdefault(i, []).append("output bytes differ from the first pass")
        return {
            "wall_s": wall_s,
            "cmd_s": cmd_s,
            "failures": [
                {"command": i, "argv": list(self.workload.commands[i].argv), "problems": p}
                for i, p in sorted(errors.items())
            ],
            "step_too_large_warnings": warned,
        }


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Warm-up pass, then timed (and, if `trace`, alternating traced) passes."""
    cli, known_warning = import_enaqt()
    workload = workloads.build(workload_name, seed, workdir)
    runner = PassRunner(cli, known_warning, workload)
    result = {
        "env": environment(),
        "workload": workload_name,
        "seed": seed,
        "commands": len(workload.commands),
        "inputs": len(workload.inputs),
        "inputs_sha256": workload.inputs_sha256(),
    }
    if not trace:
        time_setup()  # first interpreter: fills the file cache, not counted
    passes = [runner.run_pass()]  # warm-up: checked, not timed
    traced, summaries, setup_s = [], [], []
    start = perf_counter()
    deadline = start + seconds
    while True:
        passes.append(runner.run_pass())
        due = start + len(setup_s) * seconds / SETUP_SAMPLES
        if not trace and len(setup_s) < SETUP_SAMPLES and perf_counter() >= due:
            setup_s.append(time_setup())
        if trace:
            last_tracer = tracing.Tracer()
            with last_tracer:
                traced.append(runner.run_pass(tracer=last_tracer))
            summaries.append(last_tracer.summary())
        if len(passes) == 3:
            # high-water mark over a fixed amount of work: later passes of the
            # same commands only let the allocator's arenas creep up
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if perf_counter() >= deadline and len(passes) >= 3:
            break
    while not trace and len(setup_s) < SETUP_SAMPLES:
        setup_s.append(time_setup())
    result["setup_s"] = setup_s
    result["passes"] = [{k: p[k] for k in ("wall_s", "cmd_s")} for p in passes[1:]]
    all_passes = passes + traced
    result["attempted"] = len(workload.commands) * len(all_passes)
    result["failures"] = [f for p in all_passes for f in p["failures"]]
    result["peak_rss_mb"] = peak_rss_mb
    if trace:
        last_tracer.write(workdir / "spans.csv")
        per_pass = [tracing.layer_metrics(s) for s in summaries]
        layer = {}
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            if not name.endswith(".calls"):
                layer[name] = statistics.median(values)
                continue
            layer[name] = values[0]
            if len(set(values)) != 1:
                result["failures"].append(
                    {"command": None, "problems": [f"{name} differs between passes: {values}"]}
                )
        layer["lindblad.step_too_large_warnings"] = traced[-1]["step_too_large_warnings"]
        layer["trace_overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
            p["wall_s"] for p in passes[1:]
        )
        result["layer"] = layer
        result["traced_passes"] = len(traced)
        result["spans_file"] = str(workdir / "spans.csv")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    result_path = Path(args.result)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), result_path.parent)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
