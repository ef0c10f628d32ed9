"""enaqt benchmark: runs one workload through the CLI and prints its metrics.

    python3 bench/run.py --workload {transport,disorder,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The workload runs in one child process
(bench/child.py) with BLAS pinned to one thread; set-up time is measured in
fresh interpreters that the child starts between its passes. With `--trace 0` it prints the end-to-end metrics, with
`--trace 1` the per-layer metrics and tracing overhead. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`, whose names and units
are those listed in BENCHMARK.json. Exits non-zero without that line when
the checkout holds no enaqt sources or the child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_THREADS = 1  # 7x7 and 32x32 products: threads only add sync cost and noise
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(args, env: dict) -> dict:
    workdir = OUT / args.workload
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--result", str(result_path.relative_to(ROOT))],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def end_to_end(child: dict) -> dict:
    walls = [p["wall_s"] for p in child["passes"]]
    # each command's mean over the timed passes, then percentiles over the
    # command list. Means, not medians: the machine's speed drifts between
    # two levels, and a percentile of the pooled samples flips between them
    # where a mean averages them
    cmds = [statistics.fmean(ts) for ts in zip(*(p["cmd_s"] for p in child["passes"]))]
    return {
        "wall_s": statistics.fmean(walls),
        "cmd_p50_ms": 1e3 * statistics.median(cmds),
        "cmd_p90_ms": 1e3 * statistics.quantiles(cmds, n=10, method="inclusive")[8],
        "setup_s": statistics.median(child["setup_s"]),
        "peak_rss_mb": child["peak_rss_mb"],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "enaqt" / "cli.py").is_file():
        print(f"error: no enaqt sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    try:
        child = run_child(args, env)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    cpus = os.cpu_count()
    e = child["env"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env: nproc={cpus} affinity={len(os.sched_getaffinity(0))} blas_threads={BLAS_THREADS} "
          f"python={e['python']} numpy={e['numpy']} blas={e['blas']} machine={platform.machine()} "
          f"commit={git_commit()}")
    print(f"# blas_config: {e['blas_config']}")
    print(f"# inputs: {child['inputs']} files, seed={child['seed']}, sha256={child['inputs_sha256']}")
    n_cmds = sum(len(p["cmd_s"]) for p in child["passes"])
    print(f"# passes: {len(child['passes'])} timed after 1 warm-up, {child['commands']} commands "
          f"per pass, {n_cmds} command samples"
          + (f", {child['traced_passes']} traced passes" if args.trace else ""))

    attempted = child["attempted"]
    failed = min(attempted, len(child["failures"]))
    for f in child["failures"][:10]:
        print(f"# FAILED command {f['command']}: {'; '.join(f['problems'])}")

    if args.trace:
        values, key = child["layer"], "per_layer"
        print(f"# spans of the last traced pass: {child['spans_file']}")
        print(f"# {'metric':<40} {'per pass':>14}")
        for name in sorted(values):
            print(f"# {name:<40} {values[name]:>14.6g}")
    else:
        values, key = end_to_end(child), "end_to_end"
        print(f"# setup_s from {len(child['setup_s'])} interpreters spread over the run; "
              f"cmd percentiles over {child['commands']} commands, each the mean of "
              f"{len(child['passes'])} passes")
    print(f"# error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} commands failed)")

    metrics = {}
    for m in spec[key]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if not args.trace:
            print(f"{m['name']:<14} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
