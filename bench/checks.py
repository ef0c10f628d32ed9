"""Output checks: every command's files are parsed and held to tolerances.

Tolerances, never byte equality against stored files: a propagator change may
legitimately move values at rounding level. Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

TRACE_TOL = 1e-9        # |trace - 1| on every trajectory row
MIN_EIG_TOL = -1e-6     # smallest eigenvalue on every trajectory row
POP_SUM_TOL = 1e-12     # |sum of site populations - trace| on every row
CHOI_TOL = 1e-10        # circuit vs operator-model Choi distance
SWEEP_TOL = 1e-9        # sweep-chi efficiency vs the reference below
DISTANCE_RTOL = 1e-7    # verify's Choi and convergence distances vs the references
CHOI_RATIO = (3.5, 4.5)     # ~4 per halving: second-order gap to the step map
ORACLE_RATIO = (1.75, 2.25)  # ~2 per halving: first-order kernel vs RK4

DEFAULT_STEPS = 400
DEFAULT_DT_FS = 10.0

# sweep-chi efficiencies of the shipped model at 1000 steps of 10 fs, as
# printed by the program when the benchmark was defined
SWEEP_REFERENCE = {
    0.0: 0.027133724783825437,
    0.06: 0.60717920597600705,
    0.125: 0.84850728905531525,
    0.25: 0.9484832559447246,
    0.4: 0.95941501324798673,
    0.5: 0.96003836537650722,
    0.75: 0.96014455394493359,
    1.0: 0.96014430160884534,
}

# verify's distances, printed by the program at the same commit: circuit vs
# one-shot step map per scaling, and discrete kernel vs RK4 oracle per dt
CHOI_SCALING_REFERENCE = {
    1.0: 0.019421303580036148,
    0.5: 0.0048464504217915335,
    0.25: 0.001210954606463893,
}
CONVERGENCE_REFERENCE = {
    20.0: 0.0029144134442669104,
    10.0: 0.0014624146983704914,
    5.0: 0.000732475088990553,
}


def _data_lines(path):
    """Non-comment lines of a CSV file, split on commas; header first."""
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                yield line.rstrip("\n").split(",")


def _comment(path, key: str):
    """Value of a `# key: value` line, or None."""
    prefix = f"# {key}: "
    with open(path) as fh:
        for line in fh:
            if line.startswith(prefix):
                return line[len(prefix):].strip()
    return None


def trajectory(path, steps: int, dt_fs: float) -> list:
    """Row count, time grid, trace, positivity and population-sum invariants."""
    rows = _data_lines(path)
    header = next(rows, None)
    if not header or header[0] != "t_fs" or header[-2:] != ["trace", "min_eig"]:
        return [f"{path}: bad header {header}"]
    problems = []
    count = 0
    for k, cells in enumerate(rows):
        count += 1
        vals = [float(c) for c in cells]
        t, pops, tr, min_eig = vals[0], vals[1:-2], vals[-2], vals[-1]
        if len(vals) != len(header):
            problems.append(f"{path}: row {k} has {len(vals)} cells")
        elif abs(t - k * dt_fs) > 1e-9 * max(1.0, k * dt_fs):
            problems.append(f"{path}: row {k} at t = {t}, expected {k * dt_fs}")
        elif not abs(tr - 1.0) <= TRACE_TOL:
            problems.append(f"{path}: row {k} trace {tr!r}")
        elif not min_eig >= MIN_EIG_TOL:
            problems.append(f"{path}: row {k} min_eig {min_eig!r}")
        elif not abs(math.fsum(pops) - tr) <= POP_SUM_TOL:
            problems.append(f"{path}: row {k} populations sum {math.fsum(pops)!r} vs trace {tr!r}")
        if len(problems) >= 3:
            return problems
    if count != steps + 1:
        problems.append(f"{path}: {count} rows, expected {steps + 1}")
    return problems


def _table(path, header, reference, atol=0.0, rtol=0.0) -> list:
    """Two-column table whose keys are exactly the reference's and values match."""
    rows = _data_lines(path)
    if next(rows, None) != header:
        return [f"{path}: bad header, expected {header}"]
    got = {float(key): float(value) for key, value in rows}
    if sorted(got) != sorted(reference):
        return [f"{path}: {header[0]} values {sorted(got)}, expected {sorted(reference)}"]
    return [
        f"{path}: {header[0]} {key}: {header[1]} {got[key]!r}, reference {ref!r}"
        for key, ref in reference.items()
        if not abs(got[key] - ref) <= atol + rtol * abs(ref)
    ]


def sweep(path, reference=SWEEP_REFERENCE) -> list:
    """Every chi of the reference is present and its efficiency matches."""
    return _table(path, ["chi", "efficiency"], reference, atol=SWEEP_TOL)


def _ratios(path, expected_count: int, bounds) -> list:
    text = _comment(path, "successive_ratios")
    ratios = [float(r) for r in text.split(",")] if text else []
    if len(ratios) != expected_count or not all(bounds[0] <= r <= bounds[1] for r in ratios):
        return [f"{path}: successive ratios {ratios}, expected {expected_count} in {bounds}"]
    return []


def circuit_verify(path, reference=CHOI_SCALING_REFERENCE) -> list:
    """Choi distance to the operator model, distances per scaling, ~4x per halving."""
    text = _comment(path, "choi_distance_circuit_vs_operator_model")
    if text is None or not float(text) <= CHOI_TOL:
        return [f"{path}: circuit vs operator-model Choi distance {text}"]
    problems = _table(path, ["scale", "choi_distance_vs_step_map"], reference,
                      rtol=DISTANCE_RTOL)
    return problems + _ratios(path, len(reference) - 1, CHOI_RATIO)


def oracle(traj_path, conv_path, steps: int, dt_fs: float,
           reference=CONVERGENCE_REFERENCE) -> list:
    """RK4 trajectory by invariants only; distances per dt, ~2x per halving."""
    problems = trajectory(traj_path, steps, dt_fs)
    problems += _table(conv_path, ["dt_fs", "frobenius_distance"], reference,
                       rtol=DISTANCE_RTOL)
    return problems + _ratios(conv_path, len(reference) - 1, ORACLE_RATIO)


def check(command) -> list:
    """Problems with the files one workload command wrote."""
    steps = int(command.option("--steps", DEFAULT_STEPS))
    dt_fs = float(command.option("--dt-fs", DEFAULT_DT_FS))
    if command.check == "trajectory":
        return trajectory(command.outputs[0], steps, dt_fs)
    if command.check == "sweep":
        return sweep(command.outputs[0])
    if command.check == "circuit-verify":
        return circuit_verify(command.outputs[0])
    if command.check == "oracle":
        return oracle(*command.outputs, steps, dt_fs)
    raise ValueError(f"unknown check {command.check!r}")
