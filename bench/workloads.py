"""The benchmark's workloads: generated inputs plus the fixed command list of one pass.

Every input the program reads is written here, into the workload's work
directory, from the seed alone: the same seed gives byte-identical files.
`transport` and `verify` run the shipped model (copied byte for byte), so
their inputs do not depend on the seed; `disorder` draws its ensemble from it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SHIPPED_MODEL = Path(__file__).resolve().parent.parent / "src" / "enaqt" / "data" / "fmo_default.json"

# transport: one long run per antenna site, then a chi sweep including the
# paper's chi = 0.06, all on the operator backend with the calibrated table
TRANSPORT_RUNS = ((1, 10_000), (6, 4_000))
TRANSPORT_CHIS = (0.0, 0.06, 0.125, 0.25, 0.4, 0.5, 0.75, 1.0)
TRANSPORT_SWEEP_STEPS = 1_000

# disorder: static Gaussian site-energy disorder, Ohmic detailed-balance rates
DISORDER_REALIZATIONS = 32
DISORDER_SIGMA_CM1 = 50.0
DISORDER_TEMPERATURES_K = (77.0, 300.0)
DISORDER_SITES = (1, 6)
DISORDER_STEPS = 50

# verify: circuit certification, circuit backend, RK4 oracle convergence
VERIFY_SCALINGS = "1,0.5,0.25"
VERIFY_CIRCUIT_STEPS = 400
VERIFY_DT_LIST = "20,10,5"
VERIFY_T_FINAL_FS = 2000.0


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments, which check applies, and what it writes."""

    argv: tuple
    check: str  # "trajectory", "sweep", "circuit-verify" or "oracle"
    outputs: tuple

    def option(self, flag: str, default=None):
        """Value following `flag` in argv, or `default`."""
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return default


@dataclass(frozen=True)
class Workload:
    commands: tuple
    inputs: tuple  # generated input files, in generation order

    def inputs_sha256(self) -> str:
        """sha256 over the bytes of every generated input, in order."""
        digest = hashlib.sha256()
        for path in self.inputs:
            digest.update(Path(path).read_bytes())
        return digest.hexdigest()


def _copy_shipped(workdir: Path) -> Path:
    model = workdir / "model.json"
    model.write_bytes(SHIPPED_MODEL.read_bytes())
    return model


def _simulate(model, out: Path, *extra) -> Command:
    argv = ("simulate", "--config", str(model), *extra, "--out", str(out))
    return Command(argv=argv, check="trajectory", outputs=(str(out),))


def _transport(workdir: Path, seed: int) -> Workload:
    model = _copy_shipped(workdir)
    cmds = [
        _simulate(model, workdir / f"site{site}.csv",
                  "--initial-site", str(site), "--steps", str(steps))
        for site, steps in TRANSPORT_RUNS
    ]
    sweep = workdir / "sweep.csv"
    cmds.append(Command(
        argv=("sweep-chi", "--config", str(model),
              "--chis", ",".join(repr(c) for c in TRANSPORT_CHIS),
              "--steps", str(TRANSPORT_SWEEP_STEPS), "--out", str(sweep)),
        check="sweep",
        outputs=(str(sweep),),
    ))
    return Workload(tuple(cmds), (str(model),))


def disorder_models(seed: int) -> list:
    """The ensemble as model-file texts: shipped couplings, disordered energies.

    The bath keeps the shipped Ohmic parameters but drops `rates_per_fs`, so
    the program generates detailed-balance rates for each realization.
    """
    base = json.loads(SHIPPED_MODEL.read_text())
    rng = np.random.default_rng(seed)
    energies = np.asarray(base["site_energies_cm1"], dtype=float)
    texts = []
    for r in range(DISORDER_REALIZATIONS):
        shifted = energies + rng.normal(0.0, DISORDER_SIGMA_CM1, energies.shape)
        model = {
            "site_energies_cm1": [float(e) for e in shifted],
            "couplings_cm1": base["couplings_cm1"],
            "sink_sites": base["sink_sites"],
            "bath": {
                "lambda_cm1": base["bath"]["lambda_cm1"],
                "omega_c_cm1": base["bath"]["omega_c_cm1"],
            },
            "provenance": {
                "generator": "bench/workloads.py disorder ensemble",
                "seed": seed,
                "realization": r,
                "sigma_cm1": DISORDER_SIGMA_CM1,
            },
        }
        texts.append(json.dumps(model, indent=1, sort_keys=True) + "\n")
    return texts


def _disorder(workdir: Path, seed: int) -> Workload:
    inputs, cmds = [], []
    for r, text in enumerate(disorder_models(seed)):
        model = workdir / f"model{r:02d}.json"
        model.write_text(text)
        inputs.append(str(model))
        for temp in DISORDER_TEMPERATURES_K:
            for site in DISORDER_SITES:
                out = workdir / f"r{r:02d}_{temp:g}K_site{site}.csv"
                cmds.append(_simulate(
                    model, out, "--temperature", repr(temp),
                    "--initial-site", str(site), "--steps", str(DISORDER_STEPS),
                ))
    return Workload(tuple(cmds), tuple(inputs))


def _verify(workdir: Path, seed: int) -> Workload:
    model = _copy_shipped(workdir)
    cv, circ = workdir / "circuit_verify.csv", workdir / "circuit.csv"
    traj, conv = workdir / "oracle.csv", workdir / "convergence.csv"
    cmds = (
        Command(
            argv=("circuit-verify", "--config", str(model),
                  "--scalings", VERIFY_SCALINGS, "--out", str(cv)),
            check="circuit-verify",
            outputs=(str(cv),),
        ),
        _simulate(model, circ, "--backend", "circuit",
                  "--steps", str(VERIFY_CIRCUIT_STEPS)),
        Command(
            argv=("oracle", "--config", str(model), "--dt-list", VERIFY_DT_LIST,
                  "--t-final", repr(VERIFY_T_FINAL_FS),
                  "--out", str(traj), "--convergence-out", str(conv)),
            check="oracle",
            outputs=(str(traj), str(conv)),
        ),
    )
    return Workload(cmds, (str(model),))


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's inputs into `workdir` and return its command list."""
    builders = {"transport": _transport, "disorder": _disorder, "verify": _verify}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(builders)}")
    workdir.mkdir(parents=True, exist_ok=True)
    return builders[name](workdir, seed)
