"""Regenerate the shipped model file, showing how its numbers were calibrated.

The 7-site Hamiltonian is the Cho et al. 2005 matrix (as reproduced by
Mohseni et al. 2008). Two bath descriptions are recorded:

- Ohmic parameters (lambda, omega_c) for on-the-fly rate generation with the
  full exciton-overlap weighting. lambda is fitted so that the fastest
  exciton relaxation time at 300 K is ~70 fs.
- An explicit exciton-to-exciton rate table, used verbatim by default. It is
  built from the same detailed-balance thermal rates at 77 K but with the
  overlap factor softened to a square root, then scaled so the fastest
  exciton relaxes in 70 fs. The softening keeps the spatial directionality
  of the transfer while avoiding the near-total suppression of the
  site-1/2 exciton's decay that the full product form produces; the
  resulting 4 ps transfer efficiency (~0.96 into sites 3+4) matches the
  published range for this complex.

Run:  python demos/calibrate_rates.py [--out path.json]
"""

import argparse
import json
from pathlib import Path

import numpy as np

from enaqt import fmo

CHO_SITE_ENERGIES = [280.0, 420.0, 0.0, 175.0, 320.0, 360.0, 260.0]
CHO_COUPLINGS = [
    [0.0, -106.0, 8.0, -5.0, 6.0, -8.0, -4.0],
    [-106.0, 0.0, 28.0, 6.0, 2.0, 13.0, 1.0],
    [8.0, 28.0, 0.0, -62.0, -1.0, -9.0, 17.0],
    [-5.0, 6.0, -62.0, 0.0, -70.0, -19.0, -57.0],
    [6.0, 2.0, -1.0, -70.0, 0.0, 40.0, -2.0],
    [-8.0, 13.0, -9.0, -19.0, 40.0, 0.0, 32.0],
    [-4.0, 1.0, 17.0, -57.0, -2.0, 32.0, 0.0],
]

OMEGA_C_CM1 = 150.0
TABLE_TEMPERATURE_K = 77.0
TABLE_OVERLAP_EXPONENT = 0.5
TARGET_FASTEST_RELAXATION_FS = 70.0
OHMIC_CALIBRATION_TEMPERATURE_K = 300.0


def calibrated_lambda(basis: fmo.ExcitonBasis) -> float:
    """lambda such that the fastest 300 K relaxation time is the target."""
    rates = fmo.thermal_rate_matrix(basis, 1.0, OMEGA_C_CM1, OHMIC_CALIBRATION_TEMPERATURE_K)
    return 1.0 / (TARGET_FASTEST_RELAXATION_FS * rates.sum(axis=1).max())


def calibrated_table(basis: fmo.ExcitonBasis) -> np.ndarray:
    """77 K detailed-balance rates, sqrt-overlap contraction, 70 fs fastest."""
    rates = fmo.thermal_rate_matrix(basis, 1.0, OMEGA_C_CM1, TABLE_TEMPERATURE_K,
                                    overlap_exponent=TABLE_OVERLAP_EXPONENT)
    return rates / (TARGET_FASTEST_RELAXATION_FS * rates.sum(axis=1).max())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[1] / "src/enaqt/data/fmo_default.json"),
    )
    args = parser.parse_args()

    # the bath is what this script calibrates, so there is no FmoModel yet: H comes from the arrays
    basis = fmo.exciton_basis(np.diag(CHO_SITE_ENERGIES) + np.array(CHO_COUPLINGS))
    lam = calibrated_lambda(basis)
    table = calibrated_table(basis)

    model = {
        "site_energies_cm1": CHO_SITE_ENERGIES,
        "couplings_cm1": CHO_COUPLINGS,
        "sink_sites": [3, 4],
        "bath": {
            "lambda_cm1": round(lam, 6),
            "omega_c_cm1": OMEGA_C_CM1,
            "rates_per_fs": [[float(f"{x:.12e}") for x in row] for row in table],
        },
        "provenance": {
            "hamiltonian": (
                "7-site single-exciton Hamiltonian in cm^-1, Cho et al., "
                "J. Phys. Chem. B 109, 10542 (2005), as reproduced by "
                "Mohseni et al., J. Chem. Phys. 129, 174106 (2008). "
                "Site energies relative to site 3."
            ),
            "ohmic_bath": (
                f"J(w) = (lambda/omega_c) w exp(-w/omega_c); lambda fitted so the "
                f"fastest exciton relaxation time at {OHMIC_CALIBRATION_TEMPERATURE_K:.0f} K "
                f"is {TARGET_FASTEST_RELAXATION_FS:.0f} fs with full overlap weighting."
            ),
            "rates_per_fs": (
                "Exciton-to-exciton jump rates, indices in ascending exciton-energy "
                f"order, rates[M][N] = rate M->N in fs^-1. Detailed-balance thermal rates at "
                f"{TABLE_TEMPERATURE_K:.0f} K from the Ohmic shape above with the overlap "
                f"factor raised to {TABLE_OVERLAP_EXPONENT}, scaled so the fastest exciton "
                f"relaxes in {TARGET_FASTEST_RELAXATION_FS:.0f} fs. Used verbatim by default; "
                "regenerate with demos/calibrate_rates.py."
            ),
            "generator": "demos/calibrate_rates.py",
        },
    }

    out = Path(args.out)
    out.write_text(json.dumps(model, indent=2) + "\n")
    print(f"wrote {out}")
    print(f"lambda_cm1 = {lam:.6f}")
    taus = 1.0 / table.sum(axis=1)
    print("exciton relaxation times from the table (fs):", np.round(taus, 1))


if __name__ == "__main__":
    main()
