"""Sweeping the bath-coupling fraction chi: from coherent beats to funneling.

Each step blends pure unitary evolution with the full jump step,
rho' = (1-chi) U rho U^dag + chi * step(rho). Small chi mimics a weakly
coupled (cold) environment: the site 1 <-> 2 coherent oscillation survives
much longer, at the price of slower transfer. The sweep prints the 4 ps
efficiency per chi and the peak-to-peak amplitude of the site-2 beat within
the first 500 fs.

Run:  python demos/03_tunable_coupling.py [--chis 0,0.06,0.25,0.5,1]
"""

import argparse

import numpy as np

from enaqt import fmo, kernel, linalg

DT_FS = 10.0
STEPS = 400


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chis", default="0.0,0.06,0.25,0.5,1.0")
    args = parser.parse_args()
    chis = [float(c) for c in args.chis.split(",")]

    model = fmo.load_model(fmo.default_model_path())
    basis = fmo.exciton_basis(fmo.site_hamiltonian(model.hamiltonian))
    rates = fmo.jump_rates(basis, model, DT_FS)
    unitary = np.diag(np.exp(-1j * basis.energies_cm1 * DT_FS / linalg.HBAR_CM1_FS))
    ops = kernel.build_evolution_operators(rates, unitary)

    rho0_site = np.zeros((7, 7), dtype=complex)
    rho0_site[0, 0] = 1.0
    rho0 = basis.to_exciton(rho0_site)
    window = int(500.0 / DT_FS)

    print("chi    efficiency(4ps)   site-2 beat amplitude (first 500 fs)")
    for chi in chis:
        traj = kernel.evolve_trajectory(
            rho0, ops, DT_FS, STEPS, basis.site_projectors(), chi=chi
        )
        eff = fmo.transfer_efficiency(traj, model.sink_sites)
        beat = traj.populations[: window + 1, 1]
        print(f"{chi:4.2f}   {eff:10.4f}        {beat.max() - beat.min():.3f}")

    print("\nlow chi keeps the site 1<->2 coherence alive (larger beat),")
    print("full coupling converts it into sink population fastest.")


if __name__ == "__main__":
    main()
