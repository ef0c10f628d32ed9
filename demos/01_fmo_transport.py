"""Exciton transport through the 7-site complex, from either antenna site.

Evolves the shipped model for 4 ps at 10 fs per step, printing the site
populations every 500 fs and the transfer efficiency (population collected
on the sink sites 3 and 4 at 4 ps). With the shipped jump rates both
starting sites funnel ~96% of the excitation into the sink.

Run:  python demos/01_fmo_transport.py [--initial-site 1] [--csv out.csv]
"""

import argparse

import numpy as np

from enaqt import fmo, kernel

DT_FS = 10.0
STEPS = 400


def run(initial_site):
    step_model = fmo.StepModel(fmo.load_model(fmo.default_model_path()), DT_FS)
    traj = kernel.propagate(step_model.transfer_matrix(1.0), step_model.initial_state(initial_site), DT_FS, STEPS,
                            step_model.observers)
    return step_model.model, traj


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--initial-site", type=int, default=1, choices=range(1, 8))
    parser.add_argument("--csv", default=None, help="also dump the full trajectory")
    args = parser.parse_args()

    model, traj = run(args.initial_site)

    print(f"initial excitation: site {args.initial_site}")
    print("t_fs   " + "  ".join(f"site{m}" for m in range(1, 8)))
    for k in range(0, STEPS + 1, 50):
        row = "  ".join(f"{p:5.3f}" for p in traj.populations[k])
        print(f"{traj.times[k]:6.0f} {row}")

    eff = fmo.transfer_efficiency(traj.populations[-1], model.sink_sites)
    print(f"\ntransfer efficiency at 4 ps (sites {model.sink_sites}): {eff:.4f}")
    print(f"trace drift over the run: {abs(traj.trace[-1] - 1.0):.2e}")
    print(f"most negative eigenvalue seen: {traj.min_eig.min():.2e}")

    if args.csv:
        header = "t_fs," + ",".join(f"site{m}" for m in range(1, 8))
        data = np.column_stack([traj.times, traj.populations])
        np.savetxt(args.csv, data, delimiter=",", header=header, comments="")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
