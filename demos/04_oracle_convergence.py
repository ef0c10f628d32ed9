"""Cross-check: the discrete step solves the continuous master equation.

Integrates the same model with a classical RK4 Lindblad solver (a fixed,
structurally independent reference) and measures the Frobenius distance to
the discrete-step result at a common final time. Halving the step size
halves the distance: the step map is a first-order-in-dt solution of the
master equation. Shown on a 3-level toy model and on the shipped 7-site
model.

Run:  python demos/04_oracle_convergence.py
"""

import numpy as np

from enaqt import fmo, linalg, lindblad


def report(label, model, rho0, t_final, dt_list):
    rows = lindblad.convergence_report(model, rho0, t_final, dt_list)
    print(f"{label} (final time {t_final:.0f} fs)")
    print("  dt_fs   distance to RK4 oracle")
    for dt, dist in rows:
        print(f"  {dt:5.1f}   {dist:.6e}")
    ratios = ", ".join(f"{r:.2f}" for r in linalg.successive_ratios(rows))
    print(f"  successive ratios: {ratios}  (first-order convergence => ~2)\n")


def main():
    h3 = np.array([[100.0, 30.0, 8.0], [30.0, 50.0, 20.0], [8.0, 20.0, 0.0]])
    rates3 = np.array(
        [[0.0, 0.004, 0.002], [0.003, 0.0, 0.005], [0.001, 0.002, 0.0]]
    )
    rho3 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    report(
        "3-level toy model",
        lindblad.LindbladModel(h3, rates3),
        rho3,
        1000.0,
        [4.0, 2.0, 1.0],
    )

    dt_list = [20.0, 10.0, 5.0]
    step_model = fmo.StepModel(fmo.load_model(fmo.default_model_path()), max(dt_list))
    report(
        "7-site shipped model",
        lindblad.LindbladModel(step_model.h_exciton, step_model.rates_per_fs),
        step_model.initial_state(1),
        2000.0,
        dt_list,
    )


if __name__ == "__main__":
    main()
