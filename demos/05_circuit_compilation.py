"""Compile one evolution step into gates and certify the channel.

Builds the 42-jump circuit for the shipped model (3 system qubits, 2 bath
qubits, 3 ancillas reserved for multi-control decomposition), simulates it
on its Kraus operators (each mid-circuit B2 reset splits off one branch per
jump), and compares the Choi matrix of the resulting transfer matrix against
the operator-model reference (sequential Kraus pairs). Also shows how the
circuit channel approaches the one-shot step map as the step shrinks, the
gate/qubit complexity table, and the start of the exported gate program.

Run:  python demos/05_circuit_compilation.py
"""

import numpy as np

from enaqt import circuit, fmo, kernel, linalg

DT_FS = 10.0


def main():
    step_model = fmo.StepModel(fmo.load_model(fmo.default_model_path()), DT_FS)

    gates = circuit.build_step_circuit(step_model.rates, step_model.unitary)
    layout = gates.layout
    print(f"wires: B1={layout.b1_wire}, system={layout.system_wires}, "
          f"B2={layout.b2_wire}, ancillas={layout.ancilla_wires}")
    print(f"compiled {circuit.gate_count(gates).jumps} jump sub-circuits, "
          f"{len(gates)} gate objects\n")

    choi_circ = linalg.choi_from_transfer(circuit.circuit_transfer_matrix(gates))
    choi_seq = circuit.channel_choi(
        lambda r: circuit.sequential_kraus_step(r, step_model.rates, step_model.unitary), 7
    )
    print(f"Choi distance circuit vs operator model: "
          f"{np.linalg.norm(choi_circ - choi_seq):.2e}")
    eigs = np.linalg.eigvalsh(0.5 * (choi_circ + choi_circ.conj().T))
    print(f"Choi minimum eigenvalue (complete positivity): {eigs.min():.2e}")

    rows = circuit.compare_step_channels(
        step_model.rates, step_model.h_exciton, DT_FS,
        scalings=(1.0, 0.5, 0.25),
    )
    print("\ndistance to the one-shot step map under step scaling:")
    for s, dist in rows:
        print(f"  scale {s:4.2f}: {dist:.3e}")
    ratios = ", ".join(f"{r:.2f}" for r in linalg.successive_ratios(rows))
    print(f"  ratios {ratios} (agreement to first order in the step)\n")

    print("dim  jumps  gates/jump  jump gates  qubits")
    for d in range(2, 9):
        g = circuit.build_step_circuit(
            kernel.JumpRateSpec(np.zeros((d, d))), np.eye(d, dtype=complex)
        )
        r = circuit.gate_count(g)
        print(f"{d:3d}  {r.jumps:5d}  {r.per_jump_elementary:10d}  "
              f"{r.jump_elementary_total:10d}  {r.qubits:6d}")

    text = circuit.export_gates(gates)
    print("\nfirst gates of the exported program:")
    for line in text.splitlines()[:4]:
        print("  " + line[:96] + ("..." if len(line) > 96 else ""))


if __name__ == "__main__":
    main()
