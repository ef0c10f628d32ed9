"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from enaqt import circuit, fmo, kernel, lindblad, linalg
from enaqt.kernel import JumpRateSpec

DT_FS = 10.0
STEPS = 400

TOY3_H = np.array(
    [[100.0, 30.0, 8.0], [30.0, 50.0, 20.0], [8.0, 20.0, 0.0]]
)
TOY3_RATES = np.array(
    [[0.0, 0.004, 0.002], [0.003, 0.0, 0.005], [0.001, 0.002, 0.0]]
)


@pytest.fixture(scope="module")
def shipped():
    return fmo.StepModel(fmo.load_model(fmo.default_model_path()), DT_FS)


def run_shipped(shipped, site, chi=1.0, steps=STEPS, zero_rates=False):
    rates = JumpRateSpec(np.zeros_like(shipped.rates.gamma)) if zero_rates else shipped.rates
    ops = kernel.build_evolution_operators(rates, shipped.unitary)
    return kernel.evolve_trajectory(shipped.initial_state(site), ops, DT_FS, steps, shipped.observers, chi=chi)


def sink_series(model, traj):
    cols = [s - 1 for s in model.sink_sites]
    return traj.populations[:, cols].sum(axis=1)


def first_passage(times, series, threshold):
    hit = np.nonzero(series >= threshold)[0]
    return times[hit[0]] if len(hit) else np.inf


def test_criterion_1_lindblad_equivalence():
    start = time.perf_counter()
    model = lindblad.LindbladModel(TOY3_H, TOY3_RATES)
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    rows = lindblad.convergence_report(model, rho0, 1000.0, [4.0, 2.0, 1.0])
    elapsed = time.perf_counter() - start
    ratios = linalg.successive_ratios(rows)
    assert len(ratios) == 2
    for r in ratios:
        assert 1.7 <= r <= 2.3
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 1 Lindblad equivalence: PASS "
        f"(ratios {ratios[0]:.2f}, {ratios[1]:.2f}; {elapsed:.2f}s)"
    )


def test_criterion_2_fmo_efficiency(shipped):
    model = shipped.model
    effs = {}
    for site in (1, 6):
        start = time.perf_counter()
        traj = run_shipped(shipped, site)
        elapsed = time.perf_counter() - start
        eff = fmo.transfer_efficiency(traj.populations[-1], model.sink_sites)
        assert eff >= 0.93
        assert elapsed < 2.0
        effs[site] = eff
    print(
        f"\nACCEPTANCE 2 FMO efficiency: PASS "
        f"(site1 {effs[1]:.4f}, site6 {effs[6]:.4f})"
    )


def test_criterion_3_localization(shipped):
    model = shipped.model
    coherent = run_shipped(shipped, 1, zero_rates=True)
    coherent_sink = sink_series(model, coherent)
    assert coherent_sink.max() <= 0.4

    enaqt_eff = fmo.transfer_efficiency(run_shipped(shipped, 1).populations[-1], model.sink_sites)
    coherent_eff = coherent_sink[-1]
    assert enaqt_eff / coherent_eff >= 2.0
    print(
        f"\nACCEPTANCE 3 localization: PASS "
        f"(coherent max {coherent_sink.max():.3f}, ratio {enaqt_eff / coherent_eff:.0f})"
    )


def test_criterion_4_directionality(shipped):
    model = shipped.model
    t1 = run_shipped(shipped, 1)
    t6 = run_shipped(shipped, 6)
    fp1 = first_passage(t1.times, sink_series(model, t1), 0.5)
    fp6 = first_passage(t6.times, sink_series(model, t6), 0.5)
    assert np.isfinite(fp1) and np.isfinite(fp6)
    assert fp6 < fp1
    print(f"\nACCEPTANCE 4 directionality: PASS (site6 {fp6:.0f} fs < site1 {fp1:.0f} fs)")


def test_criterion_5_tunable_coupling(shipped):
    ops = kernel.build_evolution_operators(shipped.rates, shipped.unitary)
    window = int(500.0 / DT_FS)

    t_low = run_shipped(shipped, 1, chi=0.06, steps=window)
    t_full = run_shipped(shipped, 1, chi=1.0, steps=window)
    site2_low = t_low.populations[:, 1]
    site2_full = t_full.populations[:, 1]
    amp_low = site2_low.max() - site2_low.min()
    amp_full = site2_full.max() - site2_full.min()
    assert amp_low > amp_full

    rho = shipped.initial_state(1)
    assert np.array_equal(
        kernel.tunable_step(rho, ops, 1.0),
        kernel.enaqt_step(rho, ops),
    )
    assert np.array_equal(
        kernel.tunable_step(rho, ops, 0.0),
        shipped.unitary @ rho @ shipped.unitary.conj().T,
    )
    print(
        f"\nACCEPTANCE 5 tunable coupling: PASS "
        f"(amplitude chi=0.06 {amp_low:.3f} > chi=1 {amp_full:.3f}; "
        "chi endpoints bit-identical)"
    )


def test_criterion_6_circuit_equivalence(shipped):
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    dists = {}
    for d in (2, 4, 7):
        g = rng.uniform(0.0, 0.08, size=(d, d))
        np.fill_diagonal(g, 0.0)
        rates = JumpRateSpec(g)
        h = rng.normal(size=(d, d))
        u = linalg.evolution_unitary(0.5 * (h + h.T) * 100, DT_FS)
        gates = circuit.build_step_circuit(rates, u)
        choi_circ = circuit.channel_choi(lambda r: circuit.apply_circuit(r, gates), d)
        choi_seq = circuit.channel_choi(
            lambda r: circuit.sequential_kraus_step(r, rates, u), d
        )
        dists[d] = float(np.linalg.norm(choi_circ - choi_seq))
        assert dists[d] <= 1e-10

    # circuit vs one-shot step map: distance drops ~4x when the step halves
    rows = circuit.compare_step_channels(shipped.rates, shipped.h_exciton, DT_FS, scalings=(1.0, 0.5))
    ratio = linalg.successive_ratios(rows)[0]
    assert 2.8 <= ratio <= 5.2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 6 circuit equivalence: PASS "
        f"(max Choi distance {max(dists.values()):.2e}, scaling ratio {ratio:.2f}, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_7_complexity_accounting():
    for d in range(2, 9):
        gates = circuit.build_step_circuit(
            JumpRateSpec(np.zeros((d, d))), np.eye(d, dtype=complex)
        )
        rep = circuit.gate_count(gates)
        n = int(np.ceil(np.log2(d)))
        assert rep.jumps == d * (d - 1)
        assert rep.per_jump_elementary == 2 * n
        assert rep.qubits == 2 * n + 2
    assert circuit.gate_count(
        circuit.build_step_circuit(JumpRateSpec(np.zeros((7, 7))), np.eye(7, dtype=complex))
    ).jumps == 42
    print("\nACCEPTANCE 7 complexity accounting: PASS (exact for dims 2..8)")


def test_criterion_8_invariant_suite(shipped):
    start = time.perf_counter()
    basis, rates, unitary = shipped.basis, shipped.rates, shipped.unitary
    ops = kernel.build_evolution_operators(rates, unitary)

    # Kraus completeness of the underlying (U = 1) operator family is trace
    # preservation of its channel: sum_n T[n(d+1), :] = vec(1)
    d = basis.dim
    bare = kernel.step_transfer_matrix(rates, np.eye(d, dtype=complex), 1.0)
    completeness = np.max(np.abs(bare[:: d + 1].sum(axis=0) - np.eye(d).reshape(-1)))
    assert completeness <= 1e-12

    # hermiticity defect per step and positivity along the shipped run
    rng = np.random.default_rng(11)
    herm_defects = []
    rho = shipped.initial_state(1)
    min_eigs = []
    for _ in range(STEPS):
        rho = kernel.enaqt_step(rho, ops)
        herm_defects.append(np.max(np.abs(rho - rho.conj().T)))
        min_eigs.append(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    assert max(herm_defects) <= 1e-13
    assert min(min_eigs) >= -1e-8

    # per-step trace drift falls ~4x when dt halves (rates fixed in fs^-1)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho3 = a @ a.conj().T
    rho3 /= np.trace(rho3).real
    drifts = []
    for dt in (8.0, 4.0):
        u = linalg.evolution_unitary(TOY3_H, dt)
        ops3 = kernel.build_evolution_operators(JumpRateSpec(TOY3_RATES * dt), u)
        out = kernel.enaqt_step(rho3, ops3)
        drifts.append(abs(np.trace(out).real - np.trace(rho3).real))
    assert 3.0 <= drifts[0] / drifts[1] <= 5.0

    # circuit channel preserves trace exactly
    gates = circuit.build_step_circuit(rates, unitary)
    rho7 = shipped.initial_state(6)
    worst = 0.0
    for _ in range(5):
        rho7 = circuit.apply_circuit(rho7, gates)
        worst = max(worst, abs(np.trace(rho7).real - 1.0))
    assert worst <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 8 invariant suite: PASS "
        f"(completeness {completeness:.1e}, hermiticity {max(herm_defects):.1e}, "
        f"drift ratio {drifts[0] / drifts[1]:.2f}, min eig {min(min_eigs):.1e}, "
        f"circuit trace {worst:.1e}, {elapsed:.1f}s)"
    )
