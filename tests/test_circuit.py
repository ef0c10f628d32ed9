import math

import numpy as np
import pytest

from enaqt import circuit, fmo, kernel, linalg
from enaqt.circuit import GateList, QubitLayout
from enaqt.errors import (
    IndexOutOfRangeError,
    LayoutMismatchError,
    ProbabilityOutOfRangeError,
)
from enaqt.kernel import JumpRateSpec


def random_density(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_rates(d, rng, scale=0.05):
    g = rng.uniform(0.0, scale, size=(d, d))
    np.fill_diagonal(g, 0.0)
    return JumpRateSpec(g)


def random_unitary(d, rng):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return linalg.evolution_unitary(0.5 * (h + h.conj().T) * 100, 10.0)


def jump_kraus_pair(d, i, j, g):
    """Kraus pair on the (B1 x system) space, built directly from its formula."""
    m0 = np.eye(2 * d, dtype=complex)
    m0[i, i] = np.sqrt(1.0 - g)
    m1 = np.zeros((2 * d, 2 * d), dtype=complex)
    m1[d + j, i] = np.sqrt(g)
    return m0, m1


def jump_gates(i, j, g, layout):
    """The rotation and permutation of jump i -> j, wired as build_step_circuit wires them."""
    b1, system = layout.b1_wire, layout.system_wires
    controls = ((b1, 0),) + circuit._code_controls(system, layout.code_of(i))
    layout.code_of(j)  # both ends must be excitons of the layout
    return GateList(layout=layout,
                    gates=circuit._jump_gates(i, j, g, controls, (b1,) + system, layout.b2_wire))


def jump_circuit_channel(d, i, j, g):
    """Apply the two-gate jump circuit to a (B1 x system) state, tracing B2.

    Test-side re-implementation working on the padded wire space; returns a
    channel acting on 2d x 2d states.
    """
    layout = QubitLayout(d)
    gates = jump_gates(i, j, g, layout)
    mats = [circuit.gate_matrix(gate, layout) for gate in gates]
    n_full = 2 ** layout.n_system
    codes = layout.codes()
    pad_idx = [b * n_full + c for b in range(2) for c in codes]

    def chan(sigma):
        reg = np.zeros((2 * n_full, 2 * n_full), dtype=complex)
        reg[np.ix_(pad_idx, pad_idx)] = sigma
        full = np.kron(reg.reshape(2 * n_full, 2 * n_full), np.diag([1.0, 0.0])).astype(complex)
        # interleave B2 as least-significant wire
        for m in mats:
            full = m @ full @ m.conj().T
        half = layout.sim_dim // 2
        traced = np.einsum("aibi->ab", full.reshape(half, 2, half, 2))
        return traced[np.ix_(pad_idx, pad_idx)]

    return chan


def dense_apply_circuit(rho_sys, gates):
    """Per-state reference: every unitary gate as a dense conjugation by gate_matrix."""
    layout = gates.layout
    n_full = 2 ** layout.n_system
    codes = layout.codes()
    reg = np.zeros((n_full, n_full), dtype=complex)
    reg[np.ix_(codes, codes)] = rho_sys
    p0 = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.kron(np.kron(p0, reg), p0)
    half = layout.sim_dim // 2
    for gate in gates:
        if gate.kind == circuit.KIND_RESET_B2:
            traced = np.einsum("aibi->ab", sigma.reshape(half, 2, half, 2))
            sigma = np.kron(traced, p0)
        elif gate.kind != circuit.KIND_TRACE_B1:
            m = circuit.gate_matrix(gate, layout)
            sigma = m @ sigma @ m.conj().T
    reduced = np.einsum("xiyxjy->ij", sigma.reshape(2, n_full, 2, 2, n_full, 2))
    return reduced[np.ix_(codes, codes)]


class TestQubitLayout:
    def test_dim7(self):
        ly = QubitLayout(7)
        assert ly.n_system == 3
        assert ly.codes() == [1, 2, 3, 4, 5, 6, 7]
        assert ly.total_qubits == 8
        assert ly.sim_dim == 32
        assert ly.b1_wire == 0 and ly.b2_wire == 4
        assert ly.ancilla_wires == (5, 6, 7)

    def test_power_of_two_dims(self):
        assert QubitLayout(4).codes() == [0, 1, 2, 3]
        assert QubitLayout(2).codes() == [0, 1]
        assert QubitLayout(2).total_qubits == 4

    def test_code_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            QubitLayout(7).code_of(7)

    def test_n_system_is_ceil_log2(self):
        for d in range(2, 65):
            assert QubitLayout(d).n_system == math.ceil(math.log2(d))


class TestBuildJumpCircuit:
    def test_rotation_angle(self):
        gates = jump_gates(0, 1, 0.25, QubitLayout(7))
        assert gates.gates[0].theta == pytest.approx(np.pi / 3.0)

    def test_gate_matrices_unitary(self):
        ly = QubitLayout(7)
        gates = jump_gates(2, 5, 0.4, ly)
        for gate in gates:
            m = circuit.gate_matrix(gate, ly)
            assert np.max(np.abs(m @ m.conj().T - np.eye(ly.sim_dim))) <= 1e-12

    @pytest.mark.parametrize("d,i,j,g", [(4, 0, 1, 0.25), (4, 3, 1, 0.6), (7, 0, 1, 0.25), (7, 4, 2, 0.13)])
    def test_matches_kraus_pair(self, rng, d, i, j, g):
        chan = jump_circuit_channel(d, i, j, g)
        m0, m1 = jump_kraus_pair(d, i, j, g)
        for _ in range(3):
            sigma = random_density(2 * d, rng)
            expected = m0 @ sigma @ m0.conj().T + m1 @ sigma @ m1.conj().T
            assert np.max(np.abs(chan(sigma) - expected)) <= 1e-12

    def test_zero_probability_is_identity(self, rng):
        d = 4
        chan = jump_circuit_channel(d, 1, 2, 0.0)
        sigma = random_density(2 * d, rng)
        assert np.max(np.abs(chan(sigma) - sigma)) <= 1e-13

    def test_certain_jump(self):
        d = 4
        i, j = 2, 0
        chan = jump_circuit_channel(d, i, j, 1.0)
        sigma = np.zeros((2 * d, 2 * d), dtype=complex)
        sigma[i, i] = 1.0  # B1=0, system |i>
        out = chan(sigma)
        assert out[d + j, d + j] == pytest.approx(1.0)

    def test_rejects_bad_input(self):
        ly = QubitLayout(4)
        with pytest.raises(IndexOutOfRangeError):
            jump_gates(1, 1, 0.2, ly)
        with pytest.raises(ProbabilityOutOfRangeError):
            jump_gates(0, 1, 1.2, ly)
        for j in (4, -1):  # the target exciton is checked when the jump is built
            with pytest.raises(IndexOutOfRangeError):
                jump_gates(0, j, 0.2, ly)


class TestBuildStepCircuit:
    def test_jump_count_fmo(self):
        gates = circuit.build_step_circuit(
            JumpRateSpec(np.zeros((7, 7))), np.eye(7, dtype=complex)
        )
        assert circuit.gate_count(gates).jumps == 42

    def test_lexicographic_order(self):
        d = 3
        gates = circuit.build_step_circuit(
            JumpRateSpec(np.zeros((d, d))), np.eye(d, dtype=complex)
        )
        perms = [g for g in gates if g.kind == circuit.KIND_CPERM]
        assert [(g.src, g.dst) for g in perms] == [
            (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)
        ]

    def test_structure(self, rng):
        d = 2
        gates = circuit.build_step_circuit(
            random_rates(d, rng), np.eye(d, dtype=complex)
        )
        kinds = [g.kind for g in gates]
        assert kinds.count(circuit.KIND_RESET_B2) == d * (d - 1)
        assert kinds[-2] == circuit.KIND_CUNITARY
        assert kinds[-1] == circuit.KIND_TRACE_B1

    def test_zero_rates_is_unitary_conjugation(self, rng):
        d = 4
        u = random_unitary(d, rng)
        gates = circuit.build_step_circuit(JumpRateSpec(np.zeros((d, d))), u)
        rho = random_density(d, rng)
        out = circuit.apply_circuit(rho, gates)
        assert np.max(np.abs(out - u @ rho @ u.conj().T)) <= 1e-13


class TestApplyCircuit:
    def test_empty_gate_list(self, rng):
        d = 7
        rho = random_density(d, rng)
        out = circuit.apply_circuit(rho, GateList(layout=QubitLayout(d)))
        assert np.max(np.abs(out - rho)) <= 1e-14

    def test_single_zero_gamma_jump(self, rng):
        ly = QubitLayout(7)
        gates = jump_gates(0, 1, 0.0, ly)
        rho = random_density(7, rng)
        assert np.max(np.abs(circuit.apply_circuit(rho, gates) - rho)) <= 1e-13

    def test_two_jump_step_matches_sequential_kraus(self, rng):
        d = 4
        g = np.zeros((d, d))
        g[0, 1], g[2, 3] = 0.3, 0.15
        rates = JumpRateSpec(g)
        u = random_unitary(d, rng)
        gates = circuit.build_step_circuit(rates, u)
        rho = random_density(d, rng)
        expected = circuit.sequential_kraus_step(rho, rates, u)
        assert np.max(np.abs(circuit.apply_circuit(rho, gates) - expected)) <= 1e-12

    def test_trace_preserved(self, rng):
        d = 7
        rates = random_rates(d, rng)
        gates = circuit.build_step_circuit(rates, random_unitary(d, rng))
        rho = random_density(d, rng)
        out = circuit.apply_circuit(rho, gates)
        assert abs(np.trace(out).real - 1.0) <= 1e-12

    def test_no_leakage_into_unused_code(self, rng):
        # dim 7 leaves code |000> unused; any leak would drain trace
        d = 7
        rates = random_rates(d, rng, scale=0.1)
        gates = circuit.build_step_circuit(rates, random_unitary(d, rng))
        rho = random_density(d, rng)
        for _ in range(5):
            rho = circuit.apply_circuit(rho, gates)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12

    def test_state_shape_checked(self):
        with pytest.raises(LayoutMismatchError):
            circuit.apply_circuit(np.eye(3), GateList(layout=QubitLayout(4)))

    def test_trace_out_must_be_the_final_gate(self, rng):
        gates = circuit.build_step_circuit(random_rates(3, rng), random_unitary(3, rng))
        gates.gates.insert(-1, gates.gates.pop())  # the trace before the coherent gate
        with pytest.raises(LayoutMismatchError, match="trace-out-b1 must be the final gate"):
            circuit.circuit_transfer_matrix(gates)

    def test_unknown_gate_kind_has_no_row_operation(self, rng):
        gates = circuit.build_step_circuit(random_rates(3, rng), random_unitary(3, rng))
        gates.gates.insert(0, circuit.Gate(kind="swap", targets=(1, 2)))
        with pytest.raises(LayoutMismatchError, match="'swap' has no row operation"):
            circuit.circuit_transfer_matrix(gates)

    def test_reset_has_no_dense_matrix(self):
        ly = QubitLayout(3)
        with pytest.raises(LayoutMismatchError, match="has no unitary matrix"):
            circuit.gate_matrix(circuit.Gate(kind=circuit.KIND_RESET_B2, targets=(ly.b2_wire,)), ly)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_stack_matches_per_state_and_dense_reference(self, rng, d):
        gates = circuit.build_step_circuit(random_rates(d, rng, scale=0.08), random_unitary(d, rng))
        stack = np.stack([random_density(d, rng) for _ in range(6)]).reshape(2, 3, d, d)
        batched = circuit.apply_circuit(stack, gates)
        assert batched.shape == (2, 3, d, d)
        for idx in np.ndindex(2, 3):
            single = circuit.apply_circuit(stack[idx], gates)
            assert np.max(np.abs(batched[idx] - single)) <= 1e-15
            assert np.max(np.abs(single - dense_apply_circuit(stack[idx], gates))) <= 1e-15


class TestChannelChoi:
    def test_identity_channel(self):
        d = 3
        choi = circuit.channel_choi(lambda r: r, d)
        phi = np.zeros(d * d, dtype=complex)
        for a in range(d):
            phi[a * d + a] = 1.0
        assert np.max(np.abs(choi - np.outer(phi, phi.conj()))) <= 1e-14

    def test_depolarizing_channel(self):
        d = 3
        choi = circuit.channel_choi(
            lambda r: np.trace(r) * np.eye(d, dtype=complex) / d, d
        )
        assert np.max(np.abs(choi - np.eye(d * d) / d)) <= 1e-14

    def test_cptp_certificate_for_compiled_step(self, rng):
        d = 4
        rates = random_rates(d, rng)
        gates = circuit.build_step_circuit(rates, random_unitary(d, rng))
        choi = circuit.channel_choi(lambda r: circuit.apply_circuit(r, gates), d)
        assert np.min(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))) >= -1e-9
        # trace over the output factor must give the identity (trace preservation)
        reduced = np.einsum("ajbj->ab", choi.reshape(d, d, d, d))
        assert np.max(np.abs(reduced - np.eye(d))) <= 1e-12

    def test_transfer_matrix_consistent(self, rng):
        d = 3
        rates = random_rates(d, rng)
        u = random_unitary(d, rng)
        gates = circuit.build_step_circuit(rates, u)
        t = circuit.channel_transfer_matrix(
            lambda r: circuit.apply_circuit(r, gates), d
        )
        rho = random_density(d, rng)
        via_t = (t @ rho.reshape(-1)).reshape(d, d)
        assert np.max(np.abs(via_t - circuit.apply_circuit(rho, gates))) <= 1e-12


    def test_reshuffle_matches_kron_double_loop(self, rng):
        # a linear, non-CP, non-hermiticity-preserving map
        d = 4
        a, b, c = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3))

        def chan(r):
            return a @ r @ b + c @ r.T

        expected = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                expected += np.kron(e, chan(e))
        assert np.max(np.abs(circuit.channel_choi(chan, d) - expected)) <= 1e-15

    @pytest.mark.parametrize("d", range(2, 9))
    def test_circuit_transfer_matrix_matches_per_element_build(self, rng, d):
        gates = circuit.build_step_circuit(random_rates(d, rng), random_unitary(d, rng))
        t = circuit.circuit_transfer_matrix(gates)
        reference = circuit.channel_transfer_matrix(
            lambda r: circuit.apply_circuit(r, gates), d
        )
        assert t.flags.c_contiguous
        assert np.max(np.abs(t - reference)) <= 1e-15


class TestStackedBuilds:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_plan_transfer_matrix_matches_dense_reference(self, rng, d):
        gates = circuit.build_step_circuit(random_rates(d, rng, scale=0.08), random_unitary(d, rng))
        t = circuit.circuit_transfer_matrix(gates)
        dense = circuit.channel_transfer_matrix(lambda r: dense_apply_circuit(r, gates), d)
        assert np.max(np.abs(t - dense)) <= 1e-15

    @pytest.mark.parametrize("d", [3, 7])
    def test_transfer_matrix_bit_identical_over_rebuilds(self, rng, d):
        gates = circuit.build_step_circuit(random_rates(d, rng, scale=0.08), random_unitary(d, rng))
        t = circuit.circuit_transfer_matrix(gates)
        for _ in range(6):  # every build walks the same GateList
            assert np.array_equal(circuit.circuit_transfer_matrix(gates), t)

    def test_resets_anywhere_match_dense_reference(self, rng):
        # two jumps share a reset; a reset follows a reset; coherent gates stand between jumps
        d = 5
        ly = QubitLayout(d)
        reset = circuit.Gate(kind=circuit.KIND_RESET_B2, targets=(ly.b2_wire,))
        coherent = circuit.Gate(kind=circuit.KIND_CUNITARY, targets=ly.system_wires,
                                controls=((ly.b1_wire, 0),), matrix=random_unitary(d, rng))
        jump = [jump_gates(i, j, g, ly).gates for i, j, g in ((0, 3, 0.2), (2, 1, 0.35), (1, 2, 0.5))]
        gates = GateList(layout=ly, gates=[
            *jump[0], *jump[1], coherent, reset, reset, coherent, reset,
            *jump[2], coherent, *jump[0], reset,
        ])
        stack = np.stack([random_density(d, rng) for _ in range(4)])
        out = circuit.apply_circuit(stack, gates)
        for k in range(len(stack)):
            assert np.max(np.abs(out[k] - dense_apply_circuit(stack[k], gates))) <= 1e-15

    def test_reset_after_a_lone_rotation_is_rejected(self):
        # without its permutation the rotation leaves B2 = 1 amplitude in B1 = 0, where later
        # gates still act, so the reset cannot finish it as a Kraus operator
        ly = QubitLayout(3)
        reset = circuit.Gate(kind=circuit.KIND_RESET_B2, targets=(ly.b2_wire,))
        gates = GateList(layout=ly, gates=[jump_gates(1, 2, 0.3, ly).gates[0], reset])
        with pytest.raises(LayoutMismatchError, match="^reset at gate 1: B2 = 1 amplitude with B1 = 0$"):
            circuit.circuit_kraus(gates)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_stacked_kraus_step_matches_per_state_calls(self, rng, d):
        rates, u = random_rates(d, rng, scale=0.08), random_unitary(d, rng)
        stack = np.stack([random_density(d, rng) for _ in range(6)]).reshape(3, 2, d, d)
        batched = circuit.sequential_kraus_step(stack, rates, u)
        assert batched.shape == (3, 2, d, d)
        for idx in np.ndindex(3, 2):
            assert np.array_equal(batched[idx], circuit.sequential_kraus_step(stack[idx], rates, u))


def basis_element(d, a, b):
    e = np.zeros((d, d), dtype=complex)
    e[a, b] = 1.0
    return e


class TestHermitianBuild:
    """The Kraus reference that circuit-verify certifies against: linalg.superoperator on one stack
    of the d^2 basis elements. Both routes preserve hermiticity, as a quantum channel must."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_both_routes_map_adjoint_inputs_to_adjoint_outputs(self, rng, d):
        rates, u = random_rates(d, rng, scale=0.08), random_unitary(d, rng)
        gates = circuit.build_step_circuit(rates, u)
        a, b = np.triu_indices(d)
        upper = np.stack([basis_element(d, i, j) for i, j in zip(a, b)])
        lower = upper.transpose(0, 2, 1)
        for route in (lambda s: circuit.apply_circuit(s, gates),
                      lambda s: circuit.sequential_kraus_step(s, rates, u)):
            adjoint = route(upper).conj().transpose(0, 2, 1)
            assert np.max(np.abs(route(lower) - adjoint)) <= 1e-15

    @pytest.mark.parametrize("d", range(2, 9))
    def test_kraus_transfer_matrix_matches_per_element_build(self, rng, d):
        rates, u = random_rates(d, rng, scale=0.08), random_unitary(d, rng)
        kraus = lambda r: circuit.sequential_kraus_step(r, rates, u)
        # a state's bits do not depend on the stack it is stepped in
        assert np.array_equal(linalg.superoperator(kraus, d), circuit.channel_transfer_matrix(kraus, d))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_diagonal_input_columns_are_the_circuit_outputs(self, rng, d):
        # apply_circuit reads T, so a basis input reads its column exactly
        gates = circuit.build_step_circuit(random_rates(d, rng, scale=0.08), random_unitary(d, rng))
        t = circuit.circuit_transfer_matrix(gates)
        for a in range(d):
            out = circuit.apply_circuit(basis_element(d, a, a), gates)
            assert np.array_equal(t[:, a * d + a], out.reshape(-1))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_diagonal_input_columns_are_the_kraus_outputs(self, rng, d):
        rates, u = random_rates(d, rng, scale=0.08), random_unitary(d, rng)
        kraus = lambda r: circuit.sequential_kraus_step(r, rates, u)
        t = linalg.superoperator(kraus, d)
        for a in range(d):
            assert np.array_equal(t[:, a * d + a], kraus(basis_element(d, a, a)).reshape(-1))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_off_diagonal_input_columns_are_the_kraus_outputs(self, rng, d):
        # each column is the map's own output, not the adjoint of another's
        rates, u = random_rates(d, rng, scale=0.08), random_unitary(d, rng)
        kraus = lambda r: circuit.sequential_kraus_step(r, rates, u)
        t = linalg.superoperator(kraus, d)
        for a in range(d):
            for b in range(d):
                if a != b:
                    assert np.array_equal(t[:, a * d + b], kraus(basis_element(d, a, b)).reshape(-1))

    @pytest.mark.parametrize("d", [2, 7])
    def test_one_build_is_one_kraus_pass(self, rng, d, monkeypatch):
        calls, run = [], circuit.circuit_kraus

        def counted(*args):
            calls.append(args)
            return run(*args)

        def no_state_run(*args):
            raise AssertionError("a build runs no state through the circuit")

        monkeypatch.setattr(circuit, "circuit_kraus", counted)
        monkeypatch.setattr(circuit, "apply_circuit", no_state_run)
        gates = circuit.build_step_circuit(random_rates(d, rng), random_unitary(d, rng))
        circuit.circuit_transfer_matrix(gates)
        assert len(calls) == 1


def shipped_step():
    step_model = fmo.StepModel(fmo.load_model(fmo.default_model_path()), 10.0)
    return step_model.rates, step_model.unitary


class TestKrausRoute:
    @pytest.mark.parametrize("d", [*range(2, 9), "shipped"])
    def test_kraus_operators_are_trace_preserving(self, rng, d):
        rates, u = shipped_step() if d == "shipped" else (random_rates(d, rng), random_unitary(d, rng))
        a = circuit.circuit_kraus(circuit.build_step_circuit(rates, u))
        completeness = np.einsum("kia,kib->ab", a.conj(), a)
        assert np.max(np.abs(completeness - np.eye(rates.dim))) <= 1e-14

    @pytest.mark.parametrize("d", range(2, 9))
    def test_one_branch_per_jump_that_can_happen(self, rng, d):
        g = rng.uniform(0.01, 0.05, size=(d, d))
        np.fill_diagonal(g, 0.0)
        u = random_unitary(d, rng)
        every = circuit.build_step_circuit(JumpRateSpec(g), u)
        g[0, d - 1] = 0.0  # a jump that cannot happen adds no branch
        one_fewer = circuit.build_step_circuit(JumpRateSpec(g), u)
        assert len(circuit.circuit_kraus(every)) == 1 + d * (d - 1)  # one Kraus operator each
        assert len(circuit.circuit_kraus(one_fewer)) == d * (d - 1)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_stack_is_the_transfer_matrix_on_vec_rho(self, rng, d):
        gates = circuit.build_step_circuit(random_rates(d, rng, scale=0.08), random_unitary(d, rng))
        t = circuit.circuit_transfer_matrix(gates)
        stack = np.stack([random_density(d, rng) for _ in range(6)]).reshape(2, 3, d, d)
        out = circuit.apply_circuit(stack, gates)
        for idx in np.ndindex(2, 3):
            assert np.max(np.abs(out[idx].reshape(-1) - t @ stack[idx].reshape(-1))) <= 1e-15


class TestSequentialKraus:
    def test_matches_circuit_choi(self, rng):
        for d in (2, 4, 7):
            rates = random_rates(d, rng, scale=0.08)
            u = random_unitary(d, rng)
            gates = circuit.build_step_circuit(rates, u)
            choi_circ = circuit.channel_choi(
                lambda r: circuit.apply_circuit(r, gates), d
            )
            choi_seq = circuit.channel_choi(
                lambda r: circuit.sequential_kraus_step(r, rates, u), d
            )
            assert np.linalg.norm(choi_circ - choi_seq) <= 1e-10

    def test_zero_rates(self, rng):
        d = 3
        u = random_unitary(d, rng)
        rho = random_density(d, rng)
        out = circuit.sequential_kraus_step(rho, JumpRateSpec(np.zeros((d, d))), u)
        assert np.max(np.abs(out - u @ rho @ u.conj().T)) <= 1e-13


class TestCompareStepChannels:
    def test_zero_rates_channels_coincide(self):
        d = 2
        h = np.array([[0.0, 60.0], [60.0, 25.0]])
        rows = circuit.compare_step_channels(
            JumpRateSpec(np.zeros((d, d))), h, 10.0, scalings=(1.0,)
        )
        assert rows[0][1] <= 1e-12

    def test_second_order_scaling_dim2(self):
        d = 2
        h = np.array([[0.0, 60.0], [60.0, 25.0]])
        rates = JumpRateSpec(np.array([[0.0, 0.08], [0.03, 0.0]]))
        rows = circuit.compare_step_channels(rates, h, 10.0, scalings=(1.0, 0.5, 0.25))
        for r in linalg.successive_ratios(rows):
            assert 3.0 <= r <= 5.0

    def test_jump_order_changes_channel_at_second_order(self):
        # reversing the jump order perturbs the step channel by O(s^2)
        d = 3
        h = np.array([[100.0, 30.0, 8.0], [30.0, 50.0, 20.0], [8.0, 20.0, 0.0]])
        base = np.array([[0.0, 0.06, 0.03], [0.04, 0.0, 0.05], [0.02, 0.01, 0.0]])
        ly = QubitLayout(d)

        def choi_with_order(gamma, reverse):
            u = linalg.evolution_unitary(h, 10.0)
            pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
            if reverse:
                pairs = pairs[::-1]
            gates = GateList(layout=ly)
            for i, j in pairs:
                sub = jump_gates(i, j, gamma[i, j], ly)
                gates.gates.extend(sub.gates)
                gates.gates.append(circuit.Gate(kind=circuit.KIND_RESET_B2, targets=(ly.b2_wire,)))
            gates.gates.append(circuit.Gate(kind=circuit.KIND_CUNITARY,
                                            targets=ly.system_wires,
                                            controls=((ly.b1_wire, 0),), matrix=u))
            gates.gates.append(circuit.Gate(kind=circuit.KIND_TRACE_B1, targets=(ly.b1_wire,)))
            return circuit.channel_choi(lambda r: circuit.apply_circuit(r, gates), d)

        dists = []
        for s in (1.0, 0.5):
            dists.append(np.linalg.norm(choi_with_order(base * s, False) - choi_with_order(base * s, True)))
        assert dists[0] > 1e-8  # the orders genuinely differ
        assert 2.8 <= dists[0] / dists[1] <= 5.2


class TestGateCount:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_closed_form_counts(self, d):
        gates = circuit.build_step_circuit(
            JumpRateSpec(np.zeros((d, d))), np.eye(d, dtype=complex)
        )
        rep = circuit.gate_count(gates)
        n = int(np.ceil(np.log2(d)))
        assert rep.jumps == d * (d - 1)
        assert rep.per_jump_elementary == 2 * n
        assert rep.jump_elementary_total == d * (d - 1) * 2 * n
        assert rep.coherent_gates == 1
        assert rep.qubits == 2 * n + 2

    def test_dim7_values(self):
        gates = circuit.build_step_circuit(
            JumpRateSpec(np.zeros((7, 7))), np.eye(7, dtype=complex)
        )
        rep = circuit.gate_count(gates)
        assert (rep.jumps, rep.per_jump_elementary, rep.jump_elementary_total) == (42, 6, 252)
        assert rep.qubits == 8

    def test_dim2_values(self):
        gates = circuit.build_step_circuit(
            JumpRateSpec(np.zeros((2, 2))), np.eye(2, dtype=complex)
        )
        rep = circuit.gate_count(gates)
        assert rep.jumps == 2
        assert rep.qubits == 4


class TestExportGates:
    def test_deterministic(self):
        rates = JumpRateSpec(np.array([[0.0, 0.25], [0.1, 0.0]]))
        u = np.eye(2, dtype=complex)
        text1 = circuit.export_gates(circuit.build_step_circuit(rates, u))
        text2 = circuit.export_gates(circuit.build_step_circuit(rates, u))
        assert text1 == text2

    def test_line_structure(self):
        rates = JumpRateSpec(np.array([[0.0, 0.25], [0.1, 0.0]]))
        text = circuit.export_gates(circuit.build_step_circuit(rates, np.eye(2, dtype=complex)))
        lines = text.strip().split("\n")
        # 2 jumps x (rotation, permutation, reset) + coherent + trace
        assert len(lines) == 8
        assert lines[0].startswith("CONTROLLED-RY targets=2 controls=0:0,1:0 theta=")
        assert lines[1].startswith("CONTROLLED-PERMUTATION targets=0,1 controls=2:1 src=0 dst=1")
        assert lines[2] == "RESET-B2 targets=2"
        assert lines[-1] == "TRACE-OUT-B1 targets=0"
        assert "matrix=" in lines[-2]

    def test_fmo_export_covers_all_jumps(self):
        text = circuit.export_gates(circuit.build_step_circuit(*shipped_step()))
        assert text.count("CONTROLLED-RY") == 42
        assert text.count("RESET-B2") == 42
