from dataclasses import replace

import numpy as np
import pytest

from enaqt import circuit, kernel, linalg
from enaqt.errors import (
    DimensionMismatchError,
    ProbabilityOutOfRangeError,
    StateInvalidError,
    SurvivalUnderflowError,
)
from enaqt.kernel import JumpRateSpec


def random_density(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_rates(d, rng, scale=0.02):
    g = rng.uniform(0.0, scale, size=(d, d))
    np.fill_diagonal(g, 0.0)
    return JumpRateSpec(g)


def assemble_step_terms(gamma, u, rho):
    """Independent oracle: literal term-by-term sum of the step equation.

    Builds every M_MN from scratch and adds the diagonal terms, both
    asymmetric cross terms per ordered pair, and the jump terms.
    """
    d = gamma.shape[0]
    basis = np.eye(d, dtype=complex)
    m_diag = []
    for m in range(d):
        s = np.sqrt(1.0 - gamma[m].sum())
        m_diag.append(s * np.outer(basis[m], basis[m]))
    coh = u @ rho @ u.conj().T
    out = np.zeros((d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            out += m_diag[m] @ coh @ m_diag[n].conj().T
    for m in range(d):
        for n in range(d):
            if n == m:
                continue
            m_mn = np.sqrt(gamma[m, n]) * np.outer(basis[n], basis[m])
            out += m_mn @ rho @ m_mn.conj().T
    return out


def kraus_transfer(kraus):
    """Row-major transfer matrix sum_k K (x) conj(K) of a Kraus family."""
    return sum(np.kron(k, k.conj()) for k in kraus)


def documented_kraus(gamma, u):
    """The step's Kraus family from the documented formulas.

    The survival branch s_M |M><M| U enters summed over M (its cross terms
    are part of the step), the jump branch as the rank-one sqrt(gamma_MN) |N><M|.
    """
    d = gamma.shape[0]
    basis = np.eye(d, dtype=complex)
    survival = sum(
        np.sqrt(1.0 - gamma[m].sum()) * np.outer(basis[m], basis[m]) @ u for m in range(d)
    )
    jumps = [
        np.sqrt(gamma[m, n]) * np.outer(basis[n], basis[m])
        for m in range(d) for n in range(d) if n != m
    ]
    return survival, jumps


def single_jump_step(rho, u, p):
    """Two-level reference: M0 U rho U^dag M0^dag + M1 rho M1^dag for the jump |0> -> |1>,
    with M0 = sqrt(1-p)|0><0| + |1><1| and M1 = sqrt(p)|1><0|."""
    m0 = np.diag([np.sqrt(1.0 - p), 1.0]).astype(complex)
    m1 = np.array([[0.0, 0.0], [np.sqrt(p), 0.0]], dtype=complex)
    m0u = m0 @ u
    return m0u @ rho @ m0u.conj().T + m1 @ rho @ m1.conj().T


class TestJumpRateSpec:
    def test_rejects_negative(self):
        with pytest.raises(ProbabilityOutOfRangeError):
            JumpRateSpec(np.array([[0.0, -0.1], [0.0, 0.0]]))

    def test_rejects_above_one(self):
        with pytest.raises(SurvivalUnderflowError):
            JumpRateSpec(np.array([[0.0, 1.1], [0.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ProbabilityOutOfRangeError):
            JumpRateSpec(np.array([[0.1, 0.0], [0.0, 0.0]]))

    def test_rejects_row_sum_above_one(self):
        g = np.array([[0.0, 0.6, 0.6], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(SurvivalUnderflowError):
            JumpRateSpec(g)

    def test_survival_amplitudes(self):
        spec = JumpRateSpec(np.array([[0.0, 0.19], [0.0, 0.0]]))
        assert spec.survival_amplitudes() == pytest.approx([0.9, 1.0])


class TestBuildEvolutionOperators:
    def test_zero_rates_partition_unitary(self):
        d = 4
        u = linalg.evolution_unitary(np.diag([0.0, 10.0, 20.0, 30.0]) + 5.0, 10.0)
        ops = kernel.build_evolution_operators(JumpRateSpec(np.zeros((d, d))), u)
        survival, jumps = documented_kraus(np.zeros((d, d)), u)
        t = kernel.step_transfer_matrix(ops, 1.0)
        assert np.max(np.abs(t - kraus_transfer([survival, *jumps]))) <= 1e-15
        # no jump term: the survival branch alone is U rho U^dag
        assert np.max(np.abs(t - np.kron(u, u.conj()))) <= 1e-15

    def test_two_level_operators(self):
        p, q = 0.2, 0.05
        u = linalg.evolution_unitary(np.array([[0.0, 60.0], [60.0, 0.0]]), 4.0)
        ops = kernel.build_evolution_operators(
            JumpRateSpec(np.array([[0.0, p], [q, 0.0]])), u
        )
        e0, e1 = np.eye(2)[0], np.eye(2)[1]
        kraus = [
            np.sqrt(1 - p) * np.outer(e0, e0) @ u + np.sqrt(1 - q) * np.outer(e1, e1) @ u,
            np.sqrt(p) * np.outer(e1, e0),
            np.sqrt(q) * np.outer(e0, e1),
        ]
        t = kernel.step_transfer_matrix(ops, 1.0)
        assert np.allclose(t, kraus_transfer(kraus))

    def test_completeness_dim7(self, rng):
        d = 7
        u = linalg.evolution_unitary(np.diag(rng.normal(size=d) * 100), 10.0)
        rates = random_rates(d, rng, scale=0.1)
        ops = kernel.build_evolution_operators(rates, u)
        # completeness is a property of the unprimed operators: undo U first;
        # then sum M^dag M = 1 is trace preservation, sum_n T[n(d+1), :] = vec(1)
        bare = kernel.step_transfer_matrix(replace(ops, unitary=np.eye(d, dtype=complex)), 1.0)
        assert np.max(np.abs(bare[:: d + 1].sum(axis=0) - np.eye(d).reshape(-1))) <= 1e-12

    def test_jump_ops_rank_one(self, rng):
        d = 5
        rates = random_rates(d, rng, scale=0.05)
        ops = kernel.build_evolution_operators(rates, np.eye(d, dtype=complex))
        survival, jumps = documented_kraus(rates.gamma, np.eye(d, dtype=complex))
        for op in jumps:
            assert np.linalg.matrix_rank(op) == 1
        # with U = 1 the jump branch is the channel minus its survival branch;
        # its Choi matrix is that of the rank-one family above
        t = kernel.step_transfer_matrix(ops, 1.0) - kraus_transfer([survival])
        choi = circuit.channel_choi(lambda r: (t @ r.reshape(-1)).reshape(d, d), d)
        vecs = [k.T.reshape(-1) for k in jumps]  # Choi index (c, a) holds K[a, c]
        assert np.max(np.abs(choi - sum(np.outer(v, v.conj()) for v in vecs))) <= 1e-15

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            kernel.build_evolution_operators(random_rates(3, rng), np.eye(4))


class TestEnaqtStep:
    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_stack_matches_per_state_calls(self, rng, d):
        h = rng.normal(size=(d, d)) * 60.0
        ops = kernel.build_evolution_operators(
            random_rates(d, rng, scale=0.05), linalg.evolution_unitary(0.5 * (h + h.T), 10.0))
        stack = np.stack([random_density(d, rng) for _ in range(6)]).reshape(2, 3, d, d)
        batched = kernel.enaqt_step(stack, ops)
        assert batched.shape == (2, 3, d, d)
        for idx in np.ndindex(2, 3):
            assert np.max(np.abs(batched[idx] - kernel.enaqt_step(stack[idx], ops))) <= 1e-15
        # on the basis elements the stacked call is bit-identical: one transfer term per row
        basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
        stacked = kernel.enaqt_step(basis, ops)
        assert all(np.array_equal(stacked[k], kernel.enaqt_step(e, ops)) for k, e in enumerate(basis))

    def test_coherent_limit(self, rng):
        d = 3
        rho = random_density(d, rng)
        u = linalg.evolution_unitary(np.diag([0.0, 50.0, 120.0]) + 10.0, 10.0)
        ops = kernel.build_evolution_operators(JumpRateSpec(np.zeros((d, d))), u)
        assert np.max(np.abs(kernel.enaqt_step(rho, ops) - u @ rho @ u.conj().T)) <= 1e-14

    def test_classical_markov_update(self):
        p, q, a = 0.15, 0.07, 0.6
        rho = np.diag([a, 1.0 - a]).astype(complex)
        ops = kernel.build_evolution_operators(
            JumpRateSpec(np.array([[0.0, p], [q, 0.0]])), np.eye(2, dtype=complex)
        )
        out = kernel.enaqt_step(rho, ops)
        assert out[0, 0].real == pytest.approx(a * (1 - p) + (1 - a) * q)
        assert out[1, 1].real == pytest.approx(a * p + (1 - a) * (1 - q))

    def test_against_term_by_term_oracle(self, rng):
        d = 3
        rho = random_density(d, rng)
        h = np.array([[100.0, 30.0, 8.0], [30.0, 50.0, 20.0], [8.0, 20.0, 0.0]])
        u = linalg.evolution_unitary(h, 10.0)
        rates = random_rates(d, rng, scale=0.04)
        ops = kernel.build_evolution_operators(rates, u)
        expected = assemble_step_terms(rates.gamma, u, rho)
        assert np.max(np.abs(kernel.enaqt_step(rho, ops) - expected)) <= 1e-14

    def test_reduces_to_single_jump_step(self, rng):
        p = 0.12
        rho = random_density(2, rng)
        u = linalg.evolution_unitary(np.array([[0.0, 45.0], [45.0, 0.0]]), 6.0)
        ops = kernel.build_evolution_operators(
            JumpRateSpec(np.array([[0.0, p], [0.0, 0.0]])), u
        )
        assert np.max(
            np.abs(kernel.enaqt_step(rho, ops) - single_jump_step(rho, u, p))
        ) <= 1e-14

    def test_hermiticity_preserved(self, rng):
        d = 5
        u = linalg.evolution_unitary(np.diag(rng.normal(size=d) * 100), 10.0)
        ops = kernel.build_evolution_operators(random_rates(d, rng, scale=0.1), u)
        for _ in range(20):
            out = kernel.enaqt_step(random_density(d, rng), ops)
            assert np.max(np.abs(out - out.conj().T)) <= 1e-13

    def test_linearity(self, rng):
        d = 4
        h = rng.normal(size=(d, d))
        u = linalg.evolution_unitary(0.5 * (h + h.T) * 60, 10.0)
        ops = kernel.build_evolution_operators(random_rates(d, rng, scale=0.05), u)
        r1, r2 = random_density(d, rng), random_density(d, rng)
        a, b = 0.7 - 0.2j, 1.1 + 0.4j
        lhs = kernel.enaqt_step(a * r1 + b * r2, ops)
        rhs = a * kernel.enaqt_step(r1, ops) + b * kernel.enaqt_step(r2, ops)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_trace_drift_is_second_order(self):
        # gamma = Gamma*dt with Gamma fixed; halving dt shrinks drift ~4x
        d = 3
        h = np.array([[100.0, 30.0, 8.0], [30.0, 50.0, 20.0], [8.0, 20.0, 0.0]])
        gamma_rate = np.array(
            [[0.0, 0.004, 0.002], [0.003, 0.0, 0.005], [0.001, 0.002, 0.0]]
        )
        # its own generator, so the state does not depend on the draws of the
        # tests before it: a few states nearly cancel the leading drift at dt = 4
        rho = random_density(d, np.random.default_rng(42))
        drifts = []
        for dt in (8.0, 4.0, 2.0):
            u = linalg.evolution_unitary(h, dt)
            ops = kernel.build_evolution_operators(JumpRateSpec(gamma_rate * dt), u)
            out = kernel.enaqt_step(rho, ops)
            drifts.append(abs(np.trace(out).real - np.trace(rho).real))
        for hi, lo in zip(drifts, drifts[1:]):
            assert 3.0 <= hi / lo <= 5.0


class TestTunableStep:
    def test_chi_one_bit_identical(self, rng):
        d = 3
        rho = random_density(d, rng)
        u = linalg.evolution_unitary(np.diag([0.0, 80.0, 200.0]), 10.0)
        ops = kernel.build_evolution_operators(random_rates(d, rng), u)
        assert np.array_equal(
            kernel.tunable_step(rho, ops, 1.0), kernel.enaqt_step(rho, ops)
        )

    def test_chi_zero_bit_identical_to_unitary(self, rng):
        d = 3
        rho = random_density(d, rng)
        u = linalg.evolution_unitary(np.diag([0.0, 80.0, 200.0]), 10.0)
        ops = kernel.build_evolution_operators(random_rates(d, rng), u)
        assert np.array_equal(
            kernel.tunable_step(rho, ops, 0.0), u @ rho @ u.conj().T
        )

    def test_half_blend_elementwise(self, rng):
        # U = 1: the blend is (1-chi) rho + chi * step(rho), checked entrywise
        p, q = 0.3, 0.1
        rho = random_density(2, rng)
        ops = kernel.build_evolution_operators(
            JumpRateSpec(np.array([[0.0, p], [q, 0.0]])), np.eye(2, dtype=complex)
        )
        out = kernel.tunable_step(rho, ops, 0.5)
        expected = 0.5 * rho + 0.5 * kernel.enaqt_step(rho, ops)
        assert np.max(np.abs(out - expected)) <= 1e-15

    def test_config_validation(self):
        # dt is checked where the time grid is built, chi wherever the blend is made
        ops = kernel.build_evolution_operators(JumpRateSpec(np.zeros((2, 2))), np.eye(2))
        rho, obs = np.diag([1.0, 0.0]).astype(complex), np.eye(2)[None].astype(complex)
        with pytest.raises(ValueError, match="dt must be positive"):
            kernel.propagate(kernel.step_transfer_matrix(ops, 1.0), rho, 0.0, 1, obs)
        for chi in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="chi must lie in"):
                kernel.step_transfer_matrix(ops, chi)
            with pytest.raises(ValueError, match="chi must lie in"):
                kernel.tunable_step(rho, ops, chi)


class TestEvolveTrajectory:
    def _observers(self, d):
        return np.stack([np.diag(row).astype(complex) for row in np.eye(d)])

    def test_zero_steps(self):
        d = 2
        rho = np.diag([1.0, 0.0]).astype(complex)
        ops = kernel.build_evolution_operators(JumpRateSpec(np.zeros((d, d))), np.eye(d))
        traj = kernel.evolve_trajectory(rho, ops, 10.0, 0, self._observers(d))
        assert traj.populations.shape == (1, 2)
        assert traj.populations[0] == pytest.approx([1.0, 0.0])

    def test_stationary_diagonal_state(self):
        d = 3
        u = linalg.evolution_unitary(np.diag([0.0, 100.0, 250.0]), 10.0)
        ops = kernel.build_evolution_operators(JumpRateSpec(np.zeros((d, d))), u)
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        traj = kernel.evolve_trajectory(rho, ops, 10.0, 50, self._observers(d))
        assert np.max(np.abs(traj.populations - traj.populations[0])) <= 1e-12

    def test_matches_manual_loop(self):
        d = 2
        h = np.array([[0.0, 40.0], [40.0, 10.0]])
        u = linalg.evolution_unitary(h, 5.0)
        rates = JumpRateSpec(np.array([[0.0, 0.02], [0.01, 0.0]]))
        ops = kernel.build_evolution_operators(rates, u)
        rho = np.diag([1.0, 0.0]).astype(complex)
        traj = kernel.evolve_trajectory(rho, ops, 5.0, 100, self._observers(d))
        manual = rho.copy()
        for _ in range(100):
            manual = kernel.enaqt_step(manual, ops)
        assert traj.populations[-1] == pytest.approx(np.diag(manual).real, abs=1e-13)
        assert traj.trace[-1] == pytest.approx(np.trace(manual).real, abs=1e-13)

    def test_rejects_invalid_state(self):
        d = 2
        ops = kernel.build_evolution_operators(JumpRateSpec(np.zeros((d, d))), np.eye(d))
        bad = np.diag([1.001, -0.001]).astype(complex)
        with pytest.raises(StateInvalidError):
            kernel.evolve_trajectory(bad, ops, 1.0, 1, self._observers(d))

    def test_time_grid(self):
        d = 2
        ops = kernel.build_evolution_operators(JumpRateSpec(np.zeros((d, d))), np.eye(d))
        rho = np.diag([0.5, 0.5]).astype(complex)
        traj = kernel.evolve_trajectory(rho, ops, 2.5, 4, self._observers(d))
        assert traj.times == pytest.approx([0.0, 2.5, 5.0, 7.5, 10.0])


class TestPropagate:
    def _shipped_like(self, rng, d=4):
        h = rng.normal(size=(d, d))
        u = linalg.evolution_unitary(0.5 * (h + h.T) * 60, 10.0)
        return kernel.build_evolution_operators(random_rates(d, rng, scale=0.05), u)

    def _observers(self, d):
        return np.stack([np.diag(row).astype(complex) for row in np.eye(d)])

    @pytest.mark.parametrize("chi", [0.0, 0.06, 0.5, 1.0])
    def test_transfer_matrix_matches_tunable_step(self, rng, chi):
        ops = self._shipped_like(rng)
        reference = circuit.channel_transfer_matrix(
            lambda r: kernel.tunable_step(r, ops, chi), ops.dim
        )
        assert np.max(np.abs(kernel.step_transfer_matrix(ops, chi) - reference)) <= 1e-14

    def test_chi_zero_is_bare_unitary_product(self, rng):
        ops = self._shipped_like(rng)
        assert np.array_equal(
            kernel.step_transfer_matrix(ops, 0.0), np.kron(ops.unitary, ops.unitary.conj())
        )

    @pytest.mark.parametrize("chi", [0.0, 0.06, 0.5, 1.0])
    def test_blends_a_given_full_step_bit_for_bit(self, rng, chi):
        # the circuit backend's T as T_full: (1 - chi) U (x) conj(U) + chi T bit for
        # bit, and the unblended ends at chi = 0 and 1
        ops = self._shipped_like(rng, 7)
        t_circuit = circuit.circuit_transfer_matrix(circuit.build_step_circuit(ops.rates, ops.unitary))
        coh = np.kron(ops.unitary, ops.unitary.conj())
        expected = {0.0: coh, 1.0: t_circuit}.get(chi, (1.0 - chi) * coh + chi * t_circuit)
        assert np.array_equal(kernel.step_transfer_matrix(ops, chi, full=t_circuit), expected)
        assert not np.array_equal(t_circuit, kernel.step_transfer_matrix(ops, 1.0))

    def test_matches_manual_tunable_step_loop(self, rng):
        d = 4
        ops = self._shipped_like(rng, d)
        dt, chi = 10.0, 0.5
        steps = 2 * kernel.CHUNK + 3
        rho = random_density(d, rng)
        obs = self._observers(d)
        traj = kernel.propagate(kernel.step_transfer_matrix(ops, chi), rho, dt, steps, obs)
        assert traj.populations.shape == (steps + 1, d)
        manual = rho.copy()
        for k in range(steps + 1):
            if k:
                manual = kernel.tunable_step(manual, ops, chi)
            herm = 0.5 * (manual + manual.conj().T)
            assert np.max(np.abs(traj.populations[k] - np.diag(manual).real)) <= 1e-12
            assert abs(traj.trace[k] - np.trace(manual).real) <= 1e-12
            assert abs(traj.min_eig[k] - np.linalg.eigvalsh(herm).min()) <= 1e-12
        assert traj.times[-1] == pytest.approx(steps * dt)

    def test_names_first_invalid_step_in_second_chunk(self):
        # not completely positive: each step moves 1/300 of the trace from
        # |1><1| to |0><0|, so from diag(0.5, 0.5) the |1> population reaches
        # 0 at step 150 and is negative from step 151, inside the second chunk
        a = 1.0 / 300.0
        t = np.eye(4, dtype=complex)
        t[0, [0, 3]] += a
        t[3, [0, 3]] -= a
        first_bad = 151
        assert kernel.CHUNK <= first_bad < 2 * kernel.CHUNK
        rho = np.diag([0.5, 0.5]).astype(complex)
        message = rf"at step {first_bad}: min eigenvalue -3\.3"
        with pytest.raises(StateInvalidError, match=message):
            kernel.propagate(t, rho, 1.0, 3 * kernel.CHUNK, self._observers(2))
        traj = kernel.propagate(t, rho, 1.0, first_bad - 1, self._observers(2))
        assert traj.min_eig[-1] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_mismatched_shapes(self, rng):
        ops = self._shipped_like(rng, 3)
        t = kernel.step_transfer_matrix(ops, 1.0)
        with pytest.raises(DimensionMismatchError):
            kernel.propagate(t, np.eye(2), 1.0, 1, self._observers(3))
        with pytest.raises(DimensionMismatchError):
            kernel.propagate(t, np.eye(3) / 3, 1.0, 1, self._observers(2))
        with pytest.raises(DimensionMismatchError):
            kernel.propagate(t[:8], np.eye(3) / 3, 1.0, 1, self._observers(3))


def test_public_names():
    # dt and chi are plain arguments: the module defines no step-config object
    defined = {name for name, value in vars(kernel).items()
               if not name.startswith("_") and getattr(value, "__module__", None) == kernel.__name__}
    assert defined == {"JumpRateSpec", "EvolutionOperators", "build_evolution_operators", "enaqt_step",
                       "tunable_step", "Trajectory", "step_transfer_matrix", "propagate",
                       "evolve_trajectory"}
