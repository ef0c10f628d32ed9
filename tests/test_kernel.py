
import warnings

import numpy as np
import pytest

from enaqt import circuit, cli, fmo, kernel, linalg
from enaqt.errors import (
    DimensionMismatchError,
    ProbabilityOutOfRangeError,
    StateInvalidError,
    StepTooLargeWarning,
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
        survival, jumps = documented_kraus(np.zeros((d, d)), u)
        t = kernel.step_transfer_matrix(JumpRateSpec(np.zeros((d, d))), u, 1.0)
        assert np.max(np.abs(t - kraus_transfer([survival, *jumps]))) <= 1e-15
        # no jump term: the survival branch alone is U rho U^dag
        assert np.max(np.abs(t - np.kron(u, u.conj()))) <= 1e-15

    def test_two_level_operators(self):
        p, q = 0.2, 0.05
        u = linalg.evolution_unitary(np.array([[0.0, 60.0], [60.0, 0.0]]), 4.0)
        rates = JumpRateSpec(np.array([[0.0, p], [q, 0.0]]))
        e0, e1 = np.eye(2)[0], np.eye(2)[1]
        kraus = [
            np.sqrt(1 - p) * np.outer(e0, e0) @ u + np.sqrt(1 - q) * np.outer(e1, e1) @ u,
            np.sqrt(p) * np.outer(e1, e0),
            np.sqrt(q) * np.outer(e0, e1),
        ]
        t = kernel.step_transfer_matrix(rates, u, 1.0)
        assert np.allclose(t, kraus_transfer(kraus))

    def test_completeness_dim7(self, rng):
        d = 7
        u = linalg.evolution_unitary(np.diag(rng.normal(size=d) * 100), 10.0)
        rates = random_rates(d, rng, scale=0.1)
        # completeness is a property of the unprimed operators: undo U first;
        # then sum M^dag M = 1 is trace preservation, sum_n T[n(d+1), :] = vec(1)
        bare = kernel.step_transfer_matrix(rates, np.eye(d, dtype=complex), 1.0)
        assert np.max(np.abs(bare[:: d + 1].sum(axis=0) - np.eye(d).reshape(-1))) <= 1e-12

    def test_jump_ops_rank_one(self, rng):
        d = 5
        rates = random_rates(d, rng, scale=0.05)
        survival, jumps = documented_kraus(rates.gamma, np.eye(d, dtype=complex))
        for op in jumps:
            assert np.linalg.matrix_rank(op) == 1
        # with U = 1 the jump branch is the channel minus its survival branch;
        # its Choi matrix is that of the rank-one family above
        t = kernel.step_transfer_matrix(rates, np.eye(d, dtype=complex), 1.0) - kraus_transfer([survival])
        choi = circuit.channel_choi(lambda r: (t @ r.reshape(-1)).reshape(d, d), d)
        vecs = [k.T.reshape(-1) for k in jumps]  # Choi index (c, a) holds K[a, c]
        assert np.max(np.abs(choi - sum(np.outer(v, v.conj()) for v in vecs))) <= 1e-15

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            kernel.build_evolution_operators(random_rates(3, rng), np.eye(4))

    def test_transfer_matrix_dimension_mismatch(self, rng):
        # the unitary must match the rates, whatever the chi
        for chi in (0.0, 0.5, 1.0):
            with pytest.raises(DimensionMismatchError, match="unitary shape"):
                kernel.step_transfer_matrix(random_rates(3, rng), np.eye(4), chi)


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
            kernel.propagate(kernel.step_transfer_matrix(ops.rates, ops.unitary, 1.0), rho, 0.0, 1, obs)
        for chi in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="chi must lie in"):
                kernel.step_transfer_matrix(ops.rates, ops.unitary, chi)
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


def shipped_step_model(dt=10.0):
    return fmo.StepModel(fmo.load_model(fmo.default_model_path()), dt)


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
        assert np.max(np.abs(kernel.step_transfer_matrix(ops.rates, ops.unitary, chi) - reference)) <= 1e-14

    def test_chi_zero_is_bare_unitary_product(self, rng):
        ops = self._shipped_like(rng)
        assert np.array_equal(
            kernel.step_transfer_matrix(ops.rates, ops.unitary, 0.0), np.kron(ops.unitary, ops.unitary.conj())
        )

    @pytest.mark.parametrize("chi", [0.0, 0.06, 0.5, 1.0])
    def test_blends_a_given_full_step_bit_for_bit(self, rng, chi):
        # the circuit backend's T as T_full: (1 - chi) U (x) conj(U) + chi T bit for
        # bit, and the unblended ends at chi = 0 and 1
        ops = self._shipped_like(rng, 7)
        t_circuit = circuit.circuit_transfer_matrix(circuit.build_step_circuit(ops.rates, ops.unitary))
        coh = np.kron(ops.unitary, ops.unitary.conj())
        expected = {0.0: coh, 1.0: t_circuit}.get(chi, (1.0 - chi) * coh + chi * t_circuit)
        assert np.array_equal(kernel.step_transfer_matrix(ops.rates, ops.unitary, chi, full=t_circuit), expected)
        assert not np.array_equal(t_circuit, kernel.step_transfer_matrix(ops.rates, ops.unitary, 1.0))

    @pytest.mark.parametrize("chi", [0.06, 0.5, 1.0])
    def test_transfer_matrix_equals_kron_form(self, rng, chi):
        # the broadcast products give the bits of the np.kron closed form (chi = 0: above)
        ops = self._shipped_like(rng, 7)
        coh = np.kron(ops.unitary, ops.unitary.conj())
        full = np.kron(ops.survival, ops.survival)[:, None] * coh
        pops = np.arange(ops.dim) * (ops.dim + 1)
        full[np.ix_(pops, pops)] += ops.rates.gamma.T
        expected = {0.0: coh, 1.0: full}.get(chi, (1.0 - chi) * coh + chi * full)
        assert np.array_equal(kernel.step_transfer_matrix(ops.rates, ops.unitary, chi), expected)

    def test_matches_manual_tunable_step_loop(self, rng):
        d = 4
        ops = self._shipped_like(rng, d)
        dt, chi = 10.0, 0.5
        steps = 2 * kernel.CHUNK + 3
        rho = random_density(d, rng)
        obs = self._observers(d)
        traj = kernel.propagate(kernel.step_transfer_matrix(ops.rates, ops.unitary, chi), rho, dt, steps, obs)
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

    @staticmethod
    def _leaking(a):
        """Not completely positive: each step moves a times the trace from |1><1| to |0><0|."""
        t = np.eye(4, dtype=complex)
        t[0, [0, 3]] += a
        t[3, [0, 3]] -= a
        return t

    def test_names_first_invalid_step_in_second_chunk(self):
        # not completely positive: each step moves 1/300 of the trace from
        # |1><1| to |0><0|, so from diag(0.5, 0.5) the |1> population reaches
        # 0 at step 150 and is negative from step 151, inside the second chunk
        t = self._leaking(1.0 / 300.0)
        first_bad = 151
        assert kernel.CHUNK <= first_bad < 2 * kernel.CHUNK
        rho = np.diag([0.5, 0.5]).astype(complex)
        message = rf"at step {first_bad}: min eigenvalue -3\.3"
        with pytest.raises(StateInvalidError, match=message):
            kernel.propagate(t, rho, 1.0, 3 * kernel.CHUNK, self._observers(2))
        traj = kernel.propagate(t, rho, 1.0, first_bad - 1, self._observers(2))
        assert traj.min_eig[-1] == pytest.approx(0.0, abs=1e-12)

    def test_chunks_stop_before_the_failing_chunk(self):
        # only checked chunks are yielded: the first chunk, then the error in the second
        t, rho = self._leaking(1.0 / 300.0), np.diag([0.5, 0.5]).astype(complex)
        run = kernel.chunks(t, rho, 3 * kernel.CHUNK, self._observers(2))
        start, pops, trace, min_eig = next(run)
        assert start == 0 and pops.shape == (kernel.CHUNK, 2) and min_eig.min() >= 0.0
        with pytest.raises(StateInvalidError, match="at step 151: "):
            next(run)

    def test_cli_run_failing_in_second_chunk_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # a 2-site model stepped by the leaking T from site 2: the |1> population is
        # 1 - k / 150, negative from step 151, in the second chunk
        model = tmp_path / "toy.json"
        model.write_text('{"site_energies_cm1": [0, 0], "couplings_cm1": [[0, 0], [0, 0]], '
                         '"sink_sites": [2], "bath": {"rates_per_fs": [[0, 0], [0, 0]]}}')
        monkeypatch.setattr(fmo.StepModel, "transfer_matrix", lambda *_: self._leaking(1.0 / 150.0))
        argv = ["simulate", "--config", str(model), "--initial-site", "2", "--steps", "300"]
        out = tmp_path / "t.csv"
        assert cli.main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "invalid at step 151: " in err[0]
        assert not out.exists()
        # on stdout the rows of the one checked chunk stay, then the one-line error
        assert cli.main(argv) == 2
        printed = capsys.readouterr()
        rows = [line for line in printed.out.splitlines() if not line.startswith("#")][1:]
        assert len(rows) == kernel.CHUNK and rows[-1].startswith(f"{10.0 * (kernel.CHUNK - 1):.17g},")
        assert len(printed.err.splitlines()) == 1

    @pytest.mark.parametrize("record", [True, False])
    def test_positivity_boundary_is_eigvalsh_criterion(self, record, monkeypatch):
        # min_eig exactly -STATE_TOL passes and -2 STATE_TOL fails, with or without recording,
        # on a certified T (the identity: without recording, only rho0 and the last state are
        # checked) and on an uncertified one (a coherence leak that breaks hermiticity
        # preservation and leaves these diagonal states as they are: every state is checked).
        # Either way a run of one chunk makes one batched eigvalsh call
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counted(a):
            calls.append(len(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        tol, obs, leaky = kernel.STATE_TOL, self._observers(2), np.eye(4, dtype=complex)
        leaky[1, 2] = 1e-3
        assert kernel._channel_certified(np.eye(4), 5) and not kernel._channel_certified(leaky, 5)
        for t, checked in ((np.eye(4, dtype=complex), 6 if record else 2), (leaky, 6)):
            for depth in (0.0, tol):
                calls.clear()
                rho = np.diag([1.0 + depth, -depth]).astype(complex)
                traj = kernel.propagate(t, rho, 1.0, 5, obs, record_min_eig=record)
                assert calls == [checked]
                assert np.array_equal(traj.populations, np.tile([1.0 + depth, -depth], (6, 1)))
                if record:
                    assert traj.min_eig.min() == -depth
            with pytest.raises(StateInvalidError, match=r"at step 0: min eigenvalue -2\.000e-06"):
                kernel.propagate(t, np.diag([1.0 + 2 * tol, -2 * tol]).astype(complex), 1.0, 5, obs,
                                 record_min_eig=record)

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), np.inf], ids=["nan", "nan-imaginary", "inf"])
    def test_non_finite_rho0_fails_at_step_0(self, bad, record):
        # eig >= -STATE_TOL and herm <= STATE_TOL are both false for nan, so a state with an inf or
        # nan entry fails, here under a certified T (with no record, the end-state path), with no
        # numpy warning (a warning is an error here); eigvalsh need not converge on such an entry
        for entry in ((1, 1), (0, 1)):
            rho = np.diag([0.5, 0.5]).astype(complex)
            rho[entry] = bad
            with pytest.raises(StateInvalidError, match=r"^state invalid at step 0: min eigenvalue nan, "
                                                        r"hermiticity defect (nan|inf) "):
                kernel.propagate(np.eye(4, dtype=complex), rho, 1.0, 300, self._observers(2), record_min_eig=record)

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_state_of_an_uncertified_map_fails_at_its_step(self, bad, record):
        t = np.eye(4, dtype=complex)
        t[3, 3] = bad  # rho_11 <- bad rho_11: every state after rho0 has an inf or nan entry
        with np.errstate(invalid="ignore"):  # chunks asks for the certificate under its own error state
            assert not kernel._channel_certified(t, 300)
        with pytest.raises(StateInvalidError, match=r"^state invalid at step 1: min eigenvalue nan, "):
            kernel.propagate(t, np.diag([0.5, 0.5]).astype(complex), 1.0, 300, self._observers(2),
                             record_min_eig=record)

    @pytest.mark.parametrize("record", [True, False])
    def test_state_of_an_overflowing_lane_power_names_the_power(self, record):
        # the coherences of T scale by 1e200: T^2 overflows, while the populations, all rho0 has, stay put
        t = np.diag([1.0, 1e200, 1e200, 1.0]).astype(complex)
        rho0 = np.diag([0.5, 0.5]).astype(complex)
        assert len(kernel.propagate(t, rho0, 1.0, 1, self._observers(2), record_min_eig=record).trace) == 2
        with pytest.raises(StateInvalidError, match=r"^the state at step 2 cannot be computed: T\^2, "):
            kernel.propagate(t, rho0, 1.0, 300, self._observers(2), record_min_eig=record)

    @pytest.mark.parametrize("record", [True, False])
    def test_state_whose_hermitian_part_overflows_fails_at_its_step(self, record, monkeypatch):
        # T = 2 1 doubles every entry: at step 1024 the diagonal is 2^1023, finite, but the
        # hermitized sum of two such entries passes the float range, so eigvalsh never sees it
        eigvalsh = np.linalg.eigvalsh

        def finite_only(a):
            assert np.isfinite(a).all()
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", finite_only)
        with pytest.raises(StateInvalidError, match=r"^state invalid at step 1024: min eigenvalue nan, "
                                                    r"hermiticity defect 0\.000e\+00 "):
            kernel.propagate(2 * np.eye(4, dtype=complex), np.diag([0.5, 0.5]).astype(complex), 1.0, 1024,
                             self._observers(2), record_min_eig=record)

    @pytest.mark.parametrize("record", [True, False])
    def test_certified_run_checks_hermiticity(self, record):
        # a state that fails only the hermiticity check is caught, whether T is certified or not
        rho = np.array([[0.5, 1e-5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(StateInvalidError, match=r"at step 0: .* hermiticity defect 1\.000e-05"):
            kernel.propagate(np.eye(4, dtype=complex), rho, 1.0, 2, self._observers(2),
                             record_min_eig=record)

    @staticmethod
    def _stepped(t, rho, steps, obs):
        """Plain reference: one T @ v per step; populations, trace and min_eig of every state."""
        d, v, rows = len(rho), rho.reshape(-1).astype(complex), []
        for k in range(steps + 1):
            if k:
                v = t @ v
            m = v.reshape(d, d)
            rows.append([*np.einsum("oij,ji->o", obs, m).real, np.trace(m).real,
                         np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()])
        rows = np.array(rows)
        return rows[:, :-2], rows[:, -2], rows[:, -1]

    def _assert_matches_stepped(self, traj, t, rho, obs):
        pops, trace, min_eig = self._stepped(t, rho, len(traj.times) - 1, obs)
        assert np.max(np.abs(traj.populations - pops)) <= 1e-12
        assert np.max(np.abs(traj.trace - trace)) <= 1e-12
        assert np.max(np.abs(traj.min_eig - min_eig)) <= 1e-12

    @pytest.mark.parametrize("members", [1, 3, 9])
    def test_lanes_match_per_step_reference(self, rng, members):
        # over three chunks and a partial fourth, one run per chi of the members
        ops, d = self._shipped_like(rng), 4
        rho, obs = random_density(d, rng), self._observers(d)
        steps = 3 * kernel.CHUNK + 5
        for chi in np.linspace(0.0, 1.0, members):
            t = kernel.step_transfer_matrix(ops.rates, ops.unitary, chi)
            traj = kernel.propagate(t, rho, 10.0, steps, obs)
            assert traj.populations.shape == (steps + 1, d)
            self._assert_matches_stepped(traj, t, rho, obs)

    @pytest.mark.parametrize("steps", [0, 1, kernel.LANES - 1, kernel.LANES, kernel.LANES + 1,
                                       kernel.CHUNK - 1, kernel.CHUNK, kernel.CHUNK + 1])
    def test_lane_edge_step_counts(self, rng, steps):
        ops, d = self._shipped_like(rng), 4
        t, rho, obs = kernel.step_transfer_matrix(ops.rates, ops.unitary, 0.5), random_density(d, rng), self._observers(d)
        traj = kernel.propagate(t, rho, 10.0, steps, obs)
        assert traj.populations.shape == (steps + 1, d)
        assert traj.times[-1] == pytest.approx(steps * 10.0)
        self._assert_matches_stepped(traj, t, rho, obs)

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("first_bad", [3 * kernel.LANES - 1, 3 * kernel.LANES])
    def test_names_first_invalid_step_at_lane_boundary(self, members, first_bad, record):
        # one run per member, of which the middle one leaks: from diag(0.5, 0.5)
        # its |1> population is 0.5 - k a at step k, negative from first_bad: the
        # last lane of a block, or the first lane of the next
        a = 0.5 / (first_bad - 0.5)
        rho, obs = np.diag([0.5, 0.5]).astype(complex), self._observers(2)
        for b in range(members):
            t = self._leaking(a if b == members // 2 else 0.0)
            if b != members // 2:
                kernel.propagate(t, rho, 1.0, 3 * kernel.CHUNK, obs, record_min_eig=record)
                continue
            with pytest.raises(StateInvalidError, match=f"step {first_bad}:"):
                kernel.propagate(t, rho, 1.0, 3 * kernel.CHUNK, obs, record_min_eig=record)
            # the bad state shares its lane block with the last checked one, and is not checked
            traj = kernel.propagate(t, rho, 1.0, first_bad - 1, obs, record_min_eig=record)
            assert traj.populations.shape[0] == first_bad

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("steps", [0, 1, 15, 16, 17, 127, 128, 129, 255, 256])
    def test_concatenated_chunks_are_propagate(self, rng, members, steps, record):
        # one run per chi of the members
        ops, d = self._shipped_like(rng), 4
        rho, obs = random_density(d, rng), self._observers(d)
        for chi in np.linspace(0.06, 1.0, members):
            t = kernel.step_transfer_matrix(ops.rates, ops.unitary, chi)
            starts, pops, trace, min_eig = zip(*kernel.chunks(t, rho, steps, obs, record))
            sizes = [len(tr) for tr in trace]
            assert all(p.shape == (size, d) and tr.shape == (size,) for p, tr, size in zip(pops, trace, sizes))
            assert list(starts) == list(np.cumsum([0, *sizes[:-1]])) and sum(sizes) == steps + 1
            assert all(size == kernel.CHUNK for size in sizes[:-1])
            traj = kernel.propagate(t, rho, 10.0, steps, obs, record)
            assert np.array_equal(np.concatenate(pops), traj.populations)
            assert np.array_equal(np.concatenate(trace), traj.trace)
            if record:
                assert np.array_equal(np.concatenate(min_eig), traj.min_eig)
            else:
                assert set(min_eig) == {None} and traj.min_eig is None

    def test_row_bits_do_not_depend_on_run_length(self):
        # the population and trace products run over whole lane blocks, so no row
        # is computed alone (numpy takes another BLAS route for a one-row product)
        step_model = shipped_step_model()
        run = (step_model.initial_state(1), 10.0)
        for t in (step_model.transfer_matrix(c) for c in (0.0, 0.06, 0.5, 1.0)):
            full = kernel.propagate(t, *run, 300, step_model.observers)
            for k in (0, 1, 15, 16, 17, 127, 128, 129, 256):
                short = kernel.propagate(t, *run, k, step_model.observers)
                assert np.array_equal(short.populations[k], full.populations[k])
                assert short.trace[k] == full.trace[k]
                assert short.min_eig[k] == full.min_eig[k]

    def test_long_run_keeps_trace_and_reference(self):
        # 4e4 shipped steps at chi = 0.06: lanes stay within 1e-10 of one T @ v per step
        step_model, steps = shipped_step_model(), 40_000
        t, rho, obs = step_model.transfer_matrix(0.06), step_model.initial_state(1), step_model.observers
        traj = kernel.propagate(t, rho, 10.0, steps, obs, record_min_eig=False)
        assert np.max(np.abs(traj.trace - 1.0)) <= 1e-10
        cols = obs.transpose(0, 2, 1).reshape(len(obs), -1).T
        v, pops = rho.reshape(-1), np.empty((steps + 1, len(obs)))
        for k in range(steps + 1):
            if k:
                v = t @ v
            pops[k] = (v @ cols).real
        assert np.max(np.abs(traj.populations - pops)) <= 1e-10

    def test_rejects_mismatched_shapes(self, rng):
        ops = self._shipped_like(rng, 3)
        t = kernel.step_transfer_matrix(ops.rates, ops.unitary, 1.0)
        with pytest.raises(DimensionMismatchError):
            kernel.propagate(np.empty((0, 9, 9)), np.eye(3) / 3, 1.0, 1, self._observers(3))
        with pytest.raises(DimensionMismatchError):  # a stack of T
            kernel.propagate(t[None], np.eye(3) / 3, 1.0, 1, self._observers(3))
        with pytest.raises(DimensionMismatchError):
            kernel.propagate(t[None, None], np.eye(3) / 3, 1.0, 1, self._observers(3))
        with pytest.raises(DimensionMismatchError):
            kernel.propagate(t, np.eye(2), 1.0, 1, self._observers(3))
        with pytest.raises(DimensionMismatchError):
            kernel.propagate(t, np.eye(3) / 3, 1.0, 1, self._observers(2))
        with pytest.raises(DimensionMismatchError):
            kernel.propagate(t[:8], np.eye(3) / 3, 1.0, 1, self._observers(3))



class TestChannelCertificate:
    """chunks steps a certified map without per-state checks when it records no min_eig."""

    @staticmethod
    def _defects(t):
        """(smallest Choi eigenvalue, TP defect, HP defect) of a row-major T."""
        d, choi = 7, linalg.choi_from_transfer(t)
        tp = np.abs(t[::d + 1].sum(axis=0) - np.eye(d).ravel()).max()
        return np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min(), tp, linalg.herm_defect(choi)

    @pytest.mark.parametrize("backend", ["operator", "circuit"])
    @pytest.mark.parametrize("dt", [1.0, 10.0])
    @pytest.mark.parametrize("chi", [0.0, 0.06, 1.0])
    def test_accepts_the_operator_and_circuit_steps(self, backend, dt, chi):
        # measured: smallest Choi eigenvalue -1.77e-15, TP defect 6.7e-16, HP defect 1.12e-16
        t = shipped_step_model(dt).transfer_matrix(chi, backend)
        min_eig, tp, hp = self._defects(t)
        assert min_eig >= -1.8e-15 and tp <= 6.7e-16 and hp <= 1.2e-16
        assert kernel._channel_certified(t, 1000)

    @pytest.mark.parametrize("dt, chi, below", [(1.0, 0.0, -4.8e-8), (1.0, 0.06, -4.5e-8), (10.0, 0.0, -3.9e-3),
                                                (10.0, 0.06, -3.9e-3), (10.0, 1.0, -3.9e-3)])
    def test_rejects_the_rk4_step_that_is_not_cp(self, dt, chi, below):
        # measured: -4.87e-8 and -4.60e-8 at 1 fs; -3.97e-3, -3.99e-3 and -4.42e-3 at 10 fs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepTooLargeWarning)
            t = shipped_step_model(dt).transfer_matrix(chi, "lindblad-oracle")
        assert self._defects(t)[0] < below
        assert not kernel._channel_certified(t, 1000)

    def test_accepts_the_rk4_step_with_full_dissipation_at_1_fs(self):
        # its smallest Choi eigenvalue is +1.98e-8: the sweep smoke run steps it certified
        assert kernel._channel_certified(shipped_step_model(1.0).transfer_matrix(1.0, "lindblad-oracle"), 1000)

    def test_rejects_a_map_that_is_not_trace_preserving(self):
        t = 0.9 * shipped_step_model().transfer_matrix(1.0)
        assert kernel._channel_certified(t / 0.9, 1000)
        # still CP and HP, each well inside CHANNEL_TOL: the TP check alone rejects it
        min_eig, tp, hp = self._defects(t)
        assert min_eig >= -1.8e-15 and hp <= 1.2e-16 and tp == pytest.approx(0.1)
        assert not kernel._channel_certified(t, 1000)

    def test_rejects_a_map_that_breaks_hermiticity_preservation(self):
        # T[(0,1),(0,2)] is the Choi entry [0, 15], whose mirror [15, 0] is T[(1,0),(2,0)]: moved
        # by +1e-9 and -1e-9, they leave the Choi matrix's hermitian part and the TP rows alone
        t = shipped_step_model().transfer_matrix(1.0)
        t[1, 2] += 1e-9
        t[7, 14] -= 1e-9
        assert linalg.herm_defect(linalg.choi_from_transfer(t)) == pytest.approx(2e-9)
        min_eig, tp, _ = self._defects(t)
        assert min_eig >= -1.8e-15 and tp <= 6.7e-16
        assert not kernel._channel_certified(t, 1000)

    def test_drift_guard_bounds_the_run_length(self):
        # steps (CHANNEL_TOL + d^2 eps) may not pass STATE_TOL / 10: about 98,900 steps at d = 7
        t = shipped_step_model().transfer_matrix(1.0)
        limit = int(kernel.STATE_TOL / 10 / (kernel.CHANNEL_TOL + 49 * np.finfo(float).eps))
        assert kernel._channel_certified(t, limit) and not kernel._channel_certified(t, limit + 1)

    def test_smuggled_negative_gamma_fails_at_its_first_bad_step(self):
        # a negative gamma, set past JumpRateSpec's checks, gives a T that is neither CP nor TP;
        # the run falls back to per-state checks and names the same step as a recorded run
        step_model = shipped_step_model()
        rates = kernel.JumpRateSpec(step_model.rates.gamma)
        gamma = rates.gamma.copy()
        gamma[0, 1] = -0.05
        object.__setattr__(rates, "gamma", gamma)
        t = kernel.step_transfer_matrix(rates, step_model.unitary, 1.0)
        assert not kernel._channel_certified(t, 400)
        for record in (True, False):
            with pytest.raises(StateInvalidError, match=r"at step 23: min eigenvalue -2\.297e-03"):
                kernel.propagate(t, step_model.initial_state(1), 10.0, 400, step_model.observers, record_min_eig=record)

    def test_certified_rows_equal_uncertified_rows(self, monkeypatch):
        step_model = shipped_step_model()
        checked, check, certify = [], kernel._check_states, kernel._channel_certified

        def spy(states, at, *args):
            checked.extend(at)
            return check(states, at, *args)

        monkeypatch.setattr(kernel, "_check_states", spy)
        for chi in (0.0, 0.06, 1.0):
            run = (step_model.transfer_matrix(chi), step_model.initial_state(1), 10.0, 300, step_model.observers)
            monkeypatch.setattr(kernel, "_channel_certified", certify)
            checked.clear()
            certified = kernel.propagate(*run, record_min_eig=False)
            assert checked == [0, 300]  # rho0 and the last state, each in its own chunk
            monkeypatch.setattr(kernel, "_channel_certified", lambda t, steps: False)
            checked.clear()
            forced_off = kernel.propagate(*run, record_min_eig=False)
            assert checked == list(range(301))
            assert np.array_equal(certified.populations, forced_off.populations)
            assert np.array_equal(certified.trace, forced_off.trace)

    @pytest.mark.parametrize("rho0, message", [
        (np.diag([1.0 + 2e-6, -2e-6, 0, 0, 0, 0, 0]), r"at step 0: min eigenvalue -2\.000e-06, "),
        (np.diag([0.5, 0.5, 0, 0, 0, 0, 0]) + 1e-5 * np.eye(7, k=1), r"at step 0: .* hermiticity defect 1\.000e-05"),
    ], ids=["negative", "non-hermitian"])
    def test_invalid_rho0_fails_at_step_0_with_a_certified_map(self, rho0, message):
        step_model = shipped_step_model()
        t = step_model.transfer_matrix(0.06)
        assert kernel._channel_certified(t, 300)
        with pytest.raises(StateInvalidError, match=message):
            next(kernel.chunks(t, rho0.astype(complex), 300, step_model.observers, record_min_eig=False))


def test_public_names():
    # dt and chi are plain arguments: the module defines no step-config object
    defined = {name for name, value in vars(kernel).items()
               if not name.startswith("_") and getattr(value, "__module__", None) == kernel.__name__}
    assert defined == {"JumpRateSpec", "EvolutionOperators", "build_evolution_operators", "enaqt_step",
                       "tunable_step", "Trajectory", "step_transfer_matrix", "chunks", "propagate",
                       "evolve_trajectory"}
