import warnings

import numpy as np
import pytest

from enaqt import fmo, kernel, lindblad, linalg
from enaqt.errors import DimensionMismatchError, StepTooLargeWarning
from enaqt.lindblad import LindbladModel

RNG = np.random.default_rng(99)


def random_density(d, rng=RNG):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def transition(d, n, m):
    op = np.zeros((d, d), dtype=complex)
    op[n, m] = 1.0
    return op


class TestLindbladRhs:
    def test_zero_model(self):
        model = LindbladModel(hamiltonian=np.zeros((3, 3)))
        assert np.allclose(lindblad.lindblad_rhs(random_density(3), model), 0.0)

    def test_single_jump_on_source_state(self):
        # L = |1><0| at rate G acting on |0><0|: gain on |1>, loss on |0>
        g = 0.37
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2)), jumps=((transition(2, 1, 0), g),)
        )
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = lindblad.lindblad_rhs(rho, model)
        assert np.allclose(out, g * np.diag([-1.0, 1.0]), atol=1e-15)

    def test_dissipator_is_trace_free(self):
        d = 4
        jumps = tuple(
            (transition(d, n, m), RNG.uniform(0.001, 0.01))
            for m in range(d)
            for n in range(d)
            if m != n
        )
        h = RNG.normal(size=(d, d))
        model = LindbladModel(hamiltonian=0.5 * (h + h.T) * 100, jumps=jumps)
        out = lindblad.lindblad_rhs(random_density(d), model)
        assert abs(np.trace(out)) <= 1e-14

    def test_against_term_assembly(self):
        # independent oracle: assemble commutator + dissipator term by term
        d = 3
        rho = random_density(d)
        h = np.array([[120.0, 40.0, 0.0], [40.0, 60.0, 25.0], [0.0, 25.0, 0.0]])
        jumps = (
            (transition(d, 1, 0), 0.004),
            (transition(d, 2, 1), 0.002),
            (transition(d, 0, 2), 0.003),
        )
        model = LindbladModel(hamiltonian=h, jumps=jumps)
        expected = (-1j / linalg.HBAR_CM1_FS) * (h @ rho - rho @ h)
        for op, rate in jumps:
            anticomm = op.conj().T @ op @ rho + rho @ op.conj().T @ op
            expected = expected + rate * (op @ rho @ op.conj().T - 0.5 * anticomm)
        out = lindblad.lindblad_rhs(rho, model)
        assert np.max(np.abs(out - expected)) <= 1e-16

    def test_dimension_mismatch(self):
        model = LindbladModel(hamiltonian=np.zeros((3, 3)))
        with pytest.raises(DimensionMismatchError):
            lindblad.lindblad_rhs(np.eye(2), model)


def stage_by_stage_rk4(rho, model, dt, steps):
    """Reference: four lindblad_rhs stages per step, hermitized after each step."""
    pops, trace, min_eig = [], [], []

    def record(r):
        pops.append(np.diag(r).real.copy())
        trace.append(np.trace(r).real)
        min_eig.append(np.linalg.eigvalsh(r).min())

    record(rho)
    for _ in range(steps):
        k1 = lindblad.lindblad_rhs(rho, model)
        k2 = lindblad.lindblad_rhs(rho + 0.5 * dt * k1, model)
        k3 = lindblad.lindblad_rhs(rho + 0.5 * dt * k2, model)
        k4 = lindblad.lindblad_rhs(rho + dt * k3, model)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        record(rho)
    return np.array(pops), np.array(trace), np.array(min_eig), rho


def shipped_exciton_model(dt):
    """The shipped FMO model in its exciton basis, rates per fs from the step-dt table."""
    model = fmo.load_model(fmo.default_model_path())
    basis = fmo.exciton_basis(fmo.site_hamiltonian(model.hamiltonian))
    rates = fmo.jump_rates(basis, model.bath(), dt)
    h = np.diag(basis.energies_cm1).astype(complex)
    return LindbladModel.from_rate_matrix(h, rates.gamma / dt)


class TestRk4Integrate:
    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_matches_stage_by_stage_loop(self, d):
        h = RNG.normal(size=(d, d)) * 80.0
        rates = RNG.uniform(0.0, 0.01, size=(d, d))
        np.fill_diagonal(rates, 0.0)
        model = LindbladModel.from_rate_matrix(0.5 * (h + h.T), rates)
        rho = random_density(d)
        dt, steps = 0.5, 300
        pops, trace, min_eig, final = stage_by_stage_rk4(rho, model, dt, steps)
        traj = lindblad.rk4_integrate(rho, model, dt, steps)
        assert np.max(np.abs(traj.populations - pops)) <= 1e-12
        assert np.max(np.abs(traj.trace - trace)) <= 1e-12
        assert np.max(np.abs(traj.min_eig - min_eig)) <= 1e-12
        assert np.max(np.abs(traj.metadata["final_state"] - final)) <= 1e-12
        assert np.array_equal(traj.metadata["final_state"], traj.metadata["final_state"].conj().T)
        assert np.array_equal(traj.times, np.arange(steps + 1) * dt)

    def test_warns_once_on_coarse_step_only(self):
        coarse = shipped_exciton_model(10.0)
        rho = np.diag(np.eye(7)[0]).astype(complex)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lindblad.rk4_integrate(rho, coarse, 10.0, 50)
        assert [w.category for w in caught] == [StepTooLargeWarning]
        assert caught[0].filename == __file__  # points at the caller of rk4_integrate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lindblad.rk4_integrate(rho, coarse, 0.5, 50)

    def test_diagonal_hamiltonian_keeps_populations(self):
        model = LindbladModel(hamiltonian=np.diag([0.0, 150.0, 400.0]))
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        traj = lindblad.rk4_integrate(rho, model, 1.0, 200)
        assert np.max(np.abs(traj.populations - traj.populations[0])) <= 1e-12

    def test_exponential_decay(self):
        # decay |1> -> |0> at rate G: excited population follows exp(-G t)
        g = 0.01  # fs^-1
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2)), jumps=((transition(2, 0, 1), g),)
        )
        rho = np.diag([0.0, 1.0]).astype(complex)
        dt = (1.0 / g) / 1000.0
        traj = lindblad.rk4_integrate(rho, model, dt, 1000)
        assert traj.populations[-1, 1] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_fourth_order_self_convergence(self):
        d = 3
        h = np.array([[120.0, 40.0, 0.0], [40.0, 60.0, 25.0], [0.0, 25.0, 0.0]])
        jumps = ((transition(d, 1, 0), 0.004), (transition(d, 0, 2), 0.006))
        model = LindbladModel(hamiltonian=h, jumps=jumps)
        rho = random_density(d)
        t_final = 400.0

        def final(dt):
            traj = lindblad.rk4_integrate(rho, model, dt, int(round(t_final / dt)))
            return traj.metadata["final_state"]

        ref = final(0.125)
        err_coarse = np.linalg.norm(final(4.0) - ref)
        err_fine = np.linalg.norm(final(2.0) - ref)
        assert 11.0 <= err_coarse / err_fine <= 21.0

    def test_trace_conserved_over_long_run(self):
        model = LindbladModel(
            hamiltonian=np.array([[0.0, 30.0], [30.0, 10.0]]),
            jumps=((transition(2, 0, 1), 0.002), (transition(2, 1, 0), 0.001)),
        )
        traj = lindblad.rk4_integrate(random_density(2), model, 1.0, 10_000)
        assert np.max(np.abs(traj.trace - 1.0)) <= 1e-9

    def test_dephasing_fixed_point(self):
        # projector jumps with diagonal H leave every population untouched
        d = 3
        jumps = tuple((np.diag(np.eye(d)[k]).astype(complex), 0.01) for k in range(d))
        model = LindbladModel(hamiltonian=np.diag([0.0, 90.0, 260.0]), jumps=jumps)
        rho = random_density(d)
        traj = lindblad.rk4_integrate(rho, model, 1.0, 500)
        assert np.max(np.abs(traj.populations - traj.populations[0])) <= 1e-10

    def test_warns_on_coarse_step(self):
        model = LindbladModel(
            hamiltonian=np.array([[0.0, 500.0], [500.0, 0.0]]),
            jumps=((transition(2, 1, 0), 0.5),),
        )
        with pytest.warns(StepTooLargeWarning):
            lindblad.rk4_integrate(random_density(2), model, 10.0, 2)


class TestRateMatrixRoundTrip:
    def test_round_trip(self):
        rates = np.array([[0.0, 0.004, 0.001], [0.002, 0.0, 0.0], [0.0, 0.003, 0.0]])
        model = LindbladModel.from_rate_matrix(np.diag([0.0, 50.0, 170.0]), rates)
        assert np.allclose(model.transition_rate_matrix(), rates)

    def test_rejects_non_transition_jump(self):
        op = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        model = LindbladModel(hamiltonian=np.zeros((2, 2)), jumps=((op, 0.1),))
        with pytest.raises(ValueError):
            model.transition_rate_matrix()


class TestFinalState:
    @staticmethod
    def matvec_loop(t, rho0, steps):
        v = rho0.reshape(-1)
        for _ in range(steps):
            v = t @ v
        return v.reshape(rho0.shape)

    @pytest.mark.parametrize("which", ["rk4", "kernel"])
    def test_powered_matches_matvec_loop(self, which):
        model = shipped_exciton_model(5.0)
        if which == "rk4":
            t = lindblad._rk4_transfer_matrix(model, 0.5)
        else:
            u = linalg.evolution_unitary(model.hamiltonian, 5.0)
            rates = kernel.JumpRateSpec(model.transition_rate_matrix() * 5.0)
            t = kernel.step_transfer_matrix(kernel.build_evolution_operators(rates, u), 1.0)
        rho0 = random_density(7)
        expected = self.matvec_loop(t, rho0, 4000)
        powered = lindblad._final_state(t, rho0, 4000)
        assert np.linalg.norm(powered - expected) <= 1e-10 * np.linalg.norm(expected)


class TestConvergenceReport:
    def test_zero_rates_match_unitary(self):
        h = np.array([[0.0, 70.0], [70.0, 30.0]])
        model = LindbladModel.from_rate_matrix(h, np.zeros((2, 2)))
        rho = np.diag([1.0, 0.0]).astype(complex)
        report = lindblad.convergence_report(model, rho, 200.0, [4.0, 2.0, 1.0])
        assert all(dist <= 1e-9 for _, dist in report.rows)

    def test_first_order_ratio_dim2(self):
        h = np.array([[0.0, 70.0], [70.0, 30.0]])
        rates = np.array([[0.0, 0.005], [0.002, 0.0]])
        model = LindbladModel.from_rate_matrix(h, rates)
        rho = np.diag([1.0, 0.0]).astype(complex)
        report = lindblad.convergence_report(model, rho, 1000.0, [4.0, 2.0, 1.0])
        dts = [dt for dt, _ in report.rows]
        assert dts == [4.0, 2.0, 1.0]
        for r in report.ratios():
            assert 1.7 <= r <= 2.3

    def test_rejects_non_dividing_dt(self):
        model = LindbladModel.from_rate_matrix(np.zeros((2, 2)), np.zeros((2, 2)))
        rho = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            lindblad.convergence_report(model, rho, 100.0, [3.0])

    def test_rejects_coarse_oracle(self):
        model = LindbladModel.from_rate_matrix(np.zeros((2, 2)), np.zeros((2, 2)))
        rho = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            lindblad.convergence_report(model, rho, 100.0, [4.0, 2.0], oracle_dt=1.0)
