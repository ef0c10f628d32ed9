import warnings

import numpy as np
import pytest

from enaqt import fmo, kernel, lindblad, linalg
from enaqt.errors import DimensionMismatchError, NotHermitianError, StateInvalidError, StepTooLargeWarning
from enaqt.lindblad import LindbladModel


def random_density(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_rates(d, rng, low=0.001, high=0.01):
    rates = rng.uniform(low, high, size=(d, d))
    np.fill_diagonal(rates, 0.0)
    return rates


def transition(d, n, m):
    op = np.zeros((d, d), dtype=complex)
    op[n, m] = 1.0
    return op


def populations(d):
    """The diagonal projectors |k><k|, as rk4_integrate observers."""
    return np.stack([np.diag(e) for e in np.eye(d)]).astype(complex)


class TestLindbladModel:
    @pytest.mark.parametrize("bad", [np.nan, -1e-3, np.inf])
    def test_rejects_bad_rate(self, bad):
        rates = np.zeros((3, 3))
        rates[0, 2] = bad
        with pytest.raises(ValueError):
            LindbladModel(np.zeros((3, 3)), rates)

    def test_rejects_diagonal_rate(self):
        with pytest.raises(ValueError):
            LindbladModel(np.zeros((2, 2)), np.diag([0.0, 0.01]))

    @pytest.mark.parametrize("h, rates", [
        (np.zeros((3, 3)), np.zeros((2, 2))),
        (np.zeros((2, 3)), np.zeros((2, 3))),
        (np.zeros(3), np.zeros(3)),
    ])
    def test_rejects_shape_mismatch(self, h, rates):
        with pytest.raises(DimensionMismatchError):
            LindbladModel(h, rates)

    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(NotHermitianError):
            LindbladModel(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


class TestLindbladRhs:
    def test_zero_model(self):
        model = LindbladModel(np.zeros((3, 3)), np.zeros((3, 3)))
        rho = random_density(3, np.random.default_rng(1))
        assert np.allclose(lindblad.lindblad_rhs(rho, model), 0.0)

    def test_single_jump_on_source_state(self):
        # jump |1><0| at rate G acting on |0><0|: gain on |1>, loss on |0>
        g = 0.37
        model = LindbladModel(np.zeros((2, 2)), np.array([[0.0, g], [0.0, 0.0]]))
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = lindblad.lindblad_rhs(rho, model)
        assert np.allclose(out, g * np.diag([-1.0, 1.0]), atol=1e-15)

    def test_dissipator_is_trace_free(self):
        rng = np.random.default_rng(2)
        d = 4
        rates = random_rates(d, rng)
        h = rng.normal(size=(d, d))
        model = LindbladModel(0.5 * (h + h.T) * 100, rates)
        out = lindblad.lindblad_rhs(random_density(d, rng), model)
        assert abs(np.trace(out)) <= 1e-14

    def test_against_term_assembly(self):
        # independent oracle: assemble commutator + GKSL dissipator term by term
        d = 3
        rho = random_density(d, np.random.default_rng(3))
        h = np.array([[120.0, 40.0, 0.0], [40.0, 60.0, 25.0], [0.0, 25.0, 0.0]])
        rates = np.zeros((d, d))
        rates[0, 1], rates[1, 2], rates[2, 0] = 0.004, 0.002, 0.003
        model = LindbladModel(h, rates)
        expected = (-1j / linalg.HBAR_CM1_FS) * (h @ rho - rho @ h)
        for m, n in np.argwhere(rates):
            op = transition(d, n, m)
            anticomm = op.conj().T @ op @ rho + rho @ op.conj().T @ op
            expected = expected + rates[m, n] * (op @ rho @ op.conj().T - 0.5 * anticomm)
        out = lindblad.lindblad_rhs(rho, model)
        assert np.max(np.abs(out - expected)) <= 1e-16

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_stack_matches_per_state_calls(self, d):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(d, d)) * 80.0 + 1j * rng.normal(size=(d, d)) * 20.0
        model = LindbladModel(h + h.conj().T, random_rates(d, rng))
        stack = rng.normal(size=(2, 5, d, d)) + 1j * rng.normal(size=(2, 5, d, d))
        out = lindblad.lindblad_rhs(stack, model)
        per_state = np.array([[lindblad.lindblad_rhs(rho, model) for rho in row] for row in stack])
        assert np.array_equal(out, per_state)

    def test_dimension_mismatch(self):
        model = LindbladModel(np.zeros((3, 3)), np.zeros((3, 3)))
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


def rk4_final_state(rho, model, dt, steps):
    return lindblad._final_state(lindblad.rk4_transfer_matrix(model, dt), rho, steps)


def shipped_exciton_model():
    """The shipped FMO model in its exciton basis, with its rate table (fs^-1)."""
    step_model = fmo.StepModel(fmo.load_model(fmo.default_model_path()), 10.0)
    return LindbladModel(step_model.h_exciton, step_model.rates_per_fs)


class TestRk4Integrate:
    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_matches_stage_by_stage_loop(self, d):
        rng = np.random.default_rng(4)  # at d = 7 its dt = 0.5 fs stays below the coarse-step warning
        h = rng.normal(size=(d, d)) * 80.0
        model = LindbladModel(0.5 * (h + h.T), random_rates(d, rng, low=0.0))
        rho = random_density(d, rng)
        dt, steps = 0.5, 300
        pops, trace, min_eig, final = stage_by_stage_rk4(rho, model, dt, steps)
        traj = lindblad.rk4_integrate(rho, model, dt, steps, populations(d))
        assert np.max(np.abs(traj.populations - pops)) <= 1e-12
        assert np.max(np.abs(traj.trace - trace)) <= 1e-12
        assert np.max(np.abs(traj.min_eig - min_eig)) <= 1e-12
        assert np.max(np.abs(rk4_final_state(rho, model, dt, steps) - final)) <= 1e-12
        assert np.array_equal(traj.times, np.arange(steps + 1) * dt)

    def test_warns_once_on_coarse_step_only(self):
        coarse = shipped_exciton_model()
        rho = np.diag(np.eye(7)[0]).astype(complex)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lindblad.rk4_integrate(rho, coarse, 10.0, 50, populations(7))
        assert [w.category for w in caught] == [StepTooLargeWarning]
        assert caught[0].filename == __file__  # points at the caller of rk4_integrate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lindblad.rk4_integrate(rho, coarse, 0.5, 50, populations(7))

    def test_diagonal_hamiltonian_keeps_populations(self):
        model = LindbladModel(np.diag([0.0, 150.0, 400.0]), np.zeros((3, 3)))
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        traj = lindblad.rk4_integrate(rho, model, 1.0, 200, populations(3))
        assert np.max(np.abs(traj.populations - traj.populations[0])) <= 1e-12

    def test_exponential_decay(self):
        # decay |1> -> |0> at rate G: excited population follows exp(-G t)
        g = 0.01  # fs^-1
        model = LindbladModel(np.zeros((2, 2)), np.array([[0.0, 0.0], [g, 0.0]]))
        rho = np.diag([0.0, 1.0]).astype(complex)
        dt = (1.0 / g) / 1000.0
        traj = lindblad.rk4_integrate(rho, model, dt, 1000, populations(2))
        assert traj.populations[-1, 1] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_fourth_order_self_convergence(self):
        d = 3
        h = np.array([[120.0, 40.0, 0.0], [40.0, 60.0, 25.0], [0.0, 25.0, 0.0]])
        rates = np.zeros((d, d))
        rates[0, 1], rates[2, 0] = 0.004, 0.006
        model = LindbladModel(h, rates)
        rho = random_density(d, np.random.default_rng(6))
        t_final = 400.0

        def final(dt):
            return rk4_final_state(rho, model, dt, int(round(t_final / dt)))

        ref = final(0.125)
        err_coarse = np.linalg.norm(final(4.0) - ref)
        err_fine = np.linalg.norm(final(2.0) - ref)
        assert 11.0 <= err_coarse / err_fine <= 21.0

    def test_trace_conserved_over_long_run(self):
        model = LindbladModel(np.array([[0.0, 30.0], [30.0, 10.0]]),
                              np.array([[0.0, 0.001], [0.002, 0.0]]))
        rho = random_density(2, np.random.default_rng(7))
        traj = lindblad.rk4_integrate(rho, model, 1.0, 10_000, populations(2))
        assert np.max(np.abs(traj.trace - 1.0)) <= 1e-9

    def test_warns_on_coarse_step(self):
        model = LindbladModel(np.array([[0.0, 500.0], [500.0, 0.0]]),
                              np.array([[0.0, 0.5], [0.0, 0.0]]))
        rho = random_density(2, np.random.default_rng(8))
        # the state is already far from positive after one step (min eigenvalue -8.3)
        with pytest.warns(StepTooLargeWarning), pytest.raises(StateInvalidError, match="step 1:"):
            lindblad.rk4_integrate(rho, model, 10.0, 2, populations(2))


class TestFinalState:
    @staticmethod
    def matvec_loop(t, rho0, steps):
        v = rho0.reshape(-1)
        for _ in range(steps):
            v = t @ v
        return v.reshape(rho0.shape)

    @pytest.mark.parametrize("which", ["rk4", "kernel"])
    def test_powered_matches_matvec_loop(self, which):
        model = shipped_exciton_model()
        if which == "rk4":
            t = lindblad.rk4_transfer_matrix(model, 0.5)
        else:
            u = linalg.evolution_unitary(model.hamiltonian, 5.0)
            rates = kernel.JumpRateSpec(model.rates_per_fs * 5.0)
            t = kernel.step_transfer_matrix(rates, u, 1.0)
        rho0 = random_density(7, np.random.default_rng(9))
        expected = self.matvec_loop(t, rho0, 4000)
        powered = lindblad._final_state(t, rho0, 4000)
        assert np.linalg.norm(powered - expected) <= 1e-10 * np.linalg.norm(expected)


class TestConvergenceReport:
    def test_zero_rates_match_unitary(self):
        h = np.array([[0.0, 70.0], [70.0, 30.0]])
        model = LindbladModel(h, np.zeros((2, 2)))
        rho = np.diag([1.0, 0.0]).astype(complex)
        rows = lindblad.convergence_report(model, rho, 200.0, [4.0, 2.0, 1.0])
        assert all(dist <= 1e-9 for _, dist in rows)

    def test_first_order_ratio_dim2(self):
        h = np.array([[0.0, 70.0], [70.0, 30.0]])
        model = LindbladModel(h, np.array([[0.0, 0.005], [0.002, 0.0]]))
        rho = np.diag([1.0, 0.0]).astype(complex)
        rows = lindblad.convergence_report(model, rho, 1000.0, [4.0, 2.0, 1.0])
        assert [dt for dt, _ in rows] == [4.0, 2.0, 1.0]
        for r in linalg.successive_ratios(rows):
            assert 1.7 <= r <= 2.3

    def test_rejects_non_dividing_dt(self):
        model = LindbladModel(np.zeros((2, 2)), np.zeros((2, 2)))
        rho = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            lindblad.convergence_report(model, rho, 100.0, [3.0])
