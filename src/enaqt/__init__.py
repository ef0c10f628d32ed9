"""Discrete-time simulation of environment-assisted quantum transport.

Library layout:

- linalg: dense hermitian eigendecomposition, unitary exponentials,
  Frobenius distance, successive ratios of a distance table (units: cm^-1
  and fs).
- kernel: the one-step operator-sum map combining unitary evolution with
  incoherent jumps, its tunable-coupling variant, its chi-blended transfer
  matrix T, and the propagator that steps and checks vec(rho) <- T vec(rho).
- lindblad: the master equation as a Hamiltonian plus a jump-rate matrix,
  its closed-form right-hand side, and the fixed-step RK4 integrator used as
  the correctness oracle, plus (dt, distance) convergence rows.
- fmo: 7-site light-harvesting model: site Hamiltonian, exciton basis,
  thermal jump rates from an Ohmic bath, transfer efficiency.
- circuit: compiles one step into a 2-bath-qubit gate circuit, simulates
  it with mid-circuit resets, and certifies channel equivalence via Choi
  matrices.
- cli: `enaqt` command with simulate / oracle / sweep-chi / gatecount /
  circuit-verify subcommands.
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    EnaqtError,
    IndexOutOfRangeError,
    LayoutMismatchError,
    ModelFileError,
    NotHermitianError,
    ProbabilityOutOfRangeError,
    SpecInvalidError,
    StateInvalidError,
    StepTooLargeWarning,
    SurvivalUnderflowError,
)
from .linalg import (
    HBAR_CM1_FS,
    KB_CM1_PER_K,
    SPEED_OF_LIGHT_CM_FS,
    eigh,
    evolution_unitary,
    frob_dist,
    successive_ratios,
)
from .kernel import (
    EvolutionOperators,
    JumpRateSpec,
    StepConfig,
    Trajectory,
    build_evolution_operators,
    enaqt_step,
    evolve_trajectory,
    propagate,
    step_transfer_matrix,
    tunable_step,
)
from .lindblad import (
    LindbladModel,
    convergence_report,
    lindblad_rhs,
    rk4_integrate,
)
from .fmo import (
    ExcitonBasis,
    FmoModel,
    HamiltonianSpec,
    bose_occupation,
    default_model_path,
    exciton_basis,
    jump_rates,
    load_model,
    ohmic_spectral_density,
    site_hamiltonian,
    thermal_rate_matrix,
    transfer_efficiency,
)
from .circuit import (
    Gate,
    GateCountReport,
    GateList,
    QubitLayout,
    apply_circuit,
    build_jump_circuit,
    build_step_circuit,
    channel_choi,
    channel_transfer_matrix,
    choi_from_transfer,
    circuit_transfer_matrix,
    compare_step_channels,
    compile_circuit,
    export_gates,
    gate_count,
    gate_matrix,
    sequential_kraus_step,
)

__version__ = "0.1.0"
