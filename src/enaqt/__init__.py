"""Discrete-time simulation of environment-assisted quantum transport.

Library layout (each name is imported from its module, e.g.
`from enaqt import kernel`; the package itself holds only `__version__`):

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
- errors: the package's exception classes; a NumericalError is a numerical
  invariant violation (CLI exit 2), any other EnaqtError a bad configuration
  or input (exit 1).
- cli: `enaqt` command with simulate / oracle / sweep-chi / gatecount /
  circuit-verify subcommands.
"""

__version__ = "0.1.0"
