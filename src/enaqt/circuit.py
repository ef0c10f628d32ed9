"""Compile one evolution step into an elementary-gate quantum circuit.

Layout for a dim-d system (n = ceil(log2 d) system qubits): wire 0 is bath
qubit B1 (tags jumped population), wires 1..n the system (most significant
bit first), wire n+1 is bath qubit B2 (absorbs one jump, then is reset), and
n further ancilla wires are reserved for the Toffoli-ladder expansion of the
multi-controlled gates (counted, never simulated). Excitons are encoded on
computational basis codes 1..d when d < 2^n (code 0 unused) and 0..d-1 when
d = 2^n.

One jump i -> j is two gates: a rotation of B2 by theta = 2 arcsin(sqrt(g))
controlled on B1 = 0 and the system being |i>, then a permutation controlled
on B2 = 1 that swaps |0>_B1 |i>  <->  |1>_B1 |j>. Tracing B2 out afterwards
realizes exactly the Kraus pair

    M0 = sqrt(1-g)|0,i><0,i| + |1,i><1,i| + 1_B1 (x) sum_{m != i} |m><m|,
    M1 = sqrt(g) |1,j><0,i|.

A full step strings all d(d-1) jumps in lexicographic (i, j) order with a B2
reset after each, applies the coherent gate C = |0><0|_B1 (x) U + |1><1|_B1
(x) 1 at the end, and traces out B1. The resulting channel is exactly trace
preserving and completely positive, unlike the raw one-shot step map, and
agrees with it to first order in the jump probabilities.

The circuit is simulated on its Kraus operators: circuit_kraus walks the gate list
once, holding one sim_dim x d amplitude block, the branch that has not jumped: the
image of the d system inputs in the B1 x system x B2 register. Each gate acts on its
rows where it stands in the list. A jump's amplitude reaches B2 = 1 in B1 = 1, and a
reset would move it to B1 = 1, B2 = 0, where no gate acts, so each reset finishes it
as one Kraus operator and clears its rows. Tracing B1 and B2 leaves the Kraus
operators A, and T = sum A (x) conj(A), the step's row-major transfer matrix, is one
Gram product (circuit_transfer_matrix); apply_circuit applies T. The Choi matrix is a
reshuffle of T (linalg.choi_from_transfer). sequential_kraus_step, the independent
Kraus route, gives the reference T by linalg.superoperator, from one stack of the d^2
basis elements |a><b|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    LayoutMismatchError,
    ProbabilityOutOfRangeError,
)
from .kernel import JumpRateSpec, step_transfer_matrix
from .linalg import choi_from_transfer, evolution_unitary, frob_dist, superoperator

KIND_CRY = "controlled-ry"
KIND_CPERM = "controlled-permutation"
KIND_CUNITARY = "controlled-unitary"
KIND_RESET_B2 = "reset-b2"
KIND_TRACE_B1 = "trace-out-b1"


@dataclass(frozen=True)
class QubitLayout:
    """Wire bookkeeping for a dim-d system."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise LayoutMismatchError(f"need dim >= 2, got {self.dim}")

    @property
    def n_system(self) -> int:
        """ceil(log2 dim), in integer arithmetic."""
        return (self.dim - 1).bit_length()

    @property
    def b1_wire(self) -> int:
        return 0

    @property
    def system_wires(self) -> tuple:
        return tuple(range(1, self.n_system + 1))

    @property
    def b2_wire(self) -> int:
        return self.n_system + 1

    @property
    def ancilla_wires(self) -> tuple:
        n = self.n_system
        return tuple(range(n + 2, 2 * n + 2))

    @property
    def total_qubits(self) -> int:
        """System + 2 bath + ancillas (ancillas reserved for decomposition)."""
        return 2 * self.n_system + 2

    @property
    def sim_dim(self) -> int:
        """Dimension of the simulated space: B1 x system x B2."""
        return 2 ** (self.n_system + 2)

    def code_of(self, k: int) -> int:
        """Computational basis code of exciton k (0-based)."""
        if not 0 <= k < self.dim:
            raise IndexOutOfRangeError(f"exciton index {k} outside 0..{self.dim - 1}")
        return k + 1 if self.dim < 2 ** self.n_system else k

    def codes(self) -> list:
        return [self.code_of(k) for k in range(self.dim)]


@dataclass(frozen=True, eq=False)
class Gate:
    """One circuit element: unitary gate or channel element (reset/trace)."""

    kind: str
    targets: tuple = ()
    controls: tuple = ()  # ((wire, required value), ...)
    theta: float | None = None
    matrix: np.ndarray | None = None
    src: int | None = None  # the jump's exciton indices, on its rotation and permutation gates
    dst: int | None = None


@dataclass
class GateList:
    """Ordered gates plus the layout they act on."""

    layout: QubitLayout
    gates: list = field(default_factory=list)

    def __iter__(self):
        return iter(self.gates)

    def __len__(self):
        return len(self.gates)


def _code_controls(wires: tuple, code: int) -> tuple:
    """Controls pinning the system register on `wires` (most significant bit first) to a given code."""
    n = len(wires)
    return tuple((w, (code >> (n - 1 - b)) & 1) for b, w in enumerate(wires))


def _jump_gates(i: int, j: int, gamma: float, controls: tuple, wires: tuple, b2: int) -> list:
    """Rotation and permutation of jump i -> j: `controls` pin B1 = 0 and the system to |i>,
    `wires` are B1 then the system wires."""
    if i == j:
        raise IndexOutOfRangeError("jump needs distinct excitons")
    if not np.isfinite(gamma) or gamma < 0.0 or gamma > 1.0:
        raise ProbabilityOutOfRangeError(f"gamma must lie in [0, 1], got {gamma}")
    theta = 2.0 * np.arcsin(np.sqrt(gamma))
    return [Gate(kind=KIND_CRY, targets=(b2,), controls=controls, theta=theta, src=i, dst=j),
            Gate(kind=KIND_CPERM, targets=wires, controls=((b2, 1),), src=i, dst=j)]


def build_step_circuit(rates: JumpRateSpec, u: np.ndarray) -> GateList:
    """Full one-step circuit: every (i, j) jump in lexicographic order.

    Each jump sub-circuit is followed by a B2 reset; the coherent gate C
    comes after all jumps, then B1 is traced out.
    """
    d = rates.dim
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise DimensionMismatchError(f"unitary shape {u.shape} does not match dim {d}")
    layout = QubitLayout(d)
    b1, b2, system = layout.b1_wire, layout.b2_wire, layout.system_wires  # wiring, derived once
    controls = [((b1, 0),) + _code_controls(system, code) for code in layout.codes()]
    out = GateList(layout=layout)
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            out.gates.extend(_jump_gates(i, j, rates.gamma[i, j], controls[i], (b1,) + system, b2))
            out.gates.append(Gate(kind=KIND_RESET_B2, targets=(b2,)))
    out.gates.append(Gate(kind=KIND_CUNITARY, targets=system, controls=((b1, 0),), matrix=u))
    out.gates.append(Gate(kind=KIND_TRACE_B1, targets=(layout.b1_wire,)))
    return out


def _two_level_indices(gate: Gate, codes: list, n: int) -> list:
    """The two simulated-space indices a rotation or permutation gate of jump src -> dst acts on,
    from the layout's codes and n_system: index (B1, code, B2) is B1 << (n + 1) | code << 1 | B2."""
    if gate.kind == KIND_CPERM:
        return [(codes[gate.src] << 1) | 1, (1 << (n + 1)) | (codes[gate.dst] << 1) | 1]
    p = codes[gate.src] << 1
    return [p, p | 1]


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def gate_matrix(gate: Gate, layout: QubitLayout) -> np.ndarray:
    """Dense unitary of a gate on the simulated (B1, system, B2) space."""
    dim = layout.sim_dim
    if gate.kind in (KIND_CRY, KIND_CPERM):
        m = np.eye(dim, dtype=complex)
        block = _rotation(gate.theta) if gate.kind == KIND_CRY else [[0.0, 1.0], [1.0, 0.0]]
        idx = _two_level_indices(gate, layout.codes(), layout.n_system)
        m[np.ix_(idx, idx)] = block
        return m
    if gate.kind == KIND_CUNITARY:  # identity off the codes
        n_full, codes = 2 ** layout.n_system, layout.codes()
        padded = np.eye(n_full, dtype=complex)
        padded[np.ix_(codes, codes)] = gate.matrix
        p0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        p1 = np.array([[0.0, 0.0], [0.0, 1.0]])
        eye2 = np.eye(2)
        return np.kron(np.kron(p0, padded), eye2) + np.kron(
            np.kron(p1, np.eye(n_full)), eye2
        )
    raise LayoutMismatchError(f"gate kind {gate.kind!r} has no unitary matrix")


def circuit_kraus(gates: GateList) -> np.ndarray:
    """System Kraus operators (m, d, d) of a GateList, simulated gate by gate on its layout.

    One sim_dim x d block holds the branch that has not jumped, its image of the d system inputs;
    it starts as the embedding with B1 = B2 = |0>. Gates act on rows only: a rotation on its pair
    (p, p + 1) by its 2x2 matrix, a permutation swaps its pair, and the coherent gate applies U to
    the B1 = 0 code rows of each B2 value (identity elsewhere). At a reset the B2 = 1 rows must lie
    in B1 = 1, which the reset would move to B2 = 0, where no gate acts: their code block is a
    finished Kraus operator, kept unless exactly zero, and the rows are cleared. The Kraus operators are the block's (B1, B2) code
    blocks, the finished ones after (B1 = 1, B2 = 0); the exactly zero ones are dropped.
    """
    layout = gates.layout
    d, n = layout.dim, layout.n_system
    codes = layout.codes()  # derived once per circuit
    code_rows = np.array(codes) << 1
    b1 = 1 << (n + 1)  # offset of the B1 = 1 rows
    block = np.zeros((layout.sim_dim, d), dtype=complex)
    block[code_rows, np.arange(d)] = 1.0
    finished = []
    for pos, gate in enumerate(gates):
        if gate.kind == KIND_CRY:
            p = _two_level_indices(gate, codes, n)[0]  # B2 is the last bit: the pair is (p, p + 1)
            block[p:p + 2] = _rotation(gate.theta).astype(complex) @ block[p:p + 2]
        elif gate.kind == KIND_CPERM:
            idx = _two_level_indices(gate, codes, n)  # both have B2 = 1
            block[idx] = block[idx[::-1]]
        elif gate.kind == KIND_CUNITARY:
            rows = code_rows + np.arange(2)[:, None]
            block[rows] = np.asarray(gate.matrix, dtype=complex) @ block[rows]
        elif gate.kind == KIND_RESET_B2:
            if block[1:b1:2].any():
                raise LayoutMismatchError(f"reset at gate {pos}: B2 = 1 amplitude with B1 = 0")
            if block[b1 + 1::2].any():
                finished.append(block[b1 + 1 + code_rows])
                block[b1 + 1::2] = 0.0
        elif gate.kind != KIND_TRACE_B1:
            raise LayoutMismatchError(f"gate kind {gate.kind!r} has no row operation")
        elif pos != len(gates) - 1:
            raise LayoutMismatchError("trace-out-b1 must be the final gate")
    a = np.stack([block[code_rows + r] for r in (0, 1, b1)] + finished + [block[code_rows + b1 + 1]])
    return a[a.any(axis=(1, 2))]


def circuit_transfer_matrix(gates: GateList) -> np.ndarray:
    """Row-major T = sum_k A_k (x) conj(A_k) of a GateList, from the Kraus operators of one
    circuit_kraus pass, as one Gram product."""
    a = circuit_kraus(gates)
    d = a.shape[-1]
    x = a.reshape(-1, d * d)  # x[k, i d + a] = A_k[i, a]
    return (x.T @ x.conj()).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def apply_circuit(rho_sys: np.ndarray, gates: GateList) -> np.ndarray:
    """Run a GateList on a state or a stack (..., d, d): its transfer matrix on vec(rho).
    The channel is exactly trace preserving."""
    d = gates.layout.dim
    rho_sys = np.asarray(rho_sys, dtype=complex)
    if rho_sys.shape[-2:] != (d, d):
        raise LayoutMismatchError(
            f"state shape {rho_sys.shape} does not fit layout dim {d}"
        )
    t = circuit_transfer_matrix(gates)
    return (rho_sys.reshape(rho_sys.shape[:-2] + (d * d,)) @ t.T).reshape(rho_sys.shape)


def sequential_kraus_step(rho: np.ndarray, rates: JumpRateSpec, u: np.ndarray) -> np.ndarray:
    """Operator-model reference: the same step by Kraus algebra, on a state or a stack (..., d, d).

    Works on the (B1 x system) space directly (no qubit encoding, no B2),
    applying each jump's Kraus pair in the same lexicographic order, then
    the coherent gate, then the B1 trace. Dual route to apply_circuit for
    channel-equivalence certification. Each pair scales row and column i and feeds (d+j, d+j).
    """
    d = rates.dim
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (d, d):
        raise DimensionMismatchError(f"state shape {rho.shape} does not match dim {d}")
    sigma = np.zeros(rho.shape[:-2] + (2 * d, 2 * d), dtype=complex)
    sigma[..., :d, :d] = rho  # B1 = |0> block
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            s0, s1 = np.sqrt(1.0 - rates.gamma[i, j]), np.sqrt(rates.gamma[i, j])
            sigma[..., d + j, d + j] += sigma[..., i, i] * s1 * s1
            sigma[..., i, :] *= s0
            sigma[..., :, i] *= s0
    c = np.eye(2 * d, dtype=complex)
    c[:d, :d] = u
    sigma = np.matmul(c @ sigma, c.conj().T, out=sigma)
    return sigma[..., :d, :d] + sigma[..., d:, d:]


def channel_transfer_matrix(apply_channel, dim: int) -> np.ndarray:
    """Row-major superoperator T with vec(E(rho)) = T @ vec(rho), from E on each of the dim^2
    basis elements in turn: the reference for any linear map, even one that takes one state."""
    return superoperator(lambda basis: [apply_channel(e) for e in basis], dim)


def channel_choi(apply_channel, dim: int) -> np.ndarray:
    """Choi matrix sum_ab |a><b| (x) E(|a><b|) of a linear channel.

    The identity channel gives dim times the maximally entangled projector;
    CPTP channels give a PSD Choi matrix whose partial trace over the output
    factor is the identity.
    """
    return choi_from_transfer(channel_transfer_matrix(apply_channel, dim))


def compare_step_channels(
    rates: JumpRateSpec,
    hamiltonian: np.ndarray,
    dt: float,
    scalings=(1.0, 0.5, 0.25),
    t_circuit: np.ndarray | None = None,
) -> list:
    """(scale, Choi distance) rows between the compiled circuit step and the one-shot map.

    For each scale s both the jump probabilities (gamma -> s*gamma) and the
    effective step (U -> U(s*dt)) shrink together; the two channels agree to
    first order in the step, so the distance falls by ~4x per halving. The
    one-shot map is the transfer matrix the operator backend steps. A caller
    that has built the scale-1 circuit's T already passes it as t_circuit.
    """
    rows = []
    for s in scalings:
        gam = JumpRateSpec(rates.gamma * s)
        u = evolution_unitary(hamiltonian, s * dt)
        if s == 1.0 and t_circuit is not None:
            t_c = t_circuit
        else:
            t_c = circuit_transfer_matrix(build_step_circuit(gam, u))
        t_map = step_transfer_matrix(gam, u, 1.0)
        rows.append((float(s), frob_dist(choi_from_transfer(t_c), choi_from_transfer(t_map))))
    return rows


@dataclass(frozen=True)
class GateCountReport:
    """Complexity accounting for one compiled step."""

    jumps: int
    per_jump_elementary: int
    jump_elementary_total: int
    coherent_gates: int
    qubits: int


def gate_count(gates: GateList) -> GateCountReport:
    """Count jumps, elementary gates, and qubits for a compiled step.

    The elementary count uses the fixed convention that a jump decomposes
    into 2*ceil(log2 dim) two-control gates on the ancilla ladder.
    """
    layout = gates.layout
    jumps = sum(1 for g in gates if g.kind == KIND_CRY)
    per_jump = 2 * layout.n_system
    coherent = sum(1 for g in gates if g.kind == KIND_CUNITARY)
    return GateCountReport(
        jumps=jumps,
        per_jump_elementary=per_jump,
        jump_elementary_total=jumps * per_jump,
        coherent_gates=coherent,
        qubits=layout.total_qubits,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_matrix(m: np.ndarray) -> str:
    rows = []
    for row in np.asarray(m, dtype=complex):
        rows.append(",".join(f"{_fmt(z.real)}+{_fmt(z.imag)}j" for z in row))
    return ";".join(rows)


def export_gates(gates: GateList) -> str:
    """Line-oriented text form of a gate list (deterministic ordering).

    One gate per line: KIND, then key=value fields. Controls are
    wire:value pairs; matrices are row-major semicolon-separated rows of
    comma-separated re+imj entries.
    """
    lines = []
    for gate in gates:
        fields = []
        if gate.targets:
            fields.append("targets=" + ",".join(str(w) for w in gate.targets))
        if gate.controls:
            fields.append(
                "controls=" + ",".join(f"{w}:{v}" for w, v in gate.controls)
            )
        if gate.kind == KIND_CRY:
            fields.append(f"theta={_fmt(gate.theta)}")
        elif gate.kind == KIND_CPERM:
            fields.append(f"src={gate.src}")
            fields.append(f"dst={gate.dst}")
        elif gate.kind == KIND_CUNITARY:
            fields.append("matrix=" + _fmt_matrix(gate.matrix))
        lines.append(" ".join([gate.kind.upper()] + fields))
    return "\n".join(lines) + "\n"
