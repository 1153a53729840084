"""Oracle gates and branch-exhaustive equivalence checking.

``verify`` runs a compiled distributed circuit on a set of inputs, enumerates
every measurement branch, and compares each branch's post-correction state
(restricted and reordered to the declared outputs) against the ideal
monolithic gate, up to global phase. Teleported-gate protocols rely on all
branches converging to the same state, so branch merging is on by default;
the reported branch count includes merged multiplicities.

The ideal gate is never built as a dense matrix over the whole register.
Each oracle builder returns the structure of its gate: a ``PhaseOracle`` holds
the diagonal of a phase gate (GCZ, qudit-compressed GCZ) as one vector, and a
``ProductOracle`` holds an ordered list of small ``Unitary`` factors on given
register axes (one MS factor per pair for GMS, one controlled gate per target
for the fan-out kinds, one factor on both qudits for CSUM_4 and CZ_4).
Unitarity is checked per part when the oracle is built: every phase has
modulus 1 within ``UNITARY_TOL``, and every factor is a validated
``Unitary``. A caller may still pass a dense ``Unitary``, which is applied as
a matrix product.

The circuits are linear in their input, so ``verify`` stacks the inputs as
columns of one matrix, applies the oracle to all of them at once (phases times
columns, or each factor in turn through ``backend.apply_matrix``) and
enumerates branches once per chunk of inputs rather than once per input (see
``simulate``). A chunk holds ``max(1, max_register_dim() //
peak_register_dim(circuit))`` inputs, so a branch's amplitude matrix never
exceeds the register cap; circuits near the cap run one input at a time. Each
branch is checked on its alive columns only, and failures are recorded under
the original input index. The register cap is checked from the instruction
list before anything is allocated.

A batch merges two branches only when they agree on every input of the chunk,
so it can keep apart two branches that one input alone would merge. Their
states for that input are equal, so fidelities and the weighted branch count
are those of checking each input on its own; a failing outcome record could
at most be listed once more.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .circuit import DistCircuit, ResourceTally, tally
from .gates import (cz4_sq_matrix, cz_matrix, czd_matrix, csum_matrix, h_matrix,
                    s_dag_matrix)
from .qubit_protocols import lms_matrix
from .simulate import enumerate_branches, infer_dims, peak_register_dim
from .statevec import (UNITARY_TOL, MixedRegister, Unitary, check_register_dim,
                       fidelity_up_to_phase, max_register_dim, permute, random_register)

DEFAULT_THRESHOLD = 1 - 1e-9


def embed_unitary(mat: np.ndarray, axes, dims) -> np.ndarray:
    """Embed a small matrix acting on the given axes into the full register space."""
    dims = tuple(dims)
    eye = np.eye(math.prod(dims), dtype=np.complex128)
    return backend.apply_matrix(eye, dims, tuple(axes), mat)


@dataclass(frozen=True, eq=False)
class PhaseOracle:
    """Diagonal gate over the whole register: basis state x gains ``phases[x]``.

    Every phase must have modulus 1 within ``UNITARY_TOL``.
    """

    phases: np.ndarray
    arity: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "arity", tuple(int(d) for d in self.arity))
        phases = np.ascontiguousarray(self.phases, dtype=np.complex128)
        object.__setattr__(self, "phases", phases)
        if phases.shape != (self.dim,):
            raise ValueError(f"phase vector shape {phases.shape} does not match arity {self.arity}")
        dev = float(np.max(np.abs(np.abs(phases) - 1.0)))
        if dev > UNITARY_TOL:
            raise ValueError(f"phases are not unimodular (max ||d| - 1| = {dev:.3e})")

    @property
    def dim(self) -> int:
        return math.prod(self.arity)

    @property
    def entries(self) -> np.ndarray:
        """Dense matrix, for inspecting small oracles; ``verify`` never builds it."""
        return np.diag(self.phases)

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """The gate applied to a state vector or to each column of a batch."""
        return self.phases.reshape((-1,) + (1,) * (amps.ndim - 1)) * amps


@dataclass(frozen=True, eq=False)
class ProductOracle:
    """Ordered product of small validated unitaries, each on some register axes.

    ``factors`` holds ``(axes, Unitary)`` pairs, applied first to last; a
    factor's matrix runs over its axes in the order given, big-endian.
    """

    arity: tuple[int, ...]
    factors: tuple[tuple[tuple[int, ...], Unitary], ...]

    def __post_init__(self):
        arity = tuple(int(d) for d in self.arity)
        object.__setattr__(self, "arity", arity)
        factors = tuple((tuple(axes), u) for axes, u in self.factors)
        object.__setattr__(self, "factors", factors)
        for axes, u in factors:
            if len(set(axes)) != len(axes) or not all(0 <= a < len(arity) for a in axes):
                raise ValueError(f"factor axes {axes} are not distinct axes of {arity}")
            if tuple(arity[a] for a in axes) != u.arity:
                raise ValueError(f"factor arity {u.arity} does not match axes {axes} of {arity}")

    @property
    def dim(self) -> int:
        return math.prod(self.arity)

    @property
    def entries(self) -> np.ndarray:
        """Dense matrix, for inspecting small oracles; ``verify`` never builds it."""
        return self.apply(np.eye(self.dim, dtype=np.complex128))

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """The gate applied to a state vector or to each column of a batch."""
        for axes, u in self.factors:
            amps = backend.apply_matrix(amps, self.arity, axes, u.entries)
        return amps


def oracle_gms(n: int, theta: float) -> ProductOracle:
    """Global MS gate on n qubits as the product of its commuting pair factors."""
    if n < 2:
        raise ValueError("need at least 2 qubits")
    pair = lms_matrix(theta)
    return ProductOracle((2,) * n, [((i, j), pair) for i in range(n) for j in range(i + 1, n)])


def _gcz_diagonal(n: int) -> np.ndarray:
    """(-1)^(sum of q_i q_j over pairs) for every n-bit basis index, big-endian.

    The pair sum of w set bits is w (w - 1) / 2.
    """
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    weight = bits.sum(axis=1)
    return np.where((weight * (weight - 1) // 2) % 2, -1.0, 1.0).astype(np.complex128)


def oracle_gcz(n: int) -> PhaseOracle:
    """Global CZ on n qubits: diagonal phase (-1)^(sum of q_i q_j over pairs)."""
    if n < 2:
        raise ValueError("need at least 2 qubits")
    return PhaseOracle(_gcz_diagonal(n), (2,) * n)


def _control_fanout(dims, pair_matrices) -> ProductOracle:
    """One two-subsystem factor from control subsystem 0 onto each later subsystem."""
    return ProductOracle(dims, [((0, t), Unitary(mat, (dims[0], dims[t])))
                                for t, mat in enumerate(pair_matrices, start=1)])


def oracle_multitarget_cu(gates) -> ProductOracle:
    """Single-control multitarget gate: product of controlled-u onto each target.

    ``gates`` is an ordered list of 2x2 target unitaries; the control qubit is
    subsystem 0, targets follow in order.
    """
    cus = []
    for u in gates:
        cu = np.eye(4, dtype=np.complex128)
        cu[2:, 2:] = u
        cus.append(cu)
    return _control_fanout((2,) * (len(cus) + 1), cus)


def oracle_csum4() -> ProductOracle:
    return _control_fanout((4, 4), [csum_matrix(4)])


def oracle_csum4_multi(n_targets: int = 2) -> ProductOracle:
    """CSUM_4 from one control qudit onto each of n_targets target qudits."""
    return _control_fanout((4,) * (n_targets + 1), [csum_matrix(4)] * n_targets)


def oracle_cz4_pow(power: int) -> ProductOracle:
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    return _control_fanout((4, 4), [czd_matrix(4) if power == 1 else cz4_sq_matrix()])


def oracle_cz4_sq_fanout(n_targets: int) -> ProductOracle:
    """(CZ_4)^2 from one control qudit onto each of n_targets target qudits."""
    return _control_fanout((4,) * (n_targets + 1), [cz4_sq_matrix()] * n_targets)


def oracle_qudit_gcz(n_qudits: int) -> PhaseOracle:
    """Encoded n-qubit GCZ on dimension-4 qudits: each digit is a qubit pair.

    Digit d stands for the bits (d >> 1, d & 1), so the qudit basis index read
    in binary is the 2 n_qudits-qubit basis index.
    """
    return PhaseOracle(_gcz_diagonal(2 * n_qudits), (4,) * n_qudits)


@dataclass(frozen=True)
class OracleSpec:
    """Named ideal operation a compiled circuit is checked against."""

    kind: str
    theta: float | None = None

    def unitary(self, n: int) -> PhaseOracle | ProductOracle:
        """The gate on n subsystems, as the oracle builder of its kind returns it."""
        if self.kind == "gms":
            if self.theta is None:
                raise ValueError("GMS oracle needs theta")
            return oracle_gms(n, self.theta)
        if self.kind == "gcz":
            return oracle_gcz(n)
        if self.kind == "cnot":
            return oracle_multitarget_cu([np.array([[0, 1], [1, 0]], dtype=complex)] * (n - 1))
        if self.kind == "csum4":
            return oracle_csum4()
        if self.kind == "csum4_multi":
            return oracle_csum4_multi(n - 1)
        if self.kind == "cz4":
            return oracle_cz4_pow(1)
        if self.kind == "cz4_sq":
            return oracle_cz4_pow(2) if n == 2 else oracle_cz4_sq_fanout(n - 1)
        if self.kind == "qudit_gcz":
            return oracle_qudit_gcz(n)
        raise ValueError(f"unknown oracle kind {self.kind!r}")


@dataclass
class Failure:
    input_index: int
    outcomes: tuple[tuple[str, int], ...]
    fidelity: float


@dataclass
class VerificationReport:
    branches: int = 0
    min_fidelity: float = 1.0
    failures: list[Failure] = field(default_factory=list)
    resource_tally: ResourceTally | None = None
    inputs_checked: int = 0
    seed: int | None = None
    threshold: float = DEFAULT_THRESHOLD

    @property
    def passed(self) -> bool:
        return self.min_fidelity >= self.threshold

    def to_json(self) -> str:
        doc = {
            "branches": self.branches,
            "min_fidelity": self.min_fidelity,
            "inputs_checked": self.inputs_checked,
            "passed": self.passed,
            "threshold": self.threshold,
            "seed": self.seed,
            "failures": [
                {"input": f.input_index,
                 "outcomes": [[s, v] for s, v in f.outcomes],
                 "fidelity": f.fidelity}
                for f in sorted(self.failures, key=lambda f: (f.input_index, f.outcomes))
            ],
            "resource_tally": self.resource_tally.as_dict() if self.resource_tally else None,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def basis_inputs(circuit: DistCircuit) -> list[MixedRegister]:
    """Every computational basis state over the circuit's declared inputs."""
    dims = infer_dims(circuit)
    in_dims = tuple(dims[l] for l in circuit.inputs)
    if not in_dims:
        return [MixedRegister.basis((), (), ())]
    digits = np.unravel_index(np.arange(math.prod(in_dims)), in_dims)
    return [MixedRegister.basis(circuit.inputs, in_dims, column)
            for column in zip(*digits)]


def random_inputs(circuit: DistCircuit, count: int, seed: int = 7) -> list[MixedRegister]:
    """Seeded Haar-ish random input states over the circuit's declared inputs."""
    dims = infer_dims(circuit)
    in_dims = tuple(dims[l] for l in circuit.inputs)
    rng = np.random.default_rng(seed)
    return [random_register(circuit.inputs, in_dims, rng) for _ in range(count)]


def verify(circuit: DistCircuit, oracle, inputs, threshold: float = DEFAULT_THRESHOLD,
           merge: bool = True, seed: int | None = None) -> VerificationReport:
    """Compare every measurement branch of the circuit against the ideal gate.

    ``oracle`` is an OracleSpec, an oracle builder's ``PhaseOracle`` or
    ``ProductOracle``, or a dense ``Unitary``, over the circuit's inputs. Its
    unitarity was checked when it was built (per phase or per factor, see the
    module docstring); here it is only applied, to all inputs at once, and its
    dense matrix is never formed. Each branch's final state is reordered to
    the declared outputs (output i holds logical input i) before the fidelity
    check. The inputs are enumerated in batches (see the module docstring).
    """
    peak = peak_register_dim(circuit)
    check_register_dim(peak)
    dims = infer_dims(circuit)
    in_dims = tuple(dims[l] for l in circuit.inputs)
    inputs = list(inputs)
    for idx, state in enumerate(inputs):
        if state.labels != circuit.inputs or state.dims != in_dims or state.amps.ndim != 1:
            raise ValueError(
                f"input {idx} over {state.labels} with dims {state.dims} does not match "
                f"the circuit inputs {circuit.inputs} with dims {in_dims}")
    if isinstance(oracle, OracleSpec):
        oracle = oracle.unitary(len(circuit.inputs))
    if oracle.dim != math.prod(in_dims):
        raise ValueError(f"oracle dimension {oracle.dim} does not match the circuit "
                         f"inputs {circuit.inputs} with dims {in_dims}")
    report = VerificationReport(resource_tally=tally(circuit), seed=seed,
                                threshold=threshold, inputs_checked=len(inputs))
    if not inputs:
        return report
    psi = np.stack([state.amps for state in inputs], axis=1)
    expected = oracle.apply(psi)
    chunk = max(1, max_register_dim() // peak)
    for start in range(0, len(inputs), chunk):
        cols = slice(start, start + chunk)
        batch = MixedRegister._wrap(in_dims, np.ascontiguousarray(psi[:, cols]),
                                    circuit.inputs)
        ideal = MixedRegister._wrap(in_dims, np.ascontiguousarray(expected[:, cols]),
                                    circuit.outputs)
        failures = []
        for branch in enumerate_branches(circuit, batch, merge_equal=merge):
            if sorted(branch.state.labels) != sorted(circuit.outputs):
                raise ValueError(
                    f"branch left subsystems {branch.state.labels}, expected {circuit.outputs}")
            final = permute(branch.state, circuit.outputs)
            fids = fidelity_up_to_phase(final, ideal)
            report.branches += branch.weight * int(branch.alive.sum())
            report.min_fidelity = min(report.min_fidelity, float(fids[branch.alive].min()))
            for j in np.flatnonzero(branch.alive & (fids < threshold)):
                failures.append(Failure(start + int(j), branch.outcomes, float(fids[j])))
        failures.sort(key=lambda f: f.input_index)  # stable: branch order within an input
        report.failures += failures
    return report


# ---------------------------------------------------------------------------
# gate-algebra identity suite (also surfaced by the CLI)
# ---------------------------------------------------------------------------

def _dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def identity_checks(theta: float = math.pi / 3) -> list[tuple[str, float]]:
    """(name, max deviation) for each algebraic identity the protocols rest on."""
    from .gates import (cnot_matrix, fourier_matrix, gate_unitary,
                        level_swap_matrix, rz_matrix, shift_matrix)

    h2 = np.kron(h_matrix(), h_matrix())
    eye2 = np.eye(2)
    cnot = cnot_matrix()
    lms = lms_matrix(theta).entries
    lms_half = lms_matrix(math.pi / 2).entries

    checks: list[tuple[str, float]] = []

    cnot_form = h2 @ cnot @ np.kron(eye2, rz_matrix(theta)) @ cnot @ h2
    checks.append(("LMS = (HxH) CNOT (I x RZ) CNOT (HxH)", _dev(lms, cnot_form)))

    conditional = np.zeros((4, 4), dtype=complex)
    conditional[:2, :2] = rz_matrix(theta)
    conditional[2:, 2:] = rz_matrix(-theta)
    cond_form = h2 @ conditional @ h2
    checks.append(("LMS = (HxH) C(RZ(t), RZ(-t)) (HxH)", _dev(lms, cond_form)))

    checks.append(("LMS(t) LMS(-t) = I",
                   _dev(lms @ lms_matrix(-theta).entries, np.eye(4))))

    sdg2 = np.kron(s_dag_matrix(), s_dag_matrix())
    cz_from_lms = np.exp(1j * math.pi / 4) * sdg2 @ h2 @ lms_half @ h2
    checks.append(("CZ = e^{i pi/4} (Sdg x Sdg)(HxH) LMS(pi/2) (HxH)",
                   _dev(cz_matrix(), cz_from_lms)))

    h4 = fourier_matrix(4)
    csum = csum_matrix(4)
    eye4 = np.eye(4)
    cz4 = czd_matrix(4)
    checks.append(("CZ4 = (I x H4) CSUM4 (I x H4_dag)",
                   _dev(cz4, np.kron(eye4, h4) @ csum @ np.kron(eye4, h4.conj().T))))

    expected_sq = np.diag([(-1.0) ** (j * k) for j in range(4) for k in range(4)])
    checks.append(("(CZ4)^2 diagonal = (-1)^(jk)", _dev(cz4 @ cz4, expected_sq)))

    checks.append(("H4 H4_dag = I", _dev(h4 @ h4.conj().T, eye4)))
    x4 = shift_matrix(4)
    checks.append(("X4^4 = I", _dev(np.linalg.matrix_power(x4, 4), eye4)))
    k4 = gate_unitary("K4").entries
    checks.append(("K4^2 = I", _dev(k4 @ k4, eye4)))
    checks.append(("CSUM4 CSUM4_dag = I", _dev(csum @ csum.conj().T, np.eye(16))))
    checks.append(("(CZ4)^4 = I", _dev(np.linalg.matrix_power(cz4, 4), np.eye(16))))

    x23 = level_swap_matrix(4, 2, 3)
    parity_dev = 0.0
    for qa in range(2):
        for qb in range(2):
            col = 2 * qa + qb
            row = int(np.argmax(np.abs(x23[:, col])))
            parity_dev = max(parity_dev, abs(row % 2 - (qa ^ qb)))
    checks.append(("X23 low digit = pair parity", parity_dev))

    for n, count in ((4, 16), (6, 64)):
        worst = 0
        for idx in range(count):
            q = [(idx >> (n - 1 - p)) & 1 for p in range(n)]
            direct = sum(q[i] * q[j] for i in range(n) for j in range(i + 1, n)) % 2
            pairs = [(q[2 * t], q[2 * t + 1]) for t in range(n // 2)]
            rewritten = 0
            for t, (a, bb) in enumerate(pairs):
                rewritten ^= a & bb
                for (c, dd) in pairs[t + 1:]:
                    rewritten ^= (a ^ bb) & (c ^ dd)
            worst = max(worst, abs(direct - rewritten))
        checks.append((f"phase polynomial rewrite, n={n}", float(worst)))

    gcz4 = oracle_gcz(4).entries
    pairwise_cz = np.eye(16, dtype=complex)
    for i in range(4):
        for j in range(i + 1, 4):
            pairwise_cz = embed_unitary(cz_matrix(), (i, j), (2,) * 4) @ pairwise_cz
    checks.append(("GCZ(4) = product of pairwise CZ", _dev(gcz4, pairwise_cz)))
    return checks
