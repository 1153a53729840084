"""Dimension-4 qudit protocols: qubit-pair encoding, the teleported CSUM_4,
distributed CZ_4 powers, the single-control multitarget CSUM''_4, and the
qudit-compressed distributed GCZ.

A dimension-4 qudit encodes two co-located qubits via |q_a q_b> -> |2 q_a + q_b>.
Conjugating a qudit by X23 moves the pair parity q_a xor q_b into its low
digit, so two (CZ_4)^2 gates between conjugated qudits contribute exactly the
cross-pair phase (-1)^((q_a xor q_b)(q_c xor q_d)); P3 supplies the intra-pair
phase (-1)^(q_a q_b). That decomposition turns an n-qubit GCZ into one
diagonal block per node pair, distributable with one qudit pair or one qudit
GHZ state per fan-out.

Every distributed protocol here is the d = 4 case of the fan-out in
``qubit_protocols`` (``_fanout``): CSUM4_dag sums the control into its share,
K4 complements the share before it is measured (needed here because -j != j
mod 4 for j = 1, 3), X4 shifts the remote shares by the 2-bit outcome, H4 is
the Fourier measurement basis, and Z4_dag raised to the summed outcomes fixes
the control's phase. A remote share drives its targets with CSUM4 ("csum"),
with CSUM4 between H4_dag and H4 on the target (CZ_4, "cz4"), or with two
CSUM4 between them ((CZ_4)^2, "cz4_sq").
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import CircuitBuilder, DistCircuit, NodeLayout
from .qubit_protocols import _CONTROLLED, Partition, _fanout
from .statevec import MixedRegister, permute


@dataclass(frozen=True)
class QuditEncoding:
    """Ordered pairing of qubit labels onto qudit labels (|q_a q_b> -> |2 q_a + q_b>)."""

    pairs: tuple[tuple[str, str], ...]
    qudit_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((a, b) for a, b in self.pairs))
        object.__setattr__(self, "qudit_labels", tuple(self.qudit_labels))
        if len(self.pairs) != len(self.qudit_labels):
            raise ValueError("one qudit label per qubit pair required")
        flat = [q for pair in self.pairs for q in pair]
        if len(set(flat)) != len(flat):
            raise ValueError("qubit labels must be distinct across pairs")

    @property
    def qubit_order(self) -> tuple[str, ...]:
        return tuple(q for pair in self.pairs for q in pair)


def encode(state: MixedRegister, enc: QuditEncoding) -> MixedRegister:
    """Merge each qubit pair into one dimension-4 subsystem (amplitude-preserving)."""
    expected = set(enc.qubit_order)
    if set(state.labels) != expected:
        missing = expected ^ set(state.labels)
        raise ValueError(f"encoding pairs do not cover the register (mismatch: {sorted(missing)})")
    for label in state.labels:
        if state.dim_of(label) != 2:
            raise ValueError(f"{label!r} is not a qubit (dimension {state.dim_of(label)})")
    ordered = permute(state, enc.qubit_order)
    dims = (4,) * len(enc.pairs)
    return MixedRegister(dims, ordered.amps, enc.qudit_labels)


def decode(state: MixedRegister, enc: QuditEncoding) -> MixedRegister:
    """Split each dimension-4 subsystem back into its qubit pair."""
    if tuple(state.labels) != enc.qudit_labels:
        ordered = permute(state, enc.qudit_labels)
    else:
        ordered = state
    if any(d != 4 for d in ordered.dims):
        raise ValueError(f"decode expects dimension-4 subsystems, got {ordered.dims}")
    dims = (2,) * (2 * len(enc.pairs))
    return MixedRegister(dims, ordered.amps, enc.qubit_order)


def build_dcsum4(q1: str, q2: str, layout: NodeLayout) -> DistCircuit:
    """Teleported CSUM_4 between qudits on two nodes, using one qudit pair."""
    b = CircuitBuilder(layout)
    if b.node_of(q1) == b.node_of(q2):
        raise ValueError(f"{q1} and {q2} share a node; use a local CSUM4")
    _fanout(b, q1, [(q2, "csum", ())], 4)
    return b.build((q1, q2))


def build_dcz4_pow(q1: str, q2: str, power: int, layout: NodeLayout) -> DistCircuit:
    """Teleported CZ_4 (power 1) or (CZ_4)^2 (power 2) over one qudit pair."""
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    b = CircuitBuilder(layout)
    if b.node_of(q1) == b.node_of(q2):
        raise ValueError(f"{q1} and {q2} share a node; use a local gate")
    _fanout(b, q1, [(q2, "cz4" if power == 1 else "cz4_sq", ())], 4)
    return b.build((q1, q2))


def build_dcsum4_multitarget(control: str, targets, layout: NodeLayout,
                             receiver_op: str = "csum") -> DistCircuit:
    """Single-control multitarget qudit fan-out over one qudit GHZ state.

    receiver_op "csum" realizes CSUM''_4 (|i>|j>|k> -> |i>|i+j>|i+k| mod 4);
    "cz4_sq" drives (CZ_4)^2 from the control onto every target.
    """
    targets = tuple(targets)
    if not targets:
        raise ValueError("fan-out needs at least one target")
    b = CircuitBuilder(layout)
    seen = {control}
    for t in targets:
        if t in seen:
            raise ValueError(f"duplicate qudit {t!r} in fan-out")
        seen.add(t)
        if b.node_of(t) == b.node_of(control):
            raise ValueError(f"target {t!r} is co-located with the control")
    if (4, receiver_op) not in _CONTROLLED:
        raise ValueError(f"unknown receiver operation {receiver_op!r}")
    _fanout(b, control, [(t, receiver_op, ()) for t in targets], 4)
    return b.build((control, *targets))


def build_qudit_gcz(n_qubits: int, partition: Partition,
                    enc: QuditEncoding) -> DistCircuit:
    """Qudit-compressed distributed GCZ over one dimension-4 qudit per node.

    Each interacting node pair needs one (CZ_4)^2 between X23-conjugated
    qudits; the fan-outs from each qudit to all later ones use one qudit GHZ
    state each, the final pair a single entangled qudit pair, and P3 per
    qudit supplies the intra-pair phases.
    """
    if n_qubits % 2:
        raise ValueError("qudit compression pairs qubits; n_qubits must be even")
    if n_qubits != 2 * len(enc.pairs):
        raise ValueError("encoding must cover exactly n_qubits qubits")
    qudits = enc.qudit_labels
    d_nodes = len(qudits)
    b = CircuitBuilder(partition.layout)
    nodes = [b.node_of(q) for q in qudits]
    if len(set(nodes)) != d_nodes:
        raise ValueError("expected one qudit per node")
    for (qa, qb), qd in zip(enc.pairs, qudits):
        pa = partition.layout.placement.get(qa)
        pb = partition.layout.placement.get(qb)
        if pa is not None and pb is not None and pa != pb:
            raise ValueError(f"encoded pair ({qa}, {qb}) spans nodes {pa} and {pb}")

    for i in range(d_nodes - 1):
        block = qudits[i:]
        for q in block:
            b.gate("X23", (q,), layer=i)
        _fanout(b, block[0], [(t, "cz4_sq", ()) for t in block[1:]], 4, layer=i)
        for q in block:
            b.gate("X23", (q,), layer=i)
    for q in enc.qudit_labels:
        b.gate("P3", (q,))
    return b.build(enc.qudit_labels)
