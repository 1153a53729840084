"""Builders for distributed qubit primitives: teleported controlled gates,
GHZ-state fan-out, and the pairwise / conditional / fan-out realizations of
global MS (GMS) and global CZ (GCZ) gates.

All builders are pure: they take a layout of computation qubits, allocate
communication qubits and outcome symbols, and return an immutable circuit.
Entanglement use follows the standard accounting: a teleported controlled
gate consumes one Bell pair; a fan-out from one control to targets on r
remote nodes consumes one (r+1)-party GHZ state (a Bell pair when r = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitBuilder, DistCircuit, GateRef, NodeLayout
from .gates import gate_arity, x_matrix
from .statevec import Unitary


@dataclass(frozen=True)
class GmsSpec:
    """Qubit set and rotation angle of a global MS gate."""

    qubit_labels: tuple[str, ...]
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "qubit_labels", tuple(self.qubit_labels))
        if len(self.qubit_labels) < 2:
            raise ValueError("a global MS gate needs at least 2 qubits")
        if len(set(self.qubit_labels)) != len(self.qubit_labels):
            raise ValueError("qubit labels must be distinct")


@dataclass(frozen=True)
class Partition:
    """Node layout restricted to computation qubits."""

    layout: NodeLayout

    @property
    def qubits_per_node(self) -> dict[str, list[str]]:
        groups: dict[str, list[str]] = {node: [] for node in self.layout.nodes}
        for label, node in self.layout.placement.items():
            groups[node].append(label)
        return groups


def lms_matrix(theta: float) -> Unitary:
    """Two-qubit MS interaction exp(-i theta/2 X (x) X)."""
    xx = np.kron(x_matrix(), x_matrix())
    mat = math.cos(theta / 2) * np.eye(4) - 1j * math.sin(theta / 2) * xx
    return Unitary(mat, (2, 2))


def _check_single_qubit(u: GateRef):
    if gate_arity(u.name) != (2,):
        raise ValueError(f"target operation must be a single-qubit gate, got {u.name}")


def _emit_controlled(b: CircuitBuilder, ctrl: str, tgt: str, u: GateRef,
                     layer: int | None = None):
    """Controlled-u between co-located qubits, lowered to wire-format gates."""
    if u.name == "X":
        b.gate("CNOT", (ctrl, tgt), layer=layer)
    elif u.name == "Z":
        b.gate("CZ", (ctrl, tgt), layer=layer)
    elif u.name == "RZ":
        (phi,) = u.params
        # C(I, RZ(phi)) = (I x RZ(phi/2)) CNOT (I x RZ(-phi/2)) CNOT
        b.gate("CNOT", (ctrl, tgt), layer=layer)
        b.gate("RZ", (tgt,), (-phi / 2,), layer=layer)
        b.gate("CNOT", (ctrl, tgt), layer=layer)
        b.gate("RZ", (tgt,), (phi / 2,), layer=layer)
    else:
        raise ValueError(f"controlled {u.name} is not expressible in the wire gate set")


def _fanout_core(b: CircuitBuilder, control: str, groups: dict[str, list],
                 layer: int | None = None):
    """Distributed fan-out from ``control`` to remote nodes.

    ``groups`` maps each remote node to its (label, GateRef) targets. One GHZ
    share per participating node; the control-side share is entangled with
    the control and measured (X corrections follow on the remote shares), each
    remote share drives the controlled gates onto its node's targets, and the
    final Z correction on the control XORs the H-basis outcomes of the remote
    shares.
    """
    cnode = b.node_of(control)
    rnodes = list(groups)
    labels = b.ghz([cnode] + rnodes, layer=layer)
    comm0, comms = labels[0], labels[1:]
    b.gate("CNOT", (control, comm0), layer=layer)
    m0 = b.measure(comm0, layer=layer)
    b.send(m0, cnode, rnodes, bits=1, layer=layer)
    h_outcomes = []
    for node, comm in zip(rnodes, comms):
        b.cond("X", (comm,), (m0,), layer=layer)
        for label, u in groups[node]:
            _emit_controlled(b, comm, label, u, layer)
        b.gate("H", (comm,), layer=layer)
        m = b.measure(comm, layer=layer)
        b.send(m, node, [cnode], bits=1, layer=layer)
        h_outcomes.append(m)
    b.cond("Z", (control,), tuple(h_outcomes), layer=layer)


def _group_remote(b: CircuitBuilder, control: str, targets) -> tuple[list, dict]:
    cnode = b.node_of(control)
    local, groups = [], {}
    for label, u in targets:
        if b.node_of(label) == cnode:
            local.append((label, u))
        else:
            groups.setdefault(b.node_of(label), []).append((label, u))
    return local, groups


def build_fanout(control: str, targets, layout: NodeLayout) -> DistCircuit:
    """Multitarget controlled operation from one control qubit.

    ``targets`` is a list of (label, GateRef) pairs with single-qubit gates.
    Targets on the control's node are driven locally; remote targets share one
    GHZ resource, one communication qubit per remote node regardless of how
    many targets that node hosts.
    """
    targets = [(label, u) for label, u in targets]
    if not targets:
        raise ValueError("fan-out needs at least one target")
    seen = {control}
    for label, u in targets:
        _check_single_qubit(u)
        if label in seen:
            raise ValueError(f"duplicate qubit {label!r} in fan-out")
        seen.add(label)
    b = CircuitBuilder(layout)
    local, groups = _group_remote(b, control, targets)
    for label, u in local:
        _emit_controlled(b, control, label, u)
    if groups:
        _fanout_core(b, control, groups)
    inputs = (control, *(label for label, _ in targets))
    return b.build(inputs)


def build_dcontrol_u(control: str, target: str, u: GateRef,
                     layout: NodeLayout) -> DistCircuit:
    """Teleported controlled-u between qubits on two different nodes (one Bell pair)."""
    _check_single_qubit(u)
    b = CircuitBuilder(layout)
    if b.node_of(control) == b.node_of(target):
        raise ValueError(f"{control} and {target} share a node; use a local gate")
    _fanout_core(b, control, {b.node_of(target): [(target, u)]})
    return b.build((control, target))


def _emit_cu_distributed(b: CircuitBuilder, ctrl: str, tgt: str, u: GateRef,
                         layer: int | None = None):
    """Controlled-u via one Bell pair when the qubits sit on different nodes."""
    if b.node_of(ctrl) == b.node_of(tgt):
        _emit_controlled(b, ctrl, tgt, u, layer)
        return
    _fanout_core(b, ctrl, {b.node_of(tgt): [(tgt, u)]}, layer)


def build_dgms(spec: GmsSpec, layout: NodeLayout, strategy: str) -> DistCircuit:
    """Distributed global MS gate.

    pairwise: every two-qubit MS factor via two teleported CNOTs around a
    local RZ(theta), so n(n-1) Bell pairs. pairwise_conditional: each factor
    in the conditional form H (x) H . C(RZ(theta), RZ(-theta)) . H (x) H,
    needing one distributed controlled RZ(-2 theta) per factor, so n(n-1)/2
    Bell pairs. fanout: one layer per control qubit; each layer drives a
    controlled RZ(-2 theta) onto every later qubit through a single GHZ
    state, with the per-layer H pairs on the control collapsed; the last
    layer degenerates to one Bell pair.
    """
    labels = spec.qubit_labels
    n = len(labels)
    theta = spec.theta
    b = CircuitBuilder(layout)

    if strategy == "pairwise":
        for i in range(n):
            for j in range(i + 1, n):
                qi, qj = labels[i], labels[j]
                b.gate("H", (qi,))
                b.gate("H", (qj,))
                _emit_cu_distributed(b, qi, qj, GateRef("X"))
                b.gate("RZ", (qj,), (theta,))
                _emit_cu_distributed(b, qi, qj, GateRef("X"))
                b.gate("H", (qi,))
                b.gate("H", (qj,))
    elif strategy == "pairwise_conditional":
        for i in range(n):
            for j in range(i + 1, n):
                qi, qj = labels[i], labels[j]
                b.gate("H", (qi,))
                b.gate("H", (qj,))
                b.gate("RZ", (qj,), (theta,))
                _emit_cu_distributed(b, qi, qj, GateRef("RZ", (-2 * theta,)))
                b.gate("H", (qi,))
                b.gate("H", (qj,))
    elif strategy == "fanout":
        nodes = [b.node_of(q) for q in labels]
        if len(set(nodes)) != n:
            raise ValueError("fanout strategy assumes one qubit per node; "
                             "use the GCZ builder for multi-qubit nodes")
        for i in range(n - 1):
            control = labels[i]
            rest = labels[i + 1:]
            b.gate("H", (control,), layer=i)
            for t in rest:
                b.gate("H", (t,), layer=i)
                b.gate("RZ", (t,), (theta,), layer=i)
            groups = {b.node_of(t): [(t, GateRef("RZ", (-2 * theta,)))] for t in rest}
            _fanout_core(b, control, groups, layer=i)
            for t in rest:
                b.gate("H", (t,), layer=i)
            b.gate("H", (control,), layer=i)
    else:
        raise ValueError(f"unknown GMS strategy {strategy!r}")
    return b.build(labels)


def build_dgcz(qubit_labels, partition: Partition, strategy: str) -> DistCircuit:
    """Distributed global CZ gate over an arbitrary partition.

    pairwise: one teleported CZ (one Bell pair) per cross-node pair, local CZ
    otherwise. fanout: one layer per qubit in label order, driving CZ onto all
    later qubits; local ones directly, remote ones through one GHZ share per
    remote node (reused for every target there). teleport_all (two nodes
    only): teleport one node's qubits across, apply the gate locally, and
    teleport them back, at two Bell pairs per moved qubit.
    """
    labels = tuple(qubit_labels)
    n = len(labels)
    if n < 2:
        raise ValueError("a global CZ gate needs at least 2 qubits")
    b = CircuitBuilder(partition.layout)

    if strategy == "pairwise":
        for i in range(n):
            for j in range(i + 1, n):
                _emit_cu_distributed(b, labels[i], labels[j], GateRef("Z"))
        return b.build(labels)

    if strategy == "fanout":
        for i, control in enumerate(labels[:-1]):
            cnode = b.node_of(control)
            groups: dict[str, list] = {}
            for t in labels[i + 1:]:
                node = b.node_of(t)
                if node == cnode:
                    b.gate("CZ", (control, t), layer=i)
                else:
                    groups.setdefault(node, []).append((t, GateRef("Z")))
            if groups:
                _fanout_core(b, control, groups, layer=i)
        return b.build(labels)

    if strategy == "teleport_all":
        by_node = partition.qubits_per_node
        occupied = [node for node in partition.layout.nodes if by_node[node]]
        if len(occupied) != 2:
            raise ValueError("teleport_all supports exactly two occupied nodes")
        src, dst = sorted(occupied, key=lambda nd: (len(by_node[nd]), occupied.index(nd)))
        moved = [q for q in labels if b.node_of(q) == src]

        def teleport(data: str, node_from: str, node_to: str) -> str:
            ea, eb = b.bell(node_from, node_to)
            b.gate("CNOT", (data, ea))
            b.gate("H", (data,))
            ma = b.measure(ea)
            mq = b.measure(data)
            b.send(ma, node_from, [node_to], bits=1)
            b.send(mq, node_from, [node_to], bits=1)
            b.cond("X", (eb,), (ma,))
            b.cond("Z", (eb,), (mq,))
            return eb

        holder = {q: teleport(q, src, dst) for q in moved}
        gathered = [holder.get(q, q) for q in labels]
        for i in range(n):
            for j in range(i + 1, n):
                b.gate("CZ", (gathered[i], gathered[j]))
        final = {q: teleport(holder[q], dst, src) for q in moved}
        outputs = tuple(final.get(q, q) for q in labels)
        return b.build(labels, outputs)

    raise ValueError(f"unknown GCZ strategy {strategy!r}")
