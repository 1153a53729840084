"""Builders for distributed qubit primitives: teleported controlled gates,
GHZ-state fan-out, and the pairwise / conditional / fan-out realizations of
global MS (GMS) and global CZ (GCZ) gates.

Every distributed controlled operation, here and in ``qudit_protocols``, is
one fan-out over Z_d (``_fanout``). Targets on the control's node are driven
directly. Targets on r remote nodes share one (r+1)-party GHZ state over Z_d
(a Bell pair when r = 1), one share per node however many targets it hosts.
The control's share absorbs the control value c through CSUM_d^dag, is
complemented by K_d (|j> -> |-j mod d>) and measured; its outcome m shifts
every remote share by X_d^m into |c>. All r shifts run as soon as m arrives,
before any share's own gates: after the last one no later condition reads m
and the d branches forked on m hold equal states, so they merge before the
per-share work instead of running it once per value of m. Each remote share
then drives the controlled operations onto its node's targets and is measured
in the Fourier basis F_d; Z_d^dag raised to the sum of those outcomes removes
the phase left on the control. Messages carry log2(d) bits and conditions are
sums mod d.

    role                         d = 2    d = 4
    control-to-share sum         CNOT     CSUM4_dag
    complement of the share      -        K4
    shift of the remote shares   X        X4
    Fourier measurement basis    H        H4
    phase correction             Z        Z4_dag

At d = 2, CSUM_2^dag is CNOT, F_2 is H, Z_2^dag is Z, and K_2 is the
identity because -j = j mod 2, so no complement gate is emitted: this is the
qubit fan-out of Yimsiriwattana & Lomonaco (quant-ph/0402148).

A global MS gate is a global ZZ rotation seen in the X basis (Molmer &
Sorensen, PRL 82, 1835 (1999)):

    GMS(theta) = H^(x)n . prod_{i<j} exp(-i theta/2 Z_i Z_j) . H^(x)n.

``build_dgms`` builds every strategy in that one shared frame: H on each data
qubit once before the interactions and once after them, and between them only
ZZ rotations, which are fan-outs and RZ gates. A Hadamard pair per factor or
per layer would cancel exactly, and the frame uses no entanglement, so the
resource counts are those of ``resources.gms_costs``. Every piece of the body
is then an RZ or a fan-out that contracts to a diagonal or monomial step, and a
merged run takes the whole body as one fused step (see ``simulate``).

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


# Controlled operations from a control (or GHZ share) onto one target, keyed
# by (dimension, operation), as wire gates in execution order with a scale for
# the operation's parameters (None: the gate takes none). Two-subsystem gates
# act on (control, target), one-subsystem gates on the target.
_CONTROLLED = {
    (2, "X"): (("CNOT", None),),
    (2, "Z"): (("CZ", None),),
    # C(I, RZ(phi)) = (I x RZ(phi/2)) CNOT (I x RZ(-phi/2)) CNOT
    (2, "RZ"): (("CNOT", None), ("RZ", -0.5), ("CNOT", None), ("RZ", 0.5)),
    (4, "csum"): (("CSUM4", None),),
    # CZ_4 is CSUM_4 conjugated by the target's Fourier gate; (CZ_4)^2 sums twice
    (4, "cz4"): (("H4_dag", None), ("CSUM4", None), ("H4", None)),
    (4, "cz4_sq"): (("H4_dag", None), ("CSUM4", None), ("CSUM4", None), ("H4", None)),
}

# Fan-out gates by dimension (see the module docstring): control-to-share sum,
# complement of the share, shift of the remote shares, Fourier gate, phase correction.
_SKELETON = {
    2: ("CNOT", None, "X", "H", "Z"),
    4: ("CSUM4_dag", "K4", "X4", "H4", "Z4_dag"),
}


def _emit_controlled(b: CircuitBuilder, ctrl: str, tgt: str, op: str, params, dim: int,
                     layer: int | None = None):
    """Controlled ``op`` between co-located subsystems, lowered to wire-format gates."""
    if (dim, op) not in _CONTROLLED:
        raise ValueError(f"controlled {op} is not expressible in the wire gate set")
    for gate, scale in _CONTROLLED[dim, op]:
        wires = (ctrl, tgt) if len(gate_arity(gate)) == 2 else (tgt,)
        b.gate(gate, wires, () if scale is None else [scale * p for p in params], layer=layer)


def _fanout(b: CircuitBuilder, control: str, targets, dim: int, layer: int | None = None):
    """Fan-out over Z_dim from ``control`` onto (label, op, params) targets.

    Local targets are driven directly; remote targets are grouped per node onto
    one GHZ share per node, in the order their nodes first appear.
    """
    sum_gate, complement, shift, fourier, phase = _SKELETON[dim]
    cnode = b.node_of(control)
    remote: dict[str, list] = {}
    for label, op, params in targets:
        if b.node_of(label) == cnode:
            _emit_controlled(b, control, label, op, params, dim, layer)
        else:
            remote.setdefault(b.node_of(label), []).append((label, op, params))
    if not remote:
        return
    bits = dim.bit_length() - 1
    share0, *shares = b.ghz((cnode, *remote), dim, layer)
    b.gate(sum_gate, (control, share0), layer=layer)
    if complement:
        b.gate(complement, (share0,), layer=layer)
    m0 = b.measure(share0, layer=layer)
    b.send(m0, cnode, list(remote), bits=bits, layer=layer)
    for share in shares:  # all at once, so the branches forked on m0 merge here
        b.cond(shift, (share,), (m0,), mod=dim, layer=layer)
    fourier_outcomes = []
    for (node, node_targets), share in zip(remote.items(), shares):
        for label, op, params in node_targets:
            _emit_controlled(b, share, label, op, params, dim, layer)
        b.gate(fourier, (share,), layer=layer)
        m = b.measure(share, layer=layer)
        b.send(m, node, [cnode], bits=bits, layer=layer)
        fourier_outcomes.append(m)
    b.cond(phase, (control,), fourier_outcomes, mod=dim, layer=layer)


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
    _fanout(b, control, [(label, u.name, u.params) for label, u in targets], 2)
    return b.build((control, *(label for label, _ in targets)))


def build_dcontrol_u(control: str, target: str, u: GateRef,
                     layout: NodeLayout) -> DistCircuit:
    """Teleported controlled-u between qubits on two different nodes (one Bell pair)."""
    _check_single_qubit(u)
    b = CircuitBuilder(layout)
    if b.node_of(control) == b.node_of(target):
        raise ValueError(f"{control} and {target} share a node; use a local gate")
    _fanout(b, control, [(target, u.name, u.params)], 2)
    return b.build((control, target))


def build_dgms(spec: GmsSpec, layout: NodeLayout, strategy: str) -> DistCircuit:
    """Distributed global MS gate, built as a global ZZ rotation in one shared
    Hadamard frame.

    GMS(theta) = exp(-i theta/2 sum_{i<j} X_i X_j)
               = H^(x)n . prod_{i<j} exp(-i theta/2 Z_i Z_j) . H^(x)n,

    so every strategy emits H on each data qubit, in label order, once before
    its interactions and once after them, and builds the body from ZZ
    rotations alone. A frame per factor or per layer would cancel: between two
    of its Hadamards on one qubit stand only gates on other qubits.

    pairwise: every ZZ factor via two teleported CNOTs around a local
    RZ(theta), so n(n-1) Bell pairs. pairwise_conditional: each factor as
    RZ(theta) on the second qubit and one distributed controlled RZ(-2 theta)
    from the first, so n(n-1)/2 Bell pairs. fanout: one layer per control
    qubit; each layer drives a controlled RZ(-2 theta) onto every later qubit
    through a single GHZ state, so the last layer degenerates to one Bell
    pair. The frame adds no resource, so the counts are those of
    ``resources.gms_costs``.
    """
    labels = spec.qubit_labels
    n = len(labels)
    theta = spec.theta
    b = CircuitBuilder(layout)
    if strategy not in ("pairwise", "pairwise_conditional", "fanout"):
        raise ValueError(f"unknown GMS strategy {strategy!r}")
    if strategy == "fanout" and len({b.node_of(q) for q in labels}) != n:
        raise ValueError("fanout strategy assumes one qubit per node; "
                         "use the GCZ builder for multi-qubit nodes")

    for q in labels:
        b.gate("H", (q,))
    if strategy == "fanout":
        for i, control in enumerate(labels[:-1]):
            rest = labels[i + 1:]
            for t in rest:
                b.gate("RZ", (t,), (theta,), layer=i)
            _fanout(b, control, [(t, "RZ", (-2 * theta,)) for t in rest], 2, layer=i)
    else:
        for i in range(n):
            for j in range(i + 1, n):
                qi, qj = labels[i], labels[j]
                if strategy == "pairwise":
                    _fanout(b, qi, [(qj, "X", ())], 2)
                    b.gate("RZ", (qj,), (theta,))
                    _fanout(b, qi, [(qj, "X", ())], 2)
                else:
                    b.gate("RZ", (qj,), (theta,))
                    _fanout(b, qi, [(qj, "RZ", (-2 * theta,))], 2)
    for q in labels:
        b.gate("H", (q,))
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
                _fanout(b, labels[i], [(labels[j], "Z", ())], 2)
        return b.build(labels)

    if strategy == "fanout":
        for i, control in enumerate(labels[:-1]):
            _fanout(b, control, [(t, "Z", ()) for t in labels[i + 1:]], 2, layer=i)
        return b.build(labels)

    if strategy == "teleport_all":
        by_node = partition.qubits_per_node
        occupied = [node for node in partition.layout.nodes if by_node[node]]
        if len(occupied) != 2:
            raise ValueError("teleport_all supports exactly two occupied nodes")
        src, dst = sorted(occupied, key=lambda nd: (len(by_node[nd]), occupied.index(nd)))
        moved = [q for q in labels if b.node_of(q) == src]

        def teleport(data: str, node_from: str, node_to: str) -> str:
            ea, eb = b.ghz((node_from, node_to))
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
