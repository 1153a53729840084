"""Distributed-circuit data model: node layout, instructions, resource tally, JSON format.

Instructions are placed operations over named subsystems. Cross-node effects
happen only through entanglement-resource creation, classical messages, and
classically conditioned local corrections; plain local gates never span nodes.

JSON schema (all optional instruction fields omitted when empty):

    {"layout": {"nodes": [...], "placement": {label: node}, "comm_slots": {node: int}},
     "instructions": [{"kind": ..., "targets": [...], "gate": ..., "params": [...],
                       "condition": {"xor": [...]} | {"sum_mod": d, "terms": [...]},
                       "parties": [...], "dim": ..., "outcome": ..., "symbol": ...,
                       "bits": ..., "layer": ...}],
     "inputs": [...], "outputs": [...]}

Gate parameters serialize as exact multiples of pi ("pi/2", "-2pi/3") when the
float is exactly representable that way, else as a repr'd decimal; both forms
round-trip bit-stably.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple

from .gates import WIRE_GATES, gate_arity

KINDS = ("LocalGate", "CreateBell", "CreateGHZ", "CreateQuditPair", "CreateQuditGHZ",
         "Measure", "ClassicalSend", "CondGate")
RESOURCE_KINDS = ("CreateBell", "CreateGHZ", "CreateQuditPair", "CreateQuditGHZ")


class CircuitParseError(ValueError):
    """Raised when circuit JSON cannot be parsed or references undefined names."""


@dataclass(frozen=True)
class GateRef:
    """A gate by wire-format name plus parameters (serializable form)."""

    name: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        gate_arity(self.name)  # validates the name


@dataclass(frozen=True)
class Condition:
    """Classical expression over outcome symbols: their sum mod ``mod``.

    mod=2 is the XOR of qubit outcome bits; mod=d sums qudit outcomes mod d.
    """

    terms: tuple[str, ...]
    mod: int = 2

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.mod < 2:
            raise ValueError("condition modulus must be >= 2")

    def evaluate(self, values: Mapping[str, int]) -> int:
        total = 0
        for sym in self.terms:
            if sym not in values:
                raise ValueError(f"condition references unmeasured symbol {sym!r}")
            total += values[sym]
        return total % self.mod


def _is_dimension(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 2


@dataclass(frozen=True)
class Instruction:
    kind: str
    targets: tuple[str, ...] = ()
    gate: str | None = None
    params: tuple[float, ...] = ()
    condition: Condition | None = None
    parties: tuple[str, ...] = ()
    dim: int | None = None          # qudit resource dimension
    outcome: str | None = None      # Measure: symbol the result binds to
    symbol: str | None = None       # ClassicalSend: symbol carried
    bits: int | None = None         # ClassicalSend: payload width in bits
    layer: int | None = None        # concurrency metadata (builders set it)

    def __post_init__(self):
        for name in ("targets", "parties"):
            value = getattr(self, name)
            labels = () if isinstance(value, str) else tuple(value)
            if isinstance(value, str) or not all(isinstance(v, str) for v in labels):
                raise ValueError(f"{name} must be a sequence of label strings, got {value!r}")
            object.__setattr__(self, name, labels)
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind not in KINDS:
            raise ValueError(f"unknown instruction kind {self.kind!r}")
        if self.dim is not None and not _is_dimension(self.dim):
            raise ValueError(f"dim must be an integer >= 2, got {self.dim!r}")


@dataclass(frozen=True)
class NodeLayout:
    """Placement of subsystems onto named nodes, with comm-slot capacities."""

    nodes: tuple[str, ...]
    placement: dict[str, str] = field(default_factory=dict)
    comm_slots: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "placement", dict(self.placement))
        slots = dict(self.comm_slots)
        for node in self.nodes:
            slots.setdefault(node, 1)
        object.__setattr__(self, "comm_slots", slots)

    def node_of(self, label: str) -> str:
        try:
            return self.placement[label]
        except KeyError:
            raise ValueError(f"subsystem {label!r} is not placed on any node") from None


@dataclass(frozen=True)
class DistCircuit:
    layout: NodeLayout
    instructions: tuple[Instruction, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))


@dataclass
class ResourceTally:
    """Entanglement-resource counts plus a time estimate in t_ep units."""

    ep: int = 0
    ghz: dict[int, int] = field(default_factory=dict)
    ep_d: dict[int, int] = field(default_factory=dict)
    ghz_d: dict[tuple[int, int], int] = field(default_factory=dict)
    time_units: float = 0.0

    def as_dict(self) -> dict:
        return {
            "ep": self.ep,
            "ghz": {str(k): v for k, v in sorted(self.ghz.items())},
            "ep_d": {str(k): v for k, v in sorted(self.ep_d.items())},
            "ghz_d": {f"{a},{d}": v for (a, d), v in sorted(self.ghz_d.items())},
            "time_units": self.time_units,
        }

    def summary(self) -> str:
        parts = []
        if self.ep:
            parts.append(f"{self.ep} ep")
        for arity, count in sorted(self.ghz.items()):
            parts.append(f"{count} ghz({arity})")
        for dim, count in sorted(self.ep_d.items()):
            parts.append(f"{count} ep_d({dim})")
        for (arity, dim), count in sorted(self.ghz_d.items()):
            parts.append(f"{count} ghz_d({arity},{dim})")
        body = ", ".join(parts) if parts else "no entanglement resources"
        return f"{body}; time = {self.time_units:g} t_ep"


def _eps_for(epsilon, arity: int) -> float:
    if callable(epsilon):
        return float(epsilon(arity))
    if isinstance(epsilon, Mapping):
        return float(epsilon.get(arity, 1.0))
    return float(epsilon)


def tally(circuit: DistCircuit, epsilon=1.0, schedule: str = "serial") -> ResourceTally:
    """Count entanglement resources and estimate time in t_ep units.

    A Bell or qudit pair costs 1; a GHZ of any arity costs epsilon (scalar,
    per-arity mapping, or callable). schedule="serial" sums every resource;
    "layered" sums, per layer index, the maximum cost within the layer
    (instructions without a layer each form their own).
    """
    t = ResourceTally()
    costs: dict[object, list[float]] = {}
    serial = 0
    for ins in circuit.instructions:
        if ins.kind == "CreateBell":
            t.ep += 1
            cost = 1.0
        elif ins.kind == "CreateGHZ":
            arity = len(ins.parties)
            t.ghz[arity] = t.ghz.get(arity, 0) + 1
            cost = _eps_for(epsilon, arity)
        elif ins.kind == "CreateQuditPair":
            t.ep_d[ins.dim] = t.ep_d.get(ins.dim, 0) + 1
            cost = 1.0
        elif ins.kind == "CreateQuditGHZ":
            arity = len(ins.parties)
            key = (arity, ins.dim)
            t.ghz_d[key] = t.ghz_d.get(key, 0) + 1
            cost = _eps_for(epsilon, arity)
        else:
            continue
        group = ins.layer if (schedule == "layered" and ins.layer is not None) else ("#", serial)
        serial += 1
        costs.setdefault(group, []).append(cost)
    t.time_units = sum(max(v) for v in costs.values()) if costs else 0.0
    return t


def count_messages(circuit: DistCircuit) -> int:
    """Number of classical messages the circuit sends between nodes."""
    return sum(1 for ins in circuit.instructions if ins.kind == "ClassicalSend")


# ---------------------------------------------------------------------------
# angle formatting: exact multiples of pi round-trip as "p*pi/q"
# ---------------------------------------------------------------------------

_ANGLE_RE = re.compile(r"(-?\d*)\*?pi(?:/(-?\d+))?")


def format_angle(x: float) -> str:
    if x == 0:
        return "0"
    frac = Fraction(x / math.pi).limit_denominator(360)
    p, q = frac.numerator, frac.denominator
    if p != 0 and math.pi * p / q == x:
        head = "pi" if p == 1 else ("-pi" if p == -1 else f"{p}pi")
        return head if q == 1 else f"{head}/{q}"
    return repr(float(x))


def parse_angle(text: str) -> float:
    s = str(text).strip().replace(" ", "")
    if "pi" not in s:
        try:
            return float(s)
        except ValueError:
            raise ValueError(f"cannot parse angle {text!r}") from None
    m = _ANGLE_RE.fullmatch(s)
    if m is None:
        raise ValueError(f"cannot parse angle {text!r}")
    raw_p = m.group(1)
    if raw_p in ("", "+"):
        p = 1
    elif raw_p == "-":
        p = -1
    else:
        p = int(raw_p)
    q = int(m.group(2) or 1)
    if q == 0:
        raise ValueError(f"cannot parse angle {text!r}")
    return math.pi * p / q


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _condition_to_json(cond: Condition) -> dict:
    if cond.mod == 2:
        return {"xor": list(cond.terms)}
    return {"sum_mod": cond.mod, "terms": list(cond.terms)}


def _labels_from_json(value, where: str) -> tuple[str, ...]:
    """A JSON list of label strings; a bare string is not split into characters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise CircuitParseError(f"{where} must be a list of strings, got {value!r}")
    return tuple(value)


def _condition_from_json(obj, where: str) -> Condition:
    if not isinstance(obj, dict):
        raise CircuitParseError(f"condition must be an object, got {obj!r}")
    if "xor" in obj:
        return Condition(_labels_from_json(obj["xor"], f"{where}: 'xor'"), 2)
    if "sum_mod" in obj:
        return Condition(_labels_from_json(obj["terms"], f"{where}: 'terms'"),
                         int(obj["sum_mod"]))
    raise CircuitParseError(f"condition must use 'xor' or 'sum_mod': {obj!r}")


def _instruction_to_json(ins: Instruction) -> dict:
    out: dict = {"kind": ins.kind, "targets": list(ins.targets)}
    if ins.gate is not None:
        out["gate"] = ins.gate
    if ins.params:
        out["params"] = [format_angle(p) for p in ins.params]
    if ins.condition is not None:
        out["condition"] = _condition_to_json(ins.condition)
    if ins.parties:
        out["parties"] = list(ins.parties)
    if ins.dim is not None:
        out["dim"] = ins.dim
    if ins.outcome is not None:
        out["outcome"] = ins.outcome
    if ins.symbol is not None:
        out["symbol"] = ins.symbol
    if ins.bits is not None:
        out["bits"] = ins.bits
    if ins.layer is not None:
        out["layer"] = ins.layer
    return out


def _instruction_from_json(obj, index: int) -> Instruction:
    try:
        kind = obj["kind"]
    except (KeyError, TypeError):
        raise CircuitParseError(f"instruction {index}: missing 'kind'") from None
    if kind not in KINDS:
        raise CircuitParseError(f"instruction {index}: unknown kind {kind!r}")
    gate = obj.get("gate")
    if gate is not None and gate not in WIRE_GATES:
        raise CircuitParseError(f"instruction {index}: unknown gate name {gate!r}")
    labels = {name: _labels_from_json(obj.get(name, []), f"instruction {index}: {name!r}")
              for name in ("targets", "parties")}
    dim = obj.get("dim")
    if dim is not None and not _is_dimension(dim):
        raise CircuitParseError(f"instruction {index}: 'dim' must be an integer >= 2, got {dim!r}")
    cond = obj.get("condition")
    return Instruction(
        kind=kind,
        targets=labels["targets"],
        gate=gate,
        params=tuple(parse_angle(p) for p in obj.get("params", ())),
        condition=(_condition_from_json(cond, f"instruction {index}: condition")
                   if cond is not None else None),
        parties=labels["parties"],
        dim=dim,
        outcome=obj.get("outcome"),
        symbol=obj.get("symbol"),
        bits=obj.get("bits"),
        layer=obj.get("layer"),
    )


def serialize(circuit: DistCircuit) -> str:
    doc = {
        "layout": {
            "nodes": list(circuit.layout.nodes),
            "placement": dict(circuit.layout.placement),
            "comm_slots": dict(circuit.layout.comm_slots),
        },
        "instructions": [_instruction_to_json(i) for i in circuit.instructions],
        "inputs": list(circuit.inputs),
        "outputs": list(circuit.outputs),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def deserialize(text: str) -> DistCircuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CircuitParseError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    try:
        layout_doc = doc["layout"]
        layout = NodeLayout(
            nodes=_labels_from_json(layout_doc["nodes"], "layout 'nodes'"),
            placement=dict(layout_doc.get("placement", {})),
            comm_slots={k: int(v) for k, v in layout_doc.get("comm_slots", {}).items()},
        )
        instructions = tuple(
            _instruction_from_json(obj, i) for i, obj in enumerate(doc["instructions"]))
        circuit = DistCircuit(
            layout=layout,
            instructions=instructions,
            inputs=_labels_from_json(doc["inputs"], "'inputs'"),
            outputs=_labels_from_json(doc["outputs"], "'outputs'"),
        )
    except (KeyError, TypeError) as e:
        raise CircuitParseError(f"malformed circuit document: {e}") from None
    # a condition may only reference outcomes measured earlier
    defined: set[str] = set()
    for i, ins in enumerate(circuit.instructions):
        if ins.condition is not None:
            missing = [s for s in ins.condition.terms if s not in defined]
            if missing:
                raise CircuitParseError(
                    f"instruction {i}: condition references undefined outcome {missing[0]!r}")
        if ins.kind == "Measure" and ins.outcome:
            defined.add(ins.outcome)
    return circuit


# ---------------------------------------------------------------------------
# validation (violations are data, not exceptions)
# ---------------------------------------------------------------------------

class Violation(NamedTuple):
    index: int | None
    rule: str
    detail: str

    def __str__(self):
        where = "circuit" if self.index is None else f"instruction {self.index}"
        return f"{where}: {self.rule}: {self.detail}"


def validate(circuit: DistCircuit) -> list[Violation]:
    """Check every structural invariant; empty list means the circuit is well formed."""
    v: list[Violation] = []
    layout = circuit.layout
    declared = set(layout.nodes)
    for node, slots in layout.comm_slots.items():
        if slots < 0:
            v.append(Violation(None, "negative comm slots", f"{node} has {slots}"))
    for label, node in layout.placement.items():
        if node not in declared:
            v.append(Violation(None, "placement on undeclared node", f"{label} -> {node}"))

    defined: set[str] = set()
    created: dict[str, int] = {}
    measured: set[str] = set()
    for i, ins in enumerate(circuit.instructions):
        for label in ins.targets:
            if label not in layout.placement:
                v.append(Violation(i, "unplaced subsystem", label))
        if ins.kind in ("LocalGate", "CondGate"):
            nodes = {layout.placement.get(t) for t in ins.targets}
            if len(nodes) > 1:
                v.append(Violation(i, "cross-node local gate",
                                   f"targets {ins.targets} span nodes {sorted(map(str, nodes))}"))
            if ins.gate is None:
                v.append(Violation(i, "missing gate name", ins.kind))
            elif ins.gate not in WIRE_GATES:
                v.append(Violation(i, "unknown gate name", ins.gate))
        if ins.kind in ("CreateBell", "CreateQuditPair") and len(ins.parties) != 2:
            v.append(Violation(i, "resource arity", f"{ins.kind} needs exactly 2 parties"))
        if ins.kind in ("CreateGHZ", "CreateQuditGHZ") and len(ins.parties) < 3:
            v.append(Violation(i, "resource arity",
                               f"{ins.kind} needs >= 3 parties (2 parties is a pair)"))
        if ins.kind in RESOURCE_KINDS:
            for node in ins.parties:
                if node not in declared:
                    v.append(Violation(i, "undeclared party node", node))
            if len(ins.targets) != len(ins.parties):
                v.append(Violation(i, "resource shape", "one created subsystem per party"))
            for label in ins.targets:
                created[label] = i
        if ins.kind == "CondGate":
            if ins.condition is None:
                v.append(Violation(i, "missing condition", "CondGate without condition"))
            else:
                for sym in ins.condition.terms:
                    if sym not in defined:
                        v.append(Violation(i, "unknown outcome symbol", sym))
        if ins.kind == "Measure":
            if ins.outcome:
                defined.add(ins.outcome)
            measured.update(ins.targets)
        if ins.kind == "ClassicalSend":
            if ins.symbol is None:
                v.append(Violation(i, "missing symbol", "ClassicalSend without symbol"))
            if len(ins.parties) < 2:
                v.append(Violation(i, "message parties", "need source and >= 1 destination"))

    keep = set(circuit.outputs)
    for label, where in created.items():
        if label not in measured and label not in keep:
            v.append(Violation(where, "unconsumed communication subsystem", label))
    return v


# ---------------------------------------------------------------------------
# builder plumbing shared by the protocol modules
# ---------------------------------------------------------------------------

class CircuitBuilder:
    """Accumulates placed instructions, generating comm labels and outcome symbols."""

    def __init__(self, layout: NodeLayout):
        self.nodes = tuple(layout.nodes)
        self.placement = dict(layout.placement)
        self.comm_slots = dict(layout.comm_slots)
        self.instructions: list[Instruction] = []
        self._resource_seq = 0
        self._outcome_seq = 0

    def node_of(self, label: str) -> str:
        if label not in self.placement:
            raise ValueError(f"subsystem {label!r} is not placed on any node")
        return self.placement[label]

    def _new_resource(self, kind: str, nodes, dim: int | None, prefix: str,
                      layer: int | None) -> tuple[str, ...]:
        idx = self._resource_seq
        self._resource_seq += 1
        labels = []
        for node in nodes:
            if self.comm_slots.get(node, 1) < 1:
                raise ValueError(f"node {node} has no communication slot available")
            label = f"{prefix}{idx}_{node}"
            self.placement[label] = node
            labels.append(label)
        self.instructions.append(Instruction(
            kind=kind, targets=tuple(labels), parties=tuple(nodes), dim=dim, layer=layer))
        return tuple(labels)

    def bell(self, node_a: str, node_b: str, layer: int | None = None) -> tuple[str, str]:
        return self._new_resource("CreateBell", (node_a, node_b), None, "a", layer)

    def ghz(self, nodes, layer: int | None = None) -> tuple[str, ...]:
        nodes = tuple(nodes)
        if len(nodes) == 2:  # a 2-party GHZ is a Bell pair
            return self.bell(nodes[0], nodes[1], layer)
        return self._new_resource("CreateGHZ", nodes, None, "a", layer)

    def qudit_pair(self, node_a: str, node_b: str, dim: int = 4,
                   layer: int | None = None) -> tuple[str, str]:
        return self._new_resource("CreateQuditPair", (node_a, node_b), dim, "E", layer)

    def qudit_ghz(self, nodes, dim: int = 4, layer: int | None = None) -> tuple[str, ...]:
        nodes = tuple(nodes)
        if len(nodes) == 2:
            return self.qudit_pair(nodes[0], nodes[1], dim, layer)
        return self._new_resource("CreateQuditGHZ", nodes, dim, "E", layer)

    def gate(self, name: str, targets, params=(), layer: int | None = None):
        self.instructions.append(Instruction(
            kind="LocalGate", targets=tuple(targets), gate=name,
            params=tuple(params), layer=layer))

    def measure(self, label: str, layer: int | None = None) -> str:
        symbol = f"m{self._outcome_seq}"
        self._outcome_seq += 1
        self.instructions.append(Instruction(
            kind="Measure", targets=(label,), outcome=symbol, layer=layer))
        return symbol

    def send(self, symbol: str, source: str, destinations, bits: int = 1,
             layer: int | None = None):
        self.instructions.append(Instruction(
            kind="ClassicalSend", parties=(source, *destinations),
            symbol=symbol, bits=bits, layer=layer))

    def cond(self, name: str, targets, terms, mod: int = 2, params=(),
             layer: int | None = None):
        self.instructions.append(Instruction(
            kind="CondGate", targets=tuple(targets), gate=name, params=tuple(params),
            condition=Condition(tuple(terms), mod), layer=layer))

    def build(self, inputs, outputs=None) -> DistCircuit:
        layout = NodeLayout(self.nodes, self.placement, self.comm_slots)
        inputs = tuple(inputs)
        return DistCircuit(layout, tuple(self.instructions), inputs,
                           tuple(outputs) if outputs is not None else inputs)


__all__ = [
    "KINDS", "RESOURCE_KINDS", "CircuitParseError", "GateRef", "Condition",
    "Instruction", "NodeLayout", "DistCircuit", "ResourceTally", "Violation",
    "tally", "count_messages", "serialize", "deserialize", "validate",
    "format_angle", "parse_angle", "CircuitBuilder",
]
