"""Distributed-circuit data model: node layout, instructions, resource tally, JSON format.

Instructions are placed operations over named subsystems. Cross-node effects
happen only through entanglement-resource creation, classical messages, and
classically conditioned local corrections; plain local gates never span nodes.

JSON schema (all optional instruction fields omitted when empty; unknown
layout keys, such as the retired "comm_slots", are ignored):

    {"layout": {"nodes": [...], "placement": {label: node}},
     "instructions": [{"kind": ..., "targets": [...], "gate": ..., "params": [...],
                       "condition": {"xor": [...]} | {"sum_mod": d, "terms": [...]},
                       "parties": [...], "dim": ..., "outcome": ..., "symbol": ...,
                       "bits": ..., "layer": ...}],
     "inputs": [...], "outputs": [...]}

Only a CondGate or a ClassicalSend carries "condition". A resource kind says
whether it makes a pair or a GHZ state (three or more parties) and of qubits
or qudits (``RESOURCE_KINDS``). Only CreateQuditPair and CreateQuditGHZ carry
"dim", and it must be > 2.

Gate parameters serialize as exact multiples of pi ("pi/2", "-2pi/3") when the
float is exactly representable that way, else as a repr'd decimal; both forms
round-trip bit-stably.

The wire bytes are the standard library's indent-2, sorted-key ASCII form,
``json.dumps(doc, indent=2, sort_keys=True) + "\n"``, written directly: with
``indent`` set, ``json`` would fall back to its pure-Python encoder. The writer
builds no document. The nesting of the format is fixed, so ``serialize`` writes
every key and indent itself: an instruction's fields straight from the
instruction, in sorted-key order, each string through the ``json`` module's
C escaper and each integer through ``int.__repr__``.

Every rule on a circuit has one home, the first place that can decide it:

- ``Instruction`` refuses, when it is built, what the instruction alone
  decides: its fields' types, a field its kind never reads (a condition
  outside a CondGate or a ClassicalSend, a gate on a Measure, parties on a
  CondGate; "layer" is taken by every kind), a LocalGate or CondGate without
  a known gate or with other than the gate's number of targets or
  parameters or a repeated target, a CondGate without a condition, a
  Measure of other than one target, a resource of the wrong party count or
  dim for its kind, of other than one share per party or of a repeated share,
  and a ClassicalSend without a symbol or with fewer than two parties. The
  refusal is a ValueError whose text is "rule: detail", such as "measure
  arity: one target needed, got ()".
- The compile walk (``simulate.circuit_dims`` and ``simulate.compile_plan``)
  refuses what needs the circuit: a label used with two dimensions, a
  condition term no earlier Measure names as its outcome, a label that is
  not in the register where it is used or that a resource creates again,
  and a register over the cap.
- ``validate`` checks the layout, which the simulator ignores: placements and
  parties on undeclared nodes, unplaced targets, local gates that span nodes
  and resource shares never measured nor output.

``deserialize`` checks only what JSON can get wrong: a string or object where
a list belongs, the shape of a condition, a missing key. A refusal raised while
reading instruction i starts with "instruction i:". ``parse_angle`` refuses an
angle that is not finite, and ``Instruction`` a parameter that is not finite
from any other source, such as a builder's angle that overflowed. The data
model refuses, each when its object is built, what the format has no form for:
a bool or a numpy integer as "bits" or "layer", a gate, label, node or
condition term that is not a string, a modulus that is not an integer. A
layout's placement is read-only. So the writer meets only strings and integers
where the format has them; anything else is a TypeError.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .gates import WIRE_GATES, gate_arity, gate_params

KINDS = ("LocalGate", "CreateBell", "CreateGHZ", "CreateQuditPair", "CreateQuditGHZ",
         "Measure", "ClassicalSend", "CondGate")
# resource kind -> (more than two parties?, qudit?); every reader of a resource goes by this
RESOURCE_KINDS = {
    "CreateBell": (False, False),
    "CreateGHZ": (True, False),
    "CreateQuditPair": (False, True),
    "CreateQuditGHZ": (True, True),
}
_RESOURCE_KIND = {shape: kind for kind, shape in RESOURCE_KINDS.items()}
_KIND_SET = frozenset(KINDS)
# gate -> (its number of targets, its number of parameters)
_GATE_SHAPE = {name: (len(gate_arity(name)), gate_params(name)) for name in WIRE_GATES}


def resource_shape(parties: int, dim: int) -> tuple[bool, bool]:
    """The RESOURCE_KINDS entry of a resource over ``parties`` nodes and Z_dim."""
    return parties > 2, dim > 2


def resource_key(ins: Instruction) -> tuple[int, int]:
    """The ``ResourceTally.counts`` key of a resource instruction: ``(parties, dim)``."""
    return len(ins.parties), ins.dim or 2


class CircuitParseError(ValueError):
    """Raised by ``deserialize`` for a document that is not JSON, has the wrong shape, or
    holds an instruction that ``Instruction`` refuses; the compile walk refuses the rest."""


def _strings(items) -> bool:
    """Whether every item is a string; ``str.join`` checks them in C, several times faster
    than an ``isinstance`` loop."""
    try:
        "".join(items)
    except TypeError:
        return False
    return True


def _label_tuple(name: str, value) -> tuple[str, ...]:
    """``value`` as a tuple of label strings (a tuple passes through unchanged), or the
    wire format's refusal of field ``name`` as a ValueError."""
    items = value
    if type(items) is not tuple and not isinstance(items, str):  # not one label per character
        try:
            items = tuple(items)
        except TypeError:
            pass
    if type(items) is not tuple or not _strings(items):
        raise ValueError(f"{name!r} must be a list of strings, got {value!r}")
    return items


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
    Every term is a symbol's name, a string, as in the wire format.
    """

    terms: tuple[str, ...]
    mod: int = 2

    def __post_init__(self):
        if isinstance(self.terms, str):  # not one symbol per character
            raise ValueError(f"'terms' must be a list of strings, got {self.terms!r}")
        terms = tuple(self.terms)
        if not _strings(terms):
            raise ValueError(f"'terms' must be a list of strings, got {terms!r}")
        object.__setattr__(self, "terms", terms)
        if not _is_dimension(self.mod):
            raise ValueError(f"condition 'mod' must be an integer >= 2, got {self.mod!r}")


def _unread(kind: str, **fields):
    """Refuse the first of ``fields`` that is set: a field that a ``kind`` never reads."""
    for name, value in fields.items():
        if value is not None and value != ():
            only = "; only CondGate and ClassicalSend do" if name == "condition" else ""
            raise ValueError(f"a {kind} takes no {name}{only}")


def _is_dimension(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 2


@dataclass(frozen=True, slots=True, init=False)
class Instruction:
    """One placed operation; the module docstring gives its fields' wire forms.

    Every builder, reader and layer handles instructions one at a time, so an
    instruction must be cheap to build and to read. Its own ``__init__`` checks
    each field once, refuses what the instruction alone decides (the rules of
    its kind, listed in the module docstring), and stores each field once. The
    generated ``__init__`` plus a ``__post_init__`` took 2.7 us to build a
    LocalGate by keyword, and stored each normalized field twice; this one takes
    2.1 us, 0.2 us of it for the rules (CPython 3.11.7, 2-core x86 Xeon).
    ``slots=True`` keeps an instance at 120 bytes with no dict of its own,
    against 344 for an instance and its shared-key dict.

    Never store the fields with ``self.__dict__.update``. That builds in 0.7 us,
    but every instance then holds a 464-byte dict of its own, and every field
    read is 15 % slower or more. Every layer reads instructions, ``compile_plan``
    first among them. Equality, hash, repr and ``dataclasses.replace`` are the
    dataclass's own.
    """

    kind: str
    targets: tuple[str, ...] = ()
    gate: str | None = None
    params: tuple[float, ...] = ()
    condition: Condition | None = None
    parties: tuple[str, ...] = ()
    dim: int | None = None          # qudit resource dimension (> 2); None on a qubit resource
    outcome: str | None = None      # Measure: symbol the result binds to
    symbol: str | None = None       # ClassicalSend: symbol carried
    bits: int | None = None         # ClassicalSend: payload width in bits
    layer: int | None = None        # concurrency metadata (builders set it)

    def __init__(self, kind, targets=(), gate=None, params=(), condition=None, parties=(),
                 dim=None, outcome=None, symbol=None, bits=None, layer=None):
        if type(targets) is not tuple or not _strings(targets):
            targets = _label_tuple("targets", targets)
        if type(parties) is not tuple or not _strings(parties):
            parties = _label_tuple("parties", parties)
        if params or type(params) is not tuple:
            params = tuple(map(float, params))
            if not all(map(math.isfinite, params)):
                raise ValueError(f"'params' must be finite angles, got {params!r}")
        if not isinstance(kind, str) or kind not in _KIND_SET:
            raise ValueError(f"unknown kind {kind!r}")
        if dim is not None and not _is_dimension(dim):
            raise ValueError(f"'dim' must be an integer >= 2, got {dim!r}")
        if gate is not None:
            if not isinstance(gate, str):
                raise ValueError(f"'gate' must be a string, got {gate!r}")
            shape = _GATE_SHAPE.get(gate)  # the gate's numbers of targets and parameters
            if shape is None:
                raise ValueError(f"unknown gate name: {gate!r}")
        if outcome is not None and not isinstance(outcome, str):
            raise ValueError(f"'outcome' must be a string, got {outcome!r}")
        if symbol is not None and not isinstance(symbol, str):
            raise ValueError(f"'symbol' must be a string, got {symbol!r}")
        if bits is not None and (not isinstance(bits, int) or isinstance(bits, bool)):
            raise ValueError(f"'bits' must be an integer, got {bits!r}")
        if layer is not None and (not isinstance(layer, int) or isinstance(layer, bool)):
            raise ValueError(f"'layer' must be an integer, got {layer!r}")
        # the rules one instruction decides (see the module docstring); each kind first refuses
        # the fields it never reads (layer is read by none and taken by every kind)
        if kind == "LocalGate" or kind == "CondGate":
            if condition is not None and kind == "LocalGate":
                _unread(kind, condition=condition)
            if (parties or dim is not None or outcome is not None or symbol is not None
                    or bits is not None):
                _unread(kind, parties=parties, dim=dim, outcome=outcome, symbol=symbol, bits=bits)
            if gate is None:
                raise ValueError(f"missing gate name: {kind}")
            n, count = shape
            if len(targets) != n:
                raise ValueError(f"gate arity: {gate} acts on {n} subsystems, got {targets}")
            if n > 1 and len(set(targets)) < n:
                raise ValueError(f"duplicate target: {targets}")
            if len(params) != count:
                raise ValueError(f"gate {gate} takes {count} parameter(s), got {len(params)}")
            if condition is None and kind == "CondGate":
                raise ValueError("missing condition: CondGate without condition")
        elif kind == "Measure":
            if (gate is not None or params or condition is not None or parties or dim is not None
                    or symbol is not None or bits is not None):
                _unread(kind, gate=gate, params=params, condition=condition, parties=parties,
                        dim=dim, symbol=symbol, bits=bits)
            if len(targets) != 1:
                raise ValueError(f"measure arity: one target needed, got {targets}")
        elif kind == "ClassicalSend":
            if (targets or gate is not None or params or dim is not None
                    or outcome is not None):
                _unread(kind, targets=targets, gate=gate, params=params, dim=dim,
                        outcome=outcome)
            if symbol is None:
                raise ValueError("missing symbol: ClassicalSend without symbol")
            if len(parties) < 2:
                raise ValueError("message parties: need source and >= 1 destination")
        else:  # a resource
            if (gate is not None or params or condition is not None or outcome is not None
                    or symbol is not None or bits is not None):
                _unread(kind, gate=gate, params=params, condition=condition, outcome=outcome,
                        symbol=symbol, bits=bits)
            ghz, qudit = RESOURCE_KINDS[kind]
            if (dim is not None) != qudit or dim == 2:
                raise ValueError(f"{kind} takes {'a dim > 2' if qudit else 'no dim'}, "
                                 f"got {dim!r}")
            if len(parties) < 2 or (len(parties) > 2) != ghz:
                raise ValueError(f"resource arity: {kind} needs " + (
                    ">= 3 parties (2 parties is a pair)" if ghz else "exactly 2 parties"))
            if len(targets) != len(parties):
                raise ValueError("resource shape: one created subsystem per party")
            if len(set(targets)) < len(targets):
                raise ValueError(f"duplicate target: {targets}")
        put = object.__setattr__
        put(self, "kind", kind)
        put(self, "targets", targets)
        put(self, "gate", gate)
        put(self, "params", params)
        put(self, "condition", condition)
        put(self, "parties", parties)
        put(self, "dim", dim)
        put(self, "outcome", outcome)
        put(self, "symbol", symbol)
        put(self, "bits", bits)
        put(self, "layer", layer)


@dataclass(frozen=True)
class NodeLayout:
    """Placement of subsystems onto named nodes.

    ``placement`` is a read-only view of the layout's own copy, checked once
    when the layout is built: setting a label in it raises TypeError.
    """

    nodes: tuple[str, ...]
    placement: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "nodes", _label_tuple("nodes", self.nodes))
        placement = dict(self.placement)
        if not (_strings(placement) and _strings(placement.values())):
            raise ValueError(f"'placement' must be an object of str values, got {placement!r}")
        object.__setattr__(self, "placement", MappingProxyType(placement))

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
        object.__setattr__(self, "inputs", _label_tuple("inputs", self.inputs))
        object.__setattr__(self, "outputs", _label_tuple("outputs", self.outputs))


@dataclass
class ResourceTally:
    """Resource counts by (parties, dim) plus a time estimate in t_ep units; ``ep``, ``ghz``
    (by arity), ``ep_d`` (by dim) and ``ghz_d`` (by (arity, dim)) view them by ``resource_shape``."""

    counts: dict[tuple[int, int], int] = field(default_factory=dict)
    time_units: float = 0.0

    @classmethod
    def serial(cls, counts: Mapping[tuple[int, int], int], epsilon=1.0) -> ResourceTally:
        """A tally of its own copy of ``counts`` (by ``resource_key``), timed by ``serial_time``."""
        t = cls(dict(counts))
        t.time_units = t.serial_time(epsilon)
        return t

    def add(self, parties: int, dim: int, count: int = 1) -> None:
        self.counts[parties, dim] = self.counts.get((parties, dim), 0) + count

    def _view(self, ghz: bool, qudit: bool) -> dict[tuple[int, int], int]:
        return {k: c for k, c in self.counts.items() if resource_shape(*k) == (ghz, qudit)}

    ep = property(lambda self: sum(self._view(False, False).values()))
    ghz = property(lambda self: {a: c for (a, _), c in self._view(True, False).items()})
    ep_d = property(lambda self: {d: c for (_, d), c in self._view(False, True).items()})
    ghz_d = property(lambda self: self._view(True, True))

    def total(self, ghz: bool) -> int:
        """The number of GHZ states (``ghz``) or of pairs, of any dimension."""
        return sum(c for k, c in self.counts.items() if resource_shape(*k)[0] == ghz)

    def serial_time(self, epsilon=1.0) -> float:
        """Time to make every resource in turn; ``fsum`` leaves the order of ``add`` out."""
        return math.fsum(c * resource_cost(p, epsilon) for (p, _), c in self.counts.items())

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


def resource_cost(parties: int, epsilon) -> float:
    """Time of one resource in t_ep: a pair costs 1, a GHZ state epsilon (a scalar, a
    per-arity mapping or a callable) at its arity."""
    if parties <= 2:
        return 1.0
    if callable(epsilon):
        return float(epsilon(parties))
    if isinstance(epsilon, Mapping):
        return float(epsilon.get(parties, 1.0))
    return float(epsilon)


def tally(circuit: DistCircuit, epsilon=1.0, schedule: str = "serial") -> ResourceTally:
    """Count entanglement resources and estimate time in t_ep units.

    Each resource costs ``resource_cost`` (epsilon is a scalar, a per-arity
    mapping, or a callable). schedule="serial" is ``ResourceTally.serial_time``;
    "layered" sums, per layer index, the maximum cost within the layer
    (instructions without a layer each form their own). Any other schedule
    raises ValueError.
    """
    if schedule not in ("serial", "layered"):
        raise ValueError(f"schedule must be 'serial' or 'layered', got {schedule!r}")
    counts: dict[tuple[int, int], int] = {}
    layers: dict[object, float] = {}
    for i, ins in enumerate(circuit.instructions):
        if ins.kind in RESOURCE_KINDS:
            key = resource_key(ins)
            counts[key] = counts.get(key, 0) + 1
            group = ("#", i) if ins.layer is None else ins.layer
            layers[group] = max(layers.get(group, 0.0), resource_cost(len(ins.parties), epsilon))
    if schedule == "layered":
        return ResourceTally(counts, math.fsum(layers.values()))
    return ResourceTally.serial(counts, epsilon)


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
    """The angle ``text`` writes, a decimal or a multiple of pi; anything else, or an angle
    that is not finite ("inf", "nan", "1e999") or out of the float range, is a ValueError."""
    s = str(text).strip().replace(" ", "")
    if "pi" not in s:
        try:
            angle = float(s)
        except ValueError:
            raise ValueError(f"cannot parse angle {text!r}") from None
    else:
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
        try:
            angle = math.pi * p / q
        except OverflowError:  # p or q past the float range
            raise ValueError(f"angle {text!r} is out of range") from None
    if not math.isfinite(angle):
        raise ValueError(f"angle {text!r} is not finite")
    return angle


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _labels_from_json(value, where: str) -> tuple[str, ...]:
    """A JSON list of label strings; a bare string is not split into characters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise CircuitParseError(f"{where} must be a list of strings, got {value!r}")
    return tuple(value)


def _object_from_json(value, where: str, item: type | None = None) -> dict:
    """A JSON object; with ``item``, every value must be of that type (never a bool)."""
    if not isinstance(value, dict) or item is not None and not all(
            isinstance(v, item) and not isinstance(v, bool) for v in value.values()):
        kind = "an object" if item is None else f"an object of {item.__name__} values"
        raise CircuitParseError(f"{where} must be {kind}, got {value!r}")
    return value


def _condition_from_json(obj, index: int) -> Condition:
    where = f"instruction {index}: condition"
    if not isinstance(obj, dict):
        raise CircuitParseError(f"{where} must be an object, got {obj!r}")
    if "xor" in obj:
        return Condition(_labels_from_json(obj["xor"], f"{where}: 'xor'"), 2)
    if "sum_mod" in obj:
        if not _is_dimension(obj["sum_mod"]):
            raise CircuitParseError(
                f"{where}: 'sum_mod' must be an integer >= 2, got {obj['sum_mod']!r}")
        return Condition(_labels_from_json(obj["terms"], f"{where}: 'terms'"), obj["sum_mod"])
    raise CircuitParseError(f"{where} must use 'xor' or 'sum_mod': {obj!r}")


def _instruction_from_json(obj, index: int) -> Instruction:
    """The instruction a JSON object describes; ``Instruction`` checks the fields it holds,
    and any refusal names the instruction."""
    try:
        kind = obj["kind"]
    except (KeyError, TypeError):
        raise CircuitParseError(f"instruction {index}: missing 'kind'") from None
    # a tuple is the default; Instruction checks the items
    targets, parties = obj.get("targets", ()), obj.get("parties", ())
    params = obj.get("params", ())
    for name, value, noun in (("targets", targets, "a list of strings"),
                              ("parties", parties, "a list of strings"),
                              ("params", params, "a list")):
        if type(value) not in (list, tuple):
            raise CircuitParseError(f"instruction {index}: {name!r} must be {noun}, got {value!r}")
    cond = obj.get("condition")
    condition = None if cond is None else _condition_from_json(cond, index)
    try:
        return Instruction(kind, targets, obj.get("gate"),
                           tuple(map(parse_angle, params)) if params else (),
                           condition, parties, obj.get("dim"), obj.get("outcome"),
                           obj.get("symbol"), obj.get("bits"), obj.get("layer"))
    except ValueError as e:  # a rejected field or a bad angle
        raise CircuitParseError(f"instruction {index}: {e}") from None


_quote = json.encoder.encode_basestring_ascii


def _list_text(items, pad: str) -> str:
    """The strings ``items`` as ``json.dumps(list(items), indent=2)`` writes them nested at
    ``pad``; an item that is not a string is a TypeError."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(map(_quote, items)) + "\n" + pad + "]"


def _instruction_text(ins: Instruction) -> str:
    """``ins`` as the fourth-level object of the document, written straight from its
    fields in the wire format's sorted-key order; a field left at its default is left out."""
    out = []
    if ins.bits is not None:
        out.append('"bits": ' + int.__repr__(ins.bits))
    cond = ins.condition
    if cond is not None:
        terms = _list_text(cond.terms, "        ")
        out.append('"condition": {\n        ' + (
            '"xor": ' + terms if cond.mod == 2
            else '"sum_mod": ' + int.__repr__(cond.mod) + ',\n        "terms": ' + terms)
            + "\n      }")
    if ins.dim is not None:
        out.append('"dim": ' + int.__repr__(ins.dim))
    if ins.gate is not None:
        out.append('"gate": ' + _quote(ins.gate))
    out.append('"kind": ' + _quote(ins.kind))
    if ins.layer is not None:
        out.append('"layer": ' + int.__repr__(ins.layer))
    if ins.outcome is not None:
        out.append('"outcome": ' + _quote(ins.outcome))
    if ins.params:
        out.append('"params": ' + _list_text([format_angle(p) for p in ins.params], "      "))
    if ins.parties:
        out.append('"parties": ' + _list_text(ins.parties, "      "))
    if ins.symbol is not None:
        out.append('"symbol": ' + _quote(ins.symbol))
    out.append('"targets": ' + _list_text(ins.targets, "      "))
    return "{\n      " + ",\n      ".join(out) + "\n    }"


def serialize(circuit: DistCircuit) -> str:
    """The circuit's wire bytes, ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``
    (see the module docstring), written straight from the data model."""
    layout = circuit.layout
    placement = "{}" if not layout.placement else "{\n      " + ",\n      ".join(
        _quote(label) + ": " + _quote(node)
        for label, node in sorted(layout.placement.items())) + "\n    }"
    instructions = "[]" if not circuit.instructions else "[\n    " + ",\n    ".join(
        map(_instruction_text, circuit.instructions)) + "\n  ]"
    return ('{\n  "inputs": ' + _list_text(circuit.inputs, "  ")
            + ',\n  "instructions": ' + instructions
            + ',\n  "layout": {\n    "nodes": ' + _list_text(layout.nodes, "    ")
            + ',\n    "placement": ' + placement
            + '\n  },\n  "outputs": ' + _list_text(circuit.outputs, "  ") + "\n}\n")


def deserialize(text: str) -> DistCircuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CircuitParseError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:  # json's decoder recurses once per nested array or object
        raise CircuitParseError("parse error: the document nests too deeply") from None
    try:
        layout_doc = _object_from_json(_object_from_json(doc, "circuit document")["layout"],
                                       "'layout'")
        layout = NodeLayout(
            nodes=_labels_from_json(layout_doc["nodes"], "layout 'nodes'"),
            placement=_object_from_json(layout_doc.get("placement", {}),
                                        "layout 'placement'", str),
        )
        circuit = DistCircuit(
            layout=layout,
            instructions=[_instruction_from_json(obj, i)
                          for i, obj in enumerate(doc["instructions"])],
            inputs=_labels_from_json(doc["inputs"], "'inputs'"),
            outputs=_labels_from_json(doc["outputs"], "'outputs'"),
        )
    except CircuitParseError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise CircuitParseError(f"malformed circuit document: {e}") from None
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
    """Check the layout: every node a label or party names is declared, every target is
    placed, no local gate spans nodes, and every resource share is measured or an output.

    The simulator ignores placement, so these are the only rules it does not
    check itself; an empty list means the layout is sound. An instruction
    refuses its own defects when it is built (``Instruction``), and the compile
    walk those that need the circuit (``simulate.compile_plan``).
    """
    v: list[Violation] = []
    placement = circuit.layout.placement
    declared = set(circuit.layout.nodes)
    for label, node in placement.items():
        if node not in declared:
            v.append(Violation(None, "placement on undeclared node", f"{label} -> {node}"))
    created: dict[str, int] = {}
    measured: set[str] = set()
    for i, ins in enumerate(circuit.instructions):
        for label in ins.targets:
            if label not in placement:
                v.append(Violation(i, "unplaced subsystem", label))
        kind = ins.kind
        if kind == "LocalGate" or kind == "CondGate":
            nodes = {placement.get(t) for t in ins.targets}
            if len(nodes) > 1:
                v.append(Violation(i, "cross-node local gate",
                                   f"targets {ins.targets} span nodes {sorted(map(str, nodes))}"))
        elif kind == "Measure":
            measured.update(ins.targets)
        elif kind in RESOURCE_KINDS:
            for node in ins.parties:
                if node not in declared:
                    v.append(Violation(i, "undeclared party node", node))
            for label in ins.targets:
                created[label] = i

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
        self.instructions: list[Instruction] = []
        self._resource_seq = 0
        self._outcome_seq = 0

    def node_of(self, label: str) -> str:
        if label not in self.placement:
            raise ValueError(f"subsystem {label!r} is not placed on any node")
        return self.placement[label]

    def ghz(self, nodes, dim: int = 2, layer: int | None = None) -> tuple[str, ...]:
        """Create one share per node of a GHZ state over Z_dim (two nodes: a Bell pair).

        Qubit shares are labelled ``a<k>_<node>`` and qudit shares ``E<k>_<node>``.
        """
        nodes = tuple(nodes)
        kind = _RESOURCE_KIND[resource_shape(len(nodes), dim)]
        prefix, dim = ("E", dim) if dim > 2 else ("a", None)
        labels = tuple(f"{prefix}{self._resource_seq}_{node}" for node in nodes)
        self._resource_seq += 1
        self.placement.update(zip(labels, nodes))
        self.instructions.append(Instruction(
            kind=kind, targets=labels, parties=nodes, dim=dim, layer=layer))
        return labels

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
        layout = NodeLayout(self.nodes, self.placement)
        inputs = tuple(inputs)
        return DistCircuit(layout, tuple(self.instructions), inputs,
                           tuple(outputs) if outputs is not None else inputs)


__all__ = [
    "KINDS", "RESOURCE_KINDS", "CircuitParseError", "GateRef", "Condition",
    "Instruction", "NodeLayout", "DistCircuit", "ResourceTally", "Violation",
    "tally", "count_messages", "serialize", "deserialize", "validate",
    "format_angle", "parse_angle", "CircuitBuilder",
]
