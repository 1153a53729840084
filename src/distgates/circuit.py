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

Reading checks each field once. ``deserialize`` checks what only JSON can get
wrong: a string or object where a list belongs, an unknown gate name, the shape
of a condition. ``Instruction`` and ``Condition`` check the fields they hold,
and a refusal raised while reading instruction i starts with "instruction i:".
``parse_angle`` refuses an angle that is not finite, and ``Instruction`` a
parameter that is not finite from any other source, such as a builder's angle
that overflowed. The data model refuses, each when its object is built, what
the format has no form for: a bool or a numpy integer as "bits" or "layer", a
gate, label, node or condition term that is not a string, a modulus that is not
an integer. A layout's placement is read-only. So the writer meets only strings
and integers where the format has them; anything else is a TypeError.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .gates import WIRE_GATES, gate_arity

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


def resource_shape(parties: int, dim: int) -> tuple[bool, bool]:
    """The RESOURCE_KINDS entry of a resource over ``parties`` nodes and Z_dim."""
    return parties > 2, dim > 2


def resource_key(ins: Instruction) -> tuple[int, int]:
    """The ``ResourceTally.counts`` key of a resource instruction: ``(parties, dim)``."""
    return len(ins.parties), ins.dim or 2


class CircuitParseError(ValueError):
    """Raised when circuit JSON cannot be parsed or references undefined names."""


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

    def evaluate(self, values: Mapping[str, int]) -> int:
        total = 0
        for sym in self.terms:
            if sym not in values:
                raise ValueError(f"condition references unmeasured symbol {sym!r}")
            total += values[sym]
        return total % self.mod


def _is_dimension(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 2


@dataclass(frozen=True, slots=True, init=False)
class Instruction:
    """One placed operation; the module docstring gives its fields' wire forms.

    Every builder, reader and layer handles instructions one at a time, so an
    instruction must be cheap to build and to read. Its own ``__init__`` checks
    each field once and stores it once. The generated ``__init__`` plus a
    ``__post_init__`` took 2.7 us to build a LocalGate by keyword, and stored
    each normalized field twice; this one takes 1.9 us (CPython 3.11.7, 2-core
    x86 Xeon). ``slots=True`` keeps an instance at 120 bytes with no dict of its
    own, against 344 for an instance and its shared-key dict.

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
        if gate is not None and not isinstance(gate, str):
            raise ValueError(f"'gate' must be a string, got {gate!r}")
        if outcome is not None and not isinstance(outcome, str):
            raise ValueError(f"'outcome' must be a string, got {outcome!r}")
        if symbol is not None and not isinstance(symbol, str):
            raise ValueError(f"'symbol' must be a string, got {symbol!r}")
        if bits is not None and (not isinstance(bits, int) or isinstance(bits, bool)):
            raise ValueError(f"'bits' must be an integer, got {bits!r}")
        if layer is not None and (not isinstance(layer, int) or isinstance(layer, bool)):
            raise ValueError(f"'layer' must be an integer, got {layer!r}")
        if condition is not None and kind != "CondGate" and kind != "ClassicalSend":
            raise ValueError(f"a {kind} takes no condition; only CondGate and ClassicalSend do")
        if kind in RESOURCE_KINDS:
            qudit = RESOURCE_KINDS[kind][1]
            if (dim is not None) != qudit or dim == 2:
                raise ValueError(f"{kind} takes {'a dim > 2' if qudit else 'no dim'}, "
                                 f"got {dim!r}")
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
    gate = obj.get("gate")
    if gate is not None and gate not in WIRE_GATES:
        raise CircuitParseError(f"instruction {index}: unknown gate name {gate!r}")
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
        return Instruction(kind, targets, gate, tuple(map(parse_angle, params)) if params else (),
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
        instructions = []
        # a condition may only reference outcomes measured earlier; a malformed field
        # anywhere in the document is reported before such a reference
        defined: set[str] = set()
        undefined = None
        for i, obj in enumerate(doc["instructions"]):
            ins = _instruction_from_json(obj, i)
            if ins.condition is not None and undefined is None:
                missing = [s for s in ins.condition.terms if s not in defined]
                if missing:
                    undefined = CircuitParseError(
                        f"instruction {i}: condition references undefined outcome {missing[0]!r}")
            if ins.kind == "Measure" and ins.outcome:
                defined.add(ins.outcome)
            instructions.append(ins)
        circuit = DistCircuit(
            layout=layout,
            instructions=instructions,
            inputs=_labels_from_json(doc["inputs"], "'inputs'"),
            outputs=_labels_from_json(doc["outputs"], "'outputs'"),
        )
    except CircuitParseError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise CircuitParseError(f"malformed circuit document: {e}") from None
    if undefined is not None:
        raise undefined
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
            elif len(ins.targets) != len(gate_arity(ins.gate)):
                v.append(Violation(i, "gate arity", f"{ins.gate} acts on "
                                   f"{len(gate_arity(ins.gate))} subsystems, got {ins.targets}"))
        if ins.kind in RESOURCE_KINDS:
            ghz = RESOURCE_KINDS[ins.kind][0]
            if len(ins.parties) < 2 or (len(ins.parties) > 2) != ghz:
                v.append(Violation(i, "resource arity", f"{ins.kind} needs " + (
                    ">= 3 parties (2 parties is a pair)" if ghz else "exactly 2 parties")))
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
            if len(ins.targets) != 1:
                v.append(Violation(i, "measure arity", f"one target needed, got {ins.targets}"))
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
