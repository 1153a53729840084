"""The circuits distgates compares, each listed once with its ideal gate.

Shape constructors. ``gcz``, ``gms`` and ``qudit_gcz`` place n qubits on
``nodes`` nodes in contiguous blocks (``block_layout``) and build one global
gate with one strategy. CLI ``compile`` builds through them, so a catalog
shape and the command line emit the same circuit.

Entries. ``entries()`` lists every named circuit once as an ``Entry``: a
build thunk, its oracle (an ``OracleSpec``, or for a fan-out or a controlled
gate other than CNOT a thunk returning a ``ProductOracle``) and its tags.
``tagged(tag)`` is one tag's view, in catalog order, keyed by the entry's name
under that tag:

- ``golden``: every entry, under its own name. The tests pin the SHA-256 of
  each entry's ``serialize()`` output, and verify each entry against its
  oracle on seeded random inputs. The only entries not verified are those
  whose peak register exceeds the default 2^14 cap; the test names them and
  checks that they do exceed it, so no entry skips verification silently.
- ``corpus``: one representative circuit per builder and strategy, for the
  round-trip, wire-format and branch-budget tests.
- ``suite``: the acceptance protocol suite. Every circuit is checked on every
  basis input, and each with one classically conditioned correction dropped
  must fail.

Nothing is built when this module is imported or the list is made. Builders
and oracle functions are looked up through their modules when a thunk runs,
so a tracer that wraps those module attributes sees every call, and
``import distgates.cli`` builds no circuit.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

from . import gates
from . import qubit_protocols as qp
from . import qudit_protocols as qdp
from .circuit import DistCircuit, GateRef, NodeLayout

# the package attribute ``verify`` is the function, which shadows the module
_verify = importlib.import_module(".verify", __package__)


def block_layout(n: int, nodes: int) -> tuple[NodeLayout, tuple[str, ...]]:
    """Qubits q1..qn, the first n/nodes on node1, the next on node2, ..."""
    if n % nodes:
        raise ValueError(f"{n} qubits do not divide evenly over {nodes} nodes")
    k = n // nodes
    labels = tuple(f"q{i + 1}" for i in range(n))
    node_names = tuple(f"node{i + 1}" for i in range(nodes))
    return NodeLayout(node_names, {q: node_names[i // k] for i, q in enumerate(labels)}), labels


def gcz(n: int, nodes: int, strategy: str) -> DistCircuit:
    layout, labels = block_layout(n, nodes)
    return qp.build_dgcz(labels, qp.Partition(layout), strategy)


def gms(n: int, nodes: int, theta: float, strategy: str) -> DistCircuit:
    layout, labels = block_layout(n, nodes)
    return qp.build_dgms(qp.GmsSpec(labels, theta), layout, strategy)


def qudit_layout(n: int, nodes: int):
    """(partition, encoding, qubit labels) for GCZ with each node's qubit pair in a qudit Qi."""
    layout, labels = block_layout(n, nodes)
    if n != 2 * nodes:
        raise ValueError("qudit compression packs 2 qubits per dimension-4 qudit; "
                         "need exactly 2 qubits per node")
    qudits = tuple(f"Q{i + 1}" for i in range(nodes))
    placement = {**layout.placement, **dict(zip(qudits, layout.nodes))}
    pairs = tuple(zip(labels[::2], labels[1::2]))
    return (qp.Partition(NodeLayout(layout.nodes, placement)),
            qdp.QuditEncoding(pairs, qudits), labels)


def qudit_gcz(n: int, nodes: int) -> DistCircuit:
    partition, enc, _ = qudit_layout(n, nodes)
    return qdp.build_qudit_gcz(n, partition, enc)


@dataclass(frozen=True)
class Entry:
    """One catalog circuit; ``tags`` maps each tag to the entry's name in that view."""

    name: str
    build: Callable[[], DistCircuit]
    oracle: _verify.OracleSpec | Callable[[], _verify.ProductOracle]
    tags: dict[str, str]

    def make_oracle(self):
        """The oracle as ``verify`` takes it."""
        return self.oracle if isinstance(self.oracle, _verify.OracleSpec) else self.oracle()


def _controlled(target_gates) -> Callable[[], _verify.ProductOracle]:
    """The ideal single-control gate onto targets driven by the given gate refs."""
    return lambda: _verify.oracle_multitarget_cu(
        [gates.gate_unitary(g.name, g.params).entries for g in target_gates])


@cache
def entries() -> tuple[Entry, ...]:
    """Every catalog circuit once; the ``corpus`` and ``suite`` views follow this order."""
    out = []

    def add(name, build, oracle, **tags):
        out.append(Entry(name, build, oracle, {"golden": name, **tags}))

    spec = _verify.OracleSpec
    lay2 = NodeLayout(("A", "B"), {"c": "A", "t": "B"})
    for u, tags in ((GateRef("X"), {"corpus": "dcnot", "suite": "dCNOT"}),
                    (GateRef("Z"), {"corpus": "dcz"}), (GateRef("RZ", (0.7,)), {})):
        add(f"dcu_{u.name}", lambda u=u: qp.build_dcontrol_u("c", "t", u, lay2),
            spec("cnot") if u.name == "X" else _controlled([u]), **tags)

    def fanout(name, targets, layout, **tags):
        add(name, lambda: qp.build_fanout("c", targets, layout),
            _controlled([g for _, g in targets]), **tags)

    for remotes in (2, 3):
        for local in (1, 0):
            nodes = tuple(f"N{i}" for i in range(remotes + 1))
            placement = {"c": "N0", **{f"s{i}": "N0" for i in range(local)},
                         **{f"t{i}": f"N{i + 1}" for i in range(remotes)}}
            targets = [(t, GateRef("X")) for t in placement if t != "c"]
            fanout(f"fanout_{local}local_{remotes}remote", targets,
                   NodeLayout(nodes, placement),
                   suite=f"fanout {'local+' if local else ''}{remotes} remote")
    fanout("corpus_fanout_local_remote",
           [("t1", GateRef("X")), ("t2", GateRef("X")), ("t3", GateRef("Z"))],
           NodeLayout(("A", "B", "C"), {"c": "A", "t1": "A", "t2": "B", "t3": "C"}),
           corpus="fanout_local_remote")
    fanout("corpus_fanout_all_remote", [(t, GateRef("X")) for t in ("t1", "t2", "t3")],
           NodeLayout(("A", "B", "C", "D"), {"c": "A", "t1": "B", "t2": "C", "t3": "D"}),
           corpus="fanout_all_remote")
    mixed = NodeLayout(("A", "B", "C"), {"c": "A", "t1": "A", "t2": "B", "t3": "B", "t4": "C"})
    for u in ("X", "Z"):
        fanout(f"fanout_local_remote_{u}", [(t, GateRef(u)) for t in ("t1", "t2", "t3", "t4")],
               mixed)
    fanout("fanout_remote_RZ", [("t2", GateRef("RZ", (0.7,))),
                                ("t3", GateRef("RZ", (math.pi / 3,))),
                                ("t4", GateRef("RZ", (-math.pi / 2,)))], mixed)

    for tname, theta in (("pi_2", math.pi / 2), ("pi_3", math.pi / 3), ("0.7", 0.7)):
        for n in range(2, 7):
            for strategy in ("pairwise", "pairwise_conditional", "fanout"):
                tags = {}
                if (n, tname) == (4, "pi_2"):
                    tags["corpus"] = f"gms4_{strategy}"
                if n == 2 and strategy != "fanout" and tname != "0.7":
                    tag = "two dCNOTs" if strategy == "pairwise" else "conditional"
                    tags["suite"] = f"dLMS {tag} theta={tname.replace('_', '/')}"
                elif n in (3, 4) and tname != "0.7":
                    tags["suite"] = f"dGMS n={n} {strategy} theta={tname.replace('_', '/')}"
                add(f"gms{n}_{strategy}_{tname}",
                    lambda n=n, t=theta, s=strategy: gms(n, n, t, s),
                    spec("gms", theta=theta), **tags)

    corpus_gcz = {(6, 2, "fanout"): "gcz6_2n_fanout", (6, 2, "teleport_all"): "gcz6_2n_teleport",
                  (6, 3, "pairwise"): "gcz6_3n_pairwise", (6, 3, "fanout"): "gcz6_3n_fanout"}
    for n in range(2, 9):
        for nodes in (d for d in range(1, n + 1) if n % d == 0):
            for strategy in ("pairwise", "fanout") + (("teleport_all",) if nodes == 2 else ()):
                tags = {}
                if (n, nodes, strategy) in corpus_gcz:
                    tags["corpus"] = corpus_gcz[n, nodes, strategy]
                if (n, nodes) in ((4, 4), (6, 2), (6, 3)):
                    tags["suite"] = f"dGCZ n={n}/{nodes} nodes {strategy}"
                add(f"gcz{n}_{nodes}n_{strategy}",
                    lambda n=n, d=nodes, s=strategy: gcz(n, d, s), spec("gcz"), **tags)

    qlay2 = NodeLayout(("n1", "n2"), {"Q1": "n1", "Q2": "n2"})
    add("dcsum4", lambda: qdp.build_dcsum4("Q1", "Q2", qlay2), spec("csum4"),
        corpus="dcsum4", suite="dCSUM4")
    add("dcz4_pow1", lambda: qdp.build_dcz4_pow("Q1", "Q2", 1, qlay2), spec("cz4"),
        corpus="dcz4", suite="dCZ4")
    add("dcz4_pow2", lambda: qdp.build_dcz4_pow("Q1", "Q2", 2, qlay2), spec("cz4_sq"),
        corpus="dcz4_sq", suite="d(CZ4)^2")
    qlay3 = NodeLayout(("n1", "n2", "n3"), {"Q1": "n1", "Q2": "n2", "Q3": "n3"})
    add("corpus_dcsum4_multi",
        lambda: qdp.build_dcsum4_multitarget("Q1", ("Q2", "Q3"), qlay3, "csum"),
        spec("csum4_multi"), corpus="dcsum4_multi", suite="dCSUM''4 two targets")
    add("corpus_dcz4_sq_multi",
        lambda: qdp.build_dcsum4_multitarget("Q1", ("Q2", "Q3"), qlay3, "cz4_sq"),
        spec("cz4_sq"), corpus="dcz4_sq_multi", suite="d(CZ4)^2 fan-out two targets")
    for k in range(1, 5):
        qudits = tuple(f"Q{i}" for i in range(k + 1))
        layout = NodeLayout(tuple(f"n{i}" for i in range(k + 1)),
                            {q: f"n{i}" for i, q in enumerate(qudits)})
        for op, kind in (("csum", "csum4_multi"), ("cz4_sq", "cz4_sq")):
            add(f"dcsum4_multi_{k}t_{op}",
                lambda lay=layout, q=qudits, op=op:
                qdp.build_dcsum4_multitarget(q[0], q[1:], lay, op), spec(kind))

    for n in (4, 6, 8):
        tags = {"corpus": f"qudit_gcz{n}", "suite": f"qudit GCZ n={n}"} if n < 8 else {}
        add(f"qudit_gcz{n}", lambda n=n: qudit_gcz(n, n // 2), spec("qudit_gcz"), **tags)
    return tuple(out)


def tagged(tag: str) -> dict[str, Entry]:
    """The entries carrying ``tag``, in catalog order, by their name under it."""
    return {e.tags[tag]: e for e in entries() if tag in e.tags}


def circuits(tag: str) -> dict[str, DistCircuit]:
    """The circuits of one tag's entries, built now, by name under the tag."""
    return {name: e.build() for name, e in tagged(tag).items()}
