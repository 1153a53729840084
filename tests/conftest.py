"""Shared test helpers: independent matrix oracles built only from numpy."""

from __future__ import annotations

from functools import reduce

import numpy as np

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def kron_embed(mat: np.ndarray, position: int, n: int, dim: int = 2) -> np.ndarray:
    """Embed a single-subsystem matrix at one position of an n-fold register."""
    eye = np.eye(dim, dtype=complex)
    return reduce(np.kron, [mat if k == position else eye for k in range(n)])


def expm_xx_sum(n: int, theta: float) -> np.ndarray:
    """exp(-i theta/2 sum_{i<j} X_i X_j) by eigendecomposition.

    Independent oracle for the global MS gate: diagonalize the Hermitian sum
    and exponentiate the eigenvalues.
    """
    ham = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            ham += kron_embed(X, i, n) @ kron_embed(X, j, n)
    w, v = np.linalg.eigh(ham)
    return (v * np.exp(-0.5j * theta * w)) @ v.conj().T


def bits_of(index: int, n: int) -> list[int]:
    return [(index >> (n - 1 - p)) & 1 for p in range(n)]


def digits_of(index: int, dims) -> list[int]:
    out = []
    for d in reversed(tuple(dims)):
        out.append(index % d)
        index //= d
    out.reverse()
    return out


def gcz_phase(bits) -> int:
    """(-1) exponent of the global CZ: sum of q_i q_j over all pairs, mod 2."""
    n = len(bits)
    return sum(bits[i] * bits[j] for i in range(n) for j in range(i + 1, n)) % 2


def csum_multi_reference(d: int, n_targets: int) -> np.ndarray:
    """Single-control multitarget sum |i>|j>|k>... -> |i>|i+j>|i+k>... (mod d), densely."""
    size = d ** (n_targets + 1)
    m = np.zeros((size, size), dtype=complex)
    for src in range(size):
        digits = digits_of(src, (d,) * (n_targets + 1))
        ctrl = digits[0]
        dst = 0
        for v in [ctrl] + [(ctrl + t) % d for t in digits[1:]]:
            dst = dst * d + v
        m[dst, src] = 1.0
    return m


def apply_matrix_reference(amps: np.ndarray, dims, axes, mat: np.ndarray) -> np.ndarray:
    """``backend.apply_matrix`` for any matrix: transpose the targets first, matmul, transpose back."""
    shape = tuple(dims) + amps.shape[1:]
    perm = list(axes) + [i for i in range(len(shape)) if i not in axes]
    inverse = [0] * len(perm)
    for position, axis in enumerate(perm):
        inverse[axis] = position
    t = amps.reshape(shape).transpose(perm)
    out = (mat @ t.reshape(mat.shape[0], -1)).reshape(t.shape)
    return np.ascontiguousarray(out.transpose(inverse)).reshape(amps.shape)


def random_unitary(dim: int, rng) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def one_per_node_layout(n: int):
    from distgates import NodeLayout
    labels = tuple(f"q{i + 1}" for i in range(n))
    nodes = tuple(f"node{i + 1}" for i in range(n))
    return NodeLayout(nodes, dict(zip(labels, nodes))), labels


def qudit_gcz_setup(n_qubits: int):
    """Layout, partition, and encoding for a qudit-compressed GCZ (2 qubits/node)."""
    from distgates import NodeLayout, Partition, QuditEncoding
    from distgates.cli import block_layout
    layout, labels = block_layout(n_qubits, n_qubits // 2)
    qudits = tuple(f"Q{i + 1}" for i in range(n_qubits // 2))
    placement = dict(layout.placement)
    placement.update({q: layout.nodes[i] for i, q in enumerate(qudits)})
    full = NodeLayout(layout.nodes, placement)
    pairs = tuple((labels[2 * i], labels[2 * i + 1]) for i in range(n_qubits // 2))
    return Partition(full), QuditEncoding(pairs, qudits), labels


def builder_corpus():
    """One representative circuit from every builder (used by round-trip checks)."""
    import math

    from distgates import (GateRef, GmsSpec, NodeLayout, Partition, build_dcontrol_u,
                           build_dcsum4, build_dcsum4_multitarget, build_dcz4_pow,
                           build_dgcz, build_dgms, build_fanout, build_qudit_gcz)
    from distgates.cli import block_layout

    circuits = {}
    lay2 = NodeLayout(("A", "B"), {"c": "A", "t": "B"})
    circuits["dcnot"] = build_dcontrol_u("c", "t", GateRef("X"), lay2)
    circuits["dcz"] = build_dcontrol_u("c", "t", GateRef("Z"), lay2)

    lay_mixed = NodeLayout(("A", "B", "C"),
                           {"c": "A", "t1": "A", "t2": "B", "t3": "C"})
    circuits["fanout_local_remote"] = build_fanout(
        "c", [("t1", GateRef("X")), ("t2", GateRef("X")), ("t3", GateRef("Z"))], lay_mixed)
    lay_remote = NodeLayout(("A", "B", "C", "D"),
                            {"c": "A", "t1": "B", "t2": "C", "t3": "D"})
    circuits["fanout_all_remote"] = build_fanout(
        "c", [(t, GateRef("X")) for t in ("t1", "t2", "t3")], lay_remote)

    lay4, labels4 = one_per_node_layout(4)
    for strat in ("pairwise", "pairwise_conditional", "fanout"):
        circuits[f"gms4_{strat}"] = build_dgms(
            GmsSpec(labels4, math.pi / 2), lay4, strat)

    gcz_lay2, gcz_labels = block_layout(6, 2)
    gcz_lay3, _ = block_layout(6, 3)
    circuits["gcz6_2n_fanout"] = build_dgcz(gcz_labels, Partition(gcz_lay2), "fanout")
    circuits["gcz6_2n_teleport"] = build_dgcz(gcz_labels, Partition(gcz_lay2), "teleport_all")
    circuits["gcz6_3n_pairwise"] = build_dgcz(gcz_labels, Partition(gcz_lay3), "pairwise")
    circuits["gcz6_3n_fanout"] = build_dgcz(gcz_labels, Partition(gcz_lay3), "fanout")

    qlay = NodeLayout(("n1", "n2"), {"Q1": "n1", "Q2": "n2"})
    circuits["dcsum4"] = build_dcsum4("Q1", "Q2", qlay)
    circuits["dcz4"] = build_dcz4_pow("Q1", "Q2", 1, qlay)
    circuits["dcz4_sq"] = build_dcz4_pow("Q1", "Q2", 2, qlay)
    qlay3 = NodeLayout(("n1", "n2", "n3"), {"Q1": "n1", "Q2": "n2", "Q3": "n3"})
    circuits["dcsum4_multi"] = build_dcsum4_multitarget("Q1", ("Q2", "Q3"), qlay3, "csum")
    circuits["dcz4_sq_multi"] = build_dcsum4_multitarget("Q1", ("Q2", "Q3"), qlay3, "cz4_sq")

    part4, enc4, _ = qudit_gcz_setup(4)
    circuits["qudit_gcz4"] = build_qudit_gcz(4, part4, enc4)
    part6, enc6, _ = qudit_gcz_setup(6)
    circuits["qudit_gcz6"] = build_qudit_gcz(6, part6, enc6)
    return circuits
