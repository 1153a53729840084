"""Gate matrix constructors: the qubit set plus the dimension-d qudit set.

Qudit constructors take the dimension as a parameter; the named registry
entries fix d = 4 (one qudit encodes two qubits). ``gate_matrix`` resolves
the wire-format gate names used by circuit instructions.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .statevec import Unitary

SQRT2_INV = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# qubit gates
# ---------------------------------------------------------------------------

def h_matrix() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV


def x_matrix() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def z_matrix() -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=complex)


def s_dag_matrix() -> np.ndarray:
    return np.array([[1, 0], [0, -1j]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex)


def cnot_matrix() -> np.ndarray:
    # control is the more significant digit
    return np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def cz_matrix() -> np.ndarray:
    return np.diag([1, 1, 1, -1]).astype(complex)


# ---------------------------------------------------------------------------
# qudit gates, general dimension d (named entries below fix d = 4)
# ---------------------------------------------------------------------------

def omega(d: int) -> complex:
    return np.exp(2j * np.pi / d)


def shift_matrix(d: int) -> np.ndarray:
    """Cyclic increment: |j> -> |j+1 mod d>."""
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def clock_dag_matrix(d: int) -> np.ndarray:
    """Phase gate Z_d^†: |j> -> omega^(-j) |j>."""
    return np.diag(omega(d) ** (-np.arange(d)))


def fourier_matrix(d: int) -> np.ndarray:
    """Qudit Fourier gate H_d: |j> -> (1/sqrt d) sum_k omega^(jk) |k>."""
    j = np.arange(d)
    return omega(d) ** np.outer(j, j) / math.sqrt(d)


def complement_matrix(d: int) -> np.ndarray:
    """Modular complement K_d: |j> -> |(d - j) mod d> = |-j>."""
    m = np.zeros((d, d), dtype=complex)
    for j in range(d):
        m[(d - j) % d, j] = 1.0
    return m


def csum_matrix(d: int) -> np.ndarray:
    """Controlled sum: |i>|j> -> |i>|(i+j) mod d>, control more significant."""
    m = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            m[d * i + (i + j) % d, d * i + j] = 1.0
    return m


def csum_dag_matrix(d: int) -> np.ndarray:
    """Inverse controlled sum: |i>|j> -> |i>|(j-i) mod d>."""
    return csum_matrix(d).conj().T


def czd_matrix(d: int) -> np.ndarray:
    """Controlled phase: diagonal omega^(jk) over |j>|k>."""
    j = np.arange(d)
    return np.diag((omega(d) ** np.outer(j, j)).reshape(-1))


def level_swap_matrix(d: int, a: int, b: int) -> np.ndarray:
    """Exchange levels |a> and |b>, identity elsewhere."""
    m = np.eye(d, dtype=complex)
    m[a, a] = m[b, b] = 0.0
    m[a, b] = m[b, a] = 1.0
    return m


def level_phase_flip_matrix(d: int, level: int) -> np.ndarray:
    """Multiply level |level> by -1, identity elsewhere."""
    m = np.eye(d, dtype=complex)
    m[level, level] = -1.0
    return m


def cz4_sq_matrix() -> np.ndarray:
    """(CZ_4)^2: diagonal (-1)^(jk) over |j>|k>."""
    m = czd_matrix(4)
    return m @ m


# ---------------------------------------------------------------------------
# named registry (wire-format gate names)
# ---------------------------------------------------------------------------

_REGISTRY = {
    # name: (builder(params) -> matrix, subsystem dims, n params)
    "H": (lambda: h_matrix(), (2,), 0),
    "X": (lambda: x_matrix(), (2,), 0),
    "Z": (lambda: z_matrix(), (2,), 0),
    "S_dag": (lambda: s_dag_matrix(), (2,), 0),
    "RZ": (rz_matrix, (2,), 1),
    "CZ": (lambda: cz_matrix(), (2, 2), 0),
    "CNOT": (lambda: cnot_matrix(), (2, 2), 0),
    "P3": (lambda: level_phase_flip_matrix(4, 3), (4,), 0),
    "X23": (lambda: level_swap_matrix(4, 2, 3), (4,), 0),
    "X4": (lambda: shift_matrix(4), (4,), 0),
    "Z4_dag": (lambda: clock_dag_matrix(4), (4,), 0),
    "K4": (lambda: complement_matrix(4), (4,), 0),
    "H4": (lambda: fourier_matrix(4), (4,), 0),
    "H4_dag": (lambda: fourier_matrix(4).conj().T, (4,), 0),
    "CSUM4": (lambda: csum_matrix(4), (4, 4), 0),
    "CSUM4_dag": (lambda: csum_dag_matrix(4), (4, 4), 0),
    "CZ4": (lambda: czd_matrix(4), (4, 4), 0),
}

WIRE_GATES = frozenset(_REGISTRY)


def gate_arity(name: str) -> tuple[int, ...]:
    """Per-subsystem dimensions the named gate acts on."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown gate name {name!r}")
    return _REGISTRY[name][1]


def _read_only(u: Unitary) -> Unitary:
    # cached and shared by every caller in the process: a write would change
    # every later circuit that uses the gate
    u.entries.flags.writeable = False
    return u


@lru_cache(maxsize=512)
def gate_unitary(name: str, params: tuple[float, ...] = ()) -> Unitary:
    """Resolve a wire-format gate name (plus parameters) to a validated Unitary.

    The result is cached, so its ``entries`` are read-only.
    """
    if name not in _REGISTRY:
        raise ValueError(f"unknown gate name {name!r}")
    builder, arity, n_params = _REGISTRY[name]
    if len(params) != n_params:
        raise ValueError(f"gate {name} takes {n_params} parameter(s), got {len(params)}")
    return _read_only(Unitary(builder(*params), arity))


@lru_cache(maxsize=512)
def gate_power(name: str, params: tuple[float, ...], exponent: int) -> Unitary:
    """Integer power of a named gate (used by classically conditioned corrections).

    The result is cached, so its ``entries`` are read-only.
    """
    base = gate_unitary(name, params)
    return _read_only(Unitary(np.linalg.matrix_power(base.entries, exponent), base.arity))
