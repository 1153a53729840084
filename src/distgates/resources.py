"""Closed-form entanglement-resource and timing formulas for distributed
global gates, independent of circuit construction.

Conventions: n qubits over D nodes with k = n/D qubits per node; a Bell or
qudit pair costs one time unit t_ep, a GHZ state of any arity costs epsilon
t_ep (epsilon may also be a per-arity mapping or callable). Qudit compression
packs m qubits per qudit (dimension 2^m), so each node holds k/m qudits.

``gcz_costs`` and ``gms_costs`` return a ``ResourceTally`` per strategy name the
builders take, timed by ``serial_time``, so ``tally(built, epsilon=e) == costs[s]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import ResourceTally, resource_cost


@dataclass(frozen=True)
class GczConfig:
    """Shape of a distributed n-qubit GCZ: n = k * D, qudits pack m | k qubits."""

    n: int
    D: int
    k: int | None = None
    m: int | None = None
    epsilon: float = 1.0

    def __post_init__(self):
        k = self.k if self.k is not None else self.n // self.D
        object.__setattr__(self, "k", k)
        m = self.m if self.m is not None else k
        object.__setattr__(self, "m", m)
        if self.n != k * self.D:
            raise ValueError(f"n = {self.n} is not k * D = {k} * {self.D}")
        if self.n < 2 or self.D < 2 or k < 1:
            raise ValueError("need n >= 2 qubits over D >= 2 nodes")
        if m < 1 or k % m:
            raise ValueError(f"qudit pack size m = {m} must divide k = {k}")


def _tallies(epsilon, **strategies) -> dict[str, ResourceTally]:
    """One tally per strategy from its (parties, dim, count) rows, timed serially."""
    out = {}
    for name, rows in strategies.items():
        t = out[name] = ResourceTally()
        for parties, dim, count in rows:
            t.add(parties, dim, count)
        t.time_units = t.serial_time(epsilon)
    return out


def gcz_costs(cfg: GczConfig) -> dict[str, ResourceTally]:
    """Entanglement needs of an n-qubit GCZ over D nodes, k qubits per node.

    pairwise: one Bell pair per cross-node pair, n(n-k)/2 in all. fanout: one
    GHZ per fan-out layer with remote targets, k layers each of arity D,
    D-1, ..., 3 (so n-2k states), plus k Bell pairs for the final-node layers.
    qudit: the same shape over dimension-2^m qudits with l = k/m per node, so
    n/m - 2k/m qudit GHZ states and k/m qudit pairs (one qudit per node gives
    D-2 states and one pair).
    """
    n, D, k, m = cfg.n, cfg.D, cfg.k, cfg.m
    return _tallies(
        cfg.epsilon,
        pairwise=[(2, 2, n * (n - k) // 2)],
        fanout=[(2, 2, k)] + [(arity, 2, k) for arity in range(3, D + 1)],
        qudit=[(2, 2 ** m, k // m)] + [(arity, 2 ** m, k // m) for arity in range(3, D + 1)])


def gms_costs(n: int, epsilon: float = 1.0) -> dict[str, ResourceTally]:
    """Entanglement needs of an n-qubit GMS gate, one qubit per node.

    pairwise: two teleported CNOTs per two-qubit MS factor, n(n-1) Bell
    pairs. pairwise_conditional: one distributed conditional rotation per
    factor, n(n-1)/2. fanout: n-2 GHZ states of arities n down to 3 plus one
    Bell pair.
    """
    if n < 2:
        raise ValueError("need at least 2 qubits")
    return _tallies(
        epsilon,
        pairwise=[(2, 2, n * (n - 1))],
        pairwise_conditional=[(2, 2, n * (n - 1) // 2)],
        fanout=[(2, 2, 1)] + [(arity, 2, 1) for arity in range(3, n + 1)])


def fanout_gain(n: int, epsilon: float = 1.0) -> float:
    """Time saved by one (n+1)-party GHZ fan-out over n Bell pairs: n - epsilon (0 at n = 1)."""
    if n < 1:
        raise ValueError("need at least one target")
    return n - resource_cost(n + 1, epsilon)
