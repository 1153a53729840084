"""Closed-form resource formulas and their agreement with circuit tallies."""

import math

import pytest

from distgates import catalog, tally
from distgates.resources import GczConfig, fanout_gain, gcz_costs, gms_costs


def test_table_row_six_qubits_three_nodes():
    r = gcz_costs(GczConfig(n=6, D=3, k=2))
    assert r["pairwise"].ep == 12
    assert (r["fanout"].total(ghz=True), r["fanout"].ep) == (2, 2)
    assert r["fanout"].ghz == {3: 2}
    assert (r["qudit"].total(ghz=True), r["qudit"].total(ghz=False)) == (1, 1)


def test_four_qubits_four_nodes():
    r = gcz_costs(GczConfig(n=4, D=4, k=1))
    assert r["pairwise"].ep == 6
    assert r["fanout"].ghz == {4: 1, 3: 1}
    assert (r["fanout"].total(ghz=True), r["fanout"].ep) == (2, 1)


def test_two_qubits_two_nodes():
    r = gcz_costs(GczConfig(n=2, D=2, k=1))
    assert r["pairwise"].ep == 1
    assert (r["fanout"].total(ghz=True), r["fanout"].ep) == (0, 1)


def test_symbolic_grid_closed_forms():
    for D in range(2, 7):
        for k in range(1, 25):
            n = D * k
            if n > 24:
                break
            r = gcz_costs(GczConfig(n=n, D=D, k=k))
            assert r["pairwise"].ep == n * (n - k) // 2
            assert r["fanout"].total(ghz=True) == n - 2 * k
            assert r["fanout"].ep == k
            assert r["qudit"].total(ghz=True) == n // k - 2
            assert r["qudit"].total(ghz=False) == 1
            for m in range(1, k + 1):
                if k % m:
                    continue
                rm = gcz_costs(GczConfig(n=n, D=D, k=k, m=m))["qudit"]
                assert rm.total(ghz=True) == n // m - 2 * k // m
                assert rm.total(ghz=False) == k // m


def test_gcz_config_validation():
    with pytest.raises(ValueError, match="k \\* D"):
        GczConfig(n=7, D=3, k=2)
    with pytest.raises(ValueError, match="divide"):
        GczConfig(n=12, D=3, k=4, m=3)


def test_gms_costs():
    costs = gms_costs(4)
    assert costs["pairwise"].ep == 12
    assert costs["pairwise_conditional"].ep == 6
    fan = costs["fanout"]
    assert fan.total(ghz=True) == 2 and fan.ep == 1
    assert fan.ghz == {3: 1, 4: 1}
    fan3 = gms_costs(3)["fanout"]
    assert fan3.ghz == {3: 1} and fan3.ep == 1


def test_fanout_gain_values():
    assert fanout_gain(3, 1.0) == 2
    assert fanout_gain(1, 1.0) == 0
    assert fanout_gain(1, 1.5) == 0  # one target: the fan-out is a Bell pair
    assert fanout_gain(5, 1.5) == 3.5
    with pytest.raises(ValueError):
        fanout_gain(0)


def test_fanout_time_inequality():
    # one 4-party and one 3-party GHZ plus one pair beat 12 pairs while eps < 5.5
    for eps in (0.5, 1.0, 2.0, 5.4):
        fan = gms_costs(4, epsilon=eps)["fanout"]
        assert fan.time_units == pytest.approx(2 * eps + 1)
        assert fan.time_units < 12
    assert gms_costs(4, epsilon=5.6)["fanout"].time_units > 12


# GCZ shapes are D-k (n = D k <= 12; the qudit strategy packs k = 2 qubits per
# node), GMS shapes gms-n with one qubit per node
AGREEMENT_SHAPES = (
    [pytest.param("gcz", D, k, id=f"{D}-{k}")
     for D in range(2, 7) for k in range(1, 5) if D * k <= 12]
    + [pytest.param("gms", n, 1, id=f"gms-{n}") for n in range(2, 8)])


@pytest.mark.parametrize("gate,D,k", AGREEMENT_SHAPES)
def test_formulas_agree_with_built_circuit_tallies(gate, D, k):
    n = D * k
    if gate == "gms":
        built = {s: catalog.gms(n, n, math.pi / 2, s)
                 for s in ("pairwise", "pairwise_conditional", "fanout")}
    else:
        built = {s: catalog.gcz(n, D, s) for s in ("pairwise", "fanout")}
        if k == 2:
            built["qudit"] = catalog.qudit_gcz(n, D)
    for eps in (1.0, 0.7):
        costs = gms_costs(n, eps) if gate == "gms" else gcz_costs(GczConfig(n, D, k, epsilon=eps))
        for strategy, circuit in built.items():
            assert tally(circuit, epsilon=eps) == costs[strategy], (strategy, eps)


def test_growth_rates():
    # pairwise grows quadratically (constant second differences on a fixed-D grid)
    pair = [gcz_costs(GczConfig(n=n, D=2))["pairwise"].ep for n in (4, 6, 8, 10, 12)]
    second = [pair[i + 2] - 2 * pair[i + 1] + pair[i] for i in range(len(pair) - 2)]
    assert len(set(second)) == 1 and second[0] > 0
    # total fan-out resources grow linearly in n
    fan = [gcz_costs(GczConfig(n=n, D=2))["fanout"] for n in (4, 6, 8, 12)]
    fan = [t.total(ghz=True) + t.total(ghz=False) for t in fan]
    diffs = [(fan[i + 1] - fan[i]) / step
             for i, step in enumerate((2, 2, 4))]
    assert len(set(diffs)) == 1
