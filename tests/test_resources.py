"""Closed-form resource formulas and their agreement with circuit tallies."""

import math

import pytest

from distgates import catalog, tally
from distgates.resources import CostReport, GczConfig, fanout_gain, gcz_costs, gms_costs


def test_table_row_six_qubits_three_nodes():
    r = gcz_costs(GczConfig(n=6, D=3, k=2))
    assert r.pairwise_ep == 12
    assert (r.fanout_ghz, r.fanout_ep) == (2, 2)
    assert r.fanout_ghz_arities == {3: 2}
    assert (r.qudit_ghz, r.qudit_ep) == (1, 1)


def test_four_qubits_four_nodes():
    r = gcz_costs(GczConfig(n=4, D=4, k=1))
    assert r.pairwise_ep == 6
    assert r.fanout_ghz_arities == {4: 1, 3: 1}
    assert (r.fanout_ghz, r.fanout_ep) == (2, 1)


def test_two_qubits_two_nodes():
    r = gcz_costs(GczConfig(n=2, D=2, k=1))
    assert r.pairwise_ep == 1
    assert (r.fanout_ghz, r.fanout_ep) == (0, 1)


def test_symbolic_grid_closed_forms():
    for D in range(2, 7):
        for k in range(1, 25):
            n = D * k
            if n > 24:
                break
            r = gcz_costs(GczConfig(n=n, D=D, k=k))
            assert r.pairwise_ep == n * (n - k) // 2
            assert r.fanout_ghz == n - 2 * k
            assert r.fanout_ep == k
            assert r.qudit_ghz == n // k - 2
            assert r.qudit_ep == 1
            for m in range(1, k + 1):
                if k % m:
                    continue
                rm = gcz_costs(GczConfig(n=n, D=D, k=k, m=m))
                assert rm.qudit_ghz == n // m - 2 * k // m
                assert rm.qudit_ep == k // m


def test_gcz_config_validation():
    with pytest.raises(ValueError, match="k \\* D"):
        GczConfig(n=7, D=3, k=2)
    with pytest.raises(ValueError, match="divide"):
        GczConfig(n=12, D=3, k=4, m=3)


def test_gms_costs():
    assert gms_costs(4, "pairwise").pairwise_ep == 12
    assert gms_costs(4, "pairwise_conditional").pairwise_ep == 6
    fan = gms_costs(4, "fanout")
    assert fan.fanout_ghz == 2 and fan.fanout_ep == 1
    assert fan.fanout_ghz_arities == {3: 1, 4: 1}
    fan3 = gms_costs(3, "fanout")
    assert fan3.fanout_ghz_arities == {3: 1} and fan3.fanout_ep == 1


def test_fanout_gain_values():
    assert fanout_gain(3, 1.0) == 2
    assert fanout_gain(1, 1.0) == 0
    assert fanout_gain(5, 1.5) == 3.5
    with pytest.raises(ValueError):
        fanout_gain(0)


def test_fanout_time_inequality():
    # one 4-party and one 3-party GHZ plus one pair beat 12 pairs while eps < 5.5
    for eps in (0.5, 1.0, 2.0, 5.4):
        fan = gms_costs(4, "fanout", epsilon=eps)
        assert fan.time_fanout == pytest.approx(2 * eps + 1)
        assert fan.time_fanout < 12
    assert gms_costs(4, "fanout", epsilon=5.6).time_fanout > 12


@pytest.mark.parametrize("D,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_formulas_agree_with_built_circuit_tallies(D, k):
    n = D * k
    if n < 2:
        pytest.skip("degenerate")
    costs = gcz_costs(GczConfig(n=n, D=D, k=k))
    assert tally(catalog.gcz(n, D, "pairwise")).ep == costs.pairwise_ep
    fan_tally = tally(catalog.gcz(n, D, "fanout"))
    assert fan_tally.ep == costs.fanout_ep
    assert sum(fan_tally.ghz.values()) == costs.fanout_ghz


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gms_formulas_agree_with_tallies(n):
    for strategy in ("pairwise", "pairwise_conditional"):
        assert tally(catalog.gms(n, n, math.pi / 2, strategy)).ep == \
            gms_costs(n, strategy).pairwise_ep
    fan = gms_costs(n, "fanout")
    t = tally(catalog.gms(n, n, math.pi / 2, "fanout"))
    assert t.ghz == fan.fanout_ghz_arities and t.ep == fan.fanout_ep


def test_growth_rates():
    # pairwise grows quadratically (constant second differences on a fixed-D grid)
    pair = [gcz_costs(GczConfig(n=n, D=2)).pairwise_ep for n in (4, 6, 8, 10, 12)]
    second = [pair[i + 2] - 2 * pair[i + 1] + pair[i] for i in range(len(pair) - 2)]
    assert len(set(second)) == 1 and second[0] > 0
    # total fan-out resources grow linearly in n
    fan = [gcz_costs(GczConfig(n=n, D=2)).fanout_ghz + gcz_costs(GczConfig(n=n, D=2)).fanout_ep
           for n in (4, 6, 8, 12)]
    diffs = [(fan[i + 1] - fan[i]) / step
             for i, step in enumerate((2, 2, 4))]
    assert len(set(diffs)) == 1


def test_cost_report_defaults():
    r = CostReport()
    assert r.pairwise_ep == 0 and r.time_fanout == 0.0
