"""Acceptance suite: one check per exit criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import math
import time

import numpy as np
from conftest import H, kron_embed

from distgates import catalog, deserialize, lms_matrix, serialize, tally, validate
from distgates.circuit import DistCircuit
from distgates.resources import GczConfig, gcz_costs
from distgates.verify import basis_inputs, identity_checks, random_inputs, verify

RANDOM_INPUTS = 20
SEED = 2024


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}" + (f" [{detail}]" if detail else ""))
    assert ok, f"{criterion} {detail}"


def test_criterion_1_gms_resource_counts():
    start = time.time()
    ok = tally(catalog.gms(4, 4, math.pi / 2, "pairwise")).ep == 12
    ok &= tally(catalog.gms(4, 4, math.pi / 2, "pairwise_conditional")).ep == 6
    fan = tally(catalog.gms(4, 4, math.pi / 2, "fanout"))
    ok &= fan.ep == 1 and fan.ghz == {4: 1, 3: 1}
    ok &= fan.time_units == 2 * 1 + 1 and fan.time_units < 12
    elapsed = time.time() - start
    _report("criterion 1: GMS n=4 resource counts", ok and elapsed < 1.0,
            f"{elapsed:.2f}s")


def test_criterion_2_gcz_table_and_formulas():
    start = time.time()
    row = gcz_costs(GczConfig(n=6, D=3, k=2))
    ok = row["pairwise"].ep == 12
    fan, qudit = row["fanout"], row["qudit"]
    ok &= fan.total(ghz=True) == 2 and fan.ghz == {3: 2} and fan.ep == 2
    ok &= qudit.total(ghz=True) == 1 and qudit.total(ghz=False) == 1
    ok &= qudit.ghz_d == {(3, 4): 1}  # two qubits per dimension-4 qudit
    for D in range(2, 7):
        for k in range(1, 13):
            n = k * D
            if n > 24:
                break
            r = gcz_costs(GczConfig(n=n, D=D, k=k))
            ok &= r["pairwise"].ep == n * (n - k) // 2
            ok &= r["fanout"].total(ghz=True) + r["fanout"].total(ghz=False) == (n - 2 * k) + k
            ok &= r["qudit"].total(ghz=True) + r["qudit"].total(ghz=False) == (n // k - 2) + 1
            for m in range(1, k + 1):
                if k % m == 0:
                    rm = gcz_costs(GczConfig(n=n, D=D, k=k, m=m))["qudit"]
                    ok &= rm.total(ghz=True) + rm.total(ghz=False) == (n // m - 2 * k // m) + k // m
    elapsed = time.time() - start
    _report("criterion 2: GCZ resource table and closed forms", ok and elapsed < 1.0,
            f"{elapsed:.2f}s")


def _protocol_suite():
    """(name, circuit, oracle) for every protocol the correctness gate covers."""
    return [(name, e.build(), e.make_oracle()) for name, e in catalog.tagged("suite").items()]


def test_criterion_3_protocol_correctness():
    start = time.time()
    worst_name, worst = "", 1.0
    total_branches = 0
    for name, circuit, oracle in _protocol_suite():
        inputs = basis_inputs(circuit) + random_inputs(circuit, RANDOM_INPUTS, seed=SEED)
        report = verify(circuit, oracle, inputs, seed=SEED)
        total_branches += report.branches
        if report.min_fidelity < worst:
            worst_name, worst = name, report.min_fidelity
        assert report.min_fidelity >= 1 - 1e-9, f"{name}: min fidelity {report.min_fidelity}"
    elapsed = time.time() - start
    ok = worst >= 1 - 1e-9 and elapsed < 300
    _report("criterion 3: branch-exhaustive protocol correctness", ok,
            f"worst fidelity 1 - {1 - worst:.1e} ({worst_name}); "
            f"{total_branches} branches in {elapsed:.1f}s")


def test_criterion_4_gate_algebra_identities():
    deviations = dict(identity_checks())
    required = [
        "LMS = (HxH) CNOT (I x RZ) CNOT (HxH)",
        "LMS = (HxH) C(RZ(t), RZ(-t)) (HxH)",
        "CZ = e^{i pi/4} (Sdg x Sdg)(HxH) LMS(pi/2) (HxH)",
        "CZ4 = (I x H4) CSUM4 (I x H4_dag)",
        "(CZ4)^2 diagonal = (-1)^(jk)",
        "phase polynomial rewrite, n=6",
    ]
    ok = all(name in deviations for name in required)
    ok &= all(dev <= 1e-12 for dev in deviations.values())
    worst = max(deviations.values())
    _report("criterion 4: gate-algebra identities at 1e-12", ok, f"max dev {worst:.2e}")


def test_criterion_5_commutation_properties():
    # CZ fan-out layers of the 4-qubit global CZ commute exactly
    def cz_embed(i, j):
        diag = np.ones(16, dtype=complex)
        for idx in range(16):
            bits = [(idx >> (3 - p)) & 1 for p in range(4)]
            diag[idx] = -1.0 if bits[i] & bits[j] else 1.0
        return np.diag(diag)

    layer1 = cz_embed(0, 1) @ cz_embed(0, 2) @ cz_embed(0, 3)
    layer2 = cz_embed(1, 2) @ cz_embed(1, 3)
    cz_comm = np.linalg.norm(layer1 @ layer2 - layer2 @ layer1)
    # first MS slots of consecutive fan-outs (opening H absorbed) do not commute
    theta = math.pi / 3
    lms = lms_matrix(theta).entries
    slot1 = kron_embed(H, 0, 3) @ np.kron(lms, np.eye(2, dtype=complex))
    slot2 = kron_embed(H, 1, 3) @ np.kron(np.eye(2, dtype=complex), lms)
    lms_comm = np.linalg.norm(slot1 @ slot2 - slot2 @ slot1)
    ok = cz_comm < 1e-12 and lms_comm > 0.1
    _report("criterion 5: commutation structure", ok,
            f"CZ layers {cz_comm:.2e}, MS slots {lms_comm:.3f}")


def test_criterion_6_negative_controls():
    ok = True
    details = []
    suite = catalog.tagged("suite")
    for name in ("dCNOT", "dCSUM4"):
        circuit, oracle = suite[name].build(), suite[name].make_oracle()
        corrections = [i for i, ins in enumerate(circuit.instructions)
                       if ins.kind == "CondGate"]
        for index in corrections:
            kept = circuit.instructions[:index] + circuit.instructions[index + 1:]
            corrupted = DistCircuit(circuit.layout, kept, circuit.inputs, circuit.outputs)
            inputs = basis_inputs(corrupted) + random_inputs(corrupted, 5, seed=SEED)
            report = verify(corrupted, oracle, inputs, seed=SEED)
            caught = report.min_fidelity < 1 - 1e-3
            ok &= caught
            details.append(f"{name}#{index}:{report.min_fidelity:.3f}")
    _report("criterion 6: dropped corrections are detected", ok, ", ".join(details))


def test_criterion_7_serialization_round_trips():
    corpus = catalog.circuits("corpus")
    ok = True
    for name, circuit in corpus.items():
        text = serialize(circuit)
        restored = deserialize(text)
        stable = serialize(restored) == text and restored == circuit
        clean = validate(restored) == []
        ok &= stable and clean
        assert stable, f"{name} did not round-trip byte-stably"
        assert clean, f"{name} failed re-validation"
    _report("criterion 7: serialization round-trips", ok, f"{len(corpus)} circuits")
