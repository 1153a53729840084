"""CLI: every subcommand as a thin wrapper with documented exit codes."""

import csv
import io
import json

import pytest

from distgates import MixedRegister, deserialize, enumerate_branches, infer_dims, tally
from distgates.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_gcz_fanout_table_row(tmp_path, capsys):
    out = tmp_path / "gcz.json"
    code, _, err = run(capsys, "compile", "--gate", "gcz", "--n", "6", "--nodes", "3",
                       "--strategy", "fanout", "--out", str(out))
    assert code == 0
    assert "2 ep" in err and "2 ghz(3)" in err
    circuit = deserialize(out.read_text())
    t = tally(circuit)
    assert t.ep == 2 and t.ghz == {3: 2}


def test_compile_gms_pairwise(tmp_path, capsys):
    out = tmp_path / "gms.json"
    code, _, err = run(capsys, "compile", "--gate", "gms", "--n", "4", "--nodes", "4",
                       "--theta", "pi/2", "--strategy", "pairwise", "--out", str(out))
    assert code == 0
    assert "12 ep" in err
    assert tally(deserialize(out.read_text())).ep == 12


def test_compile_qudit_gcz(tmp_path, capsys):
    out = tmp_path / "qudit.json"
    code, _, err = run(capsys, "compile", "--gate", "gcz", "--n", "4", "--nodes", "2",
                       "--qudit", "--out", str(out))
    assert code == 0
    assert "1 ep_d(4)" in err
    assert tally(deserialize(out.read_text())).ep_d == {4: 1}


def test_compile_to_stdout(capsys):
    code, out, _ = run(capsys, "compile", "--gate", "gcz", "--n", "2", "--nodes", "2",
                       "--strategy", "pairwise")
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"] == ["q1", "q2"]


def test_compile_invalid_combination(capsys):
    code, _, err = run(capsys, "compile", "--gate", "gcz", "--n", "6", "--nodes", "4",
                       "--strategy", "fanout")
    assert code == 2
    assert "error" in err


def test_verify_pass_and_fail(tmp_path, capsys):
    circuit_path = tmp_path / "dcnot.json"
    code, _, _ = run(capsys, "compile", "--gate", "gcz", "--n", "2", "--nodes", "2",
                     "--strategy", "pairwise", "--out", str(circuit_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--circuit", str(circuit_path),
                       "--oracle", "gcz", "--inputs", "basis")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["min_fidelity"] > 1 - 1e-9
    assert report["branches"] == 4 * 4  # 4 basis inputs, 4 branches each

    # drop the final correction: verification must fail with the branch listed
    doc = json.loads(circuit_path.read_text())
    doc["instructions"] = [ins for ins in doc["instructions"]
                           if not (ins["kind"] == "CondGate" and ins["gate"] == "Z")]
    bad_path = tmp_path / "corrupted.json"
    bad_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--circuit", str(bad_path),
                       "--oracle", "gcz", "--inputs", "random:5")
    assert code == 1
    report = json.loads(out)
    assert report["min_fidelity"] < 1 - 1e-3
    assert report["failures"]


def test_verify_random_inputs_flag(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(capsys, "compile", "--gate", "gcz", "--n", "4", "--nodes", "2", "--qudit",
        "--out", str(path))
    code, out, _ = run(capsys, "verify", "--circuit", str(path),
                       "--oracle", "qudit_gcz", "--inputs", "random:4", "--seed", "3")
    assert code == 0
    assert json.loads(out)["inputs_checked"] == 4


def test_simulate_lists_branches(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(capsys, "compile", "--gate", "gcz", "--n", "2", "--nodes", "2",
        "--strategy", "pairwise", "--out", str(path))
    code, out, _ = run(capsys, "simulate", "--circuit", str(path), "--input", "11")
    assert code == 0
    assert "total_probability=1.000000000000" in out
    assert out.count("p=0.25") == 4
    assert "|11>" in out


def test_simulate_kets_match_digit_expansion(tmp_path, capsys):
    # mixed qudit/qubit registers: each ket digit is the big-endian expansion
    # of the amplitude index over the branch's subsystem dimensions
    path = tmp_path / "q.json"
    run(capsys, "compile", "--gate", "gcz", "--n", "4", "--nodes", "2", "--qudit",
        "--out", str(path))
    circuit = deserialize(path.read_text())
    code, out, _ = run(capsys, "simulate", "--circuit", str(path), "--input", "31")
    assert code == 0
    dims = infer_dims(circuit)
    state = MixedRegister.basis(circuit.inputs, [dims[l] for l in circuit.inputs], (3, 1))
    lines = out.splitlines()[:-1]
    branches = enumerate_branches(circuit, state)
    assert len(lines) == len(branches)
    for line, br in zip(lines, branches):
        terms = []
        for i, amp in enumerate(br.state.amps):
            if abs(amp) > 1e-9:
                digits, v = [], i
                for d in reversed(br.state.dims):
                    digits.append(v % d)
                    v //= d
                ket = "".join(str(x) for x in reversed(digits))
                terms.append(f"({amp.real:+.4f}{amp.imag:+.4f}j)|{ket}>")
        assert line.endswith(": " + " + ".join(terms))


def test_verify_has_no_power_flag(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(capsys, "compile", "--gate", "gcz", "--n", "2", "--nodes", "2", "--out", str(path))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--circuit", str(path), "--oracle", "cz4_sq", "--power", "1"])
    assert exc.value.code == 2


def test_misparsed_circuit_fields_exit_two(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(capsys, "compile", "--gate", "gcz", "--n", "4", "--nodes", "2", "--qudit",
        "--out", str(path))
    doc = json.loads(path.read_text())
    resource = next(ins for ins in doc["instructions"] if "dim" in ins)
    for field, value in (("dim", 0), ("targets", "E0_node1")):
        bad = json.loads(json.dumps(doc))
        next(ins for ins in bad["instructions"] if ins == resource)[field] = value
        path.write_text(json.dumps(bad))
        for command in (["simulate"], ["verify", "--oracle", "qudit_gcz"]):
            code, _, err = run(capsys, command[0], "--circuit", str(path), *command[1:])
            assert code == 2 and f"'{field}'" in err


def test_string_label_lists_exit_two(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(capsys, "compile", "--gate", "gcz", "--n", "2", "--nodes", "2",
        "--strategy", "pairwise", "--out", str(path))
    doc = json.loads(path.read_text())
    for field in ("inputs", "outputs", "nodes", "xor"):
        bad = json.loads(json.dumps(doc))
        owner = (bad["layout"] if field == "nodes"
                 else next(ins["condition"] for ins in bad["instructions"]
                           if "condition" in ins) if field == "xor" else bad)
        owner[field] = "".join(owner[field])  # e.g. ["q1", "q2"] -> "q1q2"
        path.write_text(json.dumps(bad))
        for command in (["simulate"], ["verify", "--oracle", "gcz"]):
            code, out, err = run(capsys, command[0], "--circuit", str(path), *command[1:])
            assert code == 2 and f"'{field}' must be a list of strings" in err
            assert out == ""


def test_simulate_rejects_an_invalid_circuit_like_verify(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(capsys, "compile", "--gate", "gcz", "--n", "2", "--nodes", "2",
        "--strategy", "pairwise", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["instructions"].insert(0, {"kind": "LocalGate", "targets": ["q1", "q2"], "gate": "CZ"})
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", "--circuit", str(path))
    assert code == 2 and out == ""
    assert "instruction 0: cross-node local gate" in err
    assert run(capsys, "verify", "--circuit", str(path), "--oracle", "gcz") == (2, "", err)


def test_estimate_matches_table_row(capsys):
    code, out, _ = run(capsys, "estimate", "--sweep", "6:6", "--nodes", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert (row["pairwise_ep"], row["fanout_ghz"], row["fanout_ep"]) == ("12", "2", "2")
    assert (row["qudit_ghz"], row["qudit_ep"]) == ("1", "1")


def test_estimate_sweep_quadratic_column(capsys):
    code, out, _ = run(capsys, "estimate", "--sweep", "4:12:2", "--nodes", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    pair = [int(r["pairwise_ep"]) for r in rows]
    second = [pair[i + 2] - 2 * pair[i + 1] + pair[i] for i in range(len(pair) - 2)]
    assert len(set(second)) == 1
    gains = [float(r["fanout_gain"]) for r in rows]
    ns = [int(r["n"]) for r in rows]
    assert gains == [n - 1.0 for n in ns]  # linear in n at epsilon = 1


def test_estimate_epsilon_sweep(capsys):
    code, out, _ = run(capsys, "estimate", "--sweep", "6:6", "--nodes", "3",
                       "--epsilon", "1.5")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["time_fanout"]) == pytest.approx(2 * 1.5 + 2)
    assert float(rows[0]["fanout_gain"]) == pytest.approx(6 - 1.5)


def test_identities_pass(capsys):
    code, out, _ = run(capsys, "identities")
    assert code == 0
    assert "FAIL" not in out
    assert "CZ4 = (I x H4) CSUM4 (I x H4_dag)" in out
    assert "LMS = (HxH) C(RZ(t), RZ(-t)) (HxH)" in out


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--gate", "bogus", "--n", "4", "--nodes", "2"])
    assert exc.value.code == 2
    code, _, err = run(capsys, "verify", "--circuit", "/nonexistent.json",
                       "--oracle", "gcz")
    assert code == 2 and "error" in err


def test_malformed_circuit_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", "--circuit", str(bad), "--oracle", "gcz")
    assert code == 2
    assert "line" in err


def test_verify_inputs_from_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(capsys, "compile", "--gate", "gcz", "--n", "2", "--nodes", "2",
        "--strategy", "pairwise", "--out", str(path))
    states = tmp_path / "states.json"
    s = 0.5 ** 0.5
    states.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                  [[s, 0.0], [0.0, 0.0], [0.0, 0.0], [s, 0.0]]]))
    code, out, _ = run(capsys, "verify", "--circuit", str(path),
                       "--oracle", "gcz", "--inputs", str(states))
    assert code == 0
    assert json.loads(out)["inputs_checked"] == 2


def test_estimate_invalid_sweep(capsys):
    code, _, err = run(capsys, "estimate", "--sweep", "8:4", "--nodes", "2")
    assert code == 2 and "empty sweep" in err
    code, _, err = run(capsys, "estimate", "--sweep", "a:b", "--nodes", "2")
    assert code == 2
