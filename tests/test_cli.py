"""CLI: every subcommand as a thin wrapper with documented exit codes."""

import csv
import io
import json
import warnings

import pytest
from conftest import bad_resource_documents, conditioned_document, with_first_param

from distgates import MixedRegister, deserialize, enumerate_branches, infer_dims, tally
from distgates.cli import main
from distgates.verify import DEFAULT_THRESHOLD


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


def test_verify_with_nothing_to_check_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(capsys, "compile", "--gate", "gcz", "--n", "2", "--nodes", "2",
        "--strategy", "pairwise", "--out", str(path))
    empty = tmp_path / "inputs.json"
    empty.write_text("[]")
    for inputs in ("random:0", "random:-3", str(empty)):
        code, out, err = run(capsys, "verify", "--circuit", str(path), "--oracle", "gcz",
                             "--inputs", inputs)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and inputs in err


@pytest.mark.parametrize("command", [("simulate", "--circuit"),
                                     ("verify", "--oracle", "gcz", "--circuit"),
                                     ("verify", "--oracle", "gcz", "--inputs")])
def test_a_deeply_nested_file_exits_2(tmp_path, capsys, command):
    path = tmp_path / "c.json"
    run(capsys, "compile", "--gate", "gcz", "--n", "2", "--nodes", "2",
        "--strategy", "pairwise", "--out", str(path))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    args = [*command, str(deep)]
    if "--circuit" not in args:
        args += ["--circuit", str(path)]
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "nests too deeply" in err


def test_verify_rejects_nan_inputs(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(capsys, "compile", "--gate", "gcz", "--n", "2", "--nodes", "2",
        "--strategy", "pairwise", "--out", str(path))
    states = tmp_path / "states.json"
    states.write_text("[[[NaN, 0], [0, 0], [0, 0], [0, 0]]]")
    code, out, err = run(capsys, "verify", "--circuit", str(path), "--oracle", "gcz",
                         "--inputs", str(states))
    assert code == 2 and out == ""
    assert "not normalized" in err


@pytest.mark.parametrize("param", ['"inf"', "1e999", "NaN", '"-inf"'])
@pytest.mark.parametrize("command", [("simulate",),
                                     ("verify", "--oracle", "gms", "--theta", "pi/3")])
def test_a_non_finite_gate_parameter_in_a_file_exits_2(tmp_path, capsys, command, param):
    path = tmp_path / "gms.json"
    run(capsys, "compile", "--gate", "gms", "--n", "3", "--nodes", "3", "--theta", "pi/3",
        "--out", str(path))
    text, index = with_first_param(path.read_text(), param)
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused while reading, before any numpy arithmetic
        code, out, err = run(capsys, command[0], "--circuit", str(path), *command[1:])
    assert code == 2 and out == ""
    assert err.startswith(f"error: instruction {index}: angle ") and "is not finite" in err


@pytest.mark.parametrize("theta", ["inf", "-inf", "nan", "1e308", "1e999"])
def test_a_non_finite_theta_exits_2(theta, tmp_path, capsys):
    # 1e308 parses, but a builder's angle derived from it overflows to inf
    code, out, err = run(capsys, "compile", "--gate", "gms", "--n", "3", "--nodes", "3",
                         f"--theta={theta}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "finite" in err and "Traceback" not in err
    path = tmp_path / "gms.json"
    run(capsys, "compile", "--gate", "gms", "--n", "3", "--nodes", "3", "--out", str(path))
    if theta != "1e308":  # a finite oracle angle, however large, is a usable one
        code, out, err = run(capsys, "verify", "--circuit", str(path), "--oracle", "gms",
                             f"--theta={theta}")
        assert code == 2 and out == "" and err == f"error: angle {theta!r} is not finite\n"


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


def test_estimate_sweep_skips_fewer_than_two_qubits(capsys):
    code, out, _ = run(capsys, "estimate", "--sweep", "0:4", "--nodes", "2")
    assert code == 0
    assert [row["n"] for row in csv.DictReader(io.StringIO(out))] == ["2", "4"]


@pytest.mark.parametrize("argv", [
    ("--sweep", "2:8", "--nodes", "2", "--qudit-m", "5"),
    ("--sweep", "5:5", "--nodes", "2"),
    ("--sweep", "0:1", "--nodes", "1"),
])
def test_estimate_sweep_without_rows_is_a_usage_error(argv, tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code, out, err = run(capsys, "estimate", *argv, "--out", str(out_file))
    assert code == 2 and out == "" and not out_file.exists()
    assert "gives no row" in err and "--nodes" in err and "--qudit-m" in err


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


@pytest.mark.parametrize("argv", [
    ("compile", "--gate", "gcz", "--n", "4", "--nodes", "0"),
    ("estimate", "--sweep", "4:8", "--nodes", "0"),
    ("compile", "--gate", "gcz", "--n", "4", "--nodes", "-2"),
])
def test_node_count_below_one_is_a_usage_error(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "--nodes must be at least 1" in err


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


def test_an_inputs_file_named_like_random_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a relative path, as typed
    run(capsys, "compile", "--gate", "gcz", "--n", "2", "--nodes", "2",
        "--strategy", "pairwise", "--out", "c.json")
    (tmp_path / "random_inputs.json").write_text(
        json.dumps([[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]))
    code, out, _ = run(capsys, "verify", "--circuit", "c.json", "--oracle", "gcz",
                       "--inputs", "random_inputs.json")
    assert code == 0
    assert json.loads(out)["inputs_checked"] == 1
    (tmp_path / "randomly").write_text("[]")  # any other name is a file path too
    code, _, err = run(capsys, "verify", "--circuit", "c.json", "--oracle", "gcz",
                       "--inputs", "randomly")
    assert code == 2 and "inputs file randomly" in err


def test_random_input_count_over_the_amplitude_budget_exits_two(tmp_path, capsys):
    import tracemalloc

    from distgates.simulate import MAX_INPUT_AMPLITUDES
    path = tmp_path / "c.json"
    run(capsys, "compile", "--gate", "gcz", "--n", "4", "--nodes", "2", "--out", str(path))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--circuit", str(path), "--oracle", "gcz",
                             "--inputs", "random:1000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert f"limit of {MAX_INPUT_AMPLITUDES} amplitudes" in err
    assert peak < 2 ** 20
    # the bound is exact: one input past the budget is already refused
    ok = MAX_INPUT_AMPLITUDES // 16
    assert main(["verify", "--circuit", str(path), "--oracle", "gcz",
                 "--inputs", f"random:{ok + 1}"]) == 2
    assert f"{ok + 1} random inputs" in capsys.readouterr().err


def test_estimate_sweep_over_the_work_budget_exits_two(capsys, monkeypatch):
    import time

    from distgates import cli
    from distgates.simulate import MAX_SWEEP_QUBITS
    start = time.perf_counter()
    code, out, err = run(capsys, "estimate", "--sweep", "2:200000", "--nodes", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and f"limit of {MAX_SWEEP_QUBITS}" in err
    # a large --nodes leaves few rows: 11 rows whose n sum to 16,500 run
    code, out, _ = run(capsys, "estimate", "--sweep", "1000:2000", "--nodes", "100")
    assert code == 0 and len(out.splitlines()) == 12
    # the budget is the summed n of the rows that are computed, exactly
    monkeypatch.setattr(cli, "MAX_SWEEP_QUBITS", 20)
    for argv, code in (
            (("2:6", "2"), 0), (("-3:6", "2"), 0), (("-7:11:9", "2"), 0),
            (("2:8", "2"), 0),  # 2 + 4 + 6 + 8 = 20
            (("2:10", "2"), 2),  # 30
            (("0:18:9", "2"), 0), (("0:36:18", "2"), 2),  # 18; 18 + 36
            (("20:39", "20"), 0), (("20:40:2", "20"), 2),  # 20 (of 20 values); 20 + 40
            (("2:14", "2", "3"), 0), (("2:18", "2", "3"), 2)):  # k % m: 6 + 12; 6 + 12 + 18
        sweep, nodes, *qudit_m = argv
        extra = ["--qudit-m", qudit_m[0]] if qudit_m else []
        assert main(["estimate", f"--sweep={sweep}", "--nodes", nodes, *extra]) == code, argv
        if code:
            assert "limit of 20" in capsys.readouterr().err
    # more n than the limit is refused before the n are looked at
    code, _, err = run(capsys, "estimate", "--sweep", "100:120", "--nodes", "1000")
    assert code == 2 and "more values of n than the limit of 20" in err
    capsys.readouterr()


def test_estimate_invalid_sweep(capsys):
    code, _, err = run(capsys, "estimate", "--sweep", "8:4", "--nodes", "2")
    assert code == 2 and "empty sweep" in err
    code, _, err = run(capsys, "estimate", "--sweep", "a:b", "--nodes", "2")
    assert code == 2


@pytest.mark.parametrize("name,oracle", [("qudit_pair_without_dim", "csum4"),
                                         ("bell_with_dim", "cnot")])
def test_resource_dim_contradicting_the_kind_exits_two(name, oracle, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(bad_resource_documents()[name])
    for command in (["simulate"], ["verify", "--oracle", oracle]):
        code, out, err = run(capsys, command[0], "--circuit", str(path), *command[1:])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "dim" in err


GCZ4 = ("compile", "--gate", "gcz", "--n", "4", "--nodes", "2")


def test_a_conditioned_local_gate_exits_two(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(conditioned_document("LocalGate"))
    for command in (["simulate"], ["verify", "--oracle", "gcz"]):
        code, out, err = run(capsys, command[0], "--circuit", str(path), *command[1:])
        assert code == 2 and out == ""
        assert "error: instruction 3: a LocalGate takes no condition" in err


def test_a_reused_parser_answers_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    import distgates.cli as cli

    path = tmp_path / "c.json"
    run(capsys, *GCZ4, "--out", str(path))
    verify = ("verify", "--circuit", str(path), "--oracle", "gcz")
    calls = [verify, (*verify, "--inputs", "random:2"),
             ("compile", "--gate", "gcz", "--n", "6", "--nodes", "3")]
    explicit = [(*verify, "--inputs", "basis", "--seed", "7",
                 "--threshold", repr(DEFAULT_THRESHOLD)),
                (*verify, "--inputs", "random:2", "--seed", "7"),
                (*calls[2], "--epsilon", "1.0")]
    with pytest.raises(SystemExit) as exc:  # a refused call leaves nothing behind
        main(["compile", "--gate", "gcz", "--nodes", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(capsys, *argv))
    assert reused == fresh == [run(capsys, *argv) for argv in explicit]
    assert [code for code, _, _ in reused] == [0, 0, 0]


@pytest.mark.parametrize("extra,message", [
    (("--qudit", "--strategy", "pairwise"), "--strategy pairwise does not apply"),
    (("--theta", "0.3"), "--gate gcz takes none")])
def test_compile_rejects_flags_it_would_ignore(extra, message, capsys):
    code, out, err = run(capsys, *GCZ4, *extra)
    assert code == 2 and out == ""
    assert message in err


def test_verify_rejects_theta_for_other_oracles(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(capsys, *GCZ4, "--out", str(path))
    code, out, err = run(capsys, "verify", "--circuit", str(path), "--oracle", "gcz",
                         "--theta", "0.3")
    assert code == 2 and out == ""
    assert "--oracle gcz takes none" in err


@pytest.mark.parametrize("argv,same_as", [
    ((*GCZ4, "--qudit", "--strategy", "fanout"), (*GCZ4, "--qudit")),
    (GCZ4, (*GCZ4, "--strategy", "fanout")),
    (("compile", "--gate", "gms", "--n", "3", "--nodes", "3"),
     ("compile", "--gate", "gms", "--n", "3", "--nodes", "3", "--theta", "pi/2",
      "--strategy", "fanout"))])
def test_compile_defaults_when_flags_are_absent(argv, same_as, capsys):
    assert run(capsys, *argv) == run(capsys, *same_as)


@pytest.mark.parametrize("value", ["nan", "0", "-0.5", "1.5", "inf", "high"])
def test_verify_threshold_must_be_in_the_unit_interval(value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--circuit", "c.json", "--oracle", "gcz", "--threshold", value])
    assert exc.value.code == 2


def test_verify_threshold_default_and_upper_end(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(capsys, *GCZ4, "--out", str(path))
    _, out, _ = run(capsys, "verify", "--circuit", str(path), "--oracle", "gcz")
    assert json.loads(out)["threshold"] == DEFAULT_THRESHOLD
    code, out, _ = run(capsys, "verify", "--circuit", str(path), "--oracle", "gcz",
                       "--threshold", "1")
    assert json.loads(out)["threshold"] == 1.0 and code in (0, 1)


@pytest.mark.parametrize("command", [GCZ4, ("estimate", "--sweep", "4:8", "--nodes", "2")])
@pytest.mark.parametrize("value", ["nan", "-3", "inf", "pi/0", "cheap"])
def test_epsilon_must_be_a_finite_nonnegative_cost(command, value):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--epsilon", value])
    assert exc.value.code == 2


def test_compile_and_estimate_parse_epsilon_alike(capsys):
    code, _, err = run(capsys, "compile", "--gate", "gcz", "--n", "6", "--nodes", "3",
                       "--epsilon", "pi/4")
    assert code == 0 and "2 ep, 2 ghz(3); time = 3.5708 t_ep" in err
    code, out, _ = run(capsys, "estimate", "--sweep", "6:6", "--nodes", "3", "--epsilon", "pi/4")
    row = next(csv.DictReader(io.StringIO(out)))
    assert code == 0 and float(row["time_fanout"]) == pytest.approx(3.5708, abs=1e-4)


@pytest.mark.parametrize("n", [20, 40])
def test_inputs_over_the_register_cap_exit_two_before_any_allocation(tmp_path, capsys, n):
    # 2^20 amplitudes, or 2^40, which numpy could not even allocate
    import tracemalloc

    labels = [f"q{i}" for i in range(n)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"inputs": labels, "outputs": labels, "instructions": [],
                                "layout": {"nodes": ["A"],
                                           "placement": {q: "A" for q in labels}}}))
    for argv in (("verify", "--circuit", str(path), "--oracle", "gcz"),
                 ("verify", "--circuit", str(path), "--oracle", "gcz", "--inputs", "random:1"),
                 ("simulate", "--circuit", str(path))):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "", argv
        assert f"register dimension {2 ** n} exceeds cap" in err, argv
        assert peak < 2 ** 20, argv


def _empty_circuit(path, n):
    labels = [f"q{i}" for i in range(n)]
    path.write_text(json.dumps({"inputs": labels, "outputs": labels, "instructions": [],
                                "layout": {"nodes": ["A"],
                                           "placement": {q: "A" for q in labels}}}))


def test_basis_inputs_over_the_amplitude_budget_exit_two(tmp_path, capsys, monkeypatch):
    # 13 inputs are under the register cap, but their 2^13 basis states of 2^13 amplitudes
    # each would take 1 GiB before verify stacks a copy and the oracle makes another
    import importlib
    import tracemalloc

    from distgates.simulate import MAX_INPUT_AMPLITUDES
    path = tmp_path / "wide.json"
    _empty_circuit(path, 13)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--circuit", str(path), "--oracle", "gcz")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert f"limit of {MAX_INPUT_AMPLITUDES} amplitudes" in err and "random:N" in err
    assert peak < 2 ** 20
    # the bound is exact: 12 qubits (4096 states of 4096 amplitudes) are in, and here,
    # under a limit of 16^2, 4 qubits are in and 5 are out
    assert 4096 ** 2 <= MAX_INPUT_AMPLITUDES
    monkeypatch.setattr(importlib.import_module("distgates.verify"),
                        "MAX_INPUT_AMPLITUDES", 16 ** 2)
    for n, code in ((4, 0), (5, 2)):
        _empty_circuit(path, n)
        assert main(["verify", "--circuit", str(path), "--oracle", "gcz"]) == code, n
    assert "32 basis inputs" in capsys.readouterr().err


@pytest.mark.parametrize("gate,builder", [("gcz", "gcz"), ("gms", "gms"),
                                          ("gcz --qudit", "qudit_gcz")])
def test_compile_over_the_pair_budget_exits_two_before_building(capsys, monkeypatch, gate,
                                                                 builder):
    from distgates import catalog
    from distgates.simulate import MAX_COMPILE_PAIRS
    built = []
    small = catalog.gcz(2, 2, "fanout")

    def stub(n, *args):
        built.append(n)
        return small

    monkeypatch.setattr(catalog, builder, stub)
    flags = ["--gate", *gate.split()]
    code, out, err = run(capsys, "compile", *flags, "--n", "258", "--nodes", "2")
    assert code == 2 and out == "" and built == []
    assert f"limit of {MAX_COMPILE_PAIRS}" in err
    # 256 qubits have 32,640 pairs, under the limit of 2^15; 257 have 32,896
    code, _, err = run(capsys, "compile", *flags, "--n", "257", "--nodes", "1")
    assert code == 2 and built == [] and "32896 qubit pairs" in err
    code, out, _ = run(capsys, "compile", *flags, "--n", "256", "--nodes", "2")
    assert code == 0 and built == [256] and deserialize(out).inputs == small.inputs
