"""The benchmark's workloads: which circuits a pass compiles and verifies, and
the verdict each one must reach.

Every expected verdict comes from how the circuit was made, never from the
verifier: builder output must pass, a circuit with a classically conditioned
correction dropped must fail, and CLI exit codes must be 0 (compile, verify of
a correct circuit) or 1 (verify of a corrupted one).

All distgates functions are looked up through their modules at call time, so
that the per-layer tracer (``layers.py``) sees every call the pass makes.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import distgates.cli as cli
import distgates.qubit_protocols as qp
import distgates.qudit_protocols as qdp
from distgates.circuit import DistCircuit, GateRef, NodeLayout
from distgates.qubit_protocols import GmsSpec, Partition
from distgates.qudit_protocols import QuditEncoding
from distgates.simulate import infer_dims
from distgates.statevec import MixedRegister

# ``distgates.verify`` the attribute is the function, which shadows the module.
vmod = sys.modules["distgates.verify"]

PASS_AT = 1 - 1e-9      # a correct circuit's worst branch fidelity (criterion 3)
CAUGHT_BELOW = 1 - 1e-3  # a corrupted circuit's worst branch fidelity (criterion 6)
SUITE_RANDOM_INPUTS = 20
CORRUPTED_BASIS_INPUTS = 1
CORRUPTED_RANDOM_INPUTS = 1
CLI_RANDOM_INPUTS = 16
COMPILE_SAMPLES = 7

X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)


@dataclass
class Verdict:
    """One verdict: how long it took and whether it matched the known answer."""

    name: str
    start: float  # perf_counter at the call
    seconds: float
    ok: bool
    branches: int = 0
    detail: str = ""
    scaled: bool = True  # False: BLAS-bound, timed raw (see hostspeed.py)


@dataclass
class PassResult:
    start: float
    end: float
    cpu_s: float  # CPU time of host-speed samples taken during the pass left out
    compiles: list[tuple[float, float]]  # (start, seconds) of each compile sample
    verdicts: list[Verdict] = field(default_factory=list)


# ---------------------------------------------------------------------------
# the 35 circuits of the acceptance protocol suite (criterion 3)
# ---------------------------------------------------------------------------

def _one_per_node(n: int):
    labels = tuple(f"q{i + 1}" for i in range(n))
    nodes = tuple(f"node{i + 1}" for i in range(n))
    return NodeLayout(nodes, dict(zip(labels, nodes))), labels


def _qudit_gcz(n_qubits: int):
    layout, labels = cli.block_layout(n_qubits, n_qubits // 2)
    qudits = tuple(f"Q{i + 1}" for i in range(n_qubits // 2))
    placement = dict(layout.placement)
    placement.update({q: layout.nodes[i] for i, q in enumerate(qudits)})
    pairs = tuple((labels[2 * i], labels[2 * i + 1]) for i in range(n_qubits // 2))
    partition = Partition(NodeLayout(layout.nodes, placement))
    return qdp.build_qudit_gcz(n_qubits, partition, QuditEncoding(pairs, qudits))


def _fanout(local_targets: int, remote_nodes: int):
    nodes = tuple(f"N{i}" for i in range(remote_nodes + 1))
    placement = {"c": "N0"}
    targets = []
    for i in range(local_targets):
        placement[f"s{i}"] = "N0"
        targets.append((f"s{i}", GateRef("X")))
    for i in range(remote_nodes):
        placement[f"t{i}"] = f"N{i + 1}"
        targets.append((f"t{i}", GateRef("X")))
    circuit = qp.build_fanout("c", targets, NodeLayout(nodes, placement))
    return circuit, vmod.oracle_multitarget_cu([X_MAT] * len(targets))


def suite_builders():
    """(name, build) for every protocol the correctness gate covers.

    ``build()`` returns ``(circuit, oracle)``; the oracle is an OracleSpec, or
    a Unitary for the fan-out cases, exactly as the acceptance suite has it.
    """
    spec = vmod.OracleSpec
    lay2 = NodeLayout(("A", "B"), {"c": "A", "t": "B"})
    cases = [("dCNOT", lambda: (qp.build_dcontrol_u("c", "t", GateRef("X"), lay2),
                                spec("cnot")))]
    for remotes in (2, 3):
        cases.append((f"fanout local+{remotes} remote", lambda r=remotes: _fanout(1, r)))
        cases.append((f"fanout {remotes} remote", lambda r=remotes: _fanout(0, r)))

    for theta_name, theta in (("pi/2", math.pi / 2), ("pi/3", math.pi / 3)):
        lay, labels = _one_per_node(2)
        for strat, tag in (("pairwise", "two dCNOTs"), ("pairwise_conditional", "conditional")):
            cases.append((f"dLMS {tag} theta={theta_name}",
                          lambda s=strat, t=theta, l=lay, lb=labels:
                          (qp.build_dgms(GmsSpec(lb, t), l, s), spec("gms", theta=t))))
        for n in (3, 4):
            lay, labels = _one_per_node(n)
            for strat in ("pairwise", "pairwise_conditional", "fanout"):
                cases.append((f"dGMS n={n} {strat} theta={theta_name}",
                              lambda s=strat, t=theta, l=lay, lb=labels:
                              (qp.build_dgms(GmsSpec(lb, t), l, s), spec("gms", theta=t))))

    for n, nodes, strategies in ((4, 4, ("pairwise", "fanout")),
                                 (6, 2, ("pairwise", "fanout", "teleport_all")),
                                 (6, 3, ("pairwise", "fanout"))):
        lay, labels = cli.block_layout(n, nodes)
        for strat in strategies:
            cases.append((f"dGCZ n={n}/{nodes} nodes {strat}",
                          lambda s=strat, l=lay, lb=labels:
                          (qp.build_dgcz(lb, Partition(l), s), spec("gcz"))))

    qlay2 = NodeLayout(("n1", "n2"), {"Q1": "n1", "Q2": "n2"})
    qlay3 = NodeLayout(("n1", "n2", "n3"), {"Q1": "n1", "Q2": "n2", "Q3": "n3"})
    cases += [
        ("dCSUM4", lambda: (qdp.build_dcsum4("Q1", "Q2", qlay2), spec("csum4"))),
        ("dCZ4", lambda: (qdp.build_dcz4_pow("Q1", "Q2", 1, qlay2), spec("cz4"))),
        ("d(CZ4)^2", lambda: (qdp.build_dcz4_pow("Q1", "Q2", 2, qlay2), spec("cz4_sq"))),
        ("dCSUM''4 two targets",
         lambda: (qdp.build_dcsum4_multitarget("Q1", ("Q2", "Q3"), qlay3, "csum"),
                  spec("csum4_multi"))),
        ("d(CZ4)^2 fan-out two targets",
         lambda: (qdp.build_dcsum4_multitarget("Q1", ("Q2", "Q3"), qlay3, "cz4_sq"),
                  spec("cz4_sq"))),
    ]
    for n_qubits in (4, 6):
        cases.append((f"qudit GCZ n={n_qubits}",
                      lambda n=n_qubits: (_qudit_gcz(n), spec("qudit_gcz"))))
    return cases


def random_states(like: MixedRegister, count: int, rng) -> list[MixedRegister]:
    """Seeded Gaussian-normalized states over the same subsystems as ``like``."""
    n = like.amps.size
    states = []
    for _ in range(count):
        vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        states.append(MixedRegister(like.dims, vec / np.linalg.norm(vec), like.labels))
    return states


def drop_instruction(circuit: DistCircuit, index: int) -> DistCircuit:
    kept = circuit.instructions[:index] + circuit.instructions[index + 1:]
    return DistCircuit(circuit.layout, kept, circuit.inputs, circuit.outputs)


def cond_indices(circuit: DistCircuit) -> list[int]:
    return [i for i, ins in enumerate(circuit.instructions) if ins.kind == "CondGate"]


# ---------------------------------------------------------------------------
# CLI calls, in process
# ---------------------------------------------------------------------------

def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run ``distgates.cli.main`` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_verify(name: str, path: str, oracle_args: list[str], inputs: str, seed: int,
                expect_code: int) -> Verdict:
    argv = ["verify", "--circuit", path, *oracle_args, "--inputs", inputs,
            "--seed", str(seed)]
    start = time.perf_counter()
    try:
        code, out = cli_call(argv)
    except Exception as exc:  # a crash is a wrong verdict, not a benchmark abort
        return Verdict(name, start, time.perf_counter() - start, False, 0, f"raised {exc!r}")
    seconds = time.perf_counter() - start
    report = json.loads(out) if out.strip().startswith("{") else {}
    fidelity = float(report.get("min_fidelity", math.nan))
    # the same margins as a library verdict, on top of the exit code
    caught = fidelity >= PASS_AT if expect_code == 0 else fidelity < CAUGHT_BELOW
    ok = code == expect_code and report.get("passed") == (expect_code == 0) and caught
    return Verdict(name, start, seconds, ok, int(report.get("branches", 0)),
                   f"exit {code}, expected {expect_code}; min fidelity {fidelity:.12f}")


def not_compiled(name: str) -> Verdict:
    return Verdict(name, time.perf_counter(), 0.0, False, 0, "compile exit code was not 0")


def _cli_compile(path: str, flags: list[str]) -> bool:
    code, _ = cli_call(["compile", *flags, "--out", path])
    return code == 0


# The CLI known-answer probe every library workload ends with: the smallest
# GCZ shape compiled and verified through the command line, so that exit codes
# are checked on every workload (and the CLI and JSON layers always show up in
# the traced run).
PROBE_FLAGS = ["--gate", "gcz", "--n", "4", "--nodes", "4", "--strategy", "fanout"]
PROBE_KEY = 2 ** 20  # rng key of the probe, distinct from every circuit index


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One pass compiles every circuit of the workload, then verifies each.

    ``compile`` is timed as the pass's compile step; ``verdicts`` builds the
    inputs and times each verify call on its own.
    """

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.speed = None  # a hostspeed.HostSpeed sampled between verdicts, if set

    def tick(self):
        if self.speed is not None:
            self.speed.tick()

    def rng(self, *key: int):
        return np.random.default_rng([self.seed, *key])

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self):
        """What a user builds before the first verdict (timed as set-up)."""
        return self.compile()

    def compile(self):
        raise NotImplementedError

    def verdicts(self, jobs) -> list[Verdict]:
        raise NotImplementedError

    def compile_samples(self) -> list[tuple[float, float]]:
        """(start, seconds) of COMPILE_SAMPLES - 1 compiles, taken before a pass.

        A compile takes 20-60 ms, too short for the one inside a pass to be
        steady alone: compile_ms is the median of these and that one.
        """
        gc.collect()  # every pass starts from the same heap, not the last pass's garbage
        samples = []
        for _ in range(COMPILE_SAMPLES - 1):
            self.tick()
            start = time.perf_counter()
            self.compile()
            samples.append((start, time.perf_counter() - start))
        return samples

    def run_pass(self) -> PassResult:
        self.tick()
        spent = self.speed.spent_cpu if self.speed else 0.0
        start, cpu0 = time.perf_counter(), time.process_time()
        jobs = self.compile()
        compiled = (start, time.perf_counter() - start)
        verdicts = self.verdicts(jobs)
        cpu = time.process_time() - cpu0 - ((self.speed.spent_cpu - spent) if self.speed else 0.0)
        return PassResult(start, time.perf_counter(), cpu, [compiled], verdicts)


def library_verdict(name: str, circuit, oracle, inputs, expect_pass: bool) -> Verdict:
    start = time.perf_counter()
    try:
        report = vmod.verify(circuit, oracle, inputs)
    except Exception as exc:  # a crash is a wrong verdict, not a benchmark abort
        return Verdict(name, start, time.perf_counter() - start, False, 0, f"raised {exc!r}")
    seconds = time.perf_counter() - start
    if expect_pass:
        ok = report.min_fidelity >= PASS_AT
    else:
        ok = report.min_fidelity < CAUGHT_BELOW
    return Verdict(name, start, seconds, ok, report.branches,
                   f"min fidelity {report.min_fidelity:.12f}")


class Suite(Workload):
    """The acceptance protocol suite: every circuit must pass on every input.

    Each pass also compiles the smallest GCZ shape through the CLI and
    verifies it there, so CLI exit codes are checked on this workload too.
    """

    probe_expect_code = 0
    probe_inputs = "basis"

    def __init__(self, seed: int, workdir: str, builders=None):
        super().__init__(seed, workdir)
        self.builders = builders if builders is not None else suite_builders()

    def circuits(self):
        """(name, circuit, oracle, expect_pass) for every circuit of a pass."""
        for name, build in self.builders:
            circuit, oracle = build()
            yield name, circuit, oracle, True

    def inputs(self, index: int, circuit) -> list[MixedRegister]:
        basis = vmod.basis_inputs(circuit)
        return basis + random_states(basis[0], SUITE_RANDOM_INPUTS, self.rng(index))

    def prepare(self):
        jobs = self.compile()
        return jobs, [self.inputs(i, job[1]) for i, job in enumerate(jobs[0])]

    def compile(self):
        probe_ok = _cli_compile(self.path("probe.json"), PROBE_FLAGS)
        return list(self.circuits()), probe_ok

    def verdicts(self, jobs) -> list[Verdict]:
        circuits, probe_ok = jobs
        verdicts = []
        for i, (name, circuit, oracle, expect) in enumerate(circuits):
            inputs = self.inputs(i, circuit)
            self.tick()
            verdicts.append(library_verdict(name, circuit, oracle, inputs, expect))
        if not probe_ok:
            verdicts.append(not_compiled("cli probe"))
        else:
            path = self.probe_circuit()
            self.tick()
            verdicts.append(_cli_verify("cli probe", path, ["--oracle", "gcz"],
                                        self.probe_inputs, self.seed, self.probe_expect_code))
        return verdicts

    def probe_circuit(self) -> str:
        return self.path("probe.json")


class Corrupted(Suite):
    """Every suite circuit with each one of its CondGates dropped in turn.

    All variants run in every pass, each on one seeded basis input and one
    seeded random input, and every one must fail. Sweeping every variant,
    rather than one seeded variant per circuit, keeps the work of a pass the
    same for every seed: one variant's cost varies up to 7x with which
    correction was dropped. The CLI probe drops a seeded correction from the
    compiled JSON and must exit with code 1.
    """

    probe_expect_code = 1
    probe_inputs = "random:4"  # a dropped Z correction is a global phase on basis inputs

    def circuits(self):
        for name, build in self.builders:
            circuit, oracle = build()
            for index in cond_indices(circuit):
                yield f"{name} -#{index}", drop_instruction(circuit, index), oracle, False

    def inputs(self, index: int, circuit) -> list[MixedRegister]:
        dims = infer_dims(circuit)
        in_dims = tuple(dims[label] for label in circuit.inputs)
        rng = self.rng(index)
        basis = [MixedRegister.basis(circuit.inputs, in_dims,
                                     [int(rng.integers(d)) for d in in_dims])
                 for _ in range(CORRUPTED_BASIS_INPUTS)]
        return basis + random_states(basis[0], CORRUPTED_RANDOM_INPUTS, rng)

    def probe_circuit(self) -> str:
        with open(self.path("probe.json")) as fh:
            doc = json.load(fh)
        conds = [i for i, ins in enumerate(doc["instructions"]) if ins["kind"] == "CondGate"]
        del doc["instructions"][conds[int(self.rng(PROBE_KEY).integers(len(conds)))]]
        path = self.path("probe_corrupted.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path


# (name, compile flags, verify oracle flags): the widest shapes under the
# default 2^14 register cap.
CLI_SHAPES = [
    ("gcz n=12/6 pairwise",
     ["--gate", "gcz", "--n", "12", "--nodes", "6", "--strategy", "pairwise"],
     ["--oracle", "gcz"]),
    ("gcz n=10/5 pairwise",
     ["--gate", "gcz", "--n", "10", "--nodes", "5", "--strategy", "pairwise"],
     ["--oracle", "gcz"]),
    ("gcz n=9/3 fanout",
     ["--gate", "gcz", "--n", "9", "--nodes", "3", "--strategy", "fanout"],
     ["--oracle", "gcz"]),
    ("gms n=7 fanout theta=pi/3",
     ["--gate", "gms", "--n", "7", "--nodes", "7", "--theta", "pi/3",
      "--strategy", "fanout"],
     ["--oracle", "gms", "--theta", "pi/3"]),
    ("qudit gcz n=6/3",
     ["--gate", "gcz", "--n", "6", "--nodes", "3", "--qudit"],
     ["--oracle", "qudit_gcz"]),
]


# A verify whose oracle spans 2^12 or more dimensions spends most of its time
# checking the dense oracle, a two-threaded 4096^3 zgemm. The single-threaded
# host-speed reference does not track that: across seeds such a verdict
# spreads 0.03-0.06 raw and 0.14-0.29 scaled. So these verdicts are timed raw.
# The choice follows the shape, not an observation of the run: a verdict's
# CPU/wall ratio does not single them out (OpenBLAS's second thread spins on
# small matmuls too, so every cli_wide verdict reads 1.7-2.0). A change to
# oracle construction must re-check this constant against new raw and scaled
# spreads of the GCZ n=12 verdict (see README.md).
BLAS_BOUND_QUBITS = 12


class CliWide(Workload):
    """CLI ``compile --out`` then ``verify --inputs random:K`` on the widest shapes."""

    def __init__(self, seed: int, workdir: str, shapes=None):
        super().__init__(seed, workdir)
        self.shapes = shapes if shapes is not None else CLI_SHAPES

    def prepare(self):
        return None  # the CLI builds circuits and inputs itself

    def compile(self):
        jobs = []
        for i, (name, flags, oracle_args) in enumerate(self.shapes):
            path = self.path(f"shape{i}.json")
            jobs.append((name, path, oracle_args, _cli_compile(path, flags)))
        return jobs

    def verdicts(self, jobs) -> list[Verdict]:
        verdicts = []
        for i, (name, path, oracle_args, compiled) in enumerate(jobs):
            if not compiled:
                verdicts.append(not_compiled(name))
                continue
            seed = int(self.rng(i).integers(2 ** 31))
            self.tick()
            verdict = _cli_verify(name, path, oracle_args, f"random:{CLI_RANDOM_INPUTS}",
                                  seed, expect_code=0)
            verdict.scaled = self.oracle_qubits(i) < BLAS_BOUND_QUBITS
            verdicts.append(verdict)
        return verdicts

    def oracle_qubits(self, index: int) -> int:
        flags = self.shapes[index][1]
        return int(flags[flags.index("--n") + 1])


WORKLOADS = {"suite": Suite, "corrupted": Corrupted, "cli_wide": CliWide}
