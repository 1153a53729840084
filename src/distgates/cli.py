"""Command-line front end: compile, simulate, verify, estimate, identities.

Exit codes: 0 success, 1 verification failure, 2 usage error. Angles accept
exact forms like "pi/2" and "-2pi/3" as well as decimals. The register-size
cap can be raised with the DISTGATES_MAX_DIM environment variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .circuit import (CircuitParseError, DistCircuit, NodeLayout, deserialize,
                      parse_angle, serialize, tally, validate)
from .qubit_protocols import GmsSpec, Partition, build_dgcz, build_dgms
from .qudit_protocols import QuditEncoding, build_qudit_gcz
from .resources import GczConfig, CostReport, fanout_gain, gcz_costs, gms_costs
from .simulate import enumerate_branches, infer_dims
from .statevec import MixedRegister
from .verify import OracleSpec, basis_inputs, random_inputs, identity_checks, verify


class UsageError(Exception):
    pass


def block_layout(n: int, nodes: int, labels=None) -> tuple[NodeLayout, tuple[str, ...]]:
    """First k qubits on node1, next k on node2, ... (contiguous blocks)."""
    if n % nodes:
        raise UsageError(f"{n} qubits do not divide evenly over {nodes} nodes")
    k = n // nodes
    labels = tuple(labels) if labels else tuple(f"q{i + 1}" for i in range(n))
    node_names = tuple(f"node{i + 1}" for i in range(nodes))
    placement = {labels[i]: node_names[i // k] for i in range(n)}
    return NodeLayout(node_names, placement), labels


def _build_from_flags(args) -> DistCircuit:
    layout, labels = block_layout(args.n, args.nodes)
    if args.gate == "gms":
        if args.qudit:
            raise UsageError("qudit compression is defined for GCZ, not generic GMS")
        theta = parse_angle(args.theta)
        return build_dgms(GmsSpec(labels, theta), layout, args.strategy)
    if args.qudit:
        k = args.n // args.nodes
        if k != 2:
            raise UsageError("qudit compression packs 2 qubits per dimension-4 qudit; "
                             "need exactly 2 qubits per node")
        pairs = tuple((labels[2 * i], labels[2 * i + 1]) for i in range(args.n // 2))
        qudits = tuple(f"Q{i + 1}" for i in range(args.n // 2))
        qudit_layout = NodeLayout(
            layout.nodes,
            {**layout.placement, **{qudits[i]: layout.nodes[i] for i in range(len(qudits))}})
        enc = QuditEncoding(pairs, qudits)
        return build_qudit_gcz(args.n, Partition(qudit_layout), enc)
    return build_dgcz(labels, Partition(layout), args.strategy)


def _report_violations(circuit: DistCircuit) -> bool:
    """Print each validation problem to stderr; True when there was any."""
    problems = validate(circuit)
    for p in problems:
        print(str(p), file=sys.stderr)
    return bool(problems)


def cmd_compile(args) -> int:
    circuit = _build_from_flags(args)
    if _report_violations(circuit):  # builders must emit clean circuits; surface any defect loudly
        return 2
    text = serialize(circuit)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(tally(circuit, epsilon=args.epsilon).summary(), file=sys.stderr)
    return 0


def _load_circuit(path: str) -> DistCircuit:
    with open(path) as fh:
        return deserialize(fh.read())


def cmd_simulate(args) -> int:
    circuit = _load_circuit(args.circuit)
    if _report_violations(circuit):
        return 2
    dims = infer_dims(circuit)
    in_dims = tuple(dims[l] for l in circuit.inputs)
    if args.input:
        digits = [int(c) for c in args.input]
        state = MixedRegister.basis(circuit.inputs, in_dims, digits)
    else:
        state = MixedRegister.basis(circuit.inputs, in_dims, (0,) * len(in_dims))
    branches = enumerate_branches(circuit, state, merge_equal=args.merge)
    for br in branches:
        record = " ".join(f"{s}={v}" for s, v in br.outcomes) or "(no measurements)"
        shown = np.flatnonzero(np.abs(br.state.amps) > 1e-9)
        dims = br.state.dims
        kets = zip(*np.unravel_index(shown, dims)) if dims else [()] * len(shown)
        terms = [f"({amp.real:+.4f}{amp.imag:+.4f}j)|{''.join(map(str, ket))}>"
                 for amp, ket in zip(br.state.amps[shown], kets)]
        print(f"p={br.probability:.6f} weight={br.weight} {record}: {' + '.join(terms)}")
    total = sum(br.probability for br in branches)
    print(f"branches={sum(br.weight for br in branches)} total_probability={total:.12f}")
    return 0


def cmd_verify(args) -> int:
    circuit = _load_circuit(args.circuit)
    if _report_violations(circuit):
        return 2
    theta = parse_angle(args.theta) if args.theta else None
    spec = OracleSpec(kind=args.oracle, theta=theta)
    if args.inputs == "basis":
        inputs = basis_inputs(circuit)
    elif args.inputs.startswith("random"):
        count = int(args.inputs.split(":", 1)[1]) if ":" in args.inputs else 10
        inputs = random_inputs(circuit, count, seed=args.seed)
    else:
        with open(args.inputs) as fh:
            doc = json.load(fh)
        dims = infer_dims(circuit)
        in_dims = tuple(dims[l] for l in circuit.inputs)
        inputs = [MixedRegister(in_dims, np.array([complex(re, im) for re, im in amps]),
                                circuit.inputs)
                  for amps in doc]
    report = verify(circuit, spec, inputs, threshold=args.threshold,
                    merge=not args.no_merge, seed=args.seed)
    print(report.to_json())
    return 0 if report.passed else 1


def cmd_estimate(args) -> int:
    try:
        parts = [int(p) for p in args.sweep.split(":")]
    except ValueError:
        raise UsageError(f"sweep must be lo:hi[:step], got {args.sweep!r}") from None
    if len(parts) == 1:
        lo = hi = parts[0]
        step = 1
    elif len(parts) == 2:
        (lo, hi), step = parts, 1
    elif len(parts) == 3:
        lo, hi, step = parts
    else:
        raise UsageError(f"sweep must be lo:hi[:step], got {args.sweep!r}")
    if hi < lo or step < 1:
        raise UsageError(f"empty sweep range {args.sweep!r}")
    eps = parse_angle(args.epsilon) if "pi" in args.epsilon else float(args.epsilon)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "D", "k", "m", "epsilon",
                     "pairwise_ep", "fanout_ghz", "fanout_ep", "qudit_ghz", "qudit_ep",
                     "gms_pairwise_ep", "gms_conditional_ep", "gms_fanout_ghz",
                     "time_pairwise", "time_fanout", "fanout_gain"])
    for n in range(lo, hi + 1, step):
        if n % args.nodes:
            continue
        k = n // args.nodes
        m = args.qudit_m or k
        if k % m:
            continue
        cfg = GczConfig(n=n, D=args.nodes, k=k, m=m, epsilon=eps)
        r = gcz_costs(cfg)
        gms_fan = gms_costs(n, "fanout", eps) if n >= 2 else CostReport()
        writer.writerow([n, args.nodes, k, m, eps,
                         r.pairwise_ep, r.fanout_ghz, r.fanout_ep, r.qudit_ghz, r.qudit_ep,
                         gms_costs(n, "pairwise").pairwise_ep,
                         gms_costs(n, "pairwise_conditional").pairwise_ep,
                         gms_fan.fanout_ghz,
                         r.time_pairwise, r.time_fanout, fanout_gain(n, eps)])
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_identities(args) -> int:
    theta = parse_angle(args.theta)
    failed = False
    for name, dev in identity_checks(theta):
        ok = dev <= 1e-12
        failed |= not ok
        print(f"{'pass' if ok else 'FAIL'}  {dev:10.3e}  {name}")
    return 1 if failed else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distgates",
        description="Compile, simulate, verify, and cost global entangling gates "
                    "over distributed nodes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="build a distributed GMS/GCZ circuit")
    p.add_argument("--gate", choices=["gms", "gcz"], required=True)
    p.add_argument("--n", type=int, required=True, help="number of qubits")
    p.add_argument("--theta", default="pi/2", help="GMS angle (e.g. pi/2, 0.7)")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--strategy", default="fanout",
                   choices=["pairwise", "pairwise_conditional", "fanout", "teleport_all"])
    p.add_argument("--qudit", action="store_true",
                   help="compress qubit pairs into dimension-4 qudits (GCZ only)")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--out", help="write circuit JSON here (default stdout)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="enumerate measurement branches on one input")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", help="basis digits, e.g. 1100 (default all zero)")
    p.add_argument("--merge", action="store_true", help="merge identical branches")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="branch-exhaustive check against an ideal gate")
    p.add_argument("--circuit", required=True)
    p.add_argument("--oracle", required=True,
                   choices=["gms", "gcz", "cnot", "csum4", "csum4_multi",
                            "cz4", "cz4_sq", "qudit_gcz"])
    p.add_argument("--theta", help="GMS oracle angle")
    p.add_argument("--inputs", default="basis",
                   help="'basis', 'random:N', or a JSON file of amplitude lists")
    p.add_argument("--threshold", type=float, default=1 - 1e-9)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--no-merge", action="store_true",
                   help="disable branch merging (exact branch records)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("estimate", help="CSV sweep of resource formulas")
    p.add_argument("--sweep", required=True, help="n range as lo:hi[:step]")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--qudit-m", type=int, default=0,
                   help="qubits per qudit (default: all of a node's qubits)")
    p.add_argument("--epsilon", default="1.0")
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("identities", help="check the gate-algebra identity suite")
    p.add_argument("--theta", default="pi/3")
    p.set_defaults(func=cmd_identities)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CircuitParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
