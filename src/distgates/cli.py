"""Command-line front end: compile, simulate, verify, estimate, identities.

Exit codes: 0 success, 1 verification failure, 2 usage error. Angles accept
exact forms like "pi/2" and "-2pi/3" as well as decimals. The register-size
cap can be raised with the DISTGATES_MAX_DIM environment variable.

The argument parser is built once per process, by the first ``main`` call (not
at import), and reused by every later call.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import catalog
from .catalog import block_layout  # noqa: F401  (callers still import cli.block_layout)
from .circuit import (CircuitParseError, DistCircuit, deserialize, parse_angle, serialize,
                      tally, validate)
from .resources import GczConfig, fanout_gain, gcz_costs, gms_costs
from .simulate import MAX_COMPILE_PAIRS, MAX_SWEEP_QUBITS, enumerate_branches, infer_dims
from .statevec import MixedRegister
from .verify import (DEFAULT_THRESHOLD, OracleSpec, basis_inputs, identity_checks,
                     random_inputs, verify)


class UsageError(Exception):
    pass


def _epsilon(text: str) -> float:
    """An --epsilon value: a GHZ state's cost in t_ep, finite and >= 0 ("pi/4" allowed)."""
    try:
        eps = parse_angle(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    if eps < 0:
        raise argparse.ArgumentTypeError(f"must be a finite cost >= 0, got {text!r}")
    return eps


def _threshold(text: str) -> float:
    """A --threshold value: a fidelity in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value <= 1:  # NaN fails this too
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1], got {text!r}")
    return value


def _build_from_flags(args) -> DistCircuit:
    """The circuit the compile flags ask for; a flag the build would ignore is an error.

    A shape of more than ``MAX_COMPILE_PAIRS`` qubit pairs is refused before anything is built.
    """
    pairs = math.comb(max(args.n, 0), 2)
    if pairs > MAX_COMPILE_PAIRS:
        raise UsageError(f"--n {args.n}: {pairs} qubit pairs exceed the limit of "
                         f"{MAX_COMPILE_PAIRS} (n <= 256)")
    if args.gate == "gms":
        if args.qudit:
            raise UsageError("qudit compression is defined for GCZ, not generic GMS")
        theta = parse_angle("pi/2" if args.theta is None else args.theta)
        return catalog.gms(args.n, args.nodes, theta, args.strategy or "fanout")
    if args.theta is not None:
        raise UsageError("--theta is the GMS angle; --gate gcz takes none")
    if args.qudit:
        if args.strategy not in (None, "fanout"):
            raise UsageError(f"--qudit builds the qudit fan-out; "
                             f"--strategy {args.strategy} does not apply")
        return catalog.qudit_gcz(args.n, args.nodes)
    return catalog.gcz(args.n, args.nodes, args.strategy or "fanout")


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
    digits = args.input or "0" * len(in_dims)
    if len(digits) != len(in_dims) or not all(
            "0" <= c <= "9" and int(c) < d for c, d in zip(digits, in_dims)):
        raise UsageError(f"--input {digits!r}: expected {len(in_dims)} basis digits, one per "
                         f"circuit input, each below its dimension {list(in_dims)}, "
                         f"e.g. {'0' * len(in_dims)}")
    state = MixedRegister.basis(circuit.inputs, in_dims, [int(c) for c in digits])
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
    if args.theta is not None and args.oracle != "gms":
        raise UsageError(f"--theta is the GMS angle; --oracle {args.oracle} takes none")
    circuit = _load_circuit(args.circuit)
    if _report_violations(circuit):
        return 2
    theta = parse_angle(args.theta) if args.theta else None
    spec = OracleSpec(kind=args.oracle, theta=theta)
    if args.inputs == "basis":
        inputs = basis_inputs(circuit)
    elif args.inputs == "random" or args.inputs.startswith("random:"):
        count = int(args.inputs.split(":", 1)[1]) if ":" in args.inputs else 10
        if count < 1:
            raise UsageError(f"--inputs {args.inputs}: need at least one random input")
        inputs = random_inputs(circuit, count, seed=args.seed)
    else:
        with open(args.inputs) as fh:
            try:
                doc = json.load(fh)
            except RecursionError:  # json's decoder recurses once per nested list
                raise UsageError(f"inputs file {args.inputs} nests too deeply") from None
        if not isinstance(doc, list) or not doc:
            raise UsageError(f"inputs file {args.inputs} must hold a non-empty list of "
                             "amplitude lists")
        dims = infer_dims(circuit)
        in_dims = tuple(dims[l] for l in circuit.inputs)
        try:
            inputs = [MixedRegister(in_dims, np.array([complex(re, im) for re, im in amps]),
                                    circuit.inputs)
                      for amps in doc]
        except TypeError as e:
            raise UsageError(f"inputs file {args.inputs}: {e}") from None
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
    ns = range(lo, hi + 1, step)
    if len(ns) > MAX_SWEEP_QUBITS:
        raise UsageError(f"sweep {args.sweep!r}: more values of n than the limit "
                         f"of {MAX_SWEEP_QUBITS}")
    rows = []  # (n, k, m)
    for n in ns:
        if n < 2 or n % args.nodes:
            continue
        k = n // args.nodes
        m = args.qudit_m or k
        if not k % m:
            rows.append((n, k, m))
    if not rows:
        raise UsageError(f"sweep {args.sweep!r} gives no row: each n must be at least 2 and "
                         f"divisible by --nodes ({args.nodes}), and k = n / --nodes "
                         f"divisible by --qudit-m ({args.qudit_m or 'default: k'})")
    if sum(n for n, _, _ in rows) > MAX_SWEEP_QUBITS:
        raise UsageError(f"sweep {args.sweep!r}: the n of its rows sum to more than the limit "
                         f"of {MAX_SWEEP_QUBITS} (a row costs O(n))")
    eps = args.epsilon
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "D", "k", "m", "epsilon",
                     "pairwise_ep", "fanout_ghz", "fanout_ep", "qudit_ghz", "qudit_ep",
                     "gms_pairwise_ep", "gms_conditional_ep", "gms_fanout_ghz",
                     "time_pairwise", "time_fanout", "fanout_gain"])
    for n, k, m in rows:
        cfg = GczConfig(n=n, D=args.nodes, k=k, m=m, epsilon=eps)
        gcz, gms = gcz_costs(cfg), gms_costs(n, eps)
        writer.writerow([n, args.nodes, k, m, eps,
                         gcz["pairwise"].ep, gcz["fanout"].total(ghz=True), gcz["fanout"].ep,
                         gcz["qudit"].total(ghz=True), gcz["qudit"].total(ghz=False),
                         gms["pairwise"].ep, gms["pairwise_conditional"].ep,
                         gms["fanout"].total(ghz=True),
                         gcz["pairwise"].time_units, gcz["fanout"].time_units,
                         fanout_gain(n, eps)])
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
    p.add_argument("--theta", help="GMS angle (e.g. pi/2, 0.7; default pi/2)")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--strategy", help="default fanout",
                   choices=["pairwise", "pairwise_conditional", "fanout", "teleport_all"])
    p.add_argument("--qudit", action="store_true",
                   help="compress qubit pairs into dimension-4 qudits (GCZ only)")
    p.add_argument("--epsilon", type=_epsilon, default="1.0",
                   help="GHZ cost in t_ep for the printed tally")
    p.add_argument("--out", help="write circuit JSON here (default stdout)")

    p = sub.add_parser("simulate", help="enumerate measurement branches on one input")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", help="basis digits, e.g. 1100 (default all zero)")
    p.add_argument("--merge", action="store_true", help="merge identical branches")

    p = sub.add_parser("verify", help="branch-exhaustive check against an ideal gate")
    p.add_argument("--circuit", required=True)
    p.add_argument("--oracle", required=True,
                   choices=["gms", "gcz", "cnot", "csum4", "csum4_multi",
                            "cz4", "cz4_sq", "qudit_gcz"])
    p.add_argument("--theta", help="GMS oracle angle")
    p.add_argument("--inputs", default="basis",
                   help="'basis' (every basis state, up to 12 qubits: their amplitudes "
                        "may not pass 2^24), 'random' (10 inputs), 'random:N', or a JSON "
                        "file of amplitude lists")
    p.add_argument("--threshold", type=_threshold, default=DEFAULT_THRESHOLD)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--no-merge", action="store_true",
                   help="disable branch merging (exact branch records)")

    p = sub.add_parser("estimate", help="CSV sweep of resource formulas")
    p.add_argument("--sweep", required=True, help="n range as lo:hi[:step]")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--qudit-m", type=int, default=0,
                   help="qubits per qudit (default: all of a node's qubits)")
    p.add_argument("--epsilon", type=_epsilon, default="1.0")
    p.add_argument("--out")

    p = sub.add_parser("identities", help="check the gate-algebra identity suite")
    p.add_argument("--theta", default="pi/3")
    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main() call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = make_parser()
    args = _parser.parse_args(argv)
    try:
        if getattr(args, "nodes", 1) < 1:  # compile and estimate divide by it
            raise UsageError(f"--nodes must be at least 1, got {args.nodes}")
        # looked up per call, so a wrapper installed on cmd_<command> after the parser
        # was built still runs
        return globals()["cmd_" + args.command](args)
    except (UsageError, CircuitParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
