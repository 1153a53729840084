"""Per-layer tracing of distgates from outside the package.

``Tracer.installed()`` wraps the public functions of each distgates module
(``resources`` aside: its closed forms take microseconds) at every name a
caller looks them up by, e.g. ``distgates.simulate.apply_unitary`` and
``distgates.backend.apply_matrix``. Each call records a span; a layer's self
time is its span time minus the time of the spans it caused. The wrappers also
count the work each layer did, so that doing less work can be told apart from
doing the same work faster. The tracer's own bookkeeping is charged to no
layer; it shows only as the traced pass's extra wall time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# module -> {public function: span name}
SPANS = {
    "distgates.backend": {"apply_matrix": "backend.apply_matrix"},
    "distgates.statevec": {
        "apply_unitary": "statevec.apply",
        "measure_enumerate": "statevec.measure",
        "tensor": "statevec.tensor",
        "permute": "statevec.permute",
        "fidelity_up_to_phase": "statevec.fidelity",
    },
    "distgates.simulate": {"enumerate_branches": "simulate"},
    "distgates.gates": {"gate_unitary": "gates.resolve", "gate_power": "gates.resolve"},
    "distgates.verify": {
        "verify": "verify",
        "basis_inputs": "verify.inputs",
        "random_inputs": "verify.inputs",
        **{name: "verify.oracle" for name in (
            "oracle_gms", "oracle_gcz", "oracle_multitarget_cu", "oracle_csum4",
            "oracle_csum4_multi", "oracle_cz4_pow", "oracle_cz4_sq_fanout",
            "oracle_qudit_gcz")},
    },
    "distgates.circuit": {
        "validate": "circuit.validate",
        "serialize": "circuit.serialize",
        "deserialize": "circuit.deserialize",
        "tally": "circuit.tally",
    },
    "distgates.qubit_protocols": {
        name: "qubit_protocols.build"
        for name in ("build_fanout", "build_dcontrol_u", "build_dgms", "build_dgcz")},
    "distgates.qudit_protocols": {
        name: "qudit_protocols.build"
        for name in ("build_dcsum4", "build_dcz4_pow", "build_dcsum4_multitarget",
                     "build_qudit_gcz")},
    "distgates.cli": {"main": "cli", "cmd_compile": "cli.compile", "cmd_verify": "cli.verify"},
}

# per-layer metric name -> (span, "total" | "self"), reported in milliseconds
TIMES = {
    "simulate.enumerate_ms": ("simulate", "total"),
    "simulate.self_ms": ("simulate", "self"),
    "statevec.apply_ms": ("statevec.apply", "total"),
    "statevec.measure_ms": ("statevec.measure", "total"),
    "statevec.tensor_ms": ("statevec.tensor", "total"),
    "statevec.permute_ms": ("statevec.permute", "total"),
    "statevec.fidelity_ms": ("statevec.fidelity", "total"),
    "backend.apply_matrix_ms": ("backend.apply_matrix", "total"),
    "verify.oracle_ms": ("verify.oracle", "total"),
    "verify.inputs_ms": ("verify.inputs", "total"),
    "verify.self_ms": ("verify", "self"),
    "gates.resolve_ms": ("gates.resolve", "total"),
    "circuit.validate_ms": ("circuit.validate", "total"),
    "circuit.serialize_ms": ("circuit.serialize", "total"),
    "circuit.deserialize_ms": ("circuit.deserialize", "total"),
    "circuit.tally_ms": ("circuit.tally", "total"),
    "qubit_protocols.build_ms": ("qubit_protocols.build", "total"),
    "qudit_protocols.build_ms": ("qudit_protocols.build", "total"),
    "cli.compile_ms": ("cli.compile", "total"),
    "cli.verify_ms": ("cli.verify", "total"),
    "cli.self_ms": ("cli", "self"),
}

# per-pass work counts and their units; each repeats exactly for a given
# workload and seed
COUNTS = {
    "simulate.branches_out": "count", "simulate.branch_weight": "count",
    "statevec.apply_calls": "count", "statevec.measure_calls": "count",
    "statevec.forks": "count", "statevec.tensor_calls": "count",
    "statevec.peak_dim": "count",
    "backend.calls_diagonal": "count", "backend.calls_monomial": "count",
    "backend.calls_dense": "count", "backend.bytes_computed": "B",
    "verify.oracle_dim_max": "count",
    "circuit.instructions": "count", "circuit.json_bytes": "B",
}


def matrix_kind(mat: np.ndarray) -> str:
    """'diagonal', 'monomial' (one nonzero per row and column) or 'dense'."""
    nonzero = mat != 0
    if not np.any(nonzero & ~np.eye(mat.shape[0], dtype=bool)):
        return "diagonal"
    if np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1):
        return "monomial"
    return "dense"


class Tracer:
    """Spans and counts for one traced pass; ``reset`` between passes."""

    def __init__(self):
        gates = sys.modules["distgates.gates"]
        self.resolvers = (gates.gate_unitary, gates.gate_power)  # lru_cache'd originals
        self._kinds: dict[int, tuple[np.ndarray, str]] = {}
        self.reset()

    def reset(self):
        self.total = defaultdict(float)  # span -> seconds, children included
        self.inner = defaultdict(float)  # span -> seconds covered by child spans
        self.calls = defaultdict(int)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[list[float]] = []
        self._open: dict[str, int] = defaultdict(int)

    def cache_misses(self) -> int:
        """Gate-resolution cache misses over the whole process so far."""
        return sum(f.cache_info().misses for f in self.resolvers)

    def _kind(self, mat: np.ndarray) -> str:
        hit = self._kinds.get(id(mat))
        if hit is None or hit[0] is not mat:
            hit = self._kinds[id(mat)] = (mat, matrix_kind(mat))
        return hit[1]

    def _count(self, span: str, args, result):
        c = self.counts
        if span == "backend.apply_matrix":
            amps, _, _, mat = args[:4]
            c["backend.calls_" + self._kind(mat)] += 1
            c["backend.bytes_computed"] += amps.nbytes
        elif span == "statevec.apply" or span == "statevec.tensor":
            c[span + "_calls"] += 1
            c["statevec.peak_dim"] = max(c["statevec.peak_dim"], result.amps.size)
        elif span == "statevec.measure":
            c["statevec.measure_calls"] += 1
            c["statevec.forks"] += len(result)
        elif span == "simulate":
            c["simulate.branches_out"] += len(result)
            c["simulate.branch_weight"] += sum(br.weight for br in result)
        elif span == "verify.oracle":
            c["verify.oracle_dim_max"] = max(c["verify.oracle_dim_max"], result.dim)
        elif span == "verify":
            c["circuit.instructions"] += len(args[0].instructions)
        elif span == "circuit.serialize":
            c["circuit.json_bytes"] += len(result.encode())

    def wrap(self, span: str, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._open[span]:  # a layer re-entering itself is one span
                return fn(*args, **kwargs)
            enter = clock()
            frame = [0.0]
            self._stack.append(frame)
            self._open[span] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._open[span] -= 1
                self._stack.pop()
                self.total[span] += elapsed
                self.inner[span] += frame[0]
                self.calls[span] += 1
            self._count(span, args, result)
            if self._stack:  # the parent's self time excludes this call and its bookkeeping
                self._stack[-1][0] += clock() - enter
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every caller-visible name of each traced function; undo on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "distgates" or name.startswith("distgates."))]
        patched = []
        try:
            for module_name, functions in SPANS.items():
                module = sys.modules[module_name]
                for attr, span in functions.items():
                    original = getattr(module, attr)
                    wrapper = self.wrap(span, original)
                    for m in modules:
                        for name, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, name, wrapper)
                                patched.append((m, name, original))
            yield self
        finally:
            for m, name, original in reversed(patched):
                setattr(m, name, original)

    def self_seconds(self, span: str) -> float:
        return self.total[span] - self.inner[span]

    def layer_times_ms(self) -> dict[str, float]:
        return {metric: 1e3 * (self.total[span] if which == "total" else self.self_seconds(span))
                for metric, (span, which) in TIMES.items()}

    def table(self) -> list[dict]:
        """Every span seen: calls, total and self milliseconds."""
        return [{"span": span, "calls": self.calls[span],
                 "total_ms": 1e3 * self.total[span], "self_ms": 1e3 * self.self_seconds(span)}
                for span in sorted(self.total)]
