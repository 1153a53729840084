"""Shared test helpers: independent matrix oracles built only from numpy."""

from __future__ import annotations

from functools import reduce

import numpy as np

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def kron_embed(mat: np.ndarray, position: int, n: int, dim: int = 2) -> np.ndarray:
    """Embed a single-subsystem matrix at one position of an n-fold register."""
    eye = np.eye(dim, dtype=complex)
    return reduce(np.kron, [mat if k == position else eye for k in range(n)])


def expm_xx_sum(n: int, theta: float) -> np.ndarray:
    """exp(-i theta/2 sum_{i<j} X_i X_j) by eigendecomposition.

    Independent oracle for the global MS gate: diagonalize the Hermitian sum
    and exponentiate the eigenvalues.
    """
    ham = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            ham += kron_embed(X, i, n) @ kron_embed(X, j, n)
    w, v = np.linalg.eigh(ham)
    return (v * np.exp(-0.5j * theta * w)) @ v.conj().T


def bits_of(index: int, n: int) -> list[int]:
    return [(index >> (n - 1 - p)) & 1 for p in range(n)]


def digits_of(index: int, dims) -> list[int]:
    out = []
    for d in reversed(tuple(dims)):
        out.append(index % d)
        index //= d
    out.reverse()
    return out


def gcz_phase(bits) -> int:
    """(-1) exponent of the global CZ: sum of q_i q_j over all pairs, mod 2."""
    n = len(bits)
    return sum(bits[i] * bits[j] for i in range(n) for j in range(i + 1, n)) % 2


def csum_multi_reference(d: int, n_targets: int) -> np.ndarray:
    """Single-control multitarget sum |i>|j>|k>... -> |i>|i+j>|i+k>... (mod d), densely."""
    size = d ** (n_targets + 1)
    m = np.zeros((size, size), dtype=complex)
    for src in range(size):
        digits = digits_of(src, (d,) * (n_targets + 1))
        ctrl = digits[0]
        dst = 0
        for v in [ctrl] + [(ctrl + t) % d for t in digits[1:]]:
            dst = dst * d + v
        m[dst, src] = 1.0
    return m


def apply_matrix_reference(amps: np.ndarray, dims, axes, mat: np.ndarray) -> np.ndarray:
    """``backend.apply_matrix`` for any matrix: transpose the targets first, matmul, transpose back."""
    shape = tuple(dims) + amps.shape[1:]
    perm = list(axes) + [i for i in range(len(shape)) if i not in axes]
    inverse = [0] * len(perm)
    for position, axis in enumerate(perm):
        inverse[axis] = position
    t = amps.reshape(shape).transpose(perm)
    out = (mat @ t.reshape(mat.shape[0], -1)).reshape(t.shape)
    return np.ascontiguousarray(out.transpose(inverse)).reshape(amps.shape)


def measure_reference(state, target: str) -> list[tuple[int, object, np.ndarray]]:
    """``statevec.measure_enumerate`` the direct way: the measured axis moved to the front.

    Returns ``(outcome, probability, amplitudes)`` for every kept outcome, in
    outcome order. Per column, an outcome below ``PRUNE_TOL`` is pruned (zero
    amplitudes, probability 0) and a kept one is renormalized; an outcome is
    dropped once every column is pruned. A single state gives a float
    probability and a vector, a batch one entry per column and a matrix.
    """
    from distgates.statevec import PRUNE_TOL

    axis = state.axis(target)
    d = state.dims[axis]
    batch = state.amps.shape[1:]
    k = batch[0] if batch else 1
    t = np.moveaxis(state.amps.reshape(state.dims + (k,)), axis, 0).reshape(d, -1, k)
    kept = []
    for outcome in range(d):
        prob = np.sum(np.abs(t[outcome]) ** 2, axis=0)
        alive = prob >= PRUNE_TOL
        if not alive.any():
            continue
        amps = np.where(alive, t[outcome] / np.sqrt(np.where(alive, prob, 1.0)), 0.0)
        prob = np.where(alive, prob, 0.0)
        kept.append((outcome, prob if batch else float(prob[0]),
                     amps.reshape((-1,) + batch)))
    return kept


def measure_loop_reference(state, target: str) -> list[tuple[int, object, np.ndarray]]:
    """``statevec.measure_enumerate``'s arithmetic, one outcome at a time.

    The same two passes in the same floating-point order (so the results must
    be bitwise equal), but the kept test, the probability and the scaled copy
    are made separately for each outcome. Returns ``(outcome, probability,
    amplitudes)`` like ``measure_reference``.
    """
    import math

    from distgates.statevec import PRUNE_TOL

    axis = state.axis(target)
    d = state.dims[axis]
    batch = state.amps.shape[1:]
    k = batch[0] if batch else 1
    pre = math.prod(state.dims[:axis])
    post = math.prod(state.dims[axis + 1:])
    x = state.amps.view(np.float64).reshape(pre, -1)
    prob = np.dot(np.ones(pre), x * x).reshape(d, post, k, 2).sum(axis=(1, 3))
    alive = prob >= PRUNE_TOL
    scale = 1.0 / np.sqrt(np.where(alive, prob, np.inf))
    t = state.amps.reshape(pre, d, post, k)
    kept = []
    for outcome in range(d):
        if not alive[outcome].any():
            continue
        amps = (t[:, outcome] * scale[outcome]).reshape((-1,) + batch)
        p = np.where(alive[outcome], prob[outcome], 0.0) if batch else float(prob[outcome, 0])
        kept.append((outcome, p, amps))
    return kept


def merge_keys(circuit, point: int) -> list[tuple[tuple[str, ...], int]]:
    """The merge key before instruction ``point``, the direct way: for each condition j at
    ``point`` or later, ``(terms, mod)`` with its terms measured before ``point`` and not
    measured again before j."""
    before, again, keys = set(), set(), []
    for j, ins in enumerate(circuit.instructions):
        if j >= point and ins.condition is not None:  # read before a measurement at j
            keys.append((tuple(t for t in ins.condition.terms
                               if t in before and t not in again), ins.condition.mod))
        if ins.kind == "Measure":
            (before if j < point else again).add(ins.outcome or f"_m{j}")
    return keys


def merge_reference(frontier: list[list], keys) -> list[list]:
    """A plain first-match merge scan over ``[state, prob, outcomes, values, weight, alive]``
    branches: each merges into the first kept branch with equal labels, dims, alive mask
    and key, and every amplitude within ``MERGE_ATOL``. The key holds, for each
    ``(terms, mod)`` of ``keys``, the sum of the terms' values mod ``mod``."""
    from distgates.simulate import MERGE_ATOL

    def key(values):
        return [sum(values[t] for t in terms) % mod for terms, mod in keys]

    kept = []
    for br in frontier:
        for other in kept:
            if (other[0].labels == br[0].labels and other[0].dims == br[0].dims
                    and np.array_equal(other[5], br[5]) and key(other[3]) == key(br[3])
                    and np.allclose(other[0].amps, br[0].amps, rtol=0, atol=MERGE_ATOL)):
                other[1] = other[1] + br[1]
                other[4] += br[4]
                break
        else:
            kept.append(br)
    return kept


def evaluate(condition, values) -> int:
    """The value of ``condition`` over the outcome ``values`` measured so far: the sum of
    its terms mod its modulus; a term not yet measured is an error."""
    total = 0
    for sym in condition.terms:
        if sym not in values:
            raise ValueError(f"condition references unmeasured symbol {sym!r}")
        total += values[sym]
    return total % condition.mod


def enumerate_reference(circuit, input_state, merge_equal: bool = False, upto=None):
    """``simulate.enumerate_branches`` the per-branch way: a register per branch, every
    instruction looked up again in every branch.

    Each branch holds a ``MixedRegister``; gates go through ``apply_unitary``,
    which finds the target axes and checks them on every call, and merging is
    ``merge_reference`` on ``merge_keys``, after every instruction.
    ``input_state`` is a single state or a batch. Returns ``(outcomes,
    probability, state, weight, alive)`` tuples in branch order, the fields
    of a ``BranchResult``; ``alive`` is None for a single state.
    """
    import math

    from distgates.circuit import RESOURCE_KINDS
    from distgates.gates import gate_power, gate_unitary
    from distgates.statevec import MixedRegister, apply_unitary, measure_enumerate, tensor

    def resource_state(ins):
        d, n = ins.dim or 2, len(ins.targets)
        amps = np.zeros(d ** n, dtype=complex)
        amps[[sum(v * d ** p for p in range(n)) for v in range(d)]] = 1 / math.sqrt(d)
        return MixedRegister((d,) * n, amps, ins.targets)

    amps = input_state.amps.reshape(input_state.amps.shape[0], -1)
    k = amps.shape[1]
    # [state, prob, outcomes, values, weight, alive]
    frontier = [[MixedRegister._wrap(input_state.dims, amps, input_state.labels), np.ones(k),
                 (), {}, 1, np.ones(k, dtype=bool)]]
    for i, ins in enumerate(circuit.instructions[:upto]):
        if ins.kind == "LocalGate":
            for br in frontier:
                br[0] = apply_unitary(br[0], gate_unitary(ins.gate, ins.params), ins.targets)
        elif ins.kind in RESOURCE_KINDS:
            for br in frontier:
                br[0] = tensor(br[0], resource_state(ins))
        elif ins.kind == "Measure":
            symbol = ins.outcome or f"_m{i}"
            frontier = [[sub.state, br[1] * sub.probability,
                         br[2] + ((symbol, sub.outcomes[0][1]),),
                         {**br[3], symbol: sub.outcomes[0][1]}, br[4],
                         br[5] & (sub.probability > 0)]
                        for br in frontier for sub in measure_enumerate(br[0], ins.targets[0])]
        elif ins.kind == "CondGate":
            for br in frontier:
                if value := evaluate(ins.condition, br[3]):
                    br[0] = apply_unitary(br[0], gate_power(ins.gate, ins.params, value),
                                          ins.targets)
        if merge_equal:
            frontier = merge_reference(frontier, merge_keys(circuit, i + 1))
    if input_state.amps.ndim == 1:
        return [(br[2], float(br[1][0]),
                 MixedRegister._wrap(br[0].dims, br[0].amps[:, 0], br[0].labels), br[4], None)
                for br in frontier]
    return [(br[2], br[1], br[0], br[4], br[5]) for br in frontier]


def cap_builds(monkeypatch, amplitudes: int):
    """Cap gadget builds at ``amplitudes`` (``simulate.BUILD_AMPLITUDES``) for the test, with
    empty build caches of its own, so that every gadget whose build passes the cap stays
    explicit. At 512 these are the gadgets with d_S >= 32, which the builds before
    ``BUILD_AMPLITUDES`` left explicit too: every one with d_S^2 d_A > 2^12 in the suite."""
    from functools import lru_cache

    from distgates import simulate

    monkeypatch.setattr(simulate, "BUILD_AMPLITUDES", amplitudes)
    monkeypatch.setattr(simulate, "_contract",
                        lru_cache(maxsize=None)(simulate._contract.__wrapped__))
    monkeypatch.setattr(simulate, "_gadget", lru_cache(maxsize=None)(simulate._gadget.__wrapped__))


def gadget_reference(key):
    """``simulate._gadget(key)``'s groups the record way, or None when the gadget does not
    contract: ``(outcomes, u, count, p)`` per group, as in ``simulate._Gadget``.

    The gadget's steps run without merging on the identity batch over its data
    labels tensored with the resource state, so that record r ends as a branch of
    its own, whose column i is K_r e_i renormalized, of probability ||K_r e_i||^2.
    It contracts when all d_A records survive and each K_r^dagger K_r is p_r I
    within ``UNITARY_TOL`` with p_r >= ``PRUNE_TOL``; record r applies
    U_r = K_r / sqrt(p_r). A record joins the first group whose first record has
    the same values of the live symbols and a unitary within ``MERGE_ATOL / d_S`` of
    its own; a group's p is its records' sum. It holds d_A matrices of d_S x d_S.
    """
    import math

    from distgates.simulate import MERGE_ATOL, run_steps
    from distgates.statevec import PRUNE_TOL, UNITARY_TOL
    from distgates.steps import (_Branch, _cond_step, _ghz_amps, _gate_step,
                                 _measure_step)

    s_dims, d, n, ops, live = key
    d_s = math.prod(s_dims)
    register = list(range(len(s_dims))) + [-1 - k for k in range(n)]
    dims = s_dims + (d,) * n
    steps = []
    for kind, *op in ops:
        if kind == "M":
            share, symbol = op
            axis = register.index(share)
            steps.append((_measure_step(dims, axis, symbol), None))
            register.pop(axis)
            dims = dims[:axis] + dims[axis + 1:]
            continue
        axes = tuple(register.index(label) for label in op[0])
        if kind == "G":
            steps.append((_gate_step(dims, axes, op[1]), None))
        else:
            _, powers, terms, mod = op
            steps.append((_cond_step(dims, axes, terms, mod, powers), None))
    start = np.kron(np.eye(d_s, dtype=np.complex128), _ghz_amps(d, n).reshape(-1, 1))
    ones = np.ones(d_s)
    branches = run_steps(steps, [_Branch(start, ones, (), {}, 1, ones > 0)], False, False)
    if len(branches) < d ** n:
        return None
    atol = MERGE_ATOL / d_s
    records = []  # (outcomes, u, p)
    for br in branches:
        k = br.amps * np.sqrt(br.prob)
        gram = k.conj().T @ k
        p = gram.trace().real / d_s
        if not (p >= PRUNE_TOL and abs(gram - p * np.eye(d_s)).max() <= UNITARY_TOL):
            return None
        u = k / math.sqrt(p)
        u[abs(u) <= atol] = 0
        records.append((tuple(outcome for _, outcome in br.outcomes), u, p))
    groups = []  # [outcomes, u, count, p]
    for outcomes, u, p in records:
        for group in groups:
            if ([group[0][i] for i in live] == [outcomes[i] for i in live]
                    and abs(group[1] - u).max() <= atol):
                group[2] += 1
                group[3] += p
                break
        else:
            groups.append([outcomes, u, 1, p])
    return [tuple(group) for group in groups]


def qudit_gcz_local_pair() -> list[tuple[str, tuple[int, ...]]]:
    """Gate sequence equal to the encoded 4-qubit GCZ on two dimension-4 qudits.

    Returned as (gate name, qudit slots) in execution order: X23 conjugation
    around a double CZ_4 produces the cross-pair parity phase, then P3 adds
    the intra-pair phases.
    """
    return [
        ("X23", (0,)), ("X23", (1,)),
        ("CZ4", (0, 1)), ("CZ4", (0, 1)),
        ("X23", (0,)), ("X23", (1,)),
        ("P3", (0,)), ("P3", (1,)),
    ]


def random_unitary(dim: int, rng) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bad_resource_documents() -> dict[str, str]:
    """Circuit documents whose resource "dim" contradicts the resource kind.

    ``qudit_pair_without_dim``: the dCSUM4 circuit plus a second, measured
    CreateQuditPair that carries no "dim". ``bell_with_dim``: the dCNOT circuit
    with "dim": 4 on its CreateBell.
    """
    import json

    from distgates import catalog, serialize

    corpus = catalog.circuits("corpus")
    no_dim = json.loads(serialize(corpus["dcsum4"]))
    a, b = no_dim["layout"]["nodes"][:2]
    no_dim["layout"]["placement"].update({"F_a": a, "F_b": b})
    no_dim["instructions"] += [
        {"kind": "CreateQuditPair", "targets": ["F_a", "F_b"], "parties": [a, b]},
        {"kind": "Measure", "targets": ["F_a"], "outcome": "f0"},
        {"kind": "Measure", "targets": ["F_b"], "outcome": "f1"}]
    bell = json.loads(serialize(corpus["dcnot"]))
    next(ins for ins in bell["instructions"] if ins["kind"] == "CreateBell")["dim"] = 4
    return {"qudit_pair_without_dim": json.dumps(no_dim), "bell_with_dim": json.dumps(bell)}


def conditioned_document(kind: str = "LocalGate") -> str:
    """Over inputs a and b, a Bell pair with both halves measured (``m``, ``n``), then an
    X on ``a``, with the condition ``{"xor": ["m"]}`` on the last instruction of ``kind``.

    For a ClassicalSend, one that sends m to B comes before the X. Only a
    CondGate or a ClassicalSend may carry a condition; on any other kind no
    step would evaluate it.
    """
    import json

    instructions = [
        {"kind": "CreateBell", "targets": ["e1", "e2"], "parties": ["A", "B"]},
        {"kind": "Measure", "targets": ["e1"], "outcome": "m"},
        {"kind": "Measure", "targets": ["e2"], "outcome": "n"},
        {"kind": "LocalGate", "targets": ["a"], "gate": "X"}]
    if kind == "ClassicalSend":
        instructions.insert(3, {"kind": kind, "parties": ["A", "B"], "symbol": "m", "bits": 1})
    next(ins for ins in reversed(instructions) if ins["kind"] == kind)["condition"] = {
        "xor": ["m"]}
    return json.dumps({"layout": {"nodes": ["A", "B"],
                                  "placement": {"a": "A", "b": "B", "e1": "A", "e2": "B"}},
                       "instructions": instructions, "inputs": ["a", "b"],
                       "outputs": ["a", "b"]})


def with_first_param(text: str, token: str) -> tuple[str, int]:
    """Circuit JSON ``text`` with its first gate parameter written as the raw JSON
    ``token`` (e.g. ``"inf"`` quoted, or ``NaN`` bare), and that instruction's index."""
    import json

    index = next(i for i, ins in enumerate(json.loads(text)["instructions"]) if "params" in ins)
    start = text.index('"', text.index('"params": [') + len('"params": ['))
    return text[:start] + token + text[text.index('"', start + 1) + 1:], index


def serialize_reference(circuit) -> str:
    """``circuit.serialize`` the plain way: the document as dicts and lists, written by
    ``json.dumps(doc, indent=2, sort_keys=True)``."""
    import json

    from distgates.circuit import format_angle

    def instruction(ins) -> dict:
        out = {"kind": ins.kind, "targets": list(ins.targets)}
        if ins.gate is not None:
            out["gate"] = ins.gate
        if ins.params:
            out["params"] = [format_angle(p) for p in ins.params]
        if ins.condition is not None:
            terms, mod = list(ins.condition.terms), ins.condition.mod
            out["condition"] = {"xor": terms} if mod == 2 else {"sum_mod": mod, "terms": terms}
        if ins.parties:
            out["parties"] = list(ins.parties)
        for name in ("dim", "outcome", "symbol", "bits", "layer"):
            if getattr(ins, name) is not None:
                out[name] = getattr(ins, name)
        return out

    doc = {"layout": {"nodes": list(circuit.layout.nodes),
                      "placement": dict(circuit.layout.placement)},
           "instructions": [instruction(ins) for ins in circuit.instructions],
           "inputs": list(circuit.inputs), "outputs": list(circuit.outputs)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def old_order(circuit):
    """``circuit`` with each GHZ fan-out's shifts in the order the builders used to emit
    them: the CondGate that shifts a remote share by the control share's outcome moved
    back to just before the first later instruction on the share's node, the first gate
    of that share's controlled operations.

    A GHZ resource's first share is the control's; a shift is a CondGate on one of the
    other shares that reads only the control share's outcome. The shift commutes with
    every instruction it moves past: they act on other nodes, or are ClassicalSends.
    """
    from distgates import DistCircuit
    from distgates.circuit import RESOURCE_KINDS

    instructions = list(circuit.instructions)
    for resource in circuit.instructions:
        if resource.kind not in RESOURCE_KINDS or not RESOURCE_KINDS[resource.kind][0]:
            continue
        control, *shares = resource.targets
        m0 = next(ins.outcome for ins in instructions
                  if ins.kind == "Measure" and ins.targets == (control,))
        for share in shares:
            start = next(j for j, ins in enumerate(instructions) if ins.kind == "CondGate"
                         and ins.targets == (share,) and ins.condition.terms == (m0,))
            shift = instructions.pop(start)
            node = circuit.layout.placement[share]
            instructions.insert(next(
                j for j, ins in enumerate(instructions) if j >= start
                and any(circuit.layout.placement[t] == node for t in ins.targets)), shift)
    return DistCircuit(circuit.layout, instructions, circuit.inputs, circuit.outputs)


def no_fusion(monkeypatch):
    """Compile plans without fused runs for the rest of the test: ``simulate._fuse`` finds no
    step with a kernel and builds every step on its own, as the fused plans must match."""
    from distgates import simulate

    fuse = simulate._fuse
    monkeypatch.setattr(simulate, "_fuse",
                        lambda steps, spans, kernels: fuse(steps, spans, [None] * len(steps)))
