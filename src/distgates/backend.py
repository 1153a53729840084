"""Hot statevector kernel: apply a small matrix to some subsystems of a register.

Amplitudes may carry trailing batch axes (one column per input state); the
kernel treats them like untouched subsystems, so a batch of states costs one
call instead of one per state.

The kernel is chosen by the matrix's structure, the three classes the
benchmark also counts:

- **diagonal** (Z, S_dag, RZ, CZ, P3, Z4_dag, CZ4 and their powers): the
  amplitudes are multiplied by a small phase tensor that broadcasts over the
  target axes;
- **monomial**, one nonzero per row and column (X, CNOT, X23, X4, K4, CSUM4,
  CSUM4_dag and their powers): one gather ``amps[src]`` with a flat source
  index over the whole register, then the same phase multiply, skipped when
  every nonzero entry is 1;
- **dense** (H, H4, H4_dag, oracle factors): transpose the targets to the
  front, one matmul, transpose back.

Each distinct matrix is classified once, keyed by its content (shape, dtype
and bytes), so a recycled ``id()`` or a matrix mutated after first use cannot
pick a stale plan. The transposes of a dense matrix, and the phase tensor and
int32 source index of the others, are cached per (matrix, dims, axes). Both
caches are LRUs of ``CACHE_SIZE`` entries; a source index holds 4 bytes per
register amplitude (64 KiB at the 2^14 cap). A caller that holds its plans
itself, such as a contracted gadget of ``simulate`` with its per-outcome
unitaries, or ``simulate``'s own LRU of the cached, read-only gate matrices'
plans, keyed by gate object, builds them with ``cached=False`` and leaves the
plan LRU alone: hundreds of such plans would otherwise evict the ones every
circuit shares.

Building the content key copies the matrix's bytes, which costs about as much
as the arithmetic on the small registers of a branch enumeration. A caller
that applies one matrix to many registers of the same layout therefore looks
its plan up once with ``kernel_plan`` and hands it to every ``apply_matrix``
call; the plan is only valid for the matrix content it was made from. A
plan may also be composed: ``simulate`` makes a run of diagonal and monomial
plans on one layout one ``((R, -1), phase, src)`` plan over the register's R
rows, and ``mat`` then only names its kind.

Every kernel returns a new array and never writes its input, so a caller
may hand it an array that other branches, a cache or the user still hold.

A dense gate on adjacent targets whose product would exceed
``GEMM_SERIAL_WORK`` (m^2 times columns) runs one block of rows and columns
at a time, each product under the size from which OpenBLAS starts a second
thread: that thread spins, which doubles the CPU time of these small-matrix
products and saves no wall time.

A branch of ``simulate`` may hold only some rows of its register, in sorted
order (a support; every other row is zero). ``row_layout`` splits those
rows into their target index and their base, the row with the target
digits cleared, and ``row_plan`` builds from it, by the matrix's structure,
the rows the result holds and how ``apply_rows`` computes them: a diagonal
matrix multiplies each row by its phase; a monomial one gathers the rows in
the sorted order of their images, then multiplies by the entries; a dense
one scatters the held rows into an ``(m, bases, k)`` block, zeros
elsewhere, multiplies it by the matrix in one zgemm (in blocks past
``GEMM_SERIAL_WORK``) and gathers the result in row order. The caller keeps
the plans, so ``apply_rows`` costs one to three numpy calls, like
``apply_matrix``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

CACHE_SIZE = 256
GEMM_SERIAL_WORK = 2 ** 15  # m * m * columns of one zgemm call; OpenBLAS threads from 2^16
BLOCK_AMPLITUDES = 2 ** 13  # of one block of a blocked kernel, whose temporaries stay small


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # cached: shared by every later call
    return a


@lru_cache(maxsize=CACHE_SIZE)
def _structure(key) -> tuple[np.ndarray | None, np.ndarray] | None:
    """``(col, val)`` with ``mat[r, col[r]] = val[r]`` the only nonzero of row ``r``.

    ``col`` is None for a diagonal matrix; the result is None for a dense one.
    """
    shape, dtype, data = key
    mat = np.frombuffer(data, dtype=dtype).reshape(shape)
    nonzero = mat != 0
    if not np.any(nonzero & ~np.eye(shape[0], dtype=bool)):
        return None, _frozen(np.diagonal(mat).copy())
    if np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1):
        col = np.argmax(nonzero, axis=1)
        return _frozen(col), _frozen(mat[np.arange(shape[0]), col])
    return None


def _structure_of(key):
    """``_structure(key)``, cached only for a matrix of at most 16 x 16 (every gate): a larger
    one, a gadget's unitary, would keep its bytes in the key, and its callers keep what they
    build from it."""
    return (_structure if len(key[2]) <= 4096 else _structure.__wrapped__)(key)


def spreads(mat: np.ndarray) -> bool:
    """Whether ``mat`` is dense: neither diagonal nor monomial, so that it can move a row's
    amplitude onto several rows."""
    return _structure_of((mat.shape, mat.dtype.str, mat.tobytes())) is None


def _build_plan(key, dims: tuple[int, ...], axes: tuple[int, ...]):
    """``(shape, phase, src, perm, inverse)``: how to apply the matrix with content ``key``.

    For a dense matrix, ``amps.reshape(shape)`` transposed by ``perm`` has the
    targets first and the batch axis (1 for a single state) last; ``inverse``
    undoes that transpose; ``phase`` and ``src`` are None. When the targets
    are adjacent axes in order, ``shape`` is ``(pre, m, -1)``: the axes before
    them, the targets, and the rest with the batch.

    For a diagonal or monomial matrix, ``perm`` and ``inverse`` are None, and
    ``amps.reshape(shape) * phase`` applies the row values, where ``shape``
    merges each run of adjacent targeted or untouched axes into one and ends
    with an untouched ``-1`` run that also takes any batch axis; ``phase`` is
    None when every value is 1. ``src`` is the flat source index of the gather
    (None for a diagonal matrix): output amplitude ``i`` is input amplitude
    ``src[i]``.
    """
    structure = _structure_of(key)
    if structure is None:
        if axes == tuple(range(axes[0], axes[0] + len(axes))):  # adjacent, in order
            pre, m = math.prod(dims[:axes[0]]), math.prod(dims[a] for a in axes)
            return (pre, m, -1), None, None, (1, 0, 2), (1, 0, 2)
        perm = axes + tuple(i for i in range(len(dims) + 1) if i not in axes)
        return dims + (-1,), None, None, perm, tuple(np.argsort(perm).tolist())
    col, val = structure
    tdims = [dims[a] for a in axes]
    order = np.argsort(axes)
    shape, pshape, targeted = [], [], None
    for i, d in enumerate(dims + (1,)):  # the appended 1 ends every plan untouched
        hit = i in axes
        if hit == targeted:
            shape[-1] *= d
            pshape[-1] *= d if hit else 1
        else:
            shape.append(d)
            pshape.append(d if hit else 1)
        targeted = hit
    shape[-1] = -1
    phase = None
    if col is None or np.any(val != 1):
        # val is indexed by the target digits in ``axes`` order; put them in register order
        phase = _frozen(np.ascontiguousarray(
            val.reshape(tdims).transpose(order)).reshape(pshape))
    src = None
    if col is not None:
        perm = list(axes) + [i for i in range(len(dims)) if i not in axes]
        index = np.arange(math.prod(dims), dtype=np.int32).reshape(dims).transpose(perm)
        gathered = index.reshape(len(col), -1)[col].reshape(index.shape)
        src = _frozen(np.ascontiguousarray(gathered.transpose(np.argsort(perm))).reshape(-1))
    return tuple(shape), phase, src, None, None


_plan = lru_cache(maxsize=CACHE_SIZE)(_build_plan)


def kernel_plan(mat: np.ndarray, dims: tuple[int, ...], axes: tuple[int, ...],
                cached: bool = True) -> tuple:
    """How ``apply_matrix`` applies ``mat`` to ``axes`` of a register over ``dims``.

    A caller that keeps the plan itself passes ``cached=False``: the plan is
    then built afresh and not entered into the shared LRU.
    """
    key = (mat.shape, mat.dtype.str, mat.tobytes())
    return (_plan if cached else _build_plan)(key, tuple(dims), tuple(axes))


def _matmul_blocks(mat: np.ndarray, src: np.ndarray, out: np.ndarray):
    """``out[p] = mat @ src[p]`` over ``(pre, m, rest)`` views, one small block at a time.

    A block holds at most ``BLOCK_AMPLITUDES`` amplitudes and one product at
    most ``GEMM_SERIAL_WORK``. Each block is copied out of ``src`` into one
    contiguous buffer before its product.
    """
    m = mat.shape[0]
    pre, _, rest = src.shape
    cols = max(1, min(BLOCK_AMPLITUDES // m, GEMM_SERIAL_WORK // mat.size))  # of one product
    width = min(rest, cols)
    rows = max(1, cols // width)
    size = m * rows * width
    buf = np.empty(2 * size, np.complex128)
    for p in range(0, pre, rows):
        for r in range(0, rest, width):
            block = src[p:p + rows, :, r:r + width]
            gathered = buf[:block.size].reshape(m, block.shape[0], block.shape[2])
            np.copyto(gathered, block.transpose(1, 0, 2))
            prod = np.matmul(mat, gathered.reshape(m, -1),
                             out=buf[size:size + block.size].reshape(m, -1))
            out[p:p + rows, :, r:r + width] = prod.reshape(gathered.shape).transpose(1, 0, 2)


def row_layout(dims: tuple[int, ...], axes: tuple[int, ...], rows: np.ndarray) -> tuple:
    """``(targets, bases, offsets)`` of the register ``rows`` (sorted) for gates on ``axes``.

    ``targets`` is each row's target index, big-endian over ``axes`` in the
    order given, ``bases`` the row with its target digits set to 0, and
    ``offsets[t]`` the flat offset of target index t, so that a row is its base
    plus the offset of its target index. Shared by every matrix on those axes.
    """
    targets = np.zeros(rows.size, np.intp)
    offsets = np.zeros(1, np.intp)
    for a in axes:
        stride = math.prod(dims[a + 1:])
        targets = targets * dims[a] + rows // stride % dims[a]
        offsets = (offsets[:, None] + np.arange(dims[a]) * stride).ravel()
    return targets, rows - offsets[targets], offsets


def row_plan(mat: np.ndarray, layout: tuple) -> tuple[np.ndarray, tuple]:
    """``(out_rows, plan)``: how ``apply_rows`` applies ``mat`` to a branch's rows.

    ``layout`` is ``row_layout`` of the rows and the target axes; ``out_rows``
    are the sorted rows the result holds. A diagonal matrix keeps the rows and
    multiplies each by its phase. A monomial one moves each row to the row of
    its image and multiplies it by the entry: the plan gathers the rows in
    sorted image order. A dense one reaches every row that shares a base with
    a held row: the plan scatters the held rows into an ``(m, bases, k)``
    block with zeros elsewhere, multiplies by the matrix, and gathers the
    result in row order. ``plan`` is ``(kind, bases, index, order, phase)``:
    the structure's name, the number of distinct bases (dense only), the
    gather or scatter index, the final gather (dense only) and the row phases,
    every array read-only.
    """
    targets, bases, offsets = layout
    structure = _structure_of((mat.shape, mat.dtype.str, mat.tobytes()))
    if structure is None:  # dense: targets first, then the distinct bases
        held, slot = np.unique(bases, return_inverse=True)
        full = (offsets[:, None] + held).ravel()
        order = np.argsort(full, kind="stable")
        out_rows = full[order]
        index = targets * held.size + slot  # of each held row in the block
        if index.size == full.size:  # every row of the block is held: gather it instead
            index = np.argsort(index)
        return out_rows, ("dense", held.size, _frozen(index), _frozen(order), None)
    col, val = structure
    if col is None:
        phase = val[targets]
        return bases + offsets[targets], ("diagonal", 0, None, None, _frozen(phase[:, None]))
    image = np.argsort(col)[targets]  # col[image] = targets: the row each held row moves to
    moved = bases + offsets[image]
    order = np.argsort(moved)
    phase = None if np.all(val == 1) else _frozen(val[image][order][:, None])
    return moved[order], ("monomial", 0, _frozen(order), None, phase)


def apply_rows(amps: np.ndarray, mat: np.ndarray, plan: tuple) -> np.ndarray:
    """``apply_matrix`` on a branch that holds only some rows of its register.

    ``amps`` is ``(rows, k)``, one row per held register row in sorted order,
    and ``plan`` is ``row_plan``'s for ``mat`` and those rows. Returns the
    ``(out_rows, k)`` result, in the order of ``row_plan``'s ``out_rows``. Pure:
    the input is never written or returned.
    """
    kind, count, index, order, phase = plan  # count: the dense plan's bases
    if kind == "diagonal":
        return amps * phase
    if kind == "monomial":
        out = np.take(amps, index, axis=0)
        if phase is not None:
            out *= phase
        return out
    m, k = mat.shape[0], amps.shape[1]
    if index.size == m * count:  # a gather of every block row
        block = np.take(amps, index, axis=0)
    else:
        block = np.zeros((m * count, k), np.complex128)
        block[index] = amps
    block = block.reshape(m, count * k)
    if m * block.size <= GEMM_SERIAL_WORK:
        out = mat @ block
    else:
        out = np.empty_like(block)
        _matmul_blocks(mat, block[None], out[None])
    return np.take(out.reshape(m * count, k), order, axis=0)


def apply_matrix(amps: np.ndarray, dims: tuple[int, ...], axes: tuple[int, ...],
                 mat: np.ndarray, plan: tuple | None = None) -> np.ndarray:
    """Apply ``mat`` to the given subsystem axes of a flat amplitude array.

    ``amps`` has shape ``(prod(dims),)`` or ``(prod(dims), k)``. The matrix
    row/column index runs over the target subsystems in the order given by
    ``axes``, big-endian (first axis is the most significant digit). Returns
    a new array of the same shape; the input is never written. ``plan`` is
    ``kernel_plan(mat, dims, axes)``, looked up here when not given.
    """
    shape, phase, src, perm, inverse = plan or kernel_plan(mat, dims, axes)
    if perm is not None:  # dense
        m = mat.shape[0]
        adjacent = len(shape) == 3 and shape[1] == m  # the plan's (pre, m, rest) layout
        if not adjacent or m * amps.size <= GEMM_SERIAL_WORK:  # one zgemm
            t = amps.reshape(shape).transpose(perm)
            out = (mat @ t.reshape(m, -1)).reshape(t.shape)
            return np.ascontiguousarray(out.transpose(inverse)).reshape(amps.shape)
        out = np.empty(amps.shape, np.complex128)
        _matmul_blocks(mat, amps.reshape(shape), out.reshape(shape))
        return out
    if src is None:  # diagonal
        return (amps.reshape(shape) * phase).reshape(amps.shape)
    out = np.take(amps, src, axis=0)
    if phase is not None:
        view = out.reshape(shape)
        view *= phase
    return out
