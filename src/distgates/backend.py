"""Hot statevector kernel: apply a small matrix to some subsystems of a register.

Amplitudes may carry trailing batch axes (one column per input state); the
kernel treats them like untouched subsystems, so a batch of states costs one
call instead of one per state.
"""

from __future__ import annotations

import numpy as np


def apply_matrix(amps: np.ndarray, dims: tuple[int, ...], axes: tuple[int, ...],
                 mat: np.ndarray) -> np.ndarray:
    """Apply ``mat`` to the given subsystem axes of a flat amplitude array.

    ``amps`` has shape ``(prod(dims),)`` or ``(prod(dims), k)``. The matrix
    row/column index runs over the target subsystems in the order given by
    ``axes``, big-endian (first axis is the most significant digit). Returns a
    new array of the same shape; the input is never modified.
    """
    shape = tuple(dims) + amps.shape[1:]
    perm = list(axes) + [i for i in range(len(shape)) if i not in axes]
    inverse = [0] * len(perm)
    for position, axis in enumerate(perm):
        inverse[axis] = position
    t = amps.reshape(shape).transpose(perm)
    out = (mat @ t.reshape(mat.shape[0], -1)).reshape(t.shape)
    return np.ascontiguousarray(out.transpose(inverse)).reshape(amps.shape)
