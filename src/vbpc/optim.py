"""Adam with bias correction and the cosine schedule.

`adam_step` updates the moment buffers of its state in place and returns
the parameters as new read-only arrays; it never writes to the parameters
or gradients it is given. It walks each block in slices of one byte size
whatever the dtype, so a step streams every buffer through memory once
instead of once per elementwise operation. A block of at least 2 * SLICE
elements is cut where `_twocore._cut` puts it, into two halves of equal
length to within `_twocore.LANES` elements, and the second half runs on a
second core (`_twocore._halves`) with its own scratch buffers. Every
element goes through the same operations in any case, so the result does
not depend on the number of cores.

A state has one dtype, its parameters': float32 moments for float32
parameters, float64 for any other (`AdamState.init`), as mixed-precision
training keeps each optimizer state in the dtype of the weights it
updates. A step takes parameters and gradients of that dtype only, and
every op runs in it with no cast. The scalar constants are Python floats,
which take the dtype of the buffer they meet, so the same ops run in either
dtype, and each gives the textbook expression's bits in that dtype. A
learning rate beyond the dtype's range is refused before any moment moves.
The coreset's images, a pool slot and the evaluation net have float32
states, as their parameters are; the coreset's labels a float64 one.

Each slice of sqrt(v/c2) + EPS and of the result is checked finite while
it is in cache. So an overflowing second moment, which would give the
parameter a step of zero for good, raises instead. The parameters
`adam_step` returns are read-only, so the tape adopts them without a copy,
and `ndiff.Array` checks that they are finite as it adopts them.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _twocore
from .ndiff import NonFiniteError, _kept_dtype

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# The bytes of one slice of the blocked update, in float64 elements: a
# slice of float32 moments is 2 * SLICE elements long. Each ufunc call on a
# slice releases and retakes the interpreter lock, so while two halves run,
# every call is a handoff between their threads: slices must be long enough
# that the ops, not the handoffs, take the time. One slice's p, g, out, m,
# v and two scratch buffers take 3.5 MiB, more than a core's L2 on a 2-vCPU
# host with 2 MiB per core, yet shorter slices were not faster there: a
# float32 Adam step at perfbench `wide`'s pool shapes, timed alone, took a
# median 6.2, 7.4 and 10.2 ms at SLICE 65536, 32768 and 16384. A block of
# at least 2 * SLICE elements, whatever their dtype, is cut.
SLICE = 65536


@dataclass
class AdamState:
    """First/second moment accumulators per parameter block, all of one
    dtype, float32 or float64; `adam_step` updates them in place."""

    m: list
    v: list
    t: int = 0

    @classmethod
    def init(cls, params):
        """Zero moments of each block's shape, in its parameter's dtype if
        that is float32, else in float64."""
        return cls(m=[np.zeros_like(p, dtype=_kept_dtype(p), order="C") for p in params],
                   v=[np.zeros_like(p, dtype=_kept_dtype(p), order="C") for p in params])


def adam_step(state, params, grads, lr):
    """One bias-corrected adaptive-moment update.

    Updates `state` in place and returns (state, new_params), the new
    parameters as fresh read-only arrays of the state's dtype. Per element,
    in this order and in that dtype: m = BETA1*m + (1-BETA1)*g,
    v = BETA2*v + ((1-BETA2)*g)*g, step = (lr*(m/c1)) / (sqrt(v/c2) + EPS),
    p - step. A parameter or gradient of another dtype than the state's
    raises ValueError; a learning rate beyond the dtype's range, a
    non-finite sqrt(v/c2) + EPS or a non-finite new parameter raises
    NonFiniteError.
    """
    if not len(params) == len(grads) == len(state.m) == len(state.v):
        raise ValueError("parameter/gradient/state block counts differ")
    dtype = state.m[0].dtype if state.m else np.dtype(np.float64)
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if not np.shape(p) == np.shape(g) == m.shape == v.shape:
            raise ValueError(f"block shapes differ: parameter {np.shape(p)}, "
                             f"gradient {np.shape(g)}, state {m.shape}")
        if not (m.flags.c_contiguous and v.flags.c_contiguous):
            raise ValueError("moment buffers must be C-contiguous: they are "
                             "updated in place through flat views")
        if not m.dtype == v.dtype == dtype:
            raise ValueError(f"moment dtypes differ: {m.dtype}, {v.dtype}, {dtype}")
        if not p.dtype == g.dtype == dtype:
            raise ValueError(f"parameter {p.dtype} and gradient {g.dtype} must "
                             f"be of the state's dtype, {dtype}")
    lr = float(lr)
    if not abs(lr) <= float(np.finfo(dtype).max):
        # the ops would cast lr to inf, with a warning, and fail at the update
        raise NonFiniteError(f"adam_step: learning rate {lr:.3e} beyond "
                             f"{dtype.name}'s range")
    state.t += 1
    # Python floats, which numpy 2 casts to the moments' dtype in each op
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    mids = [_twocore._cut(m.size) if m.size >= 2 * SLICE else 0 for m in state.m]
    # a pair of scratch buffers per half, as long as a slice of this dtype
    # or, if shorter, as the largest block: the update walks its elements in
    # slices of the scratch buffers' length
    n = min(SLICE * 8 // dtype.itemsize, max((m.size for m in state.m), default=0))
    scratch = [(np.empty(n, dtype), np.empty(n, dtype)) for _ in range(1 + any(mids))]
    new_params = []
    for p, g, m, v, mid in zip(params, grads, state.m, state.v, mids):
        p, g = np.ascontiguousarray(p), np.ascontiguousarray(g)
        out = np.empty(m.shape, dtype)
        flats = (p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1),
                 out.reshape(-1))
        if mid:
            _twocore._halves(lambda: _update(flats, 0, mid, scratch[0], c1, c2, lr),
                             lambda: _update(flats, mid, m.size, scratch[1], c1, c2, lr))
        else:
            _update(flats, 0, m.size, scratch[0], c1, c2, lr)
        out.flags.writeable = False
        new_params.append(out)
    return state, new_params


def _update(flats, lo, hi, scratch, c1, c2, lr):
    """Adam on elements [lo, hi) of the flat (p, g, m, v, out) buffers, all
    of one dtype, in slices as long as the two `scratch` buffers."""
    p_flat, g_flat, m_flat, v_flat, out_flat = flats
    a, b = scratch
    for start in range(lo, hi, len(a)):
        end = min(start + len(a), hi)
        gs, ms, vs = g_flat[start:end], m_flat[start:end], v_flat[start:end]
        sa, sb = a[:end - start], b[:end - start]
        np.multiply(ms, BETA1, out=ms)
        np.multiply(gs, 1.0 - BETA1, out=sa)
        np.add(ms, sa, out=ms)
        np.multiply(vs, BETA2, out=vs)
        np.multiply(gs, 1.0 - BETA2, out=sa)
        np.multiply(sa, gs, out=sa)
        np.add(vs, sa, out=vs)
        np.divide(ms, c1, out=sa)
        np.multiply(sa, lr, out=sa)
        np.divide(vs, c2, out=sb)
        np.sqrt(sb, out=sb)
        np.add(sb, EPS, out=sb)
        if not np.isfinite(sb).all():
            raise NonFiniteError("adam_step: non-finite second moment")
        np.divide(sa, sb, out=sa)
        np.subtract(p_flat[start:end], sa, out=out_flat[start:end])
        if not np.isfinite(out_flat[start:end]).all():
            raise NonFiniteError("adam_step: non-finite parameter update")


def cosine_lr(step, total, base):
    """Single-cycle cosine decay: base at step 0, zero at step = total."""
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    return base * 0.5 * (1.0 + math.cos(math.pi * step / total))
