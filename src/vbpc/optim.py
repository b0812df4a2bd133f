"""Adam with bias correction and the cosine schedule.

`adam_step` updates the moment buffers of its state in place and returns
the parameters as new read-only arrays; it never writes to the parameters
or gradients it is given. It walks each block in cache-sized slices, so a
step streams every buffer through memory once instead of once per
elementwise operation. A block of two slices or more is cut at a slice
boundary into two halves, and the second half runs on a second core
(`_twocore._halves`) with its own scratch buffers. Every element goes
through the same operations in any case, so the result does not depend on
the number of cores. Each slice of the result is checked finite while it is
in cache, so the parameters `adam_step` returns need no further check:
they are read-only and stay finite (`ndiff._adopt_checked`).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _twocore
from .ndiff import NonFiniteError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# Elements per slice of the blocked update: two float64 scratch buffers of
# this size (128 KiB each) stay in a core's L2 cache, one pair per half.
SLICE = 16384


@dataclass
class AdamState:
    """First/second moment accumulators per parameter block; `adam_step`
    updates them in place."""

    m: list
    v: list
    t: int = 0

    @classmethod
    def init(cls, params):
        return cls(m=[np.zeros_like(p, dtype=np.float64, order="C") for p in params],
                   v=[np.zeros_like(p, dtype=np.float64, order="C") for p in params])


def adam_step(state, params, grads, lr):
    """One bias-corrected adaptive-moment update.

    Updates `state` in place and returns (state, new_params), the new
    parameters as fresh read-only arrays. Per element, in this order:
    m = BETA1*m + (1-BETA1)*g, v = BETA2*v + ((1-BETA2)*g)*g,
    p - (lr*(m/c1)) / (sqrt(v/c2) + EPS). A non-finite new parameter
    raises NonFiniteError.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter/gradient/state block counts differ")
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if not np.shape(p) == np.shape(g) == m.shape == v.shape:
            raise ValueError(f"block shapes differ: parameter {np.shape(p)}, "
                             f"gradient {np.shape(g)}, state {m.shape}")
        if not (m.flags.c_contiguous and v.flags.c_contiguous):
            raise ValueError("moment buffers must be C-contiguous: they are "
                             "updated in place through flat views")
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    scratch = [(np.empty(SLICE), np.empty(SLICE)) for _ in range(2)]
    new_params = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        out = np.empty(m.shape)
        flats = (np.ascontiguousarray(p, dtype=np.float64).reshape(-1),
                 np.ascontiguousarray(g, dtype=np.float64).reshape(-1),
                 m.reshape(-1), v.reshape(-1), out.reshape(-1))
        mid = m.size // (2 * SLICE) * SLICE
        if mid:
            _twocore._halves(lambda: _update(flats, 0, mid, scratch[0], c1, c2, lr),
                             lambda: _update(flats, mid, m.size, scratch[1], c1, c2, lr))
        else:
            _update(flats, 0, m.size, scratch[0], c1, c2, lr)
        out.flags.writeable = False
        new_params.append(out)
    return state, new_params


def _update(flats, lo, hi, scratch, c1, c2, lr):
    """Adam on elements [lo, hi) of the flat (p, g, m, v, out) buffers,
    slice by slice, in the two slice-sized `scratch` buffers."""
    p_flat, g_flat, m_flat, v_flat, out_flat = flats
    a, b = scratch
    for start in range(lo, hi, SLICE):
        end = min(start + SLICE, hi)
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
        np.divide(sa, sb, out=sa)
        np.subtract(p_flat[start:end], sa, out=out_flat[start:end])
        if not np.isfinite(out_flat[start:end]).all():
            raise NonFiniteError("adam_step: non-finite parameter update")


def cosine_lr(step, total, base):
    """Single-cycle cosine decay: base at step 0, zero at step = total."""
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    return base * 0.5 * (1.0 + math.cos(math.pi * step / total))
