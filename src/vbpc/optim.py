"""Adam with bias correction and the cosine schedule."""

import math
from dataclasses import dataclass

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators per parameter block."""

    m: list
    v: list
    t: int = 0

    @classmethod
    def init(cls, params):
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(state, params, grads, lr):
    """One bias-corrected adaptive-moment update. Functional: returns
    (new_state, new_params) and never mutates its inputs."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter/gradient/state block counts differ")
    t = state.t + 1
    new_m, new_v, new_p = [], [], []
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * g * g
        step = lr * (m / c1) / (np.sqrt(v / c2) + EPS)
        new_m.append(m)
        new_v.append(v)
        new_p.append(p - step)
    return AdamState(new_m, new_v, t), new_p


def cosine_lr(step, total, base):
    """Single-cycle cosine decay: base at step 0, zero at step = total."""
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    return base * 0.5 * (1.0 + math.cos(math.pi * step / total))
