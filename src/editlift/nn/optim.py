"""Adam with global-norm gradient clipping, on a network's flat buffers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import ParamBuffer

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
CLIP_NORM = 5.0  # global L2 norm the gradients are scaled down to


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    step_count: int = 0
    # moment estimates and two scratch arrays, allocated on the first step to
    # the size of the buffer being optimized
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)


def adam_step(state: AdamState, buffer: ParamBuffer) -> None:
    """One in-place bias-corrected Adam update of `buffer.values` from
    `buffer.grads`.

    When the gradients' global L2 norm exceeds CLIP_NORM, they are
    first scaled in place, in `buffer.grads`, down to that norm. Raises
    FloatingPointError, naming the parameter, on a non-finite gradient.
    """
    g = buffer.grads
    norm_sq = float(g @ g)  # non-finite iff some gradient is, or the square overflowed
    if not math.isfinite(norm_sq):
        bad = np.flatnonzero(~np.isfinite(g))
        if bad.size:
            name = buffer.name_at(int(bad[0]))
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    if state.m is None:
        state.m = np.zeros_like(g)
        state.v = np.zeros_like(g)
        state.scratch = (np.empty_like(g), np.empty_like(g))
    elif state.m.shape != g.shape:
        raise ValueError(f"optimizer state holds {state.m.size} values, buffer has {g.size}")
    norm = math.sqrt(norm_sq)
    if norm > CLIP_NORM:
        g *= CLIP_NORM / norm
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    m, v = state.m, state.v
    a, b = state.scratch
    # m = beta1 m + (1 - beta1) g;  v = beta2 v + ((1 - beta2) g) g
    m *= BETA1
    np.multiply(g, 1.0 - BETA1, out=a)
    m += a
    v *= BETA2
    np.multiply(g, 1.0 - BETA2, out=a)
    a *= g
    v += a
    # values -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
    np.divide(m, bc1, out=a)
    a *= state.learning_rate
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += EPSILON
    a /= b
    buffer.values -= a
