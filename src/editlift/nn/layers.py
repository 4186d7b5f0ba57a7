"""Layer forward/backward passes. Batched arrays are [batch, features] for
dense layers and [time, batch, features] for sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = 1e-12


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, both from e^-|x|,
    # so neither branch overflows
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _identity(x):
    return x


ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0), lambda out: (out > 0.0).astype(np.float64)),
    "sigmoid": (_sigmoid, lambda out: out * (1.0 - out)),
    "identity": (_identity, lambda out: np.ones_like(out)),
}


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape=None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


@dataclass
class DenseLayer:
    weights: np.ndarray  # [in, out]
    bias: np.ndarray     # [out]
    activation: str = "identity"

    @classmethod
    def init(cls, rng: np.random.Generator, n_in: int, n_out: int,
             activation: str = "identity") -> "DenseLayer":
        return cls(
            weights=xavier_uniform(rng, n_in, n_out),
            bias=np.zeros(n_out, dtype=np.float64),
            activation=activation,
        )


def forward_dense(layer: DenseLayer, x: np.ndarray):
    """activation(x @ W + b); returns (output, cache) for the backward pass."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != layer.weights.shape[0]:
        raise ValueError(
            f"dense input has {x.shape[-1]} features, layer expects {layer.weights.shape[0]}"
        )
    act, _ = ACTIVATIONS[layer.activation]
    out = act(x @ layer.weights + layer.bias)
    return out, (x, out)


def binary_cross_entropy(prediction: float | np.ndarray, label: float | np.ndarray) -> float:
    """-(y ln p + (1-y) ln (1-p)) with p clamped away from 0 and 1."""
    p = np.clip(np.asarray(prediction, dtype=np.float64), EPS, 1.0 - EPS)
    y = np.asarray(label, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


@dataclass
class GruCell:
    """Gated recurrent unit with the standard gate equations.

    update  z = sigmoid(x Wz + h Uz + bz)
    reset   r = sigmoid(x Wr + h Ur + br)
    candidate c = tanh(x Wc + (r * h) Uc + bc)
    next    h' = (1 - z) * h + z * c
    """

    wz: np.ndarray
    wr: np.ndarray
    wc: np.ndarray
    uz: np.ndarray
    ur: np.ndarray
    uc: np.ndarray
    bz: np.ndarray
    br: np.ndarray
    bc: np.ndarray

    @classmethod
    def init(cls, rng: np.random.Generator, n_in: int, n_hidden: int) -> "GruCell":
        def w():
            return xavier_uniform(rng, n_in, n_hidden)

        def u():
            return xavier_uniform(rng, n_hidden, n_hidden)

        zeros = lambda: np.zeros(n_hidden, dtype=np.float64)
        return cls(wz=w(), wr=w(), wc=w(), uz=u(), ur=u(), uc=u(),
                   bz=zeros(), br=zeros(), bc=zeros())

    @property
    def hidden_size(self) -> int:
        return self.wz.shape[1]

    def step(self, x: np.ndarray, h: np.ndarray):
        z = _sigmoid(x @ self.wz + h @ self.uz + self.bz)
        r = _sigmoid(x @ self.wr + h @ self.ur + self.br)
        rh = r * h
        c = np.tanh(x @ self.wc + rh @ self.uc + self.bc)
        h_new = (1.0 - z) * h + z * c
        return h_new, (x, h, z, r, rh, c)

    def step_backward(self, dh_new: np.ndarray, cache, grads: dict, prefix: str):
        """Accumulate parameter gradients into `grads` (keys prefixed) and
        return (dx, dh_prev)."""
        x, h, z, r, rh, c = cache
        dz = dh_new * (c - h)
        dc = dh_new * z
        dh = dh_new * (1.0 - z)

        dc_pre = dc * (1.0 - c * c)
        grads[prefix + "wc"] += x.T @ dc_pre
        grads[prefix + "uc"] += rh.T @ dc_pre
        grads[prefix + "bc"] += dc_pre.sum(axis=0)
        drh = dc_pre @ self.uc.T
        dr = drh * h
        dh += drh * r

        dz_pre = dz * z * (1.0 - z)
        dr_pre = dr * r * (1.0 - r)
        grads[prefix + "wz"] += x.T @ dz_pre
        grads[prefix + "uz"] += h.T @ dz_pre
        grads[prefix + "bz"] += dz_pre.sum(axis=0)
        grads[prefix + "wr"] += x.T @ dr_pre
        grads[prefix + "ur"] += h.T @ dr_pre
        grads[prefix + "br"] += dr_pre.sum(axis=0)

        dh += dz_pre @ self.uz.T + dr_pre @ self.ur.T
        dx = dz_pre @ self.wz.T + dr_pre @ self.wr.T + dc_pre @ self.wc.T
        return dx, dh

    def run(self, xs: np.ndarray):
        """Run over a [T, B, I] sequence from zero state; returns ([T, B, H], caches)."""
        t_len, batch, _ = xs.shape
        h = np.zeros((batch, self.hidden_size), dtype=np.float64)
        states = np.empty((t_len, batch, self.hidden_size), dtype=np.float64)
        caches = []
        for t in range(t_len):
            h, cache = self.step(xs[t], h)
            states[t] = h
            caches.append(cache)
        return states, caches

    def run_backward(self, dstates: np.ndarray, caches, grads: dict, prefix: str):
        """Backprop through time for `run`; returns d(inputs) of shape [T, B, I]."""
        t_len = dstates.shape[0]
        dxs = np.empty((t_len,) + caches[0][0].shape, dtype=np.float64)
        dh = np.zeros_like(dstates[0])
        for t in range(t_len - 1, -1, -1):
            dx, dh = self.step_backward(dstates[t] + dh, caches[t], grads, prefix)
            dxs[t] = dx
        return dxs


def forward_gru_bidirectional(forward_cell: GruCell, backward_cell: GruCell,
                              sequence: np.ndarray) -> np.ndarray:
    """Hidden states [T, 2H] for a single [T, I] sequence.

    Slot t concatenates the forward state after consuming tokens 1..t with
    the backward state after consuming tokens T..t.
    """
    xs = np.asarray(sequence, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise ValueError("sequence must be a non-empty [T, features] array")
    batched = xs[:, None, :]
    fwd, _ = forward_cell.run(batched)
    bwd, _ = backward_cell.run(batched[::-1])
    return np.concatenate([fwd[:, 0, :], bwd[::-1][:, 0, :]], axis=1)


@dataclass
class AttentionHead:
    """Additive attention: tanh-project states, score against a learned
    context vector, softmax over time."""

    projection: np.ndarray  # [D, P]
    proj_bias: np.ndarray   # [P]
    context: np.ndarray     # [P]

    @classmethod
    def init(cls, rng: np.random.Generator, state_size: int, proj_size: int) -> "AttentionHead":
        return cls(
            projection=xavier_uniform(rng, state_size, proj_size),
            proj_bias=np.zeros(proj_size, dtype=np.float64),
            context=xavier_uniform(rng, proj_size, 1, shape=(proj_size,)),
        )

    def forward(self, states: np.ndarray):
        """states [T, B, D] -> (pooled [B, D], weights [T, B], cache)."""
        u = np.tanh(states @ self.projection + self.proj_bias)  # [T, B, P]
        scores = u @ self.context                               # [T, B]
        scores = scores - scores.max(axis=0, keepdims=True)
        e = np.exp(scores)
        weights = e / e.sum(axis=0, keepdims=True)
        pooled = np.einsum("tb,tbd->bd", weights, states)
        return pooled, weights, (states, u, weights)

    def backward(self, dpooled: np.ndarray, cache, grads: dict, prefix: str):
        """Returns d(states) [T, B, D]; accumulates parameter grads."""
        states, u, weights = cache
        dstates = weights[:, :, None] * dpooled[None, :, :]
        dweights = np.einsum("bd,tbd->tb", dpooled, states)
        # softmax over the time axis
        dscores = weights * (dweights - (weights * dweights).sum(axis=0, keepdims=True))
        grads[prefix + "context"] += np.einsum("tb,tbp->p", dscores, u)
        du = dscores[:, :, None] * self.context[None, None, :]
        du_pre = du * (1.0 - u * u)
        grads[prefix + "projection"] += np.einsum("tbd,tbp->dp", states, du_pre)
        grads[prefix + "proj_bias"] += du_pre.sum(axis=(0, 1))
        dstates += du_pre @ self.projection.T
        return dstates


def attend(head: AttentionHead, states: np.ndarray):
    """Single-sequence attention: [T, D] -> (context [D], weights [T])."""
    arr = np.asarray(states, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("states must be a non-empty [T, D] array")
    pooled, weights, _ = head.forward(arr[:, None, :])
    return pooled[0], weights[:, 0]
