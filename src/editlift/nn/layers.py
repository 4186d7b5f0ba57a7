"""Building blocks of the two networks: the sigmoid, Xavier initialization,
binary cross-entropy, the GRU cell and the attention head. Sequence arrays
are [time, batch, features]."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = 1e-12


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, neither exp
    # overflowing: at x >= 0 the numerator e^min(x, 0) is exactly 1.0, and
    # below 0 it is e^-|x|, so both branches take one division
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape=None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


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

    The three gates are stored fused, side by side in z, r, c order:
    w = [Wz|Wr|Wc] [I, 3H], u = [Uz|Ur|Uc] [H, 3H] and b = [bz|br|bc] [3H].
    """

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    @classmethod
    def init(cls, rng: np.random.Generator, n_in: int, n_hidden: int) -> "GruCell":
        """Xavier-initialize each gate's matrix on its own fans, drawn in the
        order Wz, Wr, Wc, Uz, Ur, Uc; the biases start at zero."""
        w = [xavier_uniform(rng, n_in, n_hidden) for _ in range(3)]
        u = [xavier_uniform(rng, n_hidden, n_hidden) for _ in range(3)]
        return cls(w=np.concatenate(w, axis=1), u=np.concatenate(u, axis=1),
                   b=np.zeros(3 * n_hidden, dtype=np.float64))

    @property
    def hidden_size(self) -> int:
        return self.u.shape[0]

    def run(self, xs: np.ndarray, valid: np.ndarray):
        """Run over a [T, B, I] sequence from zero state; returns
        (states [T, B, H], cache).

        `valid` [T, B] marks the real tokens of a padded batch; at a step
        where row b is not valid its state carries over unchanged. The input
        projection of all T steps through w is one matmul before the loop, so
        each step takes one h [Uz|Ur] and one (r * h) Uc.

        The cache is (xs, hs, gates, rh, valid): hs [T + 1, B, H] holds the
        zero start state then each step's state, gates [T, B, 3H] the
        activations [z | r | c] and rh [T, B, H] the products r * h.
        """
        t_len, batch, n_in = xs.shape
        hid = self.hidden_size
        u_zr, u_c = self.u[:, :2 * hid], self.u[:, 2 * hid:]
        xp = (xs.reshape(t_len * batch, n_in) @ self.w).reshape(t_len, batch, 3 * hid)
        xp += self.b
        hs = np.zeros((t_len + 1, batch, hid), dtype=np.float64)
        gates = np.empty((t_len, batch, 3 * hid), dtype=np.float64)
        rh = np.empty((t_len, batch, hid), dtype=np.float64)
        # per step, whether some row of the batch is padding there
        for t, partial in enumerate((~valid.all(axis=1)).tolist()):
            h, g = hs[t], gates[t]
            g[:, :2 * hid] = _sigmoid(xp[t, :, :2 * hid] + h @ u_zr)
            z = g[:, :hid]
            np.multiply(g[:, hid:2 * hid], h, out=rh[t])
            c = np.tanh(xp[t, :, 2 * hid:] + rh[t] @ u_c, out=g[:, 2 * hid:])
            h_new = (1.0 - z) * h + z * c
            hs[t + 1] = np.where(valid[t][:, None], h_new, h) if partial else h_new
        return hs[1:], (xs, hs, gates, rh, valid)

    def run_backward(self, dstates: np.ndarray, cache, grads: dict, prefix: str):
        """Backprop through time for `run`; adds the parameter gradients into
        `grads` (keys prefix + "w", "u", "b") and returns d(inputs) [T, B, I].

        The loop only carries dh back through the recurrence and stores each
        step's gate pre-activation gradients [dz | dr | dc] (zero at padded
        steps); every weight gradient is then one matmul over all steps.
        """
        xs, hs, gates, rh, valid = cache
        t_len, batch, n_in = xs.shape
        hid = self.hidden_size
        h_prev = hs[:-1]
        z, r, c = gates[..., :hid], gates[..., hid:2 * hid], gates[..., 2 * hid:]
        # per-step factors of the gate derivatives, for all steps at once
        dc_coef = z * (1.0 - c * c)
        dz_coef = (c - h_prev) * z * (1.0 - z)
        dr_coef = h_prev * r * (1.0 - r)
        keep = 1.0 - z
        u_zr_t, u_c_t = self.u[:, :2 * hid].T, self.u[:, 2 * hid:].T
        dpre = np.empty((t_len, batch, 3 * hid), dtype=np.float64)
        dh = np.zeros((batch, hid), dtype=np.float64)
        partial = (~valid.all(axis=1)).tolist()
        for t in range(t_len - 1, -1, -1):
            d = dpre[t]
            dh_new = dstates[t] + dh
            dc = np.multiply(dh_new, dc_coef[t], out=d[:, 2 * hid:])
            drh = dc @ u_c_t
            np.multiply(dh_new, dz_coef[t], out=d[:, :hid])
            np.multiply(drh, dr_coef[t], out=d[:, hid:2 * hid])
            dh = dh_new * keep[t] + drh * r[t] + d[:, :2 * hid] @ u_zr_t
            if partial[t]:
                step = valid[t][:, None]
                d *= step
                dh = np.where(step, dh, dh_new)

        flat = dpre.reshape(t_len * batch, 3 * hid)
        grads[prefix + "w"] += xs.reshape(t_len * batch, n_in).T @ flat
        # z and r read h, the candidate reads r * h
        du = grads[prefix + "u"]
        du[:, :2 * hid] += h_prev.reshape(t_len * batch, hid).T @ flat[:, :2 * hid]
        du[:, 2 * hid:] += rh.reshape(t_len * batch, hid).T @ flat[:, 2 * hid:]
        grads[prefix + "b"] += flat.sum(axis=0)
        return (flat @ self.w.T).reshape(t_len, batch, n_in)


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

    def forward(self, states: np.ndarray, valid: np.ndarray):
        """states [T, B, D] -> (pooled [B, D], weights [T, B], cache).

        Positions outside `valid` [T, B] score -inf, so their weight is 0.
        """
        u = np.tanh(states @ self.projection + self.proj_bias)  # [T, B, P]
        scores = u @ self.context                               # [T, B]
        scores = np.where(valid, scores, -np.inf)
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
        # one [D, T*B] @ [T*B, P] matmul: einsum would not call BLAS here
        flat_states = states.reshape(-1, states.shape[-1])
        grads[prefix + "projection"] += flat_states.T @ du_pre.reshape(len(flat_states), -1)
        grads[prefix + "proj_bias"] += du_pre.sum(axis=(0, 1))
        dstates += du_pre @ self.projection.T
        return dstates

