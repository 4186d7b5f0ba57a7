"""The two fixed architectures: a feed-forward binary classifier and a
bidirectional GRU sequence classifier with attention pooling.

Each network keeps its parameters in one flat float64 buffer with named
views (`buffer`, a ParamBuffer; `params` maps names to the views) and
writes its gradients into a second buffer of the same layout. `buffer` plus
loss_and_grads() is the whole contract the optimizer and the gradient
checker need. The gradients loss_and_grads() returns are views into the
gradient buffer, valid until the next call.
"""

from __future__ import annotations

import numpy as np

from .layers import (
    ACTIVATIONS,
    AttentionHead,
    DenseLayer,
    GruCell,
    forward_dense,
    xavier_uniform,
    EPS,
    _sigmoid,
)
from .params import ParamBuffer


class Mlp:
    """Fully-connected classifier (sigmoid output, binary cross-entropy) or
    regressor (mean squared error).

    `l2_penalty` adds penalty = lambda * sum(W^2) over the weights of the
    layer at `l2_layer` (default: the last hidden layer) to the training
    loss; its gradient contribution is 2 * lambda * W.
    """

    def __init__(self, layer_sizes, activations=None, seed: int = 0,
                 loss: str = "bce", l2_penalty: float = 0.0, l2_layer: int | None = None):
        if len(layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output sizes")
        n_layers = len(layer_sizes) - 1
        if activations is None:
            activations = ["relu"] * (n_layers - 1) + ["sigmoid" if loss == "bce" else "identity"]
        if len(activations) != n_layers:
            raise ValueError("one activation per layer required")
        if loss not in ("bce", "mse"):
            raise ValueError(f"unknown loss {loss!r}")
        if loss == "bce" and activations[-1] != "sigmoid":
            raise ValueError("loss 'bce' needs a sigmoid output layer")
        rng = np.random.default_rng(seed)
        self.layers = [
            DenseLayer.init(rng, layer_sizes[i], layer_sizes[i + 1], activations[i])
            for i in range(n_layers)
        ]
        self.buffer = ParamBuffer.adopt(
            [(f"{kind}{i}", layer, attr)
             for i, layer in enumerate(self.layers)
             for kind, attr in (("w", "weights"), ("b", "bias"))]
        )
        self.loss = loss
        self.l2_penalty = float(l2_penalty)
        if l2_layer is None:
            l2_layer = n_layers - 2 if n_layers >= 2 else 0
        self.l2_layer = int(l2_layer)
        self.seed = seed

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Named views into the parameter buffer: w0, b0, w1, b1, ..."""
        return dict(self.buffer.params)

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        self.buffer.assign(params)

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out, _ = forward_dense(layer, out)
        return out[:, 0] if out.shape[-1] == 1 else out

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray):
        """Mean loss over a batch x [n, features] with targets y [n], and the
        gradient of every parameter.

        The gradients are views into the network's gradient buffer, valid
        until the next call.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        n = x.shape[0]
        acts = [x]  # input of each layer, then the network output
        for layer in self.layers:
            act, _ = ACTIVATIONS[layer.activation]
            z = acts[-1] @ layer.weights
            z += layer.bias
            acts.append(act(z))
        pred = acts[-1][:, 0]

        last = len(self.layers) - 1
        if self.loss == "bce":
            p = np.clip(pred, EPS, 1.0 - EPS)
            value = float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
            # combined sigmoid+BCE gradient w.r.t. the pre-activation
            dz = ((pred - y) / n)[:, None]
        else:
            diff = pred - y
            value = float(np.mean(diff * diff))
            _, act_grad = ACTIVATIONS[self.layers[last].activation]
            dz = (2.0 * diff / n)[:, None] * act_grad(acts[-1])

        grads = self.buffer.grad_views
        for i in range(last, -1, -1):
            layer = self.layers[i]
            if i < last:
                _, act_grad = ACTIVATIONS[layer.activation]
                dz = dx * act_grad(acts[i + 1])
            np.matmul(acts[i].T, dz, out=grads[f"w{i}"])
            np.sum(dz, axis=0, out=grads[f"b{i}"])
            if i > 0:
                dx = dz @ layer.weights.T

        if self.l2_penalty > 0.0:
            w = self.layers[self.l2_layer].weights
            value += self.l2_penalty * float(np.vdot(w, w))
            grads[f"w{self.l2_layer}"] += 2.0 * self.l2_penalty * w
        return value, grads


class SequenceClassifier:
    """Token sequences -> sigmoid score, via trainable token vectors, a
    bidirectional GRU, attention pooling, and a dense output unit.

    Sequences are lists/arrays of integer token ids; id 0 is reserved for the
    unknown token.
    """

    UNKNOWN_ID = 0

    def __init__(self, vocab_size: int, embed_size: int = 50, hidden_size: int = 64,
                 attention_size: int | None = None, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.embed = rng.normal(0.0, 0.1, size=(vocab_size, embed_size))
        self.fwd = GruCell.init(rng, embed_size, hidden_size)
        self.bwd = GruCell.init(rng, embed_size, hidden_size)
        if attention_size is None:
            attention_size = hidden_size
        self.attention = AttentionHead.init(rng, 2 * hidden_size, attention_size)
        self.out_w = xavier_uniform(rng, 2 * hidden_size, 1, shape=(2 * hidden_size,))
        self.out_b = np.zeros(1, dtype=np.float64)
        self.buffer = ParamBuffer.adopt(
            [("embed", self, "embed"), ("out_w", self, "out_w"), ("out_b", self, "out_b")]
            + [(prefix + gate, cell, gate)
               for prefix, cell in (("f_", self.fwd), ("b_", self.bwd))
               for gate in ("wz", "wr", "wc", "uz", "ur", "uc", "bz", "br", "bc")]
            + [("a_" + field, self.attention, field)
               for field in ("projection", "proj_bias", "context")]
        )
        self.vocab_size = vocab_size
        self.embed_size = embed_size
        self.hidden_size = hidden_size
        self.attention_size = attention_size
        self.seed = seed

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Named views into the parameter buffer: embed, out_w, out_b, the
        forward (f_) and backward (b_) GRU gates, then the attention head (a_)."""
        return dict(self.buffer.params)

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        self.buffer.assign(params)

    def _forward_batch(self, ids: np.ndarray):
        """ids [B, T] (equal lengths) -> (scores [B], cache)."""
        xs = self.embed[ids].transpose(1, 0, 2)  # [T, B, E]
        fwd_states, fwd_caches = self.fwd.run(xs)
        bwd_states, bwd_caches = self.bwd.run(xs[::-1])
        states = np.concatenate([fwd_states, bwd_states[::-1]], axis=2)  # [T, B, 2H]
        pooled, weights, att_cache = self.attention.forward(states)
        logits = pooled @ self.out_w + self.out_b[0]
        scores = _sigmoid(logits)
        return scores, (ids, fwd_caches, bwd_caches, att_cache, pooled)

    def score_batch(self, sequences) -> np.ndarray:
        """Score a list of variable-length id sequences."""
        scores = np.empty(len(sequences), dtype=np.float64)
        for length, idxs in _group_by_length(sequences).items():
            batch = np.asarray([sequences[i] for i in idxs], dtype=np.int64)
            s, _ = self._forward_batch(batch)
            scores[idxs] = s
        return scores

    def loss_and_grads(self, sequences, labels):
        """Mean BCE over a batch of variable-length sequences, and the gradient
        of every parameter.

        The gradients are views into the network's gradient buffer, valid
        until the next call.
        """
        labels = np.asarray(labels, dtype=np.float64).reshape(-1)
        n = len(sequences)
        self.buffer.grads.fill(0.0)
        grads = self.buffer.grad_views
        total = 0.0
        for length, idxs in _group_by_length(sequences).items():
            batch = np.asarray([sequences[i] for i in idxs], dtype=np.int64)
            y = labels[idxs]
            scores, cache = self._forward_batch(batch)
            p = np.clip(scores, EPS, 1.0 - EPS)
            total += float(np.sum(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
            # d(loss)/d(logit) for sigmoid+BCE, normalized by the full batch
            dlogits = (scores - y) / n
            self._backward_batch(dlogits, cache, grads)
        return total / n, grads

    def _backward_batch(self, dlogits: np.ndarray, cache, grads: dict):
        ids, fwd_caches, bwd_caches, att_cache, pooled = cache
        grads["out_w"] += pooled.T @ dlogits
        grads["out_b"][0] += dlogits.sum()
        dpooled = dlogits[:, None] * self.out_w[None, :]
        dstates = self.attention.backward(dpooled, att_cache, grads, "a_")
        h = self.hidden_size
        dxs_f = self.fwd.run_backward(dstates[:, :, :h], fwd_caches, grads, "f_")
        dxs_b = self.bwd.run_backward(dstates[::-1, :, h:], bwd_caches, grads, "b_")
        dxs = dxs_f + dxs_b[::-1]  # [T, B, E]
        np.add.at(grads["embed"], ids, dxs.transpose(1, 0, 2))


def _group_by_length(sequences) -> dict[int, list[int]]:
    """Bucket sequence indices by length, insertion-ordered for determinism."""
    groups: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        if len(seq) == 0:
            raise ValueError("cannot process an empty token sequence")
        groups.setdefault(len(seq), []).append(i)
    return groups
