"""The two fixed architectures: the feed-forward propensity network and a
bidirectional GRU sequence classifier with attention pooling.

Each network keeps its parameters in one flat float64 buffer with named
views (`buffer`, a ParamBuffer) and writes its gradients into a second
buffer of the same layout. The optimizer reads only `buffer`, after a call
has filled its gradients: `Mlp.gradients` for the propensity network (no
loss value, no input conversion) and `SequenceClassifier.loss_and_grads`
for the classifier. Each network's loss_and_grads() also returns the loss,
for the tests' gradient checker; the gradients it returns are views into
the gradient buffer, valid until the next call.
"""

from __future__ import annotations

import numpy as np

from .layers import (
    AttentionHead,
    GruCell,
    binary_cross_entropy,
    xavier_uniform,
    _sigmoid,
)
from .params import ParamBuffer


class Mlp:
    """The propensity network: fully-connected ReLU hidden layers and one
    sigmoid output unit, trained on binary cross-entropy.

    `layer_sizes` is [inputs, hidden..., 1] with at least one hidden layer.
    `l2_penalty` adds penalty = lambda * sum(W^2) over the last hidden
    layer's weights to the training loss; its gradient contribution is
    2 * lambda * W.
    """

    def __init__(self, layer_sizes, seed: int = 0, l2_penalty: float = 0.0):
        if len(layer_sizes) < 3:
            raise ValueError("layer_sizes needs input, hidden and output sizes")
        rng = np.random.default_rng(seed)
        arrays = {}
        for i, (n_in, n_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            arrays[f"w{i}"] = xavier_uniform(rng, n_in, n_out)
            arrays[f"b{i}"] = np.zeros(n_out, dtype=np.float64)
        self.buffer = ParamBuffer(arrays)
        params = self.buffer.params
        # (weights [in, out], bias [out]) of each layer: views into the buffer
        self.layers = [(params[f"w{i}"], params[f"b{i}"]) for i in range(len(layer_sizes) - 1)]
        self.l2_penalty = float(l2_penalty)
        self.l2_layer = len(self.layers) - 2

    def _forward(self, x: np.ndarray) -> list[np.ndarray]:
        """The input of each layer, then the network's output [n, 1]; the one
        forward pass of `predict` and `gradients`. x must be float64."""
        acts = [x]
        last = len(self.layers) - 1
        for i, (weights, bias) in enumerate(self.layers):
            z = acts[-1] @ weights
            z += bias
            acts.append(_sigmoid(z) if i == last else np.maximum(z, 0.0, out=z))
        return acts

    def predict(self, x: np.ndarray) -> np.ndarray:
        """[n] output of the network for x [n, features]."""
        return self._forward(np.asarray(x, dtype=np.float64))[-1][:, 0]

    def gradients(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Write the gradient of the mean batch loss into the gradient buffer
        and return the network's output [n] for the batch.

        x must be a float64 array [n, features] and y a float64 array [n];
        this is the training step, so nothing is converted or checked, and
        no loss value is computed.
        """
        acts = self._forward(x)
        last = len(self.layers) - 1
        pred = acts[-1][:, 0]

        # combined sigmoid+BCE gradient w.r.t. the output pre-activation
        dz = ((pred - y) / len(y))[:, None]
        grads = self.buffer.grad_views
        for i in range(last, -1, -1):
            if i < last:
                # the ReLU derivative is the boolean mask: multiplying by it
                # is exact, and dx is this step's own array
                dz = np.multiply(dx, acts[i + 1] > 0.0, out=dx)
            np.matmul(acts[i].T, dz, out=grads[f"w{i}"])
            np.add.reduce(dz, axis=0, out=grads[f"b{i}"])
            if i == last:
                # one output unit: dz @ W.T is a single product per entry
                dx = dz * self.layers[i][0][:, 0]
            elif i > 0:
                dx = dz @ self.layers[i][0].T

        if self.l2_penalty > 0.0:
            w = self.layers[self.l2_layer][0]
            grads[f"w{self.l2_layer}"] += 2.0 * self.l2_penalty * w
        return pred

    def loss_and_grads(self, x, y):
        """Mean loss over a batch x [n, features] with targets y [n], and the
        gradient of every parameter.

        The gradients are views into the network's gradient buffer, valid
        until the next call.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        value = binary_cross_entropy(self.gradients(x, y), y)
        if self.l2_penalty > 0.0:
            w = self.layers[self.l2_layer][0]
            value += self.l2_penalty * float(np.vdot(w, w))
        return value, self.buffer.grad_views


class SequenceClassifier:
    """Token sequences -> sigmoid score, via trainable token vectors, a
    bidirectional GRU, attention pooling, and a dense output unit.

    Sequences are lists/arrays of integer token ids; id 0 is reserved for the
    unknown token. The buffer names its parameters embed, out_w, out_b, the
    fused gate arrays w, u and b of the forward (f_) and backward (b_) GRU,
    then the attention head (a_), whose projection is `hidden_size` wide.
    """

    UNKNOWN_ID = 0

    def __init__(self, vocab_size: int, embed_size: int, hidden_size: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        # the draw order (embed, forward GRU, backward GRU, attention, out_w)
        # fixes every initial value, and with it every trained model
        embed = rng.normal(0.0, 0.1, size=(vocab_size, embed_size))
        layers = {"f_": GruCell.init(rng, embed_size, hidden_size),
                  "b_": GruCell.init(rng, embed_size, hidden_size),
                  "a_": AttentionHead.init(rng, 2 * hidden_size, hidden_size)}
        out_w = xavier_uniform(rng, 2 * hidden_size, 1, shape=(2 * hidden_size,))
        self.buffer = ParamBuffer({
            "embed": embed, "out_w": out_w, "out_b": np.zeros(1, dtype=np.float64),
            **{prefix + name: value for prefix, layer in layers.items()
               for name, value in vars(layer).items()}})
        params = self.buffer.params
        self.embed, self.out_w, self.out_b = params["embed"], params["out_w"], params["out_b"]
        # each layer holds views into the buffer, so optimizer steps and
        # `assign` reach it
        self.fwd, self.bwd, self.attention = (
            type(layer)(**{name: params[prefix + name] for name in vars(layer)})
            for prefix, layer in layers.items())
        self.vocab_size = vocab_size
        self.embed_size = embed_size
        self.hidden_size = hidden_size
        self.seed = seed

    def _forward_batch(self, ids: np.ndarray, valid: np.ndarray):
        """ids [B, T] -> (scores [B], cache). `valid` [T, B] marks the real
        tokens of a right-padded batch."""
        xs = self.embed[ids.T]  # [T, B, E]
        fwd_states, fwd_cache = self.fwd.run(xs, valid)
        # the backward direction reads the time-reversed batch, so a row's
        # padding comes first there and its state stays at zero through it
        bwd_states, bwd_cache = self.bwd.run(xs[::-1], valid[::-1])
        states = np.concatenate([fwd_states, bwd_states[::-1]], axis=2)  # [T, B, 2H]
        pooled, weights, att_cache = self.attention.forward(states, valid)
        logits = pooled @ self.out_w + self.out_b[0]
        scores = _sigmoid(logits)
        return scores, (ids, valid, fwd_cache, bwd_cache, att_cache, pooled)

    def score_batch(self, sequences) -> np.ndarray:
        """Score a list of variable-length id sequences.

        Each distinct sequence is scored once, in a batch of the distinct
        sequences of its length (so its mask is all true), and its score is
        copied to every repeat.
        """
        rows: dict[tuple, int] = {}
        inverse = np.fromiter((rows.setdefault(tuple(seq), len(rows)) for seq in sequences),
                              dtype=np.intp, count=len(sequences))
        distinct = list(rows)
        scores = np.empty(len(distinct), dtype=np.float64)
        for length, idxs in _group_by_length(distinct).items():
            batch = np.asarray([distinct[i] for i in idxs], dtype=np.int64)
            s, _ = self._forward_batch(batch, np.ones(batch.shape[::-1], dtype=bool))
            scores[idxs] = s
        return scores[inverse]

    def loss_and_grads(self, sequences, labels):
        """Mean BCE over a batch of variable-length sequences, and the gradient
        of every parameter.

        The batch runs as one right-padded [B, T] array with a validity mask,
        which is exact: padded steps change no state, weight or gradient.
        The gradients are views into the network's gradient buffer, valid
        until the next call.
        """
        labels = np.asarray(labels, dtype=np.float64).reshape(-1)
        ids, valid = _pad(sequences)
        self.buffer.grads.fill(0.0)
        grads = self.buffer.grad_views
        scores, cache = self._forward_batch(ids, valid)
        # d(loss)/d(logit) for sigmoid+BCE, normalized by the batch size
        self._backward_batch((scores - labels) / len(labels), cache, grads)
        return binary_cross_entropy(scores, labels), grads

    def _backward_batch(self, dlogits: np.ndarray, cache, grads: dict):
        ids, valid, fwd_cache, bwd_cache, att_cache, pooled = cache
        grads["out_w"] += pooled.T @ dlogits
        grads["out_b"][0] += dlogits.sum()
        dpooled = dlogits[:, None] * self.out_w[None, :]
        dstates = self.attention.backward(dpooled, att_cache, grads, "a_")
        h = self.hidden_size
        dxs_f = self.fwd.run_backward(dstates[:, :, :h], fwd_cache, grads, "f_")
        dxs_b = self.bwd.run_backward(dstates[::-1, :, h:], bwd_cache, grads, "b_")
        dxs = dxs_f + dxs_b[::-1]  # [T, B, E]
        # padding uses id 0, the unknown token's id: scatter real tokens only
        np.add.at(grads["embed"], ids.T[valid], dxs[valid])


def _pad(sequences) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id sequences with 0 into ids [B, T], with the validity mask
    [T, B] of their real tokens."""
    lengths = np.fromiter(map(len, sequences), dtype=np.intp, count=len(sequences))
    if lengths.min() == 0:
        raise ValueError("cannot process an empty token sequence")
    ids = np.zeros((len(sequences), int(lengths.max())), dtype=np.int64)
    for row, seq in zip(ids, sequences):
        row[:len(seq)] = seq
    return ids, np.arange(ids.shape[1])[:, None] < lengths


def _group_by_length(sequences) -> dict[int, list[int]]:
    """Bucket sequence indices by length, insertion-ordered for determinism."""
    groups: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        if len(seq) == 0:
            raise ValueError("cannot process an empty token sequence")
        groups.setdefault(len(seq), []).append(i)
    return groups
