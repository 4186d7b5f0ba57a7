import numpy as np
import pytest

from editlift import clickbait
from editlift.nn import (
    AdamState,
    AttentionHead,
    GruCell,
    Mlp,
    ParamBuffer,
    SequenceClassifier,
    adam_step,
    binary_cross_entropy,
    load_params,
    params_to_bytes,
)
from editlift.nn import optim
from editlift.nn.layers import EPS, _sigmoid

from conftest import check_gradients


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
    valid = np.ones((len(xs), 1), dtype=bool)
    fwd, _ = forward_cell.run(batched, valid)
    bwd, _ = backward_cell.run(batched[::-1], valid)
    return np.concatenate([fwd[:, 0, :], bwd[::-1][:, 0, :]], axis=1)


def attend(head: AttentionHead, states: np.ndarray):
    """Single-sequence attention: [T, D] -> (context [D], weights [T])."""
    arr = np.asarray(states, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("states must be a non-empty [T, D] array")
    pooled, weights, _ = head.forward(arr[:, None, :], np.ones((len(arr), 1), dtype=bool))
    return pooled[0], weights[:, 0]


# The step-by-step GRU and the length-grouped classifier that the fused,
# padded implementation replaced; the tests below compare against them. They
# work gate by gate, on the z, r and c slices of the cell's fused arrays.

def split_gates(array: np.ndarray) -> list[np.ndarray]:
    """The z, r and c views of a fused GRU array, whose last axis holds the
    three gates side by side."""
    return np.split(array, 3, axis=-1)


def reference_gru_step(cell: GruCell, x: np.ndarray, h: np.ndarray):
    (wz, wr, wc), (uz, ur, uc), (bz, br, bc) = map(split_gates, (cell.w, cell.u, cell.b))
    z = _sigmoid(x @ wz + h @ uz + bz)
    r = _sigmoid(x @ wr + h @ ur + br)
    rh = r * h
    c = np.tanh(x @ wc + rh @ uc + bc)
    h_new = (1.0 - z) * h + z * c
    return h_new, (x, h, z, r, rh, c)


def reference_gru_step_backward(cell: GruCell, dh_new, cache, grads: dict, prefix: str):
    (wz, wr, wc), (uz, ur, uc) = map(split_gates, (cell.w, cell.u))
    (gwz, gwr, gwc), (guz, gur, guc), (gbz, gbr, gbc) = (
        split_gates(grads[prefix + name]) for name in "wub")
    x, h, z, r, rh, c = cache
    dz = dh_new * (c - h)
    dc = dh_new * z
    dh = dh_new * (1.0 - z)
    dc_pre = dc * (1.0 - c * c)
    gwc += x.T @ dc_pre
    guc += rh.T @ dc_pre
    gbc += dc_pre.sum(axis=0)
    drh = dc_pre @ uc.T
    dr = drh * h
    dh += drh * r
    dz_pre = dz * z * (1.0 - z)
    dr_pre = dr * r * (1.0 - r)
    gwz += x.T @ dz_pre
    guz += h.T @ dz_pre
    gbz += dz_pre.sum(axis=0)
    gwr += x.T @ dr_pre
    gur += h.T @ dr_pre
    gbr += dr_pre.sum(axis=0)
    dh += dz_pre @ uz.T + dr_pre @ ur.T
    dx = dz_pre @ wz.T + dr_pre @ wr.T + dc_pre @ wc.T
    return dx, dh


def reference_gru_run(cell: GruCell, xs: np.ndarray):
    h = np.zeros((xs.shape[1], cell.hidden_size))
    states, caches = [], []
    for x in xs:
        h, cache = reference_gru_step(cell, x, h)
        states.append(h)
        caches.append(cache)
    return np.stack(states), caches


def reference_gru_run_backward(cell: GruCell, dstates, caches, grads: dict, prefix: str):
    dxs = [None] * len(caches)
    dh = np.zeros_like(dstates[0])
    for t in range(len(caches) - 1, -1, -1):
        dxs[t], dh = reference_gru_step_backward(cell, dstates[t] + dh, caches[t], grads, prefix)
    return np.stack(dxs)


def reference_loss_and_grads(model: SequenceClassifier, sequences, labels):
    """Mean BCE and gradients, one equal-length group at a time."""
    labels = np.asarray(labels, dtype=np.float64)
    grads = {name: np.zeros_like(value) for name, value in model.buffer.params.items()}
    groups: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        groups.setdefault(len(seq), []).append(i)
    n, total, hid = len(sequences), 0.0, model.hidden_size
    for idxs in groups.values():
        ids = np.asarray([sequences[i] for i in idxs], dtype=np.int64)
        y = labels[idxs]
        xs = model.embed[ids].transpose(1, 0, 2)
        fwd_states, fwd_caches = reference_gru_run(model.fwd, xs)
        bwd_states, bwd_caches = reference_gru_run(model.bwd, xs[::-1])
        states = np.concatenate([fwd_states, bwd_states[::-1]], axis=2)
        pooled, _, att_cache = model.attention.forward(states, np.ones(ids.shape[::-1], bool))
        scores = _sigmoid(pooled @ model.out_w + model.out_b[0])
        p = np.clip(scores, EPS, 1.0 - EPS)
        total += float(np.sum(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
        dlogits = (scores - y) / n
        grads["out_w"] += pooled.T @ dlogits
        grads["out_b"][0] += dlogits.sum()
        dstates = model.attention.backward(dlogits[:, None] * model.out_w[None, :],
                                           att_cache, grads, "a_")
        dxs_f = reference_gru_run_backward(model.fwd, dstates[:, :, :hid], fwd_caches, grads, "f_")
        dxs_b = reference_gru_run_backward(model.bwd, dstates[::-1, :, hid:], bwd_caches,
                                           grads, "b_")
        np.add.at(grads["embed"], ids, (dxs_f + dxs_b[::-1]).transpose(1, 0, 2))
    return total / n, grads


class TestDense:
    """The dense layers of the propensity network: ReLU hidden, sigmoid out."""

    @staticmethod
    def mlp(w0, w1):
        net = Mlp([w0.shape[0], w0.shape[1], 1])
        net.buffer.assign({"w0": w0, "b0": np.zeros(w0.shape[1]),
                           "w1": w1, "b1": np.zeros(1)})
        return net

    def test_relu(self):
        # the hidden layer passes [-1, 2] through ReLU; the output unit sums it
        net = self.mlp(np.eye(2), np.ones((2, 1)))
        assert net.predict(np.array([[-1.0, 2.0]]))[0] == _sigmoid(np.array(2.0))

    def test_sigmoid_at_zero(self):
        net = self.mlp(np.ones((2, 2)), np.zeros((2, 1)))
        assert net.predict(np.array([[5.0, -3.0]]))[0] == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            self.mlp(np.eye(3), np.ones((3, 1))).predict(np.ones((1, 4)))

    def test_predict_is_the_training_forward_pass(self):
        rng = np.random.default_rng(23)
        net = Mlp([5, 7, 4, 1], seed=3, l2_penalty=0.001)
        x = rng.normal(size=(9, 5))
        y = (rng.random(9) > 0.5).astype(float)
        assert np.array_equal(net.predict(x), net.gradients(x, y))


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    """The two-branch form: 1 / (1 + e^-x) at x >= 0, e^x / (1 + e^x) below."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


class TestSigmoid:
    @pytest.mark.parametrize("shape", [(32, 128), (64, 1)])
    def test_bits_equal_two_branch_form(self, shape):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                   745.0, -745.0, 800.0, -800.0]
        draws = np.random.default_rng(0).normal(scale=6.0, size=800_000)
        values = np.concatenate([special, draws])
        size = int(np.prod(shape))
        values = np.resize(values, -(-len(values) // size) * size).reshape(-1, *shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for block in values:
                assert np.array_equal(_sigmoid(block), reference_sigmoid(block), equal_nan=True)


class TestBce:
    def test_ln2_at_half(self):
        assert binary_cross_entropy(0.5, 1.0) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_vanishes_at_truth(self):
        assert binary_cross_entropy(1.0 - 1e-12, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self):
        assert binary_cross_entropy(0.3, 1.0) == pytest.approx(
            binary_cross_entropy(0.7, 0.0))

    def test_clamps_extremes(self):
        assert np.isfinite(binary_cross_entropy(0.0, 1.0))
        assert np.isfinite(binary_cross_entropy(1.0, 0.0))


class TestGru:
    def test_single_step_shapes(self):
        rng = np.random.default_rng(0)
        cell = GruCell.init(rng, n_in=4, n_hidden=6)
        fwd = GruCell.init(rng, n_in=4, n_hidden=6)
        states = forward_gru_bidirectional(cell, fwd, rng.normal(size=(1, 4)))
        assert states.shape == (1, 12)

    def test_output_shape_contract(self):
        rng = np.random.default_rng(1)
        for t_len, hidden in ((3, 2), (7, 5)):
            a = GruCell.init(rng, n_in=3, n_hidden=hidden)
            b = GruCell.init(rng, n_in=3, n_hidden=hidden)
            states = forward_gru_bidirectional(a, b, rng.normal(size=(t_len, 3)))
            assert states.shape == (t_len, 2 * hidden)

    def test_zero_weights_follow_candidate_bias_path(self):
        # with all weights zero and bias bc, gates sit at 1/2 and the
        # candidate is tanh(bc); hand-iterating h' = h/2 + tanh(bc)/2
        hidden = 3
        bc = np.array([0.5, -0.25, 1.0])
        cell = GruCell(w=np.zeros((2, 3 * hidden)), u=np.zeros((hidden, 3 * hidden)),
                       b=np.concatenate([np.zeros(2 * hidden), bc]))
        h = np.zeros((1, hidden))
        expected = np.zeros(hidden)
        xs = np.ones((4, 1, 2))
        states, _ = cell.run(xs, np.ones((4, 1), dtype=bool))
        for _ in range(4):
            expected = 0.5 * expected + 0.5 * np.tanh(bc)
        assert np.allclose(states[-1][0], expected, atol=1e-12)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(2)
        cell = GruCell.init(rng, 2, 2)
        with pytest.raises(ValueError):
            forward_gru_bidirectional(cell, cell, np.empty((0, 2)))

    def test_gate_outputs_bounded(self):
        rng = np.random.default_rng(3)
        cell = GruCell.init(rng, 3, 4)
        xs = rng.normal(size=(5, 2, 3)) * 3
        states, (_, hs, gates, _, _) = cell.run(xs, np.ones((5, 2), dtype=bool))
        assert gates.shape == (5, 2, 3 * 4)
        z, r, c = gates[..., :4], gates[..., 4:8], gates[..., 8:]
        assert np.all((z > 0) & (z < 1))
        assert np.all((r > 0) & (r < 1))
        assert np.all((c > -1) & (c < 1))
        assert np.array_equal(hs[1:], states)
        assert np.all(np.isfinite(states))

    def test_padded_steps_carry_state(self):
        rng = np.random.default_rng(17)
        cell = GruCell.init(rng, 3, 4)
        xs = rng.normal(size=(6, 3, 3))
        valid = np.array([[True] * 3] * 2 + [[True, False, False]] * 2
                         + [[False, True, False]] * 2)
        states, _ = cell.run(xs, valid)
        for b in range(3):
            h = np.zeros((1, 4))
            for t in range(6):
                if valid[t, b]:
                    h, _ = reference_gru_step(cell, xs[t, b][None], h)
                np.testing.assert_allclose(states[t, b], h[0], rtol=1e-12, atol=1e-15)


class TestAttention:
    def test_single_step_is_identity(self):
        rng = np.random.default_rng(4)
        head = AttentionHead.init(rng, state_size=5, proj_size=3)
        state = rng.normal(size=(1, 5))
        context, weights = attend(head, state)
        assert weights == pytest.approx([1.0])
        assert np.allclose(context, state[0])

    def test_identical_states_uniform_weights(self):
        rng = np.random.default_rng(5)
        head = AttentionHead.init(rng, 4, 4)
        state = np.tile(rng.normal(size=(1, 4)), (6, 1))
        _, weights = attend(head, state)
        assert np.allclose(weights, 1.0 / 6.0)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(6)
        head = AttentionHead.init(rng, 4, 3)
        for _ in range(25):
            states = rng.normal(size=(int(rng.integers(1, 9)), 4)) * 5
            _, weights = attend(head, states)
            assert weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(weights >= 0)


class TestPaddedClassifier:
    @staticmethod
    def model(seed=21):
        return SequenceClassifier(vocab_size=9, embed_size=4, hidden_size=5, seed=seed)

    @staticmethod
    def batches():
        rng = np.random.default_rng(22)
        out = [
            ([[3]], [1.0]),                                      # one token
            ([[1], [4], [0], [8]], [1.0, 0.0, 0.0, 1.0]),        # all length 1
            ([[1, 2, 3], [4, 0, 6], [7, 8, 0]], [1.0, 0.0, 1.0]),  # equal, with UNK
            ([[0, 0, 0, 0, 0], [0], [2, 0]], [0.0, 1.0, 1.0]),   # UNK-heavy, mixed
        ]
        for _ in range(20):
            n = int(rng.integers(1, 12))
            seqs = [list(rng.integers(0, 9, size=int(rng.integers(1, 9)))) for _ in range(n)]
            out.append((seqs, (rng.random(n) > 0.5).astype(float).tolist()))
        return out

    # the fused GRU sums its products in another order, so values agree to
    # rtol 1e-12; atol 1e-17 covers the few gradient entries that cancel to
    # ~1e-7, where the last-bit difference of the terms (~1e-19) is
    # relatively larger
    def test_matches_length_grouped_reference(self):
        model = self.model()
        for seqs, labels in self.batches():
            want_loss, want = reference_loss_and_grads(model, seqs, labels)
            loss, grads = model.loss_and_grads(seqs, labels)
            assert loss == pytest.approx(want_loss, rel=1e-12)
            assert list(grads) == list(want)
            for name, value in grads.items():
                np.testing.assert_allclose(value, want[name], rtol=1e-12, atol=1e-17,
                                           err_msg=name)

    def test_unknown_row_gets_no_gradient_without_unknown_tokens(self):
        model = self.model()
        seqs = [[1, 2, 3, 4, 5], [6], [7, 8], [2, 2, 2, 2]]  # padded with id 0
        _, grads = model.loss_and_grads(seqs, [1.0, 0.0, 1.0, 0.0])
        assert np.all(grads["embed"][0] == 0.0)
        assert np.all(grads["embed"][1:9] != 0.0)

    def test_duplicates_scored_once(self, monkeypatch):
        model = self.model()
        seqs = [[1, 2], [3], [1, 2], [0, 0, 4], [3], [1, 2], np.array([3])]
        seen = []
        forward = SequenceClassifier._forward_batch

        def counting(self, ids, valid=None):
            seen.extend(tuple(row) for row in ids.tolist())
            return forward(self, ids, valid)

        monkeypatch.setattr(SequenceClassifier, "_forward_batch", counting)
        scores = model.score_batch(seqs)
        assert sorted(seen) == sorted({(1, 2), (3,), (0, 0, 4)})
        assert scores[0] == scores[2] == scores[5]
        assert scores[1] == scores[4] == scores[6]
        alone = [model.score_batch([s])[0] for s in ([1, 2], [3], [0, 0, 4])]
        np.testing.assert_allclose(scores[[0, 1, 3]], alone, rtol=1e-15)

    def test_rejects_empty_sequence(self):
        model = self.model()
        with pytest.raises(ValueError, match="empty"):
            model.loss_and_grads([[1, 2], []], [1.0, 0.0])
        with pytest.raises(ValueError, match="empty"):
            model.score_batch([[1], []])


class TestAdam:
    def test_zero_gradient_no_move(self):
        state = AdamState()
        buffer = ParamBuffer({"w": np.array([1.0, -2.0])})
        buffer.grads[:] = 0.0
        adam_step(state, buffer)
        assert np.array_equal(buffer.params["w"], [1.0, -2.0])

    def test_global_norm_clipping(self):
        buffer = ParamBuffer({"a": np.zeros(2), "b": np.zeros(2)})
        buffer.grad_views["a"][:] = [6.0, 0.0]
        buffer.grad_views["b"][:] = [0.0, 8.0]  # norm 10, above CLIP_NORM = 5
        adam_step(AdamState(), buffer)  # clips buffer.grads in place
        assert np.allclose(buffer.grad_views["a"], [3.0, 0.0])
        assert np.allclose(buffer.grad_views["b"], [0.0, 4.0])
        total = np.sqrt(sum(float(np.sum(g * g)) for g in buffer.grad_views.values()))
        assert total == pytest.approx(5.0)

    def test_no_clip_below_threshold(self):
        buffer = ParamBuffer({"a": np.zeros(1)})
        buffer.grads[:] = 3.0
        adam_step(AdamState(), buffer)
        assert buffer.grad_views["a"][0] == 3.0

    def test_first_step_closed_form(self, monkeypatch):
        lr, eps = 1e-3, 0.25
        g = 0.37
        monkeypatch.setattr(optim, "EPSILON", eps)  # large enough to show in the step
        state = AdamState(learning_rate=lr)
        buffer = ParamBuffer({"w": np.array([2.0])})
        buffer.grads[:] = g
        adam_step(state, buffer)
        # bias-corrected first step: -lr * g / (|g| + eps)
        expected = 2.0 - lr * g / (abs(g) + eps)
        assert buffer.params["w"][0] == pytest.approx(expected, abs=1e-12)

    def test_rejects_non_finite(self):
        state = AdamState()
        buffer = ParamBuffer({"w": np.zeros(1)})
        buffer.grads[:] = np.nan
        with pytest.raises(FloatingPointError):
            adam_step(state, buffer)


def reference_clip_by_global_norm(grads, clip_norm):
    """Per-array global-norm clipping. The norm is summed once over the
    gradients joined in buffer order (`grads` is ordered as the buffer), so it
    is the flat step's norm to the last bit."""
    joined = np.concatenate([g.ravel() for g in grads.values()])
    norm = np.sqrt(float(joined @ joined))
    if norm <= clip_norm or norm == 0.0:
        return grads, norm
    scale = clip_norm / norm
    return {k: g * scale for k, g in grads.items()}, norm


def reference_adam_step(state, m, v, params, grads):
    """Per-array Adam with per-name moment dicts, on the `optim` constants;
    returns the pre-clip norm."""
    beta1, beta2 = optim.BETA1, optim.BETA2
    grads, norm = reference_clip_by_global_norm(grads, optim.CLIP_NORM)
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, g in grads.items():
        if name not in m:
            m[name] = np.zeros_like(params[name])
            v[name] = np.zeros_like(params[name])
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        params[name] -= (state.learning_rate * (m[name] / bc1)
                         / (np.sqrt(v[name] / bc2) + optim.EPSILON))
    return norm


def small_networks():
    mlp = (lambda: Mlp([5, 7, 4, 1], seed=13, l2_penalty=0.01),
           lambda rng: (rng.normal(size=(9, 5)), (rng.random(9) > 0.5).astype(float)))
    seq = (lambda: SequenceClassifier(vocab_size=12, embed_size=3, hidden_size=4, seed=14),
           lambda rng: ([list(rng.integers(0, 12, size=int(rng.integers(1, 5))))
                         for _ in range(6)], (rng.random(6) > 0.5).astype(float)))
    return {"mlp": mlp, "sequence": seq}


class TestFlatAdam:
    # the flat step is bit-identical to the reference, for 50 unclipped steps
    # and for 5 steps that are all clipped
    @pytest.mark.parametrize("kind", ["mlp", "sequence"])
    @pytest.mark.parametrize("clip_norm, steps", [(5.0, 50), (0.05, 5)])
    def test_matches_per_array_reference(self, kind, clip_norm, steps, monkeypatch):
        monkeypatch.setattr(optim, "CLIP_NORM", clip_norm)
        build, make_batch = small_networks()[kind]
        flat, ref = build(), build()
        ref_params = {k: v.copy() for k, v in ref.buffer.params.items()}
        state = AdamState(learning_rate=1e-2)
        ref_state = AdamState(learning_rate=1e-2)
        m, v = {}, {}
        rng = np.random.default_rng(15)
        norms = []
        for _ in range(steps):
            batch = make_batch(rng)
            flat.loss_and_grads(*batch)
            adam_step(state, flat.buffer)
            ref.buffer.assign(ref_params)
            _, grads = ref.loss_and_grads(*batch)
            norms.append(reference_adam_step(ref_state, m, v, ref_params,
                                             {k: g.copy() for k, g in grads.items()}))
            for name, value in flat.buffer.params.items():
                assert np.array_equal(value, ref_params[name]), name
        # the two cases exercise the two paths: never clipped, always clipped
        assert (max(norms) < clip_norm) if clip_norm == 5.0 else (min(norms) > clip_norm)

    @pytest.mark.parametrize("kind", ["mlp", "sequence"])
    def test_non_finite_gradient_names_its_parameter(self, kind):
        build, _ = small_networks()[kind]
        net = build()
        for name in net.buffer.names:
            net.buffer.grads[:] = 0.0
            net.buffer.grad_views[name].reshape(-1)[-1] = np.nan
            with pytest.raises(FloatingPointError, match=repr(name)):
                adam_step(AdamState(), net.buffer)


class TestParamViews:
    @staticmethod
    def assert_views_share_buffer(net):
        assert list(net.buffer.params) == net.buffer.names
        for name, view in net.buffer.params.items():
            assert np.shares_memory(view, net.buffer.values), name

    def test_after_construction_and_assign(self):
        for build, _ in small_networks().values():
            net = build()
            self.assert_views_share_buffer(net)
            donor = {k: np.full(v.shape, 0.5) for k, v in net.buffer.params.items()}
            net.buffer.assign(donor)
            self.assert_views_share_buffer(net)
            assert np.all(net.buffer.values == 0.5)

    def test_classifier_draw_order(self):
        # per-gate Xavier draws, in the order Wz, Wr, Wc, Uz, Ur, Uc of each
        # direction, after the embedding and before the attention head
        vocab, embed, hidden, seed = 7, 3, 4, 19
        net = SequenceClassifier(vocab_size=vocab, embed_size=embed, hidden_size=hidden,
                                 seed=seed)
        rng = np.random.default_rng(seed)

        def xavier(fan_in, fan_out, shape=None):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))

        params = net.buffer.params
        assert np.array_equal(params["embed"], rng.normal(0.0, 0.1, size=(vocab, embed)))
        for prefix in ("f_", "b_"):
            w = [xavier(embed, hidden) for _ in "zrc"]
            u = [xavier(hidden, hidden) for _ in "zrc"]
            assert np.array_equal(params[prefix + "w"], np.concatenate(w, axis=1))
            assert np.array_equal(params[prefix + "u"], np.concatenate(u, axis=1))
            assert np.array_equal(params[prefix + "b"], np.zeros(3 * hidden))
        assert np.array_equal(params["a_projection"], xavier(2 * hidden, hidden))
        assert np.array_equal(params["a_context"], xavier(hidden, 1, shape=(hidden,)))
        assert np.array_equal(params["out_w"], xavier(2 * hidden, 1, shape=(2 * hidden,)))

    def test_assign_rejects_wrong_shape(self):
        net = Mlp([3, 2, 1], seed=0)
        params = dict(net.buffer.params)
        params["w0"] = np.zeros((2, 3))
        with pytest.raises(ValueError, match="w0"):
            net.buffer.assign(params)

    def test_after_load_model(self, tmp_path):
        network = SequenceClassifier(vocab_size=3, embed_size=2, hidden_size=3, seed=16)
        model = clickbait.ClickbaitModel(network=network, token_ids={"a": 1, "b": 2})
        clickbait.save_model(model, tmp_path / "model.bin")
        assert list(load_params(tmp_path / "model.bin")[1]) == [
            "embed", "out_w", "out_b", "f_w", "f_u", "f_b", "b_w", "b_u", "b_b",
            "a_projection", "a_proj_bias", "a_context"]
        loaded = clickbait.load_model(tmp_path / "model.bin")
        self.assert_views_share_buffer(loaded.network)
        assert np.array_equal(loaded.network.buffer.values, network.buffer.values)
        assert loaded.network.score_batch([[1, 2]])[0] == network.score_batch([[1, 2]])[0]


class LinearMse:
    """x @ w + b under mean squared error: the smallest model that meets the
    `buffer` + `loss_and_grads` contract `check_gradients` needs."""

    def __init__(self, n_in: int, seed: int):
        rng = np.random.default_rng(seed)
        self.buffer = ParamBuffer({"w": rng.normal(size=n_in), "b": np.zeros(1)})

    def loss_and_grads(self, x, y):
        params, grads = self.buffer.params, self.buffer.grad_views
        diff = x @ params["w"] + params["b"][0] - y
        grads["w"][...] = 2.0 * (x.T @ diff) / len(y)
        grads["b"][0] = 2.0 * diff.sum() / len(y)
        return float(np.mean(diff * diff)), grads


class TestGradientChecks:
    def test_mlp_with_l2(self):
        rng = np.random.default_rng(7)
        model = Mlp([6, 10, 5, 1], seed=1, l2_penalty=0.001)
        x = rng.normal(size=(12, 6))
        y = (rng.random(12) > 0.5).astype(float)
        assert check_gradients(model, (x, y)) < 1e-4

    def test_linear_model_quadratic_loss(self):
        rng = np.random.default_rng(8)
        model = LinearMse(4, seed=2)
        x = rng.normal(size=(9, 4))
        y = rng.normal(size=9)
        assert check_gradients(model, (x, y)) < 1e-7

    def test_gru_attention_classifier(self):
        model = SequenceClassifier(vocab_size=10, embed_size=4, hidden_size=8, seed=3)
        seqs = [[1, 5, 2], [4, 4, 8, 1, 9, 2], [7], [3, 6, 1, 2]]
        labels = [1.0, 0.0, 1.0, 0.0]
        assert check_gradients(model, (seqs, labels)) < 1e-4


class TestTraining:
    def test_separable_2d_reaches_perfect_accuracy(self):
        rng = np.random.default_rng(9)
        x = np.vstack([
            rng.normal((-1.0, -1.0), 0.3, size=(40, 2)),
            rng.normal((1.0, 1.0), 0.3, size=(40, 2)),
        ])
        y = np.concatenate([np.zeros(40), np.ones(40)])
        model = Mlp([2, 8, 4, 1], seed=4)
        opt = AdamState(learning_rate=1e-2)
        order_rng = np.random.default_rng(10)
        for epoch in range(500):
            order = order_rng.permutation(len(x))
            for start in range(0, len(order), 16):
                chunk = order[start:start + 16]
                model.loss_and_grads(x[chunk], y[chunk])
                adam_step(opt, model.buffer)
            if np.all((model.predict(x) > 0.5) == (y == 1)):
                break
        assert np.all((model.predict(x) > 0.5) == (y == 1))

    def test_forward_pure_and_deterministic(self):
        model = SequenceClassifier(vocab_size=8, embed_size=3, hidden_size=4, seed=5)
        seqs = [[1, 2, 3], [4, 5]]
        a = model.score_batch(seqs)
        b = model.score_batch(seqs)
        assert np.array_equal(a, b)

    def test_l2_penalty_exact_term(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 3))
        y = (rng.random(5) > 0.5).astype(float)
        plain = Mlp([3, 4, 2, 1], seed=6, l2_penalty=0.0)
        penalized = Mlp([3, 4, 2, 1], seed=6, l2_penalty=0.001)
        loss_plain, _ = plain.loss_and_grads(x, y)
        loss_pen, _ = penalized.loss_and_grads(x, y)
        w = penalized.buffer.params["w1"]
        assert loss_pen - loss_plain == pytest.approx(0.001 * float(np.sum(w * w)), abs=1e-12)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        params = {
            "w": rng.normal(size=(3, 4)),
            "b": rng.normal(size=4),
            "scalar": np.array(2.5),
        }
        meta = {"layers": [3, 4], "seed": 12}
        path = tmp_path / "params.bin"
        path.write_bytes(params_to_bytes(params, meta))
        got_meta, got = load_params(path)
        assert got_meta == meta
        for name in params:
            assert np.array_equal(got[name], params[name])

    @pytest.mark.parametrize("blob, message", [
        (b"ELNN\x07\x00", "truncated header"),
        (b"ELNN\x40\x00\x00\x00{}", "truncated header"),
        (b"ELNN\x0c\x00\x00\x00" + b'{"meta": {}}', "malformed header"),
        (b"ELNN\x02\x00\x00\x00[]", "malformed header"),
        (b"ELNN\x36\x00\x00\x00" + b'{"meta": {}, "arrays": [{"name": "w", "shape": [-1]}]}'
         + bytes(16), "malformed header"),
    ], ids=["short_length", "short_json", "no_arrays", "not_an_object", "negative_dim"])
    def test_malformed_header_names_path(self, tmp_path, blob, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"^{path}: {message}"):
            load_params(path)

    def test_short_array_data_names_path_and_array(self, tmp_path):
        path = tmp_path / "cut.bin"
        blob = params_to_bytes({"w": np.ones((2, 3)), "b": np.ones(3)})
        path.write_bytes(blob[:-1])
        with pytest.raises(ValueError, match=f"^{path}: data of array 'b' is cut short"):
            load_params(path)
        path.write_bytes(blob)
        assert np.array_equal(load_params(path)[1]["b"], np.ones(3))

    def test_model_missing_meta_key_names_path(self, tmp_path):
        network = SequenceClassifier(vocab_size=3, embed_size=2, hidden_size=3, seed=0)
        path = tmp_path / "model.bin"
        path.write_bytes(params_to_bytes(network.buffer.params, {"kind": "clickbait"}))
        with pytest.raises(ValueError, match=f"^{path}: model file lacks 'tokens'"):
            clickbait.load_model(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a model")
        with pytest.raises(ValueError):
            load_params(path)
