import numpy as np
import pytest

from editlift import clickbait
from editlift.nn import (
    AdamState,
    AttentionHead,
    DenseLayer,
    GruCell,
    Mlp,
    ParamBuffer,
    SequenceClassifier,
    adam_step,
    attend,
    binary_cross_entropy,
    check_gradients,
    forward_dense,
    forward_gru_bidirectional,
    load_params,
    save_params,
)


class TestDense:
    def test_identity_passthrough(self):
        layer = DenseLayer(weights=np.eye(3), bias=np.zeros(3), activation="identity")
        x = np.array([[1.0, -2.0, 3.0]])
        out, _ = forward_dense(layer, x)
        assert np.array_equal(out, x)

    def test_relu(self):
        layer = DenseLayer(weights=np.eye(2), bias=np.zeros(2), activation="relu")
        out, _ = forward_dense(layer, np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_sigmoid_at_zero(self):
        layer = DenseLayer(weights=np.zeros((2, 1)), bias=np.zeros(1), activation="sigmoid")
        out, _ = forward_dense(layer, np.array([[5.0, -3.0]]))
        assert out[0, 0] == pytest.approx(0.5)

    def test_shape_mismatch(self):
        layer = DenseLayer(weights=np.eye(3), bias=np.zeros(3))
        with pytest.raises(ValueError):
            forward_dense(layer, np.ones((1, 4)))


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
        zeros_w = np.zeros((2, hidden))
        zeros_u = np.zeros((hidden, hidden))
        bc = np.array([0.5, -0.25, 1.0])
        cell = GruCell(
            wz=zeros_w.copy(), wr=zeros_w.copy(), wc=zeros_w.copy(),
            uz=zeros_u.copy(), ur=zeros_u.copy(), uc=zeros_u.copy(),
            bz=np.zeros(hidden), br=np.zeros(hidden), bc=bc.copy(),
        )
        h = np.zeros((1, hidden))
        expected = np.zeros(hidden)
        xs = np.ones((4, 1, 2))
        states, _ = cell.run(xs)
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
        states, caches = cell.run(xs)
        for _, _, z, r, _, _ in caches:
            assert np.all((z > 0) & (z < 1))
            assert np.all((r > 0) & (r < 1))
        assert np.all(np.isfinite(states))


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
        buffer.grad_views["b"][:] = [0.0, 8.0]  # norm 10
        adam_step(AdamState(clip_norm=5.0), buffer)  # clips buffer.grads in place
        assert np.allclose(buffer.grad_views["a"], [3.0, 0.0])
        assert np.allclose(buffer.grad_views["b"], [0.0, 4.0])
        total = np.sqrt(sum(float(np.sum(g * g)) for g in buffer.grad_views.values()))
        assert total == pytest.approx(5.0)

    def test_no_clip_below_threshold(self):
        buffer = ParamBuffer({"a": np.zeros(1)})
        buffer.grads[:] = 3.0
        adam_step(AdamState(clip_norm=5.0), buffer)
        assert buffer.grad_views["a"][0] == 3.0

    def test_first_step_closed_form(self):
        lr, eps = 1e-3, 1e-8
        g = 0.37
        state = AdamState(learning_rate=lr, epsilon=eps)
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
    """Per-array global-norm clipping, as the optimizer did before the flat buffer."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm <= clip_norm or norm == 0.0:
        return grads, norm
    scale = clip_norm / norm
    return {k: g * scale for k, g in grads.items()}, norm


def reference_adam_step(state, m, v, params, grads):
    """Per-array Adam with per-name moment dicts; returns the pre-clip norm."""
    grads, norm = reference_clip_by_global_norm(grads, state.clip_norm)
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, g in grads.items():
        if name not in m:
            m[name] = np.zeros_like(params[name])
            v[name] = np.zeros_like(params[name])
        m[name] *= state.beta1
        m[name] += (1.0 - state.beta1) * g
        v[name] *= state.beta2
        v[name] += (1.0 - state.beta2) * g * g
        params[name] -= state.learning_rate * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + state.epsilon)
    return norm


def small_networks():
    mlp = (lambda: Mlp([5, 7, 4, 1], seed=13, l2_penalty=0.01),
           lambda rng: (rng.normal(size=(9, 5)), (rng.random(9) > 0.5).astype(float)))
    seq = (lambda: SequenceClassifier(vocab_size=12, embed_size=3, hidden_size=4,
                                      attention_size=3, seed=14),
           lambda rng: ([list(rng.integers(0, 12, size=int(rng.integers(1, 5))))
                         for _ in range(6)], (rng.random(6) > 0.5).astype(float)))
    return {"mlp": mlp, "sequence": seq}


class TestFlatAdam:
    # unclipped, the flat step is bit-identical to the reference for 50 steps;
    # clipped (every step), the flat norm sums in another order, and the
    # last-bit difference in the scale feeds back through later gradients,
    # so that case compares 5 steps by a relative tolerance
    @pytest.mark.parametrize("kind", ["mlp", "sequence"])
    @pytest.mark.parametrize("clip_norm, steps", [(5.0, 50), (0.05, 5)])
    def test_matches_per_array_reference(self, kind, clip_norm, steps):
        build, make_batch = small_networks()[kind]
        flat, ref = build(), build()
        ref_params = {k: v.copy() for k, v in ref.params.items()}
        state = AdamState(learning_rate=1e-2, clip_norm=clip_norm)
        ref_state = AdamState(learning_rate=1e-2, clip_norm=clip_norm)
        m, v = {}, {}
        rng = np.random.default_rng(15)
        norms = []
        for _ in range(steps):
            batch = make_batch(rng)
            flat.loss_and_grads(*batch)
            adam_step(state, flat.buffer)
            ref.set_params(ref_params)
            _, grads = ref.loss_and_grads(*batch)
            norms.append(reference_adam_step(ref_state, m, v, ref_params,
                                             {k: g.copy() for k, g in grads.items()}))
            for name, value in flat.params.items():
                if clip_norm == 5.0:
                    assert np.array_equal(value, ref_params[name]), name
                else:
                    np.testing.assert_allclose(value, ref_params[name], rtol=1e-12, err_msg=name)
        # the two cases exercise the two paths: never clipped, always clipped
        assert (max(norms) < clip_norm) if clip_norm == 5.0 else (min(norms) > clip_norm)

    @pytest.mark.parametrize("kind", ["mlp", "sequence"])
    def test_non_finite_gradient_names_its_parameter(self, kind):
        build, _ = small_networks()[kind]
        net = build()
        for name in net.params:
            net.buffer.grads[:] = 0.0
            net.buffer.grad_views[name].reshape(-1)[-1] = np.nan
            with pytest.raises(FloatingPointError, match=repr(name)):
                adam_step(AdamState(), net.buffer)


class TestParamViews:
    @staticmethod
    def assert_views_share_buffer(net):
        assert list(net.params) == net.buffer.names
        for name, view in net.params.items():
            assert np.shares_memory(view, net.buffer.values), name

    def test_after_construction_and_set_params(self):
        for build, _ in small_networks().values():
            net = build()
            self.assert_views_share_buffer(net)
            donor = {k: np.full(v.shape, 0.5) for k, v in net.params.items()}
            net.set_params(donor)
            self.assert_views_share_buffer(net)
            assert np.all(net.buffer.values == 0.5)

    def test_set_params_rejects_wrong_shape(self):
        net = Mlp([3, 2, 1], seed=0)
        params = net.params
        params["w0"] = np.zeros((2, 3))
        with pytest.raises(ValueError, match="w0"):
            net.set_params(params)

    def test_after_load_model(self, tmp_path):
        network = SequenceClassifier(vocab_size=3, embed_size=2, hidden_size=3, seed=16)
        model = clickbait.ClickbaitModel(network=network, token_ids={"a": 1, "b": 2})
        clickbait.save_model(model, tmp_path / "model.bin")
        loaded = clickbait.load_model(tmp_path / "model.bin")
        self.assert_views_share_buffer(loaded.network)
        assert np.array_equal(loaded.network.buffer.values, network.buffer.values)
        assert loaded.network.score_batch([[1, 2]])[0] == network.score_batch([[1, 2]])[0]


class TestMlpConfig:
    def test_bce_needs_sigmoid_output(self):
        with pytest.raises(ValueError, match="sigmoid"):
            Mlp([3, 4, 1], activations=["relu", "identity"], loss="bce")


class TestGradientChecks:
    def test_mlp_with_l2(self):
        rng = np.random.default_rng(7)
        model = Mlp([6, 10, 5, 1], seed=1, l2_penalty=0.001)
        x = rng.normal(size=(12, 6))
        y = (rng.random(12) > 0.5).astype(float)
        assert check_gradients(model, (x, y)) < 1e-4

    def test_linear_model_quadratic_loss(self):
        rng = np.random.default_rng(8)
        model = Mlp([4, 1], activations=["identity"], seed=2, loss="mse")
        x = rng.normal(size=(9, 4))
        y = rng.normal(size=9)
        assert check_gradients(model, (x, y)) < 1e-7

    def test_gru_attention_classifier(self):
        model = SequenceClassifier(vocab_size=10, embed_size=4, hidden_size=8,
                                   attention_size=5, seed=3)
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
        w = penalized.layers[1].weights
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
        save_params(path, params, meta)
        got_meta, got = load_params(path)
        assert got_meta == meta
        for name in params:
            assert np.array_equal(got[name], params[name])

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a model")
        with pytest.raises(ValueError):
            load_params(path)
