import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lisplab import nnkernel as nn
from lisplab import programmer as pg
from lisplab.kb import KnowledgeBase

from oracles import scalar_attention, scalar_gru, scalar_softmax, two_branch_sigmoid


def rng_of(seed=0):
    return np.random.default_rng(seed)


def make_gru(rng, in_dim, hidden):
    return nn.GRUParams.init(rng, in_dim, hidden)


class TestGRU:
    def test_zero_params_zero_state(self):
        gp = make_gru(rng_of(), 3, 4)
        for _, t in gp.named("g"):
            t.data[...] = 0.0
        out = nn.gru_step(gp, np.zeros(4), np.ones(3))[0]
        assert np.array_equal(out, np.zeros(4))

    def test_matches_scalar_reference(self):
        rng = rng_of(0)
        gp = make_gru(rng, 2, 2)
        h = rng.uniform(-1, 1, 2)
        x = rng.uniform(-1, 1, 2)
        weights = {name.split(".")[1]: t.data.tolist() for name, t in gp.named("g")}
        expected = scalar_gru(weights, h.tolist(), x.tolist())
        got = nn.gru_step(gp, h, x)[0]
        assert np.allclose(got, expected, atol=1e-12, rtol=0)

    def test_deterministic_bitwise(self):
        rng = rng_of(3)
        gp = make_gru(rng, 5, 7)
        h, x = rng.normal(size=7), rng.normal(size=5)
        a = nn.gru_step(gp, h, x)
        b = nn.gru_step(gp, h, x)
        assert all(u.tobytes() == v.tobytes() for u, v in zip(a, b))

    def test_shape_mismatch(self):
        gp = make_gru(rng_of(), 3, 4)
        with pytest.raises(ValueError):
            nn.gru_step(gp, np.zeros(3), np.zeros(3))

    def test_np_twin_agrees(self):
        rng = rng_of(1)
        gp = make_gru(rng, 4, 6)
        h, x = rng.normal(size=6), rng.normal(size=4)
        full = nn.gru_step(gp, h, x)[0]
        twin = nn.gru_step_np(gp, h, x)
        assert full.tobytes() == twin.tobytes()  # one forward serves both

    def test_np_twin_batched_rows_match_single(self):
        rng = rng_of(2)
        gp = make_gru(rng, 4, 6)
        hs, xs = rng.normal(size=(5, 6)), rng.normal(size=(5, 4))
        batch = nn.gru_step_np(gp, hs, xs)
        for i in range(5):
            single = nn.gru_step_np(gp, hs[i], xs[i])
            assert np.allclose(batch[i], single, atol=1e-12, rtol=0)


class TestSigmoid:
    SPECIAL = [0.0, -0.0, 1e-320, -1e-320, 710.0, -710.0, 745.0, -745.0,
               np.inf, -np.inf, np.nan, -np.nan]

    @staticmethod
    def assert_bitwise(x):
        got, want = nn._sigmoid_np(x), two_branch_sigmoid(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), x

    def test_special_values_bitwise(self):
        self.assert_bitwise(np.array(self.SPECIAL))
        for v in self.SPECIAL:
            self.assert_bitwise(np.array([v]))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_arrays_bitwise(self, seed):
        rng = rng_of(seed)
        for n in range(200):
            shape = (rng.integers(1, 129),) if n % 2 else tuple(rng.integers(1, 33, size=2))
            x = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=shape)
            x.flat[rng.integers(0, x.size, size=2)] = rng.choice(self.SPECIAL, size=2)
            self.assert_bitwise(x)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.one_of(st.integers(1, 64).map(lambda n: (n,)),
                                        st.tuples(st.integers(1, 8), st.integers(1, 16)))))
    def test_arbitrary_floats_bitwise(self, x):
        self.assert_bitwise(x)


class TestAttention:
    def test_single_encoder_step_attends_fully(self):
        rng = rng_of(0)
        ap = nn.AttentionParams.init(rng, 4)
        u = rng.normal(size=4)
        enc = rng.normal(size=(1, 4))
        out = nn.attention(ap, u, enc)[0]
        cat = np.concatenate([u, enc[0]])
        assert np.array_equal(out, np.tanh(ap.w_combine.data @ cat))

    def test_identical_outputs_split_weight_evenly(self):
        rng = rng_of(1)
        ap = nn.AttentionParams.init(rng, 3)
        u = rng.normal(size=3)
        row_ = rng.normal(size=3)
        enc = np.stack([row_, row_])
        out, _, weights, _ = nn.attention(ap, u, enc)
        cat = np.concatenate([u, row_])
        assert weights.tolist() == [0.5, 0.5]
        assert np.allclose(out, np.tanh(ap.w_combine.data @ cat), atol=1e-15, rtol=0)

    def test_matches_scalar_reference(self):
        rng = rng_of(0)
        ap = nn.AttentionParams.init(rng, 3)
        u = rng.uniform(-1, 1, 3)
        enc = rng.uniform(-1, 1, (4, 3))
        _, expected = scalar_attention(
            ap.w_score.data.tolist(), ap.w_combine.data.tolist(), u.tolist(), enc.tolist()
        )
        got = nn.attention(ap, u, enc)[0]
        assert np.allclose(got, expected, atol=1e-12, rtol=0)

    def test_empty_encoder_errors(self):
        ap = nn.AttentionParams.init(rng_of(), 3)
        with pytest.raises(ValueError):
            nn.attention(ap, np.zeros(3), np.zeros((0, 3)))

    def test_np_twin_agrees(self):
        rng = rng_of(5)
        ap = nn.AttentionParams.init(rng, 6)
        u = rng.normal(size=6)
        enc = rng.normal(size=(7, 6))
        full = nn.attention(ap, u, enc)[0]
        twin = nn.attention_np(ap, u, enc)
        assert full.tobytes() == twin.tobytes()  # one forward serves both
        batch = nn.attention_np(ap, np.stack([u, u * 2]), enc)
        assert np.allclose(batch[0], twin, atol=1e-12, rtol=0)


logits_and_masks = st.integers(2, 30).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, n, elements=st.floats(-50, 50)),
        st.lists(st.booleans(), min_size=n, max_size=n).filter(any),
    )
)


def onehot_minus_p(logp, valid_ids, chosen, size):
    want = np.zeros(size)
    want[valid_ids] = -np.exp(logp)
    want[chosen] += 1.0
    return want


class TestMaskedSoftmax:
    """The decoder's masked log-softmax over the valid ids only:
    log_probs_over and its backward log_probs_over_back."""

    def test_symmetry_fixture(self):
        out = nn.log_probs_over(np.zeros(3), np.array([0, 1]))
        assert out.tolist() == [-np.log(2.0), -np.log(2.0)]

    def test_single_valid_token(self):
        logits = np.array([5.0, -2.0, 0.1])
        logp = nn.log_probs_over(logits, np.array([1]))
        assert logp.tolist() == [0.0]
        grad = nn.log_probs_over_back(1.0, logp, np.array([1]), 1, 3)
        assert grad.tolist() == [0.0, 0.0, 0.0]

    def test_closed_form_all_valid(self):
        logits = np.array([1.0, 2.0, 3.0])
        out = np.exp(nn.log_probs_over(logits, np.arange(3)))
        e = np.exp(logits - 3.0)
        assert np.allclose(out, e / e.sum(), atol=1e-15, rtol=0)

    def test_all_masked_errors(self):
        with pytest.raises(ValueError):
            nn.log_probs_over(np.zeros(3), np.array([], dtype=np.int64))

    def test_tape_matches_scalar_reference(self):
        # value and gradient of the replay's masked log-softmax against
        # the scalar softmax: log p and onehot - p
        rng = rng_of(0)
        logits = rng.normal(size=6)
        mask = [True, False, True, True, False, True]
        valid_ids = np.nonzero(mask)[0]
        expected = scalar_softmax(logits.tolist(), mask)
        logp = nn.log_probs_over(logits, valid_ids)
        for pos, chosen in enumerate(valid_ids):
            assert abs(float(logp[pos]) - np.log(expected[chosen])) <= 1e-12
            grad = nn.log_probs_over_back(1.0, logp, valid_ids, int(chosen), 6)
            want = -np.array(expected)
            want[chosen] += 1.0
            assert np.allclose(grad, want, atol=1e-12, rtol=0)

    @given(logits_and_masks)
    @settings(max_examples=200)
    def test_properties(self, pair):
        logits, mask = pair
        valid_ids = np.nonzero(mask)[0]
        probs = np.exp(nn.log_probs_over(logits, valid_ids))
        assert abs(probs.sum() - 1.0) <= 1e-12
        shifted = np.exp(nn.log_probs_over(logits + 7.25, valid_ids))
        assert np.abs(shifted - probs).max() <= 1e-12

    @given(logits_and_masks)
    @settings(max_examples=100)
    def test_log_probs_consistent(self, pair):
        # the gradient of a chosen entry, scaled by g, is g * (onehot - p)
        # on the valid ids and exactly 0 on the others
        logits, mask = pair
        valid_ids = np.nonzero(mask)[0]
        logp = nn.log_probs_over(logits, valid_ids)
        for chosen in valid_ids:
            for g in (1.0, -0.4):
                grad = nn.log_probs_over_back(g, logp, valid_ids, int(chosen), len(logits))
                want = g * onehot_minus_p(logp, valid_ids, chosen, len(logits))
                assert np.allclose(grad, want, atol=1e-12, rtol=0)
                assert (grad[~np.array(mask)] == 0.0).all()


def add_grad(t, g):
    grad = nn.grad_of(t)
    grad += g


def fd_check(loss_fn, backward_fn, tensors, epsilon=1e-6, tol=1e-6):
    """Finite differences of the float loss_fn() against the gradients
    backward_fn() leaves in each tensor's .grad."""
    for t in tensors:
        t.grad = None
    backward_fn()
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + epsilon
            up = loss_fn()
            flat[i] = saved - epsilon
            down = loss_fn()
            flat[i] = saved
            fd = (up - down) / (2 * epsilon)
            assert abs(aflat[i] - fd) <= tol * max(1.0, abs(fd)), (i, aflat[i], fd)


def logit_loss(logits, valid_ids, chosen):
    """log p(chosen) and its logit gradient, as the replay takes them."""
    logp = nn.log_probs_over(logits, valid_ids)
    pos = int(np.nonzero(valid_ids == chosen)[0][0])
    return float(logp[pos]), nn.log_probs_over_back(1.0, logp, valid_ids, chosen, len(logits))


class TestBackward:
    """Each layer's backward against finite differences of its forward."""

    def test_zero_objective_gradient_zero_param_gradient(self):
        rng = rng_of(0)
        w = nn.leaf(rng.normal(size=(3, 3)))
        wk = nn.leaf(rng.normal(size=(3, 3)))
        v = rng.normal(size=3)
        key_grad = np.zeros(3)
        logits, kmat, proj = nn.output_logits(w, wk, v, [rng.normal(size=3)])
        logp = nn.log_probs_over(logits, np.arange(4))
        g = nn.log_probs_over_back(0.0, logp, np.arange(4), 1, 4)
        dv = nn.output_logits_back(w, wk, g, v, kmat, proj, [key_grad])
        for grad in (w.grad, wk.grad, dv, key_grad):
            assert np.array_equal(grad, np.zeros(grad.shape))

    def test_two_path_accumulation(self):
        # logits 2 W v through two calls: each backward adds its share
        rng = rng_of(1)
        w = nn.leaf(rng.normal(size=(2, 3)))
        wk = nn.leaf(rng.normal(size=(3, 3)))
        v = rng.normal(size=3)
        valid = np.array([0, 1])
        once = nn.output_logits(w, wk, v, [])[0]
        _, gl = logit_loss(once + once, valid, 0)
        dv = sum(nn.output_logits_back(w, wk, gl, v, None, None, []) for _ in range(2))
        # so dW = 2 outer(g, v) and dv = 2 W^T g with g = onehot(0) -
        # softmax(2 W v); without keys W_key gets nothing
        g = -np.exp(nn.log_probs_over(2 * w.data @ v, valid))
        g[0] += 1.0
        assert np.allclose(w.grad, 2 * np.outer(g, v), atol=1e-15)
        assert np.allclose(dv, 2 * w.data.T @ g, atol=1e-15)
        assert wk.grad is None

    def test_reused_tensor_through_gru_chain(self):
        # x feeds two chained steps; its gradient is the sum of both
        rng = rng_of(2)
        gp = make_gru(rng, 3, 3)
        x = nn.leaf(rng.normal(size=3))
        tensors = [t for _, t in gp.named("g")] + [x]
        valid = np.arange(3)

        def forward():
            h0 = np.zeros(3)
            first = nn.gru_step(gp, h0, x.data)
            second = nn.gru_step(gp, first[0], x.data)
            return h0, first, second

        def loss_fn():
            return logit_loss(forward()[2][0], valid, 0)[0]

        def backward_fn():
            h0, first, second = forward()
            _, g = logit_loss(second[0], valid, 0)
            dx, dh = nn.gru_step_back(gp, g, first[0], x.data, *second[1:])
            add_grad(x, dx)
            dx, _ = nn.gru_step_back(gp, dh, h0, x.data, *first[1:])
            add_grad(x, dx)

        fd_check(loss_fn, backward_fn, tensors)

    def test_attention_gradients(self):
        rng = rng_of(3)
        ap = nn.AttentionParams.init(rng, 4)
        u = nn.leaf(rng.normal(size=4))
        enc = nn.leaf(rng.normal(size=(3, 4)))
        valid = np.arange(4)

        def backward_fn():
            att = nn.attention(ap, u.data, enc.data)
            _, g = logit_loss(att[0], valid, 2)
            du, denc = nn.attention_back(ap, g, u.data, enc.data, *att)
            add_grad(u, du)
            add_grad(enc, denc)

        fd_check(lambda: logit_loss(nn.attention(ap, u.data, enc.data)[0], valid, 2)[0],
                 backward_fn, [ap.w_score, ap.w_combine, u, enc])

    def test_output_logits_gradients(self):
        # static logits W_out a, then key_i . (W_key a); the loss picks a
        # static id, then a variable id, so both halves carry the choice
        rng = rng_of(4)
        w = nn.leaf(rng.normal(size=(5, 4)))
        wk = nn.leaf(rng.normal(size=(4, 4)))
        a = nn.leaf(rng.normal(size=4))
        keys = [nn.leaf(rng.normal(size=4)) for _ in range(3)]
        logits = nn.output_logits(w, wk, a.data, [k.data for k in keys])[0]
        kmat = np.stack([k.data for k in keys])
        want = np.concatenate([w.data @ a.data, kmat @ (wk.data @ a.data)])
        assert logits.tobytes() == want.tobytes()
        valid = np.array([0, 2, 3, 5, 6, 7])

        def forward():
            return nn.output_logits(w, wk, a.data, [k.data for k in keys])

        for chosen in (2, 6):
            def backward_fn():
                logits, kmat, proj = forward()
                _, g = logit_loss(logits, valid, chosen)
                key_grads = [nn.grad_of(k) for k in keys]
                add_grad(a, nn.output_logits_back(w, wk, g, a.data, kmat, proj, key_grads))

            fd_check(lambda: logit_loss(forward()[0], valid, chosen)[0], backward_fn,
                     [w, wk, a] + keys)

    def test_output_logits_without_keys(self):
        rng = rng_of(7)
        w = nn.leaf(rng.normal(size=(4, 3)))
        wk = nn.leaf(rng.normal(size=(3, 3)))
        a = nn.leaf(rng.normal(size=3))
        logits, kmat, proj = nn.output_logits(w, wk, a.data, [])
        assert logits.tobytes() == (w.data @ a.data).tobytes()
        assert kmat is None and proj is None
        valid = np.arange(4)

        def backward_fn():
            _, g = logit_loss(nn.output_logits(w, wk, a.data, [])[0], valid, 1)
            add_grad(a, nn.output_logits_back(w, wk, g, a.data, None, None, []))

        fd_check(lambda: logit_loss(nn.output_logits(w, wk, a.data, [])[0], valid, 1)[0],
                 backward_fn, [w, wk, a])
        assert wk.grad is None

    def test_masked_log_prob_gradients(self):
        rng = rng_of(5)
        logits = nn.leaf(rng.normal(size=8))
        valid = np.array([1, 3, 4, 6])
        fd_check(lambda: logit_loss(logits.data, valid, 3)[0],
                 lambda: add_grad(logits, logit_loss(logits.data, valid, 3)[1]), [logits])

    def test_masked_log_prob_rejects_invalid_choice(self):
        # the replay refuses a token outside the assist mask
        kb = KnowledgeBase([("a", "p", "b")])
        item = pg.QAItem("q", ("what", "is", "a"), (((2, 3), "a"),), ("b",))
        model = pg.build_model(kb, [item], 4, 5)
        with pytest.raises(ValueError, match="not among valid ids"):
            pg.program_logprob(model, kb, item, ("(", "Hop", "R0", "RETURN"))

    def test_span_mean_and_stack_gradients(self):
        # an entity's key is the mean of its span's encoder states, so the
        # replay's gradient reaches the span's word embeddings and every
        # encoder step through that mean
        kb = KnowledgeBase([("ab", "p", "c"), ("ab", "q", "d")])
        item = pg.QAItem("q", ("what", "a", "b", "is"), (((1, 3), "ab"),), ("c",))
        model = pg.build_model(kb, [item], 3, 4, seed=2)
        tokens = ("(", "Hop", "R0", "p", ")", "RETURN")
        tensors = [model.params.word_emb] + [t for _, t in model.params.encoder.named("e")]
        fd_check(lambda: float(pg.program_logprob(model, kb, item, tokens).data),
                 lambda: nn.backward(pg.program_logprob(model, kb, item, tokens)), tensors)

    def test_backward_needs_scalar(self):
        with pytest.raises(ValueError):
            nn.backward(nn.leaf(np.zeros(3)))
        with pytest.raises(ValueError):
            nn.backward(nn.leaf(0.0))  # a scalar that no replay made


class TestGradCheck:
    """programmer.grad_check: finite differences on the programmer's own
    replay, which runs every backward above as training wires them."""

    def test_likelihood_small(self):
        err = pg.grad_check(seed=0, embed_dim=4, hidden=5)
        assert err <= 1e-4, err

    def test_policy_small(self):
        err = pg.grad_check(seed=1, objective="policy", embed_dim=4, hidden=5)
        assert err <= 1e-4, err

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            pg.grad_check(objective="nonsense")

    def test_detached_memory_keys_are_caught(self, monkeypatch):
        # the replay looks output_logits_back up at call time, so cutting
        # the gradient into the memory keys there must show in the check
        original = nn.output_logits_back

        def detached(w_out, w_key, g, a, kmat, proj, key_grads):
            return original(w_out, w_key, g, a, kmat, proj, [np.zeros_like(k) for k in key_grads])

        monkeypatch.setattr(nn, "output_logits_back", detached)
        for objective in ("likelihood", "policy"):
            err = pg.grad_check(seed=0, objective=objective, embed_dim=4, hidden=5)
            assert err > 1e-4, (objective, err)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = rng_of(0)
        params = nn.ModelParams.init(rng, 5, 6, 3, 4)
        path = tmp_path / "model.ckpt"
        meta = {"hidden": 4, "note": "fixture"}
        nn.save_checkpoint(path, nn.params_to_arrays(params), meta)
        got_meta, arrays = nn.load_checkpoint(path)
        assert got_meta == meta
        for name, tensor in params.named_tensors():
            assert arrays[name].tobytes() == tensor.data.tobytes()
        # loading into a fresh model then saving again is byte-identical
        fresh = nn.params_from_arrays(arrays)
        path2 = tmp_path / "model2.ckpt"
        nn.save_checkpoint(path2, nn.params_to_arrays(fresh), meta)
        assert path2.read_bytes() == path.read_bytes()

    GARBAGE = [
        b'{"format": "something-else"}\n',
        b'{"format": "lisplab-checkpoint", "version": 1, "meta": {}, "tensors": []}',  # no newline
        b"",
        b"[1]\n",
        b'"lisplab-checkpoint"\n',
        b'{"format": "lisplab-checkpoint", "version": 1, "meta": {}}\n',
        b'{"format": "lisplab-checkpoint", "version": 1, "tensors": []}\n',
        b'{"format": "lisplab-checkpoint", "version": 1, "meta": [], "tensors": []}\n',
        b'{"format": "lisplab-checkpoint", "version": 1, "meta": {}, "tensors": {}}\n',
        b'{"format": "lisplab-checkpoint", "version": 1, "meta": {}, "tensors": [{"shape": [1]}]}\n',
        b'{"format": "lisplab-checkpoint", "version": 1, "meta": {}, "tensors": [{"name": "a"}]}\n',
        b'{"format": "lisplab-checkpoint", "version": 1, "meta": {}, "tensors": [7]}\n',
        b'{"format": "lisplab-checkpoint", "version": 1, "meta": {},'
        b' "tensors": [{"name": "a", "shape": ["x"]}]}\n',
        b'{"format": "lisplab-checkpoint", "version": 1, "meta": {},'
        b' "tensors": [{"name": "a", "shape": [2]}]}\n\x00\x00',  # truncated data
    ]

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        for blob in self.GARBAGE:
            path.write_bytes(blob)
            with pytest.raises(ValueError) as info:
                nn.load_checkpoint(path)
            assert "\n" not in str(info.value), blob

    def test_rejects_trailing_bytes(self, tmp_path):
        rng = rng_of(0)
        params = nn.ModelParams.init(rng, 2, 2, 2, 2)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, nn.params_to_arrays(params), {})
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError):
            nn.load_checkpoint(path)

    def test_params_from_arrays_checks_names_and_shapes(self):
        params = nn.ModelParams.init(rng_of(0), 2, 2, 2, 2)
        for name in ("w_key", "word_emb", "token_emb"):
            arrays = dict(nn.params_to_arrays(params))
            del arrays[name]
            with pytest.raises(ValueError):
                nn.params_from_arrays(arrays)
        arrays = dict(nn.params_to_arrays(params))
        arrays["extra"] = np.zeros(2)
        with pytest.raises(ValueError):
            nn.params_from_arrays(arrays)
        arrays = dict(nn.params_to_arrays(params))
        arrays["w_key"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            nn.params_from_arrays(arrays)
        arrays = dict(nn.params_to_arrays(params))
        arrays["word_emb"] = np.zeros(4)
        with pytest.raises(ValueError):
            nn.params_from_arrays(arrays)


class TestModelParams:
    def test_named_tensor_order_is_stable(self):
        params = nn.ModelParams.init(rng_of(0), 3, 4, 2, 5)
        names = [n for n, _ in params.named_tensors()]
        assert names[0] == "word_emb" and names[-1] == "w_key"
        assert names == [n for n, _ in params.named_tensors()]
        assert len(names) == len(set(names)) == 24

    def test_init_seeded(self):
        a = nn.ModelParams.init(rng_of(4), 3, 4, 2, 5)
        b = nn.ModelParams.init(rng_of(4), 3, 4, 2, 5)
        for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_dims(self):
        params = nn.ModelParams.init(rng_of(0), 3, 4, 2, 5)
        assert params.embed_dim == 2 and params.hidden_dim == 5
