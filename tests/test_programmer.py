import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisplab import nnkernel as nn
from lisplab import programmer as pg
from lisplab.assist import DecodingState
from lisplab.kb import KnowledgeBase

from oracles import (
    byte_edits, enumerate_programs, next_token_distribution, random_triples, reference_beam,
    reference_samples, scalar_softmax,
)

KB_TRIPLES = [
    ("abe", "BornIn", "hodgenville"),
    ("abe", "HeightOf", 193.0),
    ("george", "BornIn", "westmoreland"),
    ("george", "HeightOf", 188.0),
    ("hodgenville", "LocatedIn", "kentucky"),
]


def kb_of(triples=None):
    return KnowledgeBase(triples or KB_TRIPLES)


def item_of(tokens="where was abe lincoln born", spans=(((2, 4), "abe"),), answers=("hodgenville",),
            qid="q0"):
    return pg.QAItem(qid, tuple(tokens.split()), spans, answers)


def tiny_model(kb=None, items=None, seed=0):
    kb = kb or kb_of()
    items = items if items is not None else [item_of()]
    return pg.build_model(kb, items, embed_dim=6, hidden_dim=8, seed=seed)


class TestQAItem:
    def test_abstraction_preserves_length(self):
        item = item_of()
        abstracted = item.abstracted()
        assert abstracted == ["where", "was", "ENT", "ENT", "born"]
        assert len(abstracted) == len(item.tokens)

    def test_two_entities(self):
        item = pg.QAItem(
            "q1",
            ("who", "plays", "meg", "in", "family", "guy"),
            (((2, 3), "meg"), ((4, 6), "family_guy")),
            ("actor",),
        )
        assert item.abstracted() == ["who", "plays", "ENT", "in", "ENT", "ENT"]
        assert item.initial_vars() == [("meg",), ("family_guy",)]

    def test_span_validation(self):
        with pytest.raises(ValueError):
            item_of(spans=(((2, 9), "abe"),))
        with pytest.raises(ValueError):
            item_of(spans=(((3, 3), "abe"),))
        with pytest.raises(ValueError):
            pg.QAItem("q", ("a", "b", "c"), (((0, 2), "x"), ((1, 3), "y")), ("a",))
        for bounds in ((2.0, 4), (2, 4.0), (True, 4), (2, np.int64(4))):
            with pytest.raises(ValueError, match="integers"):
                item_of(spans=((bounds, "abe"),))

    @pytest.mark.parametrize("token", ["", " ", "a b", "a\tb", "b\n"],
                             ids=["empty", "space", "inner-space", "tab", "newline"])
    def test_empty_or_whitespace_token_rejected(self, token):
        with pytest.raises(ValueError, match="whitespace"):
            pg.QAItem("q", ("what", token, "abe"), (((2, 3), "abe"),), ("a",))

    def test_answers_canonicalized(self):
        item = item_of(answers=("b", "a", "b"))
        assert item.answers == ("a", "b")


class TestModelBuild:
    def test_vocab_layout(self):
        model = tiny_model()
        assert model.word_vocab[0] == pg.UNK
        assert "ENT" in model.word_vocab
        assert "abe" not in model.word_vocab  # abstracted away
        assert model.static_tokens[:8] == ["GO", "(", ")", "RETURN", "ArgMax", "ArgMin", "Equal", "Hop"]
        assert model.static_tokens[8:] == sorted(kb_of().properties)

    def test_token_ids_round_trip(self):
        model = tiny_model()
        for tok in model.static_tokens + ["R0", "R7"]:
            assert model.id_to_token(model.token_to_id(tok)) == tok
        with pytest.raises(KeyError):
            model.token_to_id("R05")
        with pytest.raises(KeyError):
            model.token_to_id("NotAToken")

    def test_property_name_collisions_rejected(self):
        for bad in ("Hop", "RETURN", "GO", "R5"):
            kb = KnowledgeBase([("a", bad, "b")])
            with pytest.raises(ValueError):
                pg.build_model(kb, [item_of()], 4, 4)

    def test_seeded_build_deterministic(self):
        a, b = tiny_model(seed=3), tiny_model(seed=3)
        for (_, ta), (_, tb) in zip(a.params.named_tensors(), b.params.named_tensors()):
            assert ta.data.tobytes() == tb.data.tobytes()


class TestEncode:
    def test_key_is_span_average(self):
        model = tiny_model()
        item = item_of()
        encoding = pg.encode(model, item)
        assert len(encoding.keys) == 1
        expected = encoding.enc[2:4].mean(axis=0)
        assert np.array_equal(encoding.keys[0], expected)

    def test_single_token_span_key_is_that_output(self):
        model = tiny_model()
        item = item_of(spans=(((2, 3), "abe"),))
        encoding = pg.encode(model, item)
        assert np.array_equal(encoding.keys[0], encoding.enc[2])

    def test_matches_manual_np_unroll(self):
        model = tiny_model()
        item = item_of()
        params = model.params
        h = np.zeros(params.hidden_dim)
        rows = []
        for word in item.abstracted():
            wid = model.word_index.get(word, 0)
            h = nn.gru_step_np(params.encoder, h, params.word_emb.data[wid])
            rows.append(h)
        encoding = pg.encode(model, item)
        assert np.allclose(encoding.enc, np.stack(rows), atol=1e-12, rtol=0)
        assert np.array_equal(encoding.enc[-1], rows[-1])
        assert encoding.word_ids == [model.word_index.get(w, 0) for w in item.abstracted()]

    def test_empty_question_errors(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            pg.encode(model, pg.QAItem("q", (), (), ("a",)))

    def test_independent_of_decoder_params(self):
        model = tiny_model()
        item = item_of()
        before = pg.encode(model, item).enc.copy()
        model.params.decoder.wxz.data += 1.0
        model.params.w_out.data += 1.0
        after = pg.encode(model, item).enc
        assert np.array_equal(before, after)

    def test_unknown_words_share_unk(self):
        model = tiny_model()
        a = pg.QAItem("a", ("zzz", "was", "abe", "lincoln", "born"), (((2, 4), "abe"),), ("x",))
        b = pg.QAItem("b", ("qqq", "was", "abe", "lincoln", "born"), (((2, 4), "abe"),), ("x",))
        assert np.array_equal(pg.encode(model, a).enc, pg.encode(model, b).enc)


class TestDistribution:
    def test_after_open_only_functions(self):
        model = tiny_model()
        dist = next_token_distribution(model, kb_of(), item_of(), ["("])
        assert set(dist) <= {"Hop", "ArgMax", "ArgMin", "Equal"}
        assert abs(sum(dist.values()) - 1.0) < 1e-9

    def test_singleton_valid_set_has_probability_one(self):
        model = tiny_model()
        dist = next_token_distribution(
            model, kb_of(), item_of(), ["(", "Hop", "R0", "BornIn"]
        )
        assert dist == {")": 1.0}

    def test_matches_manual_composition(self):
        kb = kb_of()
        model = tiny_model(kb)
        item = item_of()
        params = model.params
        # independent unroll with the numpy twins
        h = np.zeros(params.hidden_dim)
        rows = []
        for word in item.abstracted():
            h = nn.gru_step_np(params.encoder, h, params.word_emb.data[model.word_index.get(word, 0)])
            rows.append(h)
        enc = np.stack(rows)
        keys = [enc[2:4].mean(axis=0)]
        dec_h = nn.gru_step_np(params.decoder, rows[-1], params.token_emb.data[model.token_index["GO"]])
        att = nn.attention_np(params.attention, dec_h, enc)
        logits = np.concatenate([params.w_out.data @ att, np.stack(keys) @ (params.w_key.data @ att)])
        state = DecodingState(kb, item.initial_vars())
        valid = np.array(sorted(model.token_to_id(t) for t in state.valid_tokens()))
        mask = np.zeros(len(logits), dtype=bool)
        mask[valid] = True
        probs = scalar_softmax(logits.tolist(), mask.tolist())
        dist = next_token_distribution(model, kb, item)
        for tok, p in dist.items():
            assert abs(p - probs[model.token_to_id(tok)]) < 1e-9

    def test_invalid_prefix_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            next_token_distribution(model, kb_of(), item_of(), ["Hop"])


class TestBeamSearch:
    def test_beam_one_matches_reference_walk(self):
        # beam size 1 keeps one live lane by stepwise argmax over the
        # non-terminating tokens, but every RETURN closure along the way
        # stays in the finished pool; the best of those is the answer.
        kb = kb_of()
        model = tiny_model(kb)
        item = item_of()
        prefix: list[str] = []
        logprob = 0.0
        finished = []
        while True:
            dist = next_token_distribution(model, kb, item, prefix)
            if "RETURN" in dist:
                finished.append(
                    (tuple(prefix) + ("RETURN",), logprob + np.log(dist["RETURN"]))
                )
            live = [(t, p) for t, p in dist.items() if t != "RETURN"]
            if not live:
                break
            token, p = max(live, key=lambda kv: (kv[1], -model.token_to_id(kv[0])))
            prefix.append(token)
            logprob += np.log(p)
        want_tokens, want_lp = max(finished, key=lambda f: f[1])
        best = pg.greedy_decode(model, kb, item)
        assert best.tokens == want_tokens
        assert abs(best.logprob - want_lp) < 1e-9

    def test_single_legal_program(self):
        kb = KnowledgeBase([("Hodgenville", "PlaceOfBirthOf", "AbeLincoln")])
        model = pg.build_model(kb, [item_of()], 4, 6)
        item = pg.QAItem("q", ("who", "was", "born", "in", "ent"), (((4, 5), "Hodgenville"),), ("AbeLincoln",))
        results = pg.beam_search(model, kb, item, beam_size=8, max_expressions=1)
        texts = {c.text() for c in results}
        assert texts == {"RETURN", "( Hop R0 PlaceOfBirthOf ) RETURN"}
        by_text = {c.text(): c for c in results}
        assert by_text["( Hop R0 PlaceOfBirthOf ) RETURN"].denotation == ("AbeLincoln",)

    def test_large_beam_is_exhaustive_and_sums_to_one(self):
        kb = kb_of()
        model = tiny_model(kb)
        item = item_of()
        results = pg.beam_search(model, kb, item, beam_size=10000, max_expressions=2)
        got = {c.tokens for c in results}
        expected = {
            tuple(tokens)
            for tokens, _ in enumerate_programs(KB_TRIPLES, [("abe",)], 2)
        }
        assert got == expected
        total = sum(np.exp(c.logprob) for c in results)
        assert abs(total - 1.0) <= 1e-9
        # sorted by log-probability, ties by token ids
        lps = [c.logprob for c in results]
        assert lps == sorted(lps, reverse=True)

    def test_beam_results_deterministic(self):
        kb = kb_of()
        model = tiny_model(kb)
        item = item_of()
        a = pg.beam_search(model, kb, item, 5)
        b = pg.beam_search(model, kb, item, 5)
        assert [(c.tokens, c.logprob) for c in a] == [(c.tokens, c.logprob) for c in b]

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_feed_every_expansion_reference(self, seed):
        # random tiny KBs, one or two entities; odd seeds zero the
        # parameters, so every step is uniform and keys tie on log-prob
        rng = random.Random(seed)
        triples, _, _ = random_triples(rng, n_entities=4, n_props=2)
        kb = KnowledgeBase(triples)
        subjects = sorted({s for s, _, _ in triples})
        chosen = rng.sample(subjects, min(len(subjects), rng.randint(1, 2)))
        spans = tuple(((2 * i + 1, 2 * i + 2), eid) for i, eid in enumerate(chosen))
        words = " ".join(f"w{i} ent" for i in range(len(chosen)))
        item = item_of(words, spans, (chosen[0],))
        model = tiny_model(kb, [item], seed=seed)
        if seed % 2:
            for _, tensor in model.params.named_tensors():
                tensor.data[...] = 0.0
        for max_expressions in (1, 2, 3):
            for beam_size in (1, 2, 3, 8, 10000):
                got = pg.beam_search(model, kb, item, beam_size, max_expressions)
                want = reference_beam(model, kb, item, beam_size, max_expressions)
                assert got == want, (max_expressions, beam_size)

    def test_denotations_match_state_replay(self):
        kb = kb_of()
        model = tiny_model(kb)
        item = item_of()
        for cand in pg.beam_search(model, kb, item, 6):
            state = DecodingState(kb, item.initial_vars()).feed_all(cand.tokens)
            assert cand.denotation == state.denotation()


def random_task(seed):
    """A random tiny KB, a question over one or two of its entities, and a
    model of the default dims for them; odd seeds zero every parameter, so
    every step is uniform and keys tie on log-prob."""
    rng = random.Random(seed)
    triples, _, _ = random_triples(rng, n_entities=4, n_props=2)
    kb = KnowledgeBase(triples)
    subjects = sorted({s for s, _, _ in triples})
    chosen = rng.sample(subjects, min(len(subjects), rng.randint(1, 2)))
    spans = tuple(((2 * i + 1, 2 * i + 2), eid) for i, eid in enumerate(chosen))
    words = " ".join(f"w{i} ent" for i in range(len(chosen)))
    item = item_of(words, spans, (chosen[0],))
    model = pg.build_model(kb, [item], seed=seed)
    if seed % 2:
        for _, tensor in model.params.named_tensors():
            tensor.data[...] = 0.0
    return kb, item, model


class TestFeed:
    @pytest.mark.parametrize("seed", (0, 2, 4))
    def test_batch_equals_one_lane_at_a_time(self, seed):
        # sampled log-probs often round a last-bit change of the decoder
        # state away, so compare the states themselves: each lane fed in a
        # batch keeps the bytes of the same lane fed alone, keys included
        kb, item, model = random_task(seed)
        encoding = pg.encode(model, item)
        rng = random.Random(seed)
        lanes = [pg._start(pg._Lane, model, kb, item, 3, encoding) for _ in range(16)]
        while True:
            active = [lane for lane in lanes if not lane.done]
            if not active:
                break
            alone = [lane.clone() for lane in active]
            tids = [rng.choice(pg._valid_ids(model, lane.state).tolist()) for lane in active]
            logps = [-rng.random() for _ in active]
            pg._feed(model, active, tids, logps)
            for lane, tid, logp in zip(alone, tids, logps):
                pg._feed(model, [lane], [tid], [logp])
            for a, b in zip(active, alone):
                assert a.dec_h.tobytes() == b.dec_h.tobytes()
                assert [k.tobytes() for k in a.keys] == [k.tobytes() for k in b.keys]
                assert (a.token_ids, a.logprob, a.state.emitted) == \
                    (b.token_ids, b.logprob, b.state.emitted)


class TestSampling:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_lane_reference(self, seed):
        kb, item, model = random_task(seed)
        for max_expressions in (1, 2, 3):
            for n_samples in (1, 2, 8, 33):
                rngs = np.random.default_rng(seed), np.random.default_rng(seed)
                got = pg.sample_programs(model, kb, item, n_samples, rngs[0], max_expressions)
                want = reference_samples(model, kb, item, n_samples, rngs[1], max_expressions)
                assert got == want, (max_expressions, n_samples)
                # the same number of draws
                assert rngs[0].random() == rngs[1].random()

    def test_seeded_determinism(self):
        kb = kb_of()
        model = tiny_model(kb)
        item = item_of()
        a = pg.sample_programs(model, kb, item, 6, np.random.default_rng(11))
        b = pg.sample_programs(model, kb, item, 6, np.random.default_rng(11))
        assert [c.tokens for c in a] == [c.tokens for c in b]

    def test_respects_max_expressions(self):
        kb = kb_of()
        model = tiny_model(kb)
        item = item_of()
        for cand in pg.sample_programs(model, kb, item, 50, np.random.default_rng(0), max_expressions=2):
            assert cand.tokens.count("(") <= 2
            assert cand.tokens[-1] == "RETURN"

    def test_two_program_frequencies(self):
        kb = KnowledgeBase([("a", "p", "b")])
        item = pg.QAItem("q", ("what", "is", "ent"), (((2, 3), "a"),), ("b",))
        model = pg.build_model(kb, [item], 4, 6, seed=2)
        dist = next_token_distribution(model, kb, item, max_expressions=1)
        p_return = dist["RETURN"]
        n = 20000
        samples = pg.sample_programs(model, kb, item, n, np.random.default_rng(5), max_expressions=1)
        hits = sum(1 for c in samples if c.tokens == ("RETURN",))
        sigma = (p_return * (1 - p_return) / n) ** 0.5
        assert abs(hits / n - p_return) <= 3 * sigma

    def test_sampled_logprob_matches_tape(self):
        kb = kb_of()
        model = tiny_model(kb)
        item = item_of()
        for cand in pg.sample_programs(model, kb, item, 5, np.random.default_rng(3)):
            lp = pg.program_logprob(model, kb, item, cand.tokens)
            assert abs(float(lp.data) - cand.logprob) < 1e-9


class TestProgramLogprob:
    def test_matches_beam_scores(self):
        kb = kb_of()
        model = tiny_model(kb)
        item = item_of()
        for cand in pg.beam_search(model, kb, item, 8):
            lp = pg.program_logprob(model, kb, item, cand.tokens)
            assert abs(float(lp.data) - cand.logprob) < 1e-9

    def test_gradient_flows_everywhere(self):
        kb = kb_of()
        # two entities, so the Hop variable slot offers {R0, R1} and the
        # variable logits actually influence a choice
        item = pg.QAItem(
            "q", ("abe", "lincoln", "or", "george"),
            (((0, 2), "abe"), ((3, 4), "george")), ("hodgenville",),
        )
        model = pg.build_model(kb, [item], 6, 8, seed=1)
        tokens = ("(", "Hop", "R0", "BornIn", ")", "RETURN")
        model.params.zero_grad()
        nn.backward(pg.program_logprob(model, kb, item, tokens))
        grads = {n: t.grad for n, t in model.params.named_tensors()}
        for name in ("w_out", "w_key", "encoder.wxz", "decoder.wxz",
                     "attention.w_score", "token_emb", "word_emb"):
            assert grads[name] is not None, name
            assert np.abs(grads[name]).max() > 0, name

    def test_rejects_junk(self):
        kb = kb_of()
        model = tiny_model(kb)
        item = item_of()
        with pytest.raises(Exception):
            pg.program_logprob(model, kb, item, ("Hop",))
        with pytest.raises(ValueError):
            pg.program_logprob(model, kb, item, ("RETURN", "RETURN"))


class TestBuildModel:
    @pytest.mark.parametrize("dims", [(0, 8), (6, 0), (-1, 8)])
    def test_dims_below_one_rejected(self, dims):
        with pytest.raises(ValueError, match="at least 1"):
            pg.build_model(kb_of(), [item_of()], embed_dim=dims[0], hidden_dim=dims[1])


class TestCheckpointing:
    def test_round_trip_preserves_behavior(self, tmp_path):
        kb = kb_of()
        model = tiny_model(kb)
        item = item_of()
        before = pg.beam_search(model, kb, item, 4)
        path = tmp_path / "model.ckpt"
        pg.save_model(path, model, 2)
        reloaded, max_expressions = pg.load_model(path)
        assert max_expressions == 2
        assert reloaded.word_vocab == model.word_vocab
        assert reloaded.static_tokens == model.static_tokens
        after = pg.beam_search(reloaded, kb, item, 4)
        assert [(c.tokens, c.logprob) for c in before] == [(c.tokens, c.logprob) for c in after]

    def test_missing_or_malformed_meta_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.ckpt"
        pg.save_model(path, model, 3)
        meta, arrays = nn.load_checkpoint(path)
        assert "max_expressions" in meta
        for key in meta:
            nn.save_checkpoint(path, list(arrays.items()), {k: v for k, v in meta.items() if k != key})
            with pytest.raises(ValueError, match=key):
                pg.load_model(path)
        bad = [
            ("word_vocab", 7, "malformed"),
            ("word_vocab", "abc", "malformed"),
            ("word_vocab", meta["word_vocab"][:-1] + [3], "malformed"),
            ("word_vocab", meta["word_vocab"][:-1] + meta["word_vocab"][-2:-1], "malformed"),
            ("static_tokens", None, "malformed"),
            ("word_vocab", meta["word_vocab"] + ["x1", "x2", "x3", "x4", "x5"], "entries"),
            ("static_tokens", meta["static_tokens"][:-1], "entries"),
            ("max_expressions", 0, "malformed"),
            ("max_expressions", "3", "malformed"),
            ("max_expressions", True, "malformed"),
            ("max_expressions", 3.0, "malformed"),
        ]
        for key, value, message in bad:
            nn.save_checkpoint(path, list(arrays.items()), {**meta, key: value})
            with pytest.raises(ValueError, match=f"{key}.*{message}"):
                pg.load_model(path)

    def test_save_is_deterministic(self, tmp_path):
        model = tiny_model()
        pg.save_model(tmp_path / "a.ckpt", model, 3)
        pg.save_model(tmp_path / "b.ckpt", model, 3)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def model_fields(model: pg.Model, max_expressions: int):
    """What a checkpoint stores, with tensors as raw bytes."""
    tensors = [(name, t.data.shape, t.data.tobytes()) for name, t in model.params.named_tensors()]
    return (model.word_vocab, model.static_tokens, model.kb_digest, max_expressions, tensors)


@st.composite
def models(draw):
    vocab = st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True)
    word_vocab, static_tokens = draw(vocab), draw(vocab)
    embed_dim, hidden_dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    params = nn.ModelParams.init(np.random.default_rng(draw(st.integers(0, 99))),
                                 len(word_vocab), len(static_tokens), embed_dim, hidden_dim)
    return pg.Model(word_vocab, static_tokens, params, draw(st.text(max_size=8)))


class TestCheckpointFuzz:
    """A checkpoint file either loads and round-trips exactly or raises
    ValueError, the error the CLI reports as one ``error:`` line."""

    @given(models(), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, model, max_expressions):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            pg.save_model(path, model, max_expressions)
            first = path.read_bytes()
            reloaded = pg.load_model(path)
            assert model_fields(*reloaded) == model_fields(model, max_expressions)
            pg.save_model(path, *reloaded)
            assert path.read_bytes() == first

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_edited_bytes_load_exactly_or_raise(self, data):
        model = tiny_model(seed=data.draw(st.integers(0, 3)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            pg.save_model(path, model, 3)
            path.write_bytes(data.draw(byte_edits(path.read_bytes())))
            try:
                loaded = pg.load_model(path)
            except ValueError as exc:
                assert "\n" not in str(exc)
                return
            pg.save_model(path, *loaded)
            assert model_fields(*pg.load_model(path)) == model_fields(*loaded)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_edited_header_loads_exactly_or_raises(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            pg.save_model(path, tiny_model(), 3)
            header, sep, tensors = path.read_bytes().partition(b"\n")
            path.write_bytes(data.draw(byte_edits(header)) + sep + tensors)
            try:
                loaded = pg.load_model(path)
            except ValueError as exc:
                assert "\n" not in str(exc)
                return
            pg.save_model(path, *loaded)
            assert model_fields(*pg.load_model(path)) == model_fields(*loaded)

    def test_deep_nesting_raises(self, tmp_path):
        path = tmp_path / "deep.ckpt"
        path.write_bytes(b"[" * 100_000 + b"\n")
        with pytest.raises(ValueError, match="nested"):
            pg.load_model(path)
