import copy
import dataclasses

import numpy as np
import pytest

from lisplab import nnkernel as nn
from lisplab import trainer as tr
from lisplab.kb import KnowledgeBase, answer_f1
from lisplab.programmer import (
    QAItem,
    beam_search,
    build_model,
    greedy_decode,
    program_logprob,
)


class TestRewardF1:
    """The reward of a program: the F1 of kb.answer_f1 on its denotation."""

    def test_exact_match(self):
        assert answer_f1(("A",), ("A",)) == (1.0, 1.0, 1.0)

    def test_empty_prediction(self):
        assert answer_f1((), ("A",)) == (0.0, 0.0, 0.0)

    def test_half_overlap(self):
        assert answer_f1(("A", "B"), ("A", "C")) == (0.5, 0.5, 0.5)

    def test_precision_recall_asymmetry(self):
        # pred {A}, gold {A,B}: P=1, R=0.5, F1=2/3
        p, r, f1 = answer_f1(("A",), ("A", "B"))
        assert (p, r) == (1.0, 0.5)
        assert f1 == pytest.approx(2 / 3)

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            answer_f1(("A",), ())
        with pytest.raises(ValueError):
            answer_f1((), ())

    def test_range(self):
        assert all(0.0 <= v <= 1.0 for v in answer_f1(("A", "B", "C"), ("B", "Z")))
        assert answer_f1(("A",), ("B",)) == (0.0, 0.0, 0.0)


class TestPseudoGoldStore:
    def test_max_merge_on_reward(self):
        store = tr.PseudoGoldStore()
        assert store.merge("q", tr.RewardedProgram(("RETURN",), 0.5))
        assert not store.merge("q", tr.RewardedProgram(("RETURN",), 0.4))
        assert store.merge("q", tr.RewardedProgram(("RETURN",), 0.9))
        assert store.get("q").reward == 0.9

    def test_shorter_wins_ties(self):
        store = tr.PseudoGoldStore()
        long = tr.RewardedProgram(("(", "Hop", "R0", "p", ")", "RETURN"), 1.0)
        short = tr.RewardedProgram(("RETURN",), 1.0)
        store.merge("q", long)
        assert store.merge("q", short)
        assert store.get("q") is short
        assert not store.merge("q", long)

    def test_lexicographic_last_resort(self):
        store = tr.PseudoGoldStore()
        b = tr.RewardedProgram(("(", "Hop", "R0", "b", ")", "RETURN"), 1.0)
        a = tr.RewardedProgram(("(", "Hop", "R0", "a", ")", "RETURN"), 1.0)
        store.merge("q", b)
        assert store.merge("q", a)
        assert not store.merge("q", b)

    def test_coverage_counts_full_reward_only(self):
        store = tr.PseudoGoldStore()
        store.merge("q1", tr.RewardedProgram(("RETURN",), 1.0))
        store.merge("q2", tr.RewardedProgram(("RETURN",), 0.5))
        assert store.coverage(["q1", "q2", "q3"]) == pytest.approx(1 / 3)
        assert store.coverage([]) == 0.0
        assert len(store) == 2

    def test_rewards_sorted_by_qid(self):
        store = tr.PseudoGoldStore()
        store.merge("b", tr.RewardedProgram(("RETURN",), 0.5))
        store.merge("a", tr.RewardedProgram(("RETURN",), 1.0))
        assert list(store.rewards()) == ["a", "b"]


class TestTrainConfig:
    def test_defaults(self):
        config = tr.TrainConfig()
        assert config.beam_size == 32
        assert config.n_samples == 8
        assert config.learning_rate == 0.05
        assert config.epochs_per_iteration == 10
        assert config.ml_iterations == 5
        assert config.alpha == 0.1
        assert config.baseline_decay == 0.9

    @pytest.mark.parametrize("kwargs", [
        {"beam_size": 0},
        {"learning_rate": -0.1},
        {"alpha": 1.5},
        {"alpha": -0.1},
        {"ml_iterations": 0},
        {"baseline_decay": 2.0},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            tr.TrainConfig(**kwargs)


class TestSgdStep:
    def params(self):
        return nn.ModelParams.init(np.random.default_rng(0), 5, 6, 3, 4)

    def test_ascends_along_gradient(self):
        params = self.params()
        before = params.w_out.data.copy()
        params.zero_grad()
        params.w_out.grad = np.ones_like(params.w_out.data)
        norm = tr.sgd_step(params, 0.1)
        # norm below the clip, so the raw gradient is applied
        assert norm < tr.GRAD_CLIP_NORM
        assert np.allclose(params.w_out.data, before + 0.1)

    def test_clips_global_norm(self):
        params = self.params()
        params.zero_grad()
        g = np.zeros_like(params.w_out.data)
        g.flat[0] = 10.0
        params.w_out.grad = g
        before = params.w_out.data.copy()
        norm = tr.sgd_step(params, 1.0)
        assert norm == pytest.approx(10.0)
        assert params.w_out.data.flat[0] - before.flat[0] == pytest.approx(5.0)

    def test_no_gradients_is_noop(self):
        params = self.params()
        params.zero_grad()
        snapshot = [t.data.copy() for _, t in params.named_tensors()]
        assert tr.sgd_step(params, 0.5) == 0.0
        for (_, t), old in zip(params.named_tensors(), snapshot):
            assert np.array_equal(t.data, old)

    def test_zero_gradient_is_noop(self):
        params = self.params()
        params.zero_grad()
        params.w_out.grad = np.zeros_like(params.w_out.data)
        before = params.w_out.data.copy()
        assert tr.sgd_step(params, 0.5) == 0.0
        assert np.array_equal(params.w_out.data, before)


ONE_TRIPLE = [("Hodgenville", "PlaceOfBirthOf", "AbeLincoln")]


def one_hop_item(qid="q0", answers=("AbeLincoln",)):
    return QAItem(
        qid, ("who", "was", "born", "in", "hodgenville"),
        (((4, 5), "Hodgenville"),), answers,
    )


def force_predictions(model, kb, items, targets, steps=250, lr=0.5):
    """Likelihood-train until greedy emits exactly the target programs."""
    for _ in range(steps):
        for item, target in zip(items, targets):
            model.params.zero_grad()
            nn.backward(program_logprob(model, kb, item, target))
            tr.sgd_step(model.params, lr)
        if all(
            greedy_decode(model, kb, item).tokens == target
            for item, target in zip(items, targets)
        ):
            return
    raise AssertionError("fixture model failed to converge on its targets")


class TestEvaluate:
    def test_question_metrics_fixtures(self):
        # the per-question scores evaluate averages, and its exact match
        assert answer_f1(("A",), ("A",)) == (1.0, 1.0, 1.0)
        assert answer_f1((), ("A",)) == (0.0, 0.0, 0.0)
        p, r, f1 = answer_f1(("A", "B"), ("A",))
        assert (p, r) == (0.5, 1.0)
        assert f1 == pytest.approx(2 / 3)
        # bitwise the formula the metric fixtures are written in
        assert f1 == 2.0 * 0.5 * 1.0 / (0.5 + 1.0)

    def test_empty_gold_rejected(self):
        kb = KnowledgeBase(ONE_TRIPLE)
        item = one_hop_item(answers=())
        model = build_model(kb, [item], 4, 6)
        with pytest.raises(ValueError):
            tr.evaluate(model, kb, [item])

    def test_empty_dataset(self):
        kb = KnowledgeBase(ONE_TRIPLE)
        model = build_model(kb, [one_hop_item()], 4, 6)
        assert tr.evaluate(model, kb, []) == tr.Metrics(0.0, 0.0, 0.0, 0.0)

    def test_five_question_fixture(self):
        # e0 --p--> {a, b}; e1 --p--> {a}
        kb = KnowledgeBase([("e0", "p", "a"), ("e0", "p", "b"), ("e1", "p", "a")])
        hop = ("(", "Hop", "R0", "p", ")", "RETURN")
        ret = ("RETURN",)
        rows = [
            # (entity, target program, gold answers, expected P, R, F1, exact)
            ("e0", hop, ("a", "b"), 1.0, 1.0, 1.0, 1),          # exact
            ("e0", hop, ("a", "c"), 0.5, 0.5, 0.5, 0),          # half overlap
            ("e1", hop, ("a", "b"), 1.0, 0.5, 2 / 3, 0),        # low recall
            ("e0", hop, ("a",), 0.5, 1.0, 2 / 3, 0),            # low precision
            ("e1", ret, ("a",), 0.0, 0.0, 0.0, 0),              # empty prediction
        ]
        items = [
            QAItem(f"q{i}", ("qword", str(i), ent), (((2, 3), ent),), gold)
            for i, (ent, _, gold, *_rest) in enumerate(rows)
        ]
        model = build_model(kb, items, 8, 12, seed=0)
        force_predictions(model, kb, items, [row[1] for row in rows])

        metrics = tr.evaluate(model, kb, items)
        n = len(rows)
        assert metrics.avg_precision == sum(r[3] for r in rows) / n
        assert metrics.avg_recall == sum(r[4] for r in rows) / n
        assert metrics.avg_f1 == sum(r[5] for r in rows) / n
        assert metrics.accuracy_at_1 == sum(r[6] for r in rows) / n
        assert dataclasses.asdict(metrics)["avg_f1"] == metrics.avg_f1


class TestIterativeMl:
    def config(self, **kwargs):
        defaults = dict(beam_size=8, ml_iterations=2, epochs_per_iteration=5,
                        learning_rate=0.2, reinforce_epochs=1)
        defaults.update(kwargs)
        return tr.TrainConfig(**defaults)

    def test_toy_reaches_full_reward_in_one_iteration(self):
        kb = KnowledgeBase(ONE_TRIPLE)
        item = one_hop_item()
        model = build_model(kb, [item], 4, 6)
        config = self.config(ml_iterations=1)
        store = tr.iterative_ml(model, kb, [item], config)
        assert store.get("q0").reward == 1.0
        assert store.get("q0").tokens == ("(", "Hop", "R0", "PlaceOfBirthOf", ")", "RETURN")

    def test_likelihood_strictly_increases(self):
        kb = KnowledgeBase(ONE_TRIPLE)
        item = one_hop_item()
        model = build_model(kb, [item], 4, 6)
        target = ("(", "Hop", "R0", "PlaceOfBirthOf", ")", "RETURN")
        before = float(program_logprob(model, kb, item, target).data)
        tr.iterative_ml(model, kb, [item], self.config())
        after = float(program_logprob(model, kb, item, target).data)
        assert after > before

    def test_store_rewards_monotone_in_log(self):
        kb = KnowledgeBase(
            ONE_TRIPLE + [("Hodgenville", "LocatedIn", "Kentucky"),
                          ("Kentucky", "PartOf", "USA")]
        )
        items = [
            one_hop_item("q0"),
            one_hop_item("q1", answers=("Kentucky",)),
            one_hop_item("q2", answers=("USA",)),
        ]
        model = build_model(kb, items, 4, 6)
        log = []
        tr.iterative_ml(model, kb, items, self.config(ml_iterations=3), log=log.append)
        assert [line["iteration"] for line in log] == [1, 2, 3]
        for earlier, later in zip(log, log[1:]):
            for qid, reward in earlier["store_rewards"].items():
                assert later["store_rewards"][qid] >= reward

    def test_empty_dataset_rejected(self):
        kb = KnowledgeBase(ONE_TRIPLE)
        model = build_model(kb, [one_hop_item()], 4, 6)
        with pytest.raises(ValueError):
            tr.iterative_ml(model, kb, [], self.config())


class TestAugmentedReinforce:
    def config(self, **kwargs):
        defaults = dict(beam_size=4, n_samples=3, ml_iterations=1,
                        epochs_per_iteration=1, reinforce_epochs=1,
                        learning_rate=0.1)
        defaults.update(kwargs)
        return tr.TrainConfig(**defaults)

    def test_alpha_one_reduces_to_pseudo_gold_likelihood(self):
        kb = KnowledgeBase(ONE_TRIPLE)
        item = one_hop_item()
        model = build_model(kb, [item], 4, 6)
        gold = ("(", "Hop", "R0", "PlaceOfBirthOf", ")", "RETURN")
        store = tr.PseudoGoldStore()
        store.merge("q0", tr.RewardedProgram(gold, 1.0))
        config = self.config(alpha=1.0)

        reference = copy.deepcopy(model)
        reference.params.zero_grad()
        # every slot becomes the pseudo-gold with advantage (1 - 0)
        for _ in range(config.n_samples):
            nn.backward(program_logprob(reference, kb, item, gold))
        expected = {
            name: t.grad.copy() for name, t in reference.params.named_tensors()
            if t.grad is not None
        }
        before = {name: t.data.copy() for name, t in model.params.named_tensors()}

        tr.augmented_reinforce(model, kb, [item], store, config,
                               rng=np.random.default_rng(0))
        norm = float(np.sqrt(sum(float((g * g).sum()) for g in expected.values())))
        scale = min(1.0, tr.GRAD_CLIP_NORM / norm)
        for name, t in model.params.named_tensors():
            want = before[name] + config.learning_rate * scale * expected.get(name, 0.0)
            assert np.allclose(t.data, want, atol=1e-12), name

    def test_zero_advantage_means_no_update(self):
        kb = KnowledgeBase(ONE_TRIPLE)
        # unreachable gold: every sampled program has reward 0 = baseline
        item = one_hop_item(answers=("Nowhere",))
        model = build_model(kb, [item], 4, 6)
        before = {name: t.data.copy() for name, t in model.params.named_tensors()}
        tr.augmented_reinforce(model, kb, [item], tr.PseudoGoldStore(),
                               self.config(alpha=0.0, reinforce_epochs=3),
                               rng=np.random.default_rng(1))
        for name, t in model.params.named_tensors():
            assert np.array_equal(t.data, before[name]), name

    def test_baseline_tracks_sampled_rewards(self):
        kb = KnowledgeBase(ONE_TRIPLE)
        item = one_hop_item()
        model = build_model(kb, [item], 4, 6)
        config = self.config(alpha=0.0, baseline_decay=0.5, reinforce_epochs=1)
        baselines = tr.augmented_reinforce(
            model, kb, [item], tr.PseudoGoldStore(), config,
            rng=np.random.default_rng(2),
        )
        assert set(baselines) == {"q0"}
        assert 0.0 <= baselines["q0"] <= 0.5  # decay 0.5 from 0 in one step

    def test_log_numbers_on_from_ml_iterations(self):
        kb = KnowledgeBase(ONE_TRIPLE)
        item = one_hop_item()
        model = build_model(kb, [item], 4, 6)
        log = []
        tr.augmented_reinforce(model, kb, [item], tr.PseudoGoldStore(),
                               self.config(ml_iterations=4, reinforce_epochs=3),
                               rng=np.random.default_rng(3), log=log.append)
        assert [line["iteration"] for line in log] == [5, 6, 7]

    def test_seeded_runs_identical(self):
        kb = KnowledgeBase(ONE_TRIPLE)
        item = one_hop_item()
        results = []
        for _ in range(2):
            model = build_model(kb, [item], 4, 6, seed=3)
            store = tr.PseudoGoldStore()
            store.merge("q0", tr.RewardedProgram(
                ("(", "Hop", "R0", "PlaceOfBirthOf", ")", "RETURN"), 1.0))
            tr.augmented_reinforce(model, kb, [item], store,
                                   self.config(reinforce_epochs=2),
                                   rng=np.random.default_rng(7))
            results.append(b"".join(
                t.data.tobytes() for _, t in model.params.named_tensors()))
        assert results[0] == results[1]


class TestTrain:
    def test_full_run_logs_and_is_deterministic(self):
        kb = KnowledgeBase(
            ONE_TRIPLE + [("Hodgenville", "LocatedIn", "Kentucky")]
        )
        items = [one_hop_item("q0"), one_hop_item("q1", answers=("Kentucky",))]
        dev = [one_hop_item("d0")]
        config = tr.TrainConfig(beam_size=8, n_samples=2, ml_iterations=2,
                                epochs_per_iteration=2, reinforce_epochs=2,
                                learning_rate=0.1, seed=5)
        runs = []
        for _ in range(2):
            model = build_model(kb, items, 4, 6, seed=5)
            store, log = tr.train(model, kb, items, dev, config)
            runs.append((
                [tuple(sorted(line.items(), key=str)) for line in log],
                b"".join(t.data.tobytes() for _, t in model.params.named_tensors()),
            ))
        assert runs[0] == runs[1]
        store, log = tr.train(build_model(kb, items, 4, 6, seed=5), kb, items, dev, config)
        assert [line["iteration"] for line in log] == [1, 2, 3, 4]
        for line in log:
            assert set(line) == {"iteration", "mean_train_reward", "dev_f1",
                                 "store_coverage", "store_rewards"}
            assert line["dev_f1"] is not None
        assert store.coverage(["q0", "q1"]) == 1.0

    def test_log_callback_sees_each_record_as_made(self):
        kb = KnowledgeBase(ONE_TRIPLE)
        items = [one_hop_item("q0")]
        config = tr.TrainConfig(beam_size=4, n_samples=2, ml_iterations=2,
                                epochs_per_iteration=1, reinforce_epochs=1,
                                learning_rate=0.1, seed=2)
        model = build_model(kb, items, 4, 6, seed=2)

        def weights():
            return b"".join(t.data.tobytes() for _, t in model.params.named_tensors())

        seen = []
        store, records = tr.train(model, kb, items, [], config,
                                  log=lambda record: seen.append((record, weights())))
        assert [record for record, _ in seen] == records
        assert all(a is b for (a, _), b in zip(seen, records))
        assert [r["iteration"] for r in records] == [1, 2, 3]
        # each call came while training ran: the weights moved between calls
        snapshots = [w for _, w in seen]
        assert len(set(snapshots)) == 3
        assert snapshots[-1] == weights()
