"""Weak-supervision training loop.

Two phases over question/answer pairs (no gold programs):

1. iterative maximum likelihood: beam-search each question, remember the
   best-reward program found so far per question (the pseudo-gold store),
   and run gradient ascent on the stored programs' log likelihood;
2. augmented REINFORCE: sample rollouts, mix in the pseudo-gold program
   with probability alpha per slot, and follow (R - baseline) * grad log p
   with a per-question exponentially decayed baseline.

Both phases update through ``_ascend``, one step per question: ascent on
sum_i w_i * log p(program_i), with w = 1 for the stored program (phase 1)
or reward - baseline for each slot (phase 2).

Everything is single-threaded and processes questions in dataset order,
so a fixed seed reproduces runs bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nnkernel as nn
from .interpreter import MAX_EXPRESSIONS
from .kb import KnowledgeBase, answer_f1
from .programmer import Model, QAItem, beam_search, greedy_decode, program_logprob, sample_programs


@dataclass(frozen=True)
class RewardedProgram:
    tokens: tuple[str, ...]
    reward: float


def _store_rank(rp: RewardedProgram):
    # lower is better: high reward, then short, then lexicographic
    return (-rp.reward, len(rp.tokens), rp.tokens)


class PseudoGoldStore:
    """Best rewarded program found so far per question; max-merge only."""

    def __init__(self):
        self._best: dict[str, RewardedProgram] = {}

    def merge(self, qid: str, candidate: RewardedProgram) -> bool:
        current = self._best.get(qid)
        if current is None or _store_rank(candidate) < _store_rank(current):
            self._best[qid] = candidate
            return True
        return False

    def get(self, qid: str) -> RewardedProgram | None:
        return self._best.get(qid)

    def rewards(self) -> dict[str, float]:
        return {qid: rp.reward for qid, rp in sorted(self._best.items())}

    def coverage(self, qids) -> float:
        """Fraction of the given questions holding a reward-1 program."""
        qids = list(qids)
        if not qids:
            return 0.0
        full = sum(1 for q in qids if q in self._best and self._best[q].reward == 1.0)
        return full / len(qids)

    def __len__(self) -> int:
        return len(self._best)


@dataclass
class TrainConfig:
    beam_size: int = 32
    n_samples: int = 8
    learning_rate: float = 0.05
    epochs_per_iteration: int = 10
    ml_iterations: int = 5
    reinforce_epochs: int = 10
    alpha: float = 0.1
    baseline_decay: float = 0.9
    seed: int = 0
    max_expressions: int = MAX_EXPRESSIONS

    def __post_init__(self):
        for name in ("beam_size", "n_samples", "learning_rate",
                     "epochs_per_iteration", "ml_iterations", "max_expressions"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be finite")
        if self.reinforce_epochs < 0:
            raise ValueError("reinforce_epochs must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 <= self.baseline_decay <= 1.0:
            raise ValueError("baseline_decay must be in [0, 1]")


GRAD_CLIP_NORM = 5.0


def sgd_step(params: nn.ModelParams, learning_rate: float) -> float:
    """Gradient ascent with global norm clipping; returns the raw norm."""
    pairs = [(t, t.grad) for _, t in params.named_tensors() if t.grad is not None]
    if not pairs:
        return 0.0
    norm = float(np.sqrt(sum(float((g * g).sum()) for _, g in pairs)))
    if norm == 0.0:
        return 0.0
    scale = 1.0 if norm <= GRAD_CLIP_NORM else GRAD_CLIP_NORM / norm
    for tensor, grad in pairs:
        tensor.data += learning_rate * scale * grad
    return norm


@dataclass(frozen=True)
class Metrics:
    avg_precision: float
    avg_recall: float
    avg_f1: float
    accuracy_at_1: float


def evaluate(
    model: Model,
    kb: KnowledgeBase,
    items: list[QAItem],
    max_expressions: int = MAX_EXPRESSIONS,
) -> Metrics:
    """Greedy-decode every question and average per-question metrics."""
    if not items:
        return Metrics(0.0, 0.0, 0.0, 0.0)
    precisions, recalls, f1s, exact = [], [], [], 0
    for item in items:
        prediction = greedy_decode(model, kb, item, max_expressions).denotation
        p, r, f1 = answer_f1(prediction, item.answers)
        precisions.append(p)
        recalls.append(r)
        f1s.append(f1)
        exact += prediction == item.answers
    n = len(items)
    return Metrics(sum(precisions) / n, sum(recalls) / n, sum(f1s) / n, exact / n)


def _log_record(model, kb, items, dev_items, store, config, iteration, mean_reward) -> dict:
    """One training-log record, the same five keys after every ML
    iteration and every REINFORCE epoch."""
    return {
        "iteration": iteration,
        "mean_train_reward": mean_reward,
        "dev_f1": evaluate(model, kb, dev_items, config.max_expressions).avg_f1
        if dev_items else None,
        "store_coverage": store.coverage(item.qid for item in items),
        "store_rewards": store.rewards(),
    }


# ---------------------------------------------------------------------------
# phase 1: iterative maximum likelihood


def _search_and_merge(model, kb, items, store, config) -> float:
    """Beam-search every question into the store; mean best reward found."""
    best_rewards = []
    for item in items:
        best = 0.0
        for cand in beam_search(model, kb, item, config.beam_size, config.max_expressions):
            _, _, r = answer_f1(cand.denotation, item.answers)
            best = max(best, r)
            if r > 0.0:
                store.merge(item.qid, RewardedProgram(cand.tokens, r))
        best_rewards.append(best)
    return sum(best_rewards) / len(best_rewards)


def _ascend(model, kb, item, programs, config) -> None:
    """One SGD step on sum(weight * log p(tokens)) over (tokens, weight) pairs
    for one question, each nonzero pair back-propagated on its own, in order."""
    live = [(tokens, weight) for tokens, weight in programs if weight != 0.0]
    model.params.zero_grad()
    for tokens, weight in live:
        logprob = program_logprob(model, kb, item, tokens, config.max_expressions)
        nn.backward(nn.scale(logprob, weight))
    if live:
        sgd_step(model.params, config.learning_rate)


def _likelihood_epoch(model, kb, items, store, config) -> None:
    for item in items:
        rp = store.get(item.qid)
        if rp is not None:
            _ascend(model, kb, item, [(rp.tokens, 1.0)], config)


def iterative_ml(
    model: Model,
    kb: KnowledgeBase,
    items: list[QAItem],
    config: TrainConfig,
    dev_items: list[QAItem] = (),
    log: Callable[[dict], None] | None = None,
) -> PseudoGoldStore:
    """Alternate beam search for rewarded programs with likelihood ascent."""
    if not items:
        raise ValueError("empty training set")
    store = PseudoGoldStore()
    for iteration in range(1, config.ml_iterations + 1):
        mean_reward = _search_and_merge(model, kb, items, store, config)
        for _ in range(config.epochs_per_iteration):
            _likelihood_epoch(model, kb, items, store, config)
        if log is not None:
            log(_log_record(model, kb, items, dev_items, store, config, iteration, mean_reward))
    return store


# ---------------------------------------------------------------------------
# phase 2: augmented REINFORCE


def _reinforce_question(model, kb, item, store, config, rng, baselines) -> float:
    """One sampled policy-gradient update for one question.

    Returns the mean reward of the raw samples (pre-augmentation); the
    baseline tracks that same quantity so pseudo-gold slots keep a
    positive advantage instead of chasing their own average.
    """
    samples = sample_programs(
        model, kb, item, config.n_samples, rng, config.max_expressions
    )
    sampled_rewards = [answer_f1(c.denotation, item.answers)[2] for c in samples]
    rp = store.get(item.qid)
    baseline = baselines.get(item.qid, 0.0)
    slots = []
    for cand, r in zip(samples, sampled_rewards):
        if rp is not None and rng.random() < config.alpha:
            cand, r = rp, rp.reward
        slots.append((cand.tokens, r - baseline))
    _ascend(model, kb, item, slots, config)
    mean_sampled = sum(sampled_rewards) / len(sampled_rewards)
    baselines[item.qid] = (
        config.baseline_decay * baseline + (1.0 - config.baseline_decay) * mean_sampled
    )
    return mean_sampled


def augmented_reinforce(
    model: Model,
    kb: KnowledgeBase,
    items: list[QAItem],
    store: PseudoGoldStore,
    config: TrainConfig,
    rng: np.random.Generator,
    dev_items: list[QAItem] = (),
    log: Callable[[dict], None] | None = None,
) -> dict[str, float]:
    """Policy gradient with pseudo-gold mixing, logged as iterations
    ml_iterations + 1, ...; returns final baselines."""
    if not items:
        raise ValueError("empty training set")
    baselines: dict[str, float] = {}
    for epoch in range(1, config.reinforce_epochs + 1):
        epoch_rewards = []
        for item in items:
            epoch_rewards.append(
                _reinforce_question(model, kb, item, store, config, rng, baselines)
            )
        if log is not None:
            log(_log_record(model, kb, items, dev_items, store, config,
                            config.ml_iterations + epoch, sum(epoch_rewards) / len(epoch_rewards)))
    return baselines


def train(
    model: Model,
    kb: KnowledgeBase,
    train_items: list[QAItem],
    dev_items: list[QAItem],
    config: TrainConfig,
    log: Callable[[dict], None] | None = None,
) -> tuple[PseudoGoldStore, list[dict]]:
    """Full run: iterative ML, then augmented REINFORCE. Returns the
    pseudo-gold store and the per-iteration log records; ``log``, when
    given, is called with each record as soon as it is made."""
    records: list[dict] = []

    def keep(record: dict) -> None:
        records.append(record)
        if log is not None:
            log(record)

    store = iterative_ml(model, kb, train_items, config, dev_items, keep)
    augmented_reinforce(
        model, kb, train_items, store, config,
        rng=np.random.default_rng(config.seed),
        dev_items=dev_items,
        log=keep,
    )
    return store, records
