"""Acceptance gauntlet: ten end-to-end checks, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
The benchmark fixture trains three seeds in full and is shared by the
checks that need it, so this module takes several minutes.
"""

import random
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from lisplab import cli, nnkernel as nn, programmer, taskgen, trainer
from lisplab.assist import DecodingState
from lisplab.interpreter import (
    ProgramError,
    execute_program,
    parse_program,
)
from lisplab.kb import KnowledgeBase, answer_f1
from lisplab.programmer import QAItem, build_model, greedy_decode, program_logprob

from oracles import (
    enumerate_programs,
    naive_execute,
    random_program_tokens,
    random_rollout,
    random_triples,
)


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


def flat_grad(params) -> np.ndarray:
    parts = []
    for _, tensor in params.named_tensors():
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        parts.append(grad.ravel().copy())
    return np.concatenate(parts)


def test_criterion_01_interpreter_oracle_equivalence():
    rng = random.Random(1)
    start = time.time()
    mismatches = 0
    checked = 0
    while checked < 10_000:
        triples, entities, _ = random_triples(rng, rng.randint(2, 50), rng.randint(1, 8))
        kb = KnowledgeBase(triples)
        usable = sorted(kb.properties)
        for _ in range(25):
            initial = [tuple(rng.sample(entities, rng.randint(1, 2)))]
            program = parse_program(random_program_tokens(rng, 1, usable), 1)
            exprs = [(e.func, list(e.args)) for e in program.expressions]
            try:
                expected = naive_execute(triples, exprs, initial)
            except ValueError:
                try:
                    execute_program(kb, program, list(initial))
                    mismatches += 1
                except ProgramError:
                    pass
            else:
                if execute_program(kb, program, list(initial)) != expected:
                    mismatches += 1
            checked += 1
    elapsed = time.time() - start
    verdict(
        1, "interpreter oracle equivalence",
        mismatches == 0 and elapsed < 60.0,
        f"{checked} programs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_assist_soundness():
    rng = random.Random(2)
    failures = 0
    for _ in range(20):
        triples, entities, _ = random_triples(rng, rng.randint(2, 30), rng.randint(1, 6))
        kb = KnowledgeBase(triples)
        initial = [tuple(rng.sample(entities, rng.randint(1, 2)))]
        for seed in range(1_000):
            try:
                program = random_rollout(kb, initial, seed)
                state = DecodingState(kb, initial)
                for expr in program.expressions:
                    state = state.feed_all(expr.tokens())
                    if state.denotation() == ():
                        raise AssertionError("empty intermediate denotation")
                execute_program(kb, program, list(initial))
            except Exception:
                failures += 1
    verdict(2, "assist soundness", failures == 0, f"20000 rollouts, {failures} failures")


def test_criterion_03_assist_completeness():
    rng = random.Random(3)
    n_programs = 0
    violations = 0
    for _ in range(5):
        triples, entities, _ = random_triples(rng, rng.randint(2, 20), rng.randint(1, 5))
        kb = KnowledgeBase(triples)
        initial = [tuple(rng.sample(entities, 1))]
        for tokens, outcome in enumerate_programs(triples, initial, max_expressions=2):
            if not outcome:
                continue
            n_programs += 1
            state = DecodingState(kb, initial, max_expressions=2)
            for token in tokens:
                if token not in state.valid_tokens():
                    violations += 1
                    break
                state = state.feed(token)
    verdict(
        3, "assist completeness",
        violations == 0 and n_programs > 0,
        f"{n_programs} legal programs, {violations} tokens missed",
    )


def test_criterion_04_gradient_check():
    worst = 0.0
    for objective in ("likelihood", "policy"):
        for seed in (0, 1, 2):
            worst = max(worst, programmer.grad_check(seed, objective))
    verdict(4, "gradient check", worst <= 1e-4, f"max relative error {worst:.2e}")


def test_criterion_05_masked_softmax():
    # the decoder's masked softmax: log_probs_over for search and
    # masked_log_prob for the replay, whose tape gradient must be exactly
    # zero at every invalid id
    rng = np.random.default_rng(5)
    bad = 0
    worst = 0.0
    for draw in range(100_000):
        n = int(rng.integers(2, 24))
        logits = rng.normal(scale=float(rng.uniform(0.5, 40.0)), size=n)
        mask = rng.random(n) < 0.5
        if not mask.any():
            mask[int(rng.integers(n))] = True
        valid_ids = np.nonzero(mask)[0]
        logp = nn.log_probs_over(logits, valid_ids)
        err = abs(np.exp(logp).sum() - 1.0)
        worst = max(worst, err)
        pos = draw % len(valid_ids)  # no extra draws: the pairs stay those of rng 5
        leaf = nn.leaf(logits)
        lp = nn.masked_log_prob(leaf, valid_ids, int(valid_ids[pos]))
        nn.backward(lp)
        if err > 1e-12 or float(lp.data) != logp[pos] or np.any(leaf.grad[~mask] != 0.0):
            bad += 1
    verdict(
        5, "masked softmax", bad == 0,
        f"100000 logit/mask pairs, {bad} bad, worst sum error {worst:.1e}",
    )


def test_criterion_06_reinforce_estimator():
    # Frozen toy instance with exactly three reachable programs: bare
    # RETURN and the one-hop through p or q. Only the p-hop has reward.
    triples = [("e0", "p", "a"), ("e0", "q", "b")]
    kb = KnowledgeBase(triples)
    item = QAItem("q0", ("value", "of", "e0"), (((2, 3), "e0"),), ("a",))
    model = build_model(kb, [item], embed_dim=8, hidden_dim=12, seed=6)

    space = [tuple(tokens) for tokens, _ in enumerate_programs(triples, [("e0",)], 1)]
    assert len(space) == 3
    per_program = {}
    total_p = 0.0
    exact = None
    for tokens in space:
        model.params.zero_grad()
        logprob = program_logprob(model, kb, item, tokens, max_expressions=1)
        nn.backward(logprob)
        grad = flat_grad(model.params)
        prob = float(np.exp(logprob.data))
        _, _, reward = answer_f1(
            execute_program(kb, parse_program(list(tokens), 1, 1), [("e0",)]), ("a",)
        )
        per_program[tokens] = reward * grad
        total_p += prob
        exact = prob * reward * grad if exact is None else exact + prob * reward * grad
    assert abs(total_p - 1.0) < 1e-9, "program space enumeration is not closed"

    n = 10_000
    samples = programmer.sample_programs(
        model, kb, item, n, np.random.default_rng(60), max_expressions=1
    )
    counts = Counter(candidate.tokens for candidate in samples)
    assert set(counts) <= set(per_program), "sampler left the enumerated space"
    mean = sum(c * per_program[z] for z, c in counts.items()) / n
    second = sum(c * per_program[z] ** 2 for z, c in counts.items()) / n
    se = np.sqrt(np.maximum(second - mean**2, 0.0) / n)
    gap = np.abs(mean - exact)
    ok = bool(np.all(gap <= 3.0 * se + 1e-10))
    verdict(
        6, "reinforce estimator",
        ok,
        f"{n} samples, worst gap {float(np.max(gap - 3.0 * se)):.2e} beyond 3 SE",
    )


@pytest.fixture(scope="module")
def benchmark_runs():
    runs = []
    for seed in (0, 1, 2):
        start = time.time()
        kb = taskgen.gen_kb(seed=seed)
        train_items, dev_items, test_items = taskgen.gen_dataset(kb, seed=seed)
        model = programmer.build_model(kb, train_items, seed=seed)
        config = trainer.TrainConfig(seed=seed)
        store, log = trainer.train(model, kb, train_items, dev_items, config)
        dev = trainer.evaluate(model, kb, dev_items, config.max_expressions)
        test = trainer.evaluate(model, kb, test_items, config.max_expressions)
        runs.append({
            "dev_f1": dev.avg_f1,
            "test_f1": test.avg_f1,
            "coverage": store.coverage([item.qid for item in train_items]),
            "log": log,
            "seconds": time.time() - start,
        })
    return runs


def test_criterion_07_end_to_end_weak_supervision(benchmark_runs):
    def med(key):
        return statistics.median(run[key] for run in benchmark_runs)

    total = sum(run["seconds"] for run in benchmark_runs)
    ok = (
        med("dev_f1") >= 0.90
        and med("test_f1") >= 0.85
        and med("coverage") >= 0.95
        and total <= 900.0
    )
    verdict(
        7, "end-to-end weak supervision",
        ok,
        f"median dev F1 {med('dev_f1'):.3f}, test F1 {med('test_f1'):.3f}, "
        f"coverage {med('coverage'):.3f}, total {total:.0f}s",
    )


def test_criterion_08_store_monotonicity(benchmark_runs):
    violations = 0
    entries = 0
    for run in benchmark_runs:
        best = {}
        for entry in run["log"]:
            entries += 1
            for qid, reward in entry["store_rewards"].items():
                if reward < best.get(qid, 0.0):
                    violations += 1
                best[qid] = reward
    verdict(
        8, "pseudo-gold monotonicity",
        violations == 0 and entries > 0,
        f"{entries} logged iterations, {violations} regressions",
    )


def test_reinforce_dev_reward_not_degraded(benchmark_runs):
    # median dev F1 after the REINFORCE phase must not fall below the
    # median at the end of the ML phase it started from
    ml_end = statistics.median(
        run["log"][trainer.TrainConfig().ml_iterations - 1]["dev_f1"]
        for run in benchmark_runs
    )
    final = statistics.median(run["log"][-1]["dev_f1"] for run in benchmark_runs)
    assert final >= ml_end


def test_criterion_09_metric_fixtures():
    # e0 --p--> {a, b}; e1 --p--> {a}
    kb = KnowledgeBase([("e0", "p", "a"), ("e0", "p", "b"), ("e1", "p", "a")])
    hop = ("(", "Hop", "R0", "p", ")", "RETURN")
    ret = ("RETURN",)
    rows = [
        # (entity, target program, gold, P, R, F1, exact-match)
        ("e0", hop, ("a", "b"), 1.0, 1.0, 1.0, 1),
        ("e0", hop, ("a", "c"), 0.5, 0.5, 0.5, 0),
        ("e1", hop, ("a", "b"), 1.0, 0.5, 2 / 3, 0),
        ("e0", hop, ("a",), 0.5, 1.0, 2 / 3, 0),
        ("e1", ret, ("a",), 0.0, 0.0, 0.0, 0),
    ]
    items = [
        QAItem(f"q{i}", ("qword", str(i), ent), (((2, 3), ent),), gold)
        for i, (ent, _, gold, *_rest) in enumerate(rows)
    ]
    model = build_model(kb, items, 8, 12, seed=0)
    targets = [row[1] for row in rows]
    for _ in range(250):
        for item, target in zip(items, targets):
            model.params.zero_grad()
            nn.backward(program_logprob(model, kb, item, target))
            trainer.sgd_step(model.params, 0.5)
        if all(
            greedy_decode(model, kb, item).tokens == target
            for item, target in zip(items, targets)
        ):
            break
    else:
        raise AssertionError("fixture model failed to converge on its targets")

    metrics = trainer.evaluate(model, kb, items)
    n = len(rows)
    ok = (
        metrics.avg_precision == sum(r[3] for r in rows) / n
        and metrics.avg_recall == sum(r[4] for r in rows) / n
        and metrics.avg_f1 == sum(r[5] for r in rows) / n
        and metrics.accuracy_at_1 == sum(r[6] for r in rows) / n
    )
    verdict(9, "metric fixtures", ok, "5-question fixture reproduced exactly")


def test_criterion_10_determinism(tmp_path):
    kb_path = tmp_path / "kb.tsv"
    paths = {s: tmp_path / f"{s}.jsonl" for s in ("train", "dev", "test")}
    assert cli.main(["gen-kb", "--seed", "0", "--out", str(kb_path)]) == 0
    assert cli.main([
        "gen-data", "--kb", str(kb_path), "--seed", "0",
        "--n-train", "24", "--n-dev", "8", "--n-test", "8",
        "--out-train", str(paths["train"]), "--out-dev", str(paths["dev"]),
        "--out-test", str(paths["test"]),
    ]) == 0
    config = tmp_path / "fast.cfg"
    config.write_text(
        "beam_size = 16\nml_iterations = 2\nepochs_per_iteration = 3\n"
        "reinforce_epochs = 2\n",
        encoding="utf-8",
    )

    outputs = []
    for run in (1, 2):
        ckpt = tmp_path / f"model{run}.ckpt"
        proc = subprocess.run(
            [
                sys.executable, "-m", "lisplab", "train",
                "--kb", str(kb_path), "--train", str(paths["train"]),
                "--dev", str(paths["dev"]), "--config", str(config),
                "--out-checkpoint", str(ckpt), "--seed", "0",
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((proc.stdout, ckpt.read_bytes()))

    ok = outputs[0] == outputs[1]
    verdict(10, "determinism", ok, "train logs and checkpoints byte-identical")
