"""Each benchmark check accepts the program's real outputs and rejects a
corrupted copy of them.

    python3 -m pytest -q perfbench
"""

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from lisplab import assist, programmer, taskgen, trainer  # noqa: E402


@pytest.fixture(scope="module")
def task():
    kb = taskgen.gen_kb(seed=0)
    items, _, _ = taskgen.gen_dataset(kb, seed=0, n_train=12, n_dev=0, n_test=0)
    model = programmer.build_model(kb, items, seed=0)
    return kb, items, model, checks.NaiveExecutor(kb.triples)


@pytest.fixture(scope="module")
def beam(task):
    kb, items, model, _ = task
    item = next(i for i in items
                if len({c.denotation for c in programmer.beam_search(model, kb, i, 8)}) > 2)
    return item, programmer.beam_search(model, kb, item, 8)


def test_beam_accepts_real_output(task, beam):
    item, cands = beam
    assert checks.check_beam(task[3], item, cands, 8) == []


def test_beam_rejects_swapped_denotation(task, beam):
    item, cands = beam
    j = next(j for j, c in enumerate(cands) if c.denotation != cands[0].denotation)
    bad = list(cands)
    bad[0] = dataclasses.replace(cands[0], denotation=cands[j].denotation)
    bad[j] = dataclasses.replace(cands[j], denotation=cands[0].denotation)
    assert checks.check_beam(task[3], item, bad, 8)


@pytest.mark.parametrize("corrupt", [
    lambda c: list(reversed(c)),  # order
    lambda c: c + c[:1],  # duplicate
    lambda c: c[:1] + [dataclasses.replace(c[1], logprob=0.0)] + c[2:],  # probability mass
])
def test_beam_rejects_bad_list(task, beam, corrupt):
    item, cands = beam
    assert checks.check_beam(task[3], item, corrupt(list(cands)), len(cands))


def test_greedy_rejects_empty_intermediate(task, beam):
    naive = task[3]
    item, cands = beam
    start = [(e,) for _, e in item.entities]
    prop = next(p for p in naive.properties if naive.apply("Hop", [start[0], p]))
    dead = next(p for p in naive.properties
                if not naive.apply("Hop", [naive.apply("Hop", [start[0], prop]), p]))
    tokens = ("(", "Hop", "R0", prop, ")", "(", "Hop", f"R{len(start)}", dead, ")", "RETURN")
    assert checks.check_greedy(naive, item, dataclasses.replace(cands[0], tokens=tokens,
                                                                denotation=()))


def test_replay_accepts_real_and_rejects_perturbed_logprob(task, beam):
    kb, _, model, _ = task
    item, cands = beam
    replayed = [float(programmer.program_logprob(model, kb, item, c.tokens).data) for c in cands]
    assert checks.check_replay(item, cands, replayed) == []
    replayed[3] += 1e-6
    assert len(checks.check_replay(item, cands, replayed)) == 1


@pytest.fixture(scope="module")
def stored(task):
    kb, items, _, _ = task
    model = programmer.build_model(kb, items, seed=1)
    config = trainer.TrainConfig(beam_size=8, ml_iterations=1, epochs_per_iteration=1,
                                 reinforce_epochs=0)
    store = trainer.iterative_ml(model, kb, items, config)
    return {i.qid: (store.get(i.qid).tokens, store.get(i.qid).reward)
            for i in items if store.get(i.qid)}


def test_store_rejects_wrong_reward(task, stored):
    stored = dict(stored)
    assert stored and checks.check_store(task[3], task[1], stored) == []
    qid, (tokens, reward) = next(iter(stored.items()))
    stored[qid] = (tokens, reward - 0.25)
    assert checks.check_store(task[3], task[1], stored)


def test_store_monotone_rejects_a_fall():
    records = [{"q1": 0.5, "q2": 1.0}, {"q1": 0.5, "q2": 1.0}, {"q1": 1.0, "q2": 1.0}]
    assert checks.check_store_monotone(records) == []
    assert checks.check_store_monotone(records + [{"q1": 1.0, "q2": 0.5}])
    assert checks.check_store_monotone(records + [{"q1": 1.0}])


def test_eval_rejects_wrong_f1(task, stored):
    kb, items, model, naive = task
    programs = [programmer.greedy_decode(model, kb, i).tokens for i in items]
    reported = trainer.evaluate(model, kb, items).avg_f1
    assert checks.check_eval(naive, items, programs, reported, "dev") == []
    assert checks.check_eval(naive, items, programs, reported + 0.01, "dev")
    k, item = next((k, i) for k, i in enumerate(items)
                   if i.qid in stored and stored[i.qid][0] != programs[k])
    other = programs[:k] + [stored[item.qid][0]] + programs[k + 1:]
    assert checks.check_eval(naive, items, other, reported, "dev")


def test_gold_reached_rejects_missing_program(task):
    kb, items, _, _ = task
    out = workloads.enumerate_programs(assist.DecodingState(kb, items[0].initial_vars()))
    denotations = [d for _, d in out]
    assert checks.check_gold_reached(items[0], denotations) == []
    assert checks.check_gold_reached(items[0], [d for d in denotations if d != items[0].answers])


def test_enumeration_rejects_missing_extra_and_wrong_programs(task):
    kb, items, _, naive = task
    item = items[0]
    programs = dict(workloads.enumerate_programs(assist.DecodingState(kb, item.initial_vars(), 2)))
    assert ("RETURN",) in programs and programs[("RETURN",)] == ()
    assert checks.check_enumeration(naive, item, programs, 2) == []
    some = next(t for t in programs if len(t) > 1)
    missing = {t: d for t, d in programs.items() if t != some}
    assert checks.check_enumeration(naive, item, missing, 2)
    extra = {**programs, ("(", "Hop", "R0", "nope", ")", "RETURN"): ("e001",)}
    assert checks.check_enumeration(naive, item, extra, 2)
    wrong = {**programs, some: ()}
    assert checks.check_enumeration(naive, item, wrong, 2)
    no_bare = {t: d for t, d in programs.items() if t != ("RETURN",)}
    assert checks.check_enumeration(naive, item, no_bare, 2)


def test_naive_executor_agrees_with_the_interpreter(task):
    kb, items, _, naive = task
    for item in items:
        for tokens, denotation in workloads.enumerate_programs(
                assist.DecodingState(kb, item.initial_vars(), 2)):
            assert naive.denotation(tokens, [e for _, e in item.entities]) == denotation


def test_reported_metrics_match_benchmark_json():
    import json

    import run
    from layertrace import Tracer

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup = {"taskgen.gen_kb.s": 0.0, "taskgen.gen_dataset.s": 0.0}
    layer = run.per_layer(Tracer(), setup, rounds=1, memo_new=0, memo_last=0)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert all(layer[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])

    class Fake:
        def coverage(self):
            return 0.5

    timing = run.Run()
    timing.latencies = [0.1, 0.2, 0.3]
    timing.timed_s = 0.6
    e2e = run.end_to_end(Fake(), timing, setup_s=1.0, rounds=1, peak_rss_mb=50.0)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(e2e[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
