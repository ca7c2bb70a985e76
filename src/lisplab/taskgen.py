"""Synthetic benchmark generator: random KBs and templated questions.

Gold answers are produced by executing a gold program for each question,
so every emitted item is realizable: some legal program reaches reward 1.
The gold programs themselves stay inside the generator; the training side
sees only questions, entity spans, and answer sets.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assist import DecodingState
from .interpreter import apply_function
from .kb import (EntitySet, KBError, KnowledgeBase, Value, answer_f1, canon, format_value,
                 parse_value, value_kind)
from .programmer import QAItem


class GenerationError(Exception):
    pass


class DatasetError(Exception):
    pass


# ---------------------------------------------------------------------------
# knowledge-base generation


def gen_kb(
    seed: int = 0,
    n_entities: int = 100,
    n_properties: int = 10,
    edge_density: float = 0.5,
) -> KnowledgeBase:
    """Random KB: numeric and date attributes plus relational edges.

    Property roster is fixed by count: num0 always; date0 from three
    properties up; the rest are entity-to-entity relations rel0, rel1, ...
    Every entity gets an alias equal to its id so questions can mention it.
    A single-entity KB has no triples at all (relations need two distinct
    entities and lone attributes would make every template dead weight).

    rel0 is a dense hub (its own fixed density) while the remaining
    relations follow edge_density. Questions that operate on entity sets
    (superlatives, filters) need subjects with several rel0 neighbours,
    but the breadth of a beam search over programs grows with the number
    of properties leaving a node, so the other relations stay sparse to
    keep exhaustive-ish exploration within a small beam.
    """
    if n_entities < 1 or n_properties < 1:
        raise ValueError("sizes must be >= 1")
    if edge_density < 0:
        raise ValueError("edge_density must be >= 0")
    rng = np.random.default_rng(seed)
    width = max(3, len(str(n_entities - 1)))
    ids = [f"e{i:0{width}d}" for i in range(n_entities)]

    roster: list[tuple[str, str]] = [("num0", "number")]
    if n_properties >= 3:
        roster.append(("date0", "date"))
    while len(roster) < n_properties:
        roster.append((f"rel{len(roster) - 2 if n_properties >= 3 else len(roster) - 1}", "entity"))

    triples: list[tuple[str, str, Value]] = []
    if n_entities >= 2:
        for pname, kind in roster:
            if kind == "entity":
                density = 2.5 if pname == "rel0" else edge_density
                for subj in ids:
                    fanout = min(int(rng.poisson(density)), 3)
                    for _ in range(fanout):
                        obj = ids[int(rng.integers(0, n_entities))]
                        if obj != subj:
                            triples.append((subj, pname, obj))
            elif kind == "number":
                for subj in ids:
                    if rng.random() < 0.9:
                        triples.append((subj, pname, float(rng.integers(0, 10000)) / 10.0))
            else:
                for subj in ids:
                    if rng.random() < 0.9:
                        day = datetime.date(1900, 1, 1) + datetime.timedelta(
                            days=int(rng.integers(0, 43800))
                        )
                        triples.append((subj, pname, day))
    return KnowledgeBase(triples, aliases={eid: eid for eid in ids})


# ---------------------------------------------------------------------------
# question templates


@dataclass(frozen=True)
class Instantiation:
    """One concrete question with its generator-side gold program."""

    template: str
    tokens: tuple[str, ...]
    entities: tuple[tuple[tuple[int, int], str], ...]
    answers: EntitySet
    gold: tuple[str, ...]
    key: tuple


def _pick(rng: np.random.Generator, seq):
    return seq[int(rng.integers(0, len(seq)))]


def _entity_sets(kb: KnowledgeBase, values: EntitySet, prop: str) -> EntitySet | None:
    """Forward image if it is non-empty and purely entities, else None."""
    out = kb.forward(values, prop)
    if not out or any(value_kind(v) != "entity" for v in out):
        return None
    return out


def _one_hop_alias(kb: KnowledgeBase, sources: EntitySet, answers: EntitySet,
                   exclude: str | None = None) -> bool:
    """True if some single hop from sources already yields the answers.

    Such an instantiation would teach nothing: the store's shorter-program
    tie-break would replace the intended gold with the one-hop shortcut,
    and the question wording would stop predicting the program shape.
    """
    for prop in kb.reachable_properties(sources):
        if prop != exclude and kb.forward(sources, prop) == answers:
            return True
    return False


def _extreme_alias(kb: KnowledgeBase, values: EntitySet, answers: EntitySet,
                   before: tuple[str, str] | None = None) -> bool:
    """True if ArgMax/ArgMin over values under some property hits answers.

    With `before`, only combos that sort lexicographically ahead of it
    count: those are the ones that would beat an equal-length gold program
    in the store's tie-break. Without it, any hit counts (the competitor
    is shorter than, or sorts ahead of, the gold under comparison).
    """
    for prop in kb.comparable_properties(values):
        for func in ("ArgMax", "ArgMin"):
            if before is not None and (func, prop) >= before:
                continue
            if apply_function(kb, func, [values, prop]) == answers:
                return True
    return False


# several carrier phrasings of different lengths around the same
# "the <prop> of <subject>" core. A single fixed frame would let the
# encoder memorise absolute token positions instead of reading the words,
# and that shortcut stops working on the longer composite questions.
_ONE_HOP_LEADS = (
    ("what", "is"),
    ("tell", "me"),
    ("now", "what", "is"),
    ("i", "want", "to", "know"),
    ("can", "you", "look", "up"),
)


def _sample_one_hop(kb: KnowledgeBase, rng, entities) -> Instantiation | None:
    subj = _pick(rng, entities)
    props = sorted(kb.reachable_properties((subj,)))
    if not props:
        return None
    prop = _pick(rng, props)
    lead = _pick(rng, _ONE_HOP_LEADS)
    answers = kb.forward((subj,), prop)
    if _one_hop_alias(kb, (subj,), answers, exclude=prop):
        return None  # a sibling property gives the same answers: ambiguous
    subj_at = len(lead) + 3
    return Instantiation(
        template="one_hop",
        tokens=lead + ("the", prop, "of", subj),
        entities=(((subj_at, subj_at + 1), subj),),
        answers=answers,
        gold=("(", "Hop", "R0", prop, ")", "RETURN"),
        key=("one_hop", subj, prop, lead[0]),
    )


def _sample_two_hop(kb: KnowledgeBase, rng, entities) -> Instantiation | None:
    subj = _pick(rng, entities)
    first = sorted(kb.reachable_properties((subj,)))
    if not first:
        return None
    p1 = _pick(rng, first)
    mid = _entity_sets(kb, (subj,), p1)
    if mid is None:
        return None
    second = sorted(kb.reachable_properties(mid))
    if not second:
        return None
    p2 = _pick(rng, second)
    answers = kb.forward(mid, p2)
    if answer_f1(mid, answers)[2] == 1.0:
        return None  # one hop already answers it
    if subj in answers:
        return None  # self-cycle: even trivial programs earn partial credit
    # near-misses poison weak supervision: a competing program found early
    # gets stored at partial reward and sharpened until the true program
    # can no longer surface in the beam. Unlike the filter template there
    # is no benign prefix program holding the store slot (the bare first
    # hop rarely overlaps the answers), so competitors may not overlap
    # the answers at all.
    for q1 in first:
        step = kb.forward((subj,), q1)
        if q1 != p1 and answer_f1(step, answers)[2] > 0.0:
            return None
        for q2 in sorted(kb.reachable_properties(step)):
            if (q1, q2) == (p1, p2):
                continue
            if answer_f1(kb.forward(step, q2), answers)[2] > 0.0:
                return None
    for prop in kb.comparable_properties(mid):
        for func in ("ArgMax", "ArgMin"):
            if answer_f1(apply_function(kb, func, [mid, prop]), answers)[2] > 0.0:
                return None
    # "each p2" rather than "the p2": both properties would otherwise sit
    # in identical "the _ of" frames and the model could not tell which
    # one the first expression should use
    return Instantiation(
        template="two_hop",
        tokens=("what", "is", "each", p2, "of", "the", p1, "of", subj),
        entities=(((8, 9), subj),),
        answers=answers,
        gold=("(", "Hop", "R0", p1, ")", "(", "Hop", "R1", p2, ")", "RETURN"),
        key=("two_hop", subj, p1, p2),
    )


def _sample_superlative(kb: KnowledgeBase, rng, entities) -> Instantiation | None:
    subj = _pick(rng, entities)
    first = sorted(kb.reachable_properties((subj,)))
    if not first:
        return None
    p1 = _pick(rng, first)
    mid = _entity_sets(kb, (subj,), p1)
    if mid is None or len(mid) < 2:
        return None  # superlative over a singleton degenerates to a hop
    comparable = sorted(kb.comparable_properties(mid))
    if not comparable:
        return None
    p2 = _pick(rng, comparable)
    func, word = _pick(rng, (("ArgMax", "largest"), ("ArgMin", "smallest")))
    answers = apply_function(kb, func, [mid, p2])
    if _one_hop_alias(kb, (subj,), answers):
        return None
    if _extreme_alias(kb, mid, answers, before=(func, p2)):
        return None  # an earlier-sorting comparison picks the same set
    return Instantiation(
        template="superlative",
        tokens=("which", p1, "of", subj, "has", "the", word, p2),
        entities=(((3, 4), subj),),
        answers=answers,
        gold=("(", "Hop", "R0", p1, ")", "(", func, "R1", p2, ")", "RETURN"),
        key=("superlative", subj, p1, func, p2),
    )


def _sample_filter(kb: KnowledgeBase, rng, entities) -> Instantiation | None:
    subj = _pick(rng, entities)
    first = sorted(kb.reachable_properties((subj,)))
    if not first:
        return None
    p1 = _pick(rng, first)
    mid = _entity_sets(kb, (subj,), p1)
    if mid is None or len(mid) < 2:
        return None  # filtering a singleton is a no-op question
    second = sorted(kb.reachable_properties(mid))
    if not second:
        return None
    p2 = _pick(rng, second)
    targets = _entity_sets(kb, mid, p2)
    if targets is None:
        return None
    obj = _pick(rng, sorted(targets))
    answers = apply_function(kb, "Equal", [mid, (obj,), p2])
    if not answers or answers == (subj,) or answers == mid:
        return None  # degenerate: reachable by a shorter program outright
    # answers is a strict subset of mid, so the gold's own one-expression
    # prefix is an unavoidable partial-reward attractor. It is also a safe
    # one: every continuation shares its ancestry, so sharpening it never
    # starves the true program's beam lanes. What poisons training is a
    # competitor strong enough to take the store slot away from it, which
    # redirects sharpening into a wrong subtree. Reject exactly those.
    prefix_f1 = answer_f1(mid, answers)[2]
    for va, vb in (((subj,), (obj,)), ((obj,), (subj,))):
        for q in sorted(kb.reachable_properties(va)):
            f1 = answer_f1(apply_function(kb, "Equal", [va, vb, q]), answers)[2]
            if f1 >= 0.5 and f1 > prefix_f1:
                return None
    for src in ((subj,), (obj,)):
        for q1 in sorted(kb.reachable_properties(src)):
            step = kb.forward(src, q1)
            one = answer_f1(step, answers)[2]
            if (src, q1) != ((subj,), p1) and one >= 0.5 and one >= prefix_f1:
                return None  # same length as the prefix, so even a tie displaces
            for q2 in sorted(kb.reachable_properties(step)):
                f1 = answer_f1(kb.forward(step, q2), answers)[2]
                if f1 >= 0.5 and f1 > prefix_f1:
                    return None
    for prop in kb.comparable_properties(mid):
        for func in ("ArgMax", "ArgMin"):
            f1 = answer_f1(apply_function(kb, func, [mid, prop]), answers)[2]
            if f1 >= 0.5 and f1 > prefix_f1:
                return None
    return Instantiation(
        template="filter",
        tokens=("which", p1, "of", subj, "has", p2, obj),
        entities=(((3, 4), subj), ((6, 7), obj)),
        answers=answers,
        gold=("(", "Hop", "R0", p1, ")", "(", "Equal", "R2", "R1", p2, ")", "RETURN"),
        key=("filter", subj, p1, p2, obj),
    )


@dataclass(frozen=True)
class Template:
    name: str
    sampler: Callable


DEFAULT_TEMPLATES = (
    Template("one_hop", _sample_one_hop),
    Template("two_hop", _sample_two_hop),
    Template("superlative", _sample_superlative),
    Template("filter", _sample_filter),
)

ATTEMPTS_PER_ITEM = 500  # failed draws in a row before a template counts as exhausted


def _check_realizable(kb: KnowledgeBase, inst: Instantiation) -> None:
    initial = [(eid,) for _, eid in inst.entities]
    state = DecodingState(kb, initial).feed_all(inst.gold)
    if state.denotation() != inst.answers:
        raise GenerationError(
            f"gold program for template {inst.template!r} does not reproduce its answers"
        )


def draw_instantiations(
    kb: KnowledgeBase,
    templates,
    rng: np.random.Generator,
    total: int,
) -> list[Instantiation]:
    """Round-robin over templates; distinct keys; non-empty executed answers."""
    drawn: list[Instantiation] = []
    seen: set[tuple] = set()
    successes = {t.name: 0 for t in templates}
    active = list(templates)
    entities = sorted(kb.entities)
    slot = 0
    while len(drawn) < total:
        if not active:
            raise GenerationError(
                f"ran out of distinct instantiations after {len(drawn)} of {total} items"
            )
        template = active[slot % len(active)]
        for _ in range(ATTEMPTS_PER_ITEM):
            inst = template.sampler(kb, rng, entities)
            if inst is None or not inst.answers or inst.key in seen:
                continue
            _check_realizable(kb, inst)
            seen.add(inst.key)
            drawn.append(inst)
            successes[template.name] += 1
            slot += 1
            break
        else:
            if successes[template.name] == 0:
                raise GenerationError(f"template {template.name!r} not instantiable on this KB")
            active.remove(template)  # exhausted; let the others fill the quota
    return drawn


def gen_dataset(
    kb: KnowledgeBase,
    templates=DEFAULT_TEMPLATES,
    seed: int = 0,
    n_train: int = 300,
    n_dev: int = 100,
    n_test: int = 100,
) -> tuple[list[QAItem], list[QAItem], list[QAItem]]:
    """Three disjoint splits of weakly supervised items (no gold programs)."""
    if min(n_train, n_dev, n_test) < 0:
        raise ValueError("split sizes must be >= 0")
    rng = np.random.default_rng(seed)
    drawn = draw_instantiations(kb, templates, rng, n_train + n_dev + n_test)
    splits = (
        ("train", drawn[:n_train]),
        ("dev", drawn[n_train:n_train + n_dev]),
        ("test", drawn[n_train + n_dev:]),
    )
    out = []
    for split_name, insts in splits:
        out.append(
            [
                QAItem(f"{split_name}-{i:04d}", inst.tokens, inst.entities, inst.answers)
                for i, inst in enumerate(insts)
            ]
        )
    return out[0], out[1], out[2]


# ---------------------------------------------------------------------------
# dataset files


def _answer_from_json(pair) -> Value:
    """Decode a ``[kind, text]`` answer with the KB file's value codec."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
        raise ValueError(f"answer must be a [kind, text] pair, got {pair!r}")
    return parse_value(pair[1], pair[0])


def save_dataset(path, items: list[QAItem]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            record = {
                "id": item.qid,
                "question": " ".join(item.tokens),
                "entities": [
                    {"start": start, "end": end, "id": eid}
                    for (start, end), eid in item.entities
                ],
                "answers": [[value_kind(v), format_value(v)] for v in item.answers],
            }
            fh.write(json.dumps(record) + "\n")


def load_dataset(path) -> list[QAItem]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: not UTF-8 text: {exc}") from exc
    items = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record["id"], str) or not isinstance(record["question"], str):
                raise ValueError("id and question must be strings")
            answers = canon(_answer_from_json(v) for v in record["answers"])
            item = QAItem(
                record["id"],
                tuple(record["question"].split(" ")),
                tuple(((e["start"], e["end"]), e["id"]) for e in record["entities"]),
                answers,
            )
        except (KeyError, ValueError, TypeError, RecursionError, KBError) as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from exc
        if not item.answers:
            raise DatasetError(f"{path}:{lineno}: empty answer set")
        items.append(item)
    return items
