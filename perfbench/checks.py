"""Correctness checks that share no code with the program under test.

The naive executor reads the raw triple list into its own index and
re-implements the four built-ins from their documented meaning; the F1
function and the brute-force program enumerator are likewise written
here. Each ``check_*`` function returns a list of human-readable
problems, empty when the outputs are correct, so a run can report every
failure at once and the tests can assert that a corrupted output is
rejected.
"""

from __future__ import annotations

import datetime
import itertools
import math

_KIND_RANK = {str: 0, float: 1, datetime.date: 2}
_SIGNATURES = {
    "Hop": ("var", "prop"),
    "ArgMax": ("var", "prop"),
    "ArgMin": ("var", "prop"),
    "Equal": ("var", "var", "prop"),
}
# Replayed and searched log-probabilities must agree to this absolute gap.
LOGPROB_TOLERANCE = 1e-9
# Two ways of writing F1 round differently in the last bits.
F1_TOLERANCE = 1e-12


class NaiveError(Exception):
    """A program the naive executor cannot run (malformed or ill-typed)."""


def _canonical(values) -> tuple:
    """Set semantics in the program's documented order: entity ids, then
    numbers, then dates, each ascending."""
    return tuple(sorted(set(values), key=lambda v: (_KIND_RANK[type(v)], v)))


class NaiveExecutor:
    """Runs programs over a plain ``(subject, property) -> objects`` map
    built from the raw triples."""

    def __init__(self, triples):
        self.objects: dict[tuple[str, str], set] = {}
        for subject, prop, obj in triples:
            self.objects.setdefault((subject, prop), set()).add(obj)
        self.properties = sorted({prop for _, prop in self.objects})
        self._property_set = set(self.properties)

    def _hop(self, values, prop) -> set:
        out = set()
        for value in values:
            if isinstance(value, str):
                out |= self.objects.get((value, prop), set())
        return out

    def apply(self, func: str, args: list) -> tuple:
        if func == "Hop":
            return _canonical(self._hop(args[0], args[1]))
        if func in ("ArgMax", "ArgMin"):
            values, prop = args
            union = self._hop(values, prop)
            if not union:
                return ()
            kinds = {type(v) for v in union}
            if kinds not in ({float}, {datetime.date}):
                raise NaiveError(f"{func} over non-comparable {prop}")
            pick = max if func == "ArgMax" else min
            best_of = {
                v: pick(self.objects[(v, prop)])
                for v in values
                if isinstance(v, str) and (v, prop) in self.objects
            }
            best = pick(best_of.values())
            return _canonical(v for v, b in best_of.items() if b == best)
        if func == "Equal":
            first, second, prop = args
            targets = set(second)
            return _canonical(
                v for v in first
                if isinstance(v, str) and self.objects.get((v, prop), set()) & targets
            )
        raise NaiveError(f"unknown function {func}")

    def run(self, tokens, entities) -> list[tuple]:
        """Denotations of every expression in order; ``[]`` for a bare
        RETURN. ``entities`` are the question's entity ids (R0, R1, ...)."""
        tokens = list(tokens)
        if not tokens or tokens[-1] != "RETURN" or "RETURN" in tokens[:-1]:
            raise NaiveError("a program ends with exactly one RETURN")
        variables = [(e,) for e in entities]
        results: list[tuple] = []
        i = 0
        while i < len(tokens) - 1:
            if tokens[i] != "(" or i + 1 >= len(tokens) or tokens[i + 1] not in _SIGNATURES:
                raise NaiveError(f"bad expression at token {i}")
            slots = _SIGNATURES[tokens[i + 1]]
            raw = tokens[i + 2 : i + 2 + len(slots)]
            close = i + 2 + len(slots)
            if len(raw) != len(slots) or close >= len(tokens) or tokens[close] != ")":
                raise NaiveError(f"bad arity at token {i}")
            args = []
            for kind, tok in zip(slots, raw):
                if kind == "var":
                    if not tok.startswith("R") or not tok[1:].isdigit() or int(tok[1:]) >= len(variables):
                        raise NaiveError(f"undefined variable {tok}")
                    args.append(variables[int(tok[1:])])
                else:
                    if tok not in self._property_set:
                        raise NaiveError(f"unknown property {tok}")
                    args.append(tok)
            result = self.apply(tokens[i + 1], args)
            variables.append(result)
            results.append(result)
            i += 3 + len(slots)
        return results

    def denotation(self, tokens, entities) -> tuple:
        results = self.run(tokens, entities)
        return results[-1] if results else ()

    def all_programs(self, entities, max_expressions: int) -> dict[tuple, tuple]:
        """Every program of at most ``max_expressions`` expressions whose
        expressions all run and denote non-empty sets, including the bare
        RETURN; maps token tuples to denotations."""
        found: dict[tuple, tuple] = {}

        def extend(variables, tokens, last):
            found[tokens + ("RETURN",)] = last
            if len(variables) - len(entities) >= max_expressions:
                return
            names = [f"R{i}" for i in range(len(variables))]
            for func, slots in _SIGNATURES.items():
                n_vars = slots.count("var")
                for picked in itertools.product(range(len(variables)), repeat=n_vars):
                    for prop in self.properties:
                        args = [variables[i] for i in picked] + [prop]
                        try:
                            result = self.apply(func, args)
                        except NaiveError:
                            continue
                        if result:
                            expr = ("(", func, *(names[i] for i in picked), prop, ")")
                            extend(variables + [result], tokens + expr, result)

        extend([(e,) for e in entities], (), ())
        return found


def f1(predicted, gold) -> float:
    """Answer-set F1; an empty prediction scores 0."""
    predicted, gold = set(predicted), set(gold)
    if not predicted or not gold:
        return 0.0
    return 2.0 * len(predicted & gold) / (len(predicted) + len(gold))


def _entities(item) -> list[str]:
    return [eid for _, eid in item.entities]


# ---------------------------------------------------------------------------
# parse: beam search and greedy decoding


def check_beam(naive: NaiveExecutor, item, candidates, beam_size: int) -> list[str]:
    """Denotations, non-empty intermediates, order, distinctness, size and
    total probability of one question's beam."""
    problems = []
    where = f"{item.qid} beam"
    if not 1 <= len(candidates) <= beam_size:
        problems.append(f"{where}: {len(candidates)} candidates for beam {beam_size}")
    keys = [(-c.logprob, tuple(c.token_ids)) for c in candidates]
    if keys != sorted(keys):
        problems.append(f"{where}: candidates not sorted by (-logprob, token ids)")
    if len({tuple(c.tokens) for c in candidates}) != len(candidates):
        problems.append(f"{where}: duplicate candidates")
    total = math.fsum(math.exp(c.logprob) for c in candidates)
    if total > 1.0 + LOGPROB_TOLERANCE:
        problems.append(f"{where}: probabilities sum to {total}")
    for c in candidates:
        problems += _check_candidate(naive, item, c, where)
    return problems


def _check_candidate(naive: NaiveExecutor, item, candidate, where: str) -> list[str]:
    try:
        results = naive.run(candidate.tokens, _entities(item))
    except NaiveError as exc:
        return [f"{where}: {' '.join(candidate.tokens)!r} does not run: {exc}"]
    problems = []
    if any(not r for r in results):
        problems.append(f"{where}: {' '.join(candidate.tokens)!r} has an empty intermediate")
    expected = results[-1] if results else ()
    if tuple(candidate.denotation) != expected:
        problems.append(
            f"{where}: {' '.join(candidate.tokens)!r} denotes {candidate.denotation!r}, "
            f"naive re-execution gives {expected!r}"
        )
    return problems


def check_greedy(naive: NaiveExecutor, item, candidate) -> list[str]:
    return _check_candidate(naive, item, candidate, f"{item.qid} greedy")


def check_replay(item, candidates, replayed: list[float]) -> list[str]:
    """Search log-probabilities against the tape replay of the same tokens."""
    return [
        f"{item.qid}: {' '.join(c.tokens)!r} searched at {c.logprob!r}, replayed at {r!r}"
        for c, r in zip(candidates, replayed)
        if not abs(c.logprob - r) <= LOGPROB_TOLERANCE
    ]


# ---------------------------------------------------------------------------
# train: pseudo-gold store, log records, evaluation


def check_store(naive: NaiveExecutor, items, stored: dict) -> list[str]:
    """Every stored program, re-executed, earns exactly its stored reward.

    ``stored`` maps question ids to ``(tokens, reward)``."""
    problems = []
    by_qid = {item.qid: item for item in items}
    for qid, (tokens, reward) in stored.items():
        item = by_qid[qid]
        try:
            earned = f1(naive.denotation(tokens, _entities(item)), item.answers)
        except NaiveError as exc:
            problems.append(f"{qid}: stored {' '.join(tokens)!r} does not run: {exc}")
            continue
        if not abs(earned - reward) <= F1_TOLERANCE:
            problems.append(f"{qid}: stored {' '.join(tokens)!r} earns {earned}, stored {reward}")
    return problems


def check_store_monotone(records: list[dict]) -> list[str]:
    """Per-question store rewards never fall across log records."""
    problems = []
    for n, (before, after) in enumerate(zip(records, records[1:]), start=1):
        for qid, reward in before.items():
            if after.get(qid, -1.0) < reward:
                problems.append(
                    f"{qid}: store reward fell from {reward} to {after.get(qid)} at record {n}"
                )
    return problems


def check_eval(naive: NaiveExecutor, items, programs, reported_f1: float, split: str) -> list[str]:
    """Mean F1 of the greedy programs, re-executed, equals the reported one."""
    scores = []
    for item, tokens in zip(items, programs):
        try:
            scores.append(f1(naive.denotation(tokens, _entities(item)), item.answers))
        except NaiveError as exc:
            return [f"{split} {item.qid}: greedy {' '.join(tokens)!r} does not run: {exc}"]
    mean = math.fsum(scores) / len(scores)
    if not abs(mean - reported_f1) <= F1_TOLERANCE:
        return [f"{split}: F1 {reported_f1} reported, {mean} recomputed"]
    return []


# ---------------------------------------------------------------------------
# enumerate: exhaustive program walk


def check_gold_reached(item, denotations) -> list[str]:
    """Some enumerated denotation equals the gold answers (both canonical)."""
    gold = tuple(item.answers)
    if any(tuple(d) == gold for d in denotations):
        return []
    return [f"{item.qid}: no enumerated program denotes the gold answers"]


def check_enumeration(naive: NaiveExecutor, item, programs: dict, max_expressions: int) -> list[str]:
    """The walked program set equals the brute-force grammar enumeration,
    denotations included. ``programs`` maps token tuples to denotations."""
    expected = naive.all_programs(_entities(item), max_expressions)
    problems = []
    missing = sorted(set(expected) - set(programs))
    extra = sorted(set(programs) - set(expected))
    if missing:
        problems.append(f"{item.qid}: {len(missing)} programs missing, e.g. {' '.join(missing[0])!r}")
    if extra:
        problems.append(f"{item.qid}: {len(extra)} programs extra, e.g. {' '.join(extra[0])!r}")
    for tokens in sorted(set(expected) & set(programs)):
        if tuple(programs[tokens]) != expected[tokens]:
            problems.append(f"{item.qid}: {' '.join(tokens)!r} denotes {programs[tokens]!r}, "
                            f"brute force gives {expected[tokens]!r}")
            break
    return problems
