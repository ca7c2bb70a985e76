import datetime
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisplab.assist import AssistError, DecodingState
from lisplab.interpreter import execute_program
from lisplab.kb import KnowledgeBase

from oracles import enumerate_programs, random_rollout, random_triples


def kb_of(*triples):
    return KnowledgeBase(triples)


def brute_force_valid(triples, initial_vars, prefix, max_expressions):
    """A token is valid iff some fully legal program extends prefix+token.

    Legal means: runs without error, every expression's denotation is
    non-empty, at most max_expressions expressions. This replays the
    one-token-extension contract directly against exhaustive enumeration.
    """
    prefix = list(prefix)
    out = set()
    for tokens, _ in enumerate_programs(triples, initial_vars, max_expressions):
        if len(tokens) > len(prefix) and tokens[: len(prefix)] == prefix:
            out.add(tokens[len(prefix)])
    return out


SMALL_KB = [
    ("abe", "BornIn", "hodgenville"),
    ("abe", "HeightOf", 193.0),
    ("george", "BornIn", "westmoreland"),
    ("george", "HeightOf", 188.0),
    ("hodgenville", "LocatedIn", "kentucky"),
]


class TestValidTokens:
    def test_after_open_only_functions(self):
        state = DecodingState(kb_of(*SMALL_KB), [("abe",)]).feed("(")
        assert state.valid_tokens() <= {"Hop", "ArgMax", "ArgMin", "Equal"}
        assert "Hop" in state.valid_tokens()

    def test_reachable_relations_only(self):
        kb = kb_of(("Hodgenville", "PlaceOfBirthOf", "AbeLincoln"))
        state = DecodingState(kb, [("Hodgenville",)]).feed_all(["(", "Hop", "R0"])
        assert state.valid_tokens() == {"PlaceOfBirthOf"}

    def test_fresh_state_with_variables(self):
        state = DecodingState(kb_of(*SMALL_KB), [("abe",)])
        assert state.valid_tokens() == {"(", "RETURN"}

    def test_fresh_state_zero_variables_escapes_with_return(self):
        # nothing is satisfiable without variables, so the only way to a
        # complete program is the empty one
        state = DecodingState(kb_of(*SMALL_KB), [])
        assert state.valid_tokens() == {"RETURN"}

    def test_variable_with_no_edges_blocks_open(self):
        kb = kb_of(("a", "p", "b"))
        state = DecodingState(kb, [("zzz",)])
        assert state.valid_tokens() == {"RETURN"}

    def test_argmax_needs_comparable_property(self):
        kb = kb_of(("a", "p", "b"))  # entity-valued only
        state = DecodingState(kb, [("a",)]).feed("(")
        assert "Hop" in state.valid_tokens()
        assert "ArgMax" not in state.valid_tokens()
        assert "ArgMin" not in state.valid_tokens()

    def test_equal_var_slots_connect(self):
        kb = kb_of(("a", "p", "a"), ("b", "q", 1.0))
        state = DecodingState(kb, [("a",), ("b",)]).feed_all(["(", "Equal"])
        # only R0 connects to anything (its self loop); R1's edges go to a number
        assert state.valid_tokens() == {"R0"}
        state = state.feed("R0")
        assert state.valid_tokens() == {"R0"}
        state = state.feed("R0")
        assert state.valid_tokens() == {"p"}

    def test_max_expressions_forces_return(self):
        kb = kb_of(*SMALL_KB)
        state = DecodingState(kb, [("abe",)], max_expressions=1)
        state = state.feed_all(["(", "Hop", "R0", "BornIn", ")"])
        assert state.valid_tokens() == {"RETURN"}

    def test_after_final_arg_only_close(self):
        state = DecodingState(kb_of(*SMALL_KB), [("abe",)])
        state = state.feed_all(["(", "Hop", "R0", "BornIn"])
        assert state.valid_tokens() == {")"}

    def test_terminated_state_offers_nothing(self):
        state = DecodingState(kb_of(*SMALL_KB), [("abe",)]).feed("RETURN")
        assert state.valid_tokens() == frozenset()
        assert state.terminated

    def test_feed_invalid_token_raises(self):
        state = DecodingState(kb_of(*SMALL_KB), [("abe",)])
        with pytest.raises(AssistError):
            state.feed("Hop")
        with pytest.raises(AssistError):
            state.feed(")")

    def test_feed_is_persistent(self):
        base = DecodingState(kb_of(*SMALL_KB), [("abe",)])
        a = base.feed("(")
        b = base.feed("RETURN")
        assert base.emitted == ()
        assert a.emitted == ("(",)
        assert b.terminated and not a.terminated

    def test_denotation_tracks_last_expression(self):
        state = DecodingState(kb_of(*SMALL_KB), [("abe",)])
        assert state.denotation() == ()
        state = state.feed_all(["(", "Hop", "R0", "BornIn", ")"])
        assert state.denotation() == ("hodgenville",)


class TestBruteForceAgreement:
    """valid_tokens equals prefix-extension over exhaustive enumeration."""

    def walk_and_compare(self, triples, initial_vars, max_expressions=2):
        kb = KnowledgeBase(triples)
        seen = 0
        stack = [DecodingState(kb, initial_vars, max_expressions)]
        while stack:
            state = stack.pop()
            expected = brute_force_valid(triples, initial_vars, state.emitted, max_expressions)
            assert state.valid_tokens() == expected, (
                f"prefix {state.emitted!r}: assist {sorted(state.valid_tokens())} "
                f"!= oracle {sorted(expected)}"
            )
            seen += 1
            for token in state.valid_tokens():
                stack.append(state.feed(token))
        return seen

    def test_small_kb_exact(self):
        assert self.walk_and_compare(SMALL_KB, [("abe",), ("hodgenville",)]) > 50

    def test_numeric_kb_exact(self):
        triples = [
            ("usa", "CityIn", "nyc"),
            ("usa", "CityIn", "la"),
            ("nyc", "Pop", 8.4),
            ("la", "Pop", 3.9),
            ("nyc", "Founded", datetime.date(1624, 1, 1)),
        ]
        self.walk_and_compare(triples, [("usa",)])

    def test_zero_variables_exact(self):
        self.walk_and_compare(SMALL_KB, [])

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_random_kbs_exact(self, seed):
        rng = random.Random(seed)
        triples, entities, _ = random_triples(rng, n_entities=5, n_props=3)
        initial = [(rng.choice(entities),)]
        self.walk_and_compare(triples, initial, max_expressions=2)


class TestRandomRollout:
    def test_terminates_and_is_sound(self):
        kb = kb_of(*SMALL_KB)
        initial = [("abe",), ("george",)]
        for seed in range(200):
            program = random_rollout(kb, initial, seed)
            assert len(program.expressions) <= 3
            state = DecodingState(kb, initial)
            for expr in program.expressions:
                state = state.feed_all(expr.tokens())
                assert state.denotation() != ()
            # executing through the interpreter agrees and never raises
            execute_program(kb, program, list(initial))

    def test_no_edges_returns_immediately(self):
        kb = kb_of(("a", "p", "b"))
        program = random_rollout(kb, [("zzz",)], rng_seed=0)
        assert program.expressions == ()

    def test_same_seed_same_program(self):
        kb = kb_of(*SMALL_KB)
        a = random_rollout(kb, [("abe",)], rng_seed=7)
        b = random_rollout(kb, [("abe",)], rng_seed=7)
        assert a == b

    def test_rollouts_reach_varied_programs(self):
        kb = kb_of(*SMALL_KB)
        programs = {random_rollout(kb, [("abe",)], seed).text() for seed in range(100)}
        assert len(programs) > 5
