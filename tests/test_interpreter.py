import datetime
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisplab.interpreter import (
    ExecError,
    ParseError,
    ProgramError,
    apply_function,
    execute_program,
    parse_program,
    run_program_text,
    variable_index,
)
from lisplab.kb import KnowledgeBase

from oracles import naive_execute, random_program_tokens, random_triples


def kb_of(*triples, aliases=None):
    return KnowledgeBase(triples, aliases)


class TestParse:
    def test_single_hop(self):
        p = parse_program("( Hop R0 PlaceOfBirthOf ) RETURN", n_initial_vars=1)
        assert len(p.expressions) == 1
        assert p.expressions[0].func == "Hop"
        assert p.expressions[0].args == ("R0", "PlaceOfBirthOf")

    def test_bare_return_is_empty_program(self):
        assert parse_program("RETURN").expressions == ()

    def test_undefined_variable(self):
        with pytest.raises(ParseError, match="undefined variable R5"):
            parse_program("( Hop R5 p ) RETURN", n_initial_vars=0)

    def test_created_variables_become_defined(self):
        p = parse_program("( Hop R0 p ) ( Hop R1 q ) RETURN", n_initial_vars=1)
        assert len(p.expressions) == 2

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_program("( Frob R0 p ) RETURN", n_initial_vars=1)
        assert exc.value.position == 1
        with pytest.raises(ParseError) as exc:
            parse_program("( Hop R1 p ) RETURN", n_initial_vars=1)
        assert exc.value.position == 2

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "( Hop R0 p )",  # missing RETURN
            "( Hop R0 ) RETURN",  # arity
            "( Hop R0 p q ) RETURN",
            "( Equal R0 R0 ) RETURN",
            "( Hop R0 p RETURN",  # unclosed
            "( Hop R0 p ) RETURN extra",
            "RETURN RETURN",
            "( Hop R0 R0 ) RETURN",  # var in prop slot
            "( Hop p p ) RETURN",  # prop in var slot
            "( Hop R05 p ) RETURN",  # non-canonical variable name
            "( Hop R0 ( ) RETURN",
            "Hop R0 p RETURN",
            "( ( Hop R0 p ) ) RETURN",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_program(text, n_initial_vars=1)

    def test_max_expressions(self):
        three = "( Hop R0 p ) " * 3 + "RETURN"
        four = "( Hop R0 p ) " * 4 + "RETURN"
        assert len(parse_program(three, 1).expressions) == 3
        with pytest.raises(ParseError, match="more than 3"):
            parse_program(four, 1)
        assert len(parse_program(four, 1, max_expressions=4).expressions) == 4

    def test_serialize_normalizes(self):
        text = "  ( Hop   R0 p )  RETURN "
        p = parse_program(text, 1)
        assert p.text() == "( Hop R0 p ) RETURN"
        assert parse_program(p.text(), 1) == p

    def test_variable_index(self):
        assert variable_index("R0") == 0
        assert variable_index("R12") == 12
        for bad in ("R", "R05", "r1", "R-1", "R1x", "Hop"):
            assert variable_index(bad) is None


class TestHop:
    def test_place_of_birth(self):
        kb = kb_of(("Hodgenville", "PlaceOfBirthOf", "AbeLincoln"))
        assert apply_function(kb, "Hop", [("Hodgenville",), "PlaceOfBirthOf"]) == ("AbeLincoln",)

    def test_empty_source(self):
        kb = kb_of(("a", "p", "b"))
        assert apply_function(kb, "Hop", [(), "p"]) == ()

    def test_multi_source_union(self):
        kb = kb_of(("NYC", "PopulationOf", 8400000.0), ("LA", "PopulationOf", 3900000.0))
        got = apply_function(kb, "Hop", [("LA", "NYC"), "PopulationOf"])
        assert got == (3900000.0, 8400000.0)


class TestArgMax:
    def test_two_cities(self):
        kb = kb_of(("NYC", "PopulationOf", 8400000.0), ("LA", "PopulationOf", 3900000.0))
        assert apply_function(kb, "ArgMax", [("LA", "NYC"), "PopulationOf"]) == ("NYC",)
        assert apply_function(kb, "ArgMin", [("LA", "NYC"), "PopulationOf"]) == ("LA",)

    def test_singleton_is_its_own_argmax(self):
        kb = kb_of(("NYC", "PopulationOf", 8400000.0))
        assert apply_function(kb, "ArgMax", [("NYC",), "PopulationOf"]) == ("NYC",)

    def test_ties_all_returned(self):
        kb = kb_of(("A", "p", 7.0), ("B", "p", 7.0), ("C", "p", 1.0))
        assert apply_function(kb, "ArgMax", [("A", "B", "C"), "p"]) == ("A", "B")

    def test_entity_scored_by_its_own_extreme(self):
        # B's own max (6) beats A's own max (5) even though A also has a 2
        kb = kb_of(("A", "p", 5.0), ("A", "p", 2.0), ("B", "p", 6.0))
        assert apply_function(kb, "ArgMax", [("A", "B"), "p"]) == ("B",)
        # For ArgMin, A's own min (2) beats B's 6
        assert apply_function(kb, "ArgMin", [("A", "B"), "p"]) == ("A",)

    def test_dates_compare_by_calendar(self):
        kb = kb_of(
            ("abe", "born", datetime.date(1809, 2, 12)),
            ("george", "born", datetime.date(1732, 2, 22)),
        )
        assert apply_function(kb, "ArgMin", [("abe", "george"), "born"]) == ("george",)

    def test_mixed_kinds_error(self):
        kb = kb_of(("A", "p", 5.0), ("B", "p", datetime.date(2000, 1, 1)))
        with pytest.raises(ExecError):
            apply_function(kb, "ArgMax", [("A", "B"), "p"])

    def test_entity_valued_property_error(self):
        kb = kb_of(("A", "p", "B"))
        with pytest.raises(ExecError):
            apply_function(kb, "ArgMax", [("A",), "p"])

    def test_no_edges_from_v_is_empty(self):
        kb = kb_of(("A", "p", 5.0))
        assert apply_function(kb, "ArgMax", [("Z",), "p"]) == ()


class TestEqual:
    def test_filters_v1_by_edge_into_v2(self):
        kb = kb_of(
            ("AbeLincoln", "BornIn", "Hodgenville"),
            ("GeorgeW", "BornIn", "Westmoreland"),
        )
        got = apply_function(kb, "Equal", [("AbeLincoln", "GeorgeW"), ("Hodgenville",), "BornIn"])
        assert got == ("AbeLincoln",)

    def test_empty_v1(self):
        kb = kb_of(("a", "p", "b"))
        assert apply_function(kb, "Equal", [(), ("b",), "p"]) == ()

    def test_empty_v2(self):
        kb = kb_of(("a", "p", "b"))
        assert apply_function(kb, "Equal", [("a",), (), "p"]) == ()

    def test_same_set_both_slots(self):
        kb = kb_of(("a", "p", "a"), ("b", "p", "c"))
        assert apply_function(kb, "Equal", [("a", "b"), ("a", "b"), "p"]) == ("a",)


class TestExecuteProgram:
    def test_paper_flow(self):
        kb = kb_of(("Hodgenville", "PlaceOfBirthOf", "AbeLincoln"))
        got = run_program_text(kb, "( Hop R0 PlaceOfBirthOf ) RETURN", [("Hodgenville",)])
        assert got == ("AbeLincoln",)

    def test_bare_return_denotes_empty(self):
        kb = kb_of(("a", "p", "b"))
        assert run_program_text(kb, "RETURN", [("a",)]) == ()

    def test_composition_matches_manual(self):
        kb = kb_of(
            ("usa", "CityIn", "NYC"),
            ("usa", "CityIn", "LA"),
            ("NYC", "PopulationOf", 8400000.0),
            ("LA", "PopulationOf", 3900000.0),
        )
        step1 = apply_function(kb, "Hop", [("usa",), "CityIn"])
        step2 = apply_function(kb, "ArgMax", [step1, "PopulationOf"])
        got = run_program_text(
            kb, "( Hop R0 CityIn ) ( ArgMax R1 PopulationOf ) RETURN", [("usa",)]
        )
        assert got == step2 == ("NYC",)

    def test_unknown_property_is_exec_error(self):
        kb = kb_of(("a", "p", "b"))
        for text in (
            "( Hop R0 nope ) RETURN",
            "( ArgMax R0 nope ) RETURN",
            "( Equal R0 R0 nope ) RETURN",
        ):
            with pytest.raises(ExecError, match="nope"):
                run_program_text(kb, text, [("a",)])

    def test_later_expression_reuses_any_variable(self):
        kb = kb_of(("a", "p", "b"), ("a", "q", "c"))
        got = run_program_text(kb, "( Hop R0 p ) ( Hop R0 q ) RETURN", [("a",)])
        assert got == ("c",)

    def test_kb_not_mutated(self):
        kb = kb_of(("a", "p", "b"))
        before = set(kb.triples)
        run_program_text(kb, "( Hop R0 p ) RETURN", [("a",)])
        assert set(kb.triples) == before

    def test_deterministic(self):
        kb = kb_of(("a", "p", "b"), ("a", "p", "c"))
        runs = {run_program_text(kb, "( Hop R0 p ) RETURN", [("a",)]) for _ in range(5)}
        assert runs == {("b", "c")}


class TestOracleEquivalence:
    """Random programs agree with the naive Table-style oracle."""

    def check_one(self, rng: random.Random):
        triples, entities, props = random_triples(rng)
        kb = KnowledgeBase(triples)
        usable_props = sorted(kb.properties)
        initial = [tuple(rng.sample(entities, rng.randint(1, 2)))]
        tokens = random_program_tokens(rng, len(initial), usable_props)
        program = parse_program(tokens, len(initial))
        exprs = [(e.func, list(e.args)) for e in program.expressions]
        try:
            expected = naive_execute(triples, exprs, initial)
            failed = False
        except ValueError:
            failed = True
        if failed:
            with pytest.raises(ProgramError):
                execute_program(kb, program, initial)
        else:
            assert execute_program(kb, program, initial) == expected

    @given(st.integers(0, 10**9))
    @settings(max_examples=300, deadline=None)
    def test_random_agreement(self, seed):
        self.check_one(random.Random(seed))
