import datetime
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisplab import kb as kbmod
from lisplab.kb import (
    KBError,
    KBLoadError,
    KnowledgeBase,
    UnknownPropertyError,
    canon,
    check_value,
    load_kb,
    resolve_entities,
    save_kb,
    value_kind,
)

from oracles import naive_canon, naive_hop

entity_ids = st.text(alphabet="abcde", min_size=1, max_size=3)
property_ids = st.sampled_from(["p0", "p1", "p2", "likes", "born"])
numbers = st.floats(allow_nan=False, allow_infinity=False, width=64)
dates = st.dates(min_value=datetime.date(1, 1, 1), max_value=datetime.date(9999, 12, 31))
values = st.one_of(entity_ids, numbers, dates)
triples = st.lists(st.tuples(entity_ids, property_ids, values), max_size=40)


class TestValues:
    def test_kinds(self):
        assert value_kind("abe") == "entity"
        assert value_kind(3.0) == "number"
        assert value_kind(datetime.date(1809, 2, 12)) == "date"

    def test_rejects_non_values(self):
        with pytest.raises(KBError):
            check_value(True)
        with pytest.raises(KBError):
            check_value(datetime.datetime(2000, 1, 1, 12, 0))
        with pytest.raises(KBError):
            check_value(float("inf"))
        with pytest.raises(KBError):
            check_value(None)
        with pytest.raises(KBError):
            check_value("")

    def test_int_coerces_to_float(self):
        v = check_value(7)
        assert isinstance(v, float) and v == 7.0

    @given(st.one_of(st.lists(entity_ids), st.lists(numbers), st.lists(dates), st.lists(values)))
    def test_canon_matches_naive(self, vals):
        assert canon(vals) == naive_canon(vals)
        assert build_kb([]).canon(vals) == naive_canon(vals)

    @given(st.lists(values))
    def test_canon_idempotent_and_setlike(self, vals):
        once = canon(vals)
        assert canon(once) == once
        assert set(once) == set(vals)
        assert len(once) == len(set(vals))

    def test_canon_order_is_entities_numbers_dates(self):
        got = canon([datetime.date(2000, 1, 2), 5.0, "b", 1.5, "a", datetime.date(1999, 1, 1)])
        assert got == ("a", "b", 1.5, 5.0, datetime.date(1999, 1, 1), datetime.date(2000, 1, 2))


def build_kb(raw, aliases=None):
    return KnowledgeBase(raw, aliases)


class TestQueries:
    @given(triples, st.lists(values, max_size=6), property_ids)
    def test_forward_matches_naive(self, raw, vals, prop):
        kb = build_kb(raw)
        if prop not in kb.properties:
            with pytest.raises(UnknownPropertyError):
                kb.forward(vals, prop)
        else:
            assert kb.forward(vals, prop) == naive_hop(raw, vals, prop)

    @given(triples, st.lists(values, max_size=6))
    def test_reachable_matches_naive(self, raw, vals):
        kb = build_kb(raw)
        vset = set(vals)
        expected = {p for s, p, _ in raw if s in vset}
        assert kb.reachable_properties(vals) == expected

    @given(triples, st.lists(values, max_size=6))
    def test_comparable_matches_naive(self, raw, vals):
        kb = build_kb(raw)
        vset = set(vals)
        expected = set()
        for prop in {p for s, p, _ in raw if s in vset}:
            kinds = {value_kind(o) for s, p, o in raw if s in vset and p == prop}
            if kinds == {"number"} or kinds == {"date"}:
                expected.add(prop)
        assert kb.comparable_properties(vals) == expected

    @given(triples, st.lists(values, max_size=5), st.lists(values, max_size=5))
    def test_connecting_matches_naive(self, raw, v1, v2):
        kb = build_kb(raw)
        s1, s2 = set(v1), set(v2)
        expected = {p for s, p, o in raw if s in s1 and o in s2}
        assert kb.connecting_properties(v1, v2) == expected

    def test_forward_ignores_non_entity_sources(self):
        kb = build_kb([("a", "p0", 3.0)])
        assert kb.forward([3.0, datetime.date(2000, 1, 1)], "p0") == ()

    def test_memoized_queries_stay_correct(self):
        kb = build_kb([("a", "p0", "b"), ("b", "p0", "c")])
        for _ in range(3):
            assert kb.reachable_properties(["a", "b"]) == {"p0"}
            assert kb.connecting_properties(["a"], ["b"]) == {"p0"}

    def test_place_of_birth_hop(self):
        kb = build_kb(
            [("Hodgenville", "PlaceOfBirthOf", "AbeLincoln")],
            {"hodgenville": "Hodgenville"},
        )
        assert kb.forward(["Hodgenville"], "PlaceOfBirthOf") == ("AbeLincoln",)


class TestMemo:
    """The canonical-set table and the bounded memos change no answer."""

    @given(st.sampled_from(["int", "bool", "datetime"]), st.integers(0, 3), triples)
    def test_non_values_raise_even_after_an_equal_set_is_cached(self, kind, n, raw):
        if kind == "datetime":
            good, bad = datetime.date(2000, 1, 1 + n), datetime.datetime(2000, 1, 1 + n)
        else:
            good, bad = float(n % 2 if kind == "bool" else n), (n % 2 == 1 if kind == "bool" else n)
        kb = build_kb(raw)
        shared = kb.canon((good,))
        assert kb.canon(shared) is shared
        kb.reachable_properties(shared)
        kb.comparable_properties(shared)
        kb.connecting_properties(shared, shared)
        for vals in ((bad,), ("a", bad), [bad]):
            with pytest.raises(TypeError):
                canon(vals)
            for query in (kb.canon, kb.reachable_properties, kb.comparable_properties,
                          lambda v: kb.connecting_properties(v, shared),
                          lambda v: kb.connecting_properties(shared, v)):
                with pytest.raises(TypeError):
                    query(vals)

    @given(triples, st.lists(st.lists(values, max_size=4), min_size=1, max_size=4))
    @settings(max_examples=50)
    def test_cleared_memos_answer_like_a_fresh_kb(self, raw, starts):
        def answers(kb):
            pool = [kb.canon(vals) for vals in starts]
            out = []
            for _ in range(2):
                for vals in list(pool):
                    out.append(kb.reachable_properties(vals))
                    out.append(kb.comparable_properties(vals))
                    for other in pool[:3]:
                        out.append(kb.connecting_properties(vals, other))
                    for prop in sorted(kb.properties):
                        result = kb.forward(vals, prop)
                        out.append(repr(result))
                        pool.append(result)
            return out

        expected = answers(build_kb(raw))
        with mock.patch.object(kbmod, "MEMO_LIMIT", 3):
            kb = build_kb(raw)
            assert answers(kb) == expected
            memos = (kb._shared, kb._fwd_cache, kb._reach_cache, kb._comp_cache, kb._conn_cache)
            assert all(len(memo) <= 3 for memo in memos)

    @given(triples, st.lists(values, max_size=6), property_ids)
    def test_forward_list_and_tuple_agree(self, raw, vals, prop):
        kb = build_kb(raw)
        if prop not in kb.properties:
            return
        shared = kb.canon(vals)
        assert repr(kb.forward(vals, prop)) == repr(kb.forward(tuple(vals), prop))
        assert repr(kb.forward(shared, prop)) == repr(kb.forward(list(shared), prop))
        assert kb.forward(vals, prop) == kb.forward(shared, prop) == naive_hop(raw, vals, prop)

    def test_shared_sets_keep_the_sign_of_zero(self):
        kb = build_kb([("a", "num", -0.0), ("b", "num", 0.0)])
        assert repr(kb.forward(("a",), "num")) == "(-0.0,)"
        assert repr(kb.forward(("b",), "num")) == "(0.0,)"
        assert repr(kb.canon([0.0])) == "(0.0,)"

    def test_digest_follows_the_saved_file(self):
        kb = build_kb([("a", "p0", "b")], {"abe": "a"})
        assert kb.digest() == build_kb([("a", "p0", "b")], {"abe": "a"}).digest()
        assert kb.digest() != build_kb([("a", "p0", "c")], {"abe": "a"}).digest()
        assert kb.digest() != build_kb([("a", "p0", "b")]).digest()


class TestConstruction:
    def test_entities_include_objects_and_alias_targets(self):
        kb = build_kb([("a", "p0", "b"), ("a", "p1", 2.0)], {"the a thing": "a", "Zed": "z"})
        assert kb.entities == {"a", "b", "z"}
        assert kb.properties == {"p0", "p1"}

    def test_duplicate_triples_collapse(self):
        kb = build_kb([("a", "p0", "b"), ("a", "p0", "b"), ("a", "p0", 2), ("a", "p0", 2.0)])
        assert len(kb.triples) == 2

    def test_conflicting_alias_rejected(self):
        with pytest.raises(KBError):
            build_kb([("a", "p0", "b")], {"x": "a", "X": "b"})

    def test_alias_case_folds(self):
        kb = build_kb([("a", "p0", "b")], {"Abe Lincoln": "a"})
        assert kb.aliases == {"abe lincoln": "a"}


class TestSerialization:
    @given(triples, st.dictionaries(st.text(alphabet="xy z", min_size=1, max_size=5), entity_ids, max_size=4))
    @settings(max_examples=50)
    def test_round_trip(self, raw, aliases):
        aliases = {k: v for k, v in aliases.items() if k.strip() and " " * 2 not in k}
        aliases = {" ".join(k.split()): v for k, v in aliases.items()}
        # fold case conflicts the same way the KB does
        folded = {}
        for k, v in sorted(aliases.items()):
            folded.setdefault(k.lower(), v)
        kb = build_kb(raw, folded)
        text1 = "\n".join(kb.lines())
        kb2 = KnowledgeBase(kb.triples, kb.aliases)
        assert kb2.triples == kb.triples
        assert "\n".join(kb2.lines()) == text1

    def test_save_load_identity(self, tmp_path):
        kb = build_kb(
            [
                ("a", "p0", "b"),
                ("a", "num", 3.5),
                ("a", "num", -0.0),
                ("b", "when", datetime.date(1809, 2, 12)),
            ],
            {"abe lincoln": "a", "ville": "b"},
        )
        path = tmp_path / "kb.tsv"
        save_kb(kb, path)
        kb2 = load_kb(path)
        assert kb2.triples == kb.triples
        assert kb2.aliases == kb.aliases
        save_kb(kb2, tmp_path / "kb2.tsv")
        assert (tmp_path / "kb2.tsv").read_bytes() == path.read_bytes()

    def test_float_repr_round_trips_exactly(self, tmp_path):
        vals = [0.1, 1e300, -2.5e-10, 123456789.123456789]
        kb = build_kb([("a", "num", v) for v in vals])
        path = tmp_path / "kb.tsv"
        save_kb(kb, path)
        kb2 = load_kb(path)
        assert {o for _, _, o in kb2.triples} == set(vals)

    def test_load_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tp0\tb\tentity\na\tp0\tnope\tnumber\n")
        with pytest.raises(KBLoadError, match=r"bad\.tsv:2"):
            load_kb(path)

    @pytest.mark.parametrize(
        "line",
        [
            "a\tp0\tb",  # missing kind
            "a\tp0\tb\twidget",  # bad kind
            "a\tp0\t2000-13-01\tdate",  # bad month
            "a\tp0\t20000101\tdate",  # not ISO
            "a\tp0\t1 Jan 2000\tdate",
            "\tp0\tb\tentity",  # empty subject
            "a\t\tb\tentity",
            "a\tp0\t\tentity",
            "a\tp0\tinf\tnumber",
            "a\tp0\tnan\tnumber",
            "@alias\tonly-surface",
            "@alias\t\ta",
        ],
    )
    def test_load_rejects_malformed(self, tmp_path, line):
        path = tmp_path / "bad.tsv"
        path.write_text(line + "\n")
        with pytest.raises(KBLoadError, match=r"bad\.tsv:1"):
            load_kb(path)

    def test_load_rejects_conflicting_alias(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tp0\tb\tentity\n@alias\tx\ta\n@alias\tX\tb\n")
        with pytest.raises(KBLoadError, match=r"bad\.tsv:3"):
            load_kb(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("a\tp0\tb\tentity\n\n   \n")
        assert load_kb(path).triples == {("a", "p0", "b")}

    def test_date_line_round_trip(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("abe\tDateOfBirth\t1809-02-12\tdate\n")
        kb = load_kb(path)
        assert kb.forward(["abe"], "DateOfBirth") == (datetime.date(1809, 2, 12),)


class TestResolveEntities:
    def kb(self):
        return build_kb(
            [("AbeLincoln", "p0", "Hodgenville")],
            {
                "abe lincoln": "AbeLincoln",
                "abe": "Abe2",
                "lincoln": "Lincoln2",
                "hodgenville": "Hodgenville",
            },
        )

    def test_longest_match_wins(self):
        words = "where was Abe Lincoln born".split()
        assert resolve_entities(self.kb(), words) == [((2, 4), "AbeLincoln")]

    def test_greedy_left_to_right(self):
        # greedy scan takes "abe lincoln" first, leaving the second lincoln alone
        words = "abe lincoln lincoln".split()
        assert resolve_entities(self.kb(), words) == [
            ((0, 2), "AbeLincoln"),
            ((2, 3), "Lincoln2"),
        ]

    def test_case_insensitive(self):
        words = "ABE LINCOLN visited HODGENVILLE".split()
        got = resolve_entities(self.kb(), words)
        assert got == [((0, 2), "AbeLincoln"), ((3, 4), "Hodgenville")]

    def test_no_matches(self):
        assert resolve_entities(self.kb(), "nothing here".split()) == []
        assert resolve_entities(self.kb(), []) == []

    def test_non_overlapping(self):
        kb = build_kb([("a", "p", "b")], {"x y": "a", "y z": "b"})
        assert resolve_entities(kb, "x y z".split()) == [((0, 2), "a")]
