import collections
import datetime
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisplab import taskgen
from lisplab.assist import DecodingState
from lisplab.kb import KnowledgeBase, load_kb, resolve_entities, save_kb, value_kind
from lisplab.programmer import QAItem

from oracles import byte_edits


class TestGenKb:
    def test_seeded_determinism(self):
        a = taskgen.gen_kb(seed=7, n_entities=30, n_properties=5)
        b = taskgen.gen_kb(seed=7, n_entities=30, n_properties=5)
        assert list(a.lines()) == list(b.lines())
        c = taskgen.gen_kb(seed=8, n_entities=30, n_properties=5)
        assert list(a.lines()) != list(c.lines())

    def test_roster_kinds(self):
        kb = taskgen.gen_kb(seed=0, n_entities=50, n_properties=6)
        assert "num0" in kb.properties
        assert "date0" in kb.properties
        by_prop = collections.defaultdict(set)
        for _, prop, obj in kb.triples:
            by_prop[prop].add(value_kind(obj))
        assert by_prop["num0"] == {"number"}
        assert by_prop["date0"] == {"date"}
        for prop, kinds in by_prop.items():
            if prop.startswith("rel"):
                assert kinds == {"entity"}

    def test_two_properties_skip_dates(self):
        kb = taskgen.gen_kb(seed=0, n_entities=40, n_properties=2)
        assert kb.properties <= {"num0", "rel0"}
        assert "date0" not in kb.properties

    def test_single_entity_has_no_triples(self):
        kb = taskgen.gen_kb(seed=0, n_entities=1, n_properties=4)
        assert kb.triples == frozenset()
        assert kb.entities == {"e000"}  # kept alive by its alias

    def test_aliases_cover_every_entity(self):
        kb = taskgen.gen_kb(seed=1, n_entities=20, n_properties=4)
        spans = resolve_entities(kb, ["who", "likes", "e007", "most"])
        assert ((2, 3), "e007") in spans

    def test_round_trips_through_file(self, tmp_path):
        kb = taskgen.gen_kb(seed=3, n_entities=25, n_properties=5)
        path = tmp_path / "kb.txt"
        save_kb(kb, path)
        assert list(load_kb(path).lines()) == list(kb.lines())

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            taskgen.gen_kb(seed=0, n_entities=0)
        with pytest.raises(ValueError):
            taskgen.gen_kb(seed=0, n_properties=0)
        with pytest.raises(ValueError):
            taskgen.gen_kb(seed=0, edge_density=-1.0)


class TestDrawInstantiations:
    def test_realizable_and_distinct(self):
        kb = taskgen.gen_kb(seed=0, n_entities=40, n_properties=6)
        rng = np.random.default_rng(0)
        drawn = taskgen.draw_instantiations(kb, taskgen.DEFAULT_TEMPLATES, rng, 80)
        assert len(drawn) == 80
        assert len({inst.key for inst in drawn}) == 80
        for inst in drawn:
            assert inst.answers
            initial = [(eid,) for _, eid in inst.entities]
            # feeding validates every gold token against the assist oracle
            state = DecodingState(kb, initial).feed_all(inst.gold)
            assert state.denotation() == inst.answers

    def test_round_robin_balance(self):
        kb = taskgen.gen_kb(seed=0, n_entities=60, n_properties=8)
        rng = np.random.default_rng(1)
        drawn = taskgen.draw_instantiations(kb, taskgen.DEFAULT_TEMPLATES, rng, 40)
        counts = collections.Counter(inst.template for inst in drawn)
        assert counts == {"one_hop": 10, "two_hop": 10, "superlative": 10, "filter": 10}

    def test_uninstantiable_template_named(self):
        # attribute-only KB: hops work, but there is no entity-valued
        # property for the two-hop template to pass through
        kb = taskgen.gen_kb(seed=0, n_entities=20, n_properties=1)
        rng = np.random.default_rng(0)
        with pytest.raises(taskgen.GenerationError, match="two_hop"):
            taskgen.draw_instantiations(kb, taskgen.DEFAULT_TEMPLATES, rng, 8)

    def test_exhaustion_error(self):
        # one relation, one subject: only the carrier phrasings vary, so
        # asking for more items than phrasings must fail
        kb = KnowledgeBase([("Hodgenville", "PlaceOfBirthOf", "AbeLincoln")])
        rng = np.random.default_rng(0)
        n_variants = len(taskgen._ONE_HOP_LEADS)
        with pytest.raises(taskgen.GenerationError):
            taskgen.draw_instantiations(
                kb, taskgen.DEFAULT_TEMPLATES[:1], rng, n_variants + 1
            )


class TestGenDataset:
    def test_default_shapes(self):
        kb = taskgen.gen_kb(seed=0, n_entities=40, n_properties=6)
        train, dev, test = taskgen.gen_dataset(kb, seed=0, n_train=40, n_dev=12, n_test=12)
        assert (len(train), len(dev), len(test)) == (40, 12, 12)
        assert [it.qid for it in dev[:2]] == ["dev-0000", "dev-0001"]
        questions = [(it.tokens, it.entities) for it in train + dev + test]
        assert len(set(questions)) == len(questions)  # splits disjoint

    def test_seeded_determinism(self):
        kb = taskgen.gen_kb(seed=0, n_entities=40, n_properties=6)
        a = taskgen.gen_dataset(kb, seed=5, n_train=20, n_dev=5, n_test=5)
        b = taskgen.gen_dataset(kb, seed=5, n_train=20, n_dev=5, n_test=5)
        assert a == b

    def test_spans_point_at_entity_tokens(self):
        kb = taskgen.gen_kb(seed=0, n_entities=40, n_properties=6)
        train, _, _ = taskgen.gen_dataset(kb, seed=0, n_train=30, n_dev=1, n_test=1)
        for item in train:
            for (start, end), eid in item.entities:
                assert item.tokens[start:end] == (eid,)
            assert item.answers

    def test_single_possible_item(self):
        kb = KnowledgeBase([("Hodgenville", "PlaceOfBirthOf", "AbeLincoln")])
        train, dev, test = taskgen.gen_dataset(
            kb, templates=taskgen.DEFAULT_TEMPLATES[:1], seed=0,
            n_train=1, n_dev=0, n_test=0,
        )
        assert dev == [] and test == []
        (item,) = train
        assert item.tokens[-4:] == ("the", "PlaceOfBirthOf", "of", "Hodgenville")
        assert item.tokens[:-4] in taskgen._ONE_HOP_LEADS
        assert item.answers == ("AbeLincoln",)


class TestDatasetFiles:
    def items(self):
        return [
            QAItem("q0", ("what", "is", "e1",), (((2, 3), "e1"),), ("e2", "e3")),
            QAItem("q1", ("how", "big", "is", "e2"), (((3, 4), "e2"),),
                   (4.5, datetime.date(1999, 12, 31))),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        taskgen.save_dataset(path, self.items())
        assert taskgen.load_dataset(path) == self.items()

    def test_save_is_deterministic(self, tmp_path):
        taskgen.save_dataset(tmp_path / "a.jsonl", self.items())
        taskgen.save_dataset(tmp_path / "b.jsonl", self.items())
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_generated_data_round_trips(self, tmp_path):
        kb = taskgen.gen_kb(seed=0, n_entities=40, n_properties=6)
        train, _, _ = taskgen.gen_dataset(kb, seed=0, n_train=25, n_dev=1, n_test=1)
        path = tmp_path / "train.jsonl"
        taskgen.save_dataset(path, train)
        assert taskgen.load_dataset(path) == train

    def test_empty_answers_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "q", "question": "a b", "entities": [], "answers": []}\n')
        with pytest.raises(taskgen.DatasetError):
            taskgen.load_dataset(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {"id": "q", "question": "a b", "entities": [{"start": 0, "end": 1, "id": "x"}],
                "answers": [["entity", "y"]]}
        for line in ["not json", "[1]", json.dumps({**good, "question": 5}),
                     json.dumps({**good, "id": 5}),
                     json.dumps({**good, "entities": [{"start": 0, "end": 1, "id": 5}]}),
                     json.dumps({**good, "entities": [{"start": 0.0, "end": 1.0, "id": "x"}]}),
                     json.dumps({**good, "entities": [{"start": 0, "end": True, "id": "x"}]})]:
            path.write_text(line + "\n")
            with pytest.raises(taskgen.DatasetError, match="bad.jsonl:1"):
                taskgen.load_dataset(path)

    def test_bad_span_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "q", "question": "a b", "entities": [{"start": 0, "end": 9, "id": "x"}],'
            ' "answers": [["entity", "y"]]}\n'
        )
        with pytest.raises(taskgen.DatasetError, match="span"):
            taskgen.load_dataset(path)

    def test_answers_round_trip_by_kind(self, tmp_path):
        # an entity id shaped like a date stays an entity
        item = QAItem("q", ("a", "b"), (), ("2020-01-01", 7.25, datetime.date(2020, 1, 1)))
        path = tmp_path / "data.jsonl"
        taskgen.save_dataset(path, [item])
        assert json.loads(path.read_text())["answers"] == [
            ["entity", "2020-01-01"], ["number", "7.25"], ["date", "2020-01-01"]
        ]
        (loaded,) = taskgen.load_dataset(path)
        assert loaded == item
        assert [type(v) for v in loaded.answers] == [str, float, datetime.date]

    @pytest.mark.parametrize("answer", ['"e9"', "7", '["e9"]', '["entity", 7]', '["thing", "x"]',
                                        '["date", "2020-13-01"]', '["number", "nan"]'])
    def test_answer_without_valid_kind_rejected(self, tmp_path, answer):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "q", "question": "a b", "entities": [], "answers": [["entity", "y"]]}\n'
                        '{"id": "q", "question": "a b", "entities": [], "answers": [%s]}\n' % answer)
        with pytest.raises(taskgen.DatasetError, match="bad.jsonl:2"):
            taskgen.load_dataset(path)

    @pytest.mark.parametrize("question", ["what  is the rel0 of e001", " a b", "a b ", "a\tb"],
                             ids=["double-space", "leading", "trailing", "tab"])
    def test_empty_or_whitespace_token_rejected(self, tmp_path, question):
        path = tmp_path / "bad.jsonl"
        record = {"id": "q", "question": question, "entities": [], "answers": [["entity", "y"]]}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(taskgen.DatasetError, match="bad.jsonl:1: .*whitespace"):
            taskgen.load_dataset(path)


# --- fuzzing the dataset format -------------------------------------------

words = st.text(st.characters(categories=("L", "N", "P", "S")), min_size=1, max_size=4).filter(
    lambda w: w.split() == [w])
answer_values = st.one_of(
    st.text(min_size=1, max_size=4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.dates(),
)


@st.composite
def qa_items(draw):
    tokens = draw(st.lists(words, min_size=1, max_size=6))
    cuts = sorted(draw(st.sets(st.integers(0, len(tokens)), max_size=len(tokens) + 1)))
    spans = list(zip(cuts[0::2], cuts[1::2]))
    ids = draw(st.lists(st.text(min_size=1, max_size=4), min_size=len(spans), max_size=len(spans)))
    return QAItem(draw(st.text(max_size=4)), tuple(tokens), tuple(zip(spans, ids)),
                  tuple(draw(st.lists(answer_values, min_size=1, max_size=4))))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


def load_or_reject(blob: bytes):
    """Load ``blob`` as a dataset file: the items, or None when it is
    rejected with a DatasetError; any other exception fails the test.
    Loaded items must round-trip through save and load exactly."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_bytes(blob)
        try:
            items = taskgen.load_dataset(path)
        except taskgen.DatasetError as exc:
            assert str(path) in str(exc) and "\n" not in str(exc)
            return None
        taskgen.save_dataset(path, items)
        assert taskgen.load_dataset(path) == items
        return items


class TestDatasetFuzz:
    @given(st.lists(qa_items(), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, items):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.jsonl"
            taskgen.save_dataset(path, items)
            assert taskgen.load_dataset(path) == items
            first = path.read_bytes()
            taskgen.save_dataset(path, taskgen.load_dataset(path))
            assert path.read_bytes() == first

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_edited_bytes_load_exactly_or_raise(self, data):
        items = data.draw(st.lists(qa_items(), min_size=1, max_size=3))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.jsonl"
            taskgen.save_dataset(path, items)
            blob = path.read_bytes()
        load_or_reject(data.draw(byte_edits(blob)))

    @given(qa_items(), st.sampled_from(["id", "question", "entities", "answers", "start", "end",
                                        "entity_id", "answer"]), json_values)
    @settings(max_examples=150, deadline=None)
    def test_replaced_fields_load_exactly_or_raise(self, item, field, value):
        record = {"id": item.qid, "question": " ".join(item.tokens),
                  "entities": [{"start": s, "end": e, "id": eid} for (s, e), eid in item.entities],
                  "answers": [["entity", "x"]]}
        if field in ("start", "end", "entity_id"):
            record["entities"].append({"start": 0, "end": 1, "id": "x"})
            record["entities"][-1][field.removeprefix("entity_")] = value
        elif field == "answer":
            record["answers"].append(value)
        else:
            record[field] = value
        load_or_reject(json.dumps(record).encode("utf-8") + b"\n")

    @given(st.binary(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes_load_exactly_or_raise(self, blob):
        load_or_reject(blob)

    def test_deep_nesting_raises(self):
        assert load_or_reject(b"[" * 100_000 + b"\n") is None
