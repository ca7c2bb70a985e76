"""Immutable in-memory knowledge base with the indices the interpreter needs.

A knowledge base is a set of (subject, property, object) assertions where
subjects are entity ids and objects are entity ids, 64-bit floats, or
calendar dates. Literal objects are entities too: they can appear in value
sets, they just have no outgoing edges.

File format (UTF-8, one record per line, tab-separated):

    subject<TAB>property<TAB>object<TAB>object_kind
    @alias<TAB>surface form<TAB>entity_id

with object_kind one of ``entity``, ``number``, ``date``. Dates are written
``YYYY-MM-DD``; numbers are decimal literals that round-trip 64-bit floats
exactly (``repr`` form). Alias surface forms may contain spaces.
"""

from __future__ import annotations

import datetime
import hashlib
import math
import re
from pathlib import Path
from typing import Iterable, Iterator

EntityId = str
PropertyId = str
Value = str | float | datetime.date

# Canonical order inside an entity set: entity ids lexicographic, then
# numbers ascending, then dates ascending.
EntitySet = tuple[Value, ...]

Triple = tuple[EntityId, PropertyId, Value]

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

# Entries a KnowledgeBase memo holds before it is cleared. The default
# 100-entity task stays well below it (about 5,800 entries after training);
# walking every program over a 1000-entity KB passes it.
MEMO_LIMIT = 16384


class KBError(Exception):
    """Base class for knowledge-base failures."""


class KBLoadError(KBError):
    """Raised for malformed knowledge-base files."""


class UnknownPropertyError(KBError):
    """Raised when a query names a property the KB does not contain."""


def value_kind(value: Value) -> str:
    """Classify a value as ``entity``, ``number``, or ``date``."""
    if isinstance(value, str):
        return "entity"
    if isinstance(value, float):
        return "number"
    if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
        return "date"
    raise TypeError(f"not a KB value: {value!r}")


_KIND_RANK = {"entity": 0, "number": 1, "date": 2}
_NATIVE_KINDS = frozenset({str, float, datetime.date})


def _sort_key(value: Value):
    return (_KIND_RANK[value_kind(value)], value)


def canon(values: Iterable[Value]) -> EntitySet:
    """Deduplicate and order values canonically (set semantics, stable text).

    Values of one kind sort natively; mixed kinds, and anything that is
    not a KB value (which raises TypeError), go through ``_sort_key``.
    """
    distinct = set(values)
    kinds = set(map(type, distinct))
    if len(kinds) < 2 and kinds <= _NATIVE_KINDS:
        return tuple(sorted(distinct))
    return tuple(sorted(distinct, key=_sort_key))


def _remember(memo: dict, key, value):
    """Store ``value`` under ``key``, first emptying a full memo."""
    if len(memo) >= MEMO_LIMIT:
        memo.clear()
    memo[key] = value
    return value


def answer_f1(predicted: EntitySet, gold: EntitySet) -> tuple[float, float, float]:
    """Precision, recall and F1 of a predicted answer set against the gold set.

    An empty prediction scores 0 on all three. An empty gold set raises
    ValueError: datasets and generated questions always carry answers,
    so an empty one is malformed input rather than something to score.
    """
    if not gold:
        raise ValueError("empty gold answer set")
    overlap = len(set(predicted) & set(gold))
    if overlap == 0:
        return 0.0, 0.0, 0.0
    precision = overlap / len(predicted)
    recall = overlap / len(gold)
    return precision, recall, 2.0 * precision * recall / (precision + recall)


def check_value(value) -> Value:
    """Validate a raw value, coercing plain ints to floats."""
    if isinstance(value, bool):
        raise KBError(f"not a KB value: {value!r}")
    if isinstance(value, int):
        value = float(value)
    try:
        kind = value_kind(value)
    except TypeError as exc:
        raise KBError(str(exc)) from exc
    if kind == "entity" and not value:
        raise KBError("entity ids must be non-empty")
    if kind == "number" and not math.isfinite(value):
        raise KBError(f"numbers must be finite, got {value!r}")
    return value


def format_value(value: Value) -> str:
    kind = value_kind(value)
    if kind == "entity":
        return value
    if kind == "number":
        return repr(value)
    return value.isoformat()


def parse_value(text: str, kind: str) -> Value:
    if kind == "entity":
        if not text:
            raise KBError("empty entity id")
        return text
    if kind == "number":
        try:
            num = float(text)
        except ValueError as exc:
            raise KBError(f"bad number literal {text!r}") from exc
        if not math.isfinite(num):
            raise KBError(f"numbers must be finite, got {text!r}")
        return num
    if kind == "date":
        if not _DATE_RE.match(text):
            raise KBError(f"bad date literal {text!r} (want YYYY-MM-DD)")
        try:
            return datetime.date.fromisoformat(text)
        except ValueError as exc:
            raise KBError(f"bad date literal {text!r}") from exc
    raise KBError(f"unknown object_kind {kind!r}")


class KnowledgeBase:
    """Triple store with forward and subject-property indices.

    Immutable after construction; all query methods are pure. Query
    results are memoized internally: ``forward`` per (set, property) and
    the three property queries per set. A memo never changes an answer,
    it only skips recomputation, and none grows without bound: each one,
    and the table of shared sets below, is emptied when it reaches
    ``MEMO_LIMIT`` entries and then refills.

    The table of shared sets holds one object per canonical set the KB
    has seen or returned, and ``forward`` returns those objects. A query
    skips canonicalising its input only when the input *is* a table
    object (an identity check). An equal tuple is not enough: ``(1,)``
    equals ``(1.0,)`` but is no KB value set, so it still goes through
    ``canon`` and raises TypeError. Sets that hold a float zero are never
    swapped for an equal table object, since 0.0 and -0.0 are equal but
    print differently.
    """

    def __init__(self, triples: Iterable[Triple], aliases: dict[str, EntityId] | None = None):
        tset: set[Triple] = set()
        for subject, prop, obj in triples:
            if not isinstance(subject, str) or not subject:
                raise KBError(f"bad subject {subject!r}")
            if not isinstance(prop, str) or not prop:
                raise KBError(f"bad property {prop!r}")
            tset.add((subject, prop, check_value(obj)))

        alias_map: dict[str, EntityId] = {}
        for surface, entity in sorted((aliases or {}).items()):
            key = surface.lower()
            if not key or not entity:
                raise KBError(f"bad alias {surface!r} -> {entity!r}")
            if alias_map.get(key, entity) != entity:
                raise KBError(f"conflicting alias {surface!r}")
            alias_map[key] = entity

        self.triples: frozenset[Triple] = frozenset(tset)
        self.properties: frozenset[PropertyId] = frozenset(p for _, p, _ in tset)
        self.entities: frozenset[EntityId] = frozenset(
            {s for s, _, _ in tset}
            | {o for _, _, o in tset if isinstance(o, str)}
            | set(alias_map.values())
        )
        self.aliases: dict[str, EntityId] = alias_map

        fwd: dict[tuple[EntityId, PropertyId], set[Value]] = {}
        subj_props: dict[EntityId, set[PropertyId]] = {}
        for subject, prop, obj in tset:
            fwd.setdefault((subject, prop), set()).add(obj)
            subj_props.setdefault(subject, set()).add(prop)
        self._fwd: dict[tuple[EntityId, PropertyId], EntitySet] = {
            key: canon(objs) for key, objs in fwd.items()
        }
        self._subj_props: dict[EntityId, frozenset[PropertyId]] = {
            subj: frozenset(props) for subj, props in subj_props.items()
        }

        self._alias_tokens: dict[tuple[str, ...], EntityId] = {
            tuple(surface.split()): entity for surface, entity in alias_map.items()
        }
        self._alias_max_len = max((len(k) for k in self._alias_tokens), default=0)

        self._shared: dict[EntitySet, EntitySet] = {}
        self._fwd_cache: dict[tuple[EntitySet, PropertyId], EntitySet] = {}
        self._reach_cache: dict[EntitySet, frozenset[PropertyId]] = {}
        self._comp_cache: dict[EntitySet, frozenset[PropertyId]] = {}
        self._conn_cache: dict[tuple[EntitySet, EntitySet], frozenset[PropertyId]] = {}

    def _share(self, canonical: EntitySet) -> EntitySet:
        """The shared object equal to the canonical set ``canonical``,
        which becomes shared itself when there is none."""
        shared = self._shared.get(canonical)
        if shared is None:
            return _remember(self._shared, canonical, canonical)
        if shared is not canonical and 0.0 in canonical:
            return canonical
        return shared

    def canon(self, values: Iterable[Value]) -> EntitySet:
        """``canon(values)`` as this KB's shared object for that set; a
        shared set is returned as it is, without the sort."""
        if type(values) is tuple and self._shared.get(values) is values:
            return values
        key = canon(values)
        return self._share(values if key == values else key)

    def forward(self, values: Iterable[Value], prop: PropertyId) -> EntitySet:
        """All objects reachable from ``values`` along ``prop``.

        Unknown properties are an error, distinct from an empty result.
        """
        key = None
        if type(values) is tuple and self._shared.get(values) is values:
            key = (values, prop)
            cached = self._fwd_cache.get(key)
            if cached is not None:
                return cached
        if prop not in self.properties:
            raise UnknownPropertyError(f"unknown property {prop!r}")
        out: set[Value] = set()
        for value in values:
            if isinstance(value, str):
                out.update(self._fwd.get((value, prop), ()))
        result = self._share(canon(out))
        return result if key is None else _remember(self._fwd_cache, key, result)

    def objects(self, value: Value, prop: PropertyId) -> EntitySet:
        """The objects of one value along ``prop``: () for a literal or a
        missing edge. ``prop`` is not checked."""
        return self._fwd.get((value, prop), ())

    def reachable_properties(self, values: Iterable[Value]) -> frozenset[PropertyId]:
        """Properties with at least one edge out of ``values``."""
        key = self.canon(values)
        cached = self._reach_cache.get(key)
        if cached is None:
            props: set[PropertyId] = set()
            for value in key:
                if isinstance(value, str):
                    props.update(self._subj_props.get(value, ()))
            cached = _remember(self._reach_cache, key, frozenset(props))
        return cached

    def comparable_properties(self, values: Iterable[Value]) -> frozenset[PropertyId]:
        """Reachable properties whose objects from ``values`` are all numbers
        or all dates (the kinds an ordering is defined on)."""
        key = self.canon(values)
        cached = self._comp_cache.get(key)
        if cached is None:
            props: set[PropertyId] = set()
            for prop in self.reachable_properties(key):
                kinds = {value_kind(obj) for obj in self.forward(key, prop)}
                if kinds == {"number"} or kinds == {"date"}:
                    props.add(prop)
            cached = _remember(self._comp_cache, key, frozenset(props))
        return cached

    def connecting_properties(
        self, values1: Iterable[Value], values2: Iterable[Value]
    ) -> frozenset[PropertyId]:
        """Properties with an edge from some value in the first set to some
        value in the second."""
        key = (self.canon(values1), self.canon(values2))
        cached = self._conn_cache.get(key)
        if cached is None:
            targets = set(key[1])
            props: set[PropertyId] = set()
            for value in key[0]:
                if not isinstance(value, str):
                    continue
                for prop in self._subj_props.get(value, ()):
                    if prop not in props and not targets.isdisjoint(self._fwd[(value, prop)]):
                        props.add(prop)
            cached = _remember(self._conn_cache, key, frozenset(props))
        return cached

    def lines(self) -> Iterator[str]:
        """Serialized records in a deterministic order."""
        for subject, prop, obj in sorted(
            self.triples, key=lambda t: (t[0], t[1], _sort_key(t[2]))
        ):
            yield f"{subject}\t{prop}\t{format_value(obj)}\t{value_kind(obj)}"
        for surface, entity in sorted(self.aliases.items()):
            yield f"@alias\t{surface}\t{entity}"

    def digest(self) -> str:
        """SHA-256 of the serialized records: two KBs share a digest
        exactly when they save to the same file."""
        sha = hashlib.sha256()
        for line in self.lines():
            sha.update(line.encode("utf-8") + b"\n")
        return sha.hexdigest()


def save_kb(kb: KnowledgeBase, path: str | Path) -> None:
    Path(path).write_text("".join(line + "\n" for line in kb.lines()), encoding="utf-8")


def load_kb(path: str | Path) -> KnowledgeBase:
    """Load a knowledge base file. Line order never affects the result;
    duplicate triples collapse."""
    triples: list[Triple] = []
    aliases: dict[str, EntityId] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            try:
                if fields[0] == "@alias":
                    if len(fields) != 3:
                        raise KBError("alias lines need @alias, surface, entity_id")
                    _, surface, entity = fields
                    key = surface.lower()
                    if not key or not entity:
                        raise KBError("empty alias surface or target")
                    if aliases.get(key, entity) != entity:
                        raise KBError(f"conflicting alias {surface!r}")
                    aliases[key] = entity
                else:
                    if len(fields) != 4:
                        raise KBError("triple lines need subject, property, object, object_kind")
                    subject, prop, obj_text, kind = fields
                    if not subject or not prop:
                        raise KBError("empty subject or property")
                    triples.append((subject, prop, parse_value(obj_text, kind)))
            except KBError as exc:
                raise KBLoadError(f"{path}:{lineno}: {exc}") from exc
    return KnowledgeBase(triples, aliases)


def resolve_entities(
    kb: KnowledgeBase, words: list[str]
) -> list[tuple[tuple[int, int], EntityId]]:
    """Greedy longest-match alias resolution over lowercase token spans.

    Scans left to right; matched spans do not overlap. Span bounds are
    half-open token indices into ``words``.
    """
    lowered = [w.lower() for w in words]
    found: list[tuple[tuple[int, int], EntityId]] = []
    i = 0
    while i < len(lowered):
        hit = None
        longest = min(kb._alias_max_len, len(lowered) - i)
        for length in range(longest, 0, -1):
            entity = kb._alias_tokens.get(tuple(lowered[i : i + length]))
            if entity is not None:
                hit = (length, entity)
                break
        if hit is None:
            i += 1
        else:
            found.append(((i, i + hit[0]), hit[1]))
            i += hit[0]
    return found
