"""Code assist: the machine tells the decoder which tokens cannot fail.

Given a partial program, ``valid_tokens`` returns exactly the next tokens
that keep a path open to a complete program that runs without error and
whose every expression denotes a non-empty set. Validity is decided with
one-token lookahead plus slot-satisfiability checks; the grammar is
shallow enough that this equals full lookahead.

Empty intermediate denotations count as semantic errors and are pruned.
That pruning is what makes the search space small: a property slot only
ever offers relations that actually lead somewhere from the chosen
variables.
"""

from __future__ import annotations

import random

from .interpreter import (
    CLOSE,
    FUNCS,
    MAX_EXPRESSIONS,
    OPEN,
    RETURN,
    SIGNATURES,
    Program,
    apply_function,
    parse_program,
)
from .kb import EntitySet, KnowledgeBase, canon


class AssistError(Exception):
    """Raised when a token outside the valid set is fed."""


def _slot_properties(kb: KnowledgeBase, func: str, chosen: list[EntitySet]) -> frozenset[str]:
    """Properties admissible in ``func``'s property slot given the chosen
    variable values (in signature order)."""
    if func == "Hop":
        return kb.reachable_properties(chosen[0])
    if func in ("ArgMax", "ArgMin"):
        return kb.comparable_properties(chosen[0])
    if func == "Equal":
        return kb.connecting_properties(chosen[0], chosen[1])
    raise AssistError(f"unknown function {func!r}")


class DecodingState:
    """One point in the search over programs.

    Immutable: ``feed`` returns a new state, so beam search can branch
    freely. The valid-token set is computed lazily and cached per state.
    """

    __slots__ = (
        "kb",
        "max_expressions",
        "var_values",
        "n_expressions",
        "buffer",
        "emitted",
        "terminated",
        "_valid",
    )

    def __init__(
        self,
        kb: KnowledgeBase,
        initial_vars: list[EntitySet] | tuple[EntitySet, ...] = (),
        max_expressions: int = MAX_EXPRESSIONS,
    ):
        self.kb = kb
        self.max_expressions = max_expressions
        self.var_values: tuple[EntitySet, ...] = tuple(canon(v) for v in initial_vars)
        self.n_expressions = 0
        self.buffer: tuple[str, ...] = ()
        self.emitted: tuple[str, ...] = ()
        self.terminated = False
        self._valid: frozenset[str] | None = None

    def _child(self) -> "DecodingState":
        new = object.__new__(DecodingState)
        new.kb = self.kb
        new.max_expressions = self.max_expressions
        new.var_values = self.var_values
        new.n_expressions = self.n_expressions
        new.buffer = self.buffer
        new.emitted = self.emitted
        new.terminated = self.terminated
        new._valid = None
        return new

    # -- variable helpers -------------------------------------------------

    def _live_vars(self) -> list[tuple[str, EntitySet]]:
        """Variables whose values are non-empty, with their names."""
        return [
            (f"R{i}", v) for i, v in enumerate(self.var_values) if v
        ]

    def denotation(self) -> EntitySet:
        """Value of the last variable an expression created; () before any."""
        if self.n_expressions == 0:
            return ()
        return self.var_values[-1]

    def program(self) -> Program:
        """The terminated program this state spells out."""
        if not self.terminated:
            raise AssistError("state not terminated")
        return parse_program(list(self.emitted), len(self.var_values) - self.n_expressions,
                             self.max_expressions)

    # -- the oracle -------------------------------------------------------

    def _function_satisfiable(self, func: str) -> bool:
        live = self._live_vars()
        if func == "Hop":
            return any(self.kb.reachable_properties(v) for _, v in live)
        if func in ("ArgMax", "ArgMin"):
            return any(self.kb.comparable_properties(v) for _, v in live)
        if func == "Equal":
            return any(
                self.kb.connecting_properties(v1, v2)
                for _, v1 in live
                for _, v2 in live
            )
        raise AssistError(f"unknown function {func!r}")

    def _compute_valid(self) -> frozenset[str]:
        if self.terminated:
            return frozenset()
        buf = self.buffer
        if not buf:
            # expression boundary
            if self.n_expressions >= self.max_expressions:
                return frozenset({RETURN})
            valid: set[str] = set()
            if any(self._function_satisfiable(f) for f in FUNCS):
                valid.add(OPEN)
            if self.var_values:
                valid.add(RETURN)
            if not valid:
                # dead start (no variables, nothing satisfiable): the only
                # way out is the empty program
                return frozenset({RETURN})
            return frozenset(valid)
        if len(buf) == 1:
            return frozenset(f for f in FUNCS if self._function_satisfiable(f))
        func = buf[1]
        slots = SIGNATURES[func]
        n_filled = len(buf) - 2
        if n_filled == len(slots):
            return frozenset({CLOSE})
        kind = slots[n_filled]
        live = self._live_vars()
        if kind == "prop":
            chosen = [self.var_values[int(t[1:])] for t in buf[2 : 2 + n_filled]]
            return frozenset(_slot_properties(self.kb, func, chosen))
        # var slot
        if func == "Hop":
            return frozenset(n for n, v in live if self.kb.reachable_properties(v))
        if func in ("ArgMax", "ArgMin"):
            return frozenset(n for n, v in live if self.kb.comparable_properties(v))
        # Equal: first slot needs a partner (itself allowed), second must
        # connect to the already-chosen first
        if n_filled == 0:
            return frozenset(
                n1
                for n1, v1 in live
                if any(self.kb.connecting_properties(v1, v2) for _, v2 in live)
            )
        v1 = self.var_values[int(buf[2][1:])]
        return frozenset(n for n, v in live if self.kb.connecting_properties(v1, v))

    def valid_tokens(self) -> frozenset[str]:
        if self._valid is None:
            self._valid = self._compute_valid()
        return self._valid

    def feed(self, token: str) -> "DecodingState":
        """Advance by one token; the token must be valid here."""
        if token not in self.valid_tokens():
            raise AssistError(f"token {token!r} invalid after {' '.join(self.emitted)!r}")
        new = self._child()
        new.emitted = self.emitted + (token,)
        if token == RETURN:
            new.terminated = True
            return new
        buf = self.buffer + (token,)
        if token == CLOSE:
            func = buf[1]
            args = buf[2:-1]
            arg_values: list = []
            for kind, tok in zip(SIGNATURES[func], args):
                arg_values.append(self.var_values[int(tok[1:])] if kind == "var" else tok)
            result = apply_function(self.kb, func, list(arg_values))
            new.var_values = self.var_values + (result,)
            new.n_expressions = self.n_expressions + 1
            new.buffer = ()
        else:
            new.buffer = buf
        return new

    def feed_all(self, tokens: list[str] | tuple[str, ...]) -> "DecodingState":
        state = self
        for token in tokens:
            state = state.feed(token)
        return state


def random_rollout(
    kb: KnowledgeBase,
    initial_vars: list[EntitySet],
    rng_seed: int | random.Random,
    max_expressions: int = MAX_EXPRESSIONS,
) -> Program:
    """Sample a program by picking uniformly among valid tokens until RETURN.

    Always terminates: RETURN is forced once the expression budget is
    spent, and every intermediate state offers at least one token.
    """
    rng = rng_seed if isinstance(rng_seed, random.Random) else random.Random(rng_seed)
    state = DecodingState(kb, initial_vars, max_expressions)
    while not state.terminated:
        choices = sorted(state.valid_tokens())
        state = state.feed(rng.choice(choices))
    return state.program()
