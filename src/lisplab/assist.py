"""Code assist: the machine tells the decoder which tokens cannot fail.

Given a partial program, ``valid_tokens`` returns exactly the next tokens
that keep a path open to a complete program that runs without error and
whose every expression denotes a non-empty set. One rule decides every
function and variable token: it is valid exactly when live variables can
fill the rest of the expression's var slots so that the property slot,
whose admissible properties ``interpreter.slot_properties`` gives, is
non-empty. At an expression boundary RETURN is always valid, and ``(``
is valid while the expression budget lasts and some function can be
completed. The grammar is shallow enough that this equals full lookahead.

Empty intermediate denotations count as semantic errors and are pruned.
That pruning is what makes the search space small: a property slot only
ever offers relations that actually lead somewhere from the chosen
variables.
"""

from __future__ import annotations

from .interpreter import (
    CLOSE,
    FUNCS,
    MAX_EXPRESSIONS,
    OPEN,
    RETURN,
    SIGNATURES,
    apply_function,
    slot_properties,
    variable_token,
)
from .kb import EntitySet, KnowledgeBase


_NONE = frozenset()
_RETURN_ONLY = frozenset({RETURN})
_OPEN_OR_RETURN = frozenset({OPEN, RETURN})
_CLOSE_ONLY = frozenset({CLOSE})


class AssistError(Exception):
    """Raised when a token outside the valid set is fed."""


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
        self.var_values: tuple[EntitySet, ...] = tuple(kb.canon(v) for v in initial_vars)
        self.n_expressions = 0
        self.buffer: tuple[str, ...] = ()
        self.emitted: tuple[str, ...] = ()
        self.terminated = False
        self._valid: frozenset[str] | None = None

    def denotation(self) -> EntitySet:
        """Value of the last variable an expression created; () before any."""
        if self.n_expressions == 0:
            return ()
        return self.var_values[-1]

    # -- the oracle -------------------------------------------------------

    def _fillable(self, func: str, chosen: list[EntitySet], live: list[EntitySet]) -> bool:
        """True when ``live`` (non-empty) variable values can fill ``func``'s
        var slots after ``chosen`` so that its property slot is non-empty."""
        if SIGNATURES[func][len(chosen)] == "prop":
            return bool(slot_properties(self.kb, func, chosen))
        for v in live:
            if self._fillable(func, chosen + [v], live):
                return True
        return False

    def _compute_valid(self) -> frozenset[str]:
        if self.terminated:
            return _NONE
        buf = self.buffer
        if not buf:
            # expression boundary: RETURN always, OPEN while the budget
            # lasts and some function can be completed
            if self.n_expressions < self.max_expressions:
                live = [v for v in self.var_values if v]
                if any(self._fillable(f, [], live) for f in FUNCS):
                    return _OPEN_OR_RETURN
            return _RETURN_ONLY
        if len(buf) == 1:
            live = [v for v in self.var_values if v]
            return frozenset(f for f in FUNCS if self._fillable(f, [], live))
        func = buf[1]
        slots = SIGNATURES[func]
        n_filled = len(buf) - 2
        if n_filled == len(slots):
            return _CLOSE_ONLY
        chosen = [self.var_values[int(t[1:])] for t in buf[2:]]
        if slots[n_filled] == "prop":
            return slot_properties(self.kb, func, chosen)
        live = [v for v in self.var_values if v]
        return frozenset(
            variable_token(i) for i, v in enumerate(self.var_values)
            if v and self._fillable(func, chosen + [v], live)
        )

    def valid_tokens(self) -> frozenset[str]:
        if self._valid is None:
            self._valid = self._compute_valid()
        return self._valid

    def feed(self, token: str) -> "DecodingState":
        """Advance by one token; the token must be valid here."""
        valid = self._valid
        if valid is None:
            valid = self.valid_tokens()
        if token not in valid:
            raise AssistError(f"token {token!r} invalid after {' '.join(self.emitted)!r}")
        new = object.__new__(DecodingState)
        new.kb = self.kb
        new.max_expressions = self.max_expressions
        new.emitted = self.emitted + (token,)
        new.terminated = token == RETURN
        new._valid = None
        if token == CLOSE:
            buf = self.buffer
            arg_values = [self.var_values[int(tok[1:])] if kind == "var" else tok
                          for kind, tok in zip(SIGNATURES[buf[1]], buf[2:])]
            new.var_values = self.var_values + (apply_function(self.kb, buf[1], arg_values),)
            new.n_expressions = self.n_expressions + 1
            new.buffer = ()
        else:
            new.var_values = self.var_values
            new.n_expressions = self.n_expressions
            new.buffer = self.buffer if new.terminated else self.buffer + (token,)
        return new

    def feed_all(self, tokens: list[str] | tuple[str, ...]) -> "DecodingState":
        state = self
        for token in tokens:
            state = state.feed(token)
        return state

