"""Lisp machine: parse and execute short variable-threading programs.

A program is a sequence of expressions followed by RETURN, written in a
flat token stream:

    ( Hop R0 PlaceOfBirthOf ) ( ArgMax R1 DateOfBirth ) RETURN

Each expression applies one built-in function to variables and a property
name, and binds the result to the next fresh variable (R0, R1, ... count
from the variables the machine started with). The answer is the value of
the last variable created; a bare RETURN answers with the empty set.

Execution is total over parsed programs in the sense that failures are
typed: ParseError for token streams the grammar rejects, ExecError for
programs that name an unknown property.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .kb import EntitySet, KnowledgeBase, UnknownPropertyError, value_kind

FUNCS = ("ArgMax", "ArgMin", "Equal", "Hop")

# Slot kinds per function, in argument order.
SIGNATURES: dict[str, tuple[str, ...]] = {
    "Hop": ("var", "prop"),
    "ArgMax": ("var", "prop"),
    "ArgMin": ("var", "prop"),
    "Equal": ("var", "var", "prop"),
}

RETURN = "RETURN"
OPEN = "("
CLOSE = ")"

MAX_EXPRESSIONS = 3

_VAR_RE = re.compile(r"^R(0|[1-9]\d*)$")


class ProgramError(Exception):
    """Base class for program failures."""


class ParseError(ProgramError):
    def __init__(self, message: str, position: int):
        super().__init__(f"token {position}: {message}")
        self.position = position


class ExecError(ProgramError):
    """Raised when a syntactically valid program cannot run."""


def variable_index(token: str) -> int | None:
    """R7 -> 7; None for anything else (R05 is not a variable)."""
    m = _VAR_RE.match(token)
    return int(m.group(1)) if m else None


@dataclass(frozen=True)
class Expression:
    func: str
    args: tuple[str, ...]

    def tokens(self) -> tuple[str, ...]:
        return (OPEN, self.func, *self.args, CLOSE)


@dataclass(frozen=True)
class Program:
    expressions: tuple[Expression, ...]

    def tokens(self) -> tuple[str, ...]:
        out: list[str] = []
        for expr in self.expressions:
            out.extend(expr.tokens())
        out.append(RETURN)
        return tuple(out)

    def text(self) -> str:
        return " ".join(self.tokens())


def parse_program(
    text_or_tokens: str | list[str],
    n_initial_vars: int = 0,
    max_expressions: int = MAX_EXPRESSIONS,
) -> Program:
    """Parse a token stream into a Program, checking structure only.

    Structure means: balanced single-level parentheses, known functions,
    correct arity, variable tokens restricted to variables already defined
    at that point, RETURN exactly at the end, at most ``max_expressions``
    expressions. Property names are not checked here; binding them to a
    knowledge base happens at execution time.
    """
    if isinstance(text_or_tokens, str):
        tokens = text_or_tokens.split()
    else:
        tokens = list(text_or_tokens)

    expressions: list[Expression] = []
    n_vars = n_initial_vars
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == RETURN:
            if i != len(tokens) - 1:
                raise ParseError("tokens after RETURN", i + 1)
            return Program(tuple(expressions))
        if tok != OPEN:
            raise ParseError(f"expected {OPEN!r} or RETURN, got {tok!r}", i)
        if len(expressions) >= max_expressions:
            raise ParseError(f"more than {max_expressions} expressions", i)
        i += 1
        if i >= len(tokens):
            raise ParseError("unterminated expression", i)
        func = tokens[i]
        if func not in SIGNATURES:
            raise ParseError(f"unknown function {func!r}", i)
        slots = SIGNATURES[func]
        args: list[str] = []
        for kind in slots:
            i += 1
            if i >= len(tokens):
                raise ParseError("unterminated expression", i)
            arg = tokens[i]
            if arg in (OPEN, CLOSE, RETURN):
                raise ParseError(f"expected {kind} argument, got {arg!r}", i)
            if kind == "var":
                idx = variable_index(arg)
                if idx is None:
                    raise ParseError(f"expected variable, got {arg!r}", i)
                if idx >= n_vars:
                    raise ParseError(f"undefined variable {arg}", i)
            else:
                if variable_index(arg) is not None:
                    raise ParseError(f"expected property, got variable {arg}", i)
            args.append(arg)
        i += 1
        if i >= len(tokens) or tokens[i] != CLOSE:
            raise ParseError(f"expected {CLOSE!r}", i)
        expressions.append(Expression(func, tuple(args)))
        n_vars += 1
        i += 1
    raise ParseError("missing RETURN", len(tokens))


def apply_function(kb: KnowledgeBase, func: str, arg_values: list) -> EntitySet:
    """Apply one built-in to already-resolved argument values.

    ``arg_values`` carries EntitySets in var slots and property-name
    strings in prop slots, in signature order.
    """
    if func == "Hop":
        vals, prop = arg_values
        return kb.forward(vals, prop)
    if func in ("ArgMax", "ArgMin"):
        vals, prop = arg_values
        union = kb.forward(vals, prop)
        if not union:
            return ()
        kinds = {value_kind(obj) for obj in union}
        if kinds != {"number"} and kinds != {"date"}:
            raise ExecError(
                f"{func} needs all-number or all-date values for {prop!r}, got {sorted(kinds)}"
            )
        pick = max if func == "ArgMax" else min
        per_source: dict = {}
        for value in vals:
            objs = kb.objects(value, prop)
            if objs:
                per_source[value] = pick(objs)
        best = pick(per_source.values())
        return kb.canon(e for e, v in per_source.items() if v == best)
    if func == "Equal":
        v1, v2, prop = arg_values
        kb.forward((), prop)  # rejects an unknown property
        targets = set(v2)
        return kb.canon(e1 for e1 in v1 if not targets.isdisjoint(kb.objects(e1, prop)))
    raise ExecError(f"unknown function {func!r}")


def slot_properties(kb: KnowledgeBase, func: str, var_values: list[EntitySet]) -> frozenset[str]:
    """Properties for ``func``'s property slot with which it runs and
    denotes a non-empty set, given its var-slot values in signature order."""
    if func == "Hop":
        return kb.reachable_properties(var_values[0])
    if func in ("ArgMax", "ArgMin"):
        return kb.comparable_properties(var_values[0])
    if func == "Equal":
        return kb.connecting_properties(var_values[0], var_values[1])
    raise ExecError(f"unknown function {func!r}")


def execute_program(
    kb: KnowledgeBase, program: Program, initial_vars: list[EntitySet]
) -> EntitySet:
    """Run a parsed program; the answer is the last variable created.

    A program with no expressions denotes the empty set. Unknown
    properties raise ExecError.
    """
    variables = [kb.canon(values) for values in initial_vars]  # R<i> is variables[i]
    result: EntitySet = ()
    for expr in program.expressions:
        arg_values: list = []
        for kind, token in zip(SIGNATURES[expr.func], expr.args):
            if kind == "var":
                idx = variable_index(token)
                if idx is None or idx >= len(variables):
                    raise ExecError(f"undefined variable {token}")
                arg_values.append(variables[idx])
            else:
                arg_values.append(token)
        try:
            result = apply_function(kb, expr.func, arg_values)
        except UnknownPropertyError as exc:
            raise ExecError(str(exc)) from exc
        variables.append(kb.canon(result))
    return result


def run_program_text(kb: KnowledgeBase, text: str, initial_vars: list[EntitySet]) -> EntitySet:
    program = parse_program(text, len(initial_vars))
    return execute_program(kb, program, initial_vars)

