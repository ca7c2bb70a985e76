"""Independent reference implementations used only by tests.

Everything here is deliberately naive: raw comprehensions over triple
lists, no indices, no sharing with the package under test. Slow is fine;
being obviously correct is the point. The one exception is
``random_rollout``, which drives the package's own decoding state to
sample programs for the soundness tests.
"""

from __future__ import annotations

import datetime
import random
from itertools import product

from hypothesis import strategies as st

from lisplab.assist import AssistError, DecodingState
from lisplab.interpreter import MAX_EXPRESSIONS, Program, parse_program

Value = object


def _kind(value) -> str:
    if isinstance(value, str):
        return "entity"
    if isinstance(value, float):
        return "number"
    if isinstance(value, datetime.date):
        return "date"
    raise TypeError(value)


_RANK = {"entity": 0, "number": 1, "date": 2}


def naive_canon(values) -> tuple:
    return tuple(sorted(set(values), key=lambda v: (_RANK[_kind(v)], v)))


def naive_hop(triples, values, prop):
    vset = set(values)
    return naive_canon(o for s, p, o in triples if p == prop and s in vset)


def _extreme(triples, values, prop, pick):
    """ArgMax/ArgMin: keep sources whose own best p-object attains the global best.

    Errors (ValueError) when the reachable objects are not all numbers or
    all dates."""
    vset = set(values)
    union = [o for s, p, o in triples if p == prop and s in vset]
    if not union:
        return ()
    kinds = {_kind(o) for o in union}
    if kinds != {"number"} and kinds != {"date"}:
        raise ValueError(f"incomparable kinds {sorted(kinds)}")
    per_source = {}
    for e1 in vset:
        objs = [o for s, p, o in triples if s == e1 and p == prop]
        if objs:
            per_source[e1] = pick(objs)
    best = pick(per_source.values())
    return naive_canon(e for e, v in per_source.items() if v == best)


def naive_argmax(triples, values, prop):
    return _extreme(triples, values, prop, max)


def naive_argmin(triples, values, prop):
    return _extreme(triples, values, prop, min)


def naive_equal(triples, values1, values2, prop):
    v2 = set(values2)
    return naive_canon(
        e1
        for e1 in set(values1)
        if any(s == e1 and p == prop and o in v2 for s, p, o in triples)
    )


def naive_apply(triples, func, args):
    if func == "Hop":
        return naive_hop(triples, *args)
    if func == "ArgMax":
        return naive_argmax(triples, *args)
    if func == "ArgMin":
        return naive_argmin(triples, *args)
    if func == "Equal":
        return naive_equal(triples, *args)
    raise ValueError(func)


def naive_execute(triples, program_exprs, initial_vars):
    """Run a parsed program (list of (func, arg_tokens) tuples) naively.

    ``initial_vars`` is the list of R0.. values. Returns the value of the
    last variable created, or () if the program creates none. Raises
    ValueError on an argument naming a property absent from the triples
    (matching the machine's unknown-property error)."""
    props = {p for _, p, _ in triples}
    env = list(initial_vars)
    for func, arg_tokens in program_exprs:
        args = []
        for tok in arg_tokens:
            if tok.startswith("R") and tok[1:].isdigit():
                args.append(env[int(tok[1:])])
            else:
                if tok not in props:
                    raise ValueError(f"unknown property {tok}")
                args.append(tok)
        env.append(naive_apply(triples, func, args))
    return env[-1] if len(env) > len(initial_vars) else ()


def scalar_sigmoid(v):
    import math

    return 1.0 / (1.0 + math.exp(-v))


def scalar_matvec(w, v):
    return [sum(w[i][j] * v[j] for j in range(len(v))) for i in range(len(w))]


def scalar_gru(weights, h, x):
    """GRU step computed with explicit index loops; weights is a dict of
    nested lists (wxz, whz, bz, wxr, whr, br, wxc, whc, bc)."""
    import math

    z = [
        scalar_sigmoid(a + b + c)
        for a, b, c in zip(
            scalar_matvec(weights["wxz"], x), scalar_matvec(weights["whz"], h), weights["bz"]
        )
    ]
    r = [
        scalar_sigmoid(a + b + c)
        for a, b, c in zip(
            scalar_matvec(weights["wxr"], x), scalar_matvec(weights["whr"], h), weights["br"]
        )
    ]
    rh = [ri * hi for ri, hi in zip(r, h)]
    c = [
        math.tanh(a + b + d)
        for a, b, d in zip(
            scalar_matvec(weights["wxc"], x), scalar_matvec(weights["whc"], rh), weights["bc"]
        )
    ]
    return [zi * hi + (1.0 - zi) * ci for zi, hi, ci in zip(z, h, c)]


def scalar_attention(w_score, w_combine, u, enc):
    """Dot-product attention with explicit loops; returns (weights, output)."""
    import math

    scores = []
    for h_t in enc:
        wh = scalar_matvec(w_score, h_t)
        scores.append(sum(ui * whi for ui, whi in zip(u, wh)))
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    total = sum(exps)
    weights = [e / total for e in exps]
    ctx = [sum(weights[t] * enc[t][j] for t in range(len(enc))) for j in range(len(u))]
    cat = list(u) + ctx
    comb = scalar_matvec(w_combine, cat)
    return weights, [math.tanh(v) for v in comb]


def scalar_softmax(logits, mask):
    import math

    valid = [l for l, m in zip(logits, mask) if m]
    mx = max(valid)
    exps = [math.exp(v - mx) for v in valid]
    total = sum(exps)
    out = []
    it = iter(exps)
    for m in mask:
        out.append(next(it) / total if m else 0.0)
    return out


def random_triples(rng: random.Random, n_entities=8, n_props=4):
    """A random small KB as a raw triple list, mixing object kinds freely."""
    entities = [f"e{i}" for i in range(n_entities)]
    props = [f"p{i}" for i in range(n_props)]
    out = []
    for _ in range(rng.randint(1, 4 * n_entities)):
        kind = rng.random()
        if kind < 0.5:
            obj = rng.choice(entities)
        elif kind < 0.8:
            obj = float(rng.randint(-5, 5))
        else:
            obj = datetime.date(rng.randint(1900, 2020), rng.randint(1, 12), rng.randint(1, 28))
        out.append((rng.choice(entities), rng.choice(props), obj))
    return out, entities, props


def random_program_tokens(rng: random.Random, n_initial_vars, properties, max_expressions=3):
    """A syntactically valid random program; may fail at run time.

    Unknown properties are injected occasionally so error paths get
    exercised too.
    """
    sigs = {
        "Hop": ("var", "prop"),
        "ArgMax": ("var", "prop"),
        "ArgMin": ("var", "prop"),
        "Equal": ("var", "var", "prop"),
    }
    tokens = []
    n_vars = n_initial_vars
    for _ in range(rng.randint(0, max_expressions)):
        if n_vars == 0:
            break
        func = rng.choice(sorted(sigs))
        args = []
        for kind in sigs[func]:
            if kind == "var":
                args.append(f"R{rng.randrange(n_vars)}")
            elif properties and rng.random() > 0.1:
                args.append(rng.choice(properties))
            else:
                args.append("never_a_property")
        tokens += ["(", func, *args, ")"]
        n_vars += 1
    tokens.append("RETURN")
    return tokens


def enumerate_programs(triples, initial_vars, max_expressions):
    """Every token sequence the grammar admits, with its outcome.

    Yields (tokens, outcome) where outcome is the denotation tuple for
    programs that run without error, or None for ones that fail (unknown
    property cannot occur here since candidates come from the triple set;
    failures are empty intermediate results, which the assist oracle
    treats as dead ends). Grammar-level enumeration: every function, every
    defined variable, every property in the KB, at every slot.
    """

    props = sorted({p for _, p, _ in triples})
    sigs = {
        "Hop": ("var", "prop"),
        "ArgMax": ("var", "prop"),
        "ArgMin": ("var", "prop"),
        "Equal": ("var", "var", "prop"),
    }

    def rec(exprs_so_far, env):
        tokens = [t for expr in exprs_so_far for t in expr]
        yield tokens + ["RETURN"], env[-1] if len(env) > len(initial_vars) else ()
        if len(exprs_so_far) >= max_expressions:
            return
        for func in sorted(sigs):
            slot_choices = []
            for kind in sigs[func]:
                if kind == "var":
                    slot_choices.append([f"R{i}" for i in range(len(env))])
                else:
                    slot_choices.append(props)
            for combo in product(*slot_choices):
                args = [env[int(t[1:])] if t.startswith("R") else t for t in combo]
                try:
                    result = naive_apply(triples, func, args)
                except ValueError:
                    continue
                if not result:
                    continue
                expr = ["(", func, *combo, ")"]
                yield from rec(exprs_so_far + [expr], env + [result])

    yield from rec([], list(initial_vars))


def state_program(state: DecodingState) -> Program:
    """The terminated program a decoding state spells out."""
    if not state.terminated:
        raise AssistError("state not terminated")
    return parse_program(list(state.emitted), len(state.var_values) - state.n_expressions,
                         state.max_expressions)


def random_rollout(kb, initial_vars, rng_seed, max_expressions=MAX_EXPRESSIONS) -> Program:
    """Sample a program by picking uniformly among valid tokens until RETURN.

    Always terminates: RETURN is forced once the expression budget is
    spent, and every intermediate state offers at least one token.
    """
    rng = rng_seed if isinstance(rng_seed, random.Random) else random.Random(rng_seed)
    state = DecodingState(kb, initial_vars, max_expressions)
    while not state.terminated:
        choices = sorted(state.valid_tokens())
        state = state.feed(rng.choice(choices))
    return state_program(state)


@st.composite
def byte_edits(draw, blob: bytes) -> bytes:
    """``blob`` with a few bytes replaced, inserted or deleted, or its tail cut."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out)))
        op = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        byte = draw(st.integers(0, 255))
        if op == "insert" or not out:
            out.insert(at, byte)
        elif op == "replace":
            out[min(at, len(out) - 1)] = byte
        elif op == "delete":
            del out[min(at, len(out) - 1)]
        else:
            del out[at:]
    return bytes(out)
