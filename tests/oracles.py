"""Independent reference implementations used only by tests.

Everything here is deliberately naive: raw comprehensions over triple
lists, no indices, no sharing with the package under test. Slow is fine;
being obviously correct is the point. The exceptions drive the
package's own pieces: ``random_rollout`` its decoding state, to sample
programs for the soundness tests, and ``next_token_distribution``,
``reference_beam`` and ``reference_samples`` its decoder rules, one lane
and one token at a time: one prefix, feeding every expansion before the
cut, and one GO step and one feed per sampling lane.
"""

from __future__ import annotations

import datetime
import random
from itertools import product

import numpy as np
from hypothesis import strategies as st

from lisplab.assist import AssistError, DecodingState
from lisplab.interpreter import MAX_EXPRESSIONS, Program, parse_program
from lisplab.programmer import _feed, _finish, _Lane, _lane_scores, _start, encode

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


def two_branch_sigmoid(x):
    """The logistic function by boolean indexing: 1 / (1 + exp(-x)) where
    x >= 0, exp(x) / (1 + exp(x)) elsewhere (nan included)."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


def next_token_distribution(model, kb, item, prefix=(), max_expressions=MAX_EXPRESSIONS):
    """Model probabilities over the valid next tokens after a prefix."""
    encoding = encode(model, item)
    lane = _start(_Lane, model, kb, item, max_expressions, encoding)
    for token in prefix:
        if lane.done:
            raise ValueError("prefix continues past RETURN")
        lane_scores = _lane_scores(model, encoding.enc, [lane])[0]
        tid = model.token_to_id(token)
        pos = np.nonzero(lane_scores[0] == tid)[0]
        if pos.size != 1:
            raise ValueError(f"prefix token {token!r} not valid at its position")
        _feed(model, [lane], [tid], [float(lane_scores[1][pos[0]])])
    if lane.done:
        return {}
    valid_ids, logps = _lane_scores(model, encoding.enc, [lane])[0]
    return {model.id_to_token(int(t)): float(np.exp(lp)) for t, lp in zip(valid_ids, logps)}


def reference_beam(model, kb, item, beam_size, max_expressions=MAX_EXPRESSIONS):
    """Beam search that feeds every valid expansion, then keeps the
    beam_size best live ones by (-log-prob, token ids); every finished
    expansion waits for the final cut."""
    encoding = encode(model, item)
    live = [_start(_Lane, model, kb, item, max_expressions, encoding)]
    finished = []
    while live:
        expanded = []
        for lane, (valid_ids, logps) in zip(live, _lane_scores(model, encoding.enc, live)):
            for tid, lp in zip(valid_ids, logps):
                branch = lane.clone()
                _feed(model, [branch], [int(tid)], [float(lp)])
                if branch.done:
                    finished.append(_finish(branch))
                else:
                    expanded.append(branch)
        expanded.sort(key=lambda l: (-l.logprob, l.token_ids))
        live = expanded[:beam_size]
    finished.sort(key=lambda c: (-c.logprob, c.token_ids))
    return finished[:beam_size]


def reference_samples(model, kb, item, n_samples, rng, max_expressions=MAX_EXPRESSIONS):
    """Ancestral sampling with one GO step per lane and each lane fed on
    its own: one uniform draw per unfinished lane per step, in lane order."""
    encoding = encode(model, item)
    lanes = [_start(_Lane, model, kb, item, max_expressions, encoding) for _ in range(n_samples)]
    while True:
        active = [lane for lane in lanes if not lane.done]
        if not active:
            break
        for lane, (valid_ids, logps) in zip(active, _lane_scores(model, encoding.enc, active)):
            u = rng.random()
            probs = np.exp(logps)
            acc = 0.0
            pick = len(valid_ids) - 1
            for j, p in enumerate(probs):
                acc += p
                if u < acc:
                    pick = j
                    break
            _feed(model, [lane], [int(valid_ids[pick])], [float(logps[pick])])
    return [_finish(lane) for lane in lanes]
